"""PageRank (Brin & Page), power iteration with dangling-node handling."""

from __future__ import annotations


def pagerank(graph, damping: float = 0.85, max_iterations: int = 100,
             tolerance: float = 1e-10, *, ctx=None) -> dict:
    """PageRank scores summing to 1.0.

    Parallel edges contribute multiplicity to the transition probabilities,
    matching the multigraph models of the paper.  Dangling nodes distribute
    their mass uniformly.  Under an execution context the power iteration
    checkpoints once per sweep (site ``pagerank.iteration``).
    """
    if not 0 <= damping < 1:
        raise ValueError("damping must be in [0, 1)")
    nodes = sorted(graph.nodes(), key=str)
    n = len(nodes)
    if n == 0:
        return {}
    rank = {node: 1.0 / n for node in nodes}
    out_degree = {node: graph.out_degree(node) for node in nodes}
    for _ in range(max_iterations):
        if ctx is not None:
            ctx.checkpoint("pagerank.iteration")
        dangling_mass = sum(rank[node] for node in nodes
                            if out_degree[node] == 0)
        incoming = {node: 0.0 for node in nodes}
        for node in nodes:
            if out_degree[node] == 0:
                continue
            share = rank[node] / out_degree[node]
            for successor in graph.successors(node):
                incoming[successor] += share
        updated = {}
        base = (1.0 - damping) / n + damping * dangling_mass / n
        for node in nodes:
            updated[node] = base + damping * incoming[node]
        delta = sum(abs(updated[node] - rank[node]) for node in nodes)
        rank = updated
        if delta < tolerance:
            break
    return rank
