"""HITS hubs-and-authorities (Kleinberg), cited by the paper for community
interaction analysis."""

from __future__ import annotations

import math


def hits(graph, max_iterations: int = 100,
         tolerance: float = 1e-10, *, ctx=None) -> tuple[dict, dict]:
    """Return (hub, authority) scores, each L2-normalized.

    Parallel edges count with multiplicity.  Under an execution context the
    mutual-recursion loop checkpoints once per sweep (site
    ``hits.iteration``).
    """
    nodes = sorted(graph.nodes(), key=str)
    if not nodes:
        return {}, {}
    hub = {node: 1.0 for node in nodes}
    authority = {node: 1.0 for node in nodes}
    for _ in range(max_iterations):
        if ctx is not None:
            ctx.checkpoint("hits.iteration")
        new_authority = {node: 0.0 for node in nodes}
        for node in nodes:
            for successor in graph.successors(node):
                new_authority[successor] += hub[node]
        _normalize(new_authority)
        new_hub = {node: 0.0 for node in nodes}
        for node in nodes:
            for successor in graph.successors(node):
                new_hub[node] += new_authority[successor]
        _normalize(new_hub)
        delta = sum(abs(new_hub[n] - hub[n]) for n in nodes)
        delta += sum(abs(new_authority[n] - authority[n]) for n in nodes)
        hub, authority = new_hub, new_authority
        if delta < tolerance:
            break
    return hub, authority


def _normalize(scores: dict) -> None:
    norm = math.sqrt(sum(value * value for value in scores.values()))
    if norm > 0:
        for key in scores:
            scores[key] /= norm
