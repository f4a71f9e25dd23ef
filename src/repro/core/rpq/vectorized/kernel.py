"""The vectorized RPQ fixpoint: frontier expansion as array blocks.

Where the scalar engine materializes the graph × NFA product and pushes
start-set bitmasks state by state, this kernel never builds the product at
all.  It tracks, per *NFA* state ``q``, the reachability relation

    R[q] ⊆ Starts × Nodes — "start a reaches node v in NFA state q"

as a bitset ``uint64[n, W]`` (``W = ceil(S/64)`` words of start-set bits
per node; memory O(n·S/64) per live NFA state) and runs the monotone
fixpoint directly over the NFA's transitions:

- an edge transition ``(test, inverse, q2)`` gathers source rows in the
  order of its destination-sorted CSR and folds each destination's
  segment with ``np.bitwise_or.reduceat`` — one segmented OR-reduction
  per application, instead of one Python iteration per product edge.
  The CSR comes from :meth:`GraphArrays.transition_csr`, which builds it
  once per graph snapshot for exact label sets and the wildcard;
- a guarded epsilon ``(guard, q2)`` copies the rows of the nodes
  satisfying the guard.

The fixpoint is monotone (rows only gain bits), so any processing order
terminates with the same relation; answers are read off ``R[accept]``
restricted to the end filter.  Semantics replicated from the scalar
engine: an explicit start node missing from the graph raises
:class:`~repro.errors.GraphError`, missing end nodes are silently
filtered, zero-length paths appear via the epsilon closure of the seeds,
and parallel same-label edges collapse (reachability, not multiplicity).

Governor checkpoints are block-granular: one :meth:`Context.checkpoint`
call per transition build (memoized or not) and per fixpoint block,
charging the block's element count in bulk (``steps=``), so step budgets
keep binding at the same order of magnitude as the scalar per-element
charges.
"""

from __future__ import annotations

from collections import deque

from repro.core.rpq.vectorized.arrays import graph_arrays
from repro.core.rpq.vectorized.engine import numpy_or_none
from repro.errors import GraphError

#: Checkpoint sites of the vector engine (fault injection targets these
#: like any other dotted site).
BUILD_SITE = "vector.build"
FIXPOINT_SITE = "vector.fixpoint"
BACK_SITE = "vector.back"


def _resolve_starts(arrays, start_nodes):
    """The start list (scalar-identical order and error surface)."""
    if start_nodes is None:
        return arrays.nodes, None
    starts = sorted(set(start_nodes), key=str)
    for node in starts:
        if node not in arrays.index:
            raise GraphError(f"start node {node!r} is not in the graph")
    return starts, [arrays.index[node] for node in starts]


class _EdgeOp:
    """One NFA edge transition lowered to its destination-sorted CSR."""

    __slots__ = ("q2", "src_sorted", "seg_starts", "unique_dst")

    def __init__(self, q2: int, csr) -> None:
        self.q2 = q2
        self.src_sorted, self.seg_starts, self.unique_dst = csr


class _EpsOp:
    """One guarded epsilon transition lowered to a node-index selection."""

    __slots__ = ("q2", "rows")

    def __init__(self, q2: int, rows) -> None:
        self.q2 = q2
        self.rows = rows  # None = unguarded (every node)


def _build_ops(graph, nfa, arrays, use_label_index: bool, ctx=None):
    """Lower every NFA transition to its array op.

    Returns ``(ops_by_state, reused)``, ``reused`` counting the edge
    transitions whose CSR came from the snapshot's memo.
    """
    np = numpy_or_none()
    ops: list[list] = [[] for _ in range(nfa.n_states)]
    reused = 0
    for q, transitions in nfa.edge_transitions.items():
        for test, inverse, q2 in transitions:
            if ctx is not None:
                ctx.checkpoint(BUILD_SITE, steps=max(1, arrays.m))
            csr, hit = arrays.transition_csr(graph, test, inverse,
                                             use_label_index)
            reused += hit
            ops[q].append(_EdgeOp(q2, csr))
    for q, transitions in nfa.epsilon_transitions.items():
        for guard, q2 in transitions:
            rows = None
            if guard is not None:
                if ctx is not None:
                    ctx.checkpoint(BUILD_SITE, steps=max(1, arrays.n))
                rows = np.flatnonzero(arrays.node_mask(graph, guard))
            ops[q].append(_EpsOp(q2, rows))
    return ops, reused


def vector_endpoint_pairs(graph, nfa, start_nodes=None, end_nodes=None, *,
                          use_label_index: bool = True, ctx=None,
                          tracer=None) -> set[tuple]:
    """All (start, end) endpoint pairs of [[regex]] — the vector engine.

    Drop-in equivalent of the scalar ``_product_pairs`` (the differential
    harness asserts equality instance by instance).
    """
    np = numpy_or_none()
    arrays = graph_arrays(graph)
    starts, start_idx = _resolve_starts(arrays, start_nodes)
    n = arrays.n
    n_starts = len(starts)
    if n == 0 or n_starts == 0:
        return set()

    if tracer is None:
        ops, _ = _build_ops(graph, nfa, arrays, use_label_index, ctx)
    else:
        with tracer.span("vector:build", ctx=ctx, nodes=n, edges=arrays.m,
                         starts=n_starts) as span:
            ops, reused = _build_ops(graph, nfa, arrays, use_label_index,
                                     ctx)
            span.attrs["transitions"] = sum(len(group) for group in ops)
            span.attrs["reused"] = reused

    # Lazily allocated per-NFA-state relations; a state never written
    # stays None (identically empty).
    width = (n_starts + 63) // 64
    relations: list = [None] * nfa.n_states

    def fresh():
        return np.zeros((n, width), dtype=np.uint64)

    # Seed: start s sets bit s of its own node's row, in one scatter
    # (start nodes are distinct, so no two bits share a row).
    seed = relations[nfa.start] = fresh()
    start_bits = np.arange(n_starts)
    seed_rows = start_bits if start_idx is None else np.asarray(start_idx)
    seed[seed_rows, start_bits >> 6] = (
        np.uint64(1) << (start_bits & 63).astype(np.uint64))

    def apply_edge(op, source_rel) -> bool:
        """OR op's image of ``source_rel`` into R[q2]; True if it grew."""
        if op.unique_dst.size == 0:
            return False  # no edge passes the test
        target = relations[op.q2]
        gathered = source_rel[op.src_sorted]
        reduced = np.bitwise_or.reduceat(gathered, op.seg_starts, axis=0)
        if target is None:
            if not reduced.any():
                return False
            target = relations[op.q2] = fresh()
            target[op.unique_dst] = reduced
            return True
        current = target[op.unique_dst]
        merged = current | reduced
        if (merged == current).all():
            return False
        target[op.unique_dst] = merged
        return True

    def apply_epsilon(op, source_rel) -> bool:
        target = relations[op.q2]
        if op.rows is None:
            if target is None:
                if not source_rel.any():
                    return False
                relations[op.q2] = source_rel.copy()
                return True
            merged = target | source_rel
            if (merged == target).all():
                return False
            target[:] = merged
            return True
        rows = op.rows
        if rows.size == 0:
            return False
        piece = source_rel[rows]
        if target is None:
            if not piece.any():
                return False
            target = relations[op.q2] = fresh()
            target[rows] = piece
            return True
        current = target[rows]
        merged = current | piece
        if (merged == current).all():
            return False
        target[rows] = merged
        return True

    def fixpoint() -> None:
        pending = deque([nfa.start])
        queued = [False] * nfa.n_states
        queued[nfa.start] = True
        while pending:
            q = pending.popleft()
            queued[q] = False
            source_rel = relations[q]
            if ctx is not None:
                active = int(source_rel.any(axis=1).sum())
                ctx.checkpoint(FIXPOINT_SITE, steps=max(1, active))
                ctx.note_frontier(len(pending) + 1, FIXPOINT_SITE)
            for op in ops[q]:
                if isinstance(op, _EdgeOp):
                    changed = apply_edge(op, source_rel)
                else:
                    changed = apply_epsilon(op, source_rel)
                if changed and not queued[op.q2]:
                    queued[op.q2] = True
                    pending.append(op.q2)

    if tracer is None:
        fixpoint()
    else:
        with tracer.span("vector:fixpoint", ctx=ctx):
            fixpoint()

    accept_rel = relations[nfa.accept]
    if accept_rel is None:
        return set()
    node_any = accept_rel.any(axis=1)
    if end_nodes is not None:
        end_mask = np.zeros(n, dtype=bool)
        for node in end_nodes:
            position = arrays.index.get(node)
            if position is not None:  # missing ends silently filter
                end_mask[position] = True
        node_any &= end_mask
    rows = np.flatnonzero(node_any)
    if rows.size == 0:
        return set()
    words = np.ascontiguousarray(accept_rel[rows]).astype("<u8")
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    row_sel, bit_sel = np.nonzero(bits[:, :n_starts])
    nodes = arrays.nodes
    return {(starts[s], nodes[rows[r]])
            for r, s in zip(row_sel.tolist(), bit_sel.tolist())}


def back_layers_vectorized(product, max_steps: int, ctx=None):
    """``ProductNFA.back_layers`` as array sweeps over flat edge arrays.

    Returns the identical ``list[frozenset[int]]`` — layer ``j`` holds the
    product states from which an accept state is reachable in exactly
    ``j`` transitions — so the subset DP of ``count_words_exact`` consumes
    it unchanged.  The flat (src, dst) arrays are built in one pass over
    the product's transition tables; each layer is then one boolean
    gather/scatter instead of a Python walk of predecessor sets.
    """
    np = numpy_or_none()
    n_states = product.n_states()
    sources: list[int] = []
    targets: list[int] = []
    for source, table in enumerate(product.transitions):
        for targeted in table.values():
            sources.extend([source] * len(targeted))
            targets.extend(targeted)
    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(targets, dtype=np.int64)
    if ctx is not None:
        ctx.checkpoint(BACK_SITE, steps=max(1, src.size))
    layer = np.zeros(n_states, dtype=bool)
    accepts = list(product.accepts)
    layer[accepts] = True
    layers = [product.accepts]
    for _ in range(max_steps):
        if ctx is not None:
            ctx.checkpoint(BACK_SITE, steps=max(1, int(layer.sum())))
        previous = np.zeros(n_states, dtype=bool)
        if src.size:
            previous[src[layer[dst]]] = True
        layer = previous
        layers.append(frozenset(np.flatnonzero(previous).tolist()))
    return layers
