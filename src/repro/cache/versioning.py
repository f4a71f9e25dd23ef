"""Versioned mutation logs for the graph models.

Every mutable model (the :class:`~repro.models.multigraph.MultiGraph`
family, :class:`~repro.models.rdf.RDFGraph`, and the
:class:`~repro.storage.triple_store.TripleStore`) owns a
:class:`MutationLog`: a monotonically increasing ``version`` counter plus a
bounded record of *what kind of thing* each mutation touched — edge labels,
node labels, property names, feature indices, and whether the node/edge
*structure* changed at all.

Invalidation (:meth:`MutationLog.intersects_since`) is decided purely on
the label level, matching the theory: an RPQ's answer can only change when a
mutation touches a label in the expression's *label footprint* (see
:mod:`repro.cache.footprint`).  For label-based invalidation identities
would buy little extra precision — but they are exactly what *incremental*
maintenance and time travel need, so each record also carries a small
``payload`` tuple naming the mutated object (and, for destructive
mutations, enough of its old state to restore it).  Payload shapes are a
per-``kind`` convention owned by the model layer that wrote the record;
consumers (:mod:`repro.ivm`) treat records whose kind they do not know
conservatively.  Payloads stay O(mutated object), never O(graph).

A logical mutation may append more than one record — each layer of the model
hierarchy logs the part it owns (structure at the base, labels in
``LabeledGraph``, properties in ``PropertyGraph``, features in
``VectorGraph``) — so ``version`` advances at least once per mutation but is
not a mutation *count*.  Only monotonicity matters to consumers.

The log keeps at most ``capacity`` records.  Once truncation discards
history, questions about versions older than the retained window are
answered conservatively: :meth:`intersects_since` returns ``True`` ("assume
invalidated"), never a false "still valid".
"""

from __future__ import annotations

import os
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cache.footprint import Footprint

#: Default number of retained mutation records per graph (used when neither
#: the constructor argument nor ``REPRO_LOG_HORIZON`` overrides it).
DEFAULT_LOG_CAPACITY = 1024

#: Environment variable overriding the default retained-record horizon.
LOG_HORIZON_ENV = "REPRO_LOG_HORIZON"


def default_log_capacity() -> int:
    """The capacity a :class:`MutationLog` gets when none is passed.

    ``REPRO_LOG_HORIZON`` (a positive integer) overrides the built-in
    :data:`DEFAULT_LOG_CAPACITY`, so long-running mutation-heavy processes
    can widen the invalidation window — or shrink it to stress the
    conservative-truncation path — without touching call sites.  A
    malformed value raises :class:`ValueError` rather than being silently
    ignored: a typo here would invisibly change cache behavior.
    """
    raw = os.environ.get(LOG_HORIZON_ENV)
    if raw is None or not raw.strip():
        return DEFAULT_LOG_CAPACITY
    try:
        capacity = int(raw)
    except ValueError:
        raise ValueError(
            f"{LOG_HORIZON_ENV} must be a positive integer, got {raw!r}"
        ) from None
    if capacity < 1:
        raise ValueError(
            f"{LOG_HORIZON_ENV} must be a positive integer, got {raw!r}")
    return capacity


@dataclass(frozen=True)
class MutationRecord:
    """What one mutation touched, at label granularity.

    ``structural_edges`` / ``structural_nodes`` flag that the *set* of edges
    or nodes changed (add/remove), as opposed to an in-place relabel or
    property write.  The label sets carry everything the mutated object wore:
    removing an edge records its label, its property names, and (for vector
    graphs) every feature index, because any query reading those could see a
    different answer afterwards.
    """

    kind: str
    version: int
    edge_labels: frozenset = frozenset()
    node_labels: frozenset = frozenset()
    properties: frozenset = frozenset()
    features: frozenset = frozenset()
    structural_edges: bool = False
    structural_nodes: bool = False
    #: Identity (and old-state) of the mutated object, shaped per ``kind``
    #: — e.g. ``(edge, source, target, label)`` for ``"remove_edge.label"``.
    #: Empty for records written before payloads existed or by layers that
    #: do not support replay; consumers must fall back conservatively then.
    payload: tuple = ()


_EMPTY: frozenset = frozenset()


class _Absent:
    """Sentinel for "the property had no value" in old-state payloads.

    Distinct from ``None`` because ``None`` is a storable property value;
    restoring ``ABSENT`` means *deleting* the property.
    """

    _instance = None

    def __new__(cls) -> "_Absent":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "ABSENT"


#: Old-value marker in property payloads: the property did not exist.
ABSENT = _Absent()


class MutationLog:
    """Append-only, bounded log of :class:`MutationRecord` entries.

    ``version`` starts at 0 (a freshly built graph) and increases by one per
    appended record.  Records hold the contiguous version range
    ``(horizon, version]``; ``horizon`` is the newest version *not*
    retained, so a cache entry stored at or before it can no longer be
    validated and must be treated as stale.

    **Bounded horizon and conservative truncation.**  The log is a
    ``deque(maxlen=capacity)``: appending past ``capacity`` silently drops
    the oldest record, moving ``horizon`` forward.  Truncation never makes
    the log *lie* — every question about a version older than the retained
    window is answered pessimistically (:meth:`records_since` returns
    ``None``, :meth:`intersects_since` returns ``True``, "assume
    invalidated"), so consumers re-compute rather than serve a possibly
    stale answer.  The cost of a too-small capacity is therefore wasted
    work, never wrong answers.  ``capacity`` defaults to
    :func:`default_log_capacity`, which honors the ``REPRO_LOG_HORIZON``
    environment variable.
    """

    __slots__ = ("capacity", "_version", "_records")

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is None:
            capacity = default_log_capacity()
        if capacity < 1:
            raise ValueError("log capacity must be positive")
        self.capacity = capacity
        self._version = 0
        self._records: deque = deque(maxlen=capacity)

    @property
    def version(self) -> int:
        """The current version: the number of mutations recorded so far."""
        return self._version

    @property
    def horizon(self) -> int:
        """Newest discarded version (0 while no truncation has happened)."""
        return self._version - len(self._records)

    def record(self, kind: str, *,
               edge_labels: Iterable = (),
               node_labels: Iterable = (),
               properties: Iterable = (),
               features: Iterable = (),
               structural_edges: bool = False,
               structural_nodes: bool = False,
               payload: tuple = ()) -> int:
        """Append one record, bump the version, and return the new version."""
        self._version += 1
        self._records.append(MutationRecord(
            kind=kind,
            version=self._version,
            edge_labels=frozenset(edge_labels) if edge_labels else _EMPTY,
            node_labels=frozenset(node_labels) if node_labels else _EMPTY,
            properties=frozenset(properties) if properties else _EMPTY,
            features=frozenset(features) if features else _EMPTY,
            structural_edges=structural_edges,
            structural_nodes=structural_nodes,
            payload=payload,
        ))
        return self._version

    def fast_forward(self, version: int) -> None:
        """Adopt ``version`` as the current version, dropping all records.

        Used by storage recovery: a graph rebuilt from a snapshot taken at
        version ``V`` must rejoin the versioning timeline at ``V`` — WAL
        entries, cache stamps and adjacency-array snapshots all carry
        absolute versions — but its in-process history is gone, so the
        retained window collapses to nothing (``horizon == version``).
        Every validity question about the pre-recovery past then gets the
        conservative "assume invalidated" answer, exactly as if the window
        had been truncated away.  Rewinding is refused: versions are
        monotonic by contract.
        """
        if version < self._version:
            raise ValueError(
                f"cannot fast-forward backwards: {self._version} -> {version}")
        self._version = version
        self._records.clear()

    def records_since(self, version: int) -> list[MutationRecord] | None:
        """Records strictly newer than ``version``, or ``None`` if that part
        of the history has been truncated (caller must assume the worst)."""
        if version < self.horizon:
            return None
        # Records hold the contiguous versions (horizon, version]: the
        # newer ones are the last ``self._version - version`` of them.
        newer = self._version - version
        if newer <= 0:
            return []
        return list(islice(reversed(self._records), newer))[::-1]

    def intersects_since(self, version: int, footprint: "Footprint") -> bool:
        """Did any mutation after ``version`` intersect ``footprint``?

        ``True`` is the conservative answer: it is returned both for a real
        intersection and for a truncated history.  ``False`` is a proof that
        a result computed at ``version`` is still current.
        """
        if version >= self._version:
            return False
        records = self.records_since(version)
        if records is None:
            return True
        return any(footprint.intersects(record) for record in records)

    def __len__(self) -> int:
        return len(self._records)
