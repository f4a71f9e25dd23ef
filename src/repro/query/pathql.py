"""PathQL: a tiny declarative language for the paper's path extraction modes.

Section 4.1 presents three complementary ways to consume the (possibly
huge) answer set of a regular path query: enumerate with small delay,
count (exactly or within epsilon), and sample uniformly.  PathQL exposes
exactly those as query modes over any graph model::

    PATHS MATCHING ?person/rides/?bus/rides^-/?infected LENGTH 2 LIMIT 10
    PATHS MATCHING (r + s)*/r LENGTH 5 COUNT
    PATHS MATCHING (r + s)*/r LENGTH 5 COUNT APPROX 0.1 SEED 7
    PATHS MATCHING (r + s)*/r LENGTH 4 SAMPLE 20 SEED 1
    PATHS MATCHING contact* FROM n4 TO n2 SHORTEST LIMIT 5

Clauses:

- ``MATCHING <regex>`` — the paper's grammar (1), parsed by
  :func:`repro.core.rpq.parse_regex`; everything up to the next keyword.
- ``FROM <node>`` / ``TO <node>`` — endpoint restrictions.
- ``LENGTH k`` (exact) or ``MAXLENGTH k`` (enumerate 0..k) or ``SHORTEST``
  (the shortest conforming length between FROM and TO).
- mode: ``LIMIT n`` (enumerate; default), ``COUNT`` (exact),
  ``COUNT APPROX <eps>`` (FPRAS), ``SAMPLE n`` (uniform generation).
- ``SEED s`` — determinism for the randomized modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.rpq import (
    ApproxPathCounter,
    Path,
    UniformPathSampler,
    count_paths_exact,
    enumerate_paths,
    enumerate_paths_up_to,
    parse_regex,
)
from repro.core.rpq.ast import Regex
from repro.core.rpq.evaluate import shortest_conforming_length
from repro.core.rpq.nfa import compile_regex
from repro.errors import BudgetExceeded, QueryEvaluationError, QuerySyntaxError
from repro.exec.budget import DegradationEvent
from repro.exec.governor import count_paths_governed

_KEYWORDS = {"FROM", "TO", "LENGTH", "MAXLENGTH", "SHORTEST", "COUNT",
             "APPROX", "SAMPLE", "LIMIT", "SEED"}


@dataclass
class PathQuery:
    """Parsed form of a PathQL statement."""

    regex: Regex
    source: str | None = None
    target: str | None = None
    length: int | None = None
    max_length: int | None = None
    shortest: bool = False
    mode: str = "enumerate"  # 'enumerate' | 'count' | 'count-approx' | 'sample'
    limit: int | None = None
    samples: int = 0
    epsilon: float = 0.1
    seed: int | None = None


@dataclass
class PathQueryResult:
    """Answer of a PathQL statement: paths and/or a count.

    ``quality`` records what the execution governor delivered relative to
    what the query asked for: ``"exact"`` (the full-fidelity answer —
    including an explicitly requested ``COUNT APPROX``), ``"approx"`` (an
    exact count degraded to an FPRAS estimate), ``"lower-bound"`` (a count
    degraded to a partial enumeration total), or ``"partial"`` (an
    enumeration cut off by the budget).  ``degradations`` lists the
    :class:`~repro.exec.DegradationEvent` steps that led there; empty for
    ungoverned or within-budget runs.
    """

    mode: str
    paths: list[Path] = field(default_factory=list)
    count: float | None = None
    quality: str = "exact"
    degradations: tuple = ()

    def __len__(self) -> int:
        return len(self.paths)

    @property
    def is_degraded(self) -> bool:
        return bool(self.degradations)


def parse_pathql(text: str) -> PathQuery:
    """Parse a PathQL statement."""
    tokens = _tokenize(text)
    if len(tokens) < 3 or tokens[0].upper() != "PATHS" or tokens[1].upper() != "MATCHING":
        raise QuerySyntaxError("a PathQL query starts with 'PATHS MATCHING <regex>'")
    position = 2
    regex_parts = []
    while position < len(tokens) and tokens[position] not in _KEYWORDS:
        regex_parts.append(tokens[position])
        position += 1
    if not regex_parts:
        raise QuerySyntaxError("MATCHING needs a regular expression")
    query = PathQuery(regex=parse_regex(" ".join(regex_parts)))

    def take_value(keyword: str) -> str:
        nonlocal position
        position += 1
        if position >= len(tokens):
            raise QuerySyntaxError(f"{keyword} needs a value")
        value = tokens[position]
        position += 1
        return value

    while position < len(tokens):
        keyword = tokens[position]
        if keyword == "FROM":
            query.source = take_value("FROM")
        elif keyword == "TO":
            query.target = take_value("TO")
        elif keyword == "LENGTH":
            query.length = _int(take_value("LENGTH"), "LENGTH")
        elif keyword == "MAXLENGTH":
            query.max_length = _int(take_value("MAXLENGTH"), "MAXLENGTH")
        elif keyword == "SHORTEST":
            query.shortest = True
            position += 1
        elif keyword == "COUNT":
            query.mode = "count"
            position += 1
            if position < len(tokens) and tokens[position] == "APPROX":
                query.mode = "count-approx"
                query.epsilon = _float(take_value("APPROX"), "APPROX")
        elif keyword == "SAMPLE":
            query.mode = "sample"
            query.samples = _int(take_value("SAMPLE"), "SAMPLE")
        elif keyword == "LIMIT":
            query.limit = _int(take_value("LIMIT"), "LIMIT")
        elif keyword == "SEED":
            query.seed = _int(take_value("SEED"), "SEED")
        else:
            raise QuerySyntaxError(f"unexpected token {keyword!r}")
    _validate(query)
    return query


def run_pathql(graph, text: str, *, ctx=None, tracer=None,
               cache=None, view=None,
               engine: str = "auto") -> PathQueryResult:
    """Parse and execute a PathQL statement against any graph model.

    With an execution :class:`~repro.exec.Context` every evaluation loop
    checkpoints against the context's budget.  ``COUNT`` queries then run
    through the degradation ladder (exact, then FPRAS, then a partial-
    enumeration lower bound) instead of failing on budget exhaustion, and
    enumeration queries return the paths emitted so far tagged
    ``quality="partial"``.  ``COUNT APPROX`` and ``SAMPLE`` have no cheaper
    fallback, so they propagate :class:`~repro.errors.BudgetExceeded`.

    With a :class:`~repro.obs.Tracer` the run is recorded as ``parse``,
    ``compile`` (with compile-cache hit/miss deltas) and ``evaluate`` spans
    — the latter nesting the governor's ``degrade:<rung>`` spans for
    governed ``COUNT`` queries; ``tracer=None`` takes the exact pre-tracing
    code path.

    With a :class:`~repro.cache.QueryCache` (``cache=``), full-fidelity
    results (``quality == "exact"``, which includes seeded ``COUNT APPROX``
    and ``SAMPLE`` answers — their randomness is keyed by the query's SEED)
    are memoized under the query's canonical form and the regex's label
    footprint.  A hit re-runs nothing: no parse of the regex semantics, no
    governor rungs, no budget checkpoints.  Degraded/partial results are
    never cached — they reflect this run's budget, not the graph.

    ``engine`` selects the evaluation engine for ``COUNT`` queries (the
    backward-layer sweep vectorizes); enumeration, sampling and the FPRAS
    are scalar by construction — their emission order and seeded
    randomness are part of the answer — so the flag is a no-op there.

    With a :class:`~repro.ivm.ViewRegistry` (``view=``), the query is
    served from a continuously maintained materialized view instead: it
    auto-registers on first use and later runs answer from the view's
    state, re-evaluating only when an intersecting mutation landed.  The
    registry must be bound to this graph
    (:class:`~repro.errors.ViewError` otherwise); ``cache=`` is ignored
    for view-served queries — the view is the memo.
    """
    if view is not None:
        return view.serve_pathql(graph, text, ctx=ctx, tracer=tracer,
                                 engine=engine)
    if tracer is None:
        return _run_pathql(graph, text, ctx, cache=cache, engine=engine)
    with tracer.span("parse", frontend="pathql"):
        query = parse_pathql(text)
    with tracer.span("compile", cache=True):
        compile_regex(query.regex)
    with tracer.span("evaluate", ctx=ctx, mode=query.mode) as span:
        result = _run_pathql(graph, text, ctx, query=query, tracer=tracer,
                             cache=cache, engine=engine)
        span.attrs["quality"] = result.quality
        if result.count is not None:
            span.attrs["count"] = result.count
        span.attrs["paths"] = len(result.paths)
        return result


def _canonical_key(query: PathQuery) -> tuple:
    """The canonical query form: every semantic field, with the regex in
    its textual normal form, so syntactic variants key identically."""
    return ("pathql", query.regex.to_text(), query.source, query.target,
            query.length, query.max_length, query.shortest, query.mode,
            query.limit, query.samples, query.epsilon, query.seed)


def _run_pathql(graph, text: str, ctx=None, *, query: PathQuery | None = None,
                tracer=None, cache=None,
                engine: str = "auto") -> PathQueryResult:
    if query is None:
        query = parse_pathql(text)
    if cache is not None:
        from repro.cache import MISS, pathql_footprint

        key = _canonical_key(query)
        hit = cache.lookup(graph, key)
        if hit is not MISS:
            mode, paths, count, quality = hit
            return PathQueryResult(mode, list(paths), count, quality=quality)
        result = _run_pathql(graph, text, ctx, query=query, tracer=tracer,
                             engine=engine)
        if result.quality == "exact":
            cache.store(graph, key, pathql_footprint(query),
                        (result.mode, tuple(result.paths), result.count,
                         result.quality))
        return result
    starts = [query.source] if query.source is not None else None
    ends = [query.target] if query.target is not None else None

    length = query.length
    if query.shortest:
        if query.source is None or query.target is None:
            raise QueryEvaluationError("SHORTEST needs both FROM and TO")
        length = shortest_conforming_length(graph, query.regex,
                                            query.source, query.target,
                                            ctx=ctx)
        if length is None:
            return PathQueryResult(query.mode, [], 0)

    if query.mode == "count":
        if ctx is not None:
            governed = count_paths_governed(graph, query.regex, length, ctx,
                                            epsilon=query.epsilon,
                                            rng=query.seed,
                                            start_nodes=starts, end_nodes=ends,
                                            engine=engine,
                                            tracer=tracer)
            return PathQueryResult("count", [], governed.value,
                                   quality=governed.quality,
                                   degradations=tuple(governed.degradations))
        count = count_paths_exact(graph, query.regex, length,
                                  start_nodes=starts, end_nodes=ends,
                                  engine=engine)
        return PathQueryResult("count", [], count)
    if query.mode == "count-approx":
        counter = ApproxPathCounter(graph, query.regex, length,
                                    epsilon=query.epsilon, rng=query.seed,
                                    start_nodes=starts, end_nodes=ends,
                                    ctx=ctx)
        return PathQueryResult("count-approx", [], counter.estimate())
    if query.mode == "sample":
        sampler = UniformPathSampler(graph, query.regex, length,
                                     start_nodes=starts, end_nodes=ends,
                                     ctx=ctx)
        if sampler.count == 0:
            return PathQueryResult("sample", [], 0)
        paths = sampler.sample_many(query.samples, rng=query.seed)
        return PathQueryResult("sample", paths, sampler.count)

    # Enumeration (the default mode).
    if length is not None:
        iterator = enumerate_paths(graph, query.regex, length,
                                   start_nodes=starts, end_nodes=ends, ctx=ctx)
    else:
        iterator = enumerate_paths_up_to(graph, query.regex, query.max_length,
                                         start_nodes=starts, end_nodes=ends,
                                         ctx=ctx)
    paths = []
    try:
        for path in iterator:
            paths.append(path)
            if query.limit is not None and len(paths) >= query.limit:
                break
    except BudgetExceeded as exceeded:
        if ctx is None:
            raise
        event = DegradationEvent("exact", "partial", exceeded.resource,
                                 exceeded.site)
        ctx.record_degradation(event)
        return PathQueryResult("enumerate", paths, len(paths),
                               quality="partial", degradations=(event,))
    return PathQueryResult("enumerate", paths, len(paths))


def _validate(query: PathQuery) -> None:
    if query.length is not None and query.max_length is not None:
        raise QuerySyntaxError("LENGTH and MAXLENGTH are mutually exclusive")
    if query.shortest and (query.length is not None or query.max_length is not None):
        raise QuerySyntaxError("SHORTEST replaces LENGTH/MAXLENGTH")
    needs_length = query.mode in ("count", "count-approx", "sample")
    has_length = query.length is not None or query.shortest
    if needs_length and not has_length:
        raise QuerySyntaxError(f"{query.mode} needs LENGTH k or SHORTEST")
    if query.mode == "enumerate" and not has_length and query.max_length is None:
        raise QuerySyntaxError("enumeration needs LENGTH, MAXLENGTH or SHORTEST")
    if query.mode == "sample" and query.samples < 1:
        raise QuerySyntaxError("SAMPLE needs a positive count")


def _tokenize(text: str) -> list[str]:
    """Whitespace tokens, but double-quoted spans stay glued to their token."""
    tokens: list[str] = []
    current: list[str] = []
    in_string = False
    for ch in text:
        if ch == '"':
            in_string = not in_string
            current.append(ch)
        elif ch.isspace() and not in_string:
            if current:
                tokens.append("".join(current))
                current = []
        else:
            current.append(ch)
    if in_string:
        raise QuerySyntaxError("unterminated string in PathQL query")
    if current:
        tokens.append("".join(current))
    return tokens


def _int(value: str, keyword: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise QuerySyntaxError(f"{keyword} needs an integer, got {value!r}") from None


def _float(value: str, keyword: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise QuerySyntaxError(f"{keyword} needs a number, got {value!r}") from None
