"""Experiments E2/E3 — the paper's worked regex queries, plus the RPQ
evaluation speedup suite.

Regenerates the answer sets of eq. (2) (labeled graph), eq. (3) (property
graph and its vector-graph rewriting), and the worked negated-inverse
example, then times regex evaluation on growing contact graphs.

Run as a script to produce ``benchmarks/BENCH_rpq.json`` — machine-readable
median wall times per query shape for three evaluation strategies:

- ``seed_baseline``: the evaluation pipeline of the seed revision (eager
  full-scan product construction + one DFS per start node), frozen below so
  future revisions keep a fixed reference point;
- ``fullscan``: the current pipeline with ``use_label_index=False`` (lazy
  construction and single-sweep reachability, but full incidence scans);
- ``indexed``: the current pipeline with the label index
  (``engine="scalar"``, the differential oracle);
- ``vector``: the numpy kernel forced with ``engine="vector"``.

    PYTHONPATH=src python benchmarks/bench_rpq_eval.py [--quick] [--out PATH]

Acceptance targets tracked here: >= 3x median speedup over the seed
baseline on label-selective shapes (single-label and concatenation) at seed
benchmark scale, and >= 10x vector-over-scalar on dense-frontier shapes
(star closures anchored by a rare trailing label, where the whole-graph
reachability work dominates and the answer set stays small).  The
``batch_fanout`` section records a mixed PathQL/SPARQL/Cypher batch run
through :class:`~repro.exec.BatchSession` at 1, 2 and 4 workers; its
>= 1.2x target at 2 workers applies on hosts with at least 2 CPUs.

``engine_auto`` is read from the ``evaluate`` span of one traced
``engine="auto"`` call: it names the engine that actually ran.

Schema note: this report stamps ``version: 3`` — version 2 plus the
per-query ``vector`` median / ``speedup_scalar_vs_vector`` columns, the
``vector_suite`` section and the ``numpy`` metadata field, all additive,
so version-2 readers keep working.  ``vector_suite`` no longer carries a
``layout`` key (the kernel has one bitset layout) nor an
``engine_auto_reason`` (no span records one), and the ``batch_fanout*``
keys replace the ``scaling*`` keys of the removed start-node sharding.
"""

import json
import random
import statistics
import sys
import time

import pytest

from repro.bench import Experiment, report_metadata, timed
from repro.core.rpq import endpoint_pairs, enumerate_paths, parse_regex
from repro.core.rpq.vectorized.engine import numpy_or_none
from repro.core.rpq.count import count_paths_exact
from repro.obs import Tracer
from repro.core.rpq.nfa import compile_regex
from repro.core.rpq.product import INITIAL, ProductNFA
from repro.datasets import generate_contact_graph, random_labeled_graph
from repro.exec import BatchQuery, BatchSession
from repro.models import figure2_labeled, figure2_property, figure2_vector

EQ2 = "?person/contact/?infected"
EQ3 = '?person/(contact & date="3/4/21")/?infected'
EQ3_VECTOR = '?(f1=person)/(f1=contact & f5="3/4/21")/?(f1=infected)'
BUS_SHARE = "?person/rides/?bus/rides^-/?infected"


def test_worked_examples(record_experiment):
    experiment = Experiment(
        "E2/E3", "the paper's worked regex queries on Figure 2",
        headers=["query", "model", "answers"])

    answers_eq2 = list(enumerate_paths(figure2_labeled(), parse_regex(EQ2), 1))
    experiment.add_row("eq2 ?person/contact/?infected", "labeled",
                       "; ".join(p.to_text() for p in answers_eq2))
    assert [p.to_text() for p in answers_eq2] == ["n1 -e3- n2"]

    answers_eq3 = list(enumerate_paths(figure2_property(), parse_regex(EQ3), 1))
    experiment.add_row("eq3 (date = 3/4/21)", "property",
                       "; ".join(p.to_text() for p in answers_eq3))
    assert answers_eq3 == answers_eq2

    answers_vec = list(enumerate_paths(figure2_vector(),
                                       parse_regex(EQ3_VECTOR), 1))
    experiment.add_row("eq3 rewritten with f1/f5", "vector",
                       "; ".join(p.to_text() for p in answers_vec))
    assert answers_vec == answers_eq2

    shared = list(enumerate_paths(figure2_labeled(), parse_regex(BUS_SHARE), 2))
    experiment.add_row("?person/rides/?bus/rides^-/?infected", "labeled",
                       "; ".join(sorted(p.to_text() for p in shared)))
    assert {p.start for p in shared} == {"n1", "n7"}
    record_experiment(experiment)


@pytest.mark.parametrize("n_people", [30, 100])
def test_node_extraction_scales(n_people, record_experiment):
    world = generate_contact_graph(n_people, 4, n_people // 3, 2, rng=5,
                                   infection_rate=0.2)
    pairs = endpoint_pairs(world, parse_regex(BUS_SHARE))
    experiment = Experiment(
        f"E2s-{n_people}", f"bus-sharing pairs on a {n_people}-person world",
        headers=["people", "edges", "answer pairs"])
    experiment.add_row(n_people, world.edge_count(), len(pairs))
    record_experiment(experiment)
    assert all(world.node_label(a) == "person" for a, _ in pairs)


def test_eval_speed(benchmark):
    world = generate_contact_graph(80, 4, 25, 2, rng=6, infection_rate=0.2)
    regex = parse_regex(BUS_SHARE)
    pairs = benchmark(endpoint_pairs, world, regex)
    assert isinstance(pairs, set)


# ---------------------------------------------------------------------------
# The frozen seed baseline: eager full-scan product construction plus one
# DFS per start node, exactly as evaluate.py/product.py did at the seed
# revision.  Kept verbatim (modulo cosmetics) so BENCH_rpq.json always
# measures against the same reference implementation.
# ---------------------------------------------------------------------------


def _seed_build_product(graph, nfa, start_nodes=None, end_nodes=None):
    product = ProductNFA(graph, nfa)
    end_filter = None if end_nodes is None else set(end_nodes)
    closure_cache = {}

    def closure(nfa_states, node):
        result = set()
        stack = list(nfa_states)
        while stack:
            q = stack.pop()
            if q in result:
                continue
            result.add(q)
            for guard, q2 in nfa.epsilon_transitions.get(q, ()):
                if q2 not in result and (guard is None
                                         or guard.matches_node(graph, node)):
                    stack.append(q2)
        return frozenset(result)

    def cached_closure(q, node):
        key = (q, node)
        found = closure_cache.get(key)
        if found is None:
            found = closure((q,), node)
            closure_cache[key] = found
        return found

    def intern(q, node):
        key = (q, node)
        index = product.state_index.get(key)
        if index is None:
            index = len(product.state_keys)
            product.state_index[key] = index
            product.state_keys.append(key)
            product.state_node.append(node)
            product.transitions.append({})
        return index

    accept_states, worklist, seen = set(), [], set()

    def product_states_for(nfa_states, node):
        states = []
        for q in nfa_states:
            index = intern(q, node)
            states.append(index)
            if q == nfa.accept and (end_filter is None or node in end_filter):
                accept_states.add(index)
            if index not in seen:
                seen.add(index)
                worklist.append(index)
        return frozenset(states)

    starts = (list(start_nodes) if start_nodes is not None
              else list(graph.nodes()))
    init_table = {}
    for node in starts:
        init_table[("init", node)] = product_states_for(
            closure((nfa.start,), node), node)
    product.transitions[INITIAL] = init_table

    while worklist:
        index = worklist.pop()
        q, node = product.state_keys[index]
        table = product.transitions[index]
        for test, inverse, q2 in nfa.edge_transitions.get(q, ()):
            candidates = graph.in_edges(node) if inverse else graph.out_edges(node)
            for edge in candidates:
                if not test.matches_edge(graph, edge):
                    continue
                source, target = graph.endpoints(edge)
                next_node = source if inverse else target
                direction = "+" if (not inverse or source == target) else "-"
                symbol = ("edge", edge, direction)
                successors = product_states_for(
                    cached_closure(q2, next_node), next_node)
                existing = table.get(symbol)
                table[symbol] = (successors if existing is None
                                 else existing | successors)
    product.accepts = frozenset(accept_states)
    return product


def seed_endpoint_pairs(graph, regex):
    """The seed revision's ``endpoint_pairs``: one product DFS per start."""
    nfa = compile_regex(regex)
    product = _seed_build_product(graph, nfa)
    pairs = set()
    for symbol, first_states in product.transitions[INITIAL].items():
        start_node = symbol[1]
        seen = set(first_states)
        stack = list(first_states)
        while stack:
            state = stack.pop()
            if state in product.accepts:
                pairs.add((start_node, product.state_node[state]))
            for targets in product.transitions[state].values():
                for target in targets:
                    if target not in seen:
                        seen.add(target)
                        stack.append(target)
    return pairs


# ---------------------------------------------------------------------------
# The speedup suite behind BENCH_rpq.json.
# ---------------------------------------------------------------------------

#: (workload name, graph factory, [(regex, shape class), ...]).  Shapes
#: classed "single-label" or "concatenation" are the label-selective ones
#: the >= 3x acceptance bar applies to.
def _workloads():
    contact = generate_contact_graph(100, 4, 33, 2, rng=5, infection_rate=0.2)
    labels = [f"L{i}" for i in range(24)]
    selective = random_labeled_graph(300, 3000, node_labels=("a", "b"),
                                    edge_labels=labels, rng=9)
    return [
        ("contact-100", contact, [
            ("rides", "single-label"),
            ("lives", "single-label"),
            ("contact/lives", "concatenation"),
            ("rides/rides^-", "concatenation"),
            (BUS_SHARE, "node-test-anchored"),
            ("(contact + lives)*", "star"),
        ]),
        ("label-selective-300", selective, [
            ("L0", "single-label"),
            ("(L0 + L1)", "single-label"),
            ("L0/L1", "concatenation"),
            ("L0/L1/L2", "concatenation"),
            ("(L0 + L1)/L2", "concatenation"),
            ("(L0 + L1)*", "star"),
            ("true/L0", "wildcard"),
        ]),
    ]


def _median_ms(fn, reps):
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1000.0


def _traced_engine(graph, regex) -> str:
    """The engine ``engine="auto"`` actually ran, read from the trace."""
    tracer = Tracer()
    endpoint_pairs(graph, regex, engine="auto", tracer=tracer)
    return next(span.attrs["engine"] for root in tracer.roots
                for span in (root, *root.children)
                if span.name == "evaluate")


# ---------------------------------------------------------------------------
# Batch fan-out: whole queries of one mixed batch across worker processes.
# ---------------------------------------------------------------------------

#: Five templates over the three frontends; instance ``i`` fills in every
#: 7th person (wrapping) and one of the generator's 28 contact dates.
FANOUT_TEMPLATES = (
    ("pathql", "PATHS MATCHING (contact + rides + rides^-)* FROM {person} "
               "LENGTH 4 COUNT"),
    ("pathql", "PATHS MATCHING contact* FROM {person} MAXLENGTH 3 LIMIT 20"),
    ("sparql", "SELECT ?y WHERE {{ <{person}> <contact>+ ?y . }}"),
    ("sparql", "SELECT ?h WHERE {{ <{person}> <lives> ?h . "
               "?h <rdf:type> <address> . }}"),
    ("cypher", 'MATCH (a)-[c:contact]->(b) WHERE c.date = "3/{day}/21" '
               "RETURN a, b"),
)
FANOUT_INSTANCES = 36
#: Median-of-reps speedup the fan-out must reach at 2 workers.
FANOUT_TARGET = 1.2


def _fanout_workload():
    graph = generate_contact_graph(300, 12)
    # Node iteration order follows string hashing; sort for a fixed batch.
    people = sorted((node for node in graph.nodes()
                     if graph.node_label(node) in ("person", "infected")),
                    key=str)
    batch = [BatchQuery(language, template.format(
                 person=people[(7 * i) % len(people)], day=1 + i % 28))
             for i in range(FANOUT_INSTANCES)
             for language, template in FANOUT_TEMPLATES]
    return graph, batch


def run_fanout_suite(reps=5, worker_counts=(1, 2, 4)):
    """Median batch wall time at each worker count; answers asserted equal.

    Every session runs one warm-up batch first, so each worker's lazily
    built SPARQL/Cypher stores stay out of the timing, and ``cache=False``
    makes every query evaluate.  Reps alternate between the worker counts
    so drift on a shared host lands on all of them alike.
    """
    graph, batch = _fanout_workload()
    entry = {
        "name": "contact-300-mixed-batch",
        "nodes": graph.node_count(),
        "edges": graph.edge_count(),
        "queries": len(batch),
        "first_instances": [query.text
                            for query in batch[:len(FANOUT_TEMPLATES)]],
        "worker_counts": list(worker_counts),
    }
    sessions = {}
    try:
        for count in worker_counts:
            sessions[count] = BatchSession(graph, count, cache=False)
        # The warm-up batch, which also checks the answers.
        answers = {count: [result.to_dict()
                           for result in session.run_batch(batch)]
                   for count, session in sessions.items()}
        serial = answers[worker_counts[0]]
        assert all(result["status"] == "ok" for result in serial)
        assert all(answer == serial for answer in answers.values())
        times = {count: [] for count in worker_counts}
        for _ in range(reps):
            for count, session in sessions.items():
                started = time.perf_counter()
                session.run_batch(batch)
                times[count].append(time.perf_counter() - started)
    finally:
        for session in sessions.values():
            session.close()
    medians = {str(count): statistics.median(samples) * 1000.0
               for count, samples in times.items()}
    entry["median_ms"] = medians
    entry["speedup"] = {count: medians["1"] / ms
                        for count, ms in medians.items()}
    return entry


# ---------------------------------------------------------------------------
# Dense-frontier vector suite: the shapes the kernel exists for.
# ---------------------------------------------------------------------------

#: The >= 10x vector acceptance bar applies to shapes classed this way:
#: a star closure saturates the reachability relation over the whole graph
#: (dense frontiers), while the rare trailing ``z`` anchor keeps the
#: answer set — and hence the engine-independent pair-materialization cost
#: that would otherwise dominate both engines — small.
DENSE_FRONTIER = "dense-frontier"


def _dense_frontier_workload():
    graph = random_labeled_graph(1500, 15000, node_labels=("x", "y"),
                                 edge_labels=["a", "b", "c", "d"], rng=7)
    rng = random.Random(13)
    nodes = list(graph.nodes())
    for i in range(6):  # the rare anchor label: 6 edges out of 15006
        graph.add_edge(f"goal{i}", rng.choice(nodes), rng.choice(nodes), "z")
    return graph, [
        ("(a + b)*/z", DENSE_FRONTIER),
        ("a/(a + b)*/z", DENSE_FRONTIER),
        ("(a + b + c)*/z", DENSE_FRONTIER),
        ("z^-/(a + b)*/z", "anchored-both-ends"),
    ]


def run_vector_suite(reps=5, scalar_reps=3):
    """Median scalar vs vector times on dense-frontier shapes.

    Scalar runs get their own (smaller) rep count: each is two to three
    orders of magnitude slower than the vector run it is compared against,
    and the suite must stay runnable in CI's --quick mode.
    """
    graph, shapes = _dense_frontier_workload()
    entry = {
        "name": "dense-frontier-1500",
        "nodes": graph.node_count(),
        "edges": graph.edge_count(),
        "edge_labels": len(graph.edge_label_set()),
        "queries": [],
    }
    failures = []
    for text, shape in shapes:
        regex = parse_regex(text)
        scalar_pairs = endpoint_pairs(graph, regex, engine="scalar")
        vector_pairs = endpoint_pairs(graph, regex, engine="vector")
        assert scalar_pairs == vector_pairs, text
        medians = {
            "scalar": _median_ms(
                lambda: endpoint_pairs(graph, regex, engine="scalar"),
                scalar_reps),
            "vector": _median_ms(
                lambda: endpoint_pairs(graph, regex, engine="vector"), reps),
        }
        query = {
            "regex": text,
            "shape": shape,
            "answers": len(scalar_pairs),
            "median_ms": medians,
            "speedup_scalar_vs_vector": medians["scalar"] / medians["vector"],
            "engine_auto": _traced_engine(graph, regex),
        }
        entry["queries"].append(query)
        if (shape == DENSE_FRONTIER
                and query["speedup_scalar_vs_vector"] < 10.0):
            failures.append((entry["name"], text,
                             query["speedup_scalar_vs_vector"]))
    return entry, failures


def run_speedup_suite(out_path, reps=30, fanout_reps=5, vector_reps=5):
    """Time every workload/shape under the four strategies, write JSON."""
    numpy = numpy_or_none()
    report = {**report_metadata(workers=1), "reps": reps, "workloads": []}
    # Schema version 3: additive vector columns/section + numpy metadata
    # (version-2 readers that only consume the v2 fields keep working).
    report["version"] = 3
    report["numpy"] = None if numpy is None else numpy.__version__
    failures = []
    for name, graph, shapes in _workloads():
        entry = {
            "name": name,
            "nodes": graph.node_count(),
            "edges": graph.edge_count(),
            "edge_labels": len(graph.edge_label_set()),
            "queries": [],
        }
        for text, shape in shapes:
            regex = parse_regex(text)
            # Every scalar column forces engine="scalar": these graphs sit
            # above the auto size threshold, and the columns must keep
            # measuring the oracle, not whatever auto resolves to.
            indexed = endpoint_pairs(graph, regex, use_label_index=True,
                                     engine="scalar")
            fullscan = endpoint_pairs(graph, regex, use_label_index=False,
                                      engine="scalar")
            baseline = seed_endpoint_pairs(graph, regex)
            vector = endpoint_pairs(graph, regex, engine="vector")
            assert indexed == fullscan == baseline == vector, text
            medians = {
                "seed_baseline": _median_ms(
                    lambda: seed_endpoint_pairs(graph, regex), reps),
                "fullscan": _median_ms(
                    lambda: endpoint_pairs(graph, regex, engine="scalar",
                                           use_label_index=False), reps),
                "indexed": _median_ms(
                    lambda: endpoint_pairs(graph, regex, engine="scalar",
                                           use_label_index=True), reps),
                "vector": _median_ms(
                    lambda: endpoint_pairs(graph, regex,
                                           engine="vector"), reps),
                # An *active* tracer per rep (allocation included) bounds
                # the enabled-tracer overhead; tracer=None is the same code
                # path as "indexed" above, so its overhead is structural 0.
                "indexed_traced": _median_ms(
                    lambda: endpoint_pairs(graph, regex, engine="scalar",
                                           use_label_index=True,
                                           tracer=Tracer()), reps),
            }
            tracer = Tracer()
            timed(endpoint_pairs, graph, regex, engine="scalar",
                  tracer=tracer)
            strategy = next(
                (span.attrs.get("strategy") for root in tracer.roots
                 for span in (root, *root.children)
                 if span.name == "evaluate"), None)
            query = {
                "regex": text,
                "shape": shape,
                "answers": len(indexed),
                "median_ms": medians,
                "speedup_vs_seed": medians["seed_baseline"] / medians["indexed"],
                "speedup_vs_fullscan": medians["fullscan"] / medians["indexed"],
                "speedup_scalar_vs_vector": (medians["indexed"]
                                             / medians["vector"]),
                "engine_auto": _traced_engine(graph, regex),
                "strategy": strategy,
                "trace": tracer.summary(),
                "tracer_overhead_pct": 100.0 * (
                    medians["indexed_traced"] / medians["indexed"] - 1.0),
            }
            entry["queries"].append(query)
            if (shape in ("single-label", "concatenation")
                    and query["speedup_vs_seed"] < 3.0):
                failures.append((name, text, query["speedup_vs_seed"]))
        report["workloads"].append(entry)
    report["label_selective_target"] = "speedup_vs_seed >= 3.0"
    report["label_selective_ok"] = not failures
    vector_entry, vector_failures = run_vector_suite(
        reps=vector_reps, scalar_reps=min(3, vector_reps))
    report["vector_suite"] = vector_entry
    report["vector_target"] = ("speedup_scalar_vs_vector >= 10.0 on "
                               "dense-frontier shapes")
    report["vector_ok"] = not vector_failures
    report["batch_fanout"] = run_fanout_suite(reps=fanout_reps)
    speedup_2w = report["batch_fanout"]["speedup"]["2"]
    report["batch_fanout_target"] = (f"workers=2 median speedup >= "
                                     f"{FANOUT_TARGET} (needs >= 2 cpus)")
    report["batch_fanout_workers2"] = speedup_2w
    report["batch_fanout_ok"] = (speedup_2w >= FANOUT_TARGET
                                 if report["cpus"] >= 2 else None)
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
    return report, failures, vector_failures


def main(argv):
    quick = "--quick" in argv
    out_path = "benchmarks/BENCH_rpq.json"
    if "--out" in argv:
        out_path = argv[argv.index("--out") + 1]
    report, failures, vector_failures = run_speedup_suite(
        out_path, reps=3 if quick else 30,
        fanout_reps=7 if quick else 11,
        vector_reps=2 if quick else 5)
    for workload in report["workloads"]:
        print(f"== {workload['name']} ({workload['nodes']} nodes, "
              f"{workload['edges']} edges, {workload['edge_labels']} labels)")
        for query in workload["queries"]:
            medians = query["median_ms"]
            print(f"  {query['regex']:40s} [{query['shape']}] "
                  f"seed={medians['seed_baseline']:8.3f}ms "
                  f"fullscan={medians['fullscan']:8.3f}ms "
                  f"indexed={medians['indexed']:8.3f}ms "
                  f"vector={medians['vector']:8.3f}ms "
                  f"speedup={query['speedup_vs_seed']:6.2f}x "
                  f"traced={query['tracer_overhead_pct']:+5.1f}% "
                  f"[{query['strategy']}]")
    vector_suite = report["vector_suite"]
    print(f"== {vector_suite['name']} ({vector_suite['nodes']} nodes, "
          f"{vector_suite['edges']} edges, "
          f"numpy={report['numpy']})")
    for query in vector_suite["queries"]:
        medians = query["median_ms"]
        print(f"  {query['regex']:40s} [{query['shape']}] "
              f"scalar={medians['scalar']:9.1f}ms "
              f"vector={medians['vector']:8.1f}ms "
              f"speedup={query['speedup_scalar_vs_vector']:7.2f}x "
              f"[auto->{query['engine_auto']}]")
    fanout = report["batch_fanout"]
    print(f"== {fanout['name']} ({fanout['queries']} queries, "
          f"{fanout['nodes']} nodes, {fanout['edges']} edges) "
          f"on {report['cpus']} cpu(s)")
    print("  " + " ".join(
        f"w{workers}={fanout['median_ms'][workers]:7.1f}ms"
        f"({fanout['speedup'][workers]:4.2f}x)"
        for workers in sorted(fanout["median_ms"], key=int)))
    if report["batch_fanout_ok"] is None:
        print(f"fan-out target not assessable on {report['cpus']} cpu(s): "
              "workers>1 cannot beat serial without cores to run on")
    elif report["batch_fanout_ok"]:
        print(f"workers=2 fan-out target met: "
              f"{report['batch_fanout_workers2']:.2f}x >= {FANOUT_TARGET}x")
    else:
        print(f"BELOW FAN-OUT TARGET: workers=2 speedup "
              f"{report['batch_fanout_workers2']:.2f}x < {FANOUT_TARGET}x")
    print(f"wrote {out_path}")
    if (failures or vector_failures) and not quick:
        for name, text, speedup in failures:
            print(f"BELOW TARGET: {name} {text} {speedup:.2f}x < 3x")
        for name, text, speedup in vector_failures:
            print(f"BELOW VECTOR TARGET: {name} {text} {speedup:.2f}x < 10x")
        return 1
    if failures or vector_failures:
        print("quick mode: timings are indicative only")
    else:
        print("label-selective shapes meet the >= 3x target; "
              "dense-frontier shapes meet the >= 10x vector target")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
