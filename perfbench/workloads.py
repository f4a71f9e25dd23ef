"""The three workloads and their answer oracles.

Each workload is one closed-loop client in one process: the next operation
starts when the previous one returns.  A workload object

- generates its dataset and operation stream from the seed (untimed);
- ``setup()`` does the program work before the first timed op (timed);
- ``execute(op, tracer, rec)`` runs one op and records its timings;
- ``tail(rec)`` samples the storage path after the loop;
- ``check(rec)`` replays the executed ops against a plain oracle and
  returns the number of answers that disagree.

Every call into the program goes through module attributes (``pathql.
run_pathql``, not a name bound at import), so the layer wrappers of
:mod:`layers` and the planted slowdowns see it.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from collections import Counter, deque
from itertools import accumulate

from repro.cache import result_cache
from repro.core.rpq import count as rpq_count
from repro.core.rpq import evaluate as rpq_evaluate
from repro.core.rpq import parser as rpq_parser
from repro.core.rpq.vectorized import arrays as rpq_arrays
from repro.datasets import generate_contact_graph, random_labeled_graph
from repro.ivm import views as ivm_views
from repro.models import PropertyGraph
from repro.query import cypherish, pathql, sparql
from repro.storage import diskread, durable

FSYNC = "batch"


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


#: Duration of :func:`_probe_work` on the reference host (2 vCPU x86-64
#: virtual machine at 2.0 GHz, Python 3.11), in seconds.
PROBE_NOMINAL_S = 0.35e-3
PROBE_INTERVAL_S = 0.02
PROBE_WINDOW = 5


def _probe_work():
    """A fixed slice of interpreter work: hashing, dicts, tuples, a sort."""
    table = {}
    for i in range(300):
        key = ("n%d" % (i % 97), i & 7)
        table[key] = table.get(key, 0) + i
    return sorted(table.items())


class Calibration:
    """Tracks how fast the host runs right now, with a fixed probe.

    The host's speed swings by up to 2x over seconds to minutes as other
    tenants come and go, and every wall-clock metric swings with it.  A
    probe of fixed work runs between timed regions (at most every
    :data:`PROBE_INTERVAL_S`); a timed region is divided by the median of
    the last :data:`PROBE_WINDOW` probes over :data:`PROBE_NOMINAL_S`, so
    it reads as it would on the reference host at its usual speed.  A
    change to the program moves the calibrated time; a change of host
    speed moves the probe too and cancels out.

    The probe is interpreter work only: regions spent in fsync, mmap
    page-in or numpy kernels get the same factor.  Each timed region
    therefore also keeps its raw clock reading (:class:`Seconds`), and a
    run's record carries the raw medians beside the calibrated ones.
    """

    def __init__(self) -> None:
        self.recent: deque = deque(maxlen=PROBE_WINDOW)
        self.probes: list[float] = []
        self._last = float("-inf")

    def factor(self) -> float:
        now = time.perf_counter()
        if now - self._last >= PROBE_INTERVAL_S or not self.recent:
            start = time.perf_counter()
            _probe_work()
            elapsed = time.perf_counter() - start
            self.recent.append(elapsed)
            self.probes.append(elapsed)
            self._last = time.perf_counter()
        return statistics.median(self.recent) / PROBE_NOMINAL_S

    def summary(self) -> dict:
        return {"probes": len(self.probes),
                "probe_median_ms": statistics.median(self.probes) * 1000.0
                if self.probes else None,
                "probe_nominal_ms": PROBE_NOMINAL_S * 1000.0}


class Seconds(float):
    """A calibrated duration that carries its raw clock reading along.

    Sums keep both readings, so ``loop_s`` totals the raw op time too.
    """

    def __new__(cls, calibrated: float, raw: float) -> "Seconds":
        value = super().__new__(cls, calibrated)
        value.raw = raw
        return value

    def __add__(self, other) -> "Seconds":
        return Seconds(float(self) + float(other),
                       self.raw + raw_seconds(other))

    __radd__ = __add__


def raw_seconds(value) -> float:
    """The raw clock reading of a :class:`Seconds`; other numbers as is."""
    return getattr(value, "raw", value)


class Recorder:
    """Timings and outcomes of one run.

    Every duration :meth:`timed` returns is a calibrated :class:`Seconds`
    (see :class:`Calibration`).  ``covered_s`` sums the raw timed regions
    (setup, ops, tail); it is the traced wall time the layer self times
    are measured against.  ``loop_s`` sums the op regions only — the loop
    time of ``ops_per_s``; bookkeeping between ops (answer fingerprints,
    probes) is not part of it.
    """

    def __init__(self) -> None:
        self.calibration = Calibration()
        self.covered_s = 0.0
        self.loop_s = 0.0
        self.query_s: list[float] = []
        self.write_s: list[float] = []
        self.samples: dict[str, list[float]] = {}
        self.answers: list = []  # (op index, fingerprint) per query
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.wal: Counter = Counter()
        self.notes: dict = {}
        # (what, observed, expected-thunk): checks whose oracle runs after
        # the traced run, so oracle work never lands in a layer's time.
        self.deferred: list = []

    def timed(self, fn, *args, **kwargs):
        """``(fn(...), Seconds)``."""
        factor = self.calibration.factor()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.covered_s += elapsed
        return result, Seconds(elapsed / factor, elapsed)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


def fingerprint(answer):
    """An order-insensitive digest of one answer, for the oracle compare."""
    if isinstance(answer, (set, frozenset)):
        return ("set", len(answer), hash(frozenset(answer)))
    if isinstance(answer, pathql.PathQueryResult):
        return ("pathql", answer.mode, answer.count, answer.quality,
                hash(tuple(answer.paths)))
    if isinstance(answer, sparql.SelectResult):
        return ("rows", tuple(answer.variables), len(answer.rows),
                hash(tuple(sorted(map(repr, answer.rows)))))
    if isinstance(answer, cypherish.CypherResult):
        return ("rows", tuple(answer.columns), len(answer.rows),
                hash(tuple(sorted(map(repr, answer.rows)))))
    return ("value", answer)


def graph_digest(graph) -> tuple:
    """Canonical content digest: nodes, edges, labels and properties."""
    nodes = frozenset(
        (node, graph.node_label(node),
         frozenset(graph.node_properties(node).items()))
        for node in graph.nodes())
    edges = frozenset(
        (edge, *graph.endpoints(edge), graph.edge_label(edge),
         frozenset(graph.edge_properties(edge).items()))
        for edge in graph.edges())
    return len(nodes), len(edges), hash(nodes), hash(edges)


def directory_bytes(directory: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(directory)
               if entry.is_file())


def zipf_cumulative(n: int, exponent: float) -> list[float]:
    return list(accumulate(1.0 / (rank + 1) ** exponent for rank in range(n)))


#: Write kinds per block of 20 writes: footprint-hitting ``contact`` and
#: ``rides`` edge adds and removes, footprint-disjoint ``zip`` writes.
#: Fixed counts per block (in seeded order) keep the mix, and so the
#: latency percentiles, the same from seed to seed.
WRITE_BLOCK = ("contact",) * 7 + ("rides",) * 4 + ("remove",) * 4 \
    + ("zip",) * 5


class ContactWrites:
    """The write mix on a contact graph, drawn from a seeded RNG."""

    def __init__(self, graph, rng: random.Random, prefix: str) -> None:
        self.people = sorted(n for n in graph.nodes()
                             if graph.node_label(n) in ("person", "infected"))
        self.buses = sorted(n for n in graph.nodes()
                            if graph.node_label(n) == "bus")
        self.addresses = sorted(n for n in graph.nodes()
                                if graph.node_label(n) == "address")
        self.rng = rng
        self.prefix = prefix
        self.added: list[str] = []
        self.serial = 0
        self.pending: list[str] = []

    def draw(self) -> tuple:
        rng = self.rng
        self.serial += 1
        if not self.pending:
            self.pending = list(WRITE_BLOCK)
            rng.shuffle(self.pending)
        kind = self.pending.pop()
        date = f"3/{rng.randint(1, 28)}/21"
        if kind == "contact":
            edge = f"{self.prefix}c{self.serial}"
            self.added.append(edge)
            return ("add", edge, rng.choice(self.people),
                    rng.choice(self.people), "contact", date)
        if kind == "rides":
            edge = f"{self.prefix}r{self.serial}"
            self.added.append(edge)
            return ("add", edge, rng.choice(self.people),
                    rng.choice(self.buses), "rides", date)
        if kind == "remove" and self.added:
            return ("remove", self.added.pop(rng.randrange(len(self.added))))
        return ("zip", rng.choice(self.addresses),
                str(9000000 + self.serial))


def apply_write(target, op: tuple) -> None:
    """Apply one write to a graph or a ``DurableGraph`` (same signatures)."""
    if op[0] == "add":
        _, edge, source, dest, label, date = op
        target.add_edge(edge, source, dest, label, {"date": date})
    elif op[0] == "remove":
        target.remove_edge(op[1])
    else:
        _, node, value = op
        target.set_node_property(node, "zip", value)


class TripleMirror:
    """Keeps a SPARQL ``TripleStore`` in step with edge writes.

    ``store_for_graph`` copies the graph into triples once; the
    application mirrors later edge writes itself.  Parallel edges collapse
    to one triple, so a remove only drops the triple with its last edge.
    """

    def __init__(self, graph, store) -> None:
        self.store = store
        self.graph = graph
        self.counts = Counter(
            (graph.endpoints(edge)[0], graph.edge_label(edge),
             graph.endpoints(edge)[1])
            for edge in graph.edges())

    def before(self, op: tuple):
        if op[0] == "remove":
            source, dest = self.graph.endpoints(op[1])
            return (source, self.graph.edge_label(op[1]), dest)
        return None

    def after(self, op: tuple, removed) -> None:
        if op[0] == "add":
            _, _, source, dest, label, _ = op
            key = (source, label, dest)
            self.counts[key] += 1
            if self.counts[key] == 1:
                self.store.add(str(source), str(label), str(dest))
        elif removed is not None:
            self.counts[removed] -= 1
            if self.counts[removed] == 0:
                del self.counts[removed]
                self.store.remove(*map(str, removed))


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------

SERVE_PEOPLE = 300
SERVE_SHAPE = dict(n_people=SERVE_PEOPLE, n_buses=7, n_addresses=100,
                   n_companies=2, rng=0)

#: Standing queries, served from one ViewRegistry through ``view=``.
STANDING = (
    ("pathql", "PATHS MATCHING ?person/contact/?infected LENGTH 1 COUNT"),
    ("pathql", "PATHS MATCHING (contact + rides)* LENGTH 3 COUNT"),
    ("pathql",
     "PATHS MATCHING ?person/rides/?bus/rides^-/?infected LENGTH 2 LIMIT 10"),
    ("cypher", "MATCH (b:bus)<-[:owns]-(c) RETURN c"),
    ("cypher", "MATCH (p:person)-[:lives]->(h:address) RETURN p, h"),
    ("cypher", "MATCH (a:person)-[:rides]->(b:bus)<-[:rides]-(c:infected) "
               "RETURN DISTINCT a"),
    ("pairs", "contact/contact"),
    ("pairs", "?infected/(contact)*"),
)

#: Ad hoc query families: (queries per 100, kind, template, parameter
#: pool).  Together they span more distinct instances than the cache holds.
#: The ``lives`` families are footprint-disjoint from every write, so their
#: entries survive writes; the others go stale on contact/rides writes.
#: Fixed counts per 100 ad hoc queries (in seeded order) keep the family
#: mix the same from seed to seed; the seed draws the Zipf ranks.
ADHOC = (
    (35, "pairs", "lives/lives^-", "people"),
    (20, "pathql", "PATHS MATCHING lives/lives^- FROM {} LENGTH 2 COUNT",
     "people"),
    (12, "sparql", "SELECT ?h WHERE {{ <{}> <lives> ?h . "
                     "?h <rdf:type> <address> . }}", "people"),
    (8, "cypher", 'MATCH (p {{name: "{}"}})-[:lives]->(h:address) '
                     'RETURN p.age, h', "names"),
    (5, "pathql", "PATHS MATCHING contact* FROM {} MAXLENGTH 3 LIMIT 20",
     "people"),
    (5, "sparql", "SELECT ?y WHERE {{ <{}> <contact>+ ?y . }}", "people"),
    (5, "cypher", 'MATCH (a)-[c:contact]->(b) WHERE c.date = "{}" '
                     'RETURN a, b', "dates"),
    (5, "pairs", "contact/(contact + rides)", "people"),
    (5, "pairs", "?person/rides/?bus/rides^-", "people"),
)

ZIPF_EXPONENT = 1.5
#: Ops per block of 20, in seeded order: 20% writes, 15% standing-view
#: serves (round robin), 65% ad hoc queries.
SERVE_BLOCK = ("write",) * 4 + ("view",) * 3 + ("adhoc",) * 13
COLD_QUERY = "?person/rides/?bus"


class ServeMixed:
    name = "serve-mixed"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.directory = os.path.join(workdir, "serve")
        base = generate_contact_graph(**SERVE_SHAPE)
        self.base_digest = graph_digest(base)
        with durable.DurableGraph.open(self.directory, model="property",
                                       fsync=FSYNC) as store:
            store.ingest(base)
            store.checkpoint()
        rng = random.Random(seed)
        self.rng = rng
        self.writes = ContactWrites(base, rng, "w")
        pools = {
            "people": self.writes.people,
            "buses": self.writes.buses,
            "dates": [f"3/{day}/21" for day in range(1, 29)],
            "names": sorted({base.node_properties(p)["name"]
                             for p in self.writes.people}),
        }
        # Popularity rank -> instance is fixed, so every seed has the same
        # hot head; the seed draws the sequence.
        popularity = random.Random(0)
        self.families = []
        for weight, kind, template, pool_name in ADHOC:
            pool = list(pools[pool_name])
            popularity.shuffle(pool)
            self.families.append((kind, template, pool,
                                  zipf_cumulative(len(pool), ZIPF_EXPONENT)))
        self.family_block = [index for index, (count, *_) in enumerate(ADHOC)
                             for _ in range(count)]
        self.pending_families: list[int] = []
        # endpoint_pairs takes a parsed regex: the client prepares each
        # pattern once, as it would a prepared statement.
        self.prepared = {template: rpq_parser.parse_regex(template)
                         for _, kind, template, _ in ADHOC if kind == "pairs"}
        self.instances = sum(len(pool) for _, _, pool, _ in self.families)
        self.view_order = list(range(len(STANDING)))
        rng.shuffle(self.view_order)
        self.views_served = 0
        self.pending: list[str] = []
        self.store = None
        self.ops: list[tuple] = []

    # -- setup -------------------------------------------------------------

    def setup(self) -> None:
        if self.store is not None:
            self.store.close()
        self.store = durable.DurableGraph.open(self.directory, fsync=FSYNC)
        graph = self.store.graph
        self.triples = sparql.store_for_graph(graph)
        self.pgstore = cypherish.store_for_graph(graph)
        # A registry computes a view against its own target, so Cypher
        # views need one bound to the Cypher store; PathQL and pair views
        # share the one bound to the graph.
        self.registry = ivm_views.ViewRegistry(graph)
        self.cypher_views = ivm_views.ViewRegistry(self.pgstore)
        for index, (kind, text) in enumerate(STANDING):
            if kind == "pathql":
                self.registry.register_pathql(f"v{index}", text)
            elif kind == "cypher":
                self.cypher_views.register_cypher(f"v{index}", text)
            else:
                self.registry.register_pairs(
                    f"v{index}", rpq_parser.parse_regex(text))
        self.registry.sync_all()
        self.cypher_views.sync_all()
        self.cache = result_cache.QueryCache()
        self.mirror = TripleMirror(graph, self.triples)

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None

    # -- the op stream -----------------------------------------------------

    def next_op(self) -> tuple:
        rng = self.rng
        if not self.pending:
            self.pending = list(SERVE_BLOCK)
            rng.shuffle(self.pending)
        slot = self.pending.pop()
        if slot == "write":
            op = ("write", self.writes.draw())
        elif slot == "view":
            op = ("view", self.view_order[self.views_served
                                          % len(self.view_order)])
            self.views_served += 1
        else:
            if not self.pending_families:
                self.pending_families = list(self.family_block)
                rng.shuffle(self.pending_families)
            kind, template, pool, cum = self.families[
                self.pending_families.pop()]
            rank = rng.choices(range(len(pool)), cum_weights=cum)[0]
            op = (kind, template, pool[rank])
        self.ops.append(op)
        return op

    def execute(self, op: tuple, tracer, rec: Recorder) -> None:
        kind = op[0]
        rec.attempted += 1
        if kind == "write":
            write = op[1]
            removed = self.mirror.before(write)
            _, mutation_s = rec.timed(apply_write, self.store, write)
            _, mirror_s = rec.timed(self.mirror.after, write, removed)
            rec.write_s.append(mutation_s)
            rec.loop_s += mutation_s + mirror_s
            return
        answer, elapsed = rec.timed(self._query, op, tracer)
        rec.query_s.append(elapsed)
        rec.loop_s += elapsed
        rec.answers.append((len(self.ops) - 1, fingerprint(answer)))

    def _query(self, op: tuple, tracer):
        graph = self.store.graph
        if op[0] == "view":
            kind, text = STANDING[op[1]]
            if kind == "pathql":
                return pathql.run_pathql(graph, text, view=self.registry,
                                         tracer=tracer)
            if kind == "cypher":
                return cypherish.run_cypher(self.pgstore, text,
                                            view=self.cypher_views,
                                            tracer=tracer)
            return self.registry.result(f"v{op[1]}")
        kind, template, value = op
        if kind == "pathql":
            return pathql.run_pathql(graph, template.format(value),
                                     cache=self.cache, tracer=tracer)
        if kind == "sparql":
            return sparql.run_sparql(self.triples, template.format(value),
                                     cache=self.cache, tracer=tracer)
        if kind == "cypher":
            return cypherish.run_cypher(self.pgstore, template.format(value),
                                        cache=self.cache, tracer=tracer)
        return rpq_evaluate.endpoint_pairs(
            graph, self.prepared[template], start_nodes=[value],
            cache=self.cache, tracer=tracer)

    # -- storage path after the loop ---------------------------------------

    def tail(self, rec: Recorder, reps: int = 25) -> None:
        cold_regex = rpq_parser.parse_regex(COLD_QUERY)
        for rep in range(reps):
            store = self.store
            # The checkpoint starts a new WAL writer: count the old one.
            rec.wal.update(_wal_counts(store))
            _, seconds = rec.timed(store.checkpoint)
            rec.sample("checkpoint_s", seconds)
            rec.sample("disk_bytes_per_edge",
                       directory_bytes(self.directory)
                       / store.graph.edge_count())
            sample_storage_files(rec, self.directory)
            live = store.graph
            rec.timed(store.close)
            self.store = None
            recovered_and_check(rec, self.directory,
                                lambda live=live: graph_digest(live))
            cold_read_and_check(
                rec, self.directory, cold_regex,
                lambda live=live: rpq_evaluate.endpoint_pairs(
                    live, cold_regex, engine="scalar"))
            self.store, _ = rec.timed(durable.DurableGraph.open,
                                      self.directory, fsync=FSYNC)
            # A few footprint-disjoint writes, so each checkpoint is new.
            for _ in range(3):
                rec.timed(apply_write, self.store,
                          ("zip", self.writes.addresses[rep],
                           f"tail{rep}-{_}"))

    def finish(self, rec: Recorder) -> None:
        rec.notes["cache"] = self.cache.stats()
        rec.notes["views"] = {**self.registry.stats(),
                              **self.cypher_views.stats()}
        rec.notes["instances"] = self.instances
        if self.store is not None:
            rec.wal.update(_wal_counts(self.store))
        rec.timed(self.close)

    # -- oracle ------------------------------------------------------------

    def check(self, rec: Recorder) -> int:
        """Replay the executed ops with no cache, no views, scalar engine."""
        graph = generate_contact_graph(**SERVE_SHAPE)
        triples = sparql.store_for_graph(graph)
        pgstore = cypherish.store_for_graph(graph)
        mirror = TripleMirror(graph, triples)
        expected = dict(rec.answers)
        mismatches = 0
        for index, op in enumerate(self.ops):
            if op[0] == "write":
                removed = mirror.before(op[1])
                apply_write(graph, op[1])
                mirror.after(op[1], removed)
                continue
            answer = _plain_query(op, graph, triples, pgstore)
            if expected.get(index) != fingerprint(answer):
                mismatches += 1
        return mismatches


def _plain_query(op, graph, triples, pgstore):
    if op[0] == "view":
        kind, text = STANDING[op[1]]
    else:
        kind, template, value = op
        text = template.format(value)
    if kind == "pathql":
        return pathql.run_pathql(graph, text, engine="scalar")
    if kind == "sparql":
        return sparql.run_sparql(triples, text, engine="scalar")
    if kind == "cypher":
        return cypherish.run_cypher(pgstore, text, engine="scalar")
    starts = None if op[0] == "view" else [value]
    return rpq_evaluate.endpoint_pairs(
        graph, rpq_parser.parse_regex(text if op[0] == "view" else template),
        start_nodes=starts, engine="scalar")


def _wal_counts(store) -> Counter:
    stats = store.stats().get("wal", {})
    return Counter({"appended": stats.get("appended", 0),
                    "fsyncs": stats.get("fsyncs", 0),
                    "bytes": stats.get("offset", 0)})


def sample_storage_files(rec: Recorder, directory: str) -> None:
    """Sizes of the newest snapshot and CSR segment after a checkpoint."""
    newest = {}
    for entry in os.scandir(directory):
        for prefix in ("snapshot-", "csr-"):
            if entry.name.startswith(prefix):
                version = int(entry.name[len(prefix):].split(".")[0])
                if version >= newest.get(prefix, (-1, 0))[0]:
                    newest[prefix] = (version, entry.stat().st_size)
    for prefix, metric in (("snapshot-", "snapshot_bytes"),
                           ("csr-", "segment_bytes")):
        if prefix in newest:
            rec.sample(metric, newest[prefix][1])


def recover(rec: Recorder, directory: str) -> tuple:
    """Time a read-only recovery and its close; returns ``(seconds,
    digest of the recovered graph)``."""
    recovered, seconds = rec.timed(durable.DurableGraph.open, directory,
                                   read_only=True)
    rec.sample("recovery_s", seconds)
    rec.sample("wal_replay_entries", recovered.recovery.entries_replayed)
    rec.attempted += 1
    digest = graph_digest(recovered.graph)
    _, closing = rec.timed(recovered.close)
    return seconds + closing, digest


def cold_first_answer(rec: Recorder, directory: str, regex, start_nodes=None,
                      tracer=None) -> tuple:
    """Time open + first answer on the mmap'd segments; returns
    ``(backend, answer, seconds)`` with the backend still open."""
    def first_answer():
        backend = diskread.open_latest_segments(directory)
        return backend, rpq_evaluate.endpoint_pairs(
            backend, regex, start_nodes=start_nodes, tracer=tracer)

    (backend, answer), seconds = rec.timed(first_answer)
    rec.sample("cold_first_result_s", seconds)
    rec.sample("labels_decoded",
               len(backend.decoded_labels()) / len(backend.edge_label_set()))
    rec.attempted += 1
    return backend, answer, seconds


def recovered_and_check(rec: Recorder, directory: str, expected) -> None:
    """:func:`recover`; the recovered graph must equal ``expected()``."""
    _, digest = recover(rec, directory)
    rec.deferred.append(("recovered graph differs from the acknowledged "
                         "writes", digest, expected))


def cold_read_and_check(rec: Recorder, directory: str, regex, expected,
                        start_nodes=None) -> None:
    """:func:`cold_first_answer`; the answer must equal ``expected()``,
    the in-memory answer."""
    backend, answer, _ = cold_first_answer(rec, directory, regex, start_nodes)
    rec.deferred.append((f"cold read of {regex.to_text()} differs from "
                         "memory", fingerprint(answer),
                         lambda: fingerprint(expected())))
    rec.timed(backend.close)


# ---------------------------------------------------------------------------
# analytic-scan
# ---------------------------------------------------------------------------

DENSE_LABELS = ("a", "b", "c", "d")
SELECTIVE_LABELS = tuple(f"L{i}" for i in range(24))


def _with_anchor(graph, count: int, seed: int):
    rng = random.Random(seed)
    nodes = sorted(graph.nodes())
    for index in range(count):
        graph.add_edge(f"goal{index}", rng.choice(nodes), rng.choice(nodes),
                       "z")
    return graph


def _edge_list(graph) -> tuple:
    nodes = [(node, graph.node_label(node)) for node in graph.nodes()]
    edges = [(edge, *graph.endpoints(edge), graph.edge_label(edge))
             for edge in graph.edges()]
    return nodes, edges


def _load(edge_list) -> PropertyGraph:
    nodes, edges = edge_list
    graph = PropertyGraph()
    for node, label in nodes:
        graph.add_node(node, label)
    for edge, source, target, label in edges:
        graph.add_edge(edge, source, target, label)
    return graph


def _analytic_datasets() -> dict:
    """The three graphs, on both sides of each hand-set engine switch."""
    bitset = _with_anchor(random_labeled_graph(
        1500, 15000, node_labels=("x", "y"), edge_labels=DENSE_LABELS,
        rng=7), 6, 13)
    dense = _with_anchor(random_labeled_graph(
        800, 6400, node_labels=("x", "y"), edge_labels=DENSE_LABELS, rng=8),
        6, 14)
    selective = random_labeled_graph(
        300, 3000, node_labels=("a", "b"), edge_labels=SELECTIVE_LABELS,
        rng=9)
    return {"bitset": _edge_list(bitset), "dense": _edge_list(dense),
            "selective": _edge_list(selective)}


def _subset(rng, labels, low: int, high: int) -> str:
    chosen = rng.sample(labels, rng.randint(low, high))
    return "(" + " + ".join(chosen) + ")"


def _prefix(rng) -> tuple[str, int]:
    """A path of 0-3 label steps, each of the 85 sequences equally likely:
    ``(text, length)``.  With the 36 label groups it spans 3060 texts per
    query form, several times what a run draws, so the texts stay fresh."""
    length = rng.choices(range(4), weights=(1, 4, 16, 64))[0]
    return "".join(f"{rng.choice(DENSE_LABELS)}/"
                   for _ in range(length)), length


#: Per block of 20 ops: (count, query class).  One write closes a block.
ANALYTIC_BLOCK = (
    (5, "bitset-small"), (2, "bitset-large"), (3, "dense-small"),
    (1, "dense-large"), (3, "selective-chain"), (2, "selective-star"),
    (2, "selective-count"), (1, "dense-count"),
)


class AnalyticScan:
    name = "analytic-scan"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.directory = os.path.join(workdir, "analytic")
        self.datasets = _analytic_datasets()
        self.rng = random.Random(seed)
        self.node_ids = {name: sorted(node for node, _ in nodes)
                         for name, (nodes, _) in self.datasets.items()}
        self.seen: set = set()
        self.pending: list[tuple] = []
        self.serial = 0
        self.ops: list[tuple] = []
        self.graphs = None

    def setup(self) -> None:
        rpq_arrays.clear_adjacency_cache()
        self.graphs = {name: _load(edge_list)
                       for name, edge_list in self.datasets.items()}
        for name in ("bitset", "dense"):
            rpq_arrays.graph_arrays(self.graphs[name])

    def close(self) -> None:
        self.graphs = None

    # -- the op stream -----------------------------------------------------

    def _draw_query(self, cls: str) -> tuple:
        rng = self.rng
        for _ in range(1000):
            starts = None
            k = None
            if cls.startswith("bitset") or cls.startswith("dense"):
                graph = "bitset" if cls.startswith("bitset") else "dense"
                group = _subset(rng, DENSE_LABELS, 2, 3)
                prefix, steps = _prefix(rng)
                starts = rng.sample(self.node_ids[graph], 8)
                if cls.endswith("small"):
                    text = f"{prefix}{group}*/z"
                elif cls.endswith("large"):
                    text = rng.choice((f"{prefix}{group}*",
                                       f"?x/{prefix}{group}*/?y"))
                else:  # dense-count: the star takes up to two steps
                    text = f"{prefix}{group}*/z"
                    k = steps + 3
            else:
                graph = "selective"
                labels = rng.sample(SELECTIVE_LABELS, 4)
                if cls == "selective-chain":
                    text = rng.choice((
                        f"{labels[0]}/{labels[1]}",
                        f"{labels[0]}/{labels[1]}/{labels[2]}",
                        f"({labels[0]} + {labels[1]})/{labels[2]}"))
                elif cls == "selective-star":
                    text = rng.choice((
                        f"({labels[0]} + {labels[1]})*",
                        f"?a/{labels[0]}/({labels[1]} + {labels[2]})*"))
                else:
                    text = f"({labels[0]} + {labels[1]})*/{labels[2]}"
                    k = rng.randint(3, 5)
            # No query text repeats within a run, on any graph: the
            # compile cache is keyed on the parsed text alone.
            if text not in self.seen:
                self.seen.add(text)
                return ("count" if k is not None else "pairs", graph, text,
                        None if starts is None else tuple(starts), k)
        raise RuntimeError(f"{cls}: no unused query text left")

    def _draw_write(self) -> tuple:
        """Every third write adds an edge (the arrays rebuild); the others
        write a property (the arrays restamp).  Two kinds in equal shares
        would put the median write latency in the gap between them."""
        rng = self.rng
        self.serial += 1
        graph = ("bitset", "dense", "selective")[(self.serial // 3) % 3]
        nodes = self.node_ids[graph]
        if self.serial % 3 == 1:
            labels = DENSE_LABELS if graph != "selective" else SELECTIVE_LABELS
            return ("add", graph, f"w{self.serial}", rng.choice(nodes),
                    rng.choice(nodes), rng.choice(labels))
        return ("prop", graph, rng.choice(nodes), str(self.serial))

    def next_op(self) -> tuple:
        if not self.pending:
            block = [cls for count, cls in ANALYTIC_BLOCK
                     for _ in range(count)]
            self.rng.shuffle(block)
            self.pending = [self._draw_query(cls) for cls in block]
            self.pending.append(self._draw_write())
            self.pending.reverse()
        op = self.pending.pop()
        self.ops.append(op)
        return op

    def execute(self, op: tuple, tracer, rec: Recorder) -> None:
        rec.attempted += 1
        if op[0] in ("add", "prop"):
            _, seconds = rec.timed(_analytic_write, self.graphs, op)
            rec.write_s.append(seconds)
            rec.loop_s += seconds
            return
        answer, seconds = rec.timed(_analytic_query, self.graphs, op, "auto",
                                    tracer)
        rec.query_s.append(seconds)
        rec.loop_s += seconds
        rec.answers.append((len(self.ops) - 1, fingerprint(answer)))

    # -- storage path after the loop: the CSR export of the large graph ----

    def tail(self, rec: Recorder, reps: int = 41) -> None:
        os.makedirs(self.directory, exist_ok=True)
        graph = self.graphs["bitset"]
        regex = rpq_parser.parse_regex("(a + b)*/z")
        starts = self.node_ids["bitset"][:8]

        def expected():
            return rpq_evaluate.endpoint_pairs(graph, regex,
                                               start_nodes=starts,
                                               engine="scalar")

        for rep in range(reps):
            _, seconds = rec.timed(diskread.write_segments, self.directory,
                                   graph, graph.version + rep)
            rec.sample("checkpoint_s", seconds)
            diskread.prune_segment_files(self.directory, keep=1)
            rec.sample("disk_bytes_per_edge",
                       directory_bytes(self.directory) / graph.edge_count())
            sample_storage_files(rec, self.directory)
            backend, seconds = rec.timed(diskread.open_latest_segments,
                                         self.directory)
            rec.sample("recovery_s", seconds)
            rec.timed(backend.close)
            cold_read_and_check(rec, self.directory, regex, expected,
                                start_nodes=starts)

    def finish(self, rec: Recorder) -> None:
        self.close()

    # -- oracle ------------------------------------------------------------

    def check(self, rec: Recorder) -> int:
        """Replay the executed ops; check each answer at engine=scalar."""
        graphs = {name: _load(edge_list)
                  for name, edge_list in self.datasets.items()}
        expected = dict(rec.answers)
        mismatches = 0
        for index, op in enumerate(self.ops):
            if op[0] in ("add", "prop"):
                _analytic_write(graphs, op)
                continue
            answer = _analytic_query(graphs, op, "scalar", None)
            if expected.get(index) != fingerprint(answer):
                mismatches += 1
        return mismatches


def _analytic_write(graphs: dict, op: tuple) -> None:
    if op[0] == "add":
        _, graph, edge, source, target, label = op
        graphs[graph].add_edge(edge, source, target, label)
    else:
        _, graph, node, value = op
        graphs[graph].set_node_property(node, "w", value)


def _analytic_query(graphs: dict, op: tuple, engine: str, tracer):
    kind, graph, text, starts, k = op
    regex = rpq_parser.parse_regex(text)
    if kind == "count":
        return rpq_count.count_paths_exact(graphs[graph], regex, k,
                                           start_nodes=starts, engine=engine)
    return rpq_evaluate.endpoint_pairs(graphs[graph], regex,
                                       start_nodes=starts, engine=engine,
                                       tracer=tracer)


# ---------------------------------------------------------------------------
# durable-cycle
# ---------------------------------------------------------------------------

DURABLE_SHAPE = dict(n_people=2000, n_buses=50, n_addresses=666,
                     n_companies=2, rng=61)
CYCLE_WRITES = 100
CYCLE_TAIL_WRITES = 20
#: Reads per cycle after the first.  With one cold first answer and a few
#: first touches of other labels per cycle, 300 keeps the slow ones well
#: under 5% of queries, so p95 does not sit in the gap between the
#: clusters, and puts enough samples around p95 to steady it.
CYCLE_QUERIES = 300
#: Footprint-narrow reads on the cold store, each from one person; every
#: cycle reads each family equally often.
COLD_FAMILIES = ("contact/contact", "rides/rides^-", "lives/lives^-",
                 "?person/contact/?infected", "contact/lives")


class DurableCycle:
    name = "durable-cycle"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.directory = os.path.join(workdir, "durable")
        base = generate_contact_graph(**DURABLE_SHAPE)
        with durable.DurableGraph.open(self.directory, model="property",
                                       fsync=FSYNC) as store:
            store.ingest(base)
            store.checkpoint()
        self.rng = random.Random(seed)
        self.writes = ContactWrites(base, self.rng, "w")
        self.cold_regex = rpq_parser.parse_regex(COLD_QUERY)
        self.store = None
        self.ops: list[tuple] = []
        self.digests: list = []  # per cycle: recovered graph digest

    def setup(self) -> None:
        if self.store is not None:
            self.store.close()
        self.store = durable.DurableGraph.open(self.directory, fsync=FSYNC)

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None

    def next_op(self) -> tuple:
        rng = self.rng
        writes = [self.writes.draw() for _ in range(CYCLE_WRITES)]
        tail = [self.writes.draw() for _ in range(CYCLE_TAIL_WRITES)]
        families = [text for text in COLD_FAMILIES
                    for _ in range(CYCLE_QUERIES // len(COLD_FAMILIES))]
        rng.shuffle(families)
        queries = [(text, rng.choice(self.writes.people)) for text in families]
        op = ("cycle", writes, tail, queries)
        self.ops.append(op)
        return op

    def execute(self, op: tuple, tracer, rec: Recorder) -> None:
        _, writes, tail, queries = op
        # 1. a batch of writes.
        for write in writes:
            self._write(write, rec)
        # 2. checkpoint, a WAL tail recovery must replay, close.  The
        # checkpoint starts a new WAL writer: count the old one.
        rec.wal.update(_wal_counts(self.store))
        _, seconds = rec.timed(self.store.checkpoint)
        rec.loop_s += seconds
        rec.sample("checkpoint_s", seconds)
        rec.sample("disk_bytes_per_edge", directory_bytes(self.directory)
                   / self.store.graph.edge_count())
        sample_storage_files(rec, self.directory)
        for write in tail:
            self._write(write, rec)
        rec.wal.update(_wal_counts(self.store))
        _, seconds = rec.timed(self.store.close)
        rec.loop_s += seconds
        self.store = None
        # 3. recover read-only.
        seconds, digest = recover(rec, self.directory)
        rec.loop_s += seconds
        self.digests.append(digest)
        # 4. cold-open the segments and answer; then the parameterised reads.
        backend, answer, seconds = cold_first_answer(
            rec, self.directory, self.cold_regex, tracer=tracer)
        rec.loop_s += seconds
        rec.query_s.append(seconds)
        rec.answers.append(((len(self.ops) - 1, -1), fingerprint(answer)))
        for position, (text, person) in enumerate(queries):
            rec.attempted += 1
            answer, seconds = rec.timed(
                rpq_evaluate.endpoint_pairs, backend,
                rpq_parser.parse_regex(text), start_nodes=[person],
                tracer=tracer)
            rec.loop_s += seconds
            rec.query_s.append(seconds)
            rec.answers.append(((len(self.ops) - 1, position),
                                fingerprint(answer)))
        _, seconds = rec.timed(backend.close)
        rec.loop_s += seconds
        # 5. reopen for writing (replays the tail).
        self.store, seconds = rec.timed(durable.DurableGraph.open,
                                        self.directory, fsync=FSYNC)
        rec.loop_s += seconds

    def _write(self, write: tuple, rec: Recorder) -> None:
        rec.attempted += 1
        _, seconds = rec.timed(apply_write, self.store, write)
        rec.write_s.append(seconds)
        rec.loop_s += seconds

    def tail(self, rec: Recorder) -> None:
        """The cycle already samples the storage path."""

    def finish(self, rec: Recorder) -> None:
        if self.store is not None:
            rec.wal.update(_wal_counts(self.store))
        rec.timed(self.close)

    def check(self, rec: Recorder) -> int:
        """Replay acknowledged writes in memory; compare state and reads."""
        graph = generate_contact_graph(**DURABLE_SHAPE)
        expected = dict(rec.answers)
        mismatches = 0
        for index, (_, writes, tail, queries) in enumerate(self.ops):
            for write in writes:
                apply_write(graph, write)
            answer = rpq_evaluate.endpoint_pairs(graph, self.cold_regex,
                                                 engine="scalar")
            if expected.get((index, -1)) != fingerprint(answer):
                mismatches += 1
            for position, (text, person) in enumerate(queries):
                answer = rpq_evaluate.endpoint_pairs(
                    graph, rpq_parser.parse_regex(text),
                    start_nodes=[person], engine="scalar")
                if expected.get((index, position)) != fingerprint(answer):
                    mismatches += 1
            for write in tail:
                apply_write(graph, write)
            if index < len(self.digests) \
                    and self.digests[index] != graph_digest(graph):
                mismatches += 1
        return mismatches


WORKLOADS = {cls.name: cls for cls in (ServeMixed, AnalyticScan,
                                       DurableCycle)}


def make_workdir(root: str, name: str) -> str:
    path = os.path.join(root, ".perfbench_work", f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
