"""Layer timing from outside the program: wrappers around public entry points.

The benchmark adds no span or counter inside ``src/``.  Instead a
:class:`LayerTrace` replaces each public entry point of a layer with a
wrapper that times the call.  Wrappers nest, so a layer's *self* time is
its wrappers' durations minus the wrapped calls nested inside them; time
no wrapper covers is the benchmark's own and is reported as
``unattributed_ms``.

Some callers bind a function at import time (``from repro.core.rpq.nfa
import compile_regex``).  Patching therefore replaces every reference to
the original object in every loaded ``repro`` module (and the benchmark's
own modules), not just the defining module's attribute.

The same patch machinery plants a deliberate slowdown for the
sensitivity self-test: :func:`plant_slowdown` makes one entry point spin
for as long as the real call took, doubling its cost.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import types
from collections import defaultdict

#: (layer, module, attribute) for every wrapped entry point.  ``Class.attr``
#: names a method.  Layers are named after the program's modules.
ENTRY_POINTS = (
    ("storage", "repro.storage.durable", "DurableGraph.open"),
    ("storage", "repro.storage.durable", "DurableGraph.close"),
    ("storage", "repro.storage.durable", "DurableGraph.checkpoint"),
    ("storage", "repro.storage.durable", "DurableGraph.add_edge"),
    ("storage", "repro.storage.durable", "DurableGraph.remove_edge"),
    ("storage", "repro.storage.durable", "DurableGraph.set_node_property"),
    ("storage", "repro.storage.wal", "WalWriter.append"),
    ("storage", "repro.storage.snapshot", "write_snapshot"),
    ("storage", "repro.storage.snapshot", "load_latest_snapshot"),
    ("storage", "repro.storage.diskread", "write_segments"),
    ("storage", "repro.storage.diskread", "open_latest_segments"),
    ("query", "repro.query.pathql", "parse_pathql"),
    ("query", "repro.query.sparql", "parse_sparql"),
    ("query", "repro.query.cypherish", "parse_cypher"),
    ("query", "repro.query.pathql", "run_pathql"),
    ("query", "repro.query.sparql", "run_sparql"),
    ("query", "repro.query.cypherish", "run_cypher"),
    ("query", "repro.query.sparql", "store_for_graph"),
    ("query", "repro.query.cypherish", "store_for_graph"),
    ("core.rpq", "repro.core.rpq.parser", "parse_regex"),
    ("core.rpq", "repro.core.rpq.nfa", "compile_regex"),
    ("core.rpq", "repro.core.rpq.evaluate", "endpoint_pairs"),
    ("core.rpq", "repro.core.rpq.evaluate", "shortest_conforming_length"),
    ("core.rpq", "repro.core.rpq.count", "count_paths_exact"),
    ("core.rpq", "repro.core.rpq.product", "build_product"),
    ("core.rpq", "repro.core.rpq.enumerate", "enumerate_paths"),
    ("core.rpq", "repro.core.rpq.enumerate", "enumerate_paths_up_to"),
    ("core.rpq.vectorized", "repro.core.rpq.vectorized.kernel",
     "vector_endpoint_pairs"),
    ("core.rpq.vectorized", "repro.core.rpq.vectorized.kernel",
     "back_layers_vectorized"),
    ("core.rpq.vectorized", "repro.core.rpq.vectorized.arrays",
     "graph_arrays"),
    ("models", "repro.models.property", "PropertyGraph.add_node"),
    ("models", "repro.models.property", "PropertyGraph.add_edge"),
    ("models", "repro.models.property", "PropertyGraph.remove_edge"),
    ("models", "repro.models.property", "PropertyGraph.set_node_property"),
    ("cache", "repro.cache.result_cache", "QueryCache.lookup"),
    ("cache", "repro.cache.result_cache", "QueryCache.store"),
    ("ivm", "repro.ivm.views", "ViewRegistry.serve_pathql"),
    ("ivm", "repro.ivm.views", "ViewRegistry.serve_sparql"),
    ("ivm", "repro.ivm.views", "ViewRegistry.serve_cypher"),
    ("ivm", "repro.ivm.views", "ViewRegistry.result"),
    ("ivm", "repro.ivm.views", "ViewRegistry.sync_all"),
)

LAYERS = ("storage", "query", "core.rpq", "core.rpq.vectorized", "models",
          "cache", "ivm")

#: Planted-slowdown targets the self-test may name (``--slow``).
SLOWDOWN_TARGETS = {
    "write_snapshot": ("repro.storage.snapshot", "write_snapshot"),
    "QueryCache.lookup": ("repro.cache.result_cache", "QueryCache.lookup"),
}


class _Patcher:
    """Replace an entry point everywhere it is referenced; undo on demand."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, module_name: str, attr: str, make_wrapper) -> None:
        module = importlib.import_module(module_name)
        if "." in attr:
            class_name, method = attr.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            if isinstance(original, classmethod):
                replacement = classmethod(make_wrapper(original.__func__))
            else:
                replacement = make_wrapper(original)
            self._undo.append((owner, method, original))
            setattr(owner, method, replacement)
            return
        original = getattr(module, attr)
        replacement = make_wrapper(original)
        for holder in _holders():
            namespace = vars(holder)
            for key, value in list(namespace.items()):
                if value is original:
                    self._undo.append((holder, key, value))
                    setattr(holder, key, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


def _holders():
    """Modules whose globals may hold an import-time binding."""
    own = {"workloads", "__main__"}
    for name, module in list(sys.modules.items()):
        if module is None:
            continue
        if name == "repro" or name.startswith("repro.") or name in own:
            yield module


class LayerTrace:
    """Self time per layer plus per-entry-point calls, totals and self time.

    ``calls[key]`` is ``[count, total seconds, self seconds]`` where the
    key is ``<defining module>.<function>``, e.g. ``snapshot.write_snapshot``.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self._stack: list[list[float]] = []
        self._patcher = _Patcher()

    def install(self) -> "LayerTrace":
        for layer, module_name, attr in ENTRY_POINTS:
            name = attr.rsplit(".", 1)[-1] if "." in attr else attr
            key = f"{module_name.rsplit('.', 1)[-1]}.{name}"
            self._patcher.patch(
                module_name, attr,
                lambda fn, layer=layer, key=key: self._wrap(layer, key, fn))
        return self

    def uninstall(self) -> None:
        self._patcher.restore()

    def _enter(self) -> list[float]:
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, layer: str, key: str, frame: list[float],
               elapsed: float, count: int) -> None:
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        self.self_s[layer] += elapsed - frame[0]
        entry = self.calls[key]
        entry[0] += count
        entry[1] += elapsed
        entry[2] += elapsed - frame[0]

    def _wrap(self, layer: str, key: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(layer, key, frame, time.perf_counter() - start, 1)
            if isinstance(result, types.GeneratorType):
                return self._timed_steps(layer, key, result)
            return result
        return timed

    def _timed_steps(self, layer: str, key: str, generator):
        """Attribute each step of a lazy enumeration to its layer."""
        with contextlib.closing(generator):
            while True:
                frame = self._enter()
                start = time.perf_counter()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    self._leave(layer, key, frame,
                                time.perf_counter() - start, 0)
                yield item

    def mean_ms(self, *keys: str, own: bool = False) -> float:
        """Mean milliseconds per call over ``keys`` (0 when never called);
        ``own=True`` averages self time instead of the full duration."""
        count = sum(self.calls[key][0] for key in keys if key in self.calls)
        seconds = sum(self.calls[key][2 if own else 1] for key in keys
                      if key in self.calls)
        return seconds * 1000.0 / count if count else 0.0

    def count(self, key: str) -> int:
        return self.calls[key][0] if key in self.calls else 0


class SpanDigest:
    """What the program's own spans said, accumulated across queries.

    Engine and strategy come from the ``evaluate`` span the evaluator
    wrote, never from re-running the engine choice here.
    """

    def __init__(self) -> None:
        self.strategy_count: dict[str, int] = defaultdict(int)
        self.strategy_s: dict[str, float] = defaultdict(float)
        self.engine_count: dict[str, int] = defaultdict(int)
        self.answers = 0
        self.answered = 0
        self.product_s = 0.0
        self.product_states = 0
        self.products = 0
        self.vector_build_s = 0.0
        self.vector_fixpoint_s = 0.0

    def absorb(self, tracer) -> None:
        for root in tracer.roots:
            self._visit(root)

    def _visit(self, span) -> None:
        name = span.name
        duration = span.duration or 0.0
        attrs = span.attrs
        if name == "evaluate" and "strategy" in attrs:
            strategy = str(attrs["strategy"])
            self.strategy_count[strategy] += 1
            self.strategy_s[strategy] += duration
            if "engine" in attrs:
                self.engine_count[str(attrs["engine"])] += 1
            if "answers" in attrs:
                self.answers += int(attrs["answers"])
                self.answered += 1
        elif name == "product":
            self.product_s += duration
            self.product_states += int(attrs.get("product_states", 0))
            self.products += 1
        elif name == "vector:build":
            self.vector_build_s += duration
        elif name == "vector:fixpoint":
            self.vector_fixpoint_s += duration
        for child in span.children:
            self._visit(child)


def plant_slowdown(target: str) -> _Patcher:
    """Double the cost of one entry point; returns the patcher to undo it."""
    module_name, attr = SLOWDOWN_TARGETS[target]

    def make(fn):
        @functools.wraps(fn)
        def doubled(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                until = time.perf_counter() + elapsed
                while time.perf_counter() < until:
                    pass
        return doubled

    patcher = _Patcher()
    patcher.patch(module_name, attr, make)
    return patcher
