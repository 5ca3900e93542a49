"""Spans around the layers' public entry points, recorded from outside.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces the
entry points the benchmark's layers are reached through (module
attributes, class methods, and the per-cycle function fields of each
``CompiledDesign`` as it is built) with wrappers, and
:meth:`Tracer.uninstall` puts the originals back.

A span is (id, name, start, end, parent, root, thread).  A layer's self
time is its span's duration minus the time its child spans cover.  Work a
hub or session thread does on behalf of a blocked client call has no
parent in its own thread; it is parented to the innermost span open in
the main thread, so the client call's self time is the wire and dispatch
cost alone.  Per-cycle layers (settle, tick, clock callback, history
record, watch check, symbol-table query) are aggregated, not kept one
span per call; the coarse spans are kept in memory and written out as
JSON at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter_ns

#: Every per-layer metric, in report order: (name, unit, better).
LAYER_METRICS = [
    ("hgf.construct_ms", "ms", "lower"),
    ("hgf.elaborate_ms", "ms", "lower"),
    ("ir.compile_ms", "ms", "lower"),
    ("ir.check_high_form_ms", "ms", "lower"),
    ("ir.lower_types_ms", "ms", "lower"),
    ("ir.expand_whens_ms", "ms", "lower"),
    ("ir.const_prop_ms", "ms", "lower"),
    ("ir.cse_ms", "ms", "lower"),
    ("ir.dce_ms", "ms", "lower"),
    ("ir.check_low_form_ms", "ms", "lower"),
    ("ir.low_stmts", "count", "lower"),
    ("lint.gate_ms", "ms", "lower"),
    ("sim.codegen_ms", "ms", "lower"),
    ("symtable.write_ms", "ms", "lower"),
    ("symtable.rows", "count", "lower"),
    ("hub.start_ms", "ms", "lower"),
    ("hub.attach_ms", "ms", "lower"),
    ("hub.close_ms", "ms", "lower"),
    ("sim.first_run_ms", "ms", "lower"),
    ("sim.settle_us", "us", "lower"),
    ("sim.tick_us", "us", "lower"),
    ("sim.loop_us", "us", "lower"),
    ("sim.ticks", "count", "lower"),
    ("sim.settle_full", "count", "lower"),
    ("sim.settle_tick", "count", "lower"),
    ("sim.settle_seeds", "count", "lower"),
    ("sim.cone_hit_ratio", "ratio", "higher"),
    ("runtime.clock_cb_us", "us", "lower"),
    ("runtime.overhead_pct", "%", "lower"),
    ("runtime.bp_evals", "count", "lower"),
    ("runtime.hits", "count", "lower"),
    ("runtime.hit_ratio", "ratio", "higher"),
    ("runtime.evaluate_ms", "ms", "lower"),
    ("watch.changed_us", "us", "lower"),
    ("symtable.query_ms", "ms", "lower"),
    ("timeline.record_us", "us", "lower"),
    ("timeline.restore_ms", "ms", "lower"),
    ("timeline.bytes", "B", "lower"),
    ("timeline.evictions", "count", "lower"),
    ("timeline.keyframes", "count", "lower"),
    ("hub.rtt_ms", "ms", "lower"),
    ("hub.requests", "count", "lower"),
    ("protocol.rtt_ms", "ms", "lower"),
    ("protocol.close_ms", "ms", "lower"),
    ("shard.session_start_ms", "ms", "lower"),
    ("shard.sweep_ms", "ms", "lower"),
    ("shard.worker_busy_frac", "fraction", "higher"),
    ("shard.slowest_group_ratio", "ratio", "lower"),
    ("shard.attempts", "count", "lower"),
    ("manyworlds.vectorize_ms", "ms", "lower"),
    ("manyworlds.step_us", "us", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.unattributed_pct", "%", "lower"),
]

#: Spans whose self time is reported as ``<span>_ms``, a mean per call.
_PER_CALL_MS = (
    "hgf.construct", "hgf.elaborate", "ir.compile", "ir.check_high_form",
    "ir.lower_types", "ir.expand_whens", "ir.const_prop", "ir.cse", "ir.dce",
    "ir.check_low_form", "lint.gate", "sim.codegen", "symtable.write",
    "hub.start", "hub.attach", "hub.close", "runtime.evaluate",
    "symtable.query", "timeline.restore", "manyworlds.vectorize",
)

#: Spans whose self time is reported as ``<span>_us``, per simulated cycle.
_PER_CYCLE_US = (
    "sim.settle", "sim.tick", "sim.loop", "runtime.clock_cb", "watch.changed",
    "timeline.record",
)

#: Spans kept one record per call (the rest are aggregated only).
_AGGREGATED = {
    "sim.settle", "sim.tick", "sim.loop", "runtime.clock_cb",
    "watch.changed", "timeline.record", "symtable.query", "manyworlds.step",
    "runtime.parked",
}

_PASSES = (
    "check_high_form", "lower_types", "expand_whens", "const_prop", "cse",
    "dce", "check_low_form",
)
_DESIGN_SETTLE = ("comb",)
_DESIGN_TICK = ("tick", "tick_act", "tick_journal", "tick_act_journal")
_SYMTABLE_QUERIES = (
    "breakpoints_at", "scope_variables", "resolve_scoped_var",
    "resolve_instance_var", "instances", "generator_variables",
    "all_breakpoints", "breakpoint", "filenames", "breakpoint_lines",
    "attribute", "top_name",
)


class _ThreadRecord:
    """One thread's open spans and totals; outlives the thread."""

    def __init__(self):
        self.stack: list = []
        self.self_ns: dict = defaultdict(int)
        self.incl_ns: dict = defaultdict(int)
        self.calls: dict = defaultdict(int)
        self.spans: list = []


class Tracer:
    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._threads: list = []
        self._main_stack: list | None = None
        self._ids = itertools.count(1)
        self._patches: list = []

    # -- spans ---------------------------------------------------------

    def _state(self) -> _ThreadRecord:
        st = getattr(self._tls, "rec", None)
        if st is None:
            st = self._tls.rec = _ThreadRecord()
            with self._lock:
                self._threads.append((threading.current_thread().name, st))
            if threading.current_thread() is threading.main_thread():
                self._main_stack = st.stack
        return st

    def enter(self, name: str):
        st = self._state()
        stack = st.stack
        if stack:
            parent = stack[-1]
            cross = False
        else:
            main = self._main_stack
            cross = True
            try:
                parent = main[-1] if main is not stack else None
            except (IndexError, TypeError):
                parent = None
        root = parent[5] if parent is not None else None
        sid = next(self._ids)
        frame = [name, perf_counter_ns(), 0, parent, cross, root or sid, sid]
        stack.append(frame)
        return frame

    def exit(self, frame) -> None:
        end = perf_counter_ns()
        st = self._tls.rec
        st.stack.pop()
        name, start, child, parent, cross, root, sid = frame
        dur = end - start
        st.self_ns[name] += dur - child
        st.incl_ns[name] += dur
        st.calls[name] += 1
        if parent is not None:
            if cross:
                with self._lock:
                    parent[2] += dur
            else:
                parent[2] += dur
        if name not in _AGGREGATED:
            st.spans.append(
                (sid, name, start, end, parent[6] if parent else None, root,
                 threading.current_thread().name)
            )

    def wrap(self, fn, name: str):
        if getattr(fn, "__perfbench_span__", None):
            return fn
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        wrapper.__perfbench_span__ = name
        return wrapper

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span; an attribute a class inherits
        is shadowed on the class and the shadow deleted on uninstall."""
        own = not isinstance(owner, type) or attr in owner.__dict__
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name))
        self._patches.append((owner, attr, original if own else None))

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        import repro
        import repro.hgf
        import repro.hub.client
        import repro.hub.server
        import repro.ir.compiler
        import repro.lint.engine
        import repro.shard.coordinator
        import repro.sim.engine
        import repro.sim.manyworlds
        import repro.symtable
        import repro.symtable.writer
        from repro.core.runtime import Runtime
        from repro.core.watch import WatchStore
        from repro.hub.api import LocalSession
        from repro.sim.compiler import CompiledDesign
        from repro.sim.engine import Simulator
        from repro.sim.manyworlds import ManyWorldsSimulator
        from repro.sim.timeline import Timeline
        from repro.symtable.query import SQLiteSymbolTable

        self._state()  # the main thread's stack anchors cross-thread spans
        self.patch(repro.hgf, "elaborate", "hgf.elaborate")
        self.patch(repro, "compile_circuit", "ir.compile")
        for name in _PASSES:
            self.patch(repro.ir.compiler, name, f"ir.{name}")
        self.patch(repro.lint.engine, "gate_circuit", "lint.gate")
        for module in (repro.symtable, repro.symtable.writer,
                       repro.hub.server, repro.shard.coordinator):
            self.patch(module, "write_symbol_table", "symtable.write")

        codegen = self._codegen(repro.sim.engine.compile_design)
        for module in (repro.sim.engine, repro.hub.server,
                       repro.sim.manyworlds, repro.shard.coordinator):
            self._patches.append((module, "compile_design", module.compile_design))
            module.compile_design = codegen
        self.patch(repro.sim.manyworlds, "compile_vector", "manyworlds.vectorize")

        for attr in ("settle_seeds", "settle_tick"):
            self.patch(CompiledDesign, attr, "sim.settle")
        self.patch(Simulator, "step", "sim.loop")
        self.patch(ManyWorldsSimulator, "step", "manyworlds.step")
        self.patch(Runtime, "_on_clock", "runtime.clock_cb")
        self.patch(Runtime, "evaluate", "runtime.evaluate")
        # A session parks inside the clock callback while stopped at a
        # hit; the parked time is a child span so that it is not counted
        # as callback work.
        self.patch(LocalSession, "_on_hit", "runtime.parked")
        self.patch(WatchStore, "changed", "watch.changed")
        self.patch(Timeline, "record", "timeline.record")
        self.patch(Timeline, "restore", "timeline.restore")
        for attr in _SYMTABLE_QUERIES:
            self.patch(SQLiteSymbolTable, attr, "symtable.query")
        self.patch(repro.hub.client.HubClient, "call", "hub.call")

    def _codegen(self, compile_design):
        """``compile_design`` as a span that also wraps the new design's
        per-cycle functions (settle and tick are fields, not methods)."""
        wrapped = self.wrap(compile_design, "sim.codegen")
        tracer = self

        @functools.wraps(compile_design)
        def codegen(*args, **kwargs):
            design = wrapped(*args, **kwargs)
            for attr in _DESIGN_SETTLE:
                setattr(design, attr, tracer.wrap(getattr(design, attr), "sim.settle"))
            for attr in _DESIGN_TICK:
                fn = getattr(design, attr)
                if fn is not None:
                    setattr(design, attr, tracer.wrap(fn, "sim.tick"))
            return design

        return codegen

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def totals(self):
        self_ns: dict = defaultdict(int)
        incl_ns: dict = defaultdict(int)
        calls: dict = defaultdict(int)
        with self._lock:
            threads = list(self._threads)
        for _name, st in threads:
            for key, value in st.self_ns.items():
                self_ns[key] += value
            for key, value in st.incl_ns.items():
                incl_ns[key] += value
            for key, value in st.calls.items():
                calls[key] += value
        return self_ns, incl_ns, calls

    def calls(self, name: str) -> int:
        return self.totals()[2].get(name, 0)

    def mean_ms(self, name: str, inclusive: bool = False) -> float:
        self_ns, incl_ns, calls = self.totals()
        n = calls.get(name, 0)
        source = incl_ns if inclusive else self_ns
        return source.get(name, 0) / n / 1e6 if n else 0.0

    def layer_metrics(self, cycles: int) -> dict:
        self_ns, _incl, calls = self.totals()
        out = {}
        for name in _PER_CALL_MS:
            n = calls.get(name, 0)
            out[f"{name}_ms"] = self_ns.get(name, 0) / n / 1e6 if n else 0.0
        for name in _PER_CYCLE_US:
            out[f"{name}_us"] = self_ns.get(name, 0) / cycles / 1e3 if cycles else 0.0
        return out

    def unattributed_pct(self, root: str) -> float:
        """Share of the root spans' time no layer span accounts for."""
        self_ns, incl_ns, _calls = self.totals()
        total = incl_ns.get(root, 0)
        return 100.0 * self_ns.get(root, 0) / total if total else 0.0

    def write_spans(self, path) -> None:
        with self._lock:
            threads = list(self._threads)
        spans = [
            dict(zip(("id", "name", "start_ns", "end_ns", "parent", "root",
                      "thread"), rec, strict=True))
            for _name, st in threads
            for rec in st.spans
        ]
        spans.sort(key=lambda s: s["start_ns"])
        self_ns, incl_ns, calls = self.totals()
        doc = {
            "spans": spans,
            "aggregates": {
                name: {"calls": calls[name], "self_ns": self_ns[name],
                       "incl_ns": incl_ns[name]}
                for name in sorted(calls)
            },
        }
        path.write_text(json.dumps(doc))
