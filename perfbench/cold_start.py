"""cold_start — time to the first breakpoint on a design never seen before.

Each iteration builds an RV32 design with new content — a suite
program's image with one seeded, never-executed ``.word`` appended, as
after a user edits the generator — so a cache keyed by design content
misses.  It then does what ``hgdb-py hub serve`` + ``hub attach`` do:
``repro.compile(..., debug=True)``; ``DebugHub`` (lint gate, codegen,
symbol-table file) and ``serve_background``; ``HubClient.attach``; arms a
breakpoint on the register-file write whose first hit comes a few hundred
cycles in; runs to that stop; then closes.  The front end does most of
the work and the engine very little, so a build cost or a build cache
added later shows here.  Interpreter warm-up and imports happen in
set-up (one whole untimed-in-the-loop iteration).
"""

from __future__ import annotations

import gc
import random
import time

from .harness import Recorder, check, session_options, since, span, stamp
from .reference import RESET_CYCLES, iss_trace, regfile_write_line
from .stats import design_shape, engine_counters

MEM_WORDS = 8192
MAX_CYCLES = 100_000


class ColdStart:
    name = "cold_start"
    describe = "new RV32 design per iteration: compile, hub start, attach, run to first breakpoint"
    op = "first_stop_ms"
    op_meaning = "from elaborate start to the first StopInfo (first_stop_ms)"
    root = "cold.first_stop"
    #: The work is serial across this process's threads (caller, hub
    #: event loop, session pump): process CPU time is its time on an idle
    #: host, and leaves out the other tenants' load.
    clock = "cpu"

    def __init__(self, seed: int):
        from repro.cpu import build_suite

        self.rng = random.Random(seed)
        self.sources = [b.source for b in build_suite()]
        self.next_program = self.rng.randrange(len(self.sources))
        self.src_file, self.src_line = regfile_write_line()
        self.options = session_options()

    def _variant(self):
        """A program image never built before and where its first stop is
        (computed on the ISS, before the timer starts)."""
        from repro.cpu import assemble

        # Programs rotate so that every run weights each one alike.
        source = self.sources[self.next_program % len(self.sources)]
        self.next_program += 1
        words = assemble(f"{source}\n    .word {self.rng.getrandbits(32)}\n").words
        first_index = self.rng.randint(200, 500)
        trace = iss_trace(words, limit=first_index + 64)
        index = next(i for i, _rd in trace.all_writes if i >= first_index)
        return words, first_index, index + RESET_CYCLES

    def setup(self, traced: bool = False):
        self.counters = []
        self._iteration(self._variant(), Recorder())
        return None

    def teardown(self, state) -> None:
        pass

    def loop(self, state, rec: Recorder, deadline: float) -> None:
        self.counters = []
        while time.perf_counter() < deadline:
            variant = self._variant()
            with rec.op():
                self._iteration(variant, rec)
            # Each iteration leaves a whole design behind as garbage.
            gc.collect()
            rec.between_ops()

    def _iteration(self, variant, rec: Recorder) -> None:
        import repro
        from repro.cpu import RV32Core
        from repro.hub import DebugHub, HubClient

        words, first_index, expected_time = variant
        hub = client = None
        try:
            start = stamp()
            with span(self.root):
                with span("hgf.construct"):
                    top = RV32Core(words, MEM_WORDS)
                design = repro.compile(top, debug=True)
                with span("hub.start"):
                    hub = DebugHub(design, options=self.options)
                    host, port = hub.serve_background()
                with span("hub.attach"):
                    client = HubClient(host, port)
                    session = client.attach()
                session.reset(RESET_CYCLES)
                session.add_breakpoint(
                    self.src_file, self.src_line, f"instret_r >= {first_index}"
                )
                run_start = stamp()
                with span("sim.first_run"):
                    stop = session.run(MAX_CYCLES)
                run = since(run_start)
            rec.sample(self.op, *since(start))
            rec.throughput(stop.time - RESET_CYCLES, *run)
            check(stop.reason == "breakpoint", f"first stop: {stop.reason} {stop.message or ''}")
            check(
                (stop.filename, stop.line) == (self.src_file, self.src_line),
                f"first stop at {stop.filename}:{stop.line}",
            )
            check(
                stop.time == expected_time,
                f"first stop at {stop.time}, ISS says {expected_time}",
            )
            self.last_design = design
            runtime = hub.get_session(session.sid).session.runtime
            self.counters.append((session.stats(), runtime.stats_bp_evals))
        finally:
            with span("hub.close"):
                if client is not None:
                    client.close()
                if hub is not None:
                    hub.close()

    def layers(self, state, rec_a: Recorder, rec_b: Recorder, tracer) -> dict:
        import repro.symtable

        design = self.last_design
        table = repro.symtable.SQLiteSymbolTable(repro.symtable.write_symbol_table(design))
        out = design_shape([design], [table])
        table.conn.close()
        out["sim.first_run_ms"] = tracer.mean_ms("sim.first_run", inclusive=True)
        # Every iteration compiles its own design: one cone cache each.
        out.update(engine_counters([(i, s) for i, (s, _e) in enumerate(self.counters)]))
        evals = sum(e for _s, e in self.counters)
        out["runtime.bp_evals"] = evals
        out["runtime.hits"] = len(self.counters)
        out["runtime.hit_ratio"] = len(self.counters) / evals if evals else 0.0
        return out
