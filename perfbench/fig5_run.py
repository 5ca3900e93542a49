"""fig5_run — the paper's Fig. 5 "debug+hgdb" configuration.

The ten RV32 suite programs (``repro.cpu.build_suite``) in the debug
(-O0) build, compiled during set-up, run back to back to completion with
a ``Runtime`` attached, no breakpoints and history off.  Settle and tick
do nearly all the work; history, the wire and the front end do none, so
this is the workload an engine change moves most and a timeline or wire
change must not move.  The seed shuffles the program order of each pass.
"""

from __future__ import annotations

import random
import time

from .harness import Recorder, check, session_options, since, span, stamp
from .reference import RESET_CYCLES, iss_trace
from .stats import design_shape, engine_counters

MEM_WORDS = 8192
MAX_CYCLES = 200_000


class Fig5Run:
    name = "fig5_run"
    describe = "10 RV32 suite programs, debug build, Runtime attached, no breakpoints"
    op = "program_ms_per_kcycle"
    op_meaning = (
        "one suite program (a fresh Simulator over its compiled debug build, "
        "Runtime attached, reset, run to its Stop), in ms per 1000 simulated "
        "cycles so that the ten programs' lengths do not make the "
        "distribution multi-modal"
    )
    root = "fig5.program"
    #: One thread does all the work: process CPU time is the run's time
    #: on an idle host, and leaves out the other tenants' load.
    clock = "cpu"
    #: Set for the untraced half of a traced run: each program also runs
    #: with no runtime, for ``runtime.overhead_pct``.
    traced_baseline = False

    def __init__(self, seed: int):
        from repro.cpu import assemble, build_suite

        self.rng = random.Random(seed)
        self.suite = build_suite()
        self.words = [assemble(b.source).words for b in self.suite]
        self.refs = [iss_trace(w) for w in self.words]
        for bench, ref in zip(self.suite, self.refs, strict=True):
            if ref.tohost != bench.expected:
                raise RuntimeError(f"{bench.name}: ISS disagrees with the expected checksum")
        self.options = session_options()

    def setup(self, traced: bool = False):
        import repro
        import repro.symtable
        from repro.cpu import RV32Core
        from repro.sim import Simulator
        from repro.symtable import SQLiteSymbolTable

        programs = []
        for words in self.words:
            with span("hgf.construct"):
                top = RV32Core(words, MEM_WORDS)
            design = repro.compile(top, debug=True)
            sim = Simulator(design.low, options=self.options)
            table = SQLiteSymbolTable(repro.symtable.write_symbol_table(design))
            programs.append((design, sim.design, table))
        return programs

    def teardown(self, programs) -> None:
        for _design, _compiled, table in programs:
            table.conn.close()

    def _run_one(self, i: int, program, rec: Recorder, attached: bool = True) -> float:
        from repro.core import Runtime
        from repro.sim import Simulator

        design, compiled, table = program
        bench, ref = self.suite[i], self.refs[i]
        start = stamp()
        with span(self.root):
            sim = Simulator(design.low, compiled=compiled, options=self.options)
            runtime = None
            if attached:
                runtime = Runtime(sim, table)
                runtime.attach()
            sim.reset(RESET_CYCLES)
            run_start = stamp()
            code = sim.run(MAX_CYCLES)
            run = since(run_start)
        total = since(start)
        if attached:
            rec.sample(self.op, *(t * 1000 / sim.get_time() for t in total))
            rec.throughput(sim.get_time(), *run)
            runtime.detach()
        check(code == 0, f"{bench.name}: exit code {code}")
        check(sim.peek("tohost") == ref.tohost, f"{bench.name}: tohost mismatch")
        # The RTL core stops on the halting ecall before retiring it; the
        # ISS counts it.
        check(sim.peek("instret") == ref.instret - 1, f"{bench.name}: instret mismatch")
        check(
            sim.get_time() == ref.instret + RESET_CYCLES,
            f"{bench.name}: {sim.get_time()} cycles, ISS says {ref.instret + RESET_CYCLES}",
        )
        self.sim_stats.append((id(compiled), sim.stats()))
        return run[1]

    def loop(self, programs, rec: Recorder, deadline: float) -> None:
        self.sim_stats = []
        attached_s = detached_s = 0.0
        order = list(range(len(programs)))
        # Whole passes only: every program is weighted equally in the
        # percentiles of every run.
        while time.perf_counter() < deadline:
            self.rng.shuffle(order)
            for i in order:
                with rec.op():
                    attached_s += self._run_one(i, programs[i], rec)
                rec.between_ops()
                if self.traced_baseline:
                    # Paper Fig. 5: the same program with no runtime.
                    with rec.op():
                        detached_s += self._run_one(i, programs[i], rec, attached=False)
        rec.extra["overhead"] = (attached_s, detached_s)

    def layers(self, programs, rec_a: Recorder, rec_b: Recorder, tracer) -> dict:
        out = design_shape([d for d, _c, _t in programs], [t for _d, _c, t in programs])
        out.update(engine_counters(self.sim_stats))
        attached_s, detached_s = rec_a.extra["overhead"]
        out["runtime.overhead_pct"] = (
            (attached_s / detached_s - 1.0) * 100.0 if detached_s else 0.0
        )
        return out
