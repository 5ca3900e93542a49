"""seed_sweep — the FPU case study swept over many seeds on a shard pool.

``repro.fpu.FpuCmp(buggy=True)`` is swept with
``ShardSession(workers=nproc).sweep(..., worlds_per_shard=WORLDS)``:
random stimulus is poked every cycle under the shard stimulus contract
and no breakpoints are armed, so each group runs vectorized.  This is
the only workload that exercises shard coordination, the fork/pipe event
wire and the many-worlds kernels, and it drives the engine with pokes
instead of a free-running tick.  The seed picks ``seed_base``.  Every
shard's final ``state_digest`` is checked against a sequential
``fast=False`` ``Simulator`` run of the same seed, computed untimed
before set-up.

The traced half runs the sweep inline (``workers=0``) to see inside the
groups; the fork/pipe share is its difference from the untraced half.
"""

from __future__ import annotations

import random
import statistics
import time

from .harness import Recorder, check, nproc, session_options, span
from .stats import design_shape

SHARDS = 32
CYCLES = 500
WORLDS = 16


class SeedSweep:
    name = "seed_sweep"
    describe = (
        f"FpuCmp(buggy=True), {SHARDS} seeds x {CYCLES} cycles, "
        f"worlds_per_shard={WORLDS}, workers=nproc"
    )
    op = "sweep_ms"
    op_meaning = "one whole sweep, from the sweep call to its report"
    root = "sweep"

    def __init__(self, seed: int):
        import repro
        from repro.fpu import FpuCmp
        from repro.shard.spec import make_sweep
        from repro.shard.worker import make_stimulus
        from repro.sim import Simulator

        self.seed_base = random.Random(seed).randrange(1 << 20)
        self.options = session_options()
        self.start_s: list[float] = []
        reference = repro.compile(FpuCmp(buggy=True))
        ref_options = session_options(fast=False, strict="off")
        compiled = None
        self.digests = {}
        for spec in make_sweep(SHARDS, CYCLES, seed_base=self.seed_base):
            sim = Simulator(reference.low, compiled=compiled, options=ref_options)
            compiled = sim.design
            stimulus = make_stimulus(sim, spec)
            sim.reset(spec.reset_cycles)
            sim.run_cycles(spec.cycles, stimulus=stimulus)
            self.digests[spec.shard_id] = sim.state_digest()

    def setup(self, traced: bool = False):
        import repro
        from repro.fpu import FpuCmp
        from repro.shard import ShardSession

        design = repro.compile(FpuCmp(buggy=True))
        workers = 0 if traced else min(nproc(), SHARDS // WORLDS)
        t0 = time.perf_counter()
        with span("shard.session_start"):
            session = ShardSession(design, workers=workers, options=self.options)
        if not traced:
            self.start_s.append(time.perf_counter() - t0)
        # One checked sweep warms the pool path before anything is timed.
        self._check(self._sweep(session))
        return {"session": session, "workers": workers, "design": design}

    def _sweep(self, session):
        return session.sweep(
            SHARDS, CYCLES, seed_base=self.seed_base, worlds_per_shard=WORLDS
        )

    def teardown(self, state) -> None:
        state["session"].close()

    def loop(self, state, rec: Recorder, deadline: float) -> None:
        session, workers = state["session"], state["workers"]
        sweeps = rec.extra["sweeps"] = []
        while time.perf_counter() < deadline:
            with rec.op():
                t0 = time.perf_counter()
                with span(self.root):
                    report = self._sweep(session)
                dt = time.perf_counter() - t0
                rec.sample(self.op, dt)
                rec.throughput(SHARDS * CYCLES, dt)
                self._check(report)
                sweeps.append((dt, workers, report.results))
            rec.between_ops()

    def _check(self, report) -> None:
        results = report.results
        check(len(results) == SHARDS, f"{len(results)} results for {SHARDS} shards")
        for r in results:
            check(r.ok, f"shard {r.shard_id}: {r.error}")
            check(r.cycles == CYCLES, f"shard {r.shard_id} ran {r.cycles} cycles")
            check(
                r.state_digest == self.digests[r.shard_id],
                f"shard {r.shard_id} (seed {r.seed}) differs from the sequential reference",
            )

    def layers(self, state, rec_a: Recorder, rec_b: Recorder, tracer) -> dict:
        pool = rec_a.extra["sweeps"]
        out = design_shape([state["design"]], [state["session"].symtable])
        out["shard.session_start_ms"] = statistics.median(self.start_s) * 1e3
        out["shard.sweep_ms"] = statistics.mean(dt for dt, _w, _r in pool) * 1e3
        busy, slowest, attempts = [], [], []
        for dt, workers, results in pool:
            busy.append(sum(r.wall_time_s for r in results) / (workers * dt))
            by_id = sorted(results, key=lambda r: r.shard_id)
            groups = [
                sum(r.wall_time_s for r in by_id[i:i + WORLDS])
                for i in range(0, SHARDS, WORLDS)
            ]
            slowest.append(max(groups) / statistics.median(groups))
            attempts.append(statistics.mean(r.attempts for r in results))
        out["shard.worker_busy_frac"] = statistics.mean(busy)
        out["shard.slowest_group_ratio"] = statistics.mean(slowest)
        out["shard.attempts"] = statistics.mean(attempts)
        world_cycles = len(rec_b.extra["sweeps"]) * SHARDS * (CYCLES + 1)
        out["manyworlds.step_us"] = (
            tracer.totals()[0].get("manyworlds.step", 0) / world_cycles / 1e3
            if world_cycles else 0.0
        )
        return out
