"""debug_session — forward and backward debugging over the hub wire.

One ``DebugHub`` (served in the background on localhost) serves the RV32
``qsort`` debug build with history on (``snapshot_codec="rle"``, a
1024-entry window); one ``HubClient`` session drives it.  The script
arms a conditional breakpoint on the register-file write in
``repro/cpu/cpu.py`` (its line found through the symbol table) and a
watchpoint on ``tohost_r``, then alternates two phases:

* dense stops: the seed picks a register written every few cycles and
  the condition ``rd == K``; each stop does ``evaluate`` and ``peek``, and
  every so often a ``reverse_step`` + ``step``, a ``reverse_cont``, or a
  ``set_time`` to a seeded time inside the retained window;
* run-through: the condition holds only thousands of cycles later.

When the program finishes the session detaches and a fresh one attaches.
Every stop's time, line and written value is checked against the ISS's
sequence of writes to the chosen register, and every rewound state
against the reference engine's digest at that time.  Timeline record and
restore, condition evaluation, watch checks, symbol-table queries and hub
round trips do most of their work here.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

from .harness import Recorder, check, session_options, since, span, stamp
from .protocol_probe import probe
from .reference import RESET_CYCLES, iss_trace, reference_digests, regfile_write_line
from .stats import design_shape, engine_counters

MEM_WORDS = 8192
HISTORY = 1024
#: Rewind targets stay this far inside the retained window, which ends
#: at the current time and starts HISTORY cycles before the latest time
#: the session has reached (a rewind does not bring evicted cycles back).
WINDOW_MARGIN = 64
#: The cycle ranges of the dense phases.  Between them, and after the
#: last, the session runs through thousands of cycles to the next hit.
DENSE_REGIONS = ((RESET_CYCLES, 500), (2500, 3000))
#: One dense stop in this many is followed by a rewind.
REWIND_EVERY = 6
#: A set_time sends the session back to anywhere in its window; at most
#: this many per dense region keep the region's traversal bounded.
SET_TIMES_PER_REGION = 2
NEVER = 1 << 30


class DebugSessionWorkload:
    name = "debug_session"
    describe = "hub session on RV32 qsort, history rle@1024, dense stops + rewinds + run-through"
    op = "stop_ms"
    op_meaning = "a cont/step call during a dense phase, to its stop (stop_ms)"
    #: A call crosses three threads of this process (client, hub event
    #: loop, session pump), and each hand-off waits for a core: on a
    #: shared host the other tenants' load, not the program, sets the
    #: wall-time tail.  The call's work is serial, so its process CPU time
    #: is its latency on an idle host (both clocks are printed).
    clock = "cpu"
    root = "debug.op"

    def __init__(self, seed: int):
        import repro
        from repro.cpu import RV32Core, assemble, benchmark_by_name

        self.rng = random.Random(seed)
        self.bench = benchmark_by_name("qsort")
        self.words = assemble(self.bench.source).words
        self.ref = iss_trace(self.words)
        if self.ref.tohost != self.bench.expected:
            raise RuntimeError("qsort: ISS disagrees with the expected checksum")
        self.end_time = self.ref.instret + RESET_CYCLES
        self.watch_time = self.ref.tohost_store + RESET_CYCLES + 1
        # Stop times of each register's writes: instruction i is on the
        # core at time i + RESET_CYCLES.
        self.writes = {
            rd: [(i + RESET_CYCLES, i, pc, value) for i, pc, value in ws]
            for rd, ws in self.ref.writes.items()
        }
        self.write_times = {rd: [w[0] for w in ws] for rd, ws in self.writes.items()}
        self.dense_regs = sorted(
            rd for rd, ws in self.writes.items() if len(ws) * 20 >= self.ref.instret
        )
        self.src_file, self.src_line = regfile_write_line()
        reference = repro.compile(RV32Core(self.words, MEM_WORDS), debug=True)
        self.digests = reference_digests(
            reference.low, self.end_time, session_options(fast=False, strict="off")
        )
        self.options = session_options(snapshots=HISTORY, snapshot_codec="rle")

    # -- set-up -----------------------------------------------------------

    def setup(self, traced: bool = False):
        import repro
        import repro.symtable
        from repro.cpu import RV32Core
        from repro.hub import DebugHub, HubClient
        from repro.symtable import SQLiteSymbolTable

        with span("hgf.construct"):
            top = RV32Core(self.words, MEM_WORDS)
        design = repro.compile(top, debug=True)
        with span("hub.start"):
            hub = DebugHub(design, options=self.options)
            host, port = hub.serve_background()
        # The breakpoint's line comes from the symbol table: the write
        # whose sink is the register file, in the generator's cpu.py.
        table = SQLiteSymbolTable(repro.symtable.write_symbol_table(design))
        recs = [
            r for r in table.all_breakpoints()
            if r.sink == "regs" and r.filename.endswith("cpu/cpu.py")
        ]
        table.conn.close()
        check(len(recs) == 1, f"expected one register-file write, symbol table has {recs}")
        check(
            (recs[0].filename, recs[0].line) == (self.src_file, self.src_line),
            f"symbol table puts the register-file write at {recs[0].filename}:"
            f"{recs[0].line}, the source at {self.src_file}:{self.src_line}",
        )
        with span("hub.attach"):
            client = HubClient(host, port)
        return {"hub": hub, "client": client, "file": recs[0].filename,
                "line": recs[0].line, "design": design}

    def teardown(self, state) -> None:
        state["client"].close()
        state["hub"].close()

    # -- the closed loop ----------------------------------------------------

    def loop(self, state, rec: Recorder, deadline: float) -> None:
        self.sessions = []
        self.hello_ms = []
        self.bp_stops = 0
        self.next_reg = self.rng.randrange(len(self.dense_regs))
        while time.perf_counter() < deadline:
            # Whole rotations only: over one program per dense register,
            # each register is stopped on once in every dense region, so
            # every run weights the registers alike.
            for _ in self.dense_regs:
                self._program(state, rec)
            rec.epoch()

    def _call(self, rec: Recorder, family: str | None, fn, *args):
        rec.attempted += 1
        start = stamp()
        with span(self.root):
            out = fn(*args)
        dt = since(start)
        if family is not None:
            rec.sample(family, *dt)
        rec.between_ops()
        return out, dt

    def _expect(self, k: int, first_index: int, after: int):
        """The next stop after time ``after`` under ``rd == k &&
        instret_r >= first_index``: a breakpoint write or the watch."""
        times = self.write_times[k]
        j = bisect.bisect_right(times, after)
        while j < len(times) and self.writes[k][j][1] < first_index:
            j += 1
        if j < len(times) and times[j] < self.watch_time:
            return self.writes[k][j]
        return None

    def _check_stop(self, stop, expected, state) -> None:
        if expected is None:
            check(stop.reason == "watch", f"expected the watch, got {stop.reason}@{stop.time}")
            check(stop.time == self.watch_time, f"watch at {stop.time}, ISS says {self.watch_time}")
            check(stop.watch["new"] == self.ref.tohost, "watch saw the wrong tohost value")
            return
        t = expected[0]
        check(stop.reason == "breakpoint", f"expected a hit at {t}, got {stop.reason}@{stop.time}")
        check(stop.time == t, f"stop at {stop.time}, ISS writes the register at {t}")
        check(stop.line == state["line"], f"stop at line {stop.line}")

    def _check_digest(self, rec: Recorder, session, t: int) -> None:
        rec.attempted += 1
        digest = session.state_digest()
        check(digest == self.digests[t], f"state at time {t} differs from the reference")

    def _arm(self, rec: Recorder, session, state, k: int, first_index: int) -> None:
        rec.attempted += 1
        session.clear_breakpoints()
        cond = f"rd == {k}" if first_index <= 0 else f"rd == {k} && instret_r >= {first_index}"
        session.add_breakpoint(state["file"], state["line"], cond)

    def _go(self, rec: Recorder, session, family: str | None):
        """Resume the session (``run`` the first time) to its next stop."""
        if self.started:
            return self._call(rec, family, session.cont)
        self.started = True
        return self._call(rec, family, session.run, 10 * self.end_time)

    def _program(self, state, rec: Recorder) -> None:
        client = state["client"]
        for _ in range(5):
            t0 = time.perf_counter()
            client.hello()
            self.hello_ms.append((time.perf_counter() - t0) * 1e3)
        session = client.attach()
        self.started = False
        try:
            session.reset(RESET_CYCLES)
            session.add_watchpoint("tohost_r")
            pos = self.high = RESET_CYCLES
            for i, (start, end) in enumerate(DENSE_REGIONS):
                # Each region sees every dense register in turn; the seed
                # picks where the rotation starts.
                k = self.dense_regs[(self.next_reg + i) % len(self.dense_regs)]
                # Run through to the region: the condition holds again only
                # at its first write of k.
                self._arm(rec, session, state, k, start - RESET_CYCLES)
                expected = self._expect(k, start - RESET_CYCLES, pos)
                stop, dt = self._go(rec, session, "stop_ms" if pos + 1 >= start else None)
                if pos + 1 < start:
                    rec.throughput(stop.time - pos, *dt)
                self._check_stop(stop, expected, state)
                pos = self.high = stop.time
                self.bp_stops += 1
                # Dense stops until the region ends.
                self._arm(rec, session, state, k, 0)
                self.set_times_left = SET_TIMES_PER_REGION
                while True:
                    pos = self._dense_stop(rec, session, state, k, expected, pos, start)
                    expected = self._expect(k, 0, pos)
                    if expected is None or expected[0] >= end:
                        break
                    stop, _dt = self._go(rec, session, "stop_ms")
                    self._check_stop(stop, expected, state)
                    pos = stop.time
                    self.high = max(self.high, pos)
                    self.bp_stops += 1
            self.next_reg += 1
            # The last run-through never hits: it ends at the tohost watch.
            self._arm(rec, session, state, k, NEVER)
            stop, dt = self._go(rec, session, None)
            rec.throughput(stop.time - pos, *dt)
            self._check_stop(stop, None, state)
            self._finish(rec, session, state)
        except Exception as exc:  # noqa: BLE001 - a failure ends this program
            rec.fail(f"{type(exc).__name__}: {exc}")
        finally:
            client.detach()
            # The finished session's history is garbage now; collect it
            # between programs so peak memory does not depend on when the
            # collector happens to run.
            gc.collect()

    def _finish(self, rec: Recorder, session, state) -> None:
        end, _dt = self._call(rec, None, session.cont)
        check(end.reason == "done", f"expected the end, got {end.reason}@{end.time}")
        check(end.exit_code == 0, f"exit code {end.exit_code}")
        check(end.time == self.end_time, f"ended at {end.time}, ISS says {self.end_time}")
        runtime = state["hub"].get_session(session.sid).session.runtime
        self.sessions.append((session.stats(), runtime.stats_bp_evals))

    def _dense_stop(self, rec, session, state, k, expected, pos, region_start) -> int:
        """Requests at a dense stop, then maybe a rewind inside the dense
        region; returns the new current time."""
        _t, _i, pc, value = expected
        got, _dt = self._call(rec, "request_ms", session.evaluate, "wb_val")
        check(got == value, f"wb_val {got} at {pos}, ISS writes {value}")
        got, _dt = self._call(rec, "request_ms", session.peek, "pc")
        check(got == pc, f"pc {got} at {pos}, ISS pc {pc}")
        rng = self.rng
        if rng.randrange(REWIND_EVERY):
            return pos
        low = max(RESET_CYCLES + 1, region_start, self.high - HISTORY + WINDOW_MARGIN)
        kind = rng.choice(("reverse_step", "reverse_cont", "set_time"))
        if kind == "reverse_step":
            back, _dt = self._call(rec, "rewind_ms", session.reverse_step)
            check(back.reason == "breakpoint" and back.time in (pos - 1, pos),
                  f"reverse_step from {pos} went to {back.reason}@{back.time}")
            self._check_digest(rec, session, back.time)
            again, dt = self._call(rec, "stop_ms", session.step)
            check((again.time, again.line) == (pos, state["line"]),
                  f"step after reverse_step went to {again.time}:{again.line}")
            self._check_digest(rec, session, pos)
            return pos
        if kind == "reverse_cont":
            times = self.write_times[k]
            j = bisect.bisect_left(times, pos) - 1
            if j < 0 or times[j] < low:
                return pos
            back, _dt = self._call(rec, "rewind_ms", session.reverse_cont)
            self._check_stop(back, self.writes[k][j], state)
            self._check_digest(rec, session, back.time)
            return back.time
        if pos - 1 < low or not self.set_times_left:
            return pos
        self.set_times_left -= 1
        target = rng.randint(low, pos - 1)
        self._call(rec, "rewind_ms", session.set_time, target)
        self._check_digest(rec, session, target)
        return target

    # -- per-layer counters ---------------------------------------------------

    def layers(self, state, rec_a: Recorder, rec_b: Recorder, tracer) -> dict:
        from repro.symtable import SQLiteSymbolTable, write_symbol_table

        table = SQLiteSymbolTable(write_symbol_table(state["design"]))
        out = design_shape([state["design"]], [table])
        table.conn.close()
        stats = [s for s, _evals in self.sessions]
        # Sessions share the hub's compiled design (one cone cache).
        out.update(engine_counters([("hub", s) for s in stats]))
        evals = sum(e for _s, e in self.sessions)
        out["runtime.bp_evals"] = evals
        out["runtime.hits"] = self.bp_stops
        out["runtime.hit_ratio"] = self.bp_stops / evals if evals else 0.0
        if stats:
            out["timeline.bytes"] = statistics.mean(s["snapshot_bytes"] for s in stats)
            out["timeline.evictions"] = statistics.mean(s["timeline_evictions"] for s in stats)
            out["timeline.keyframes"] = statistics.mean(s["timeline_keyframes"] for s in stats)
        out["hub.rtt_ms"] = statistics.mean(self.hello_ms) if self.hello_ms else 0.0
        out["hub.requests"] = tracer.calls("hub.call")
        out.update(probe(state["design"], self.options))
        return out
