"""Debug hub server: wire round-trips, re-attach, eviction, the lint
gate, the shard endpoint, and hub-side observability."""

import os
import threading
import time

import pytest

import repro
from repro.hub import DebugHub, HubClient, SessionError, SessionOptions, StopInfo
from repro.hub.server import HubError
from repro.lint import LintError
from tests.helpers import Accumulator, Counter, line_of
from tests.lint.broken_designs import Loopy, Sloppy


def _serve(mod_cls=Counter, **kw):
    design = repro.compile(mod_cls())
    hub = DebugHub(design, **kw)
    host, port = hub.serve_background()
    return design, hub, host, port


class TestWire:
    def test_hello(self):
        design, hub, host, port = _serve()
        with hub, HubClient(host, port) as client:
            info = client.hello()
            assert info["protocol"] == 1
            assert info["design"] == design.name
            assert info["sessions"] == 0

    def test_attach_break_run_evaluate(self):
        design, hub, host, port = _serve()
        _f, line = line_of(design, "count")
        with hub, HubClient(host, port) as client:
            session = client.attach(name="alice")
            session.poke("en", 1)
            session.reset(1)
            bps = session.add_breakpoint("helpers.py", line)
            assert bps and bps[0]["line"] == line
            stop = session.run(10)
            assert stop.reason == "breakpoint"
            assert stop.stopped
            frame = stop.frames[0]
            local = {v["name"]: v.get("value") for v in frame["local"]}
            assert local["en"] == 1
            got = session.evaluate(
                "count + 1", breakpoint_id=frame["breakpoint_id"]
            )
            assert got == local["count"] + 1
            after = session.cont()
            assert after.reason == "breakpoint"
            assert after.time == stop.time + 1

    def test_state_machine_enforced_over_the_wire(self):
        # The protocol contract: resume commands only make sense at a
        # stop, and the error crosses the wire as a SessionError.
        design, hub, host, port = _serve()
        with hub, HubClient(host, port) as client:
            session = client.attach()
            with pytest.raises(SessionError, match="cannot resume"):
                session.cont()

    def test_reattach_by_sid_preserves_state(self):
        design, hub, host, port = _serve()
        with hub:
            first = HubClient(host, port)
            session = first.attach(name="alice")
            session.poke("en", 1)
            session.reset(1)
            stop = session.run(5)
            assert stop.reason == "done"
            sid = session.sid
            first.close()  # dropped connection != detach
            assert hub.session_count == 1

            with HubClient(host, port) as second:
                again = second.attach(sid=sid)
                assert again.sid == sid
                assert again.name == "alice"
                assert again.get_time() == stop.time  # state survived
                assert again.detach() is None  # idle: nothing in flight
            assert hub.session_count == 0

    def test_list_sessions(self):
        design, hub, host, port = _serve()
        with hub, HubClient(host, port) as c1, HubClient(host, port) as c2:
            c1.attach(name="alice", seed=3)
            c2.attach(name="bob")
            listed = {s["name"]: s for s in c1.list_sessions()}
            assert set(listed) == {"alice", "bob"}
            assert listed["alice"]["seed"] == 3
            assert listed["alice"]["state"] == "idle"

    def test_unknown_methods_are_wire_errors(self):
        design, hub, host, port = _serve()
        with hub, HubClient(host, port) as client:
            with pytest.raises(SessionError, match="unknown hub method"):
                client.call("frobnicate")
            with pytest.raises(SessionError, match="no session bound"):
                client.call("s.run", {"cycles": 1})
            client.attach()
            with pytest.raises(SessionError, match="unknown session method"):
                client.call("s._sim")  # allowlist, not getattr-anything

    def test_needs_compiled_design(self):
        with pytest.raises(HubError, match="repro.compile"):
            DebugHub(Counter())


class TestThreadPerConnection:
    def test_busy_sessions_do_not_stall_a_new_connection(self):
        # One more long run than a min(32, cpu + 4) worker pool has
        # threads: a hub that hands requests to such a pool queues the
        # newcomer's hello behind runs that never end.
        design, hub, host, port = _serve()
        n = (os.cpu_count() or 1) + 5
        clients = [HubClient(host, port) for _ in range(n)]
        sessions = [c.attach() for c in clients]
        outcomes: list = [None] * n

        def run(k: int) -> None:
            try:
                outcomes[k] = sessions[k].run(10**12)
            except SessionError as exc:  # the hub closed under the run
                outcomes[k] = exc

        runners = [
            threading.Thread(target=run, args=(k,), daemon=True)
            for k in range(n)
        ]
        try:
            for t in runners:
                t.start()
            deadline = time.monotonic() + 30
            while any(
                hub.get_session(s.sid).state != "running" for s in sessions
            ):
                assert time.monotonic() < deadline, "runs did not start"
                time.sleep(0.01)
            with HubClient(host, port, timeout=2) as fresh:
                assert fresh.hello()["sessions"] == n
        finally:
            hub.close()
            for t in runners:
                t.join(timeout=10)
            for c in clients:
                c.close()
        assert not any(t.is_alive() for t in runners)
        for out in outcomes:
            assert isinstance(out, SessionError) or (
                isinstance(out, StopInfo) and out.reason == "detached"
            )


class TestEviction:
    def test_idle_sessions_evicted(self):
        design, hub, host, port = _serve(idle_ttl=0.1)
        with hub, HubClient(host, port) as client:
            session = client.attach()
            session.reset(1)
            deadline = time.monotonic() + 5.0
            while hub.session_count and time.monotonic() < deadline:
                time.sleep(0.05)
            assert hub.session_count == 0
            with pytest.raises(SessionError, match="no session"):
                client.attach(sid=session.sid)

    def test_running_sessions_survive_the_sweep(self):
        design = repro.compile(Counter())
        with DebugHub(design, idle_ttl=0.01) as hub:
            ds = hub.attach()
            ds.last_used = 0.0  # ancient, but...
            ds.session._state = "running"  # ...busy: never evicted
            assert hub.evict_idle() == []
            ds.session._state = "idle"
            assert hub.evict_idle() == [ds.sid]
            assert hub.session_count == 0

    def test_evict_without_ttl_is_a_noop(self):
        design = repro.compile(Counter())
        with DebugHub(design) as hub:
            hub.attach()
            assert hub.evict_idle() == []
            assert hub.session_count == 1


class TestLintGate:
    def test_strict_defaults_to_error_at_the_hub(self):
        # A standalone Simulator defaults the gate off; a design served
        # to many engineers hardens to "error" unless told otherwise.
        design = repro.compile(Loopy())
        with pytest.raises(LintError) as exc_info:
            DebugHub(design)
        assert any(d.rule == "comb-cycle" for d in exc_info.value.diagnostics)

    def test_explicit_strict_off_wins(self):
        # With the gate explicitly off the comb loop reaches the code
        # generator (which also rejects it) — proving lint didn't run.
        from repro.sim.compiler import CombLoopError

        design = repro.compile(Loopy())
        with pytest.raises(CombLoopError):
            DebugHub(design, options=SessionOptions(strict="off"))

    def test_strict_warn_reports_without_blocking(self):
        from repro.lint import LintWarning

        design = repro.compile(Sloppy())
        with pytest.warns(LintWarning):
            hub = DebugHub(design, options=SessionOptions(strict="warn"))
        hub.close()

    def test_sessions_do_not_regate(self):
        # The hub vets the design once; per-session options carry
        # strict="off" so every attach skips the (already-paid) gate.
        design = repro.compile(Counter())
        with DebugHub(design, options=SessionOptions(strict="error")) as hub:
            assert hub.options.strict == "off"
            hub.attach()


class TestShardEndpoint:
    def test_sweep_through_a_hub_session(self):
        design, hub, host, port = _serve(Accumulator)
        _f, line = line_of(design, "acc")
        with hub, HubClient(host, port) as client:
            session = client.attach()
            with pytest.raises(SessionError, match="no breakpoints"):
                session.shard_sweep(shards=2, cycles=20)
            session.add_breakpoint("helpers.py", line)
            report = session.shard_sweep(shards=2, cycles=20)
            assert report["ok"] is True
            assert report["shards"] == 2
            assert "2 shard(s)" in report["summary"]


class TestObservability:
    def test_hub_metrics(self):
        design, hub, host, port = _serve(obs="metrics")
        with hub, HubClient(host, port) as client:
            session = client.attach(seed=1)
            session.reset(1)
            stop = session.run(25)
            assert stop.reason == "done"
            session.detach()
            m = hub.obs.metrics
            assert m.counter("hub_attaches_total").value == 1
            assert m.gauge("hub_sessions_active").value == 0
            assert m.histogram("hub_attach_seconds").count == 1
            assert m.counter("hub_requests_total").value >= 4
            assert m.counter("hub_session_cycles_total").value >= 25
