"""The debug hub: compile once, debug many (ROADMAP's debug-service shape).

:class:`DebugHub` elaborates, lints, and compiles one design and then
multiplexes any number of concurrent debug sessions over the hot
:class:`~repro.sim.compiler.CompiledDesign`.  The expensive work — the
lint gate, code generation, cone analysis, symbol table extraction —
happens exactly once at hub startup; attaching a session only allocates a
fresh value store and runtime, which is why the Nth engineer's
time-to-first-breakpoint is dominated by their breakpoint, not by the
compiler (``benchmarks/bench_hub.py``).

Transport: the repo's one JSON-lines wire (:mod:`repro.wire`), with
symbol-table records ``__type__``-tagged as on the shard event stream and
the symbol table RPC — one request object per line, one reply per line,
matched by ``id``::

    -> {"id": 1, "method": "attach", "params": {"seed": 7}}
    <- {"id": 1, "result": {"sid": 1, "kind": "live", ...}}
    -> {"id": 2, "method": "s.run", "params": {"cycles": 500}}
    <- {"id": 2, "result": {"reason": "breakpoint", "time": 12, ...}}
    -> {"id": 3, "method": "s.cont", "params": {}}
    <- {"id": 3, "error": "cannot resume: session is idle"}

``s.*`` methods address the session bound to the connection (one
``attach`` per connection; re-attach to a surviving session by ``sid``).
Hub-level methods: ``hello``, ``attach``, ``detach``, ``list_sessions``.

Each connection has its own server thread, which runs that connection's
session operations itself, so a session blocked at a breakpoint or in a
long ``run`` never stalls the other connections.  Sessions left idle past
``idle_ttl`` are evicted by a background sweep (their simulator state is
dropped; the design stays hot).
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
import threading
import time

from .. import wire
from ..obs import make_obs
from ..options import SessionOptions
from ..sim.compiler import compile_design
from ..symtable.writer import write_symbol_table
from .session import DebugSession

PROTOCOL_VERSION = 1


class HubError(Exception):
    """Raised on hub-level failures (bad attach, unknown method...)."""


class DebugHub:
    """Serve one compiled design to many concurrent debug sessions.

    Args:
        design: a compiled :class:`repro.Design` (``repro.compile(...)``) —
            the hub needs its debug info to write the symbol table.
        options: the configuration of every session this hub creates; see
            :class:`repro.options.SessionOptions`.  ``options.strict`` also
            configures the hub's compile-time lint gate, which — unlike a
            standalone ``Simulator`` — defaults to ``"error"``: a design
            served to many engineers should not compile with known-broken
            constructs.
        host/port: bind address (port 0 picks a free port).
        idle_ttl: evict sessions idle longer than this many seconds
            (None disables eviction).
        obs: hub-side observability (``repro.obs``): sessions-active
            gauge, attach count/latency, per-session cycle counter.
    """

    def __init__(
        self,
        design,
        host: str = "127.0.0.1",
        port: int = 0,
        idle_ttl: float | None = None,
        obs=None,
        options: SessionOptions | None = None,
    ):
        if options is None:
            options = SessionOptions()
        low = getattr(design, "low", None)
        if low is None:
            raise HubError(
                "DebugHub needs a compiled repro.Design (repro.compile(...))"
            )
        self.design_name = design.name
        self.circuit = low
        self.host = host
        self.port = port
        self.idle_ttl = idle_ttl
        self.obs = make_obs(obs, proc="hub")
        # Serving a design to many engineers: lint it like a release
        # artifact.  strict=None (the SessionOptions default) hardens to
        # "error" here; an explicit strict (e.g. "warn", "off") wins.
        from ..lint.engine import GATE_OFF, gate_circuit, resolve_gate

        strict = options.strict if options.strict is not None else "error"
        mode = resolve_gate(strict)
        if mode != GATE_OFF:
            gate_circuit(self.circuit, mode, form="low",
                         design=self.design_name)
        # Sessions must not re-gate what the hub just vetted (and their
        # simulators reuse `compiled` anyway, which skips the gate).
        self.options = dataclasses.replace(options, strict="off")
        with self.obs.span("hub.compile", design=self.design_name):
            self.compiled = compile_design(self.circuit, None)
            # One on-disk symbol table; every session opens its own
            # sqlite connection to it (connections don't cross threads).
            fd, self._symtable_path = tempfile.mkstemp(
                prefix=f"hgdb-hub-{self.design_name}-", suffix=".db"
            )
            os.close(fd)
            write_symbol_table(design, self._symtable_path).close()

        self._sessions: dict[int, DebugSession] = {}
        self._next_sid = 1
        self._lock = threading.Lock()
        self._server: wire.Server | None = None
        self._evictor: threading.Thread | None = None
        self._closed = threading.Event()
        if self.obs.metrics is not None:
            self._m_active = self.obs.metrics.gauge(
                "hub_sessions_active", "debug sessions currently attached"
            )
            self._m_attaches = self.obs.metrics.counter(
                "hub_attaches_total", "sessions attached over the hub lifetime"
            )
            self._m_attach_s = self.obs.metrics.histogram(
                "hub_attach_seconds", "session construction latency"
            )
            self._m_requests = self.obs.metrics.counter(
                "hub_requests_total", "wire requests served"
            )
        else:
            self._m_active = self._m_attaches = None
            self._m_attach_s = self._m_requests = None

    # -- session management ------------------------------------------------

    def attach(self, seed: int | None = None, name: str | None = None,
               snapshots: int | None = None) -> DebugSession:
        """Create (and register) one new session over the hot design."""
        t0 = time.monotonic()
        options = self.options
        if snapshots is not None:
            options = dataclasses.replace(options, snapshots=int(snapshots))
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
        session = DebugSession(
            sid,
            self.circuit,
            self.compiled,
            self._symtable_path,
            options,
            seed=seed,
            name=name,
            obs=self.obs,
        )
        with self._lock:
            self._sessions[sid] = session
        if self._m_attaches is not None:
            self._m_attaches.inc()
            self._m_attach_s.observe(time.monotonic() - t0)
            self._m_active.set(len(self._sessions))
        return session

    def get_session(self, sid: int) -> DebugSession:
        with self._lock:
            session = self._sessions.get(sid)
        if session is None:
            raise HubError(f"no session {sid}")
        return session

    def detach(self, sid: int) -> bool:
        """Close and drop one session.  Idempotent."""
        with self._lock:
            session = self._sessions.pop(sid, None)
        if session is None:
            return False
        session.close()
        if self._m_active is not None:
            self._m_active.set(len(self._sessions))
        return True

    def list_sessions(self) -> list[dict]:
        with self._lock:
            sessions = list(self._sessions.values())
        return [
            {
                "sid": s.sid,
                "name": s.name,
                "state": s.state,
                "seed": s.seed,
                "time": s.session.get_time(),
                "idle_for": round(s.idle_for, 3),
                "cycles_run": s.cycles_run,
            }
            for s in sessions
        ]

    @property
    def session_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def evict_idle(self, ttl: float | None = None) -> list[int]:
        """Drop every session idle longer than ``ttl`` (defaults to the
        hub's ``idle_ttl``).  Running sessions are never evicted — a long
        ``run`` keeps a session busy, not idle.  Returns evicted sids."""
        ttl = self.idle_ttl if ttl is None else ttl
        if ttl is None:
            return []
        with self._lock:
            stale = [
                s.sid
                for s in self._sessions.values()
                if s.idle_for > ttl and s.state != "running"
            ]
        return [sid for sid in stale if self.detach(sid)]

    # -- wire protocol -----------------------------------------------------

    def _hello(self) -> dict:
        return {
            "protocol": PROTOCOL_VERSION,
            "design": self.design_name,
            "top": self.compiled.hierarchy.path,
            "sessions": self.session_count,
        }

    def _handle_request(self, conn: wire.Connection, method: str, params):
        """Serve one request on the connection's thread; the connection's
        ``context`` holds its bound session."""
        if self._m_requests is not None:
            self._m_requests.inc()
        if self._closed.is_set():
            raise HubError("hub is closed")
        params = params or {}
        if method == "hello":
            return self._hello()
        if method == "attach":
            sid = params.pop("sid", None)
            if sid is not None:
                session = self.get_session(int(sid))
            else:
                session = self.attach(**params)
            conn.context = session
            out = session.invoke("describe", {})
            out.update(sid=session.sid, name=session.name)
            return out
        if method == "detach":
            session, conn.context = conn.context, None
            if session is None:
                return {"detached": False}
            return {"detached": self.detach(session.sid)}
        if method == "list_sessions":
            return self.list_sessions()
        if isinstance(method, str) and method.startswith("s."):
            session = conn.context
            if session is None:
                raise HubError("no session bound; send attach first")
            return session.invoke(method[2:], params)
        raise HubError(f"unknown hub method {method!r}")

    def _evict_loop(self) -> None:
        while not self._closed.wait(max(0.05, self.idle_ttl / 4)):
            self.evict_idle()

    def serve_background(self) -> tuple[str, int]:
        """Serve on background threads (one per connection); returns the
        bound address.  This is how the CLI, tests, benchmarks, and
        in-process tools host a hub next to their own code."""
        self._server = wire.Server(
            self._handle_request, self.host, self.port, name="hub"
        )
        self.port = self._server.address[1]
        self._server.start()
        if self.idle_ttl is not None:
            self._evictor = threading.Thread(
                target=self._evict_loop, daemon=True, name="repro-hub-evict"
            )
            self._evictor.start()
        return (self.host, self.port)

    def close(self) -> None:
        """Stop serving, close every session, drop the symbol table."""
        if self._closed.is_set():
            return
        self._closed.set()
        if self._evictor is not None:
            self._evictor.join()
        # Detaching aborts every run in flight, which frees the
        # connection threads blocked in them for the server to join.
        for sid in list(self._sessions):
            self.detach(sid)
        if self._server is not None:
            self._server.stop()
        try:
            os.unlink(self._symtable_path)
        except OSError:
            pass

    def __enter__(self) -> DebugHub:
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
