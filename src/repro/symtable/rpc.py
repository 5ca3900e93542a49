"""RPC access to a symbol table (paper Fig. 1: "Native | RPC").

HGFs that maintain their own symbol tables serve them over RPC instead of
handing hgdb a SQLite file; "since the simulator is paused whenever hgdb
interacts with the symbol table ... the symbol table performance is less
important compared to the simulator interface" (Sec. 3.4).

The transport is the repo's one JSON-lines wire (:mod:`repro.wire`): a
request's ``method`` is a :class:`SymbolTableInterface` method name and
its ``params`` the positional arguments; records come back tagged with
``__type__``.  (The original uses WebSockets; the framing is irrelevant
to the protocol content — see DESIGN.md substitutions.)
"""

from __future__ import annotations

import threading
import time

from .. import wire
from .query import SymbolTableInterface

_METHODS = frozenset(
    {
        "breakpoints_at",
        "scope_variables",
        "resolve_scoped_var",
        "resolve_instance_var",
        "instances",
        "generator_variables",
        "all_breakpoints",
        "breakpoint",
        "filenames",
        "breakpoint_lines",
        "attribute",
    }
)


class SymbolTableServer(wire.Server):
    """Serve a symbol table over TCP JSON-lines.

    ``faults`` (settable any time, e.g. by a chaos-testing shard
    coordinator) is an optional :class:`repro.faults.RPCFaultInjector`:
    when armed, a response may be *delayed* (past a client's per-request
    timeout) or *dropped* (connection closed unanswered).  Every query
    is read-only, so a client that times out, reconnects, and re-sends
    the same request gets the same answer — which is exactly what the
    hardened :class:`RPCSymbolTable` does.
    """

    def __init__(self, table: SymbolTableInterface, host: str = "127.0.0.1",
                 port: int = 0, faults=None):
        super().__init__(self._dispatch, host, port, name="symtable")
        self.table = table
        self.faults = faults

    def _dispatch(self, _conn, method, params):
        if method not in _METHODS:
            raise ValueError(f"unknown method {method!r}")
        return getattr(self.table, method)(*(params or ()))

    def reply(self, conn: wire.Connection, data: bytes) -> None:
        injector = self.faults
        if injector is not None:
            fault = injector.decide()
            if fault is not None:
                kind, delay_s = fault
                if kind == "drop":
                    # Close the connection unanswered; the request
                    # already executed (read-only, so a client-side
                    # replay is safe).
                    conn.close()
                    return
                self.closing.wait(delay_s)
        conn.write(data)


class RPCSymbolTable(SymbolTableInterface):
    """Client-side symbol table speaking the JSON-lines protocol.

    Hardened for flaky transports: every request is bounded by a
    per-request socket ``timeout``, and a transport failure — timed-out
    or dropped response, closed connection, undecodable line — triggers
    a bounded reconnect-with-backoff and a replay of the request (every
    method is a read-only query, so replays are safe).  Protocol-level
    failures (server-reported errors, response id mismatches) are never
    retried: they are deterministic, not transient.

    ``obs`` (a ``repro.obs.Obs``, or None) arms request accounting:
    request count and latency, reconnect attempts, and replayed
    requests.  Shard workers pass their per-shard ``Obs`` so RPC health
    is attributable per shard in the aggregated report.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0,
                 max_reconnects: int = 3, reconnect_backoff_s: float = 0.05,
                 obs=None):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._max_reconnects = max_reconnects
        self._reconnect_backoff_s = reconnect_backoff_s
        self._lock = threading.Lock()
        self._closed = False
        # Metric instruments are resolved once here; _call guards on a
        # single attribute so the unobserved path stays flat.
        self._m_requests = self._m_reconnects = self._m_replays = None
        self._h_latency = None
        if obs is not None and obs.metrics is not None:
            m = obs.metrics
            self._m_requests = m.counter(
                "rpc_requests_total", "Symbol-table RPC requests completed"
            )
            self._m_reconnects = m.counter(
                "rpc_reconnects_total", "RPC reconnect attempts after transport failures"
            )
            self._m_replays = m.counter(
                "rpc_replays_total", "Requests replayed on a fresh connection"
            )
            self._h_latency = m.histogram(
                "rpc_request_seconds",
                "Symbol-table RPC request latency (incl. reconnect/replay)",
                bounds=(0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
            )
        # The wire client's timeout bounds every send and read: the
        # per-request timeout.
        self._conn = wire.Client(host, port, timeout)

    def close(self) -> None:
        self._closed = True
        self._conn.close()

    def __enter__(self) -> RPCSymbolTable:
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _call(self, method: str, *params):
        with self._lock:
            if self._closed:
                raise ConnectionError("symbol table RPC client is closed")
            t0 = time.monotonic() if self._h_latency is not None else 0.0
            last_exc: Exception | None = None
            for attempt in range(self._max_reconnects + 1):
                if attempt:
                    if self._m_reconnects is not None:
                        self._m_reconnects.inc()
                    self._conn.close()
                    time.sleep(
                        self._reconnect_backoff_s * 2 ** (attempt - 1)
                    )
                    try:
                        self._conn = wire.Client(
                            self._host, self._port, self._timeout
                        )
                    except OSError as exc:
                        last_exc = exc
                        continue
                    if self._m_replays is not None:
                        self._m_replays.inc()
                try:
                    result = self._conn.call(method, list(params))
                except (wire.RemoteError, wire.ProtocolError) as exc:
                    # Deterministic, so never retried: an error reply, or
                    # a stale or misrouted reply (pairing that with this
                    # request would corrupt every later call).
                    raise RuntimeError(f"symbol table RPC error: {exc}") from None
                except (ValueError, OSError) as exc:
                    # Transport trouble (timeouts and closed connections
                    # are OSErrors; an undecodable line a ValueError):
                    # reconnect and replay.  The dead connection cannot
                    # deliver a stale response later, so replays never
                    # mispair.
                    last_exc = exc
                    continue
                if self._h_latency is not None:
                    self._h_latency.observe(time.monotonic() - t0)
                    self._m_requests.inc()
                return result
            raise ConnectionError(
                f"symbol table RPC {method!r} failed after "
                f"{self._max_reconnects} reconnect(s): {last_exc}"
            )

    # -- interface methods, all delegated ---------------------------------

    def breakpoints_at(self, filename, line, column=None):
        return self._call("breakpoints_at", filename, line, column)

    def scope_variables(self, breakpoint_id):
        return self._call("scope_variables", breakpoint_id)

    def resolve_scoped_var(self, breakpoint_id, name):
        return self._call("resolve_scoped_var", breakpoint_id, name)

    def resolve_instance_var(self, instance_id, name):
        return self._call("resolve_instance_var", instance_id, name)

    def instances(self):
        return self._call("instances")

    def generator_variables(self, instance_id):
        return self._call("generator_variables", instance_id)

    def all_breakpoints(self):
        return self._call("all_breakpoints")

    def breakpoint(self, breakpoint_id):
        return self._call("breakpoint", breakpoint_id)

    def filenames(self):
        return self._call("filenames")

    def breakpoint_lines(self, filename):
        return self._call("breakpoint_lines", filename)

    def attribute(self, name):
        return self._call("attribute", name)
