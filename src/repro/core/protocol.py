"""The hgdb debugging protocol (paper Sec. 3.5).

Debugger tools communicate with the runtime over an RPC protocol "similar
to gdb remote protocol".  Ours is the repo's one JSON-lines wire
(:mod:`repro.wire`; the original uses WebSockets — the protocol *content*
is what matters).  A request names a command and its args::

    -> {"id": 1, "method": "add_breakpoint",
        "params": {"filename": "fpu.py", "line": 42, "condition": "io.a > 3"}}
    <- {"id": 1, "result": {"breakpoints": [...]}}
    <- {"id": 2, "error": "'continue' only valid while stopped"}

Events are unsolicited: ``welcome`` on connect, then ``stopped`` (the hit
group) and ``resumed`` around every stop::

    <- {"event": "stopped", "payload": {"time": 12, "filename": ..., "frames": [...]}}

Control commands (``continue``/``step``/``reverse_step``/
``reverse_continue``/``detach``) are only legal while stopped at a
breakpoint; query commands (``evaluate``, ``info``, breakpoint management)
are legal at any time.
"""

from __future__ import annotations

import queue
import threading

from .. import wire
from .runtime import (
    Command,
    CommandKind,
    DebuggerError,
    HitGroup,
    Runtime,
)

_CONTROL = {
    "continue": CommandKind.CONTINUE,
    "step": CommandKind.STEP,
    "reverse_step": CommandKind.REVERSE_STEP,
    "reverse_continue": CommandKind.REVERSE_CONTINUE,
    "detach": CommandKind.DETACH,
}


def hit_to_payload(hit: HitGroup) -> dict:
    return {
        "time": hit.time,
        "filename": hit.filename,
        "line": hit.line,
        "column": hit.column,
        "frames": [f.to_dict() for f in hit.frames],
    }


class DebugServer(wire.Server):
    """Serves debugger clients over TCP; bridges to a :class:`Runtime`.

    The embedding application still owns the simulation loop; when a
    breakpoint hits, the runtime blocks inside the clock callback while this
    server relays the stop event and waits for the client's next control
    command — the same control flow as a blocking VPI callback.
    """

    def __init__(self, runtime: Runtime, host: str = "127.0.0.1", port: int = 0):
        super().__init__(self._dispatch, host, port, name="debug")
        self.runtime = runtime
        runtime.on_hit = self._on_hit
        self._cmd_queue: queue.Queue[Command] = queue.Queue()
        self._paused = threading.Event()

    def stop(self) -> None:
        # Releases the runtime if it is parked at a hit, or detaches it at
        # its next one: after stop no client is left to resume it.
        self._cmd_queue.put(Command(CommandKind.DETACH))
        super().stop()

    @property
    def paused(self) -> bool:
        return self._paused.is_set()

    def on_connect(self, conn: wire.Connection) -> None:
        conn.push(
            "welcome",
            {
                "top": self.runtime.symtable.top_name(),
                "files": self.runtime.symtable.filenames(),
                "can_set_time": self.runtime.sim.can_set_time,
                "is_replay": self.runtime.sim.is_replay,
            },
        )

    # -- runtime side ----------------------------------------------------------

    def _on_hit(self, hit: HitGroup) -> Command:
        # Order matters: a fast client may send its control command the
        # instant it sees the stopped event, so `paused` must be set first.
        self._paused.set()
        self.broadcast("stopped", hit_to_payload(hit))
        try:
            cmd = self._cmd_queue.get()
        finally:
            self._paused.clear()
        self.broadcast("resumed", {})
        return cmd

    # -- request handling -----------------------------------------------------------

    def _dispatch(self, _conn, command: str, args: dict | None):
        rt = self.runtime
        args = args or {}
        if command in _CONTROL:
            if not self._paused.is_set():
                raise DebuggerError(f"{command!r} only valid while stopped")
            self._cmd_queue.put(Command(_CONTROL[command]))
            return {"queued": True}
        if command == "pause":
            rt.request_pause()
            return {"requested": True}
        if command == "add_breakpoint":
            bps = rt.add_breakpoint(
                args["filename"],
                int(args["line"]),
                args.get("column"),
                args.get("condition"),
            )
            return {
                "breakpoints": [
                    {
                        "id": bp.rec.id,
                        "instance": bp.rec.instance_name,
                        "filename": bp.rec.filename,
                        "line": bp.rec.line,
                        "enable": bp.rec.enable_src or bp.rec.enable,
                    }
                    for bp in bps
                ]
            }
        if command == "remove_breakpoint":
            return {"removed": rt.remove_breakpoint(int(args["id"]))}
        if command == "clear_breakpoints":
            rt.clear_breakpoints()
            return {}
        if command == "list_breakpoints":
            return {
                "breakpoints": [
                    {
                        "id": bp.rec.id,
                        "filename": bp.rec.filename,
                        "line": bp.rec.line,
                        "instance": bp.rec.instance_name,
                        "condition": bp.condition_src,
                    }
                    for bp in rt.list_breakpoints()
                ]
            }
        if command == "evaluate":
            bp = None
            if args.get("breakpoint_id") is not None:
                bp = rt.symtable.breakpoint(int(args["breakpoint_id"]))
            return {"value": rt.evaluate(args["expr"], bp)}
        if command == "set_value":
            rt.sim.set_value(args["path"], int(args["value"]))
            return {}
        if command == "info":
            what = args.get("what", "time")
            if what == "time":
                return {"time": rt.sim.get_time()}
            if what == "files":
                return {"files": rt.symtable.filenames()}
            if what == "lines":
                return {"lines": rt.symtable.breakpoint_lines(args["filename"])}
            if what == "warnings":
                return {"warnings": rt.warnings}
            raise DebuggerError(f"unknown info {what!r}")
        raise DebuggerError(f"unknown command {command!r}")


class DebugClient:
    """Client side of the debugging protocol.

    Request methods are synchronous; events that arrive meanwhile are
    queued, and ``wait_event()`` blocks until the next one of a kind.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._wire = wire.Client(host, port, timeout)
        # The server greets immediately.
        self.welcome: dict = self.wait_event("welcome", timeout=timeout)["payload"]

    def request(self, command: str, **args):
        try:
            return self._wire.call(command, args)
        except wire.RemoteError as exc:
            raise DebuggerError(str(exc)) from None

    def wait_event(self, event: str, timeout: float = 30.0) -> dict:
        """Block until a specific event arrives (other events are dropped)."""
        return self._wire.wait_event(event, timeout)

    # -- sugar ------------------------------------------------------------

    def add_breakpoint(self, filename: str, line: int, condition: str | None = None):
        return self.request(
            "add_breakpoint", filename=filename, line=line, condition=condition
        )

    def cont(self):
        return self.request("continue")

    def step(self):
        return self.request("step")

    def reverse_step(self):
        return self.request("reverse_step")

    def reverse_continue(self):
        return self.request("reverse_continue")

    def evaluate(self, expr: str, breakpoint_id: int | None = None) -> int:
        return self.request("evaluate", expr=expr, breakpoint_id=breakpoint_id)["value"]

    def close(self) -> None:
        self._wire.close()
