"""The one JSON-lines wire every repro transport speaks.

The Sec. 3.5 debug protocol, the symbol table RPC, the debug hub and the
shard event stream all send one JSON object per ``\\n``-terminated line,
with symbol-table records ``__type__``-tagged.  Requests are
``{"id", "method", "params"}``; replies ``{"id", "result"}`` or
``{"id", "error"}``; pushes ``{"event", "payload"}``.  A request line
that is not a JSON object gets ``{"id": null, "error": ...}`` and the
connection stays open.  The "Wire" section of ``docs/hub.md`` has the
threading, timeout and close rules.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time
from collections import deque
from typing import Any

THREAD_PREFIX = "repro.wire"

#: Upper bound on how long ``Server.stop`` waits for its threads.
_JOIN_S = 5.0


class RemoteError(Exception):
    """The peer answered a request with an error reply."""


class ProtocolError(ConnectionError):
    """The peer broke the envelope: the connection is out of step."""


# -- codec -----------------------------------------------------------------


def encode(obj):
    """Tag every symbol-table record inside ``obj`` for :func:`decode`."""
    if isinstance(obj, dict):
        return {k: encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode(x) for x in obj]
    if isinstance(obj, (BreakpointRec, InstanceRec, VarRec)):
        d = {k: getattr(obj, k) for k in obj.__dataclass_fields__}
        d["__type__"] = type(obj).__name__
        return d
    return obj


def decode(obj):
    """Inverse of :func:`encode`."""
    if isinstance(obj, dict):
        if "__type__" not in obj:
            return {k: decode(v) for k, v in obj.items()}
        kind = obj.pop("__type__")
        cls = _RECORDS.get(kind)
        if cls is None:
            raise ValueError(f"unknown record type {kind!r}")
        return cls(**obj)
    if isinstance(obj, list):
        return [decode(x) for x in obj]
    return obj


def dump_line(msg: dict) -> bytes:
    """One message -> one encoded JSON line."""
    return json.dumps(encode(msg)).encode() + b"\n"


def load_line(line: bytes | str) -> dict:
    """One JSON line -> one decoded message.

    Raises ValueError unless the line holds a JSON object.
    """
    msg = json.loads(line)
    if not isinstance(msg, dict):
        raise ValueError(f"message must be a JSON object, got {msg!r}")
    return decode(msg)


# -- server ------------------------------------------------------------------


class Connection:
    """One accepted client socket as the server's threads see it."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        #: Per-connection state owned by the dispatcher (the hub binds
        #: the connection's session here).
        self.context: Any = None
        self._lock = threading.Lock()

    def write(self, data: bytes) -> None:
        with self._lock:
            self.sock.sendall(data)

    def push(self, event: str, payload) -> None:
        self.write(dump_line({"event": event, "payload": payload}))

    def close(self) -> None:
        """Shut the socket down; the connection's thread then exits."""
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)


class Server:
    """Threaded JSON-lines TCP server: one thread per connection.

    ``dispatch(conn, method, params)`` serves one request on the
    connection's thread and returns its result; an exception it raises
    becomes the error reply.  Subclasses may override :meth:`on_connect`
    (greet a new connection) and :meth:`reply` (deliver a reply).
    """

    def __init__(self, dispatch, host: str = "127.0.0.1", port: int = 0,
                 name: str = "server"):
        self._dispatch = dispatch
        self._name = f"{THREAD_PREFIX}:{name}"
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()[:2]
        #: Set once :meth:`stop` begins; handlers may wait on it.
        self.closing = threading.Event()
        self._conns: dict[Connection, threading.Thread] = {}
        self._lock = threading.Lock()
        self._acceptor = threading.Thread(
            target=self._accept_loop, name=f"{self._name}:accept", daemon=True
        )

    def start(self) -> tuple[str, int]:
        self._acceptor.start()
        return self.address

    def stop(self) -> None:
        """Stop accepting, shut every connection down, join the threads."""
        with self._lock:
            if self.closing.is_set():
                return
            self.closing.set()
            conns = dict(self._conns)
        # shutdown() wakes the thread blocked in accept(); close() alone
        # would not.
        with contextlib.suppress(OSError):
            self._listener.shutdown(socket.SHUT_RDWR)
        self._listener.close()
        for conn in conns:
            conn.close()
        deadline = time.monotonic() + _JOIN_S
        for thread in (self._acceptor, *conns.values()):
            if thread.ident is not None:
                thread.join(max(0.0, deadline - time.monotonic()))

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    def broadcast(self, event: str, payload) -> None:
        """Push one event to every open connection."""
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            with contextlib.suppress(OSError):
                conn.push(event, payload)

    def on_connect(self, conn: Connection) -> None:
        """Called on the connection's thread before its first request."""

    def reply(self, conn: Connection, data: bytes) -> None:
        """Deliver one encoded reply line."""
        conn.write(data)

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                if self.closing.is_set():
                    return
                continue
            conn = Connection(sock)
            thread = threading.Thread(
                target=self._serve, args=(conn,),
                name=f"{self._name}:conn", daemon=True,
            )
            with self._lock:
                if self.closing.is_set():
                    sock.close()
                    return
                self._conns[conn] = thread
                thread.start()

    def _serve(self, conn: Connection) -> None:
        rfile = conn.sock.makefile("rb")
        try:
            self.on_connect(conn)
            for line in rfile:
                self.reply(conn, self._answer(conn, line))
        except (OSError, ValueError):
            pass  # the peer went away, or stop() shut the socket down
        finally:
            with self._lock:
                self._conns.pop(conn, None)
            rfile.close()
            conn.sock.close()

    def _answer(self, conn: Connection, line: bytes) -> bytes:
        req_id = None
        try:
            req = load_line(line)
            req_id = req.get("id")
            result = self._dispatch(conn, req.get("method"), req.get("params"))
            return dump_line({"id": req_id, "result": result})
        except Exception as exc:  # noqa: BLE001 - every request gets a reply
            return dump_line({"id": req_id, "error": str(exc) or type(exc).__name__})


# -- client ------------------------------------------------------------------


class Client:
    """Blocking JSON-lines client for one connection.

    ``timeout`` bounds every send and read.  One request is in flight at
    a time; events that arrive while a call waits for its reply are
    queued in :attr:`events`.
    """

    def __init__(self, host: str, port: int, timeout: float):
        self._timeout = timeout
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._buf = bytearray()
        self._next_id = 1
        self.events: deque[dict] = deque()

    def call(self, method: str, params):
        """Send one request and return its result.

        Raises :class:`RemoteError` on an error reply,
        :class:`ProtocolError` on a reply to another request, and
        ConnectionError when the peer closes the connection.
        """
        req_id = self._next_id
        self._next_id += 1
        self._sock.sendall(
            dump_line({"id": req_id, "method": method, "params": params})
        )
        while True:
            msg = load_line(self._readline())
            if "event" in msg:
                self.events.append(msg)
                continue
            # Checked by presence, not truthiness: an empty error string
            # is still an error, not a None result.
            if "error" in msg:
                raise RemoteError(msg["error"])
            if msg.get("id") != req_id:
                raise ProtocolError(
                    f"response id mismatch: sent {req_id}, got {msg.get('id')!r}"
                )
            return msg.get("result")

    def wait_event(self, event: str, timeout: float) -> dict:
        """Block until an ``event`` push arrives; other events are dropped.
        Raises TimeoutError after ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(f"no {event!r} event within {timeout}s")
                if self.events:
                    msg = self.events.popleft()
                else:
                    self._sock.settimeout(remaining)
                    msg = load_line(self._readline())
                if msg.get("event") == event:
                    return msg
        finally:
            self._sock.settimeout(self._timeout)

    def _readline(self) -> bytes:
        # Own buffering rather than makefile(): a timed-out read on a
        # socket file poisons the file, and wait_event() times out on
        # purpose.  A partial line stays buffered across a timeout.
        buf = self._buf
        start = 0
        while (end := buf.find(b"\n", start)) < 0:
            start = len(buf)
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed by peer")
            buf += chunk
        line = bytes(buf[: end + 1])
        del buf[: end + 1]
        return line

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        self._sock.close()


# Imported last: repro.symtable's RPC server subclasses Server, so
# importing this module first must define Server before symtable loads.
from .symtable.query import BreakpointRec, InstanceRec, VarRec  # noqa: E402

_RECORDS = {cls.__name__: cls for cls in (BreakpointRec, InstanceRec, VarRec)}
