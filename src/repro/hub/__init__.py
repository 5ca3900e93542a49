"""repro.hub: persistent multi-session debug server.

Elaborate, lint, and compile a design **once**, then multiplex many
concurrent debug sessions over the hot
:class:`~repro.sim.compiler.CompiledDesign` — the paper's
decoupled-debugger architecture at "debug service" scale instead of one
process per engineer.  See ``docs/hub.md``.

The light half of the package — the :class:`SessionHandle` protocol,
:class:`SessionOptions`, :class:`StopInfo`, :class:`LocalSession` — lives
in :mod:`repro.hub.api` and imports eagerly (the simulator itself depends
on it for options resolution).  The server/client halves pull in the
socket transport (:mod:`repro.wire`) and load lazily.
"""

from __future__ import annotations

from .api import (
    LocalSession,
    SessionError,
    SessionHandle,
    SessionOptions,
    StopInfo,
    resolve_session_options,
)

__all__ = [
    "LocalSession",
    "SessionError",
    "SessionHandle",
    "SessionOptions",
    "StopInfo",
    "resolve_session_options",
    "DebugHub",
    "DebugSession",
    "HubClient",
    "HubSession",
]

_LAZY = {
    "DebugHub": "server",
    "DebugSession": "session",
    "HubClient": "client",
    "HubSession": "client",
}


def __getattr__(name: str):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{mod}", __name__), name)
