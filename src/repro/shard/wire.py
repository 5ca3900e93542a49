"""The shard event wire protocol: JSON lines, one event per line.

Workers stream events to the coordinator over a pipe in the repo's one
JSON-lines framing (:mod:`repro.wire`): every message is one JSON object
terminated by ``\\n``, and symbol-table record types tunnel through the
same ``__type__`` tagging as the symbol table RPC and the debug hub, so a
tool that can read one wire can read the others.

Event shapes (all carry ``v`` — the protocol version — and ``shard``)::

    {"event": "hit",       "shard": N, "record": {...}}       one hit record
    {"event": "progress",  "shard": N, "done": C, "total": T, "hits": H}
    {"event": "heartbeat", "shard": N, "done": C}             liveness tick
    {"event": "warning",   "shard": N, "message": "..."}
    {"event": "done",      "shard": N, "result": {...}}       ShardResult
    {"event": "error",     "shard": N, "message": "...",
                           "transient": bool}                 worker failed
    {"event": "stats",     "shard": N, "obs": {...}}          obs snapshot

``error.transient`` distinguishes infrastructure trouble the worker
observed itself (its symbol-table RPC client gave up: retry-worthy,
failure class ``rpc``) from a deterministic spec failure (class
``error``, never retried).  Absent means false, so the protocol version
is unchanged.

``heartbeat`` is the supervision layer's liveness signal: workers emit
it from the run-loop progress hook at a finer cadence than ``progress``
(see ``worker.py``), and the coordinator treats *any* event as proof of
life — a worker silent past the deadline policy's heartbeat timeout is
declared hung and terminated.  Older consumers can ignore the event;
the protocol version is unchanged.

When the spec asked for timeline streaming (``timeline_cycles > 0``) the
``done`` result additionally carries ``result["timeline"]`` — the
worker's compressed state history (``Timeline.to_wire``: keyframes +
run-length-encoded delta runs, plain JSON ints) — which the aggregator
feeds to :func:`repro.sim.timeline.first_timeline_divergence` for
stateful divergence localization.  Absent/None for older producers, so
the protocol version is unchanged.

A *world group* attempt (``WorldGroupSpec``: M scenarios packed into one
worker, vectorized many-worlds when eligible) settles with a single
``done`` whose result is ``{"shard_id": N, "group": [member result
wires...]}`` — see :func:`group_done_event`.

``stats`` carries a worker's final ``repro.obs`` dump (metrics snapshot
plus trace spans, ``Obs.to_wire``) just before ``done``; the same dump
also rides ``done.result["obs"]`` so the aggregated ``ShardReport`` works
for inline runs that never touch the wire.  Workers only emit it when an
obs mode is armed, and older consumers can ignore the event — the
protocol version is unchanged.
"""

from __future__ import annotations

from .. import wire
from .spec import ShardResult

PROTOCOL_VERSION = 1

_EVENTS = frozenset(
    {"hit", "progress", "heartbeat", "warning", "done", "error", "stats"}
)


class WireError(Exception):
    """Raised on an undecodable or malformed shard event."""


def encode_line(obj: dict) -> bytes:
    """One event -> one JSON line (record types tagged for decode)."""
    return wire.dump_line(obj)


def decode_line(data: bytes | str) -> dict:
    """One JSON line -> one validated event dict."""
    try:
        obj = wire.load_line(data)
    except ValueError as exc:
        raise WireError(f"undecodable shard event: {exc}") from exc
    if obj.get("event") not in _EVENTS:
        raise WireError(f"malformed shard event: {obj!r}")
    return obj


def _event(kind: str, shard_id: int, **fields) -> dict:
    ev = {"event": kind, "v": PROTOCOL_VERSION, "shard": shard_id}
    ev.update(fields)
    return ev


def hit_event(shard_id: int, record: dict) -> dict:
    return _event("hit", shard_id, record=record)


def progress_event(shard_id: int, done: int, total: int, hits: int) -> dict:
    return _event("progress", shard_id, done=done, total=total, hits=hits)


def heartbeat_event(shard_id: int, done: int) -> dict:
    return _event("heartbeat", shard_id, done=done)


def warning_event(shard_id: int, message: str) -> dict:
    return _event("warning", shard_id, message=message)


def done_event(result: ShardResult) -> dict:
    return _event("done", result.shard_id, result=result.to_wire())


def group_done_event(shard_id: int, results: list[ShardResult]) -> dict:
    """A world group's single completion event.

    A group occupies one worker attempt, so (like any attempt) it settles
    with exactly one ``done`` line — its ``result`` carries a ``group``
    list of the member ``ShardResult`` wires instead of one flat result.
    Older consumers treat it as an unknown result shape on a known event;
    the protocol version is unchanged.
    """
    return _event(
        "done",
        shard_id,
        result={
            "shard_id": shard_id,
            "group": [r.to_wire() for r in results],
        },
    )


def error_event(shard_id: int, message: str, transient: bool = False) -> dict:
    return _event("error", shard_id, message=message, transient=transient)


def stats_event(shard_id: int, obs_wire: dict) -> dict:
    return _event("stats", shard_id, obs=obs_wire)
