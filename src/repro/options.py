"""The session configuration record.

:class:`SessionOptions` is the one record every front end builds to
configure a debug session: ``Simulator``, ``ManyWorldsSimulator``,
``ShardSession`` and ``DebugHub`` all take it as ``options=`` and take no
per-knob keywords.  Each knob is documented here, on its field, and
nowhere else.

This module imports nothing from ``repro``, so any layer — the simulator
included — can depend on it without pulling in the layers above.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class SessionOptions:
    """How a session stores, checks, records and reports its simulation.

    A field left at ``None`` defers to its environment variable, then to
    the built-in default.  A constructor that owns some knob itself
    ignores the field (``ManyWorldsSimulator`` ignores ``store`` and
    ``fast``; ``ShardSession`` uses ``fast`` and ``obs`` and takes the
    rest per shard from the ``ShardSpec``).
    """

    #: Value-table backend: ``"list"``, ``"array"``, ``"numpy"``, or
    #: ``"auto"`` (numpy when importable, else typed 64-bit lanes).
    #: ``None`` defers to ``$REPRO_VALUE_STORE``, then ``"auto"``.  See
    #: ``repro.sim.store``.
    store: str | None = None
    #: Observability depth (``repro.obs``): an :class:`~repro.obs.Obs` to
    #: share (how a shard worker's simulator reports into the shard's
    #: registry), a mode string (``"off"``/``"metrics"``/``"trace"``), or
    #: ``None`` to defer to ``repro.obs.configure`` then ``$REPRO_OBS``
    #: (default off).  The hot path is the same in every mode; ``stats()``
    #: works in every mode, off included.
    obs: object = None
    #: Compile-time lint gate (``repro.lint``).  ``None`` defers to
    #: ``$REPRO_LINT`` (default off); ``"warn"`` reports findings as a
    #: ``LintWarning``; ``"error"`` (or ``True``) also raises ``LintError``
    #: on error-severity findings (e.g. a combinational cycle) before
    #: compiling.  The gate runs only when the constructor compiles the
    #: circuit itself: a shared ``compiled`` design is assumed vetted.
    strict: object = None
    #: The dirty-set incremental settle path.  ``False`` re-runs the full
    #: ``comb`` function on every stimulus change: the reference semantics
    #: the fast path is tested against.
    fast: bool = True
    #: Retained per-cycle history entries; 0 (with no ``snapshot_bytes``)
    #: disables ``set_time``.
    snapshots: int = 0
    #: Retain history up to about this many bytes instead of (or as well
    #: as) an entry count; with the ``rle`` codec this keeps long rewind
    #: windows cheap.
    snapshot_bytes: int | None = None
    #: Timeline delta codec: ``"raw"`` (store-native, the default),
    #: ``"rle"`` (run-length encoded, about ten times smaller on
    #: register-sparse designs), or ``None`` to defer to
    #: ``$REPRO_TIMELINE_CODEC``.
    snapshot_codec: str | None = None
    #: Insert a full timeline keyframe every K retained cycles (bounds
    #: rewind latency to K delta replays); 0 keeps only the folded head
    #: keyframe.
    keyframe_every: int = 0
