"""Per-layer counters read from the program's own statistics."""

from __future__ import annotations

import statistics


def design_shape(designs, tables) -> dict:
    """Mean Low-form statement count and symbol-table row count."""
    from repro.ir.stmt import walk_stmts

    stmts = [
        sum(1 for m in d.low.modules.values() for _s in walk_stmts(m.body))
        for d in designs
    ]
    rows = []
    for table in tables:
        conn = table.conn
        names = [
            r[0] for r in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        ]
        rows.append(sum(
            conn.execute(f'SELECT COUNT(*) FROM "{n}"').fetchone()[0] for n in names
        ))
    return {
        "ir.low_stmts": statistics.mean(stmts) if stmts else 0.0,
        "symtable.rows": statistics.mean(rows) if rows else 0.0,
    }


def engine_counters(sim_stats) -> dict:
    """Sum ``Simulator.stats()`` over ``(design_key, stats)`` pairs.

    Tick and settle counts belong to each simulator; the cone-cache
    counters belong to the compiled design, which simulators share, so
    they are taken once per design (their last, largest reading).
    """
    out = {"sim.ticks": 0, "sim.settle_full": 0, "sim.settle_tick": 0,
           "sim.settle_seeds": 0}
    cones: dict = {}
    for key, s in sim_stats:
        out["sim.ticks"] += s.get("ticks", 0)
        out["sim.settle_full"] += s.get("settle_full", 0)
        out["sim.settle_tick"] += s.get("settle_tick", 0)
        out["sim.settle_seeds"] += s.get("settle_seeds", 0)
        hits, misses = s.get("cone_hits", 0), s.get("cone_misses", 0)
        old = cones.get(key, (0, 0))
        cones[key] = (max(old[0], hits), max(old[1], misses))
    hits = sum(h for h, _m in cones.values())
    lookups = sum(h + m for h, m in cones.values())
    out["sim.cone_hit_ratio"] = hits / lookups if lookups else 0.0
    return out
