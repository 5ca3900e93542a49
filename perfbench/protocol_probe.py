"""One paper Sec. 3.5 ``DebugServer`` / ``DebugClient`` pair, measured.

The hub is the wire the debug_session workload drives; this probe
measures the older debug protocol beside it as a baseline: the mean
round trip of a trivial ``info`` request, and how long
``DebugClient.close()`` takes, as it is (no workaround).
"""

from __future__ import annotations

import time

ROUND_TRIPS = 200


def probe(design, options) -> dict:
    from repro.core import Runtime
    from repro.core.protocol import DebugClient, DebugServer
    from repro.sim import Simulator
    from repro.symtable import SQLiteSymbolTable, write_symbol_table

    sim = Simulator(design.low, options=options)
    table = SQLiteSymbolTable(write_symbol_table(design))
    server = DebugServer(Runtime(sim, table))
    server.start()
    try:
        client = DebugClient(*server.address)
        t0 = time.perf_counter()
        for _ in range(ROUND_TRIPS):
            client.request("info", what="time")
        rtt = (time.perf_counter() - t0) / ROUND_TRIPS
        t0 = time.perf_counter()
        client.close()
        close = time.perf_counter() - t0
    finally:
        server.stop()
        table.conn.close()
    return {"protocol.rtt_ms": rtt * 1e3, "protocol.close_ms": close * 1e3}
