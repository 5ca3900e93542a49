"""Shared test designs and utilities.

Breakpoint-oriented tests need stable source locations; instead of
hardcoding line numbers we look them up from debug info by sink name via
:func:`line_of`.
"""

from __future__ import annotations

import repro
import repro.hgf as hgf


class Counter(hgf.Module):
    """En-gated counter with an overflow flag."""

    def __init__(self, width: int = 8):
        super().__init__()
        self.width = width
        self.en = self.input("en", 1)
        self.out = self.output("out", width)
        self.wrapped = self.output("wrapped", 1)
        count = self.reg("count", width, init=0)
        with self.when(self.en == 1):
            count <<= count + 1
        self.out <<= count
        self.wrapped <<= count == (1 << width) - 1


class Accumulator(hgf.Module):
    """Conditional accumulator used by runtime/breakpoint tests."""

    def __init__(self, width: int = 16):
        super().__init__()
        self.width = width
        self.en = self.input("en", 1)
        self.d = self.input("d", 8)
        self.total = self.output("total", width)
        acc = self.reg("acc", width, init=0)
        with self.when(self.en == 1):
            acc <<= acc + self.d
        self.total <<= acc


class AluLike(hgf.Module):
    """Small comb block exercising when/elsewhen/otherwise chains."""

    def __init__(self):
        super().__init__()
        self.a = self.input("a", 8)
        self.b = self.input("b", 8)
        self.op = self.input("op", 2)
        self.res = self.output("res", 8)
        out = self.wire("out", 8)
        with self.when(self.op == 0):
            out <<= (self.a + self.b)[7:0]
        with self.elsewhen(self.op == 1):
            out <<= (self.a - self.b)[7:0]
        with self.elsewhen(self.op == 2):
            out <<= self.a & self.b
        with self.otherwise():
            out <<= self.a ^ self.b
        self.res <<= out


class TwoLeaves(hgf.Module):
    """Two instances of the same child: the concurrent-threads case."""

    def __init__(self):
        super().__init__()
        self.x = self.input("x", 4)
        self.y = self.output("y", 8)
        a = self.instance("a", AluLeaf())
        b = self.instance("b", AluLeaf())
        a.i <<= self.x
        b.i <<= self.x ^ 5
        self.y <<= hgf.cat(a.o, b.o)


class AluLeaf(hgf.Module):
    def __init__(self):
        super().__init__()
        self.i = self.input("i", 4)
        self.o = self.output("o", 4)
        with self.when(self.i > 2):
            self.o <<= self.i - 1
        with self.otherwise():
            self.o <<= self.i


class SumLoop(hgf.Module):
    """Paper Listing 1: a for-loop accumulating into ``sum`` under a
    hardware condition — the SSA multi-line-mapping example."""

    def __init__(self, n: int = 2):
        super().__init__()
        self.n = n
        self.data = self.input("data", typ=hgf.Vec(n, hgf.UInt(8)))
        self.result = self.output("result", 16)
        total = self.var("sum", self.lit(0, 16))
        for i in range(n):
            with self.when(self.data[i] % 2 != 0):
                total.set((total.value + self.data[i])[15:0])
        self.result <<= total.value


def line_of(design: repro.Design, sink: str, module: str | None = None) -> tuple[str, int]:
    """(filename, line) of the first debug entry assigning ``sink``."""
    for entry in design.debug_info.all_entries():
        if entry.sink == sink and (module is None or entry.module == module):
            return entry.info.filename, entry.info.line
    raise AssertionError(f"no debug entry for sink {sink!r}")


def make_runtime(design, sim, on_hit=None):
    from repro.core import Runtime
    from repro.symtable import SQLiteSymbolTable, write_symbol_table

    st = SQLiteSymbolTable(write_symbol_table(design))
    return Runtime(sim, st, on_hit)


#: The repo's three JSON-lines servers, by the name :func:`start_server` takes.
SERVER_KINDS = ("symtable", "debug", "hub")


def start_server(kind: str):
    """Serve :class:`TwoLeaves` over one of :data:`SERVER_KINDS`.

    Returns a namespace: ``address``; ``stop()``, which stops the server;
    ``connect()``, which opens that server's own client; and ``request``
    with ``result``, a request the server answers with that result.
    """
    from types import SimpleNamespace

    from repro.core import DebugClient, DebugServer, Runtime
    from repro.hub import DebugHub, HubClient
    from repro.sim import Simulator
    from repro.symtable import (
        RPCSymbolTable,
        SQLiteSymbolTable,
        SymbolTableServer,
        write_symbol_table,
    )

    design = repro.compile(TwoLeaves())
    if kind == "hub":
        hub = DebugHub(design)
        host, port = hub.serve_background()
        return SimpleNamespace(
            address=(host, port),
            stop=hub.close,
            connect=lambda: HubClient(host, port),
            request={"method": "hello", "params": {}},
            result=hub._hello(),
        )
    table = SQLiteSymbolTable(write_symbol_table(design))
    if kind == "symtable":
        server = SymbolTableServer(table)
        client_cls = RPCSymbolTable
        request = {"method": "attribute", "params": ["top"]}
        result = table.attribute("top")
    else:
        sim = Simulator(design.low)
        server = DebugServer(Runtime(sim, table))
        client_cls = DebugClient
        request = {"method": "info", "params": {"what": "time"}}
        result = {"time": sim.get_time()}
    server.start()
    return SimpleNamespace(
        address=server.address,
        stop=server.stop,
        connect=lambda: client_cls(*server.address),
        request=request,
        result=result,
    )
