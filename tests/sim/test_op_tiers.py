"""Tier oracle: every engine tier computes every primitive op alike.

For each row of the op table (``repro.ir.ops.OPS``), UInt and SInt operands
of widths 1 to 128 and static parameters from {0, 1, 63, 64, 70}, a one-op
Low-form module is driven with edge-case operand values.  ``eval_prim``, the
``fast=True`` and ``fast=False`` scalar simulators and every world of the
many-worlds vector simulator must give the same result.  A new table row is
picked up here without further edits.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.ir import expr as E
from repro.ir.eval import eval_prim
from repro.ir.ops import OPS
from repro.ir.stmt import Block, Circuit, Connect, ModuleIR, Port
from repro.ir.types import ClockType, ResetType, SIntType, Type, UIntType
from repro.options import SessionOptions
from repro.sim import ManyWorldsSimulator, Simulator, numpy_available
from repro.sim.compiler import compile_design

WIDTHS = (1, 8, 63, 64, 65, 128)
PARAMS = (0, 1, 63, 64, 70)
AMOUNT = UIntType(9)  # dynamic shift amounts reach past 256

_UNARY = {
    "not": E.not_, "neg": E.neg, "andr": E.andr, "orr": E.orr,
    "xorr": E.xorr, "as_uint": E.as_uint, "as_sint": E.as_sint,
}


def _params(op: str, width: int) -> list[tuple[int, ...]]:
    if op == "bits":
        return [
            (hi, lo)
            for lo, hi in itertools.combinations_with_replacement(PARAMS, 2)
            if hi < width
        ]
    if op in ("pad", "shl", "shr"):
        return [(n,) for n in PARAMS]
    return [()]


def _cases():
    for op in OPS:
        for signed in (False, True):
            for width in WIDTHS:
                for params in _params(op, width):
                    yield pytest.param(
                        op, signed, width, params,
                        id=f"{op}-{'s' if signed else 'u'}{width}-"
                        + "_".join(map(str, params)),
                    )


def _build(op: str, t: Type, params: tuple[int, ...]) -> E.PrimOp:
    """The op over inputs ``a``/``b``/``c`` of the given operand type."""
    a, b = E.Ref("a", t), E.Ref("b", t)
    if op in _UNARY:
        return _UNARY[op](a)
    if op == "bits":
        return E.bits(a, *params)
    if op in ("pad", "shl", "shr"):
        return getattr(E, op)(a, params[0])
    if op in ("dshl", "dshr"):
        return getattr(E, op)(a, E.Ref("b", AMOUNT))
    if op == "mux":
        return E.mux(E.Ref("c", UIntType(1)), a, b)
    if op == "cat":
        return E.cat(a, b)
    return E.binop(op, a, b)


def _circuit(e: E.PrimOp) -> Circuit:
    ports = [Port("clock", "input", ClockType()), Port("reset", "input", ResetType())]
    ports += [Port(x.name, "input", x.typ) for x in e.args]
    ports.append(Port("o", "output", e.typ))
    body = Block((Connect(E.Ref("o", e.typ), e),))
    return Circuit("OpTop", {"OpTop": ModuleIR("OpTop", ports, body)}, "OpTop")


def _values(typ: Type, rng: random.Random) -> list[int]:
    """Raw operand values: the two's-complement edges, a few shift-amount
    edges and two random draws."""
    w = typ.bit_width()
    top = 1 << w
    edges = {0, 1, top - 1, top - 2, top >> 1, (top >> 1) - 1, (top >> 1) + 1}
    if typ == AMOUNT:
        edges |= {63, 64, 65, 70, 127, 128, 129, 255, 256, 257}
    edges.update(rng.getrandbits(w) for _ in range(2))
    return sorted(v for v in edges if 0 <= v < top)


@pytest.mark.parametrize("op,signed,width,params", list(_cases()))
def test_tiers_agree(op, signed, width, params):
    t = SIntType(width) if signed else UIntType(width)
    e = _build(op, t, params)
    circuit = _circuit(e)
    names = [x.name for x in e.args]
    rng = random.Random(f"{op}/{signed}/{width}/{params}")
    vectors = list(
        itertools.product(*(_values(x.typ, rng) for x in e.args))
    )
    types = tuple(x.typ for x in e.args)
    expected = [eval_prim(op, params, v, types, e.typ) for v in vectors]

    compiled = compile_design(circuit)
    for fast in (True, False):
        sim = Simulator(
            circuit, compiled=compiled, options=SessionOptions(fast=fast)
        )
        got = []
        for v in vectors:
            for name, value in zip(names, v, strict=True):
                sim.poke(name, value)
            got.append(sim.peek("o"))
        assert got == expected, f"fast={fast}"

    if not numpy_available():
        return
    mw = ManyWorldsSimulator(circuit, len(vectors), compiled=compiled)
    for i, name in enumerate(names):
        mw.poke_worlds(name, [v[i] for v in vectors])
    assert mw.peek_worlds("o") == expected, "many-worlds"
