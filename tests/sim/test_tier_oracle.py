"""Tier oracle for whole circuits: every engine tier runs every circuit alike.

Hypothesis builds random Low-form modules: a few inputs, one-op nodes drawn
from the rows of the op table (``repro.ir.ops.OPS``), registers with and
without reset, and one memory with an enabled write port and one read.
Inputs, registers and the memory take widths from {1, 8, 63, 64, 65, 128}.
Each module runs 32 cycles of seeded pokes on the ``fast=False``
reference, and after every cycle each other tier must report the
reference's ``state_digest`` for the same stimulus:

* ``fast=True``;
* ``fast=True`` with ``snapshots=8``, rewound once and re-executed;
* every world of ``ManyWorldsSimulator`` (with history and the same rewind
  when its memory fits one lane), each world on its own stimulus.

A failure shrinks to a small circuit.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ir import expr as E
from repro.ir.ops import OPS
from repro.ir.stmt import (
    Block,
    Circuit,
    Connect,
    DefMemory,
    DefNode,
    DefRegister,
    MemWrite,
    ModuleIR,
    Port,
)
from repro.ir.types import ClockType, ResetType, SIntType, Type, UIntType
from repro.options import SessionOptions
from repro.sim import ManyWorldsSimulator, Simulator, numpy_available
from repro.sim.compiler import compile_design
from repro.sim.store import LANE_BITS

WIDTHS = (1, 8, 63, 64, 65, 128)
PARAMS = (0, 1, 63, 64, 70)
MAX_NODE_WIDTH = 256  # dynamic shifts are exact up to here (``_mins``)
CYCLES = 32
WORLDS = 3
SNAPSHOTS = 8

CLOCK = E.Ref("clock", ClockType())
RESET = E.Ref("reset", ResetType())

_UNARY = {
    "not": E.not_, "neg": E.neg, "andr": E.andr, "orr": E.orr,
    "xorr": E.xorr, "as_uint": E.as_uint, "as_sint": E.as_sint,
}

types = st.builds(
    lambda width, signed: SIntType(width) if signed else UIntType(width),
    st.sampled_from(WIDTHS),
    st.booleans(),
)


def _like(e: E.Expr, signed: bool) -> E.Expr:
    """``e`` with the given signedness (a reinterpreting cast if needed)."""
    if isinstance(e.typ, SIntType) == signed:
        return e
    return E.as_sint(e) if signed else E.as_uint(e)


def _fit(e: E.Expr, t: Type) -> E.Expr:
    """``e`` truncated or extended to the width and signedness of ``t``."""
    w = t.bit_width()
    if e.width() > w:
        e = E.bits(e, w - 1, 0)
    elif e.width() < w:
        e = E.pad(e, w)
    return _like(e, isinstance(t, SIntType))


@st.composite
def literals(draw) -> E.Literal:
    t = draw(types)
    w = t.bit_width()
    if isinstance(t, SIntType):
        value = draw(st.integers(-(1 << (w - 1)), (1 << (w - 1)) - 1))
    else:
        value = draw(st.integers(0, (1 << w) - 1))
    return E.Literal(value, t)


@st.composite
def nodes(draw, pool: list[E.Expr]) -> E.Expr:
    """One op-table row over earlier signals (now and then a literal)."""
    operand = st.one_of(st.sampled_from(pool), literals())
    op = draw(st.sampled_from(sorted(OPS)))
    a = draw(operand)
    if op in _UNARY:
        e = _UNARY[op](a)
    elif op == "bits":
        hi = draw(st.integers(0, a.width() - 1))
        e = E.bits(a, hi, draw(st.integers(0, hi)))
    elif op in ("pad", "shl", "shr"):
        e = getattr(E, op)(a, draw(st.sampled_from(PARAMS)))
    elif op in ("dshl", "dshr"):
        e = getattr(E, op)(a, _like(draw(operand), False))
    elif op == "mux":
        cond = E.bits(draw(operand), 0, 0)
        signed = isinstance(a.typ, SIntType)
        e = E.mux(cond, a, _like(draw(operand), signed))
    elif op == "cat":
        e = E.cat(a, draw(operand))
    else:
        e = E.binop(op, a, _like(draw(operand), isinstance(a.typ, SIntType)))
    if e.width() > MAX_NODE_WIDTH:
        e = E.bits(e, MAX_NODE_WIDTH - 1, 0)
    return e


@st.composite
def circuits(draw) -> Circuit:
    ports = [Port("clock", "input", ClockType()), Port("reset", "input", ResetType())]
    body: list = []
    pool: list[E.Expr] = []
    for k in range(draw(st.integers(1, 3))):
        t = draw(types)
        ports.append(Port(f"i{k}", "input", t))
        pool.append(E.Ref(f"i{k}", t))
    regs = []
    for k in range(draw(st.integers(1, 3))):
        t = draw(types)
        init = draw(st.none() | literals())
        if init is None:
            body.append(DefRegister(f"r{k}", t, CLOCK))
        else:
            body.append(DefRegister(f"r{k}", t, CLOCK, RESET, _fit(init, t)))
        regs.append(E.Ref(f"r{k}", t))
    pool += regs
    mem_t = draw(types)
    body.append(DefMemory("mem", mem_t, draw(st.sampled_from((1, 3, 4)))))
    n_nodes = draw(st.integers(0, 8))
    read_at = draw(st.integers(0, n_nodes))
    for k in range(n_nodes + 1):
        if k == read_at:
            value: E.Expr = E.MemRead("mem", draw(st.sampled_from(pool)), mem_t)
        else:
            value = draw(nodes(pool))
        body.append(DefNode(f"n{k}", value))
        pool.append(E.Ref(f"n{k}", value.typ))
    pick = st.sampled_from(pool)
    for reg in regs:
        # An unassigned register holds its value (or only resets).
        if draw(st.booleans()) or reg is regs[0]:
            body.append(Connect(reg, _fit(draw(pick), reg.typ)))
    body.append(MemWrite(
        "mem", draw(pick), _fit(draw(pick), mem_t), E.bits(draw(pick), 0, 0)
    ))
    out = draw(pick)
    ports.append(Port("o", "output", out.typ))
    body.append(Connect(E.Ref("o", out.typ), out))
    top = ModuleIR("Rand", ports, Block(tuple(body)))
    return Circuit("Rand", {"Rand": top}, "Rand")


def _one_node(value: E.Expr) -> Circuit:
    """A module whose output is ``value`` over one 1-bit input ``i0``."""
    ports = [
        Port("clock", "input", ClockType()), Port("reset", "input", ResetType()),
        Port("i0", "input", UIntType(1)), Port("o", "output", value.typ),
    ]
    body = (
        DefMemory("mem", UIntType(1), 1),
        Connect(E.Ref("o", value.typ), value),
    )
    return Circuit("One", {"One": ModuleIR("One", ports, Block(body))}, "One")


_I0 = E.Ref("i0", UIntType(1))


def _stimulus(circuit: Circuit, seed: int) -> list[dict[str, int]]:
    """Per-cycle pokes of every input: edge values, fresh draws, or the
    previous value; reset high in cycle 0 and now and then after."""
    rng = random.Random(seed)
    inputs = [
        p for p in circuit.modules[circuit.main].ports
        if p.direction == "input" and p.name != "clock"
    ]
    cycles: list[dict[str, int]] = []
    for i in range(CYCLES):
        pokes = {}
        for p in inputs:
            w = p.typ.bit_width()
            if p.name == "reset":
                pokes["reset"] = int(i == 0 or rng.random() < 0.1)
                continue
            r = rng.random()
            if i and r < 0.4:
                pokes[p.name] = cycles[-1][p.name]
            elif r < 0.6:
                pokes[p.name] = rng.choice((0, (1 << w) - 1, 1 << (w - 1)))
            else:
                pokes[p.name] = rng.getrandbits(w)
        cycles.append(pokes)
    return cycles


def _drive(sim, poke, digests, expect, rewind=None) -> None:
    """Run the stimulus; after cycle ``i`` ``digests()`` must equal
    ``expect[i]``.  With ``rewind=(r, t)``, after cycle ``r`` rewind to
    time ``t`` and re-execute from there (re-poking cycle ``t``'s inputs
    is a no-op: the restored state already holds them)."""
    i = 0
    while i < len(expect):
        poke(i)
        sim.step()
        assert digests() == expect[i], f"cycle {i}"
        if rewind is not None and i == rewind[0]:
            i = rewind[1]
            rewind = None
            sim.set_time(i)
            continue
        i += 1


def _reference(circuit, compiled, stim) -> list[str]:
    sim = Simulator(circuit, compiled=compiled, options=SessionOptions(fast=False))
    out = []
    for pokes in stim:
        for name, value in pokes.items():
            sim.poke(name, value)
        sim.step()
        out.append(sim.state_digest())
    return out


# Found by this oracle: a literal wider than one lane reached the vector
# tier's compares and right shifts as its residue mod 2**64.
_WIDE_LITERALS = (
    E.geq(E.Literal(1 << 63, SIntType(65)), E.as_sint(_I0)),
    E.eq(E.Literal(-(1 << 64), SIntType(66)), E.as_sint(_I0)),
    E.shr(E.Literal(1 << 63, SIntType(65)), 1),
    E.shr(E.Literal(1 << 64, UIntType(65)), 1),
)


def _examples(test):
    for value in _WIDE_LITERALS:
        test = example(circuit=_one_node(value), seed=0, rewind_at=0, back=0)(test)
    return test


@_examples
@settings(max_examples=150, deadline=None)
@given(
    circuit=circuits(),
    seed=st.integers(0, 2**16),
    rewind_at=st.integers(0, CYCLES - 1),
    back=st.integers(0, SNAPSHOTS - 2),
)
def test_tiers_agree_on_random_circuits(circuit, seed, rewind_at, back):
    compiled = compile_design(circuit)
    stims = [_stimulus(circuit, seed * WORLDS + k) for k in range(WORLDS)]
    refs = [_reference(circuit, compiled, stim) for stim in stims]
    rewind = (rewind_at, max(0, rewind_at - back))

    for opt, rw in (
        (SessionOptions(fast=True), None),
        (SessionOptions(fast=True, snapshots=SNAPSHOTS), rewind),
    ):
        sim = Simulator(circuit, compiled=compiled, options=opt)

        def poke(i, sim=sim):
            for name, value in stims[0][i].items():
                sim.poke(name, value)

        _drive(sim, poke, sim.state_digest, refs[0], rw)

    if not numpy_available():
        return
    history = compiled.mems[0].width <= LANE_BITS
    mw = ManyWorldsSimulator(
        circuit, WORLDS, compiled=compiled,
        options=SessionOptions(snapshots=SNAPSHOTS if history else 0),
    )

    def poke_worlds(i):
        for name in stims[0][i]:
            mw.poke_worlds(name, [stim[i][name] for stim in stims])

    def digests():
        return [mw.state_digest(k) for k in range(WORLDS)]

    expect = [list(ds) for ds in zip(*refs, strict=True)]
    _drive(mw, poke_worlds, digests, expect, rewind if history else None)
