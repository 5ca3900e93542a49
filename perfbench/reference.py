"""References the program's outputs are checked against.

The golden ISS (``repro.cpu.golden``) is the RV32 functional model: it
shares no code with the elaborated core, the IR passes or the simulator.
State digests come from a sequential ``fast=False`` ``Simulator`` — the
engine's reference path, with no history, no runtime and no hub — run
untimed before the measured loop.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

#: The RV32 benchmarks are run after this many reset cycles; an
#: instruction the ISS executes at index i is on the core at time i + 1.
RESET_CYCLES = 1


@dataclass
class IssTrace:
    """Everything the ISS says a program does."""

    tohost: int
    instret: int                     # instructions, the final ecall included
    tohost_store: int                # index of the store to ``tohost``
    #: rd -> [(index, pc, value)] for every register write, in order.
    writes: dict = field(default_factory=dict)
    #: [(index, rd)] for every register write, in order.
    all_writes: list = field(default_factory=list)


def iss_trace(words: list[int], limit: int | None = None) -> IssTrace:
    """Run ``words`` on the ISS, logging every register write.

    ``limit`` stops after that many instructions (a prefix trace).
    """
    from repro.cpu import isa
    from repro.cpu.golden import TOHOST_ADDR, Iss

    writes_rd = {
        isa.OP_LUI, isa.OP_AUIPC, isa.OP_JAL, isa.OP_JALR, isa.OP_LOAD,
        isa.OP_IMM, isa.OP_REG,
    }
    iss = Iss(words)
    st = iss.state
    writes: dict = {}
    all_writes = []
    tohost_store = -1
    index = 0
    while not st.halted and (limit is None or index < limit):
        pc = st.pc
        d = isa.decode(st.memory.get(pc // 4, 0))
        if d.opcode == isa.OP_STORE and (st.regs[d.rs1] + d.imm_s) & 0xFFFFFFFF == TOHOST_ADDR:
            tohost_store = index
        iss.step()
        if d.opcode in writes_rd and d.rd != 0:
            writes.setdefault(d.rd, []).append((index, pc, st.regs[d.rd]))
            all_writes.append((index, d.rd))
        index += 1
    return IssTrace(
        tohost=st.tohost if st.tohost is not None else -1,
        instret=st.instret,
        tohost_store=tohost_store,
        writes=writes,
        all_writes=all_writes,
    )


def regfile_write_line() -> tuple[str, int]:
    """The generator source line of the register-file write, read from the
    source text of ``repro/cpu/cpu.py`` (not from the symbol table)."""
    import repro.cpu.cpu as cpu

    path = inspect.getsourcefile(cpu)
    lines = inspect.getsource(cpu).splitlines()
    hits = [i + 1 for i, text in enumerate(lines) if "regs.write(rd, wb_val" in text]
    if len(hits) != 1:
        raise RuntimeError(f"expected one register-file write in {path}, got {hits}")
    return path, hits[0]


def reference_digests(low, cycles: int, options) -> list[str]:
    """``state_digest`` at every time 0..cycles of a reset-then-run RV32
    program, from the reference engine.  Entry t is the settled state at
    time t, which is what a session stopped at time t holds."""
    from repro.sim import Simulator

    sim = Simulator(low, options=options)
    sim.reset(RESET_CYCLES)
    # Times before the end of reset are never a stop time.
    digests = [None] * RESET_CYCLES + [sim.state_digest()]
    while sim.get_time() < cycles and not sim.finished:
        sim.step(1)
        digests.append(sim.state_digest())
    return digests
