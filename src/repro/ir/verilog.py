"""Verilog emission from the Low form.

The output is the "generated RTL" hardware designers would otherwise have to
debug by hand (paper Listing 4): flattened names, mux chains, and compiler
temporaries.  Our simulator executes the IR directly, so this emitter exists
for interoperability and for demonstrating the readability gap that
motivates source-level debugging.
"""

from __future__ import annotations

from .expr import Expr, Literal, MemRead, PrimOp, Ref, SubField
from .ops import INFIX
from .stmt import (
    Circuit,
    Connect,
    DefInstance,
    DefMemory,
    DefNode,
    DefRegister,
    DefWire,
    MemWrite,
    ModuleIR,
    Printf,
    Stop,
)
from .types import SIntType


_PREFIX = {"not": "~", "neg": "-", "andr": "&", "orr": "|", "xorr": "^"}
# Ops whose operands Verilog sizes by themselves, not from the context.
_SELF_DETERMINED = frozenset({"cat", "andr", "orr", "xorr", "as_uint", "as_sint"})
# Ops whose IR result can be wider than Verilog sizes them by themselves.
_GROWING = frozenset({"add", "sub", "mul", "div", "shl"})


def _widened(e: Expr) -> Expr | None:
    """The operand of a widening ``pad``, else None."""
    if isinstance(e, PrimOp) and e.op == "pad" and e.width() > e.args[0].width():
        return e.args[0]
    return None


def _outgrows(e: Expr, width: int) -> bool:
    """Whether Verilog, sizing ``e`` by itself, keeps fewer than ``width``
    of its bits: it sizes arithmetic by the widest operand and a shift by
    the shifted one."""
    return (
        isinstance(e, PrimOp)
        and e.op in _GROWING
        and width > max(a.width() for a in e.args)
    )


def _width_decl(width: int) -> str:
    return f"[{width - 1}:0] " if width > 1 else ""


class _ModuleEmitter:
    def __init__(self, m: ModuleIR, circuit: Circuit):
        self.m = m
        self.circuit = circuit
        self.lines: list[str] = []
        self.instances = {
            s.name: s.module for s in m.body if isinstance(s, DefInstance)
        }
        # connects to instance inputs: inst -> port -> expr
        self.inst_inputs: dict[str, dict[str, Expr]] = {}
        # wires created for instance outputs: (inst, port) -> wire name
        self.inst_outputs: dict[tuple[str, str], str] = {}

    def emit(self) -> str:
        self._collect_instance_connects()
        header = ",\n".join(
            f"  {p.direction} {_signed_kw(p.typ)}{_width_decl(p.typ.bit_width())}{p.name}"
            for p in self.m.ports
        )
        self.lines.append(f"module {self.m.name} (")
        self.lines.append(header)
        self.lines.append(");")
        for s in self.m.body:
            self._emit_stmt(s)
        self._emit_instances()
        self._emit_sequential()
        self.lines.append("endmodule")
        return "\n".join(self.lines)

    def _collect_instance_connects(self) -> None:
        for s in self.m.body:
            if isinstance(s, Connect) and isinstance(s.loc, SubField):
                inst = s.loc.expr.name  # type: ignore[union-attr]
                self.inst_inputs.setdefault(inst, {})[s.loc.name] = s.expr
        for inst, mod in self.instances.items():
            child = self.circuit.modules[mod]
            for p in child.ports:
                if p.direction == "output":
                    self.inst_outputs[(inst, p.name)] = f"{inst}_{p.name}"

    def _emit_stmt(self, s) -> None:
        if isinstance(s, DefWire):
            w = s.typ.bit_width()
            self.lines.append(f"  wire {_signed_kw(s.typ)}{_width_decl(w)}{s.name};")
        elif isinstance(s, DefNode):
            w = s.value.typ.bit_width()
            self.lines.append(
                f"  wire {_signed_kw(s.value.typ)}{_width_decl(w)}{s.name} = "
                f"{self._expr(s.value)};"
            )
        elif isinstance(s, DefRegister):
            w = s.typ.bit_width()
            self.lines.append(f"  reg {_signed_kw(s.typ)}{_width_decl(w)}{s.name};")
        elif isinstance(s, DefMemory):
            w = s.typ.bit_width()
            self.lines.append(
                f"  reg {_width_decl(w)}{s.name} [0:{s.depth - 1}];"
            )
            if s.init:
                self.lines.append("  initial begin")
                for i, v in enumerate(s.init):
                    self.lines.append(f"    {s.name}[{i}] = {w}'h{v:x};")
                self.lines.append("  end")
        elif isinstance(s, Connect):
            if isinstance(s.loc, SubField):
                return  # instance input: handled at instantiation
            target = s.loc.name  # type: ignore[union-attr]
            if target in self._reg_names():
                return  # register next-value: handled in always block
            self.lines.append(f"  assign {target} = {self._expr(s.expr)};")
        # DefInstance / MemWrite / Stop / Printf handled separately

    def _reg_names(self) -> set[str]:
        return {s.name for s in self.m.body if isinstance(s, DefRegister)}

    def _emit_instances(self) -> None:
        for inst, mod in self.instances.items():
            child = self.circuit.modules[mod]
            for (i, p), wire in self.inst_outputs.items():
                if i == inst:
                    w = child.port(p).typ.bit_width()
                    self.lines.append(f"  wire {_width_decl(w)}{wire};")
            ports = []
            for p in child.ports:
                if p.direction == "input":
                    expr = self.inst_inputs.get(inst, {}).get(p.name)
                    value = self._expr(expr) if expr is not None else ""
                else:
                    value = self.inst_outputs[(inst, p.name)]
                ports.append(f"    .{p.name}({value})")
            self.lines.append(f"  {mod} {inst} (")
            self.lines.append(",\n".join(ports))
            self.lines.append("  );")

    def _emit_sequential(self) -> None:
        regs = {s.name: s for s in self.m.body if isinstance(s, DefRegister)}
        reg_next: dict[str, Expr] = {}
        for s in self.m.body:
            if isinstance(s, Connect) and isinstance(s.loc, Ref) and s.loc.name in regs:
                reg_next[s.loc.name] = s.expr
        mem_writes = [s for s in self.m.body if isinstance(s, MemWrite)]
        stops = [s for s in self.m.body if isinstance(s, Stop)]
        prints = [s for s in self.m.body if isinstance(s, Printf)]
        if not (regs or mem_writes or stops or prints):
            return
        self.lines.append("  always @(posedge clock) begin")
        for name, reg in regs.items():
            nxt = reg_next.get(name)
            nxt_s = self._expr(nxt) if nxt is not None else name
            if reg.reset is not None and reg.init is not None:
                self.lines.append(
                    f"    if ({self._expr(reg.reset)}) {name} <= "
                    f"{self._expr(reg.init)}; else {name} <= {nxt_s};"
                )
            else:
                self.lines.append(f"    {name} <= {nxt_s};")
        for mw in mem_writes:
            self.lines.append(
                f"    if ({self._expr(mw.en)}) {mw.mem}[{self._expr(mw.addr)}] "
                f"<= {self._expr(mw.data)};"
            )
        for st in stops:
            self.lines.append(f"    if ({self._expr(st.cond)}) $finish;")
        for pf in prints:
            fmt = pf.fmt.replace("{}", "%d")
            args = "".join(f", {self._expr(a)}" for a in pf.args)
            self.lines.append(f'    if ({self._expr(pf.cond)}) $display("{fmt}"{args});')
        self.lines.append("  end")

    # -- expressions ------------------------------------------------------

    def _expr(self, e: Expr) -> str:
        if isinstance(e, Ref):
            return e.name
        if isinstance(e, Literal):
            w = e.typ.bit_width()
            if e.value < 0:
                return f"-{w}'sd{-e.value}"
            return f"{w}'h{e.value:x}"
        if isinstance(e, SubField):
            inst = e.expr.name  # type: ignore[union-attr]
            wire = self.inst_outputs.get((inst, e.name))
            if wire is None:
                raise ValueError(f"read of instance input {inst}.{e.name}")
            return wire
        if isinstance(e, MemRead):
            return f"{e.mem}[{self._expr(e.addr)}]"
        if isinstance(e, PrimOp):
            return self._prim(e)
        raise ValueError(f"cannot emit {e!r}")

    def _prim(self, e: PrimOp) -> str:
        wrap = self._sized if e.op in _SELF_DETERMINED else self._wrap
        a = [wrap(x) for x in e.args]
        if e.op in INFIX:
            sym = INFIX[e.op]
            if sym == ">>" and isinstance(e.args[0].typ, SIntType):
                sym = ">>>"
            rhs = a[1] if len(a) == 2 else e.params[0]
            return f"({a[0]} {sym} {rhs})"
        if e.op in _PREFIX:
            return f"({_PREFIX[e.op]}{a[0]})"
        if e.op == "mux":
            return f"({a[0]} ? {a[1]} : {a[2]})"
        if e.op == "cat":
            return f"{{{a[0]}, {a[1]}}}"
        if e.op == "bits":
            hi, lo = e.params
            if e.args[0].width() == 1 and hi == 0 and lo == 0:
                return a[0]
            src = self._bits_operand(e.args[0], hi)
            return f"{src}[{hi}:{lo}]" if hi != lo else f"{src}[{hi}]"
        if e.op == "pad":
            return a[0]  # the context extends it
        if e.op == "as_uint":
            return f"$unsigned({a[0]})"
        if e.op == "as_sint":
            return f"$signed({a[0]})"
        raise ValueError(f"cannot emit op {e.op}")

    def _sized(self, e: Expr) -> str:
        """``e`` where Verilog sizes it by itself (a cat operand, say): a
        widening ``pad`` must spell out its sign or zero extension, and an
        op that outgrows its operands must be computed at its IR width."""
        if _outgrows(e, e.width()):
            return self._full_width(e)
        x = _widened(e)
        if x is None:
            return self._wrap(e)
        if not isinstance(x.typ, SIntType):
            fill = "1'b0"
        elif x.width() == 1:
            fill = self._expr(x)
        else:
            fill = f"{self._bits_operand(x, x.width() - 1)}[{x.width() - 1}]"
        return f"{{{{{e.width() - x.width()}{{{fill}}}}}, {self._expr(x)}}}"

    def _full_width(self, e: Expr) -> str:
        # Adding a zero of the IR width makes Verilog compute ``e`` that
        # wide (a signed zero keeps a signed expression signed).
        sign = "s" if isinstance(e.typ, SIntType) else ""
        return f"({self._expr(e)} + {e.width()}'{sign}d0)"

    def _bits_operand(self, e: Expr, hi: int) -> str:
        """``e`` in a form Verilog can slice up to bit ``hi``."""
        # Verilog cannot slice an arbitrary expression; name it if needed.
        if isinstance(e, (Ref, MemRead)):
            return self._expr(e)
        if isinstance(e, SubField):
            return self._expr(e)
        if _widened(e) is not None:
            return self._sized(e)  # already a concatenation
        # Fall back to a concatenation trick valid on expressions.
        if _outgrows(e, hi + 1):
            return f"{{{self._full_width(e)}}}"
        return f"{{{self._expr(e)}}}"

    def _wrap(self, e: Expr) -> str:
        s = self._expr(e)
        if isinstance(e.typ, SIntType) and not s.startswith("$signed"):
            return f"$signed({s})"
        return s


def _signed_kw(typ) -> str:
    return "signed " if isinstance(typ, SIntType) else ""


def emit_verilog(circuit: Circuit) -> str:
    """Emit the whole circuit as a single Verilog source string."""
    parts = [_ModuleEmitter(m, circuit).emit() for m in circuit.modules.values()]
    return "\n\n".join(parts) + "\n"
