"""ExpandWhens: the SSA transform with enable-condition extraction.

This is the pass at the heart of breakpoint emulation (paper Sec. 3.1):

* every ``Connect`` under ``when`` conditions becomes a *named SSA node*
  (``_ssa_<sink>_<k>``) holding the statement's value — the ``sum0``/
  ``sum1`` temporaries of paper Listing 2;
* the conjunction of the enclosing ``when`` predicates is materialized as
  an *enable node* (``_en_<k>``) — the "enable condition" obtained "by
  AND-reduction on the SSA transform condition stack";
* each sink ends up with exactly one driving ``Connect`` whose value is a
  mux tree over the branch values (last-connect-wins semantics);
* a :class:`~repro.ir.debug.DebugEntry` is recorded per statement, carrying
  the source locator, SSA node, enable node, and the variable mapping valid
  at that statement.

Registers hold their value on paths with no connect; unconnected wires and
outputs default to zero (collected as lint warnings).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..debug import DebugEntry, DebugInfo
from ..expr import (
    Expr,
    Literal,
    Ref,
    SubField,
    and_,
    as_sint,
    as_uint,
    bits,
    mux,
    not_,
    pad,
)
from ..ops import INFIX
from ..source import UNKNOWN, SourceInfo
from ..stmt import (
    Block,
    Circuit,
    Conditionally,
    Connect,
    DefInstance,
    DefMemory,
    DefNode,
    DefRegister,
    DefWire,
    MemWrite,
    ModuleIR,
    Printf,
    Stmt,
    Stop,
    walk_stmts,
)
from ..types import SIntType, Type, UIntType, is_signed


class ExpandWhensError(Exception):
    """Raised on malformed conditional structure."""


def fit_to(e: Expr, typ: Type) -> Expr:
    """Coerce ``e`` to the width/signedness of ground type ``typ``."""
    if e.typ == typ:
        return e
    tw = typ.bit_width()
    ew = e.width()
    if ew < tw:
        e = pad(e, tw)
    elif ew > tw:
        e = bits(e, tw - 1, 0)
    target_signed = isinstance(typ, SIntType)
    if target_signed and not is_signed(e.typ):
        e = as_sint(e)
    elif not target_signed and is_signed(e.typ):
        e = as_uint(e)
    return e


def render_expr(e: Expr, rename: dict[str, str] | None = None) -> str:
    """Render an expression using source-level (dotted) names when a rename
    map is available — used to display enable conditions to the user."""
    rename = rename or {}

    def r(x: Expr) -> str:
        if isinstance(x, Ref):
            return rename.get(x.name, x.name)
        if isinstance(x, SubField):
            return f"{r(x.expr)}.{x.name}"
        if isinstance(x, Literal):
            return str(x.value)
        from ..expr import MemRead, PrimOp, SubIndex

        if isinstance(x, SubIndex):
            return f"{r(x.expr)}[{x.index}]"
        if isinstance(x, MemRead):
            return f"{x.mem}[{r(x.addr)}]"
        if isinstance(x, PrimOp):
            if x.op in INFIX and len(x.args) == 2:
                return f"({r(x.args[0])} {INFIX[x.op]} {r(x.args[1])})"
            if x.op == "not":
                return f"(~{r(x.args[0])})"
            if x.op == "neg":
                return f"(-{r(x.args[0])})"
            if x.op == "mux":
                return f"({r(x.args[0])} ? {r(x.args[1])} : {r(x.args[2])})"
            if x.op == "bits":
                return f"{r(x.args[0])}[{x.params[0]}:{x.params[1]}]"
            if x.op in ("pad", "as_uint", "as_sint", "shl", "shr"):
                return r(x.args[0])
            parts = [r(a) for a in x.args] + [str(p) for p in x.params]
            return f"{x.op}({', '.join(parts)})"
        return str(x)

    return r(e)


@dataclass(slots=True)
class _Sink:
    key: str            # env key ("name" or "inst.port")
    flat: str           # identifier-safe name for SSA temps
    typ: Type
    kind: str           # "wire" | "reg" | "output" | "instport"
    loc: Expr           # the connect target expression
    dotted: str         # source-level display name


@dataclass(slots=True)
class _EnableCtx:
    """A level of the when-condition stack.

    The enable condition is *not* materialized as extra RTL logic — hgdb
    "avoids inserting additional RTL logic into the design" (Sec. 2).  It is
    stored as an expression string over RTL signal names (the ``enable``
    TEXT column of the Fig. 3 schema) which the debugger runtime evaluates
    with its own expression evaluator at breakpoint time.
    """

    expr: Expr | None       # conjunction expression (None = always)
    rtl: str | None         # expression string over flat RTL names
    src: str | None         # source-level rendering of the conjunction


class _ModuleExpander:
    def __init__(self, module: ModuleIR, circuit: Circuit, debug: DebugInfo):
        self.module = module
        self.circuit = circuit
        self.debug = debug.module(module.name)
        self.out_decls: list[Stmt] = []
        self.out_nodes: list[Stmt] = []
        self.out_effects: list[Stmt] = []
        self.env: dict[str, Expr] = {}
        self.sinks: dict[str, _Sink] = {}
        self.latest: dict[str, str] = {}
        self.node_types: dict[str, Type] = {}
        self.registers: dict[str, DefRegister] = {}
        self.lint: list[str] = []
        self._ssa_counts: dict[str, int] = {}
        self._en_count = 0
        self._declare_sinks()

    # -- sink discovery --------------------------------------------------

    def _declare_sinks(self) -> None:
        for p in self.module.ports:
            if p.direction == "output":
                dotted = self.debug.rename_map.get(p.name, p.name)
                self.sinks[p.name] = _Sink(
                    p.name, p.name, p.typ, "output", Ref(p.name, p.typ), dotted
                )
        for s in walk_stmts(self.module.body):
            if isinstance(s, DefWire):
                dotted = self.debug.rename_map.get(s.name, s.name)
                self.sinks[s.name] = _Sink(
                    s.name, s.name, s.typ, "wire", Ref(s.name, s.typ), dotted
                )
            elif isinstance(s, DefRegister):
                dotted = self.debug.rename_map.get(s.name, s.name)
                self.sinks[s.name] = _Sink(
                    s.name, s.name, s.typ, "reg", Ref(s.name, s.typ), dotted
                )
                self.registers[s.name] = s
            elif isinstance(s, DefInstance):
                child = self.circuit.modules[s.module]
                for p in child.ports:
                    if p.direction != "input":
                        continue
                    key = f"{s.name}.{p.name}"
                    flat = f"{s.name}_{p.name}"
                    loc = SubField(
                        Ref(s.name, UIntType(1)), p.name, p.typ
                    )  # Ref type placeholder; loc typ is what matters
                    self.sinks[key] = _Sink(
                        key, flat, p.typ, "instport", loc, key
                    )

    # -- naming helpers ---------------------------------------------------

    def _ssa_name(self, flat: str) -> str:
        k = self._ssa_counts.get(flat, 0)
        self._ssa_counts[flat] = k + 1
        return f"_ssa_{flat}_{k}"

    def _emit_node(self, name: str, value: Expr, info: SourceInfo = UNKNOWN) -> Ref:
        self.out_nodes.append(DefNode(name, value, info))
        self.node_types[name] = value.typ
        return Ref(name, value.typ)

    def _materialize(self, e: Expr, prefix: str) -> tuple[str, Ref]:
        """Ensure ``e`` is available as a named signal; returns (name, ref)."""
        if isinstance(e, Ref):
            return e.name, e
        self._en_count += 1
        name = f"_{prefix}_{self._en_count}"
        ref = self._emit_node(name, e)
        return name, ref

    # -- main walk ----------------------------------------------------------

    def expand(self) -> tuple[ModuleIR, list[str]]:
        for s in self.module.body:
            self._keep_decl(s)
        root = _EnableCtx(None, None, None)
        self._walk_block(self.module.body, root)
        final = self._final_connects()
        body = Block(
            tuple(self.out_decls) + tuple(self.out_nodes) + tuple(final)
            + tuple(self.out_effects)
        )
        return ModuleIR(self.module.name, self.module.ports, body, self.module.info), self.lint

    def _keep_decl(self, s: Stmt) -> None:
        if isinstance(s, (DefWire, DefRegister, DefMemory, DefInstance)):
            self.out_decls.append(s)
        elif isinstance(s, Conditionally):
            for sub in (*s.conseq, *s.alt):
                self._keep_decl(sub)

    def _walk_block(self, block: Block, en: _EnableCtx) -> None:
        for s in block:
            self._walk_stmt(s, en)

    def _walk_stmt(self, s: Stmt, en: _EnableCtx) -> None:
        if isinstance(s, (DefWire, DefRegister, DefMemory, DefInstance)):
            return  # already kept
        if isinstance(s, DefNode):
            self._handle_node(s, en)
        elif isinstance(s, Connect):
            self._handle_connect(s, en)
        elif isinstance(s, Conditionally):
            self._handle_when(s, en)
        elif isinstance(s, MemWrite):
            self._handle_memwrite(s, en)
        elif isinstance(s, Stop):
            self.out_effects.append(
                Stop(self._qualify(s.cond, en), s.exit_code, s.info)
            )
        elif isinstance(s, Printf):
            self.out_effects.append(
                Printf(self._qualify(s.cond, en), s.fmt, s.args, s.info)
            )
        else:
            raise ExpandWhensError(f"unexpected statement {s!r}")

    def _qualify(self, cond: Expr, en: _EnableCtx) -> Expr:
        if en.expr is None:
            return cond
        return and_(en.expr, cond)

    def _handle_node(self, s: DefNode, en: _EnableCtx) -> None:
        self.out_nodes.append(s)
        self.node_types[s.name] = s.value.typ
        source_name = self.debug.rename_map.get(s.name, s.name)
        if s.info.is_known():
            self.debug.entries.append(
                DebugEntry(
                    module=self.module.name,
                    info=s.info,
                    node=s.name,
                    enable=en.rtl,
                    sink=source_name,
                    var_map=dict(self.latest),
                    enable_src=en.src,
                )
            )
        self.latest[source_name] = s.name

    def _handle_connect(self, s: Connect, en: _EnableCtx) -> None:
        key = self._sink_key(s.loc)
        sink = self.sinks.get(key)
        if sink is None:
            raise ExpandWhensError(
                f"connect to unknown sink {key!r} in {self.module.name}"
            )
        value = fit_to(s.expr, _ground(sink.typ))
        name = self._ssa_name(sink.flat)
        if s.info.is_known():
            self.debug.entries.append(
                DebugEntry(
                    module=self.module.name,
                    info=s.info,
                    node=name,
                    enable=en.rtl,
                    sink=sink.dotted,
                    var_map=dict(self.latest),
                    enable_src=en.src,
                )
            )
        ref = self._emit_node(name, value, s.info)
        self.env[key] = ref
        # The SSA context mapping (paper Listing 2) tracks *combinational*
        # reuse.  A register read always yields the current (pre-edge)
        # value, so its SSA temp — which holds the register's NEXT value —
        # must not shadow the variable.
        if s.info.is_known() and sink.kind != "reg":
            self.latest[sink.dotted] = name

    def _handle_memwrite(self, s: MemWrite, en: _EnableCtx) -> None:
        data_name = self._ssa_name(f"{s.mem}_wdata")
        if s.info.is_known():
            self.debug.entries.append(
                DebugEntry(
                    module=self.module.name,
                    info=s.info,
                    node=data_name,
                    enable=en.rtl,
                    sink=s.mem,
                    var_map=dict(self.latest),
                    enable_src=en.src,
                )
            )
        data_ref = self._emit_node(data_name, s.data, s.info)
        self.out_effects.append(
            MemWrite(s.mem, s.addr, data_ref, self._qualify(s.en, en), s.info)
        )

    def _handle_when(self, s: Conditionally, en: _EnableCtx) -> None:
        pred_name, pred_ref = self._materialize(s.pred, "cond")
        pred_src = render_expr(s.pred, self.debug.rename_map)

        then_en = self._child_enable(en, pred_ref, pred_src, negate=False)
        else_en = self._child_enable(en, pred_ref, pred_src, negate=True)

        # ``env`` is branch-scoped (values merge through muxes below), but
        # ``latest`` — the per-statement variable mapping — accumulates
        # *lexically*, exactly like the paper's Listing 2 where ``sum``
        # maps to ``sum1`` at the (lexically later) Line 6.
        saved_env = dict(self.env)

        self._walk_block(s.conseq, then_en)
        env_t = self.env
        self.env = dict(saved_env)

        self._walk_block(s.alt, else_en)
        env_f = self.env
        self.env = saved_env

        for key in set(env_t) | set(env_f):
            base = saved_env.get(key)
            tv = env_t.get(key, base)
            fv = env_f.get(key, base)
            if tv is None and fv is None:
                continue
            if tv is fv:
                # Untouched by either branch (carried over from the outer
                # scope): no mux needed.
                self.env[key] = tv
                continue
            sink = self.sinks[key]
            styp = _ground(sink.typ)
            tvx = fit_to(tv, styp) if tv is not None else self._default_for(sink)
            fvx = fit_to(fv, styp) if fv is not None else self._default_for(sink)
            self.env[key] = mux(pred_ref, tvx, fvx)

    def _child_enable(
        self, en: _EnableCtx, pred_ref: Ref, pred_src: str, negate: bool
    ) -> _EnableCtx:
        term: Expr = bits(not_(pred_ref), 0, 0) if negate else pred_ref
        term_src = f"!{pred_src}" if negate else pred_src
        term_rtl = f"!{pred_ref.name}" if negate else pred_ref.name
        if en.expr is None:
            combined: Expr = term
            combined_src = term_src
            combined_rtl = term_rtl
        else:
            combined = and_(en.expr, term)
            combined_src = f"{en.src} && {term_src}"
            combined_rtl = f"{en.rtl} && {term_rtl}"
        return _EnableCtx(combined, combined_rtl, combined_src)

    def _default_for(self, sink: _Sink) -> Expr:
        if sink.kind == "reg":
            return Ref(sink.key, _ground(sink.typ))
        return fit_to(Literal(0, UIntType(1)), _ground(sink.typ))

    def _sink_key(self, loc: Expr) -> str:
        if isinstance(loc, Ref):
            return loc.name
        if isinstance(loc, SubField) and isinstance(loc.expr, Ref):
            return f"{loc.expr.name}.{loc.name}"
        raise ExpandWhensError(f"unsupported connect target {loc}")

    def _final_connects(self) -> list[Stmt]:
        out: list[Stmt] = []
        for key, sink in self.sinks.items():
            styp = _ground(sink.typ)
            value = self.env.get(key)
            if value is None:
                if sink.kind == "reg":
                    continue  # register holds its value; no driver needed
                if sink.kind in ("wire", "output", "instport"):
                    self.lint.append(
                        f"{self.module.name}: {sink.dotted} is never driven; "
                        "defaulting to 0"
                    )
                    value = fit_to(Literal(0, UIntType(1)), styp)
            loc = self._make_loc(sink)
            out.append(Connect(loc, fit_to(value, styp)))
        return out

    def _make_loc(self, sink: _Sink) -> Expr:
        if sink.kind == "instport":
            inst, port = sink.key.split(".", 1)
            return SubField(Ref(inst, UIntType(1)), port, sink.typ)
        return Ref(sink.key, sink.typ)


def _ground(typ: Type) -> Type:
    """Connect-compatible ground type: clock/reset behave as UInt<1>."""
    if isinstance(typ, (UIntType, SIntType)):
        return typ
    return UIntType(typ.bit_width())


def expand_whens(circuit: Circuit, debug: DebugInfo) -> tuple[Circuit, list[str]]:
    """Run ExpandWhens on every module.  Returns (circuit, lint warnings)."""
    modules: dict[str, ModuleIR] = {}
    lint: list[str] = []
    for name, m in circuit.modules.items():
        expander = _ModuleExpander(m, circuit, debug)
        modules[name], warns = expander.expand()
        lint.extend(warns)
    return Circuit(circuit.name, modules, circuit.main, list(circuit.annotations)), lint
