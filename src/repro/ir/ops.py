"""The primitive-op table: the one definition of every IR operator.

Signal values are stored as unsigned masked integers in ``[0, 2**width)``.
Each row of :data:`OPS` gives, per operand, whether the op reads the raw
masked value (``"r"``) or its value (``"v"``: the two's-complement
interpretation when the operand is SInt-typed, the raw value otherwise),
plus one Python expression template whose ``str.format`` fields are:

* ``{a[i]}`` — operand ``i``, read as its kind says;
* ``{M}`` — the result mask ``2**width - 1``;
* ``{p[i]}`` — static parameter ``i`` (``bits`` hi/lo, shift amounts);
* ``{w[i]}`` / ``{m[i]}`` — operand ``i``'s width and mask.

Division and remainder by zero evaluate to 0, so simulation is total (as in
most RTL simulators' 2-state mode).  Dynamic shift amounts saturate at 256
to bound the Python shift, which is exact for operands up to 256 bits.

``repro.ir.eval.eval_prim`` evaluates these templates and the scalar
simulator codegen (``repro.sim.compiler``) prints them; the Verilog emitter,
the enable-condition renderer and the vector codegen take their operator
symbols from :data:`INFIX`.  This module imports nothing from ``repro``.
"""

from __future__ import annotations


def to_signed(raw: int, width: int) -> int:
    """Interpret a masked value as two's complement."""
    return raw - (1 << width) if raw & (1 << (width - 1)) else raw


def _div(a: int, b: int) -> int:
    """Division truncating toward zero; ``x / 0 == 0``."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _rem(a: int, b: int) -> int:
    """Remainder with the sign of the dividend; ``x % 0 == 0``."""
    if b == 0:
        return 0
    r = abs(a) % abs(b)
    return -r if a < 0 else r


def _mins(x: int) -> int:
    """Saturate a dynamic shift amount."""
    return x if x < 256 else 256


#: The names templates call, bound in every namespace that runs them
#: (``_sg`` is what the codegen prints for a signed operand read).
HELPERS = {"_sg": to_signed, "_div": _div, "_rem": _rem, "_mins": _mins}

#: Infix symbol of each binary op, shared by Python and Verilog.  The static
#: shifts take their right-hand side from ``p[0]``; Verilog spells a signed
#: right shift ``>>>``.
INFIX = {
    "add": "+", "sub": "-", "mul": "*", "div": "/", "rem": "%",
    "lt": "<", "leq": "<=", "gt": ">", "geq": ">=", "eq": "==", "neq": "!=",
    "and": "&", "or": "|", "xor": "^",
    "shl": "<<", "shr": ">>", "dshl": "<<", "dshr": ">>",
}


def _masked(op: str) -> str:
    return "(({a[0]} " + INFIX[op] + " {a[1]}) & {M})"


def _compare(op: str) -> str:
    return "(1 if {a[0]} " + INFIX[op] + " {a[1]} else 0)"


#: op -> (operand kinds, expression template).
OPS: dict[str, tuple[str, str]] = {
    "add": ("vv", _masked("add")),
    "sub": ("vv", _masked("sub")),
    "mul": ("vv", _masked("mul")),
    "div": ("vv", "(_div({a[0]}, {a[1]}) & {M})"),
    "rem": ("vv", "(_rem({a[0]}, {a[1]}) & {M})"),
    "lt": ("vv", _compare("lt")),
    "leq": ("vv", _compare("leq")),
    "gt": ("vv", _compare("gt")),
    "geq": ("vv", _compare("geq")),
    "eq": ("vv", _compare("eq")),
    "neq": ("vv", _compare("neq")),
    "and": ("vv", _masked("and")),
    "or": ("vv", _masked("or")),
    "xor": ("vv", _masked("xor")),
    "not": ("v", "((~{a[0]}) & {M})"),
    "neg": ("v", "((-{a[0]}) & {M})"),
    "andr": ("r", "(1 if {a[0]} == {m[0]} else 0)"),
    "orr": ("r", "(1 if {a[0]} != 0 else 0)"),
    "xorr": ("r", "(({a[0]}).bit_count() & 1)"),
    "cat": ("rr", "(({a[0]} << {w[1]}) | {a[1]})"),
    "bits": ("r", "(({a[0]} >> {p[1]}) & {M})"),
    "pad": ("v", "({a[0]} & {M})"),
    "shl": ("v", "(({a[0]} << {p[0]}) & {M})"),
    "shr": ("v", "(({a[0]} >> {p[0]}) & {M})"),
    # Shift amounts are unsigned (FIRRTL requires UInt): read them raw.
    "dshl": ("vr", "(({a[0]} << _mins({a[1]})) & {M})"),
    "dshr": ("vr", "(({a[0]} >> _mins({a[1]})) & {M})"),
    "mux": ("rvv", "(({a[1]} & {M}) if {a[0]} else ({a[2]} & {M}))"),
    "as_uint": ("r", "{a[0]}"),
    "as_sint": ("r", "{a[0]}"),
}
