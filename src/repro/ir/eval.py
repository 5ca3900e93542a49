"""Reference evaluation of IR expressions.

Signal values are stored as unsigned masked integers in ``[0, 2**width)``.
:func:`eval_prim` evaluates the expression template of an op's row in the
primitive-op table (``repro.ir.ops``), the same template the simulator
codegen prints, so constant propagation, the debug runtime and the compiled
simulator share one definition of every op.  ``tests/ir/test_eval.py``
checks each row against Python integer arithmetic.
"""

from __future__ import annotations

from collections.abc import Callable

from .expr import Expr, Literal, MemRead, PrimOp, Ref, SubField, SubIndex
from .ops import HELPERS, OPS, to_signed
from .types import SIntType, Type


def mask(value: int, width: int) -> int:
    """Truncate to ``width`` bits (unsigned representation)."""
    return value & ((1 << width) - 1)


def interp(raw: int, typ: Type) -> int:
    """Interpret a raw masked value according to its type."""
    if isinstance(typ, SIntType):
        return to_signed(raw, typ.bit_width())
    return raw


def literal_raw(lit: Literal) -> int:
    """The unsigned-masked storage representation of a literal."""
    return mask(lit.value, lit.typ.bit_width())


# A template's fields bound to the arguments of its compiled function.
_SYMBOLIC = {
    "a": ("a[0]", "a[1]", "a[2]"),
    "p": ("p[0]", "p[1]"),
    "w": ("w[0]", "w[1]", "w[2]"),
    "m": tuple(f"((1 << w[{i}]) - 1)" for i in range(3)),
    "M": "M",
}
_HELPERS = dict(HELPERS)  # eval() adds __builtins__ to its globals
# op -> (operand kinds, fn(a, p, w, M)), each template compiled once.
_EVALUATORS: dict[str, tuple[str, Callable[..., int]]] = {
    op: (kinds, eval(f"lambda a, p, w, M: {t.format(**_SYMBOLIC)}", _HELPERS))
    for op, (kinds, t) in OPS.items()
}


def eval_prim(
    op: str,
    params: tuple[int, ...],
    raw_args: tuple[int, ...],
    arg_types: tuple[Type, ...],
    result_type: Type,
) -> int:
    """Evaluate one primitive op over raw (masked) argument values.

    Returns the raw masked result.
    """
    if op not in _EVALUATORS:
        raise ValueError(f"unknown primitive op {op!r}")
    kinds, fn = _EVALUATORS[op]
    args = tuple(
        interp(r, t) if k == "v" else r
        for k, r, t in zip(kinds, raw_args, arg_types, strict=False)
    )
    widths = tuple(t.bit_width() for t in arg_types)
    return fn(args, params, widths, (1 << result_type.bit_width()) - 1)


class ExprInterpreter:
    """Interpret IR expressions against an environment of raw signal values.

    Used by the High-form reference interpreter in tests and by the debug
    runtime's enable-condition fallback; the production simulator compiles
    expressions to Python source for speed instead (``repro.sim.compiler``).
    """

    def __init__(self, read_ref, read_mem=None):
        self._read_ref = read_ref
        self._read_mem = read_mem

    def eval(self, e: Expr) -> int:
        if isinstance(e, Literal):
            return literal_raw(e)
        if isinstance(e, Ref):
            return self._read_ref(e.name)
        if isinstance(e, SubField):
            # Only instance port access survives to evaluation; reads use
            # the dotted path.
            return self._read_ref(f"{_path_of(e)}")
        if isinstance(e, SubIndex):
            return self._read_ref(f"{_path_of(e)}")
        if isinstance(e, MemRead):
            if self._read_mem is None:
                raise ValueError("memory reads not supported here")
            return self._read_mem(e.mem, self.eval(e.addr))
        if isinstance(e, PrimOp):
            raw_args = tuple(self.eval(a) for a in e.args)
            arg_types = tuple(a.typ for a in e.args)
            return eval_prim(e.op, e.params, raw_args, arg_types, e.typ)
        raise TypeError(f"cannot evaluate {e!r}")


def _path_of(e: Expr) -> str:
    if isinstance(e, Ref):
        return e.name
    if isinstance(e, SubField):
        return f"{_path_of(e.expr)}.{e.name}"
    if isinstance(e, SubIndex):
        return f"{_path_of(e.expr)}[{e.index}]"
    raise TypeError(f"not a path expression: {e!r}")
