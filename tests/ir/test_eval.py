"""Reference-semantics tests, including hypothesis properties that pin the
evaluator to Python integer arithmetic."""

import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir import expr as E
from repro.ir.eval import ExprInterpreter, eval_prim, interp, literal_raw, mask, to_signed
from repro.ir.ops import OPS
from repro.ir.types import SIntType, UIntType


class TestHelpers:
    def test_mask(self):
        assert mask(0x1FF, 8) == 0xFF
        assert mask(-1, 4) == 0xF

    def test_to_signed(self):
        assert to_signed(0xFF, 8) == -1
        assert to_signed(0x7F, 8) == 127
        assert to_signed(0x80, 8) == -128

    def test_interp(self):
        assert interp(0xFF, UIntType(8)) == 255
        assert interp(0xFF, SIntType(8)) == -1

    def test_literal_raw(self):
        assert literal_raw(E.sint(-1, 8)) == 0xFF
        assert literal_raw(E.uint(5, 8)) == 5


def _binop(op, a, b, wa, wb, signed=False):
    ta = SIntType(wa) if signed else UIntType(wa)
    tb = SIntType(wb) if signed else UIntType(wb)
    ctor = {
        "add": E.add, "sub": E.sub, "mul": E.mul, "div": E.div, "rem": E.rem,
        "and": E.and_, "or": E.or_, "xor": E.xor,
        "lt": E.lt, "leq": E.leq, "gt": E.gt, "geq": E.geq,
        "eq": E.eq, "neq": E.neq, "cat": E.cat,
    }[op]
    e = ctor(E.Ref("a", ta), E.Ref("b", tb))
    return eval_prim(op, e.params, (mask(a, wa), mask(b, wb)), (ta, tb), e.typ), e.typ


u8 = st.integers(min_value=0, max_value=255)
s8 = st.integers(min_value=-128, max_value=127)


class TestUnsignedSemantics:
    @given(u8, u8)
    def test_add(self, a, b):
        raw, typ = _binop("add", a, b, 8, 8)
        assert raw == a + b  # 9 bits never overflow for 8-bit operands

    @given(u8, u8)
    def test_sub_wraps(self, a, b):
        raw, typ = _binop("sub", a, b, 8, 8)
        assert raw == (a - b) & 0x1FF

    @given(u8, u8)
    def test_mul_exact(self, a, b):
        raw, _ = _binop("mul", a, b, 8, 8)
        assert raw == a * b

    @given(u8, u8)
    def test_div(self, a, b):
        raw, _ = _binop("div", a, b, 8, 8)
        assert raw == (a // b if b else 0)

    @given(u8, u8)
    def test_rem(self, a, b):
        raw, _ = _binop("rem", a, b, 8, 8)
        assert raw == (a % b if b else 0)

    @given(u8, u8)
    def test_comparisons(self, a, b):
        assert _binop("lt", a, b, 8, 8)[0] == int(a < b)
        assert _binop("geq", a, b, 8, 8)[0] == int(a >= b)
        assert _binop("eq", a, b, 8, 8)[0] == int(a == b)

    @given(u8, u8)
    def test_bitwise(self, a, b):
        assert _binop("and", a, b, 8, 8)[0] == a & b
        assert _binop("or", a, b, 8, 8)[0] == a | b
        assert _binop("xor", a, b, 8, 8)[0] == a ^ b

    @given(u8, u8)
    def test_cat(self, a, b):
        assert _binop("cat", a, b, 8, 8)[0] == (a << 8) | b


class TestSignedSemantics:
    @given(s8, s8)
    def test_add_signed(self, a, b):
        raw, typ = _binop("add", a, b, 8, 8, signed=True)
        assert to_signed(raw, 9) == a + b

    @given(s8, s8)
    def test_mul_signed(self, a, b):
        raw, _ = _binop("mul", a, b, 8, 8, signed=True)
        assert to_signed(raw, 16) == a * b

    @given(s8, s8)
    def test_div_truncates_toward_zero(self, a, b):
        raw, typ = _binop("div", a, b, 8, 8, signed=True)
        if b == 0:
            assert raw == 0
        else:
            import math

            expected = math.trunc(a / b)
            assert to_signed(raw, 9) == expected

    @given(s8, s8)
    def test_rem_sign_of_dividend(self, a, b):
        raw, _ = _binop("rem", a, b, 8, 8, signed=True)
        if b == 0:
            assert raw == 0
        else:
            # Python's math.fmod semantics: sign follows the dividend.
            import math

            assert to_signed(raw, 8) == int(math.fmod(a, b))

    @given(s8, s8)
    def test_signed_comparison(self, a, b):
        assert _binop("lt", a, b, 8, 8, signed=True)[0] == int(a < b)


class TestUnaryAndMisc:
    def test_not(self):
        t = UIntType(4)
        assert eval_prim("not", (), (0b1010,), (t,), t) == 0b0101

    def test_neg(self):
        t = UIntType(4)
        assert eval_prim("neg", (), (3,), (t,), SIntType(5)) == mask(-3, 5)

    def test_reductions(self):
        t = UIntType(4)
        one = UIntType(1)
        assert eval_prim("andr", (), (0xF,), (t,), one) == 1
        assert eval_prim("andr", (), (0xE,), (t,), one) == 0
        assert eval_prim("orr", (), (0,), (t,), one) == 0
        assert eval_prim("orr", (), (2,), (t,), one) == 1
        assert eval_prim("xorr", (), (0b1011,), (t,), one) == 1
        assert eval_prim("xorr", (), (0b1001,), (t,), one) == 0

    def test_bits(self):
        t = UIntType(8)
        assert eval_prim("bits", (5, 2), (0b10110100,), (t,), UIntType(4)) == 0b1101

    def test_pad_sign_extends(self):
        assert eval_prim("pad", (8,), (0xF,), (SIntType(4),), SIntType(8)) == 0xFF

    def test_pad_zero_extends(self):
        assert eval_prim("pad", (8,), (0xF,), (UIntType(4),), UIntType(8)) == 0x0F

    def test_static_shifts(self):
        t = UIntType(4)
        assert eval_prim("shl", (2,), (0b1011,), (t,), UIntType(6)) == 0b101100
        assert eval_prim("shr", (2,), (0b1011,), (t,), UIntType(2)) == 0b10

    def test_dynamic_shift_truncates(self):
        t = UIntType(4)
        assert eval_prim("dshl", (), (0b1011, 2), (t, UIntType(2)), t) == 0b1100

    def test_dshr_arithmetic_for_signed(self):
        t = SIntType(4)
        # -4 >> 1 == -2 arithmetic
        assert to_signed(eval_prim("dshr", (), (mask(-4, 4), 1), (t, UIntType(1)), t), 4) == -2

    def test_mux(self):
        t = UIntType(8)
        one = UIntType(1)
        assert eval_prim("mux", (), (1, 10, 20), (one, t, t), t) == 10
        assert eval_prim("mux", (), (0, 10, 20), (one, t, t), t) == 20

    def test_unknown_op_raises(self):
        with pytest.raises(ValueError):
            eval_prim("bogus", (), (), (), UIntType(1))


# -- every row of the op table against Python integer arithmetic ------------
#
# The expected values below are written independently of ``repro.ir.ops``:
# operands are drawn as the integers they denote (negative for SInt), each
# oracle computes the exact mathematical result, and the test reduces it
# modulo 2**width of the op's result type.


def _trunc_div(x, y):
    q = x // y  # floor; RTL division truncates toward zero
    return q + 1 if q < 0 and q * y != x else q


def _slice(raw, width, hi, lo):
    digits = format(raw, f"0{width}b")  # MSB first
    return int(digits[width - 1 - hi : width - lo], 2)


def _cmp(fn):
    return lambda x, y, **_: int(fn(x, y))


# op -> oracle(*values, raws=, widths=, params=) giving the exact result.
ORACLES = {
    "add": lambda x, y, **_: x + y,
    "sub": lambda x, y, **_: x - y,
    "mul": lambda x, y, **_: x * y,
    "div": lambda x, y, **_: _trunc_div(x, y) if y else 0,
    "rem": lambda x, y, **_: x - y * _trunc_div(x, y) if y else 0,
    "lt": _cmp(operator.lt),
    "leq": _cmp(operator.le),
    "gt": _cmp(operator.gt),
    "geq": _cmp(operator.ge),
    "eq": _cmp(operator.eq),
    "neq": _cmp(operator.ne),
    "and": lambda x, y, **_: x & y,
    "or": lambda x, y, **_: x | y,
    "xor": lambda x, y, **_: x ^ y,
    "not": lambda x, **_: -x - 1,
    "neg": lambda x, **_: -x,
    "andr": lambda x, raws, widths, **_: int(raws[0] == 2 ** widths[0] - 1),
    "orr": lambda x, raws, **_: int(raws[0] != 0),
    "xorr": lambda x, raws, **_: bin(raws[0]).count("1") % 2,
    "cat": lambda x, y, raws, widths, **_: raws[0] * 2 ** widths[1] + raws[1],
    "bits": lambda x, raws, widths, params: _slice(raws[0], widths[0], *params),
    "pad": lambda x, **_: x,
    "shl": lambda x, params, **_: x * 2 ** params[0],
    "shr": lambda x, params, **_: x // 2 ** params[0],
    "dshl": lambda x, n, raws, **_: x * 2 ** raws[1],
    "dshr": lambda x, n, raws, **_: x // 2 ** raws[1],
    "mux": lambda c, x, y, **_: x if c else y,
    "as_uint": lambda x, raws, **_: raws[0],
    "as_sint": lambda x, raws, **_: raws[0],
}

_UNARY = {
    "not": E.not_, "neg": E.neg, "andr": E.andr, "orr": E.orr,
    "xorr": E.xorr, "as_uint": E.as_uint, "as_sint": E.as_sint,
}
# Widths 1, around one 64-bit lane, and beyond it.
_widths = st.sampled_from([1, 2, 3, 7, 8, 31, 63, 64, 65, 100, 128])


def _operand(draw, name, signed, width):
    typ = SIntType(width) if signed else UIntType(width)
    if signed:
        value = draw(st.integers(-(2 ** (width - 1)), 2 ** (width - 1) - 1))
    else:
        value = draw(st.integers(0, 2**width - 1))
    return E.Ref(name, typ), value


def _draw_op(draw, op):
    """A PrimOp over fresh operands, plus the values they denote."""
    signed = draw(st.booleans())
    a, x = _operand(draw, "a", signed, draw(_widths))
    if op in _UNARY:
        return _UNARY[op](a), [x]
    if op == "bits":
        hi = draw(st.integers(0, a.width() - 1))
        return E.bits(a, hi, draw(st.integers(0, hi))), [x]
    if op in ("pad", "shl", "shr"):
        return getattr(E, op)(a, draw(st.integers(0, 140))), [x]
    if op in ("dshl", "dshr"):
        # Amounts reach past the operand width and past 256.
        n, y = _operand(draw, "n", False, draw(st.sampled_from([1, 4, 8, 10])))
        return getattr(E, op)(a, n), [x, y]
    b, y = _operand(draw, "b", signed, draw(_widths))
    if op == "mux":
        c, z = _operand(draw, "c", False, 1)
        return E.mux(c, a, b), [z, x, y]
    if op == "cat":
        return E.cat(a, b), [x, y]
    return E.binop(op, a, b), [x, y]


class TestEveryRowAgainstIntegers:
    def test_every_row_has_an_oracle(self):
        assert set(ORACLES) == set(OPS)

    @pytest.mark.parametrize("op", sorted(ORACLES))
    @given(data=st.data())
    def test_row(self, op, data):
        e, values = _draw_op(data.draw, op)
        widths = [x.width() for x in e.args]
        raws = [v % 2**w for v, w in zip(values, widths, strict=True)]
        types = tuple(x.typ for x in e.args)
        expected = ORACLES[op](*values, raws=raws, widths=widths, params=e.params)
        got = eval_prim(op, e.params, tuple(raws), types, e.typ)
        assert got == expected % 2 ** e.width(), f"{e} over {values}"


class TestExprInterpreter:
    def test_interprets_tree(self):
        env = {"a": 3, "b": 5}
        it = ExprInterpreter(lambda n: env[n])
        e = E.add(E.mul(E.Ref("a", UIntType(4)), E.Ref("b", UIntType(4))), E.uint(1, 8))
        assert it.eval(e) == 16

    def test_memread(self):
        mems = {"m": [10, 20, 30]}
        it = ExprInterpreter(lambda n: 2, lambda m, a: mems[m][a])
        e = E.MemRead("m", E.Ref("addr", UIntType(2)), UIntType(8))
        assert it.eval(e) == 30

    def test_memread_without_handler_raises(self):
        it = ExprInterpreter(lambda n: 0)
        e = E.MemRead("m", E.uint(0, 2), UIntType(8))
        with pytest.raises(ValueError):
            it.eval(e)
