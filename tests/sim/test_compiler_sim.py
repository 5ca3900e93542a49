"""Tests for the simulator's codegen: semantics vs the reference
interpreter, comb-loop detection, and property-based op equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.hgf as hgf
from repro.ir import expr as E
from repro.ir.eval import eval_prim, mask
from repro.ir.types import SIntType, UIntType
from repro.sim import CombLoopError, Simulator
from repro.sim.compiler import compile_design


class TestCombLoop:
    def test_loop_detected(self):
        class M(hgf.Module):
            def __init__(self):
                super().__init__()
                self.o = self.output("o", 8)
                a = self.wire("a", 8)
                b = self.wire("b", 8)
                a <<= (b + 1)[7:0]
                b <<= (a + 1)[7:0]
                self.o <<= a

        d = repro.compile(M())
        with pytest.raises(CombLoopError, match="combinational loop"):
            compile_design(d.low)

    def test_register_breaks_loop(self):
        class M(hgf.Module):
            def __init__(self):
                super().__init__()
                self.o = self.output("o", 8)
                r = self.reg("r", 8, init=0)
                r <<= (r + 1)[7:0]  # register self-feedback is fine
                self.o <<= r

        d = repro.compile(M())
        compile_design(d.low)  # should not raise


_OP_CASES = [
    ("add", 2), ("sub", 2), ("mul", 2), ("div", 2), ("rem", 2),
    ("lt", 2), ("leq", 2), ("gt", 2), ("geq", 2), ("eq", 2), ("neq", 2),
    ("and", 2), ("or", 2), ("xor", 2), ("cat", 2),
    ("dshl", 2), ("dshr", 2),
    ("not", 1), ("neg", 1), ("andr", 1), ("orr", 1), ("xorr", 1),
]


def _build_op_module(op: str, nargs: int, signed: bool):
    """A module computing one op over its inputs, output padded wide."""

    class OpMod(hgf.Module):
        def __init__(self):
            super().__init__()
            t = hgf.SInt(8) if signed else hgf.UInt(8)
            self.a = self.input("a", typ=t)
            self.b = self.input("b", typ=t)
            self.o = self.output("o", 32)
            import repro.ir.expr as EE

            ctor = {
                "add": EE.add, "sub": EE.sub, "mul": EE.mul, "div": EE.div,
                "rem": EE.rem, "lt": EE.lt, "leq": EE.leq, "gt": EE.gt,
                "geq": EE.geq, "eq": EE.eq, "neq": EE.neq, "and": EE.and_,
                "or": EE.or_, "xor": EE.xor, "cat": EE.cat, "dshl": EE.dshl,
                "dshr": EE.dshr, "not": EE.not_, "neg": EE.neg,
                "andr": EE.andr, "orr": EE.orr, "xorr": EE.xorr,
            }[op]
            args = (self.a.expr, self.b.expr)[:nargs]
            result = hgf.Value(ctor(*args), self._mb)
            self.o <<= result.as_uint().pad(32) if result.width < 32 else result.as_uint()[31:0]

    return OpMod()


class TestOpEquivalence:
    """The compiled simulator must agree with eval_prim on every op."""

    @pytest.mark.parametrize("op,nargs", _OP_CASES)
    @pytest.mark.parametrize("signed", [False, True])
    def test_compiled_matches_reference(self, op, nargs, signed):
        if signed and op == "cat":
            pytest.skip("cat result is unsigned; covered by unsigned case")
        mod = _build_op_module(op, nargs, signed)
        d = repro.compile(mod, debug=True)  # keep everything; no folding
        sim = Simulator(d.low)
        sim.reset()
        t = SIntType(8) if signed else UIntType(8)
        import repro.ir.expr as EE

        ctor = {
            "add": EE.add, "sub": EE.sub, "mul": EE.mul, "div": EE.div,
            "rem": EE.rem, "lt": EE.lt, "leq": EE.leq, "gt": EE.gt,
            "geq": EE.geq, "eq": EE.eq, "neq": EE.neq, "and": EE.and_,
            "or": EE.or_, "xor": EE.xor, "cat": EE.cat, "dshl": EE.dshl,
            "dshr": EE.dshr, "not": EE.not_, "neg": EE.neg,
            "andr": EE.andr, "orr": EE.orr, "xorr": EE.xorr,
        }[op]
        ref_expr = ctor(*(E.Ref("a", t), E.Ref("b", t))[:nargs])
        for a, b in [(0, 0), (1, 2), (255, 1), (128, 128), (200, 0), (3, 255), (85, 170)]:
            sim.poke("a", a)
            sim.poke("b", b)
            raw_args = (mask(a, 8), mask(b, 8))[:nargs]
            expected = eval_prim(
                ref_expr.op, ref_expr.params, raw_args, (t,) * nargs, ref_expr.typ
            )
            # output is the op result as_uint, zero-padded/truncated to 32
            w = ref_expr.typ.bit_width()
            expected32 = expected & 0xFFFFFFFF if w >= 32 else expected
            got = sim.peek("o")
            assert got == expected32, f"{op}(a={a}, b={b}) signed={signed}"


class TestRandomizedDatapath:
    @given(
        a=st.integers(0, 255),
        b=st.integers(0, 255),
        c=st.integers(0, 255),
    )
    @settings(max_examples=40, deadline=None)
    def test_expression_tree(self, a, b, c):
        class M(hgf.Module):
            def __init__(self):
                super().__init__()
                self.a = self.input("a", 8)
                self.b = self.input("b", 8)
                self.c = self.input("c", 8)
                self.o = self.output("o", 16)
                x = (self.a + self.b) * 3
                y = hgf.mux(self.c[0], x[9:0], (self.a ^ self.c).pad(10))
                self.o <<= (y + (self.b >> 2)).pad(16)[15:0]

        key = "tree"
        sim = _CACHED.get(key)
        if sim is None:
            d = repro.compile(M())
            sim = Simulator(d.low)
            sim.reset()
            _CACHED[key] = sim
        sim.poke("a", a)
        sim.poke("b", b)
        sim.poke("c", c)
        x = ((a + b) * 3) & 0x3FF
        y = x if c & 1 else (a ^ c)
        expected = (y + (b >> 2)) & 0xFFFF
        assert sim.peek("o") == expected


_CACHED: dict = {}


class TestGeneratedSource:
    def test_sources_exposed(self):
        from tests.helpers import Counter

        d = repro.compile(Counter())
        cd = compile_design(d.low)
        assert "def comb(v, w, m):" in cd.comb_source
        assert "def tick(v, w, m, time, _jw, _ch):" in cd.tick_source

    def test_instance_port_wiring(self):
        from tests.helpers import TwoLeaves

        d = repro.compile(TwoLeaves())
        sim = Simulator(d.low)
        sim.reset()
        sim.poke("x", 4)
        # a.i = 4 -> a.o = 3; b.i = 4^5=1 -> b.o = 1
        assert sim.get_value("TwoLeaves.a.i") == 4
        assert sim.get_value("TwoLeaves.b.i") == 1
        assert sim.peek("y") == (3 << 4) | 1
