"""Many-worlds vectorization: N scenario sweeps in one numpy-batched run.

``repro.sim.manyworlds`` stacks N stimulus scenarios ("worlds") as the
columns of one ``(n_signals, N)`` uint64 matrix and advances all of them
per cycle with fused numpy column kernels (``compile_vector``).  The win
is not SIMD width — it is amortization: one python-level pass over the
cone statements per cycle instead of N, with per-op constants pre-bound
and provably-redundant masks elided at codegen time.

This benchmark runs the *same* N-seed sweep both ways — N sequential
``Simulator`` runs sharing one hot ``CompiledDesign`` vs one
``ManyWorldsSimulator`` at N worlds — and reports aggregate cycles/second.

Acceptance bars:

* >= 5x aggregate throughput at N=32 worlds vs 32 sequential runs on the
  24-stage pipeline — asserted in smoke too (smoke only shrinks the cycle
  count; the world count stays at 32 because the bar is about per-cycle
  amortization, which a smaller N would dilute);
* per-world ``state_digest`` bit-identical to the sequential reference
  on **every** store backend (list / array / numpy scalar lanes),
  asserted always — the throughput knob is never a semantics knob.
"""

from __future__ import annotations

import os

import repro
import repro.hgf as hgf
from repro.options import SessionOptions
from repro.sim import Simulator
from repro.sim.compiler import compile_design
from repro.sim.manyworlds import ManyWorldsSimulator, make_sweep_stimulus
from repro.sim.store import numpy_available
from repro.shard.spec import ShardSpec
from repro.shard.worker import make_stimulus

import pytest

from conftest import best_of

_SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
# The bar is pinned at N=32 even in smoke (ISSUE acceptance: asserted in
# CI smoke); smoke only shrinks the cycle count and repeat count.
_WORLDS = 32
_CYCLES = 500 if _SMOKE else 1000
_STAGES = 24
_BAR = 5.0
_PARITY_WORLDS = 4 if _SMOKE else 8
_PARITY_CYCLES = 60 if _SMOKE else 200


class _ManyWorldsPipe(hgf.Module):
    """The shard-farm pipeline (bench_shard's compute-bound scenario):
    per-stage xor+add+slice keeps each cycle arithmetic-dominated, so the
    ratio below measures simulation throughput, not harness overhead."""

    def __init__(self, stages: int = _STAGES, width: int = 32):
        super().__init__()
        self.x = self.input("x", width)
        self.o = self.output("o", width)
        mask = (1 << width) - 1
        acc = self.x
        for k in range(stages):
            r = self.reg(f"p{k}", width, init=(k * 2654435761) & mask)
            r <<= ((acc ^ r) + self.lit((2 * k + 1) & mask, width))[width - 1:0]
            acc = r
        self.o <<= acc


def _sequential_digests(design, compiled, seeds, cycles, store="array"):
    """Reference: one seeded Simulator run per world, shard seed contract."""
    digests = []
    for seed in seeds:
        sim = Simulator(
            design.low,
            compiled=compiled,
            options=SessionOptions(store=store, fast=True),
        )
        stim = make_stimulus(sim, ShardSpec(seed, seed=seed, cycles=0))
        sim.reset(1)
        sim.run_cycles(cycles, stimulus=stim)
        digests.append(sim.state_digest())
    return digests


@pytest.mark.skipif(not numpy_available(), reason="many-worlds needs numpy")
def test_manyworlds_throughput(capsys):
    """The tentpole bar: >= 5x aggregate cycles/s at N=32 (non-smoke)."""
    design = repro.compile(_ManyWorldsPipe())
    compiled = compile_design(design.low, None)
    seeds = list(range(_WORLDS))

    def seq_sweep():
        return _sequential_digests(design, compiled, seeds, _CYCLES)

    def vec_sweep():
        mw = ManyWorldsSimulator(design.low, _WORLDS, compiled=compiled)
        stim = make_sweep_stimulus(mw, seeds)
        mw.reset(1)
        mw.run_cycles(_CYCLES, stimulus=stim)
        return [mw.state_digest(k) for k in range(_WORLDS)]

    # Parity first (asserted always): same seeds, same per-world bits.
    assert vec_sweep() == seq_sweep(), "many-worlds diverged from reference"

    # The >=5x bar is a ratio assertion and holds in smoke too, so both
    # sides take the best of 2 even there — one sample flakes on load.
    seq_wall = best_of(seq_sweep, n=2)
    vec_wall = best_of(vec_sweep, n=2)
    total_cycles = _WORLDS * _CYCLES
    speedup = seq_wall / vec_wall
    with capsys.disabled():
        print(
            f"\n=== many-worlds throughput ({_WORLDS} worlds x {_CYCLES} "
            f"cycles, {_STAGES}-stage pipeline) ==="
        )
        print(f"{'':>14} {'wall':>10} {'agg cycles/s':>14}")
        print(
            f"{'sequential':>14} {seq_wall * 1e3:>8.1f}ms "
            f"{total_cycles / seq_wall:>14,.0f}"
        )
        print(
            f"{'many-worlds':>14} {vec_wall * 1e3:>8.1f}ms "
            f"{total_cycles / vec_wall:>14,.0f}"
        )
        print(f"speedup: {speedup:.2f}x (bar: >= {_BAR:.0f}x)")
    assert speedup >= _BAR, (
        f"many-worlds only {speedup:.2f}x over sequential at N={_WORLDS}"
    )


@pytest.mark.skipif(not numpy_available(), reason="many-worlds needs numpy")
def test_manyworlds_digest_parity_all_backends(capsys):
    """Per-world digests match the sequential reference on every scalar
    store backend (the matrix backend vs each of list/array/numpy)."""
    design = repro.compile(_ManyWorldsPipe(stages=6))
    compiled = compile_design(design.low, None)
    seeds = [7 * k + 3 for k in range(_PARITY_WORLDS)]

    mw = ManyWorldsSimulator(design.low, _PARITY_WORLDS, compiled=compiled)
    stim = make_sweep_stimulus(mw, seeds)
    mw.reset(1)
    mw.run_cycles(_PARITY_CYCLES, stimulus=stim)
    vec = [mw.state_digest(k) for k in range(_PARITY_WORLDS)]

    backends = ["list", "array", "numpy"]
    for store in backends:
        ref = _sequential_digests(
            design, compiled, seeds, _PARITY_CYCLES, store=store
        )
        assert ref == vec, f"{store} reference diverged from many-worlds"
    with capsys.disabled():
        print(
            f"\n=== many-worlds parity: {_PARITY_WORLDS} worlds "
            f"bit-identical on {'/'.join(backends)} ===\nok"
        )
