"""SessionOptions: one configuration record across Simulator,
ManyWorldsSimulator, ShardSession and the hub, passed only as ``options=``."""

import pytest

import repro
from repro.hub import DebugHub
from repro.options import SessionOptions
from repro.shard import ShardSession
from repro.sim import ManyWorldsSimulator, Simulator
from tests.helpers import Accumulator, Counter


@pytest.mark.parametrize(
    ("build", "legacy"),
    [
        (lambda d, kw: Simulator(d.low, **kw), {"snapshots": 8}),
        (lambda d, kw: ManyWorldsSimulator(d.low, 2, **kw), {"snapshots": 8}),
        (lambda d, kw: ShardSession(d, **kw), {"fast": False}),
        (lambda d, kw: DebugHub(d, **kw), {"snapshots": 8}),
    ],
    ids=["Simulator", "ManyWorldsSimulator", "ShardSession", "DebugHub"],
)
def test_legacy_keyword_is_a_type_error(build, legacy):
    """A session knob is set through ``options=`` only: a per-knob keyword
    on a constructor is a ``TypeError``."""
    d = repro.compile(Counter())
    with pytest.raises(TypeError, match="unexpected keyword"):
        build(d, legacy)


class TestSimulator:
    def test_options_equivalent_without_warning(self):
        d = repro.compile(Counter())
        sim = Simulator(d.low, options=SessionOptions(snapshots=8))
        assert sim.timeline is not None


class TestShardSession:
    def test_options_flow_through(self):
        d = repro.compile(Accumulator())
        session = ShardSession(d, options=SessionOptions(fast=False))
        assert session.fast is False
        assert session.options.fast is False


class TestHub:
    def test_options_configure_sessions(self):
        d = repro.compile(Counter())
        hub = DebugHub(d, options=SessionOptions(snapshots=16))
        with hub:
            assert hub.options.snapshots == 16
            # The hub vets the design once; sessions never re-gate.
            assert hub.options.strict == "off"
            ds = hub.attach()
            assert ds.session._sim.timeline is not None
