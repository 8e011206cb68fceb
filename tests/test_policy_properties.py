"""Property tests (hypothesis): the policy extraction drifts nothing.

Two guarantees the refactor must keep forever:

* ``BernoulliPolicy(p=1.0)`` is *event-identical* to ``FloodPolicy`` —
  same transmissions, drops and deliveries in the same rounds;
* ``BernoulliPolicy(p)`` is bit-identical to the thesis-named
  :class:`repro.core.protocol.StochasticProtocol` for any p and seed —
  the extraction changed the code's shape, not one bit of its behaviour.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packet import BROADCAST
from repro.core.protocol import StochasticProtocol
from repro.faults import FaultConfig
from repro.noc.engine import NocSimulator
from repro.noc.tile import IPCore
from repro.noc.topology import Mesh2D
from repro.noc.trace import TraceRecorder
from repro.policies import BernoulliPolicy, FloodPolicy


class _Rumor(IPCore):
    def __init__(self, ttl: int) -> None:
        self.ttl = ttl

    def on_start(self, ctx) -> None:
        ctx.send(BROADCAST, b"rumor", ttl=self.ttl)


def _traced_run(protocol, rows, cols, seed, fault_config, max_rounds=24):
    """Run one seeded broadcast and return (trace events, result tuple)."""
    recorder = TraceRecorder()
    sim = NocSimulator(
        Mesh2D(rows, cols),
        protocol,
        fault_config,
        seed=seed,
        default_ttl=12,
        observer=recorder,
    )
    sim.mount(0, _Rumor(ttl=12))
    result = sim.run(max_rounds, until=lambda s: False)
    return recorder.events, (
        result.rounds,
        result.time_s,
        result.energy_j,
        result.stats.summary(),
        sorted(result.stats.per_round_transmissions.items()),
        sorted(result.stats.per_round_informed.items()),
    )


@given(
    rows=st.integers(min_value=2, max_value=4),
    cols=st.integers(min_value=2, max_value=4),
    seed=st.integers(0, 10_000),
    p_upset=st.floats(min_value=0.0, max_value=0.4),
)
@settings(max_examples=25, deadline=None)
def test_bernoulli_p1_is_event_identical_to_flood(rows, cols, seed, p_upset):
    faults = FaultConfig(p_upset=p_upset)
    flood_events, flood_result = _traced_run(
        FloodPolicy(), rows, cols, seed, faults
    )
    bern_events, bern_result = _traced_run(
        BernoulliPolicy(1.0), rows, cols, seed, faults
    )
    assert bern_events == flood_events
    assert bern_result == flood_result


@given(
    p=st.floats(min_value=0.05, max_value=1.0),
    seed=st.integers(0, 10_000),
    p_upset=st.floats(min_value=0.0, max_value=0.4),
    sigma=st.floats(min_value=0.0, max_value=0.3),
)
@settings(max_examples=25, deadline=None)
def test_bernoulli_policy_matches_prerefactor_inlined_path(
    p, seed, p_upset, sigma
):
    """The thesis-named protocol object and the registered policy run one
    send rule: equal traces and results, under upsets and clock skew,
    mean the name changes nothing of the behaviour or the RNG stream.
    """
    faults = FaultConfig(p_upset=p_upset, sigma_synchr=sigma)
    legacy_events, legacy_result = _traced_run(
        StochasticProtocol(p), 3, 4, seed, faults
    )
    policy_events, policy_result = _traced_run(
        BernoulliPolicy(p), 3, 4, seed, faults
    )
    assert policy_events == legacy_events
    assert policy_result == legacy_result
