"""Tests for the pluggable forwarding-policy subsystem (repro.policies)."""

import pickle

import numpy as np
import pytest

from repro.core.packet import BROADCAST
from repro.core.protocol import StochasticProtocol
from repro.experiments import policy_compare
from repro.experiments.common import ExperimentOptions
from repro.faults import FaultConfig
from repro.noc.config import SimConfig
from repro.noc.engine import NocSimulator
from repro.noc.tile import IPCore, TileContext
from repro.noc.topology import Mesh2D
from repro.policies import (
    POLICY_REGISTRY,
    AdaptiveProbabilityPolicy,
    BernoulliPolicy,
    CounterGossipPolicy,
    FloodPolicy,
    ForwardingPolicy,
    PolicySpec,
    build_policy,
    make_policy,
    register_policy,
)


class Seeder(IPCore):
    """Emits one broadcast rumor at round 0."""

    def __init__(self, ttl: int = 32) -> None:
        self.ttl = ttl
        self.sent = False

    def on_start(self, ctx: TileContext) -> None:
        ctx.send(BROADCAST, b"rumor", ttl=self.ttl)
        self.sent = True

    @property
    def complete(self) -> bool:
        return self.sent


def broadcast_run(protocol, side=4, seed=7, ttl=32, max_rounds=None, **kwargs):
    """One seeded broadcast-saturation run; returns (simulator, result)."""
    mesh = Mesh2D(side, side)
    sim = NocSimulator(mesh, protocol, seed=seed, default_ttl=ttl, **kwargs)
    sim.mount(0, Seeder(ttl=ttl))
    n = mesh.n_tiles
    result = sim.run(
        max_rounds if max_rounds is not None else ttl + 8,
        until=lambda s: len(s.informed_tiles()) == n,
    )
    return sim, result


class TestRegistry:
    def test_stock_policies_registered(self):
        assert {"bernoulli", "flood", "counter", "adaptive"} <= set(
            POLICY_REGISTRY
        )

    def test_make_and_build_roundtrip(self):
        policy = make_policy("counter", k=3, forward_probability=0.8)
        assert isinstance(policy, CounterGossipPolicy)
        rebuilt = build_policy(policy.spec)
        assert rebuilt.spec == policy.spec
        assert rebuilt is not policy

    def test_unknown_kind_is_loud(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            build_policy(PolicySpec.of("telepathy"))
        with pytest.raises(TypeError, match="PolicySpec"):
            build_policy("bernoulli")

    def test_duplicate_kind_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_policy
            class Impostor(ForwardingPolicy):
                kind = "flood"

    def test_unnamed_kind_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):

            @register_policy
            class Nameless(ForwardingPolicy):
                pass


class TestPolicySpec:
    def test_of_sorts_params(self):
        spec = PolicySpec.of("counter", k=2, forward_probability=1.0)
        assert spec.params == (("forward_probability", 1.0), ("k", 2))
        assert spec.as_dict() == {"k": 2, "forward_probability": 1.0}

    def test_pickles_and_hashes(self):
        spec = BernoulliPolicy(0.5).spec
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)

    def test_name_is_readable(self):
        assert FloodPolicy().spec.name == "flood"
        assert "k=2" in CounterGossipPolicy(k=2).spec.name

    def test_build_from_spec(self):
        policy = PolicySpec.of("adaptive", p_base=0.7).build()
        assert isinstance(policy, AdaptiveProbabilityPolicy)
        assert policy.p_base == 0.7


class TestBernoulliAndFlood:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            BernoulliPolicy(0.0)
        with pytest.raises(ValueError):
            BernoulliPolicy(1.5)

    def test_deterministic_flags(self):
        # p = 1 transmits on every port without a draw; p < 1 draws.
        def drew(policy):
            rng = np.random.default_rng(0)
            before = rng.bit_generator.state
            policy.decisions(None, (1, 2, 3), rng, tile_id=0, round_index=0)
            return rng.bit_generator.state != before

        assert not drew(BernoulliPolicy(1.0))
        assert drew(BernoulliPolicy(0.5))
        assert not drew(FloodPolicy())

    def test_flood_never_draws(self):
        class Boom:
            def random(self, *args):  # pragma: no cover - must not run
                raise AssertionError("flood must not consume RNG bits")

        decisions = FloodPolicy().decisions(
            None, (1, 2, 3), Boom(), tile_id=0, round_index=0
        )
        assert all(d.transmit for d in decisions)

    def test_expected_copies(self):
        # Mean copies one packet sends per round: degree x p.
        def mean_copies(policy, trials=2000):
            rng = np.random.default_rng(5)
            return sum(
                d.transmit
                for _ in range(trials)
                for d in policy.decisions(
                    None, (1, 2, 3, 4), rng, tile_id=0, round_index=0
                )
            ) / trials

        assert mean_copies(BernoulliPolicy(0.5)) == pytest.approx(2.0, abs=0.1)
        assert mean_copies(FloodPolicy()) == 4.0


class TestCounterGossip:
    def test_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            CounterGossipPolicy(k=0)
        with pytest.raises(ValueError, match="forward_probability"):
            CounterGossipPolicy(forward_probability=0.0)

    def test_silenced_after_k_duplicates(self):
        policy = CounterGossipPolicy(k=2)

        class Pkt:
            key = (0, 1)

        packet = Pkt()
        assert not policy.is_silenced(5, packet.key)
        policy.on_duplicate_received(5, packet, round_index=1)
        assert not policy.is_silenced(5, packet.key)
        policy.on_duplicate_received(5, packet, round_index=2)
        assert policy.is_silenced(5, packet.key)
        # Another tile's counter is independent.
        assert not policy.is_silenced(6, packet.key)
        policy.reset()
        assert not policy.is_silenced(5, packet.key)

    def test_fewer_transmissions_than_flooding_at_equal_delivery(self):
        """The acceptance claim: counter gossip saturates the grid-spread
        workload at flooding's delivery rate with measurably less traffic."""
        flood_sim, flood_result = broadcast_run(FloodPolicy())
        counter_sim, counter_result = broadcast_run(CounterGossipPolicy(k=2))
        assert flood_result.completed and counter_result.completed
        assert len(flood_sim.informed_tiles()) == 16
        assert len(counter_sim.informed_tiles()) == 16
        assert (
            counter_result.stats.transmissions_attempted
            < 0.8 * flood_result.stats.transmissions_attempted
        )

    def test_termination_within_ttl_on_faulty_mesh(self):
        """Satellite: even with k=1 on a faulty 4x4 mesh, every packet
        stops circulating within its TTL — traffic goes (and stays) silent.
        """
        ttl = 12
        mesh = Mesh2D(4, 4)
        sim = NocSimulator(
            mesh,
            CounterGossipPolicy(k=1),
            FaultConfig(p_upset=0.2),
            seed=11,
            default_ttl=ttl,
        )
        sim.schedule_tile_crash(2, 5)
        sim.schedule_link_crash(0, (0, 1))
        sim.schedule_link_crash(3, (9, 10))
        sim.mount(0, Seeder(ttl=ttl))
        result = sim.run(ttl + 10, until=lambda s: False)
        last_active = max(
            result.stats.per_round_transmissions, default=0
        )
        # The rumor is injected in round 0 and aged once per round, so no
        # copy may move after round `ttl`; buffers must also be empty.
        assert last_active <= ttl
        assert all(not tile.send_buffer for tile in sim.tiles.values())


class TestAdaptive:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveProbabilityPolicy(p_base=0.0)
        with pytest.raises(ValueError):
            AdaptiveProbabilityPolicy(p_min=0.6, p_max=0.4)
        with pytest.raises(ValueError):
            AdaptiveProbabilityPolicy(congestion_weight=1.5)
        with pytest.raises(ValueError):
            AdaptiveProbabilityPolicy(drop_decay=1.0)

    def test_congestion_throttles(self):
        policy = AdaptiveProbabilityPolicy(
            p_base=0.8, p_min=0.1, congestion_weight=0.5
        )
        empty = policy.effective_probability(0, 0, 8)
        full = policy.effective_probability(0, 8, 8)
        assert empty == 0.8
        assert full == pytest.approx(0.4)
        # Unbounded buffers normalise against soft_capacity.
        soft = policy.effective_probability(0, policy.soft_capacity, None)
        assert soft == pytest.approx(0.4)

    def test_dead_link_drops_boost_probability(self):
        policy = AdaptiveProbabilityPolicy(p_base=0.5, fault_boost=0.4)
        base = policy.effective_probability(3, 0, None)
        policy.on_dead_link(3, 4, round_index=0)
        boosted = policy.effective_probability(3, 0, None)
        assert boosted == pytest.approx(min(1.0, base + 0.4))
        # Other tiles are unaffected; decay fades the boost.
        assert policy.effective_probability(2, 0, None) == base
        for round_index in range(1, 30):
            policy.on_round_begin(round_index)
        assert policy.effective_probability(3, 0, None) == pytest.approx(base)

    def test_clamps_to_bounds(self):
        policy = AdaptiveProbabilityPolicy(
            p_base=0.5, p_min=0.3, p_max=0.6, congestion_weight=1.0,
            fault_boost=1.0,
        )
        assert policy.effective_probability(0, 100, 10) == 0.3
        policy.on_dead_link(0, 1, 0)
        assert policy.effective_probability(0, 0, 10) == 0.6

    def test_survives_link_crashes_better_than_it_started(self):
        """Under heavy link loss the drop feedback raises p — the run
        still saturates every reachable tile."""
        sim, result = broadcast_run(
            AdaptiveProbabilityPolicy(p_base=0.4, fault_boost=0.5),
            fault_config=FaultConfig(p_link=0.2),
            max_rounds=40,
        )
        assert sim.policy.drop_score(0) >= 0.0  # hook actually wired
        assert len(sim.informed_tiles()) >= 12


class TestEngineIntegration:
    def test_accepts_spec_instance_and_legacy(self):
        for protocol in (
            PolicySpec.of("bernoulli", forward_probability=0.5),
            BernoulliPolicy(0.5),
            StochasticProtocol(0.5),
        ):
            _, result = broadcast_run(protocol, side=3, seed=1)
            assert result.completed

    def test_simconfig_normalises_policy_instances_to_specs(self):
        config = SimConfig(Mesh2D(3, 3), CounterGossipPolicy(k=2))
        assert isinstance(config.protocol, PolicySpec)
        assert config.protocol.kind == "counter"
        # The thesis's own rules are stored as themselves.
        thesis = StochasticProtocol(0.5)
        assert SimConfig(Mesh2D(3, 3), thesis).protocol is thesis

    def test_config_reuse_never_leaks_policy_state(self):
        """from_config builds a fresh policy per run: replaying the same
        config + seed is bit-identical even for stateful policies."""
        config = SimConfig(
            Mesh2D(4, 4),
            CounterGossipPolicy(k=1),
            default_ttl=16,
        )

        def once():
            sim = NocSimulator.from_config(config, seed=5)
            sim.mount(0, Seeder(ttl=16))
            result = sim.run(24, until=lambda s: False)
            return result.stats.summary()

        assert once() == once()

    def test_policy_pickles_through_simconfig(self):
        config = SimConfig(Mesh2D(3, 3), AdaptiveProbabilityPolicy())
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.cache_token() == config.cache_token()


class TestPolicyCompareHarness:
    def test_runs_all_four_policies(self):
        points = policy_compare.run(
            side=3,
            repetitions=2,
            upset_rates=(0.0,),
            overflow_rates=(),
            link_crash_counts=(4,),
            max_rounds=24,
        )
        names = {point.policy for point in points}
        assert len(names) == 4
        assert {point.fault for point in points} == {"upset", "link_crash"}
        for point in points:
            assert 0.0 <= point.delivery_rate <= 1.0
            assert point.repetitions == 2

    def test_parallel_equals_serial(self):
        kwargs = dict(
            side=3,
            repetitions=2,
            upset_rates=(0.2,),
            overflow_rates=(),
            link_crash_counts=(),
            max_rounds=24,
        )
        assert policy_compare.run(**kwargs) == policy_compare.run(
            **kwargs, options=ExperimentOptions(n_workers=4)
        )

    def test_format_table_mentions_every_policy(self):
        points = policy_compare.run(
            side=3,
            repetitions=1,
            upset_rates=(0.0,),
            overflow_rates=(),
            link_crash_counts=(),
            max_rounds=24,
        )
        table = policy_compare.format_table(points)
        assert "fault axis: upset" in table
        for point in points:
            assert point.policy in table
