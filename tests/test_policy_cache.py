"""Regression tests: policy configuration participates in every cache key.

Satellite of the policies PR: two sweeps differing only in forwarding
policy must never share an on-disk cache entry — neither at the
``SimConfig.cache_token`` level nor at the ``SimTask.cache_key`` level.
"""

import pytest

from repro.core.protocol import FloodingProtocol, StochasticProtocol
from repro.experiments.policy_compare import _policy_once
from repro.noc.config import SimConfig, describe_protocol
from repro.noc.routing import XYRoutingProtocol
from repro.noc.topology import Mesh2D
from repro.policies import (
    AdaptiveProbabilityPolicy,
    BernoulliPolicy,
    CounterGossipPolicy,
    FloodPolicy,
    ForwardingPolicy,
    PolicySpec,
)
from repro.runners import SimTask, SweepRunner, canonical, digest

ALL_SPECS = (
    PolicySpec.of("bernoulli", forward_probability=0.5),
    PolicySpec.of("flood"),
    PolicySpec.of("counter", k=2, forward_probability=1.0),
    PolicySpec.of("adaptive"),
)


class TestSimConfigTokens:
    def test_every_policy_pair_gets_a_distinct_token(self):
        tokens = {
            SimConfig(Mesh2D(3, 3), spec).cache_token() for spec in ALL_SPECS
        }
        assert len(tokens) == len(ALL_SPECS)

    def test_policy_parameters_change_the_token(self):
        base = SimConfig(Mesh2D(3, 3), CounterGossipPolicy(k=2))
        other = SimConfig(Mesh2D(3, 3), CounterGossipPolicy(k=3))
        assert base.cache_token() != other.cache_token()

    def test_spec_and_equivalent_instance_share_a_token(self):
        by_spec = SimConfig(
            Mesh2D(3, 3), PolicySpec.of("bernoulli", forward_probability=0.5)
        )
        by_instance = SimConfig(Mesh2D(3, 3), BernoulliPolicy(0.5))
        assert by_spec.cache_token() == by_instance.cache_token()

    def test_policy_and_legacy_protocol_never_alias(self):
        # Same Bernoulli semantics, different config types: distinct
        # tokens are correct because the engine paths are distinct too.
        legacy = SimConfig(Mesh2D(3, 3), StochasticProtocol(0.5))
        native = SimConfig(Mesh2D(3, 3), BernoulliPolicy(0.5))
        assert legacy.cache_token() != native.cache_token()

    def test_legacy_describer_is_unchanged(self):
        # Pin the pre-policy describer output: existing on-disk caches of
        # legacy-protocol sweeps stay valid across this refactor.
        assert describe_protocol(StochasticProtocol(0.5)) == (
            "StochasticProtocol",
            0.5,
            "stochastic(p=0.5)",
        )
        assert describe_protocol(FloodingProtocol()) == (
            "FloodingProtocol",
            1.0,
            "flooding",
        )


class TestCanonicalForms:
    def test_spec_and_instance_canonicalise_identically(self):
        policy = AdaptiveProbabilityPolicy(p_base=0.6)
        assert canonical(policy) == canonical(policy.spec)
        assert digest(policy) == digest(policy.spec)

    def test_distinct_specs_distinct_digests(self):
        digests = {digest(spec) for spec in ALL_SPECS}
        assert len(digests) == len(ALL_SPECS)


class TestTaskKeys:
    def _task(self, spec: PolicySpec) -> SimTask:
        return SimTask.call(
            _policy_once,
            side=3,
            spec=spec,
            p_upset=0.0,
            p_overflow=0.0,
            n_dead_links=0,
            max_rounds=16,
            seed=1,
        )

    def test_policies_never_share_a_cache_key(self):
        keys = {self._task(spec).cache_key() for spec in ALL_SPECS}
        assert len(keys) == len(ALL_SPECS)

    def test_identical_spec_rebuilt_hits(self):
        rebuilt = PolicySpec.of("counter", k=2, forward_probability=1.0)
        assert (
            self._task(ALL_SPECS[2]).cache_key()
            == self._task(rebuilt).cache_key()
        )

    def test_cached_sweep_never_aliases_across_policies(self, cache_dir):
        """The end-to-end regression: run flood then counter with otherwise
        identical configs through a shared cache — both must execute, and a
        warm rerun must return each policy its own numbers."""
        flood_task = self._task(PolicySpec.of("flood"))
        counter_task = self._task(
            PolicySpec.of("counter", k=1, forward_probability=1.0)
        )
        cold = SweepRunner(cache_dir=cache_dir)
        flood_cold, counter_cold = cold.run([flood_task, counter_task])
        assert cold.tasks_executed == 2  # no aliasing on the cold pass
        assert flood_cold != counter_cold  # genuinely different physics

        warm = SweepRunner(cache_dir=cache_dir)
        flood_warm, counter_warm = warm.run([flood_task, counter_task])
        assert warm.tasks_executed == 0
        assert warm.cache_hits == 2
        assert flood_warm == flood_cold
        assert counter_warm == counter_cold


class TestLoudFailures:
    def test_unregistered_policy_object_still_keys_by_spec(self):
        # A policy instance used directly as a task param keys by its
        # spec, so unknown *objects* (not via SimConfig) cannot silently
        # produce unstable keys.
        assert digest(FloodPolicy()) == digest(PolicySpec.of("flood"))

    def test_junk_params_still_raise(self):
        with pytest.raises(TypeError):
            canonical(object())

    def test_unregistered_policies_raise_instead_of_aliasing(self):
        # Two different unregistered rules once both keyed as
        # ('PolicySpec', '', ()): equal tokens, and a failure only at
        # engine build.  Neither has a spec, so both raise up front.
        class KeepLeft(ForwardingPolicy):
            def decide(self, packet, link, ctx):
                return link[1] < link[0]

        class KeepRight(ForwardingPolicy):
            def decide(self, packet, link, ctx):
                return link[1] > link[0]

        class Unregistered(BernoulliPolicy):  # inherits kind "bernoulli"
            pass

        for rule in (KeepLeft(), KeepRight(), Unregistered(0.5)):
            with pytest.raises(TypeError, match="registered"):
                SimConfig(Mesh2D(3, 3), rule)
            with pytest.raises(TypeError, match="registered"):
                canonical(rule)

    def test_non_policy_protocol_raises(self):
        with pytest.raises(TypeError, match="ForwardingPolicy"):
            SimConfig(Mesh2D(3, 3), "bernoulli")


class TestPinnedThesisTokens:
    """The thesis's own rules key exactly as they did before they became
    policies, so existing on-disk caches stay valid."""

    RULES = {
        "stochastic": lambda: StochasticProtocol(0.5),
        "flooding": FloodingProtocol,
        "xy": lambda: XYRoutingProtocol(Mesh2D(4, 4)),
    }

    @pytest.mark.parametrize(
        "rule, token",
        [
            ("stochastic", "a33bb69da988b364d7dff23de3c18fe8"
             "299d51399c078979fd01c187460f28d5"),
            ("flooding", "bf132f3a487997059112250a4ed733d0"
             "dc03c8f9a4d82f04f609cdf24c5841f1"),
            ("xy", "ed6bb6f3ac783961227f3c278417bace"
             "20f5608456ebb9b672ab03bf1799bf6e"),
        ],
    )
    def test_config_token(self, rule, token):
        assert SimConfig(Mesh2D(4, 4), self.RULES[rule]()).cache_token() == token

    @pytest.mark.parametrize(
        "rule, value",
        [
            ("stochastic", "3120c2739a885fc5177b4080f1a8801b"
             "301b3a316711f342d8d4080c6846a148"),
            ("flooding", "dac891c032bf0828dd82b4890ad3f7c2"
             "500c0dda2dc9218af2eaf9e76f0fc597"),
            # XY routing was no task parameter before it became a policy
            # (canonical raised); it now keys by the same describer tuple
            # as its config token: ("XYRoutingProtocol", 1.0, "xy-routing").
            ("xy", "4bb3891130c68efd8c943f2d74c2eb78"
             "5c1913e447228c3fcf00a100c0f5e1e5"),
        ],
    )
    def test_task_param_digest(self, rule, value):
        assert digest(self.RULES[rule]()) == value

    def test_task_keys(self):
        keys = [
            SimTask("repro.x:f", {"protocol": rule()}, seed=1).cache_key()
            for rule in (self.RULES["stochastic"], FloodingProtocol)
        ]
        assert keys == [
            "40fb172b2ab73d37eeef36ddeae08312"
            "bee33dd025d0eefde92ef9f58b729222",
            "b03b8dd30cad7bcfa702474d5e65550d"
            "f03a3c3b503aa86a3c342e14678b2a5a",
        ]
