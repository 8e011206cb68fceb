"""Tests for the stochastic forwarding protocol (Fig 3-4)."""

import numpy as np
import pytest

from repro.core.packet import Packet
from repro.core.protocol import FloodingProtocol, StochasticProtocol
from repro.noc.config import describe_protocol
from repro.policies import BatchDecisionView


def _packet():
    return Packet.create(0, 1, 0, b"x", ttl=3)


def _decide(protocol, neighbors, rng):
    return protocol.decisions(
        _packet(), neighbors, rng, tile_id=0, round_index=0
    )


class TestValidation:
    @pytest.mark.parametrize("p", [0.0, -0.5, 1.5])
    def test_rejects_bad_probability(self, p):
        with pytest.raises(ValueError):
            StochasticProtocol(p)

    def test_name_default(self):
        assert "0.5" in StochasticProtocol(0.5).name
        assert FloodingProtocol().name == "flooding"


class TestFlooding:
    def test_always_transmits_everywhere(self):
        rng = np.random.default_rng(0)
        protocol = FloodingProtocol()
        assert _decide(protocol, (1, 2, 3, 4), rng) == [True] * 4

    def test_is_deterministic_flag(self):
        # p = 1 never draws from the RNG; any p < 1 does.
        def drew(protocol):
            rng = np.random.default_rng(0)
            before = rng.bit_generator.state
            _decide(protocol, (1, 2, 3, 4), rng)
            return rng.bit_generator.state != before

        assert not drew(FloodingProtocol())
        assert not drew(StochasticProtocol(1.0))
        assert drew(StochasticProtocol(0.99))


class TestStochastic:
    def test_per_port_frequency(self):
        rng = np.random.default_rng(1)
        protocol = StochasticProtocol(0.3)
        sent = 0
        trials = 3000
        for _ in range(trials):
            sent += sum(_decide(protocol, (1, 2), rng))
        assert sent / (2 * trials) == pytest.approx(0.3, abs=0.03)

    def test_ports_independent(self):
        # Joint transmit frequency on two ports should be ~p^2.
        rng = np.random.default_rng(2)
        protocol = StochasticProtocol(0.5)
        both = 0
        trials = 3000
        for _ in range(trials):
            mask = _decide(protocol, (1, 2), rng)
            both += mask[0] and mask[1]
        assert both / trials == pytest.approx(0.25, abs=0.03)

    def test_port_indices_match_neighbors(self):
        # One truth value per port, in neighbor order: port i is the
        # i-th draw of the block.
        mask = _decide(StochasticProtocol(0.7), (9, 4, 6),
                       np.random.default_rng(3))
        draws = np.random.default_rng(3).random(3)
        assert mask == [bool(draw < 0.7) for draw in draws]

    def test_empty_neighbors(self):
        rng = np.random.default_rng(4)
        assert _decide(StochasticProtocol(0.5), (), rng) == []

    def test_expected_copies(self):
        # Mean copies one packet sends per round: degree x p.
        def mean_copies(protocol, trials=2000):
            rng = np.random.default_rng(5)
            return sum(
                sum(_decide(protocol, (1, 2, 3, 4), rng))
                for _ in range(trials)
            ) / trials

        assert mean_copies(StochasticProtocol(0.25)) == pytest.approx(
            1.0, abs=0.1
        )
        assert mean_copies(FloodingProtocol()) == 4.0

    def test_seeded_reproducibility(self):
        protocol = StochasticProtocol(0.5)
        a = _decide(protocol, (1, 2, 3), np.random.default_rng(99))
        b = _decide(protocol, (1, 2, 3), np.random.default_rng(99))
        assert a == b

    def test_int_probability_keeps_its_token_and_a_float_batch(self):
        # The describer hashes p exactly as given, while the fast
        # backend's batch form still receives float probabilities.
        protocol = StochasticProtocol(1)
        assert describe_protocol(protocol) == (
            "StochasticProtocol",
            1,
            "stochastic(p=1)",
        )
        rows = np.zeros(3, dtype=np.int64)
        batch = BatchDecisionView(0, rows, rows, rows, rows, None)
        p_row = protocol.decide_batch(batch)
        assert p_row.dtype == np.float64
        assert p_row.tolist() == [1.0, 1.0, 1.0]
