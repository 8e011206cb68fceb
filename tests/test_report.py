"""Tests for the NoC statistics bookkeeping."""

import pytest

from repro.noc.stats import NetworkStats


class TestNetworkStats:
    def test_loss_total(self):
        stats = NetworkStats()
        stats.upsets_detected = 2
        stats.overflow_drops = 3
        stats.dead_link_drops = 4
        stats.dead_tile_drops = 5
        assert stats.loss_total == 14

    def test_delivery_ratio_empty(self):
        assert NetworkStats().delivery_ratio == 1.0

    def test_mean_delivery_hops_empty(self):
        assert NetworkStats().mean_delivery_hops == 0.0

    def test_record_transmission(self):
        stats = NetworkStats()
        stats.record_transmission(3, 100, 5e-9)
        stats.record_transmission(3, 100, 5e-9)
        assert stats.transmissions_delivered == 2
        assert stats.bits_transmitted == 200
        assert stats.energy_j == pytest.approx(1e-8)
        assert stats.per_round_transmissions[3] == 2

    def test_record_dead_link(self):
        stats = NetworkStats()
        stats.record_dead_link()
        assert stats.transmissions_attempted == 1
        assert stats.transmissions_delivered == 0
        assert stats.delivery_ratio == 0.0

    def test_summary_is_flat(self):
        summary = NetworkStats().summary()
        assert all(
            isinstance(value, (int, float)) for value in summary.values()
        )
