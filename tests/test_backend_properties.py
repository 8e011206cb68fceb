"""Property-based backend equivalence (satellite of the SoA backend PR).

Where ``test_backends_equivalence.py`` pins a curated golden grid, this
module lets Hypothesis *search* the configuration space for a divergence:
random topologies, forwarding policies, fault probabilities, buffer
shapes and mid-run crash schedules, each run through both engine
backends and compared field-for-field.

A shrunk counterexample from this test is the fastest possible bug
report against the fast backend's stream discipline — Hypothesis will
minimise it to the smallest (topology, faults, schedule) that still
diverges.
"""

from __future__ import annotations

from dataclasses import fields
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.packet import BROADCAST  # noqa: E402
from repro.core.protocol import StochasticProtocol  # noqa: E402
from repro.faults import FaultConfig  # noqa: E402
from repro.metrics import MetricsCollector  # noqa: E402
from repro.noc import Mesh2D, NocSimulator, SimConfig, Torus2D  # noqa: E402
from repro.noc.backends import fast  # noqa: E402
from repro.noc.tile import IPCore, TileContext  # noqa: E402
from repro.noc.topology import FullyConnected, RingTopology  # noqa: E402
from repro.policies import PolicySpec  # noqa: E402

MAX_ROUNDS = 40


class _Seed(IPCore):
    def on_start(self, ctx: TileContext) -> None:
        ctx.send(BROADCAST, b"rumor")


def _topologies() -> st.SearchStrategy:
    return st.one_of(
        st.tuples(st.integers(2, 4), st.integers(2, 4)).map(
            lambda rc: Mesh2D(*rc)
        ),
        st.tuples(st.integers(3, 4), st.integers(3, 4)).map(
            lambda rc: Torus2D(*rc)
        ),
        st.integers(4, 10).map(RingTopology),
        st.integers(3, 8).map(FullyConnected),
    )


def _protocols() -> st.SearchStrategy:
    p = st.sampled_from([0.3, 0.5, 0.7, 1.0])
    return st.one_of(
        p.map(StochasticProtocol),
        p.map(lambda v: PolicySpec("bernoulli", {"forward_probability": v})),
        st.just(PolicySpec("flood", {})),
        p.map(lambda v: PolicySpec("counter", {"k": 2, "forward_probability": v})),
        st.just(PolicySpec("adaptive", {"p_base": 0.6})),
        st.builds(
            lambda fanout, feedback_k: PolicySpec.of(
                "push_pull", fanout=fanout, feedback_k=feedback_k
            ),
            st.integers(1, 3),
            st.sampled_from([None, 2]),
        ),
    )


def _fault_configs() -> st.SearchStrategy:
    prob = st.sampled_from([0.0, 0.05, 0.2])
    return st.builds(
        FaultConfig,
        p_tile=prob,
        p_link=prob,
        p_upset=prob,
        p_overflow=prob,
        error_model=st.sampled_from(["vector", "bit"]),
    )


@st.composite
def _cells(draw) -> dict:
    topology = draw(_topologies())
    n = topology.n_tiles
    # Mid-run crash schedule: a handful of (round, tile) and (round, link)
    # events, drawn against this topology's tiles and directed links.
    tile_crashes = draw(
        st.lists(
            st.tuples(st.integers(1, 6), st.integers(0, n - 1)),
            max_size=2,
        )
    )
    links = sorted(topology.links)
    link_crashes = draw(
        st.lists(
            st.tuples(st.integers(1, 6), st.sampled_from(links)),
            max_size=2,
        )
    )
    return {
        "topology": topology,
        "protocol": draw(_protocols()),
        "fault": draw(_fault_configs()),
        "buffer_capacity": draw(st.sampled_from([None, 1, 2, 4])),
        "buffer_mode": draw(st.sampled_from(["retain", "relay"])),
        "seed": draw(st.integers(0, 2**16)),
        "tile_crashes": tile_crashes,
        "link_crashes": link_crashes,
    }


def _run_one(backend: str, cell: dict):
    cfg = SimConfig(
        topology=cell["topology"],
        protocol=cell["protocol"],
        fault_config=cell["fault"],
        buffer_capacity=cell["buffer_capacity"],
        buffer_mode=cell["buffer_mode"],
        backend=backend,
    )
    collector = MetricsCollector()
    sim = NocSimulator.from_config(cfg, seed=cell["seed"], observer=collector)
    sim.mount(0, _Seed())
    for round_index, tile_id in cell["tile_crashes"]:
        sim.schedule_tile_crash(round_index, tile_id)
    for round_index, link in cell["link_crashes"]:
        sim.schedule_link_crash(round_index, link)
    result = sim.run(
        MAX_ROUNDS,
        until=lambda s: len(s.informed_tiles()) == s.topology.n_tiles,
    )
    return result, collector.metrics(), frozenset(sim.informed_tiles())


_SEARCH = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_SEARCH
@given(cell=_cells())
def test_backends_agree_on_random_configs(cell: dict) -> None:
    _assert_backends_agree(cell)


@pytest.mark.parametrize("chunk", [1, 3])
@_SEARCH
@given(cell=_cells())
def test_backends_agree_at_small_pool_chunks(chunk: int, cell: dict) -> None:
    """The same search with an upset-pool refill inside almost every row."""
    with mock.patch.object(fast, "_POOL_CHUNK", chunk):
        _assert_backends_agree(cell)


def _assert_backends_agree(cell: dict) -> None:
    result_o, metrics_o, informed_o = _run_one("object", cell)
    result_f, metrics_f, informed_f = _run_one("fast", cell)
    for field in fields(result_o.stats):
        assert getattr(result_o.stats, field.name) == getattr(
            result_f.stats, field.name
        ), f"stats.{field.name} diverged"
    assert result_o == result_f
    for field in fields(metrics_o):
        assert getattr(metrics_o, field.name) == getattr(
            metrics_f, field.name
        ), f"metrics.{field.name} diverged"
    assert metrics_o == metrics_f
    assert informed_o == informed_f
