"""The simulation cells the benchmark runs, built only from public API.

Everything the program is asked to do goes through here: one broadcast
run on a frozen :class:`repro.SimConfig` (the engine workloads call it
directly, the campaign workloads wrap it in :class:`SimTask`), plus the
no-op task behind the runner/supervisor overhead probes.  The functions
are module-level so pool workers can import them by qualified name.
"""

from __future__ import annotations

import hashlib

from repro import BROADCAST, IPCore, Mesh2D, NocSimulator, SimConfig
from repro import FaultConfig, StochasticProtocol
from repro.metrics import MetricsCollector

#: Every integer counter of ``NetworkStats`` enters the result digest.
_COUNTERS = (
    "transmissions_attempted", "transmissions_delivered", "bits_transmitted",
    "upsets_injected", "upsets_detected", "upsets_escaped", "overflow_drops",
    "dead_link_drops", "dead_tile_drops", "duplicates_suppressed",
    "ttl_expirations", "deliveries", "delivery_hops_total",
    "unique_messages_created", "pull_requests", "pull_requests_lost",
    "pull_responses",
)


class _Rumor(IPCore):
    """Emits one broadcast packet at round 0."""

    def __init__(self, ttl: int) -> None:
        self.ttl = ttl

    def on_start(self, ctx) -> None:
        ctx.send(BROADCAST, b"rumor", ttl=self.ttl)


def mesh_config(side: int, max_rounds: int, backend: str, *, protocol=None,
                **fields) -> SimConfig:
    """A `side`x`side` mesh broadcast config; TTL = the round budget."""
    faults = {k: fields.pop(k) for k in ("p_upset", "sigma_synchr")
              if k in fields}
    return SimConfig(
        Mesh2D(side, side),
        protocol if protocol is not None else StochasticProtocol(0.5),
        FaultConfig(**faults) if faults else None,
        default_ttl=max_rounds,
        backend=backend,
        **fields,
    )


def build(config: SimConfig, sources, seed: int, *, observer=None,
          profiler=None):
    """Construct the simulator and mount one rumor source per tile."""
    simulator = NocSimulator.from_config(
        config, seed=seed, observer=observer, profiler=profiler
    )
    for tile in sources:
        simulator.mount(tile, _Rumor(config.default_ttl))
    return simulator


def run(simulator, max_rounds: int, saturate: bool):
    """Run until every tile is informed, or for exactly `max_rounds`."""
    n = simulator.config.topology.n_tiles
    if saturate:
        return simulator.run(
            max_rounds, until=lambda sim: len(sim.informed_tiles()) == n
        )
    return simulator.run(max_rounds, until=lambda sim: False)


def result_form(result) -> tuple:
    """The benchmark-owned canonical form of one ``SimulationResult``."""
    stats = result.stats
    return (
        result.completed,
        result.rounds,
        tuple(getattr(stats, name) for name in _COUNTERS),
        float(stats.energy_j).hex(),
    )


def digest(form) -> str:
    """sha256 of a canonical form (tuples of ints/str/bool only)."""
    return hashlib.sha256(repr(form).encode()).hexdigest()


def broadcast_cell(config: SimConfig, max_rounds: int, seed: int) -> tuple:
    """One campaign cell: saturating broadcast with per-round metrics.

    Returns ``(canonical result form, RunMetrics)`` — the ``RunMetrics``
    is what makes ``ResultsDB.record_task`` fan out per-round rows.
    """
    collector = MetricsCollector()
    simulator = build(config, (0,), seed, observer=collector)
    result = run(simulator, max_rounds, saturate=True)
    return result_form(result), collector.metrics()


def cell_digest(value) -> str:
    """Digest of one `broadcast_cell` result, ``RunMetrics`` included."""
    form, metrics = value
    return digest((form, metrics.to_json(indent=None)))


def noop(seed: int | None = None) -> None:
    """Does nothing: what is left is the runner's own per-task cost."""
