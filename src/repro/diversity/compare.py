"""The Fig 5-3 comparison harness.

Runs the beamforming workload on each architecture and tabulates the two
quantities the thesis plots: completion latency and total message
transmissions (the energy proxy).  The thesis' preliminary finding — the
hierarchical NoC needs the fewest transmissions, the flat NoC has slightly
the best latency, bus-connected NoCs trail on both — is what the harness
should reproduce in shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.apps.base import run_on_noc
from repro.apps.beamforming import BeamformingApp
from repro.core.protocol import StochasticProtocol
from repro.diversity.architectures import Architecture, ArchitectureSpec
from repro.faults import FaultConfig
from repro.noc.engine import NocSimulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.common import ExperimentOptions


@dataclass(frozen=True)
class ArchitectureComparison:
    """One architecture's row of the Fig 5-3 chart.

    Attributes:
        name: architecture label.
        completed: did the workload finish within budget?
        latency_rounds / latency_s: completion latency.
        transmissions: delivered link transmissions (the message count of
            Fig 5-3's right panel).
        energy_j: Eq. 3 energy under the architecture's per-link figures.
    """

    name: str
    completed: bool
    latency_rounds: float
    latency_s: float
    transmissions: float
    energy_j: float


def run_workload(
    spec: ArchitectureSpec,
    forward_probability: float = 0.5,
    n_sensors: int | None = None,
    n_frames: int = 2,
    n_samples: int = 32,
    frame_interval: int = 1,
    fault_config: FaultConfig | None = None,
    seed: int = 0,
    max_rounds: int = 2000,
) -> tuple[bool, int, float, int, float]:
    """One beamforming run on one architecture.

    Returns (completed, rounds, time_s, transmissions, energy_j).
    """
    sensor_pool = list(spec.sensor_tiles)
    if n_sensors is not None:
        if n_sensors > len(sensor_pool):
            raise ValueError(
                f"{spec.name} offers {len(sensor_pool)} sensor tiles, "
                f"{n_sensors} requested"
            )
        # Spread selected sensors evenly across the pool (and clusters).
        stride = len(sensor_pool) / n_sensors
        sensor_pool = [sensor_pool[int(i * stride)] for i in range(n_sensors)]
    aggregators = None
    if spec.aggregation is not None:
        chosen = set(sensor_pool)
        aggregators = {
            head: [t for t in tiles if t in chosen]
            for head, tiles in spec.aggregation.items()
        }
        aggregators = {h: ts for h, ts in aggregators.items() if ts}
    app = BeamformingApp(
        sensor_tiles=sensor_pool,
        collector_tile=spec.collector_tile,
        n_frames=n_frames,
        n_samples=n_samples,
        seed=seed,
        aggregators=aggregators,
        intra_ttl=spec.intra_ttl,
        backbone_ttl=spec.backbone_ttl,
        frame_interval=frame_interval,
    )
    simulator = NocSimulator(
        spec.topology,
        StochasticProtocol(forward_probability),
        fault_config,
        seed=seed,
        **spec.simulator_kwargs(),
    )
    result = run_on_noc(app, simulator, max_rounds=max_rounds)
    return (
        result.completed,
        result.rounds,
        result.time_s,
        result.stats.transmissions_delivered,
        result.energy_j,
    )


def compare_architectures(
    architectures: list[Architecture],
    forward_probability: float = 0.5,
    n_sensors: int = 12,
    n_frames: int = 2,
    frame_interval: int = 1,
    repetitions: int = 3,
    seed: int = 0,
    max_rounds: int = 2000,
    options: "ExperimentOptions | None" = None,
) -> list[ArchitectureComparison]:
    """Run the same workload across architectures (Fig 5-3).

    Results are averaged over `repetitions` seeded runs per architecture.
    """
    # Deferred import: repro.experiments.common itself imports from the
    # diversity package via the experiment modules.
    from repro.experiments.common import column_mean, sweep_cells

    return [
        ArchitectureComparison(
            name=spec.name,
            completed=all(run[0] for run in runs),
            latency_rounds=column_mean(runs, 1),
            latency_s=column_mean(runs, 2),
            transmissions=column_mean(runs, 3),
            energy_j=column_mean(runs, 4),
        )
        for spec, runs, _ in sweep_cells(
            run_workload,
            [architecture.build() for architecture in architectures],
            params=lambda spec: dict(
                spec=spec,
                forward_probability=forward_probability,
                n_sensors=n_sensors,
                n_frames=n_frames,
                frame_interval=frame_interval,
                max_rounds=max_rounds,
            ),
            repetitions=repetitions,
            seed=seed,
            label=lambda spec, rep: f"fig5_3 {spec.name} rep={rep}",
            options=options,
        )
    ]
