"""Extension experiment: voltage/frequency islands (Ch. 5's first axis).

The thesis names "the combination of different architectural styles —
partitioning the chip into several islands with separate clocks and
voltages" as one half of on-chip diversity, "with the purpose of
optimizing a specific parameter, such as energy consumption", but runs no
experiment on it.  This harness does: the Master-Slave workload runs on a
uniform 5x5 mesh and on the same mesh with a low-voltage island covering
a block of tiles.  Links driven from the island dissipate V^2-scaled
energy; links touching it run slower (extra round delays).  The expected
trade: communication energy down, latency up.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.master_slave import MasterSlavePiApp
from repro.core.protocol import StochasticProtocol
from repro.diversity.islands import Island, IslandPlan
from repro.experiments.common import (
    ExperimentOptions,
    column_mean,
    resolve_options,
    sweep_cells,
)
from repro.noc.engine import NocSimulator
from repro.noc.topology import Mesh2D


@dataclass(frozen=True)
class IslandComparison:
    """Uniform vs islanded chip, same workload.

    Attributes:
        island_voltage: supply scale of the low-power island.
        uniform_rounds / islanded_rounds: completion latency.
        uniform_energy_j / islanded_energy_j: Eq. 3 communication energy.
        energy_saving: 1 - islanded/uniform energy.
        latency_penalty: islanded/uniform rounds - 1.
    """

    island_voltage: float
    uniform_rounds: float
    islanded_rounds: float
    uniform_energy_j: float
    islanded_energy_j: float

    @property
    def energy_saving(self) -> float:
        if self.uniform_energy_j == 0:
            return 0.0
        return 1.0 - self.islanded_energy_j / self.uniform_energy_j

    @property
    def latency_penalty(self) -> float:
        if self.uniform_rounds == 0:
            return 0.0
        return self.islanded_rounds / self.uniform_rounds - 1.0


def _island_plan(mesh: Mesh2D, voltage: float) -> IslandPlan:
    """A low-voltage island over the mesh's bottom two rows."""
    members = frozenset(
        mesh.tile_at(row, col)
        for row in (mesh.rows - 2, mesh.rows - 1)
        for col in range(mesh.cols)
    )
    return IslandPlan([Island("low-power", members, voltage_scale=voltage)])


def _run_island_rep(
    islanded: bool,
    island_voltage: float,
    forward_probability: float,
    n_terms: int,
    seed: int,
    max_rounds: int,
) -> tuple[int, float]:
    """One Master-Slave run, uniform or islanded; returns (rounds, energy)."""
    mesh = Mesh2D(5, 5)
    plan = _island_plan(mesh, island_voltage)
    link_energy = plan.link_energy_overrides(mesh.links, 2.4e-10)
    link_delays = plan.link_delay_overrides(mesh.links)
    app = MasterSlavePiApp.default_5x5(n_terms=n_terms)
    simulator = NocSimulator(
        mesh,
        StochasticProtocol(forward_probability),
        seed=seed,
        default_ttl=24,
        link_energy_overrides=link_energy if islanded else None,
        link_delays=link_delays if islanded else None,
    )
    app.deploy(simulator)
    result = simulator.run(max_rounds, until=lambda sim: app.master.complete)
    if not app.master.complete:
        raise RuntimeError("island workload failed to complete")
    return result.rounds, result.energy_j


def run(
    island_voltage: float = 0.6,
    forward_probability: float = 0.5,
    repetitions: int = 4,
    n_terms: int = 400,
    seed: int = 0,
    max_rounds: int = 500,
    options: ExperimentOptions | None = None,
) -> IslandComparison:
    """Measure the energy/latency trade of one island partition."""
    (_, uniform, _), (_, islanded, _) = sweep_cells(
        _run_island_rep,
        (False, True),
        params=lambda islanded: dict(
            islanded=islanded,
            island_voltage=island_voltage,
            forward_probability=forward_probability,
            n_terms=n_terms,
            max_rounds=max_rounds,
        ),
        repetitions=repetitions,
        seed=seed,
        label=lambda islanded, rep: (
            f"islands {'islanded' if islanded else 'uniform'} rep={rep}"
        ),
        options=options,
    )
    return IslandComparison(
        island_voltage=island_voltage,
        uniform_rounds=column_mean(uniform, 0),
        islanded_rounds=column_mean(islanded, 0),
        uniform_energy_j=column_mean(uniform, 1),
        islanded_energy_j=column_mean(islanded, 1),
    )


def run_voltage_sweep(
    voltages: tuple[float, ...] = (1.0, 0.8, 0.6, 0.5),
    repetitions: int = 3,
    seed: int = 0,
    options: ExperimentOptions | None = None,
) -> list[IslandComparison]:
    """The island design space: deeper undervolting saves more, costs more."""
    opts = resolve_options(options)
    shared = opts.with_runner(opts.make_runner())
    return [
        run(
            island_voltage=v,
            repetitions=repetitions,
            seed=seed,
            options=shared,
        )
        for v in voltages
    ]
