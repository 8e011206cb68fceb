"""Fig 4-6: stochastic NoC vs shared bus, fault-free.

The thesis' headline comparison (§4.1.4): with 0.25 µm constants — links
at 381 MHz / 2.4e-10 J/bit vs a bus at 43 MHz / 21.6e-10 J/bit — the NoC's
latency is ~11x better while its energy is only ~5 % higher, giving an
energy x delay of 7e-12 vs 133e-12 J*s per bit.

Energy accounting matters here.  The thesis' "only 5 % greater" figure is
consistent with counting the energy of the *delivered path* of each
message (average ~9.4 link hops x 2.4e-10 ~= 1.05 x 21.6e-10), not of
every redundant gossip copy.  We therefore report both:

* ``path`` energy — per-useful-bit energy along first-delivery paths (the
  thesis' accounting; expected ratio ~1 vs the bus);
* ``gross`` energy — every transmitted copy (the honest total, which is
  substantially higher and is the true price of the redundancy).

We run the Master-Slave workload on both substrates (same IP code), three
seeded NoC runs plus their average, like the figure's Run1/2/3/Avg bars.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import run_on_bus
from repro.apps.master_slave import MasterSlavePiApp
from repro.bus.simulator import BusModel, BusSimulator
from repro.core.protocol import StochasticProtocol
from repro.energy.model import TECH_025UM, TechnologyLibrary
from repro.experiments.common import (
    ExperimentOptions,
    column_mean,
    sweep_cells,
)
from repro.noc.engine import NocSimulator
from repro.noc.link import LinkModel
from repro.noc.topology import Mesh2D


@dataclass(frozen=True)
class BusComparison:
    """The Fig 4-6 table.

    Attributes:
        noc_runs_latency_s: the individual Run 1..n latencies.
        noc_latency_s / bus_latency_s: mean completion times.
        latency_ratio: bus / NoC latency (thesis: ~11x).
        noc_path_energy_per_bit_j: mean delivery-path energy per bit
            (avg hops x link energy/bit — the thesis' accounting).
        noc_gross_energy_per_bit_j: all-copies energy over useful bits.
        bus_energy_per_bit_j: the bus constant (each message crosses once).
        path_energy_ratio: NoC path energy / bus energy (thesis: ~1.05).
        gross_energy_ratio: NoC gross energy / bus energy.
        noc_energy_delay / bus_energy_delay: J*s per bit, path accounting
            (thesis: 7e-12 vs 133e-12).
    """

    noc_runs_latency_s: tuple[float, ...]
    noc_latency_s: float
    bus_latency_s: float
    latency_ratio: float
    noc_path_energy_per_bit_j: float
    noc_gross_energy_per_bit_j: float
    bus_energy_per_bit_j: float
    path_energy_ratio: float
    gross_energy_ratio: float
    noc_energy_delay: float
    bus_energy_delay: float


def _run_noc_once(
    forward_probability: float,
    seed: int,
    n_terms: int,
    default_ttl: int,
    link_frequency_hz: float,
    link_energy_per_bit_j: float,
) -> tuple[float, float, float]:
    """One fault-free NoC run; returns (time_s, mean_hops, gross_ratio)."""
    app = MasterSlavePiApp.default_5x5(
        n_slaves=8, duplicate=False, n_terms=n_terms
    )
    simulator = NocSimulator(
        Mesh2D(5, 5),
        StochasticProtocol(forward_probability),
        seed=seed,
        link_model=LinkModel(
            frequency_hz=link_frequency_hz,
            energy_per_bit_j=link_energy_per_bit_j,
        ),
        default_ttl=default_ttl,
        # Round period per Eq. 2, sized for this app's packet (~20 B
        # task/result payloads + header/CRC overhead).
        payload_bits=160,
    )
    app.deploy(simulator)
    result = simulator.run(max_rounds=500, until=lambda sim: app.master.complete)
    if not app.master.complete:
        raise RuntimeError("fault-free NoC run failed to complete")
    return (
        result.time_s,
        result.stats.mean_delivery_hops,
        result.stats.transmissions_delivered / max(result.stats.deliveries, 1),
    )


def run(
    n_runs: int = 3,
    forward_probability: float = 0.5,
    technology: TechnologyLibrary = TECH_025UM,
    seed: int = 0,
    n_terms: int = 400,
    default_ttl: int = 10,
    options: ExperimentOptions | None = None,
) -> BusComparison:
    """Run the workload on both substrates and assemble the comparison."""
    [(_, noc_runs, _)] = sweep_cells(
        _run_noc_once,
        [None],
        params=lambda _: dict(
            forward_probability=forward_probability,
            n_terms=n_terms,
            default_ttl=default_ttl,
            link_frequency_hz=technology.link_frequency_hz,
            link_energy_per_bit_j=technology.link_energy_per_bit_j,
        ),
        repetitions=n_runs,
        seed=seed,
        label=lambda _, run_index: f"fig4_6 noc run={run_index}",
        options=options,
    )

    bus_app = MasterSlavePiApp.default_5x5(
        n_slaves=8, duplicate=False, n_terms=n_terms
    )
    bus = BusSimulator(
        25,
        bus_model=BusModel(
            frequency_hz=technology.bus_frequency_hz,
            energy_per_bit_j=technology.bus_energy_per_bit_j,
        ),
        seed=seed,
    )
    bus_result = run_on_bus(bus_app, bus)
    if not bus_result.completed:
        raise RuntimeError("fault-free bus run failed to complete")

    noc_latency = column_mean(noc_runs, 0)
    path_energy_per_bit = (
        column_mean(noc_runs, 1) * technology.link_energy_per_bit_j
    )
    gross_energy_per_bit = (
        column_mean(noc_runs, 2) * technology.link_energy_per_bit_j
    )
    bus_energy_per_bit = technology.bus_energy_per_bit_j
    return BusComparison(
        noc_runs_latency_s=tuple(time_s for time_s, _, _ in noc_runs),
        noc_latency_s=noc_latency,
        bus_latency_s=bus_result.time_s,
        latency_ratio=bus_result.time_s / noc_latency,
        noc_path_energy_per_bit_j=path_energy_per_bit,
        noc_gross_energy_per_bit_j=gross_energy_per_bit,
        bus_energy_per_bit_j=bus_energy_per_bit,
        path_energy_ratio=path_energy_per_bit / bus_energy_per_bit,
        gross_energy_ratio=gross_energy_per_bit / bus_energy_per_bit,
        noc_energy_delay=path_energy_per_bit * noc_latency,
        bus_energy_delay=bus_energy_per_bit * bus_result.time_s,
    )
