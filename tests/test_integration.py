"""Cross-module integration tests.

These exercise whole vertical slices: the same application code on the NoC
and the bus, the protocol under combined failure modes, and the
seeded-reproducibility guarantee across the full stack.
"""

import numpy as np
import pytest

from repro.apps import Fft2dApp, MasterSlavePiApp, run_on_bus, run_on_noc
from repro.bus.simulator import BusSimulator
from repro.core.packet import BROADCAST
from repro.core.protocol import FloodingProtocol, StochasticProtocol
from repro.faults import FaultConfig
from repro.mp3 import Mp3Decoder, ParallelMp3App, reconstruction_snr_db
from repro.noc.engine import NocSimulator
from repro.noc.topology import Mesh2D, Torus2D
from tests.test_engine import OneShotProducer, Sink
from tests.twins import assert_twins, run_twins


class TestSameAppBothSubstrates:
    def test_master_slave_pi_matches(self):
        noc_app = MasterSlavePiApp.default_5x5(duplicate=False, n_terms=500)
        sim = NocSimulator(Mesh2D(5, 5), StochasticProtocol(0.5), seed=0)
        noc_app.deploy(sim)
        sim.run(200, until=lambda s: noc_app.master.complete)

        bus_app = MasterSlavePiApp.default_5x5(duplicate=False, n_terms=500)
        bus = BusSimulator(25, seed=0)
        result = run_on_bus(bus_app, bus)

        assert noc_app.complete and result.completed
        assert noc_app.pi_estimate == pytest.approx(bus_app.pi_estimate)
        assert noc_app.pi_error < 1e-5

    def test_fft_matches_on_bus(self):
        image = np.random.default_rng(1).normal(size=(8, 8))
        app = Fft2dApp(image, duplicate=False)
        bus = BusSimulator(16, seed=1)
        result = run_on_bus(app, bus)
        assert result.completed
        assert np.allclose(app.result, np.fft.fft2(image))


class TestCombinedFailures:
    def test_all_failure_modes_at_once(self):
        # The full Ch. 2 model simultaneously: upsets + overflow + sync
        # skew + one crashed tile; the Master-Slave app still finishes.
        config = FaultConfig(
            p_upset=0.2,
            p_overflow=0.2,
            sigma_synchr=0.2,
        )
        app = MasterSlavePiApp.default_5x5(n_terms=300)
        sim = NocSimulator(
            Mesh2D(5, 5),
            StochasticProtocol(0.6),
            config,
            seed=3,
            default_ttl=30,
        )
        app.deploy(sim)
        result = sim.run(500, until=lambda s: app.master.complete)
        assert app.complete
        assert app.pi_error < 1e-5
        assert result.stats.upsets_detected > 0
        assert result.stats.overflow_drops > 0

    def test_mp3_survives_combined_faults_with_quality(self):
        config = FaultConfig(p_upset=0.15, p_overflow=0.25, sigma_synchr=0.3)
        app = ParallelMp3App(
            n_frames=4, granule=144, bitrate_bps=256_000, skip_after=50
        )
        sim = NocSimulator(
            Mesh2D(4, 4),
            StochasticProtocol(0.6),
            config,
            seed=4,
            default_ttl=30,
        )
        result = run_on_noc(app, sim, max_rounds=1500)
        assert result.completed
        report = app.report()
        assert report.frames_received >= 3  # at most one loss tolerated
        decoder = Mp3Decoder(granule=144)
        reconstruction = decoder.decode(app.output.frames, 4)
        snr = reconstruction_snr_db(app.source.all_frames(), reconstruction)
        assert snr > 0.0


class TestAlternativeTopologies:
    def test_master_slave_on_torus(self):
        app = MasterSlavePiApp(
            master_tile=0,
            slave_tiles=[[k] for k in range(1, 9)],
            n_terms=400,
        )
        sim = NocSimulator(Torus2D(3, 3), StochasticProtocol(0.5), seed=5)
        app.deploy(sim)
        result = sim.run(200, until=lambda s: app.master.complete)
        assert app.complete
        assert result.completed is True


class TestFullStackDeterminism:
    def test_identical_runs_bit_for_bit(self):
        streams = []
        for _ in range(2):
            app = ParallelMp3App(n_frames=3, granule=144, seed=11)
            sim = NocSimulator(
                Mesh2D(4, 4),
                StochasticProtocol(0.5),
                FaultConfig(p_upset=0.2, sigma_synchr=0.2),
                seed=11,
                default_ttl=30,
            )
            run_on_noc(app, sim, max_rounds=800)
            streams.append(app.output.bitstream())
        assert streams[0] == streams[1]


class TestBackendToggle:
    """The suite's env-selected engine backend runs real applications.

    Under ``REPRO_BACKEND=fast`` (the CI matrix's second leg) these same
    assertions exercise the structure-of-arrays engine end to end.
    """

    def test_master_slave_pi_on_selected_backend(self, engine_backend):
        app = MasterSlavePiApp.default_5x5(duplicate=False, n_terms=300)
        sim = NocSimulator(
            Mesh2D(5, 5),
            StochasticProtocol(0.5),
            seed=0,
            backend=engine_backend,
        )
        app.deploy(sim)
        sim.run(200, until=lambda s: app.master.complete)
        assert app.complete
        assert app.pi_error < 1e-5

    def test_backend_matches_object_reference(self, engine_backend):
        def broadcast(backend, observer):
            sim = NocSimulator(
                Mesh2D(4, 4),
                StochasticProtocol(0.5),
                seed=9,
                backend=backend,
                observer=observer,
            )
            sim.mount(0, OneShotProducer(BROADCAST, b"rumor"))
            return sim

        assert_twins(
            run_twins(
                broadcast,
                rounds=60,
                until=lambda s: len(s.informed_tiles()) == 16,
                runs=("object", engine_backend),
            )
        )


class TestRedundancyIsTheMechanism:
    def test_disabling_redundancy_breaks_upset_tolerance(self):
        # Flooding on a 1-wide path (2x1... use 2x2 with a single route):
        # with one link and heavy upsets, a lone copy usually dies; the
        # mesh's multi-path redundancy is what saves the protocol.
        losses_single_path = 0
        losses_mesh = 0
        trials = 10
        for seed in range(trials):
            # Single-path: a 1x4 "mesh" (a line) with upsets; the message
            # has exactly one route and each hop is an upset lottery.
            line = Mesh2D(1, 4)
            sim = NocSimulator(
                line,
                FloodingProtocol(),
                FaultConfig(p_upset=0.5),
                seed=seed,
                default_ttl=6,
            )
            sink = Sink()
            sim.mount(0, OneShotProducer(3))
            sim.mount(3, sink)
            if not sim.run(30).completed:
                losses_single_path += 1

            mesh = Mesh2D(2, 2)
            sim = NocSimulator(
                mesh,
                FloodingProtocol(),
                FaultConfig(p_upset=0.5),
                seed=seed,
                default_ttl=6,
            )
            sink = Sink()
            sim.mount(0, OneShotProducer(3))
            sim.mount(3, sink)
            if not sim.run(30).completed:
                losses_mesh += 1
        assert losses_mesh <= losses_single_path
