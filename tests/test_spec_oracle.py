"""The engine against an oracle that shares no code with it.

``tests/oracles/spec.py`` models retain-mode Bernoulli gossip from
``docs/protocol.md`` alone.  Fast == object passes a bug in code both
backends share; this gate compares the engine's saturation rounds with
the model's, in distribution, over fixed seeds: a two-sample KS test per
cell, Holm-corrected at family-wise α = 1e-3.  The seeds are fixed, so
the verdict repeats exactly; a failing gate is a bug report, not a flake
to re-seed or an α to widen.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.core.packet import BROADCAST
from repro.core.protocol import StochasticProtocol
from repro.faults import FaultConfig
from repro.noc import Mesh2D, NocSimulator, SimConfig, Torus2D
from repro.noc.tile import IPCore, TileContext
from tests.oracles import spec

ALPHA = 1e-3
SIDE = 8
SEEDS = 200
MAX_ROUNDS = 60

#: name -> (torus, p, p_upset, ttl).  The TTLs are the engine's defaults
#: for an 8 x 8 grid (diameter + ceil(log2 n) + 2): on the mesh at
#: p = 0.5 a few runs from the corner expire before saturating.
CELLS = {
    "mesh-p0.5": (False, 0.5, 0.0, 22),
    "mesh-flood-upsets0.3": (False, 1.0, 0.3, 22),
    "torus-p0.5": (True, 0.5, 0.0, 16),
    "torus-flood-upsets0.3": (True, 1.0, 0.3, 16),
}


class _Seed(IPCore):
    def on_start(self, ctx: TileContext) -> None:
        ctx.send(BROADCAST, b"rumor")


def _engine_rounds(torus: bool, p: float, p_upset: float, ttl: int) -> np.ndarray:
    config = SimConfig(
        (Torus2D if torus else Mesh2D)(SIDE, SIDE),
        StochasticProtocol(p),
        FaultConfig(p_upset=p_upset),
        default_ttl=ttl,
        backend="fast",
    )
    n = SIDE * SIDE
    rounds = []
    for seed in range(SEEDS):
        sim = NocSimulator.from_config(config, seed=seed)
        sim.mount(0, _Seed())
        result = sim.run(MAX_ROUNDS, until=lambda s: len(s.informed_tiles()) == n)
        rounds.append(result.rounds)
    return np.array(rounds)


@pytest.fixture(scope="module")
def samples() -> dict:
    """Per cell: (engine saturation rounds, model saturation rounds)."""
    return {
        name: (
            _engine_rounds(torus, p, p_upset, ttl),
            spec.saturation_rounds(
                SIDE, torus=torus, p=p, p_upset=p_upset, ttl=ttl,
                max_rounds=MAX_ROUNDS, replicates=SEEDS, seed=index,
            ),
        )
        for index, (name, (torus, p, p_upset, ttl)) in enumerate(CELLS.items())
    }


def test_engine_matches_the_spec_model(samples) -> None:
    pvalues = {name: spec.ks_2samp(*pair)[1] for name, pair in samples.items()}
    rejected = spec.holm(list(pvalues.values()), ALPHA)
    assert not rejected.any(), pvalues


def test_a_one_round_shift_is_rejected(samples) -> None:
    """The gate has power: the engine's sample shifted by one round
    fails every cell at the same α."""
    pvalues = [
        spec.ks_2samp(engine + 1, model)[1] for engine, model in samples.values()
    ]
    assert spec.holm(pvalues, ALPHA).all(), pvalues


def test_the_model_imports_no_engine_code() -> None:
    tree = ast.parse(Path(spec.__file__).read_text())
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    }
    assert not any(name.startswith("repro") for name in imported), imported


def test_ks_and_holm_known_answers() -> None:
    same = spec.ks_2samp(np.arange(100), np.arange(100))
    assert same == (0.0, 1.0)
    d, p = spec.ks_2samp(np.zeros(50), np.ones(50))
    assert d == 1.0 and p < 1e-20
    # Holm steps down: 0.01 <= 0.05 / 3, 0.02 <= 0.05 / 2, 0.04 <= 0.05;
    # with 0.03 for 0.02 it stops there (0.03 > 0.05 / 2).
    assert spec.holm([0.04, 0.01, 0.02], 0.05).tolist() == [True, True, True]
    assert spec.holm([0.04, 0.01, 0.03], 0.05).tolist() == [False, True, False]
