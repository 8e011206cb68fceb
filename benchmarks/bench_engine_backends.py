"""Round-throughput benchmark: object engine vs the fast SoA backend.

The fast backend's reason to exist is wall-clock: the acceptance target
for this PR is **>= 10x** round throughput on the 16x16 broadcast
workload, at bit-identical results.  This bench measures both engines on
that exact workload, asserts the results match, and reports rounds/s
and the speedup factor.  A second leg repeats the comparison under data
upsets (``p_upset=0.1``), where the fast backend reads each round's
draws and corruptions off one block of raw PCG64 words
(``repro/noc/backends/words.py``), against a **>= 1.5x** floor.  Three
policy legs follow on the 16x16 mesh.  Fault-free push-pull runs both
halves batched (``repro/policies/sampling.py``) against a **>= 5x**
floor.  Push-pull at ``p_upset=0.1`` runs the per-row send and pull,
which draw in the object engine's order and emit one matrix per round,
and is checked for equality only.
``adaptive_route`` at ``p_upset=0.1`` runs the batched send kernel (its
0/1 decision matrix plus the upset walk) against a parity floor.  The
policy floors are asserted in full mode only; ``--quick`` checks
equality alone.

Run standalone for the full measurement (asserts the 10x target)::

    PYTHONPATH=src python benchmarks/bench_engine_backends.py

or with ``--quick`` for the CI smoke variant (smaller grid, relaxed
floor so shared-runner noise cannot flake the pipeline).  Under pytest
(``pytest benchmarks/bench_engine_backends.py``) the same workload runs
through pytest-benchmark with the relaxed floor.
"""

from __future__ import annotations

import argparse
import time

import pytest

from repro.core.packet import BROADCAST
from repro.core.protocol import StochasticProtocol
from repro.faults import FaultConfig
from repro.noc.engine import NocSimulator, SimulationResult
from repro.noc.tile import IPCore, TileContext
from repro.noc.topology import Mesh2D
from repro.policies import PolicySpec

MAX_ROUNDS = 400

#: The upset leg: packet upset probability and its speedup floor.
UPSET_P = 0.1
UPSET_MIN_SPEEDUP = 1.5

#: The policy legs: (policy kind, p_upset, full-mode speedup floor).
#: Fault-free push-pull and upset adaptive_route run the batched send
#: kernel; upset push-pull runs the scalar walker (floor 0 = equality
#: only, 1 = parity).
POLICY_LEGS = (
    ("push_pull", 0.0, 5.0),
    ("push_pull", UPSET_P, 0.0),
    ("adaptive_route", UPSET_P, 1.0),
)


class _Seed(IPCore):
    def on_start(self, ctx: TileContext) -> None:
        ctx.send(BROADCAST, b"rumor", ttl=MAX_ROUNDS)


def broadcast_once(
    backend: str,
    side: int = 16,
    seed: int = 1,
    p: float = 0.5,
    p_upset: float = 0.0,
    policy: str | None = None,
) -> SimulationResult:
    """One full broadcast-saturation run on `backend`.

    `policy` names a registered policy kind to run instead of the
    Bernoulli(`p`) protocol.
    """
    topology = Mesh2D(side, side)
    n = topology.n_tiles
    simulator = NocSimulator(
        topology,
        StochasticProtocol(p) if policy is None else PolicySpec.of(policy),
        FaultConfig(p_upset=p_upset),
        seed=seed,
        default_ttl=MAX_ROUNDS,
        backend=backend,
    )
    simulator.mount(0, _Seed())
    return simulator.run(
        MAX_ROUNDS, until=lambda sim: len(sim.informed_tiles()) == n
    )


def time_backend(
    backend: str,
    side: int,
    repeats: int,
    seed: int = 1,
    p_upset: float = 0.0,
    policy: str | None = None,
) -> tuple[float, SimulationResult]:
    """Best-of-`repeats` wall-clock seconds for one saturation run."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = broadcast_once(
            backend, side=side, seed=seed, p_upset=p_upset, policy=policy
        )
        best = min(best, time.perf_counter() - start)
    assert result is not None
    return best, result


def compare(
    side: int,
    repeats: int,
    seed: int = 1,
    p_upset: float = 0.0,
    policy: str | None = None,
) -> dict:
    """Measure both backends; returns timings, speedup and the results."""
    t_object, r_object = time_backend(
        "object", side, repeats, seed, p_upset, policy
    )
    t_fast, r_fast = time_backend("fast", side, repeats, seed, p_upset, policy)
    if r_object != r_fast:
        raise AssertionError(
            "backends diverged on the benchmark workload — equivalence "
            "gate broken, timing numbers are meaningless"
        )
    rounds = r_object.rounds + 1
    return {
        "side": side,
        "policy": policy or "bernoulli",
        "p_upset": p_upset,
        "rounds": rounds,
        "t_object": t_object,
        "t_fast": t_fast,
        "rps_object": rounds / t_object,
        "rps_fast": rounds / t_fast,
        "speedup": t_object / t_fast,
    }


def report(stats: dict) -> str:
    """Render one comparison as the human-readable summary block."""
    return (
        f"engine-backend throughput, {stats['side']}x{stats['side']} mesh "
        f"broadcast, {stats['policy']}, p_upset = {stats['p_upset']} "
        f"({stats['rounds']} rounds)\n"
        f"  object: {stats['t_object'] * 1e3:8.1f} ms  "
        f"({stats['rps_object']:8.0f} rounds/s)\n"
        f"  fast:   {stats['t_fast'] * 1e3:8.1f} ms  "
        f"({stats['rps_fast']:8.0f} rounds/s)\n"
        f"  speedup: {stats['speedup']:.1f}x"
    )


# ----------------------------------------------------------------- pytest


def test_backends_bit_identical_on_bench_workload():
    assert broadcast_once("object", side=8) == broadcast_once("fast", side=8)


def test_fast_backend_speedup_smoke(benchmark):
    # Smoke floor, not the 10x acceptance target: shared CI runners time
    # noisily, so the hard target is asserted only by the standalone run.
    benchmark(broadcast_once, "fast")
    stats = compare(side=16, repeats=2)
    print("\n" + report(stats))
    assert stats["speedup"] >= 3.0


def test_fast_backend_upset_speedup_smoke():
    # The upset path used to re-pool a whole round's draws per corruption
    # and ran at 1.0x the object engine; compare() checks equality first.
    stats = compare(side=16, repeats=2, p_upset=UPSET_P)
    print("\n" + report(stats))
    assert stats["speedup"] >= UPSET_MIN_SPEEDUP


@pytest.mark.parametrize(
    ("policy", "p_upset"), [leg[:2] for leg in POLICY_LEGS]
)
def test_fast_backend_policy_legs_smoke(policy, p_upset):
    # Equality only (compare() raises on divergence); the floors are
    # asserted by the standalone full run.
    stats = compare(side=16, repeats=1, p_upset=p_upset, policy=policy)
    print("\n" + report(stats))
    assert stats["rounds"] > 1


# ------------------------------------------------------------- standalone


def main() -> int:
    parser = argparse.ArgumentParser(
        description="object vs fast engine-backend throughput"
    )
    parser.add_argument("--side", type=int, default=16)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=10.0,
        help="fail below this factor (the PR acceptance target)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: 12x12 grid, 2 repeats, 3x floor",
    )
    args = parser.parse_args()
    if args.quick:
        args.side, args.repeats = 12, 2
        args.min_speedup = min(args.min_speedup, 3.0)
    status = 0
    legs = [(None, 0.0, args.min_speedup), (None, UPSET_P, UPSET_MIN_SPEEDUP)]
    # Policy legs: equality (inside compare) always, their floors in full
    # mode only, and always on the 16x16 mesh.
    legs += [
        (policy, p_upset, 0.0 if args.quick else floor)
        for policy, p_upset, floor in POLICY_LEGS
    ]
    for policy, p_upset, floor in legs:
        side = args.side if policy is None else 16
        stats = compare(side, args.repeats, args.seed, p_upset, policy)
        print(report(stats))
        if stats["speedup"] < floor:
            print(
                f"FAIL: speedup {stats['speedup']:.1f}x below the "
                f"{floor:.1f}x floor"
            )
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
