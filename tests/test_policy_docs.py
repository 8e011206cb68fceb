"""The policy guide's "Adding a policy" example runs as written.

``docs/policies.md`` states the send-rule contract by example.  This
test reads the python block under its "## Adding a policy" heading,
executes it, and runs the policy it registers on a 4×4 mesh on both
backends through the twin comparator (:func:`tests.twins.assert_twins`).
The example has no ``decide_batch``, so the fast backend must answer it
through the per-row send.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.core.packet import BROADCAST
from repro.noc import Mesh2D, NocSimulator, SimConfig
from repro.noc.tile import IPCore, TileContext
from repro.policies import POLICY_REGISTRY, PolicySpec
from tests.twins import assert_twins, run_twins

GUIDE = Path(__file__).resolve().parents[1] / "docs" / "policies.md"


def _example() -> str:
    section = GUIDE.read_text().split("\n## Adding a policy\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


class _Source(IPCore):
    def on_start(self, ctx: TileContext) -> None:
        ctx.send(BROADCAST, b"rumor")


def _never(sim) -> bool:
    return False


def test_the_adding_a_policy_example_runs_on_both_backends() -> None:
    before = set(POLICY_REGISTRY)
    exec(compile(_example(), str(GUIDE), "exec"), {"__name__": "example"})
    (kind,) = set(POLICY_REGISTRY) - before
    try:

        def make(backend: str, observer) -> NocSimulator:
            config = SimConfig(Mesh2D(4, 4), PolicySpec.of(kind), backend=backend)
            sim = NocSimulator.from_config(config, seed=3, observer=observer)
            sim.mount(0, _Source())
            return sim

        twins = run_twins(make, rounds=16, until=_never)
        assert_twins(twins)
        assert len(twins[0].sim.informed_tiles()) == 16
        assert twins[1].sim.engine_paths["send.sequential"] > 0
    finally:
        POLICY_REGISTRY.pop(kind, None)
