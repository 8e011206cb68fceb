"""One workload's long-lived child process.

``python bench/worker.py <workload> <seed> <scratch> <expected.json>``
builds the workload (child start to the ready line is ``setup_s``), then
answers one JSON request per line on stdin with one JSON reply per line
on the descriptor it was started with as stdout.  Whatever the program
itself prints goes to stderr, so the channel stays clean.

Requests: ``iterate`` (``trace``: bool), ``probes``, ``verify``,
``digests``, ``spans``.  A request that raises is answered with
``{"error": traceback}``; the driver treats that as fatal.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from pathlib import Path

import numpy

import cells
from spans import Tracer
from workloads import WORKLOADS


def _peak_rss_mb() -> float:
    """High-water RSS of this process or any waited-for descendant."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024


def _mismatches(labels, got, want) -> list[str]:
    """Labels whose digest differs from a wanted one (None = unchecked)."""
    return [
        label for label, g, w in zip(labels, got, want)
        if w is not None and g != w
    ]


class Session:
    """The state one child keeps between requests."""

    def __init__(self, name: str, seed: int, scratch: Path,
                 expected: Path) -> None:
        self.workload = WORKLOADS[name](seed, scratch)
        self.seed = seed
        self.expected = expected
        #: Digests of the first iteration; every later one must repeat them.
        self.first: list[str | None] | None = None
        self.best_traced_s = float("inf")
        self.spans: list[dict] = []

    def iterate(self, trace: bool) -> dict:
        """One iteration, checked against the first one's digests."""
        tracer = Tracer(trace)
        reply = self.workload.iterate(tracer)
        digests = reply.pop("digests")
        if self.first is None:
            self.first = digests
        drifted = _mismatches(self.workload.labels, digests, self.first)
        if drifted:
            reply["failed"] += len(drifted)
            reply["errors"].append(f"digests changed between iterations: "
                                   f"{drifted[:5]}")
        reply["attempted"] = len(digests)
        reply["sim_digest"] = cells.digest(tuple(digests))
        reply["peak_rss_mb"] = _peak_rss_mb()
        if trace and reply["wall_s"] < self.best_traced_s:
            self.best_traced_s = reply["wall_s"]
            self.spans = tracer.spans
        return reply

    def verify(self) -> dict:
        """Compare the first iteration with pinned or recomputed digests."""
        workload = self.workload
        pins = json.loads(self.expected.read_text())
        pinned = pins["seed"] == self.seed or workload.seed_free
        if pinned:
            by_label = pins["ops"][workload.pins_key]
            want = [by_label.get(label) for label in workload.labels]
        else:
            want = workload.reference()
        wrong = _mismatches(workload.labels, self.first, want)
        errors = [f"digest of {wrong[:5]} differs from the "
                  f"{'pinned' if pinned else 'recomputed'} one"] if wrong else []
        return {"failed": len(wrong), "errors": errors, "pinned": pinned,
                "checked": sum(w is not None for w in want)}

    def handle(self, request: dict) -> dict:
        """Dispatch one request."""
        command = request["cmd"]
        if command == "iterate":
            return self.iterate(request["trace"])
        if command == "probes":
            return self.workload.probes()
        if command == "verify":
            return self.verify()
        if command == "digests":
            return {"key": self.workload.pins_key,
                    "labels": self.workload.labels, "digests": self.first,
                    "reference": self.workload.reference()}
        if command == "spans":
            return {"spans": self.spans}
        raise ValueError(f"unknown request {command!r}")


def main(argv: list[str]) -> int:
    """Serve requests until stdin closes."""
    name, seed, scratch, expected = argv
    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def send(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    session = Session(name, int(seed), Path(scratch), Path(expected))
    send({"ready": True, "numpy": numpy.__version__})
    for line in sys.stdin:
        try:
            send(session.handle(json.loads(line)))
        except Exception:  # noqa: BLE001 - reported to the driver, which stops
            send({"error": traceback.format_exc()})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
