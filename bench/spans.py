"""Spans recorded by the benchmark around each call into the program.

A span is ``{"id", "parent", "name", "start_s", "dur_s"}``; spans are
kept in memory and handed to the driver when it asks.  Names are
``<layer>.<what>`` (``noc.fast.run``, ``service.db.record_task``) so a
layer's time is a sum over names.  A layer's *self* time is its spans'
duration minus what their child spans cover.

The program is traced from outside: :class:`Timed` wraps an object the
benchmark hands in (``db=``, ``runner.cache``) and :class:`TracedRunner`
brackets ``SweepRunner.run``.  Engine phases and pool task execution only
exist as totals (``PhaseProfiler``, ``TaskCompletion.duration_s``), so
they enter through :meth:`Tracer.add` as one aggregate child span.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from repro.runners import SweepRunner


class Tracer:
    """Collects spans; one active thread at a time, so one stack."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as a child of the innermost open span."""
        if not self.enabled:
            yield None
            return
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start_s": perf_counter(),
            "dur_s": 0.0,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["dur_s"] = perf_counter() - record["start_s"]

    def add(self, name: str, dur_s: float, parent: dict) -> None:
        """Attach an aggregate (already summed) child span to `parent`."""
        self.spans.append({
            "id": len(self.spans),
            "parent": parent["id"],
            "name": name,
            "start_s": parent["start_s"],
            "dur_s": dur_s,
            "aggregate": True,
        })

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed duration and span count per name."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for span in self.spans:
            total[span["name"]] += span["dur_s"]
            calls[span["name"]] += 1
        return total, calls

    def self_times(self) -> dict[str, float]:
        """Summed self time (duration minus children) per name."""
        covered: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["dur_s"]
        result: dict[str, float] = defaultdict(float)
        for span in self.spans:
            result[span["name"]] += span["dur_s"] - covered[span["id"]]
        return result


class Timed:
    """Forwards to `target`, with a span around each of `methods`."""

    def __init__(self, target, tracer: Tracer, layer: str, methods) -> None:
        self._target = target
        for method in methods:
            setattr(self, method, self._wrap(
                getattr(target, method), tracer, f"{layer}.{method}"
            ))

    @staticmethod
    def _wrap(call, tracer: Tracer, name: str):
        def timed(*args, **kwargs):
            with tracer.span(name):
                return call(*args, **kwargs)

        return timed

    def __getattr__(self, name: str):
        return getattr(self._target, name)


class TracedRunner(SweepRunner):
    """A ``SweepRunner`` whose every ``run()`` call is one span.

    Serial batches are named ``runners.runner.run``; pooled ones
    ``runners.supervisor.run``, because there the coordinator's time is
    the supervisor's dispatch loop.

    Attributes:
        durations: ``TaskCompletion.duration_s`` of every executed task.
        first_s: seconds from the first ``run()`` to its first result
            (on the pool path that is mostly the pool start).
    """

    def __init__(self, tracer: Tracer, **kwargs) -> None:
        super().__init__(**kwargs)
        self.tracer = tracer
        self.durations: list[float] = []
        self.first_s: float | None = None

    def run(self, tasks, **kwargs):
        """Bracket the batch, then hang task execution under its span."""
        inner = kwargs.pop("on_result", None)
        before = len(self.durations)
        start = perf_counter()

        def on_result(completion):
            if self.first_s is None:
                self.first_s = perf_counter() - start
            if completion.duration_s is not None:
                self.durations.append(completion.duration_s)
            if inner is not None:
                inner(completion)

        pooled = self.n_workers > 1
        name = "runners.supervisor.run" if pooled else "runners.runner.run"
        with self.tracer.span(name) as span:
            results = super().run(tasks, on_result=on_result, **kwargs)
        if not pooled:
            # Serial durations are measured around the call itself, inside
            # run(); pooled ones overlap each other and are not children.
            self.tracer.add(
                "runners.runner.task_exec", sum(self.durations[before:]), span
            )
        return results
