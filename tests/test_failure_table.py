"""The supervisor's failure state machine, checked without processes.

:func:`repro.runners.supervisor.transition` is the one function that
decides retry / probe / quarantine / fail for every sweep task.  These
tests pin its table row by row, check it as a property over random event
sequences for one task, pin that degradation to in-process execution
keeps a task's attempt budget, and check the supervisor itself against
the table over random task outcomes on a real pool that batches tasks.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runners import RetryExhaustedError, SimTask, SweepRunner
from repro.runners.supervisor import (
    Action,
    Event,
    FleetSupervisor,
    _TaskState,
    transition,
)

RAISED, TIMED_OUT = Event.RAISED, Event.TIMED_OUT
BROKE, DEGRADED = Event.POOL_BROKE, Event.POOL_DEGRADED
RETRY, PROBE = Action.RETRY, Action.PROBE
QUARANTINE, FAIL = Action.QUARANTINE, Action.FAIL


def _always_fails(counter_path: str, seed: int = 0) -> None:
    """A transient-looking failure on every call, counted on disk."""
    calls = 0
    if os.path.exists(counter_path):
        with open(counter_path) as handle:
            calls = int(handle.read())
    with open(counter_path, "w") as handle:
        handle.write(str(calls + 1))
    raise RuntimeError(f"transient failure {calls + 1}")


def _state(attempt: int = 1, blames: int = 0, solo: bool = False) -> _TaskState:
    task = SimTask(fn="repro.runners.runner:spawn_seeds")
    return _TaskState(0, task, None, attempt=attempt, blames=blames, solo=solo)


# (state, event, kwargs, action, (attempt, blames, solo) afterwards);
# max_attempts is 3 unless kwargs say otherwise.
ROWS = [
    # raised: a deterministic error fails at once, whatever the budget
    (_state(), RAISED, {"error": ValueError()}, FAIL, (1, 0, False)),
    (_state(), RAISED, {"error": TypeError()}, FAIL, (1, 0, False)),
    (_state(2, 1), RAISED, {"error": ValueError()}, FAIL, (2, 1, False)),
    # raised / timed out: retry until the attempt budget is spent
    (_state(), RAISED, {"error": RuntimeError()}, RETRY, (2, 0, False)),
    (_state(2), RAISED, {"error": OverflowError()}, RETRY, (3, 0, False)),
    (_state(3), RAISED, {"error": RuntimeError()}, FAIL, (3, 0, False)),
    (_state(), TIMED_OUT, {}, RETRY, (2, 0, False)),
    (_state(3), TIMED_OUT, {}, FAIL, (3, 0, False)),
    # pool broke: blame, never an attempt, never fail
    (_state(), BROKE, {}, RETRY, (1, 1, False)),
    (_state(), BROKE, {"alone": True}, PROBE, (1, 1, True)),
    (_state(blames=1), BROKE, {}, PROBE, (1, 2, False)),
    (_state(blames=1), BROKE, {"alone": True}, PROBE, (1, 2, True)),
    (_state(blames=2), BROKE, {}, PROBE, (1, 3, False)),
    (_state(blames=2), BROKE, {"alone": True}, QUARANTINE, (1, 3, True)),
    (_state(3, 2), BROKE, {"alone": True}, QUARANTINE, (3, 3, True)),
    # pool degraded: a crash suspect is quarantined, a clean task runs
    # in-process with its attempt count intact
    (_state(blames=1), DEGRADED, {}, QUARANTINE, (1, 1, False)),
    (_state(blames=2, solo=True), DEGRADED, {}, QUARANTINE, (1, 2, True)),
    (_state(2), DEGRADED, {}, RETRY, (2, 0, False)),
    # small budgets: a co-blamed task at b >= max probes below the
    # suspect threshold of two, and a budget of one retries nothing
    (_state(), BROKE, {"max_attempts": 1}, PROBE, (1, 1, False)),
    (_state(), BROKE, {"max_attempts": 2}, RETRY, (1, 1, False)),
    (_state(), RAISED, {"max_attempts": 1, "error": OSError()}, FAIL, (1, 0, False)),
]


@pytest.mark.parametrize(
    ("state", "event", "kwargs", "action", "after"),
    ROWS,
    ids=[f"{i}-{row[1].name}-{row[3].name}" for i, row in enumerate(ROWS)],
)
def test_transition_rows(state, event, kwargs, action, after):
    got, next_state = transition(state, event, **{"max_attempts": 3, **kwargs})
    assert got is action
    assert (next_state.attempt, next_state.blames, next_state.solo) == after
    assert (next_state.index, next_state.task) == (state.index, state.task)


_EVENTS = (RAISED, TIMED_OUT, BROKE, DEGRADED)


@settings(max_examples=100, deadline=None)
@given(
    max_attempts=st.integers(1, 6),
    draws=st.binary(min_size=12, max_size=12),
)
def test_every_event_sequence_ends_in_one_terminal_action(max_attempts, draws):
    """Drive one task through random failures, as the supervisor would.

    The sequence respects how tasks move: a probed task only runs alone,
    and after degradation only in-process failures (*raised*) remain.
    Within ``2 * max_attempts`` events it must end in exactly one of
    *quarantine* / *fail*, never after more than ``max_attempts``
    raised / timed-out events; quarantine follows only a solo crash or a
    degradation with blames; a crash never fails the sweep.
    """
    state = _state()
    pooled, probing = True, False
    failures = 0
    terminal: list[Action] = []
    # Each byte is one failure: bits 0-1 the event, bit 2 a deterministic
    # error (raised only), bit 3 alone in flight (pool broke only).
    for byte in draws[: 2 * max_attempts]:
        event = _EVENTS[byte & 3] if pooled else RAISED
        error = None
        if event is RAISED:
            error = ValueError() if byte & 4 else RuntimeError()
        alone = event is BROKE and (probing or bool(byte & 8))
        action, after = transition(
            state, event, max_attempts=max_attempts, error=error, alone=alone
        )
        if event in (RAISED, TIMED_OUT):
            failures += 1
            assert failures <= max_attempts
        if event is BROKE:
            assert action is not FAIL
        if action is QUARANTINE:
            assert (event is BROKE and after.solo) or (
                event is DEGRADED and state.blames > 0
            )
        if action in (QUARANTINE, FAIL):
            terminal.append(action)
            break
        probing = probing or action is PROBE
        pooled = pooled and event is not DEGRADED
        state = after
    assert len(terminal) == 1


def test_degradation_keeps_the_attempt_budget(tmp_path):
    """A task that spent attempts on the pool gets only the rest
    in-process: the total never exceeds ``max_attempts``."""
    counter = str(tmp_path / "counter")
    runner = SweepRunner(max_attempts=3, retry_backoff_s=0.0)
    task = SimTask.call(_always_fails, counter_path=counter)
    spent = _TaskState(0, task, None, attempt=2)  # one pool attempt failed
    with pytest.raises(RetryExhaustedError) as excinfo:
        FleetSupervisor(runner)._degrade([spent], emit=lambda *_: None)
    assert excinfo.value.attempts == 3
    with open(counter) as handle:
        assert handle.read() == "2"  # attempts 2 and 3, not three more
    assert runner.tasks_retried == 1


def _scripted(fate: str, runs_dir: str, seed: int = 0) -> tuple[int, int]:
    """A task whose fate is set: ``ok``, ``transient`` (a RuntimeError on
    its first run only) or ``value`` (a ValueError on every run).  Each
    run leaves one marker file in `runs_dir`."""
    run = 0
    while True:
        path = os.path.join(runs_dir, f"{seed}.{run}")
        try:
            os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            break
        except FileExistsError:
            run += 1
    if fate == "value":
        raise ValueError(f"task {seed} is malformed")
    if fate == "transient" and run == 0:
        raise RuntimeError(f"task {seed} hit a transient fault")
    return seed, seed * seed


_N_SCRIPTED = 40


@settings(max_examples=8, deadline=None)
@example(fates={}, max_attempts=2)
@example(fates={3: "transient", 25: "value", 31: "transient"}, max_attempts=2)
@given(
    fates=st.dictionaries(
        st.integers(0, _N_SCRIPTED - 1),
        st.sampled_from(("transient", "value")),
        max_size=8,
    ),
    max_attempts=st.integers(2, 3),
)
def test_batched_pool_follows_the_table(fates, max_attempts):
    """The supervisor on a 2-worker pool, batches engaged, obeys the table.

    Every task ends in one terminal action (emitted once, or the one
    that fails the sweep), none runs more than ``max_attempts`` times, a
    ValueError fails the sweep on its first attempt, and every emitted
    result is pickle-identical to the serial run of the same seed.
    """
    submit = ProcessPoolExecutor.submit
    sizes: list[int] = []

    def spy(self, fn, /, *args, **kwargs):
        sizes.append(len(args[0]))
        return submit(self, fn, *args, **kwargs)

    with tempfile.TemporaryDirectory() as serial_dir:
        reference = SweepRunner().run(
            [
                SimTask.call(_scripted, seed=seed, fate="ok", runs_dir=serial_dir)
                for seed in range(_N_SCRIPTED)
            ]
        )
    with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as runs_dir:
        tasks = [
            SimTask.call(
                _scripted, seed=seed, fate=fates.get(seed, "ok"), runs_dir=runs_dir
            )
            for seed in range(_N_SCRIPTED)
        ]
        runner = SweepRunner(
            n_workers=2, max_attempts=max_attempts, retry_backoff_s=0.0
        )
        completions: list = []
        failed = None
        with mock.patch.object(ProcessPoolExecutor, "submit", spy):
            try:
                results = runner.run(tasks, on_result=completions.append)
            except RetryExhaustedError as error:
                failed = error
        runs = Counter(int(name.split(".")[0]) for name in os.listdir(runs_dir))

    emitted = Counter(completion.index for completion in completions)
    assert set(emitted.values()) <= {1}
    assert max(runs.values()) <= max_attempts
    for completion in completions:
        assert pickle.dumps(completion.value) == pickle.dumps(
            reference[completion.index]
        )
    if failed is None:
        assert "value" not in fates.values()
        assert set(emitted) == set(range(_N_SCRIPTED))
        assert pickle.dumps(results) == pickle.dumps(reference)
        assert max(sizes) > 1  # batches were engaged
        for seed, fate in fates.items():
            assert runs[seed] == 2  # the transient task ran once more
    else:
        seed = failed.task.seed
        assert fates.get(seed) == "value"
        assert failed.attempts == 1
        assert isinstance(failed.last_error, ValueError)
        assert runs[seed] == 1
        assert seed not in emitted
