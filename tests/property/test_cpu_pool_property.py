"""Property tests for the CPU pool's run queue.

Random task sets (arrival time, CPU seconds including 0 and more than a
timeslice, pinned / subset / any-core placement, priorities) run on
:class:`repro.sim.CpuPool` while the test watches every event boundary.  All
times are whole numbers, so float sums are exact and equalities are ``==``.

Where the old per-core-``Resource`` formulation (``reference_cpu_pool``) must
give the same schedule, completion times are compared exactly.  The two may
differ only in same-instant tie-breaks: the old pool spent several kernel
events on every grant, during which a floating task held *all* its idle
allowed cores, so whatever else happened at that very instant (another
arrival, another release) could change who got which core.  Task sets in
which two scheduling moments — an arrival or a release — share an instant
are not compared; the sparse task sets draw distinct arrival times so that
few are lost to that.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sim import CpuPool, Environment

from .reference_cpu_pool import ReferenceCpuPool

TIMESLICE_DENSE = 4.0
TIMESLICE_SPARSE = 1000.0


@dataclass(frozen=True)
class Task:
    arrival: int
    seconds: int
    core: Optional[int]
    cores: Optional[tuple[int, ...]]
    priority: int


@st.composite
def task_sets(draw, dense: bool, pinned_only: bool = False):
    """(n_cores, timeslice, tasks); ``dense`` packs times so ties abound,
    otherwise arrivals are distinct and durations wide so ties are rare."""
    n_cores = draw(st.integers(1, 4))
    horizon, longest = (12, 10) if dense else (10_000, 3_000)
    core_ids = st.integers(0, n_cores - 1)
    placements = [st.tuples(core_ids, st.none())]
    if not pinned_only:
        placements += [
            st.tuples(st.none(), st.none()),
            st.tuples(
                st.none(),
                st.lists(core_ids, min_size=1, max_size=n_cores).map(tuple),
            ),
        ]
    tasks = draw(
        st.lists(
            st.builds(
                lambda arrival, seconds, placement, priority: Task(
                    arrival, seconds, placement[0], placement[1], priority
                ),
                st.integers(0, horizon),
                st.integers(0, longest),
                st.one_of(placements),
                st.sampled_from([0, 0, 5]),
            ),
            min_size=1,
            max_size=10,
            unique_by=None if dense else (lambda task: task.arrival),
        )
    )
    return n_cores, TIMESLICE_DENSE if dense else TIMESLICE_SPARSE, tasks


class WatchedPool(CpuPool):
    """Checks every hand-over against the queue's stated order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.release_times: list[float] = []

    def _release(self, idx: int) -> None:
        eligible = [w for w in self._waiting if w[2] >> idx & 1]
        first = min(eligible, key=lambda w: (w[0], w[1]), default=None)
        super()._release(idx)
        self.release_times.append(self.env.now)
        if first is None:
            assert not self._busy >> idx & 1
        else:
            # (priority, arrival) order among the waiters allowed on idx
            assert first not in self._waiting
            assert first[3].triggered and first[3].value == idx
            assert self._busy >> idx & 1


def run_tasks(env, pool, tasks):
    """Start every task; returns (arrival instants, finish time per task)."""
    arrivals: list[float] = []
    finished: dict[int, float] = {}

    def body(i, task):
        yield env.timeout(task.arrival)
        arrivals.append(env.now)
        yield from pool.execute(
            task.seconds, core=task.core, cores=task.cores, priority=task.priority
        )
        finished[i] = env.now

    for i, task in enumerate(tasks):
        env.process(body(i, task))
    return arrivals, finished


def run_watched(n_cores, timeslice, tasks):
    """Run on the real pool, checking the invariants at every event boundary."""
    env = Environment()
    pool = WatchedPool(env, n_cores, timeslice=timeslice)
    arrivals, finished = run_tasks(env, pool, tasks)
    held_time = [0.0] * n_cores  # integral of each core's busy flag
    while env.peek() != float("inf"):
        before, held = env.now, pool._busy
        env.step()
        for idx in range(n_cores):
            if held >> idx & 1:
                held_time[idx] += env.now - before
        # work conservation: nobody waits while a core it may use is idle
        for _priority, _seq, mask, _event in pool._waiting:
            assert mask & ~pool._busy == 0
    assert pool._busy == 0 and not pool._waiting
    assert sorted(finished) == list(range(len(tasks)))
    for i, task in enumerate(tasks):
        assert finished[i] >= task.arrival + task.seconds
    # Every served second was served under a core's single busy flag, so no
    # core ever ran two items at once ...
    assert pool.busy_time == held_time
    # ... and exactly the seconds asked for were served.
    assert sum(pool.busy_time) == sum(task.seconds for task in tasks)
    return pool, arrivals, finished


def run_reference(n_cores, timeslice, tasks):
    env = Environment()
    pool = ReferenceCpuPool(env, n_cores, timeslice)
    _arrivals, finished = run_tasks(env, pool, tasks)
    env.run()
    return pool, finished


def has_same_instant_race(pool: WatchedPool, arrivals: list[float]) -> bool:
    """Two scheduling moments (arrivals, releases) share an instant."""
    return max(Counter(pool.release_times + arrivals).values()) > 1


@settings(max_examples=150, deadline=None)
@given(task_sets(dense=True))
def test_scheduler_invariants_under_heavy_ties(case):
    run_watched(*case)


@settings(max_examples=100, deadline=None)
@given(task_sets(dense=False))
def test_scheduler_invariants_with_long_slices(case):
    run_watched(*case)


def assert_completes_like_the_old_pool(case):
    pool, arrivals, finished = run_watched(*case)
    assume(not has_same_instant_race(pool, arrivals))
    reference, expected = run_reference(*case)
    assert finished == expected
    assert pool.busy_time == reference.busy_time


@settings(max_examples=150, deadline=None)
@given(task_sets(dense=False, pinned_only=True))
def test_pinned_work_completes_exactly_when_the_old_pool_said(case):
    assert_completes_like_the_old_pool(case)


@settings(max_examples=150, deadline=None)
@given(task_sets(dense=False))
def test_floating_work_completes_exactly_when_the_old_pool_said(case):
    assert_completes_like_the_old_pool(case)
