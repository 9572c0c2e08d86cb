"""The calendar clock against the heap clock it replaced.

`HeapClock` is the earlier `SimClock`, kept verbatim as the reference: a
heap of `(time, sequence, callback)` entries. The property below drives
both clocks through the same generated schedules and requires the same
callbacks to run in the same order, at the same `now`.
"""

from __future__ import annotations

import heapq
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptdom.system import SimClock


class HeapClock:
    """Priority queue of (time, sequence, callback); ties run in schedule
    order, so a fixed schedule always replays identically."""

    def __init__(self):
        self._now = 0
        self._seq = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []

    @property
    def now(self) -> int:
        return self._now

    def schedule(self, time: int, fn: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (max(time, self._now), self._seq, fn))
        self._seq += 1

    def run_until(self, until: int) -> None:
        while self._heap and self._heap[0][0] <= until:
            time, _, fn = heapq.heappop(self._heap)
            if time > self._now:
                self._now = time
            fn()
        if until > self._now:
            self._now = until


class Boom(Exception):
    pass


# A callback is (label, raises, children): when it runs it logs its label
# and the clock's time, schedules each child at `now + delta` (a negative
# delta is in the past), then raises if asked to.
callbacks = st.recursive(
    st.tuples(st.integers(0, 9), st.booleans(), st.just(())),
    lambda inner: st.tuples(
        st.integers(0, 9), st.booleans(),
        st.lists(st.tuples(st.integers(-3, 3), inner), max_size=4).map(tuple),
    ),
    max_leaves=12,
)
# Each step schedules callbacks at absolute times (some behind the clock
# by then), then runs the clock to a target that may also be behind it.
steps = st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, 30), callbacks), max_size=5),
        st.integers(0, 40),
    ),
    min_size=1, max_size=6,
)


def drive(clock, plan) -> list:
    log: list = []

    def make(node):
        label, raises, children = node

        def fn():
            log.append((label, clock.now))
            if len(log) > 10_000:  # a clock that re-runs callbacks never ends
                pytest.fail("runaway schedule")
            for delta, child in children:
                clock.schedule(clock.now + delta, make(child))
            if raises:
                raise Boom(label)

        return fn

    for schedules, until in plan:
        for time, node in schedules:
            clock.schedule(time, make(node))
        # A callback that raises leaves the rest queued: run the same step
        # again until it completes.
        for _ in range(1000):
            try:
                clock.run_until(until)
            except Boom:
                log.append(("raised", clock.now))
                continue
            break
        else:
            pytest.fail("run_until kept raising")
        log.append(("step", until, clock.now))
    return log


@settings(max_examples=150, deadline=None)
@given(steps)
def test_calendar_runs_what_the_heap_runs(plan):
    assert drive(SimClock(), plan) == drive(HeapClock(), plan)


def test_raising_callback_leaves_the_rest_queued():
    clock = SimClock()
    ran = []

    def boom():
        raise Boom()

    clock.schedule(3, lambda: ran.append("a"))
    clock.schedule(3, boom)
    clock.schedule(3, lambda: ran.append("b"))
    clock.schedule(4, lambda: ran.append("c"))
    with pytest.raises(Boom):
        clock.run_until(10)
    assert ran == ["a"] and clock.now == 3
    clock.run_until(10)
    assert ran == ["a", "b", "c"] and clock.now == 10
