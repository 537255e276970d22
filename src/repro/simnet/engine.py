"""Discrete-event simulation engine.

A minimal but production-grade event scheduler: a binary heap of timestamped
callbacks with stable FIFO ordering for simultaneous events, cancellable
handles, and a monotonic simulation clock.  Everything else in
:mod:`repro.simnet` (links, hosts, traffic generators, the SNMP poller) is
driven by this loop.

The paper's experiments run for a few hundred simulated seconds with loads
up to 2000 KB/s of 1472-byte datagrams; at roughly five events per frame
that is a few million events per experiment, which this pure-Python heap
handles in seconds.

The heap holds plain ``(time, seq, handle)`` tuples.  ``seq`` comes from a
counter and is unique, so tuple comparison settles on ``(time, seq)`` --
FIFO among equal timestamps -- and never reaches the handle; a tuple
compares in C, where an ordered dataclass entry paid a Python-level
``__lt__`` per comparison.  Events are popped through the module attribute
``heapq.heappop`` (no local alias), so a profiler may substitute it.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised for scheduler misuse (negative delays, running backwards)."""


class EventHandle:
    """Cancellable reference to a scheduled callback.

    Cancellation is lazy: the heap entry stays in place and is discarded
    when it surfaces, which keeps :meth:`Simulator.schedule` O(log n) and
    :meth:`cancel` O(1).
    """

    __slots__ = ("callback", "args", "kwargs", "time", "cancelled", "fired")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple,
        kwargs: dict,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """True while the event is still waiting to fire."""
        return not (self.cancelled or self.fired)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<EventHandle t={self.time:.6f} {name} {state}>"


class Simulator:
    """Event-heap simulator with a float-seconds clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, fn, arg)      # relative delay
        sim.schedule_at(10.0, fn)       # absolute time
        sim.run(until=100.0)

    The clock starts at 0.0 and only moves forward.  Callbacks scheduled
    for the same instant run in FIFO order of scheduling, which makes the
    whole simulation deterministic.
    """

    def __init__(self) -> None:
        self._heap: list[Tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._events_processed = 0
        self._running = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total callbacks executed so far (for benchmarks/diagnostics)."""
        return self._events_processed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> EventHandle:
        """Schedule ``callback(*args, **kwargs)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, callback, *args, **kwargs)

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, clock already at t={self._now!r}"
            )
        handle = EventHandle(time, callback, args, kwargs)
        heapq.heappush(self._heap, (time, next(self._seq), handle))
        return handle

    def call_every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        start: Optional[float] = None,
        jitter: Callable[[], float] | None = None,
        **kwargs: Any,
    ) -> "PeriodicTask":
        """Run ``callback`` every ``interval`` seconds until cancelled.

        ``jitter``, if given, is called before each firing and its return
        value (seconds, may be negative but the resulting delay is clamped
        to >= 0) is added to that firing time only -- the underlying period
        does not drift.  This is how the SNMP poller models the paper's
        "slight delay in SNMP polling".
        """
        if interval <= 0:
            raise SimulationError(f"non-positive interval {interval!r}")
        task = PeriodicTask(self, interval, callback, args, kwargs, jitter)
        first = self._now + interval if start is None else start
        task._arm(max(first, self._now))
        return task

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Process events until the clock reaches ``until`` (inclusive).

        The clock is left exactly at ``until`` even if the heap drains
        early, so back-to-back ``run`` calls behave like one long run.
        """
        if until < self._now:
            raise SimulationError(f"cannot run backwards to t={until!r}")
        self._running = True
        try:
            while self._heap and self._heap[0][0] <= until:
                time, _, handle = heapq.heappop(self._heap)
                if handle.cancelled:
                    continue
                self._now = time
                handle.fired = True
                self._events_processed += 1
                handle.callback(*handle.args, **handle.kwargs)
            self._now = until
        finally:
            self._running = False

    def run_until_idle(self, max_time: float = float("inf")) -> None:
        """Process every pending event, or stop at ``max_time``."""
        self._running = True
        try:
            while self._heap:
                time, _, handle = self._heap[0]
                if time > max_time:
                    self._now = max_time
                    return
                heapq.heappop(self._heap)
                if handle.cancelled:
                    continue
                self._now = time
                handle.fired = True
                self._events_processed += 1
                handle.callback(*handle.args, **handle.kwargs)
        finally:
            self._running = False

    def pending_count(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for _, _, handle in self._heap if not handle.cancelled)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now:.6f} queued={len(self._heap)}>"


class PeriodicTask:
    """A recurring callback created by :meth:`Simulator.call_every`."""

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        jitter: Callable[[], float] | None,
    ) -> None:
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._args = args
        self._kwargs = kwargs
        self._jitter = jitter
        self._next_nominal = 0.0
        self._handle: EventHandle | None = None
        self._stopped = False
        self.firings = 0

    def _arm(self, nominal_time: float) -> None:
        self._next_nominal = nominal_time
        actual = nominal_time
        if self._jitter is not None:
            actual = max(self._sim.now, nominal_time + self._jitter())
        self._handle = self._sim.schedule_at(actual, self._fire)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.firings += 1
        # Re-arm first so the callback may cancel the task.
        self._arm(self._next_nominal + self.interval)
        self._callback(*self._args, **self._kwargs)

    def cancel(self) -> None:
        """Stop the task; the pending firing (if any) is cancelled too."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    @property
    def stopped(self) -> bool:
        return self._stopped
