"""Discrete-event simulation engine.

A small coroutine-process simulator (in the spirit of SimPy):
*processes* are generators that yield events -- timeouts, resource
requests, other processes -- and resume when the event fires.  Time is
virtual, so a 44-hour hyper-parameter search simulates in milliseconds
while every scheduling decision is executed faithfully.  Failure-free
searches need no events (their greedy placement is
:func:`repro.raysim.scheduler.fifo_schedule`); the simulator prices a
search under GPU failures, where a crashed trial re-queues behind the
waiting ones after its repair
(:func:`repro.cluster.failures.run_with_failures`).

Example
-------
>>> sim = Simulator()
>>> gpus = Resource(sim, capacity=4, name="gpus")
>>> def trial(duration):
...     req = gpus.request()
...     yield req
...     yield sim.timeout(duration)
...     gpus.release()
>>> for d in [3.0, 2.0, 4.0]:
...     sim.process(trial(d))
>>> sim.run()
>>> sim.now
4.0
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Generator, Iterable

__all__ = ["Simulator", "Event", "Timeout", "Process", "Resource", "AllOf",
           "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for protocol violations (double-trigger, bad release...)."""


class Event:
    """A one-shot occurrence processes can wait on."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.triggered = False
        self.value = None
        self._callbacks: list[Callable[["Event"], None]] = []

    def succeed(self, value=None) -> "Event":
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        for cb in self._callbacks:
            self.sim._schedule(0.0, lambda cb=cb: cb(self))
        self._callbacks.clear()
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self.triggered:
            self.sim._schedule(0.0, lambda: cb(self))
        else:
            self._callbacks.append(cb)


class Timeout(Event):
    """Event that fires ``delay`` after creation."""

    def __init__(self, sim: "Simulator", delay: float, value=None):
        if delay < 0:
            raise ValueError(f"negative timeout {delay}")
        super().__init__(sim)
        self.delay = delay
        sim._schedule(delay, lambda: self.succeed(value))


class Process(Event):
    """A running generator; itself an event that fires on return."""

    def __init__(self, sim: "Simulator", gen: Generator):
        super().__init__(sim)
        self._gen = gen
        sim._schedule(0.0, lambda: self._advance(None))

    def _advance(self, send_value) -> None:
        try:
            target = self._gen.send(send_value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process yielded {target!r}; processes must yield Events"
            )
        target.add_callback(lambda ev: self._advance(ev.value))


class AllOf(Event):
    """Fires when every child event has fired; value is the value list."""

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            sim._schedule(0.0, lambda: self.succeed([]))
            return
        for ev in self._events:
            ev.add_callback(self._child_done)

    def _child_done(self, _ev: Event) -> None:
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.value for e in self._events])


class Resource:
    """Counted capacity with a FIFO wait queue (e.g. a pool of GPUs)."""

    def __init__(self, sim: "Simulator", capacity: int, name: str = "resource"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: deque[Event] = deque()

    def request(self) -> Event:
        """Event that fires when a unit is granted."""
        ev = Event(self.sim)
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError(f"{self.name}: release without acquire")
        if self._waiters:
            ev = self._waiters.popleft()
            ev.succeed(self)  # hand the unit over directly
        else:
            self.in_use -= 1

    @property
    def queue_length(self) -> int:
        return len(self._waiters)


class Simulator:
    """The event loop: a priority queue of (time, seq, thunk)."""

    def __init__(self):
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def _schedule(self, delay: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))
        self._seq += 1

    def timeout(self, delay: float, value=None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def process(self, gen: Generator) -> Process:
        return Process(self, gen)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def run(self, until: float | None = None) -> float:
        """Drain the event queue (optionally stopping the clock at
        ``until``); returns the final simulated time."""
        while self._heap:
            t, _, fn = self._heap[0]
            if until is not None and t > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            if t < self.now - 1e-12:
                raise SimulationError("time went backwards")
            self.now = t
            fn()
        return self.now

    def peek(self) -> float | None:
        """Time of the next pending event, if any."""
        return self._heap[0][0] if self._heap else None
