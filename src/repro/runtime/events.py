"""The discrete-event core: simulated clock and deterministic queue.

The control plane of Figure 6 is a *process over time* — refreshes
every few minutes, config pushes with propagation delay, faults at
arbitrary instants — so the runtime layer needs a notion of simulated
time that is completely decoupled from wall time. This module supplies
it: a :class:`SimClock` that only moves forward, an :class:`EventQueue`
whose pop order is a pure function of what was pushed (ties broken by
insertion sequence, never by object identity), and an
:class:`EventLoop` that binds the two and calls event actions with the
clock already advanced to the event's instant.

Determinism contract: given the same sequence of ``schedule`` calls
(same times, same order), the loop fires the same actions in the same
order on every run. All randomness in the runtime layer (channel
delays, loss, traffic drift) is drawn from seeded generators *inside*
event actions, so the contract extends to entire scenario runs.

The seq tie-break is also a *liability*: any observable that changes
when two same-instant events swap places is a latent schedule race —
reproducible today only because insertion order happens to be stable.
:class:`PerturbedEventLoop` makes that hazard testable: it replaces
the seq tie-break with a seeded random one, permuting same-timestamp
events while leaving the time order untouched. ``repro racecheck``
replays every canned scenario under several perturbation seeds and
asserts fingerprint invariance.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

Action = Callable[[], None]


class SimClock:
    """Monotonically advancing simulated time (seconds)."""

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, instant: float) -> None:
        """Move the clock forward; moving backwards is a logic error."""
        if instant < self._now - 1e-12:
            raise ValueError(
                f"clock cannot run backwards ({instant} < {self._now})")
        self._now = max(self._now, float(instant))


@dataclass(order=True)
class Event:
    """One scheduled action.

    Ordering is (time, tie, seq): two events at the same instant fire
    in the order they were scheduled (``tie`` is 0.0 for every event
    in the standard queue), which is what makes replays
    bit-reproducible. A :class:`PerturbedEventQueue` assigns seeded
    random ``tie`` values instead, permuting same-instant events to
    expose schedule races.
    """

    time: float
    tie: float
    seq: int
    action: Action = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    _queue: Optional["EventQueue"] = field(default=None, compare=False,
                                           repr=False)

    def cancel(self) -> None:
        """Mark the event dead; the loop skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            if self._queue is not None:
                self._queue._note_cancel()


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects.

    ``len()`` and :meth:`peek_time` see only *live* events: a
    cancelled event no longer counts toward the queue's length and
    never surfaces as the next-event time, even while its heap entry
    is still buried awaiting lazy removal.
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def _note_cancel(self) -> None:
        self._live -= 1

    def _tie_break(self) -> float:
        """Tie value for the next pushed event (0.0 = insertion
        order; see :class:`PerturbedEventQueue`)."""
        return 0.0

    def push(self, time: float, action: Action) -> Event:
        event = Event(time=float(time), tie=self._tie_break(),
                      seq=next(self._seq), action=action, _queue=self)
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` when empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def pop(self) -> Optional[Event]:
        """The next live event, or ``None`` when empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                self._live -= 1
                return event
        return None


class PerturbedEventQueue(EventQueue):
    """An :class:`EventQueue` that permutes same-timestamp events.

    Every push draws the event's ``tie`` from a seeded generator, so
    events sharing an instant pop in a seed-determined shuffle rather
    than insertion order (strict time order is untouched, and ``seq``
    still breaks the measure-zero tie-of-ties). Two queues built with
    the same seed replay identically; different seeds explore
    different legal schedules — the runtime's determinism contract
    says every observable fingerprint must be invariant across all of
    them.
    """

    def __init__(self, seed: int) -> None:
        super().__init__()
        self._tie_rng = np.random.default_rng(seed)

    def _tie_break(self) -> float:
        return float(self._tie_rng.random())


class EventLoop:
    """Clock + queue + dispatch.

    Actions scheduled from within actions are fine (that is how a
    config delivery schedules its ack); scheduling in the past raises.
    """

    def __init__(self, start: float = 0.0) -> None:
        self.clock = SimClock(start)
        self.queue = EventQueue()
        self.events_fired = 0

    @property
    def now(self) -> float:
        return self.clock.now

    def schedule_at(self, instant: float, action: Action) -> Event:
        if instant < self.now - 1e-12:
            raise ValueError(
                f"cannot schedule at {instant} before now={self.now}")
        return self.queue.push(instant, action)

    def schedule_in(self, delay: float, action: Action) -> Event:
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.queue.push(self.now + delay, action)

    def run_until(self, horizon: float) -> int:
        """Fire every event with ``time <= horizon`` (inclusive), then
        advance the clock to the horizon. Returns the number fired."""
        fired = 0
        while True:
            next_time = self.queue.peek_time()
            if next_time is None or next_time > horizon + 1e-12:
                break
            event = self.queue.pop()
            assert event is not None
            self.clock.advance_to(event.time)
            event.action()
            fired += 1
        self.clock.advance_to(horizon)
        self.events_fired += fired
        return fired

    def run_all(self, max_events: int = 1_000_000) -> int:
        """Drain the queue completely (guarded against runaway
        self-scheduling loops)."""
        fired = 0
        while fired < max_events:
            event = self.queue.pop()
            if event is None:
                break
            self.clock.advance_to(event.time)
            event.action()
            fired += 1
        else:
            raise RuntimeError(
                f"event loop exceeded {max_events} events")
        self.events_fired += fired
        return fired


class PerturbedEventLoop(EventLoop):
    """An :class:`EventLoop` over a :class:`PerturbedEventQueue`.

    Drop-in replacement used by the schedule-perturbation verifier
    (``repro racecheck``): same clock, same scheduling API, but
    same-instant events dispatch in a seed-determined permutation.
    A scenario whose fingerprint changes under any perturbation seed
    depends on the seq tie-break — a schedule race.
    """

    def __init__(self, seed: int, start: float = 0.0) -> None:
        super().__init__(start)
        self.perturb_seed = int(seed)
        self.queue = PerturbedEventQueue(seed)
