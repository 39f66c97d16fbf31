"""The discrete-event scheduler that drives all simulated time.

Every latency, lease, heartbeat and movement step in the reproduction is a
callback scheduled here. The scheduler is a plain binary heap keyed by
``(time, sequence)`` — the monotonically increasing sequence number makes
same-instant events fire in schedule order, which is what keeps whole-system
runs bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from functools import partial
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


#: ``(owner type, method name)`` -> bound-method label. Keys are classes
#: and method names, so the table stays as small as the code base.
_BOUND_SITES: Dict[Tuple[type, str], str] = {}


def callsite(fn: Callable) -> str:
    """A stable profiling label for a callback: ``Class.method`` or qualname.

    Bound-method labels are memoised per (owner type, method name), so a
    profiled run formats each distinct label once, not once per event.
    """
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        key = (type(owner), getattr(fn, "__name__", "call"))
        site = _BOUND_SITES.get(key)
        if site is None:
            site = _BOUND_SITES[key] = f"{key[0].__name__}.{key[1]}"
        return site
    name = getattr(fn, "__qualname__", None) or getattr(fn, "__name__", None)
    return name or repr(fn)


def timer_owner(fn: Callable) -> Optional[str]:
    """The host a timer callback is attributable to, or None.

    Resolved through the callback's bound instance: a ``host_id`` attribute
    directly (processes, components), or one level down via ``.owner`` (the
    :class:`repro.net.rpc.RequestManager` pattern). Only owner-resolvable
    timers appear in the canonical event log — anonymous closures and
    infrastructure callbacks are not per-host observables.
    """
    owner = getattr(fn, "__self__", None)
    if owner is None:
        return None
    host = getattr(owner, "host_id", None)
    if isinstance(host, str):
        return host
    inner = getattr(owner, "owner", None)
    host = getattr(inner, "host_id", None)
    return host if isinstance(host, str) else None


def _noop(*_args) -> None:
    """The callback a cancelled :class:`Timer` holds instead of its own."""


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    The timer holds the callable and its positional arguments (``fn``,
    ``args``), never a closure over them; the run loop calls
    ``fn(*args)``. Cancellation is lazy: the heap entry stays put and is
    skipped when popped, which is O(1) and keeps the heap simple. But
    :meth:`cancel` swaps ``fn``/``args`` for a shared no-op and ``()`` at
    once (as asyncio's ``TimerHandle.cancel`` does), so a dead entry pins
    only this small handle — not the callback's bound instance and
    arguments (an answered request, its message and payload) until its due
    time comes round. ``_scheduler`` is set only while the timer is live
    in a heap; it lets :meth:`cancel` keep the scheduler's pending-event
    counter exact without scanning the heap.

    ``site`` and ``created_at`` feed the optional scheduler profiler: which
    code scheduled this event, and how long it dwelt in the heap. ``site``
    is minted from ``fn`` on first read (see :func:`callsite`), which the
    run loop does at fire time and only for a profiler or event log, so a
    cancelled timer never pays for it. ``owner`` is the host the callback
    belongs to (see :func:`timer_owner`); it is resolved at schedule time
    only when an event log is attached, and stays None otherwise.

    ``_scheduler`` is duck-typed: any object with a ``_live`` counter works,
    which is how the partitioned substrate's lanes reuse this class.
    """

    __slots__ = ("when", "fn", "args", "cancelled", "_site", "created_at",
                 "owner", "_scheduler")

    def __init__(self, when: float, fn: Callable, args: tuple = (),
                 site: Optional[str] = None, created_at: float = 0.0):
        self.when = when
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._site = site
        self.created_at = created_at
        self.owner: Optional[str] = None
        self._scheduler = None

    @property
    def site(self) -> str:
        """Profiling label of the scheduled callable, minted on first read."""
        site = self._site
        if site is None:
            site = self._site = callsite(self.fn)
        return site

    @site.setter
    def site(self, value: str) -> None:
        self._site = value

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        # release the callback and its arguments now, not when popped
        self.fn = _noop
        self.args = ()
        if self._scheduler is not None:
            self._scheduler._live -= 1
            self._scheduler = None


class SchedulerBase:
    """The scheduling front end both schedulers share.

    A subclass provides ``now``, :meth:`_push` (file a new timer in its
    queue, setting the timer's ``_scheduler``) and :meth:`run_until_idle`;
    everything that mints a :class:`Timer` lives here, once.
    """

    def schedule(self, delay: float, fn: Callable, *args, **kwargs) -> Timer:
        """Run ``fn(*args, **kwargs)`` after ``delay`` simulated time units."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        now = self.now
        return self._arm(now + delay, now, fn, args, kwargs)

    def schedule_at(self, when: float, fn: Callable, *args, **kwargs) -> Timer:
        """Run ``fn(*args, **kwargs)`` at absolute simulated time ``when``."""
        now = self.now
        if when < now:
            raise ValueError(f"cannot schedule in the past: {when} < {now}")
        return self._arm(when, now, fn, args, kwargs)

    def _arm(self, when: float, now: float, fn: Callable, args: tuple,
             kwargs: dict) -> Timer:
        if kwargs:
            # the rare keyword form binds once, labelled as the original
            timer = Timer(when, partial(fn, *args, **kwargs), (),
                          callsite(fn), now)
        else:
            timer = Timer(when, fn, args, None, now)
        if self.event_log is not None:
            timer.owner = timer_owner(fn)
        self._push(timer)
        return timer

    def _push(self, timer: Timer) -> None:
        raise NotImplementedError

    def call_soon(self, fn: Callable, *args, **kwargs) -> Timer:
        """Run a callback at the current instant, after pending same-time events."""
        return self.schedule(0.0, fn, *args, **kwargs)

    def schedule_periodic(self, interval: float, fn: Callable) -> Timer:
        """Run ``fn()`` every ``interval`` units until the returned timer is
        cancelled. The handle returned stays valid across re-arms."""
        if interval <= 0:
            raise ValueError(f"non-positive interval: {interval}")
        site = f"{callsite(fn)}[periodic]"
        handle = Timer(self.now + interval, _noop, site=site,
                       created_at=self.now)

        def tick():
            if handle.cancelled:
                return
            fn()
            if not handle.cancelled:
                inner = self.schedule(interval, tick)
                inner.site = site
                handle.when = inner.when

        inner = self.schedule(interval, tick)
        inner.site = site
        handle.when = inner.when
        return handle

    def run_until_idle(self, max_time: Optional[float] = None,
                       max_events: int = 10_000_000) -> float:
        raise NotImplementedError

    def run_for(self, duration: float) -> float:
        """Advance the clock ``duration`` units, firing due events."""
        return self.run_until_idle(max_time=self.now + duration)

    def run_until(self, when: float) -> float:
        """Advance the clock to absolute time ``when``, firing due events."""
        if when < self.now:
            raise ValueError(f"cannot run backwards: {when} < {self.now}")
        return self.run_until_idle(max_time=when)

    @property
    def events_processed(self) -> int:
        return self._events_processed


class Scheduler(SchedulerBase):
    """A deterministic discrete-event loop.

    Timers carry ``(fn, args)``, not closures, and a cancelled timer lets
    go of both at once, so lazily-cancelled heap entries stay small (see
    :class:`Timer`). Profiler sites are minted when an event fires, and
    only when a profiler or event log is attached.

    >>> sched = Scheduler()
    >>> fired = []
    >>> _ = sched.schedule(5.0, fired.append, "late")
    >>> _ = sched.schedule(1.0, fired.append, "early")
    >>> sched.run_until_idle()
    5.0
    >>> fired
    ['early', 'late']
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Timer]] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        #: live (non-cancelled) heap entries, maintained on push/pop/cancel
        #: so :attr:`pending` is O(1) instead of an O(N) heap scan
        self._live = 0
        #: optional :class:`repro.obs.profiling.SchedulerProfiler` (duck-typed
        #: ``record(site, lag, wall)``); None keeps the hot loop hook-free
        self.profiler = None
        #: optional :class:`repro.net.eventlog.EventLog`; when set, timer
        #: firings with a resolvable owner host are recorded as canonical
        #: observables (the transport records deliveries itself)
        self.event_log = None

    def _push(self, timer: Timer) -> None:
        timer._scheduler = self
        heapq.heappush(self._heap, (timer.when, next(self._sequence), timer))
        self._live += 1

    # -- running ------------------------------------------------------------

    def run_until_idle(self, max_time: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Drain the event heap; returns the final simulated time.

        ``max_time`` bounds how far the clock may advance (events beyond it
        stay queued); ``max_events`` is a runaway guard.
        """
        processed = 0
        while self._heap:
            when, _seq, timer = self._heap[0]
            if max_time is not None and when > max_time:
                self.now = max_time
                break
            heapq.heappop(self._heap)
            if timer.cancelled:
                continue
            # the timer fires now: it is no longer pending, and a late
            # cancel() on its handle must not decrement the live counter
            self._live -= 1
            timer._scheduler = None
            self.now = when
            if self.event_log is not None and timer.owner is not None:
                self.event_log.record_timer(timer.owner, when, timer.site)
            if self.profiler is not None:
                # read the site first: the callback may cancel its own timer
                site = timer.site
                started = perf_counter()
                timer.fn(*timer.args)
                self.profiler.record(site, when - timer.created_at,
                                     perf_counter() - started)
            else:
                timer.fn(*timer.args)
            processed += 1
            self._events_processed += 1
            if processed >= max_events:
                raise RuntimeError(f"scheduler exceeded {max_events} events; runaway loop?")
        if max_time is not None and self.now < max_time:
            self.now = max_time  # time passes even when nothing is scheduled
        return self.now

    # -- introspection ------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued (O(1))."""
        return self._live

    def __repr__(self) -> str:
        return f"Scheduler(now={self.now:.3f}, pending={self.pending})"
