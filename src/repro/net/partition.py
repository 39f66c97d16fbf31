"""Partitioned simulation substrate: sharded event queues, conservative lookahead.

The classic :class:`~repro.net.sim.Scheduler` is one global heap — the scale
ceiling named by ROADMAP item 3. This module shards the event population
across per-partition queues ("lanes"): every host is consistently assigned
to one lane (``crc32(host_id) % partitions``), each lane owns the events
that execute on its hosts, and lanes advance in **horizon rounds** bounded
by a conservative lookahead (the minimum cross-host link latency). Within
a round every lane may run all its events strictly below
``min(lane head times) + lookahead``, because any message one of those
events sends arrives at least a full lookahead later — i.e. at or beyond
the horizon, where the receiving lane has not yet advanced. Cross-partition
messages created during a parallel round are staged in per-lane outboxes
and exchanged at the round barrier; the serial executor pushes them
directly, which is safe for the same reason.

Determinism is the load-bearing property. Every event carries a canonical
key ``(when, origin_rank, origin_seq)``:

* ``origin_rank`` — the dense registration index of the host whose
  execution *created* the event (the sender of a delivery, the scheduling
  host of a timer), or :data:`EXTERNAL_RANK` for events created outside any
  host context;
* ``origin_seq`` — a per-origin counter, incremented on every event that
  origin creates.

Both components depend only on the originating host's own execution
history, which (by induction) is identical for every partition count — so
the key is partition-invariant, and each lane popping its heap in key
order yields the same per-host event sequence whether there is one lane or
eight, serial or parallel. The differential harness under
``tests/parallel/`` asserts exactly this.

Events created outside any host context — test drivers, the chaos
injector — go to a **control lane** executed as a global barrier: every
lane has quiesced strictly below the control event's time before it runs,
so it may mutate any host's state (fail a host, change drop rates)
without racing a lane. Control events sort before host events at time
ties in every partitioning.

Two runtime guards turn ordering mistakes into errors instead of silent
divergence (:class:`CausalityError`): a host may only send while its own
lane (or the control lane) is executing, and a cross-partition event may
never be injected below the current round horizon.
"""

from __future__ import annotations

import heapq
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

from repro.net.sim import SchedulerBase, Timer

_INF = float("inf")

#: origin rank for events created outside any host context (setup code, the
#: chaos injector, test drivers). Sorts before every host rank, so control
#: events win time ties in every partitioning.
EXTERNAL_RANK = -1

#: profiler site label for fast-lane deliveries (no Timer handle to carry one)
_DELIVERY_SITE = "Network._deliver"


def _profiled(profiler: Any, timer: Optional[Timer], when: float,
              fn: Callable, args: tuple) -> None:
    """Run ``fn(*args)`` and record it under its site: the timer's (read
    before the call, which may cancel the timer) or the delivery site."""
    if timer is None:
        site, lag = _DELIVERY_SITE, 0.0
    else:
        site, lag = timer.site, when - timer.created_at
    started = perf_counter()
    fn(*args)
    profiler.record(site, lag, perf_counter() - started)


class CausalityError(RuntimeError):
    """A cross-partition event was injected outside the horizon exchange.

    Raised when code tries to smuggle work across partitions in a way that
    would be ordered differently under a different partition count: a send
    issued from a lane that does not own the sending host, or a cross-lane
    event below the current round horizon (a lookahead violation).
    """


class _Lane:
    """One event queue: a shard of hosts, or the control lane (index -1).

    Besides the heap, a lane carries the per-context ambient state that a
    single global scheduler would keep as singletons: the tracer frame
    stack, the event-log buffer and the transport's stats staging buffer.
    Parallel rounds give each lane its own thread, so this is what makes
    the observability layer race-free without locks on every record.
    """

    __slots__ = ("index", "heap", "now", "_live", "current_rank",
                 "trace_stack", "log_buffer", "stats", "outbox", "processed")

    def __init__(self, index: int):
        self.index = index
        self.heap: List[tuple] = []
        self.now = 0.0
        #: live (non-cancelled) entries; Timer.cancel decrements this via
        #: its duck-typed ``_scheduler`` reference
        self._live = 0
        self.current_rank = EXTERNAL_RANK
        self.trace_stack: List[Any] = []
        self.log_buffer: List[tuple] = []
        self.stats: Any = None
        self.outbox: List[tuple] = []
        self.processed = 0


class PartitionedScheduler(SchedulerBase):
    """Drop-in scheduler sharding hosts across per-partition event queues.

    ``partitions=1`` (the default) degenerates to a single lane with an
    unbounded horizon — one heap, popped in key order, exactly the classic
    semantics. ``parallel=True`` (with ``partitions > 1``) runs each
    round's lane slices on a thread pool; a per-callback lock keeps shared
    model state (directories, registries crossing hosts) safe, so the
    parallel executor is an architectural validation of the exchange
    protocol rather than a single-machine speedup.

    ``lookahead`` must be a positive lower bound on cross-host delivery
    latency whenever ``partitions > 1`` — the transport derives it from
    the latency model's :meth:`~repro.net.transport.LatencyModel.min_latency`.

    Heap entries are ``(when, origin_rank, origin_seq, owner_rank, timer,
    fn, args)``. ``(when, origin_rank, origin_seq)`` is the canonical,
    partition-invariant ordering key (unique, so comparison never reaches
    the callable); ``owner_rank`` is the host whose state the callback
    touches and becomes the executing context's current rank. A timer's
    entry leaves ``fn``/``args`` empty: the callable lives only on the
    :class:`~repro.net.sim.Timer`, so cancelling it releases the callable
    here too. Deliveries scheduled through :meth:`schedule_delivery` carry
    ``timer=None`` and their own ``fn``/``args`` — no handle, no callsite
    formatting — which is the fast path that pays for the substrate's
    bookkeeping. The scheduling front end (``schedule``, ``call_soon``,
    ``schedule_periodic``) is :class:`~repro.net.sim.SchedulerBase`'s.
    """

    def __init__(self, partitions: int = 1, lookahead: float = 0.0,
                 parallel: bool = False):
        if partitions < 1:
            raise ValueError(f"partitions must be >= 1: {partitions}")
        if partitions > 1 and lookahead <= 0.0:
            raise ValueError(
                "partitioned execution needs a positive lookahead (minimum "
                f"cross-host latency), got {lookahead!r}")
        self.partitions = partitions
        self.lookahead = lookahead
        self.parallel = bool(parallel) and partitions > 1
        self._lanes = [_Lane(index) for index in range(partitions)]
        self._control = _Lane(-1)
        self._tls = threading.local()
        self._now = 0.0
        self._host_rank: Dict[str, int] = {}
        self._rank_lane: List[_Lane] = []
        self._origin_seq: List[int] = []
        self._external_seq = 0
        self._external_stack: List[Any] = []
        self._round_horizon = _INF
        self._in_parallel_round = False
        self._round_index = 0
        self._events_processed = 0
        self._quiesce_callbacks: List[Callable[[], None]] = []
        self._pool: Optional[ThreadPoolExecutor] = None
        self._callback_lock = threading.Lock() if self.parallel else None
        #: duck-typed like Scheduler.profiler / Scheduler.event_log
        self.profiler = None
        self.event_log = None
        #: the Network this substrate is bound to (at most one; the lanes'
        #: staging buffers flush into that network's stats)
        self.bound_network = None

    # -- topology ------------------------------------------------------------

    def register_host(self, host_id: str) -> int:
        """Assign ``host_id`` to a lane; returns its dense origin rank.

        Assignment is consistent — ``crc32(host_id) % partitions`` — so a
        host lands on the same lane in every run, and ranks follow
        registration order, which callers keep deterministic (hosts are
        added during setup).
        """
        rank = self._host_rank.get(host_id)
        if rank is not None:
            return rank
        rank = len(self._rank_lane)
        self._host_rank[host_id] = rank
        lane = self._lanes[zlib.crc32(host_id.encode("utf-8")) % self.partitions]
        self._rank_lane.append(lane)
        self._origin_seq.append(0)
        return rank

    def lane_of(self, host_id: str) -> int:
        """The lane index ``host_id`` is sharded onto."""
        return self._rank_lane[self._host_rank[host_id]].index

    def contexts(self) -> List[_Lane]:
        """Control lane first, then host lanes — the canonical merge order
        for log buffers and stats staging (control events run before host
        events at time ties, so their records must concatenate first)."""
        return [self._control] + self._lanes

    # -- time and context ----------------------------------------------------

    @property
    def now(self) -> float:
        """Lane-local clock inside a callback, global clock outside."""
        lane = getattr(self._tls, "lane", None)
        return self._now if lane is None else lane.now

    @property
    def current_context(self) -> Optional[_Lane]:
        """The lane executing on this thread (None outside the run loop)."""
        return getattr(self._tls, "lane", None)

    @property
    def round_index(self) -> int:
        """Monotone count of horizon rounds and control barriers executed.

        Two accesses with different round indices are separated by a
        global barrier; the LaneSan sanitizer uses this to scope its
        same-round conflict window."""
        return self._round_index

    def _next_seq(self, rank: int) -> int:
        if rank < 0:
            seq = self._external_seq
            self._external_seq = seq + 1
        else:
            seq = self._origin_seq[rank]
            self._origin_seq[rank] = seq + 1
        return seq

    # -- scheduling (Timer-compatible API) -----------------------------------

    def _push(self, timer: Timer) -> None:
        """File a timer minted by :meth:`SchedulerBase.schedule_at`.

        From inside a host callback the timer stays on that host's lane
        (keyed by the host's rank); from control or external context it
        goes to the control lane and runs as a global barrier.
        """
        lane = getattr(self._tls, "lane", None)
        if lane is None or lane.index < 0 or lane.current_rank < 0:
            rank, target = EXTERNAL_RANK, self._control
        else:
            rank, target = lane.current_rank, lane
        timer._scheduler = target
        heapq.heappush(target.heap, (timer.when, rank, self._next_seq(rank),
                                     rank, timer, None, ()))
        target._live += 1

    def schedule_delivery(self, source_host: str, target_host: str,
                          delay: float, fn: Callable, *args) -> None:
        """Transport fast path: run ``fn(*args)`` on the target host's lane.

        The canonical key uses the *sender's* rank and counter — both
        functions of the sender's own execution history, hence partition-
        invariant. No Timer handle is minted (deliveries are never
        cancelled), so the entry is a bare heap tuple.

        Raises :class:`CausalityError` when the sending host does not
        belong to the executing lane, or when a cross-lane delivery would
        land below the current round horizon (a lookahead violation).
        """
        src_rank = self._host_rank[source_host]
        tgt_rank = self._host_rank[target_host]
        lane = getattr(self._tls, "lane", None)
        if lane is None:
            base = self._now
        else:
            base = lane.now
            if lane.index >= 0 and self._rank_lane[src_rank] is not lane:
                raise CausalityError(
                    f"send from host {source_host!r} (lane "
                    f"{self._rank_lane[src_rank].index}) issued while lane "
                    f"{lane.index} was executing; cross-partition sends must "
                    "go through the horizon exchange")
        when = base + delay
        target = self._rank_lane[tgt_rank]
        entry = (when, src_rank, self._next_seq(src_rank), tgt_rank, None,
                 fn, args)
        if lane is not None and lane.index >= 0 and target is not lane:
            if when < self._round_horizon:
                raise CausalityError(
                    f"cross-partition delivery at t={when:.6f} below the "
                    f"round horizon {self._round_horizon:.6f}; the latency "
                    "model broke its min_latency() promise")
            if self._in_parallel_round:
                # staged: merged into the target heap at the round barrier
                lane.outbox.append((target, entry))
                return
        heapq.heappush(target.heap, entry)
        target._live += 1

    # -- running -------------------------------------------------------------

    def run_until_idle(self, max_time: Optional[float] = None,
                       max_events: int = 10_000_000) -> float:
        """Drain all lanes in horizon rounds; returns the final time.

        Same contract as :meth:`repro.net.sim.Scheduler.run_until_idle`:
        events beyond ``max_time`` stay queued, ``max_events`` is a
        runaway guard. Quiesce callbacks (stats staging flushes) run just
        before returning, so observers see merged totals.
        """
        processed = 0
        lanes = self._lanes
        control = self._control
        single = self.partitions == 1
        while True:
            t_ctl = control.heap[0][0] if control.heap else _INF
            t_lanes = _INF
            for lane in lanes:
                if lane.heap and lane.heap[0][0] < t_lanes:
                    t_lanes = lane.heap[0][0]
            t_min = t_ctl if t_ctl < t_lanes else t_lanes
            if t_min == _INF:
                break
            if max_time is not None and t_min > max_time:
                break
            self._round_index += 1
            if t_ctl <= t_lanes:
                # control events are global barriers: every lane has
                # quiesced strictly below t_ctl, so the callback may touch
                # any host's state
                processed += self._run_control_event()
            else:
                horizon = _INF if single else t_lanes + self.lookahead
                if t_ctl < horizon:
                    horizon = t_ctl
                self._round_horizon = horizon
                try:
                    if self.parallel:
                        processed += self._run_parallel_round(horizon, max_time)
                    else:
                        for lane in lanes:
                            if lane.heap:
                                processed += self._run_lane_slice(
                                    lane, horizon, max_time)
                finally:
                    self._round_horizon = _INF
            if processed >= max_events:
                raise RuntimeError(
                    f"scheduler exceeded {max_events} events; runaway loop?")
        self._events_processed += processed
        final = self._now
        for lane in lanes:
            if lane.now > final:
                final = lane.now
        if self._control.now > final:
            final = self._control.now
        if max_time is not None and final < max_time:
            final = max_time  # time passes even when nothing is scheduled
        self._now = final
        # remaining events are all beyond `final`, so raising every lane
        # clock to it keeps per-lane time monotone across run_* calls
        for lane in lanes:
            lane.now = final
        self._control.now = final
        for callback in self._quiesce_callbacks:
            callback()
        return final

    def _run_control_event(self) -> int:
        control = self._control
        when, _rank, _seq, _owner, timer, fn, args = heapq.heappop(control.heap)
        if timer is not None:
            if timer.cancelled:
                return 0
            timer._scheduler = None
            fn, args = timer.fn, timer.args
        control._live -= 1
        control.now = when
        if when > self._now:
            self._now = when
        control.current_rank = EXTERNAL_RANK
        log = self.event_log
        if log is not None and timer is not None and timer.owner is not None:
            control.log_buffer.append((when, timer.owner, "timer", timer.site))
        profiler = self.profiler
        self._tls.lane = control
        try:
            if profiler is None:
                fn(*args)
            else:
                _profiled(profiler, timer, when, fn, args)
        finally:
            self._tls.lane = None
        return 1

    def _run_lane_slice(self, lane: _Lane, horizon: float,
                        max_time: Optional[float]) -> int:
        """Run every event of ``lane`` strictly below ``horizon`` (and not
        beyond ``max_time``), in canonical key order. Called serially or as
        one thread of a parallel round."""
        heap = lane.heap
        profiler = self.profiler
        lock = self._callback_lock
        log = self.event_log
        count = 0
        self._tls.lane = lane
        try:
            while heap:
                entry = heap[0]
                when = entry[0]
                if when >= horizon or (max_time is not None and when > max_time):
                    break
                heapq.heappop(heap)
                timer = entry[4]
                if timer is None:
                    fn = entry[5]
                    args = entry[6]
                else:
                    if timer.cancelled:
                        continue
                    timer._scheduler = None
                    fn = timer.fn
                    args = timer.args
                lane._live -= 1
                lane.now = when
                lane.current_rank = entry[3]
                if log is not None and timer is not None \
                        and timer.owner is not None:
                    lane.log_buffer.append(
                        (when, timer.owner, "timer", timer.site))
                if lock is not None:
                    # parallel round: one callback at a time — shared model
                    # state (directories, cross-host registries) stays safe
                    with lock:
                        if profiler is None:
                            fn(*args)
                        else:
                            _profiled(profiler, timer, when, fn, args)
                elif profiler is None:
                    fn(*args)
                else:
                    _profiled(profiler, timer, when, fn, args)
                count += 1
        finally:
            self._tls.lane = None
        lane.processed += count
        return count

    def _run_parallel_round(self, horizon: float,
                            max_time: Optional[float]) -> int:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.partitions, thread_name_prefix="repro-lane")
        self._in_parallel_round = True
        total = 0
        error: Optional[BaseException] = None
        try:
            futures = [self._pool.submit(self._run_lane_slice, lane, horizon,
                                         max_time)
                       for lane in self._lanes if lane.heap]
            for future in futures:
                try:
                    total += future.result()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    if error is None:
                        error = exc
        finally:
            self._in_parallel_round = False
        # horizon exchange: merge staged cross-partition events, in lane
        # order (order is cosmetic — canonical keys are unique, so heap
        # order never depends on insertion order)
        for lane in self._lanes:
            if lane.outbox:
                for target, entry in lane.outbox:
                    heapq.heappush(target.heap, entry)
                    target._live += 1
                lane.outbox.clear()
        if error is not None:
            raise error
        return total

    # -- introspection and hooks ---------------------------------------------

    @property
    def pending(self) -> int:
        """Live (non-cancelled) events queued across all lanes (O(lanes))."""
        total = self._control._live
        for lane in self._lanes:
            total += lane._live
        return total

    def on_quiesce(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` at the end of every ``run_*`` drain (after the
        last event, before returning). The transport uses this to merge
        per-lane stats staging buffers deterministically."""
        self._quiesce_callbacks.append(callback)

    def ambient_stack(self) -> List[Any]:
        """The tracer frame stack for the current execution context — one
        per lane so parallel rounds cannot interleave ambient trace state
        (see :attr:`repro.obs.tracing.Tracer.stack_provider`)."""
        lane = getattr(self._tls, "lane", None)
        return self._external_stack if lane is None else lane.trace_stack

    def current_log_buffer(self) -> List[tuple]:
        """The event-log staging buffer for the current context."""
        lane = getattr(self._tls, "lane", None)
        return self._control.log_buffer if lane is None else lane.log_buffer

    def log_buffers(self) -> List[List[tuple]]:
        """All staging buffers in canonical merge order (control first)."""
        return [lane.log_buffer for lane in self.contexts()]

    def close(self) -> None:
        """Shut down the parallel executor (idempotent; serial is a no-op)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        return (f"PartitionedScheduler(partitions={self.partitions}, "
                f"parallel={self.parallel}, now={self._now:.3f}, "
                f"pending={self.pending})")
