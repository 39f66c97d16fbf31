"""Timer lifecycle edge cases against every scheduler implementation.

The ``pending`` counter (``_live``) is maintained incrementally on push,
pop and cancel instead of scanning the heap; these tests pin the exactness
of that bookkeeping through every path a cancellation can take: before the
fire, after the fire, twice, from inside another callback, from inside the
timer's *own* callback, and through a periodic re-arm chain. The second
half pins what a timer holds: its callable and positional arguments, let
go of on cancel even though the dead heap entry lingers until its due
time, and a profiler site minted at fire time that still reads exactly
``Class.method``, the qualname, or ``...[periodic]``. Parametrised
over the classic single-heap :class:`~repro.net.sim.Scheduler` and the
:class:`~repro.net.partition.PartitionedScheduler` (single-lane and
sharded), which reuse :class:`~repro.net.sim.Timer` via its duck-typed
``_scheduler`` back-reference — the lanes must keep the same contract.
"""

import gc
import weakref

import pytest

from repro.core.ids import GuidFactory
from repro.net.partition import PartitionedScheduler
from repro.net.rpc import RequestManager
from repro.net.sim import Scheduler
from repro.net.transport import FixedLatency, Network, Process
from repro.obs.profiling import SchedulerProfiler


@pytest.fixture(params=["classic", "partitioned-1", "partitioned-4"])
def sched(request):
    if request.param == "classic":
        return Scheduler()
    if request.param == "partitioned-1":
        return PartitionedScheduler(partitions=1)
    return PartitionedScheduler(partitions=4, lookahead=1.0)


def test_pending_is_exact_through_schedule_cancel_run(sched):
    fired = []
    timers = [sched.schedule(float(i + 1), fired.append, i) for i in range(5)]
    assert sched.pending == 5
    timers[1].cancel()
    timers[3].cancel()
    assert sched.pending == 3
    sched.run_until_idle()
    assert fired == [0, 2, 4]
    assert sched.pending == 0


def test_cancel_after_fire_is_a_noop(sched):
    fired = []
    timer = sched.schedule(1.0, fired.append, "x")
    sched.run_until_idle()
    assert fired == ["x"]
    assert sched.pending == 0
    timer.cancel()          # late cancel of an already-fired timer
    timer.cancel()          # and again
    assert sched.pending == 0, "late cancel corrupted the live counter"
    # the heap is empty; the stale handle must not resurrect anything
    sched.run_until_idle()
    assert fired == ["x"]


def test_double_cancel_decrements_once(sched):
    keep = sched.schedule(2.0, lambda: None)
    victim = sched.schedule(1.0, lambda: None)
    victim.cancel()
    victim.cancel()
    assert sched.pending == 1
    sched.run_until_idle()
    assert sched.pending == 0
    assert not keep.cancelled


def test_cancel_from_inside_another_callback(sched):
    fired = []
    victim = sched.schedule(2.0, fired.append, "victim")

    def assassin():
        fired.append("assassin")
        victim.cancel()
        assert sched.pending == 0  # victim was the only other live event

    sched.schedule(1.0, assassin)
    sched.run_until_idle()
    assert fired == ["assassin"]
    assert sched.pending == 0


def test_cancel_own_timer_from_inside_its_callback(sched):
    fired = []
    holder = {}

    def self_absorbed():
        fired.append("fired")
        # by now the timer has been popped: cancel must not double-count
        holder["timer"].cancel()
        assert sched.pending == 0

    holder["timer"] = sched.schedule(1.0, self_absorbed)
    sched.run_until_idle()
    assert fired == ["fired"]
    assert sched.pending == 0


def test_periodic_cancel_stops_the_rearm_chain(sched):
    ticks = []
    handle = sched.schedule_periodic(1.0, lambda: ticks.append(sched.now))

    def stop():
        handle.cancel()

    sched.schedule(3.5, stop)
    sched.run_until_idle()
    assert ticks == [1.0, 2.0, 3.0]
    assert sched.pending == 0
    # cancelling the dead chain again stays a no-op
    handle.cancel()
    assert sched.pending == 0


def test_same_instant_events_fire_in_schedule_order(sched):
    fired = []
    for i in range(4):
        sched.schedule(1.0, fired.append, i)
    sched.run_until_idle()
    assert fired == [0, 1, 2, 3]


def test_call_soon_runs_after_pending_same_time_events(sched):
    fired = []
    sched.schedule(0.0, fired.append, "first")
    sched.call_soon(fired.append, "second")
    sched.run_until_idle()
    assert fired == ["first", "second"]


def test_schedule_validation(sched):
    with pytest.raises(ValueError):
        sched.schedule(-1.0, lambda: None)
    sched.schedule(1.0, lambda: None)
    sched.run_until_idle()
    with pytest.raises(ValueError):
        sched.schedule_at(0.5, lambda: None)  # now is 1.0: the past
    with pytest.raises(ValueError):
        sched.schedule_periodic(0.0, lambda: None)


# -- timers hold (fn, args) and let go of them on cancel --------------------


class Payload:
    """A weakref-able stand-in for a request and its message."""


class Worker:
    def __init__(self):
        self.seen = []

    def take(self, item=None, *, tag=None):
        self.seen.append((item, tag))


def free_fn(sink):
    sink.append("free")


def test_cancel_releases_callback_and_args_before_due_time(sched):
    worker, payload, tagged = Worker(), Payload(), Payload()
    refs = [weakref.ref(worker), weakref.ref(payload), weakref.ref(tagged)]
    timer = sched.schedule(50.0, worker.take, payload)
    keyword = sched.schedule(50.0, Worker().take, tag=tagged)
    del worker, payload, tagged
    gc.collect()
    assert all(ref() is not None for ref in refs), "live timers own their args"
    timer.cancel()
    keyword.cancel()
    sched.run_until(10.0)   # the dead entries are still in the heap
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert sched.pending == 0
    sched.run_until_idle()


class Echo(Process):
    def on_message(self, message):
        if message.kind == "ask":
            self.reply(message, "answer")


class Asker(Process):
    def __init__(self, guid, host_id, network):
        super().__init__(guid, host_id, network)
        self.requests = RequestManager(self)

    def on_message(self, message):
        self.requests.dispatch_reply(message)


def test_answered_request_is_not_pinned_by_its_timeout(sched):
    network = Network(scheduler=sched, latency_model=FixedLatency(1.0))
    network.add_host("host-a")
    network.add_host("host-b")
    guids = GuidFactory(seed=7)
    echo = Echo(guids.mint(), "host-a", network)
    asker = Asker(guids.mint(), "host-b", network)
    pending = asker.requests.request(echo.guid, "ask")
    refs = [weakref.ref(pending), weakref.ref(pending.message)]
    del pending
    network.scheduler.run_until(5.0)   # answered; the 50-s timeout is not due
    assert asker.requests.completed == 1
    assert sched.pending == 0
    gc.collect()
    assert all(ref() is None for ref in refs)


def _profiled_sites(sched, arm):
    profiler = SchedulerProfiler()
    sched.profiler = profiler
    arm()
    sched.run_until(3.5)
    return sorted((stats.site, stats.count) for stats in profiler.sites())


def test_profiler_site_labels_are_unchanged(sched):
    worker, sink = Worker(), []

    def arm():
        sched.schedule(1.0, worker.take, "bound")
        sched.schedule(1.0, free_fn, sink)
        sched.schedule(1.0, lambda: sink.append("lambda"))
        sched.schedule(1.0, worker.take, "kw", tag="t")
        sched.schedule_periodic(1.0, worker.take)

    assert _profiled_sites(sched, arm) == [
        ("Worker.take", 2),
        ("Worker.take[periodic]", 3),
        ("free_fn", 1),
        ("test_profiler_site_labels_are_unchanged.<locals>.arm.<locals>"
         ".<lambda>", 1),
    ]


def test_callback_cancelling_its_own_timer_keeps_its_site(sched):
    holder = {}

    class Quitter:
        def fire(self):
            holder["timer"].cancel()

    def arm():
        holder["timer"] = sched.schedule(1.0, Quitter().fire)

    assert _profiled_sites(sched, arm) == [("Quitter.fire", 1)]


def test_keyword_arguments_are_delivered(sched):
    worker = Worker()
    sched.schedule(1.0, worker.take, "item", tag="t")
    sched.call_soon(worker.take, tag="soon")
    sched.run_until_idle()
    assert worker.seen == [(None, "soon"), ("item", "t")]
