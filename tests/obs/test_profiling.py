"""Scheduler profiling: per-callback-site counts, cost, lag, top-N report."""

import pytest

from repro.net.sim import Scheduler, callsite
from repro.obs.profiling import SchedulerProfiler


class Worker:
    def __init__(self):
        self.calls = 0

    def tick(self):
        self.calls += 1


def free_fn():
    pass


class TestCallsite:
    def test_bound_method_site(self):
        assert callsite(Worker().tick) == "Worker.tick"

    def test_free_function_site(self):
        assert callsite(free_fn).endswith("free_fn")

    def test_lambda_site_is_usable(self):
        assert "lambda" in callsite(lambda: None)

    def test_bound_labels_are_per_owner_type(self):
        class Subworker(Worker):
            pass

        assert callsite(Worker().tick) is callsite(Worker().tick)  # memoised
        assert callsite(Subworker().tick) == "Subworker.tick"
        assert callsite(Worker().__init__) == "Worker.__init__"
        assert callsite([].append) == "list.append"


class TestSchedulerProfiling:
    def test_sites_counted_with_lag(self):
        scheduler = Scheduler()
        profiler = SchedulerProfiler()
        scheduler.profiler = profiler
        worker = Worker()
        for delay in (1.0, 2.0, 3.0):
            scheduler.schedule(delay, worker.tick)
        scheduler.run_until_idle()
        stats = profiler.site("Worker.tick")
        assert stats.count == 3
        assert stats.lag_total == pytest.approx(6.0)
        assert stats.lag_max == pytest.approx(3.0)
        assert stats.wall >= 0.0

    def test_periodic_site_tagged(self):
        scheduler = Scheduler()
        profiler = SchedulerProfiler()
        scheduler.profiler = profiler
        worker = Worker()
        scheduler.schedule_periodic(1.0, worker.tick)
        scheduler.run_until(5.5)
        site = "Worker.tick[periodic]"
        assert profiler.site(site).count == worker.calls > 0

    def test_no_profiler_means_no_overhead_records(self):
        scheduler = Scheduler()
        worker = Worker()
        scheduler.schedule(1.0, worker.tick)
        scheduler.run_until_idle()
        assert worker.calls == 1  # plain path still runs callbacks

    def test_top_by_count(self):
        profiler = SchedulerProfiler()
        for _ in range(5):
            profiler.record("busy", lag=0.1, wall=0.001)
        profiler.record("quiet", lag=9.0, wall=0.5)
        assert profiler.top(1, key="count")[0].site == "busy"
        assert profiler.top(1, key="wall")[0].site == "quiet"
        assert profiler.top(1, key="lag")[0].site == "quiet"

    def test_top_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            SchedulerProfiler().top(3, key="vibes")

    def test_report_and_snapshot(self):
        profiler = SchedulerProfiler()
        profiler.record("a.site", lag=1.0, wall=0.25)
        text = profiler.report(5)
        assert "a.site" in text
        snapshot = profiler.snapshot()
        assert snapshot[0]["site"] == "a.site"
        assert snapshot[0]["count"] == 1

    def test_reset(self):
        profiler = SchedulerProfiler()
        profiler.record("a", lag=0, wall=0)
        profiler.reset()
        assert profiler.sites() == []
