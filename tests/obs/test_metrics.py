"""Registry semantics: labels, cardinality, histogram quantiles, snapshots."""

import pytest

from repro.obs.metrics import (
    OVERFLOW_KEY,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    Reservoir,
)


class TestCounter:
    def test_inc_and_total(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.total() == 3.5

    def test_labelled_series(self):
        counter = Counter("c", labels=("kind",))
        counter.inc(kind="query")
        counter.inc(kind="query")
        counter.inc(kind="event")
        assert counter.value(kind="query") == 2
        assert counter.by_label() == {"query": 2, "event": 1}

    def test_negative_increment_rejected(self):
        with pytest.raises(MetricError):
            Counter("c").inc(-1)

    def test_missing_label_rejected(self):
        counter = Counter("c", labels=("kind",))
        with pytest.raises(MetricError):
            counter.inc()

    def test_unknown_label_rejected(self):
        counter = Counter("c", labels=("kind",))
        with pytest.raises(MetricError):
            counter.inc(kind="x", extra="y")

    def test_by_label_requires_single_label(self):
        with pytest.raises(MetricError):
            Counter("c", labels=("a", "b")).by_label()


class TestBoundCounter:
    """``Counter.labels`` hoists label validation to bind time; updates
    through the handle must be indistinguishable from ``inc(**labels)``."""

    def test_wrong_label_names_raise_at_bind(self):
        counter = Counter("c", labels=("range", "kind"))
        with pytest.raises(MetricError):
            counter.labels(range="r")
        with pytest.raises(MetricError):
            counter.labels(range="r", kind="k", extra="x")
        with pytest.raises(MetricError):
            counter.labels(range="r", sort="k")
        with pytest.raises(MetricError):
            Counter("plain").labels(kind="k")

    def test_negative_amount_still_rejected(self):
        handle = Counter("c", labels=("kind",)).labels(kind="k")
        with pytest.raises(MetricError):
            handle.inc(-1)
        assert handle.counter.total() == 0

    def test_label_values_keyed_as_strings(self):
        counter = Counter("c", labels=("n",))
        counter.labels(n=7).inc()
        counter.inc(n="7")
        assert counter.value(n=7) == 2

    def test_matches_unbound_past_max_series_and_across_reset(self):
        bound_reg = MetricsRegistry(max_series=3)
        plain_reg = MetricsRegistry(max_series=3)
        bound = bound_reg.counter("c", labels=("kind",))
        plain = plain_reg.counter("c", labels=("kind",))
        kinds = [f"k{i}" for i in range(6)]
        # every handle is bound before any series exists, so overflow must
        # be decided at update time, not frozen at bind time
        handles = {kind: bound.labels(kind=kind) for kind in kinds}
        script = [(kinds[i % 6], 1.0 + (i % 3)) for i in range(8 * 6 + 1)]

        def play(steps):
            for kind, amount in steps:
                handles[kind].inc(amount)
                plain.inc(amount, kind=kind)
            assert bound_reg.snapshot() == plain_reg.snapshot()

        play(script[:4])
        play(script[4:20])
        assert bound.overflowed == plain.overflowed > 0
        assert OVERFLOW_KEY in bound.items()
        bound_reg.reset()
        plain_reg.reset()
        assert bound_reg.snapshot() == plain_reg.snapshot()
        # after reset the first three kinds to arrive own the real series
        play(script[21:])
        assert bound.overflowed == plain.overflowed > 0
        assert set(bound.items()) == set(plain.items())


class TestBoundHistogram:
    """``Histogram.labels`` mirrors ``Counter.labels``: observations through
    the handle must be indistinguishable from ``observe(value, **labels)``."""

    def test_wrong_label_names_raise_at_bind(self):
        histogram = Histogram("h", labels=("host",))
        with pytest.raises(MetricError):
            histogram.labels()
        with pytest.raises(MetricError):
            histogram.labels(host="a", extra="x")
        with pytest.raises(MetricError):
            Histogram("plain").labels(host="a")

    def test_unlabelled_handle_feeds_the_single_series(self):
        histogram = Histogram("h")
        handle = histogram.labels()
        for value in (3.0, 1.0, 2.0):
            handle.observe(value)
        assert histogram.count == 3
        assert histogram.summary()["max"] == 3.0

    def test_matches_unbound_past_max_series_and_across_reset(self):
        bound_reg = MetricsRegistry(max_series=3)
        plain_reg = MetricsRegistry(max_series=3)
        # a small reservoir so algorithm R's replacement draws are compared
        bound = bound_reg.histogram("h", labels=("host",), reservoir_size=4)
        plain = plain_reg.histogram("h", labels=("host",), reservoir_size=4)
        hosts = [f"h{i}" for i in range(6)]
        handles = {host: bound.labels(host=host) for host in hosts}
        script = [(hosts[i % 6], 0.5 * (i % 7)) for i in range(10 * 6 + 1)]

        def play(steps):
            for host, value in steps:
                handles[host].observe(value)
                plain.observe(value, host=host)
            assert bound_reg.snapshot() == plain_reg.snapshot()

        play(script[:4])
        play(script[4:30])
        assert bound.overflowed == plain.overflowed > 0
        assert OVERFLOW_KEY in bound.items()
        bound_reg.reset()
        plain_reg.reset()
        assert bound_reg.snapshot() == plain_reg.snapshot()
        play(script[31:])
        assert bound.overflowed == plain.overflowed > 0
        assert set(bound.items()) == set(plain.items())


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value() == 12


class TestCardinality:
    def test_overflow_collapses_to_single_series(self):
        counter = Counter("c", labels=("id",), max_series=4)
        for index in range(10):
            counter.inc(id=f"msg-{index}")
        assert len(counter.items()) == 5  # 4 real + 1 overflow
        assert counter.items()[OVERFLOW_KEY] == 6
        assert counter.overflowed == 6
        assert counter.total() == 10  # nothing lost, only un-labelled

    def test_existing_series_still_updatable_after_overflow(self):
        counter = Counter("c", labels=("id",), max_series=2)
        counter.inc(id="a")
        counter.inc(id="b")
        counter.inc(id="c")  # overflow
        counter.inc(id="a")  # pre-existing: still its own series
        assert counter.value(id="a") == 2

    def test_histogram_overflow(self):
        hist = Histogram("h", labels=("id",), max_series=2, reservoir_size=8)
        for index in range(6):
            hist.observe(float(index), id=f"s{index}")
        assert hist.count == 6
        assert hist.overflowed == 4


class TestReservoir:
    def test_memory_stays_bounded_counts_exact(self):
        reservoir = Reservoir(capacity=64)
        for value in range(10_000):
            reservoir.observe(float(value))
        assert len(reservoir) == 64
        assert reservoir.count == 10_000
        assert reservoir.min == 0.0
        assert reservoir.max == 9999.0
        assert reservoir.total == sum(range(10_000))

    def test_deterministic_given_seed(self):
        first = Reservoir(capacity=16, seed=5)
        second = Reservoir(capacity=16, seed=5)
        for value in range(1000):
            first.observe(float(value))
            second.observe(float(value))
        assert first.samples == second.samples

    def test_quantiles_under_capacity_are_exact(self):
        reservoir = Reservoir(capacity=200)
        for value in range(1, 101):
            reservoir.observe(float(value))
        assert reservoir.quantile(0.50) == 50.0
        assert reservoir.quantile(0.95) == 95.0
        assert reservoir.quantile(1.0) == 100.0

    def test_quantiles_over_capacity_stay_representative(self):
        reservoir = Reservoir(capacity=256)
        for value in range(10_000):
            reservoir.observe(float(value))
        p50 = reservoir.quantile(0.50)
        assert 3000 < p50 < 7000  # uniform stream: median near the middle

    def test_summary_fields(self):
        reservoir = Reservoir()
        reservoir.observe(2.0)
        reservoir.observe(4.0)
        summary = reservoir.summary()
        assert summary["count"] == 2
        assert summary["mean"] == 3.0
        assert summary["min"] == 2.0 and summary["max"] == 4.0

    def test_empty_summary_is_zeroed(self):
        assert Reservoir().summary()["count"] == 0


class TestHistogram:
    def test_per_series_reservoirs(self):
        hist = Histogram("h", labels=("host",))
        hist.observe(1.0, host="a")
        hist.observe(3.0, host="b")
        assert hist.series(host="a").count == 1
        assert hist.count == 2
        assert hist.sum == 4.0

    def test_label_free_summary_merges(self):
        hist = Histogram("h", labels=("host",))
        for value in (1.0, 2.0, 3.0):
            hist.observe(value, host="a")
        hist.observe(10.0, host="b")
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["max"] == 10.0


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        first = registry.counter("c", labels=("k",))
        second = registry.counter("c", labels=("k",))
        assert first is second

    def test_redeclare_with_other_type_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(MetricError):
            registry.gauge("m")

    def test_redeclare_with_other_labels_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m", labels=("a",))
        with pytest.raises(MetricError):
            registry.counter("m", labels=("b",))

    def test_snapshot_isolated_from_later_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", labels=("k",))
        counter.inc(k="x")
        snapshot = registry.snapshot()
        counter.inc(k="x")
        counter.inc(k="y")
        assert snapshot["c"]["series"] == [{"labels": {"k": "x"}, "value": 1.0}]
        fresh = registry.snapshot()
        assert len(fresh["c"]["series"]) == 2

    def test_snapshot_mutation_does_not_leak_back(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        snapshot = registry.snapshot()
        snapshot["c"]["series"][0]["value"] = 999
        assert registry.snapshot()["c"]["series"][0]["value"] == 1.0

    def test_snapshot_histogram_summary(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(5.0)
        entry = registry.snapshot()["h"]
        assert entry["type"] == "histogram"
        assert entry["series"][0]["summary"]["count"] == 1

    def test_reset_named_metrics_only(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("b").inc()
        registry.reset(["a"])
        assert registry.get("a").total() == 0
        assert registry.get("b").total() == 1

    def test_to_json_round_trips(self):
        import json
        registry = MetricsRegistry()
        registry.counter("c", labels=("k",)).inc(k="v")
        parsed = json.loads(registry.to_json())
        assert parsed["c"]["series"][0]["labels"] == {"k": "v"}
