"""The metrics core: families, labels, bucket edges, rendering, injection."""

from __future__ import annotations

import threading

import pytest

from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    MetricError,
    MetricsRegistry,
    NullRegistry,
    default_registry,
    render_prometheus,
    use_registry,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        counter = registry.counter("jobs_total", "Jobs.")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5
        assert counter.total() == 5

    def test_negative_increment_rejected(self, registry):
        counter = registry.counter("jobs_total")
        with pytest.raises(MetricError, match="cannot decrease"):
            counter.inc(-1)

    def test_labelled_rows_are_independent(self, registry):
        counter = registry.counter("hits_total", labels=("source",))
        counter.inc(source="alpha")
        counter.inc(2, source="beta")
        assert counter.value(source="alpha") == 1
        assert counter.value(source="beta") == 2
        assert counter.total() == 3

    def test_label_mismatch_is_loud(self, registry):
        counter = registry.counter("hits_total", labels=("source",))
        with pytest.raises(MetricError, match="takes labels"):
            counter.inc(worker="x")
        with pytest.raises(MetricError, match="takes labels"):
            counter.inc()


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("depth")
        gauge.set(7)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value() == 5

    def test_gauges_may_go_negative(self, registry):
        gauge = registry.gauge("delta")
        gauge.dec(3)
        assert gauge.value() == -3


class TestHistogram:
    def test_le_is_inclusive_on_the_bucket_edge(self, registry):
        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        histogram.observe(0.1)  # exactly on the first bound -> first bucket
        histogram.observe(0.5)
        histogram.observe(2.0)  # above the last bound -> +Inf
        assert histogram.bucket_counts() == [1, 1, 1]
        assert histogram.count() == 3
        assert histogram.sum() == pytest.approx(2.6)

    def test_buckets_must_strictly_increase(self, registry):
        with pytest.raises(MetricError, match="strictly increasing"):
            registry.histogram("bad", buckets=(1.0, 1.0))
        with pytest.raises(MetricError, match="strictly increasing"):
            registry.histogram("bad2", buckets=(2.0, 1.0))
        with pytest.raises(MetricError, match="at least one bucket"):
            registry.histogram("bad3", buckets=())

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(set(DEFAULT_BUCKETS))


class TestRegistry:
    def test_get_or_create_returns_the_same_family(self, registry):
        assert registry.counter("a_total") is registry.counter("a_total")

    def test_type_clash_is_loud(self, registry):
        registry.counter("x")
        with pytest.raises(MetricError, match="already registered as a counter"):
            registry.gauge("x")
        with pytest.raises(MetricError, match="already registered as a counter"):
            registry.histogram("x")

    def test_label_clash_is_loud(self, registry):
        registry.counter("y_total", labels=("a",))
        with pytest.raises(MetricError, match="registered with labels"):
            registry.counter("y_total", labels=("b",))

    def test_bucket_clash_is_loud(self, registry):
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(MetricError, match="registered with buckets"):
            registry.histogram("h", buckets=(1.0, 3.0))

    def test_bad_names_rejected(self, registry):
        for name in ("", "9lead", "has space", "has-dash", None):
            with pytest.raises(MetricError):
                registry.counter(name)

    def test_snapshot_sections(self, registry):
        registry.counter("c_total", "C.").inc()
        registry.gauge("g").set(2)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"]["c_total"]["values"] == [
            {"labels": {}, "value": 1}
        ]
        assert snapshot["gauges"]["g"]["values"][0]["value"] == 2
        assert snapshot["histograms"]["h"]["buckets"] == [1.0]

    def test_concurrent_increments_do_not_lose_counts(self, registry):
        counter = registry.counter("race_total")
        histogram = registry.histogram("race_lat", buckets=(1.0,))

        def worker():
            for _ in range(1000):
                counter.inc()
                histogram.observe(0.5)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == 8000
        assert histogram.count() == 8000


def write_both_ways(registry, bound: bool, values=(1, 4, 0.5, 2.5)) -> None:
    """The same writes through bound rows or through ``**labels`` calls."""
    counter = registry.counter("hits_total", labels=("source",))
    gauge = registry.gauge("depth", labels=("source",))
    histogram = registry.histogram("lat", buckets=(1.0, 2.0), labels=("source",))
    plain = registry.counter("plain_total")
    for source in ("alpha", "beta"):
        if bound:
            inc = counter.bind(source=source)
            set_ = gauge.bind(source=source)
            observe = histogram.bind(source=source)
            plain_inc = plain.bind()
        else:
            def inc(amount, source=source):
                counter.inc(amount, source=source)

            def set_(value, source=source):
                gauge.set(value, source=source)

            def observe(value, source=source):
                histogram.observe(value, source=source)

            plain_inc = plain.inc
        for value in values:
            inc(value)
            set_(value)
            observe(value)
            plain_inc(value)


class TestBoundRows:
    def test_bound_rows_snapshot_like_labelled_calls(self):
        bound, labelled = MetricsRegistry(), MetricsRegistry()
        write_both_ways(bound, True)
        write_both_ways(labelled, False)
        assert bound.snapshot() == labelled.snapshot()
        assert bound.render_prometheus() == labelled.render_prometheus()

    def test_a_bound_row_writes_the_labelled_row(self, registry):
        counter = registry.counter("hits_total", labels=("source", "kind"))
        # labels bind in any order, like the keyword calls
        counter.bind(kind="x", source="alpha")(3)
        counter.inc(2, source="alpha", kind="x")
        assert counter.value(source="alpha", kind="x") == 5
        gauge = registry.gauge("depth")
        set_depth = gauge.bind()
        set_depth(4)
        gauge.inc()
        set_depth(7)
        assert gauge.value() == 7
        histogram = registry.histogram("lat", buckets=(1.0,))
        histogram.bind()(1.0)
        assert histogram.bucket_counts() == [1, 0]

    def test_binding_writes_nothing(self, registry):
        registry.counter("c_total", labels=("source",)).bind(source="alpha")
        registry.gauge("g").bind()
        registry.histogram("h").bind()
        snapshot = registry.snapshot()
        assert [family["values"] for section in snapshot.values()
                for family in section.values()] == [[], [], []]

    def test_bound_rows_keep_the_checks(self, registry):
        counter = registry.counter("hits_total", labels=("source",))
        with pytest.raises(MetricError, match="takes labels"):
            counter.bind(worker="x")
        with pytest.raises(MetricError, match="takes labels"):
            counter.bind()
        with pytest.raises(MetricError, match="cannot decrease"):
            counter.bind(source="alpha")(-1)
        assert counter.snapshot()["values"] == []

    def test_four_writer_threads_agree_with_labelled_calls(self):
        def hammer(registry, bound: bool) -> None:
            def worker(index: int) -> None:
                for _ in range(500):
                    write_both_ways(registry, bound, values=(1, index, 0.25))

            threads = [threading.Thread(target=worker, args=(index,)) for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

        bound, labelled = MetricsRegistry(), MetricsRegistry()
        hammer(bound, True)
        hammer(labelled, False)
        snapshot = bound.snapshot()
        # every thread writes 0.25 last, so the gauges agree too
        assert snapshot == labelled.snapshot()
        (alpha, _) = snapshot["counters"]["hits_total"]["values"]
        assert alpha["value"] == 500 * sum(1 + index + 0.25 for index in range(4))
        (alpha, _) = snapshot["histograms"]["lat"]["values"]
        assert alpha["count"] == 4 * 500 * 3

    def test_null_registry_binds_to_nothing(self):
        null = NullRegistry()
        null.counter("c_total").bind()(3)
        null.gauge("g", labels=("source",)).bind(source="alpha")(2)
        null.histogram("h").bind()(0.1)
        assert null.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestDefaultRegistry:
    def test_use_registry_swaps_and_restores(self):
        scratch = MetricsRegistry()
        before = default_registry()
        with use_registry(scratch):
            assert default_registry() is scratch
        assert default_registry() is before

    def test_null_registry_records_nothing(self):
        null = NullRegistry()
        null.counter("anything").inc(5)
        null.gauge("g").set(2)
        null.histogram("h").observe(1.0)
        assert null.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert null.counter("anything").value() == 0


class TestPrometheusRendering:
    def test_counter_and_gauge_lines(self, registry):
        registry.counter("c_total", "Count of things.").inc(3)
        registry.gauge("g", labels=("source",)).set(2, source="al\"pha")
        text = registry.render_prometheus()
        assert "# HELP c_total Count of things.\n" in text
        assert "# TYPE c_total counter\n" in text
        assert "c_total 3\n" in text
        assert "# TYPE g gauge\n" in text
        assert 'g{source="al\\"pha"} 2\n' in text

    def test_histogram_series_are_cumulative(self, registry):
        histogram = registry.histogram("lat", "Latency.", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        text = registry.render_prometheus()
        assert 'lat_bucket{le="0.1"} 1\n' in text
        assert 'lat_bucket{le="1"} 3\n' in text
        assert 'lat_bucket{le="+Inf"} 4\n' in text
        assert "lat_sum 6.05\n" in text
        assert "lat_count 4\n" in text

    def test_rendering_from_snapshot_matches_live(self, registry):
        registry.counter("c_total").inc()
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        assert render_prometheus(registry.snapshot()) == registry.render_prometheus()

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus(MetricsRegistry().snapshot()) == ""
