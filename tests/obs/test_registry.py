"""MetricsRegistry semantics: instruments, idempotence, disabled no-ops."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    DEFAULT_HDR_GROWTH,
    HdrHistogram,
    MetricsRegistry,
    Observability,
    render_run_report,
)
from repro.obs.registry import _NULL_COUNTER, _NULL_GAUGE, _NULL_HISTOGRAM


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = MetricsRegistry().counter("x")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_same_name_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")

    def test_counters_prefix_filter(self):
        reg = MetricsRegistry()
        reg.counter("sim.msg.sent.JoinReq").inc(3)
        reg.counter("sim.msg.sent.JoinAck").inc(2)
        reg.counter("smrp.joins").inc()
        assert reg.counters("sim.msg.sent.") == {
            "sim.msg.sent.JoinAck": 2,
            "sim.msg.sent.JoinReq": 3,
        }
        assert len(reg.counters()) == 3


class TestGauge:
    def test_set_tracks_high_water(self):
        g = MetricsRegistry().gauge("queue")
        g.set(3)
        g.set(10)
        g.set(4)
        assert g.value == 4
        assert g.high_water == 10


class TestIntegralHdrHistogram:
    """Integer series (hop counts) read back exactly from the one
    histogram family."""

    def test_one_hop_series_renders_exactly(self):
        obs = Observability()
        hops = obs.hdr_histogram("recovery.local.hops")
        for _ in range(1000):
            hops.observe(1)
        text = render_run_report(obs.run_report())
        assert (
            "recovery.local.hops: n=1000 mean=1.000 min=1 max=1 "
            "p50=1 p95=1 p99=1"
        ) in text

    @pytest.mark.parametrize("value", range(1, 58))
    def test_integers_up_to_57_read_back_exactly(self, value):
        h = HdrHistogram("hops")
        h.observe(value)
        (index,) = h.counts
        assert h.bucket_value(index) == value
        h.observe(value)
        h.observe(value)
        assert h.quantile(0.5) == value and h.mean == value

    def test_first_integer_that_shares_a_bucket_is_58(self):
        h = HdrHistogram("hops")
        assert h.bucket_value(h.bucket_index(58)) != 58

    def test_zero_goes_to_the_zero_bucket(self):
        h = HdrHistogram("hops")
        for value in (0, 0, 3):
            h.observe(value)
        assert h.zero_count == 2 and h.integral
        assert h.quantile(0.5) == 0

    def test_one_float_clears_the_flag(self):
        h = HdrHistogram("latency")
        h.observe(2)
        assert h.integral
        h.observe(2.0)
        assert not h.integral
        assert h.mean == pytest.approx(DEFAULT_HDR_GROWTH ** 35.5)

    def test_merging_integer_and_float_series_is_not_integral(self):
        ints, floats = HdrHistogram("h"), HdrHistogram("h")
        ints.observe(3)
        floats.observe(3.5)
        ints.merge(floats)
        assert not ints.integral
        back = HdrHistogram.from_dict("h", ints.to_dict())
        assert not back.integral

    def test_payload_without_the_flag_loads_as_non_integral(self):
        h = HdrHistogram("hops")
        h.observe(2)
        payload = h.to_dict()
        assert payload.pop("integral") is True
        assert not HdrHistogram.from_dict("hops", payload).integral

    def test_reregistration_with_different_growth_rejected(self):
        reg = MetricsRegistry()
        assert reg.hdr_histogram("h") is reg.hdr_histogram("h")
        with pytest.raises(ConfigurationError):
            reg.hdr_histogram("h", growth=1.5)


class TestNameCollisions:
    def test_cross_type_name_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")
        with pytest.raises(ConfigurationError):
            reg.hdr_histogram("x")
        reg.gauge("y")
        with pytest.raises(ConfigurationError):
            reg.counter("y")


class TestDisabled:
    def test_disabled_registry_hands_out_shared_noops(self):
        reg = MetricsRegistry(enabled=False)
        assert reg.counter("a") is _NULL_COUNTER
        assert reg.gauge("b") is _NULL_GAUGE
        assert reg.hdr_histogram("d") is _NULL_HISTOGRAM

    def test_noop_instruments_record_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("a").inc(10)
        reg.gauge("b").set(5)
        reg.hdr_histogram("d").observe(2)
        snap = reg.snapshot()
        assert snap == {
            "counters": {},
            "gauges": {},
            "hdr_histograms": {},
        }


class TestSnapshot:
    def test_snapshot_is_json_shaped(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        reg.hdr_histogram("h").observe(2)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"]["g"] == {"value": 1.5, "high_water": 1.5}
        assert snap["hdr_histograms"]["h"]["count"] == 1
        assert snap["hdr_histograms"]["h"]["integral"] is True
        json.dumps(snap)  # must be serializable as-is
