"""Live telemetry: TelemetryHub aggregation, sinks, OpenMetrics export."""

import io
import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    FlightRecorder,
    Observability,
    OpenMetricsSink,
    ProgressSink,
    TelemetryHub,
    TelemetrySink,
    build_run_report,
    load_flight_record,
    openmetrics_from_snapshot,
    render_flight_record,
    render_openmetrics,
    render_run_report,
)
from repro.obs.registry import MetricsRegistry


class FakeClock:
    """Deterministic wall + monotonic clock for hub tests."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def advance(self, seconds: float) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


class CollectSink(TelemetrySink):
    def __init__(self) -> None:
        self.records = []
        self.ticks = []
        self.closed = False

    def handle(self, record):
        self.records.append(record)

    def tick(self, snapshot):
        self.ticks.append(snapshot)

    def close(self):
        self.closed = True


class RaisingSink(TelemetrySink):
    def handle(self, record):
        raise RuntimeError("broken sink")


def make_hub(*sinks, tick_interval=1.0):
    clock = FakeClock()
    hub = TelemetryHub(
        sinks=sinks,
        clock=clock,
        monotonic=clock,
        tick_interval=tick_interval,
    )
    return hub, clock


class TestTelemetryHub:
    def test_records_are_stamped_and_fanned_out(self):
        sink = CollectSink()
        hub, clock = make_hub(sink)
        hub.begin(3, meta={"executor": "serial"})
        record = hub.publish("scenario.start", index=0, attempt=0)
        assert record["v"] == 1
        assert record["t"] == clock.now
        assert sink.records[0]["kind"] == "sweep.start"
        assert sink.records[0]["meta"] == {"executor": "serial"}
        assert sink.records[1] is record

    def test_forward_preserves_worker_timestamp(self):
        sink = CollectSink()
        hub, clock = make_hub(sink)
        hub.begin(1)
        merged = hub.forward(
            {"kind": "heartbeat", "t": 123.0, "spans": ["a"]}, index=0
        )
        assert merged["t"] == 123.0
        assert merged["index"] == 0
        assert hub.last_heartbeat[0]["spans"] == ["a"]

    def test_progress_counters_and_rate(self):
        hub, clock = make_hub()
        hub.begin(4)
        for index in range(2):
            hub.publish("scenario.start", index=index, attempt=0)
            clock.advance(1.0)
            hub.publish(
                "scenario.finish", index=index, attempt=0, duration_s=1.0
            )
        snap = hub.snapshot()
        assert snap["completed"] == 2
        assert snap["rate_per_s"] == pytest.approx(1.0)
        assert snap["eta_s"] == pytest.approx(2.0)
        assert snap["in_flight"] == 0

    def test_snapshot_guards_divisions_on_empty_batch(self):
        hub, clock = make_hub()
        hub.begin(5)
        snap = hub.snapshot()  # zero elapsed, zero completed
        assert snap["rate_per_s"] == 0.0
        assert snap["eta_s"] is None
        clock.advance(10.0)
        snap = hub.snapshot()  # elapsed but still nothing completed
        assert snap["rate_per_s"] == 0.0
        assert snap["eta_s"] is None

    def test_fault_kinds_tallied(self):
        hub, clock = make_hub()
        hub.begin(3)
        hub.publish("scenario.timeout", index=0, attempt=0)
        hub.publish("scenario.crash", index=1, attempt=0)
        hub.publish("scenario.error", index=2, attempt=0)
        hub.publish("scenario.retry", index=0, attempt=1)
        snap = hub.snapshot()
        assert (snap["timeouts"], snap["crashes"], snap["errors"]) == (1, 1, 1)
        assert snap["retries"] == 1
        counters = hub.metrics.counters("telemetry.")
        assert counters["telemetry.scenarios.timeouts"] == 1
        assert counters["telemetry.scenarios.crashes"] == 1
        assert counters["telemetry.scenarios.errors"] == 1
        assert counters["telemetry.scenarios.retries"] == 1

    def test_cached_finish_counts_separately(self):
        hub, clock = make_hub()
        hub.begin(2)
        hub.publish("scenario.finish", index=0, attempt=0, cached=True)
        hub.publish("scenario.finish", index=1, attempt=0, duration_s=0.5)
        snap = hub.snapshot()
        assert snap["completed"] == 2
        assert snap["cached"] == 1

    def test_begin_resets_batch_but_metrics_accumulate(self):
        hub, clock = make_hub()
        hub.begin(1)
        hub.publish("scenario.finish", index=0, attempt=0)
        hub.end()
        hub.begin(1)
        assert hub.completed == 0
        hub.publish("scenario.finish", index=0, attempt=0)
        counters = hub.metrics.counters("telemetry.")
        assert counters["telemetry.scenarios.finished"] == 2

    def test_end_is_idempotent_and_close_closes_sinks(self):
        sink = CollectSink()
        hub, clock = make_hub(sink)
        hub.begin(1)
        hub.end()
        hub.end()
        finishes = [r for r in sink.records if r["kind"] == "sweep.finish"]
        assert len(finishes) == 1
        hub.close()
        assert sink.closed

    def test_raising_sink_is_quarantined_not_fatal(self, capsys):
        good = CollectSink()
        hub, clock = make_hub(RaisingSink(), good)
        hub.begin(1)
        hub.publish("scenario.start", index=0, attempt=0)
        err = capsys.readouterr().err
        assert "RaisingSink" in err and "disabled" in err
        # The good sink saw every record despite its broken neighbour.
        assert [r["kind"] for r in good.records] == [
            "sweep.start", "scenario.start",
        ]

    def test_maybe_tick_throttles_by_interval(self):
        sink = CollectSink()
        hub, clock = make_hub(sink, tick_interval=10.0)
        hub.begin(1)
        baseline = len(sink.ticks)
        hub.maybe_tick()  # within interval of construction tick state
        clock.advance(11.0)
        hub.maybe_tick()
        assert len(sink.ticks) == baseline + 1
        assert "metrics" in sink.ticks[-1]


class TestFlightRecorder:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "flight.ndjson"
        sink = FlightRecorder(path)
        sink.handle({"v": 1, "t": 1.0, "kind": "sweep.start", "total": 2})
        sink.handle({"v": 1, "t": 2.0, "kind": "sweep.finish"})
        sink.close()
        records = load_flight_record(path)
        assert [r["kind"] for r in records] == ["sweep.start", "sweep.finish"]

    def test_torn_trailing_record_is_skipped(self, tmp_path):
        path = tmp_path / "flight.ndjson"
        path.write_text(
            json.dumps({"kind": "sweep.start"}) + "\n" + '{"kind": "scen'
        )
        records = load_flight_record(path)
        assert [r["kind"] for r in records] == ["sweep.start"]

    def test_earlier_corruption_raises(self, tmp_path):
        path = tmp_path / "flight.ndjson"
        path.write_text(
            'not json\n' + json.dumps({"kind": "sweep.finish"}) + "\n"
        )
        with pytest.raises(ConfigurationError, match="corrupt flight record"):
            load_flight_record(path)

    def test_append_repairs_missing_trailing_newline(self, tmp_path):
        path = tmp_path / "flight.ndjson"
        path.write_text('{"kind": "torn')  # killed mid-append, no newline
        sink = FlightRecorder(path)
        sink.handle({"v": 1, "kind": "sweep.start"})
        sink.close()
        # The new record landed on its own line, not glued to the tear.
        records = load_flight_record(path)
        assert [r["kind"] for r in records] == ["sweep.start"]

    def test_append_keeps_an_intact_last_record_missing_its_newline(self, tmp_path):
        path = tmp_path / "flight.ndjson"
        path.write_text('{"kind":"a"}\n{"kind":"b"}')  # b's newline never landed
        assert [r["kind"] for r in load_flight_record(path)] == ["a", "b"]
        sink = FlightRecorder(path)
        sink.handle({"kind": "c"})
        sink.close()
        assert [r["kind"] for r in load_flight_record(path)] == ["a", "b", "c"]

    def test_render_timeline_and_summary(self, tmp_path):
        records = [
            {"t": 10.0, "kind": "sweep.start", "total": 2},
            {"t": 10.5, "kind": "heartbeat", "index": 0,
             "spans": ["scenario.measure"]},
            {"t": 11.0, "kind": "scenario.timeout", "index": 0, "attempt": 0,
             "timeout_s": 1.0, "spans": ["scenario.measure"]},
            {"t": 12.0, "kind": "sweep.finish", "completed": 2, "total": 2,
             "wall_s": 2.0},
        ]
        text = render_flight_record(records)
        assert "4 records" in text
        assert "TIMED OUT" in text
        assert "scenario.measure" in text
        assert "record kinds:" in text
        limited = render_flight_record(records, last=2)
        assert "2 earlier records elided" in limited

    def test_render_empty(self):
        assert render_flight_record([]) == "flight record: empty"


class TestProgressSink:
    def test_non_tty_writes_full_lines_to_stream(self):
        stream = io.StringIO()
        sink = ProgressSink(stream=stream, min_interval=0.0)
        sink.handle({"kind": "sweep.start", "total": 4})
        sink.tick({"total": 4, "completed": 1, "rate_per_s": 2.0,
                   "eta_s": 1.5, "in_flight": 2, "retries": 1})
        sink.handle({"kind": "sweep.finish", "completed": 4, "total": 4,
                     "wall_s": 2.0})
        sink.close()
        out = stream.getvalue()
        assert "sweep started: 4 work units" in out
        assert "1/4 (25%)" in out
        assert "2.00/s" in out
        assert "in-flight 2" in out
        assert "retries 1" in out
        assert "sweep finished: 4/4" in out

    def test_throttling_skips_fast_ticks(self):
        stream = io.StringIO()
        clock = FakeClock()
        sink = ProgressSink(stream=stream, min_interval=5.0, monotonic=clock)
        snap = {"total": 2, "completed": 1, "rate_per_s": 1.0, "eta_s": 1.0}
        sink.tick(snap)
        first = stream.getvalue()
        sink.tick(snap)  # same instant: throttled
        assert stream.getvalue() == first
        clock.advance(6.0)
        sink.tick(snap)
        assert stream.getvalue() != first


class TestOpenMetrics:
    def test_counters_gauges_histograms_exposition(self):
        registry = MetricsRegistry()
        registry.counter("smrp.joins").inc(3)
        registry.gauge("exec.jobs").set(4)
        hist = registry.hdr_histogram("recovery.latency")
        for value in (0.0, 0.5, 0.5, 3.0, 99.0):
            hist.observe(value)
        text = openmetrics_from_snapshot(registry.snapshot())
        assert "# TYPE repro_smrp_joins counter" in text
        assert "repro_smrp_joins_total 3" in text
        assert "repro_exec_jobs 4" in text
        assert "# TYPE repro_recovery_latency histogram" in text
        # Buckets are cumulative, from the zero bucket up to +Inf.
        buckets = [
            line.rsplit(" ", 1)
            for line in text.splitlines()
            if line.startswith("repro_recovery_latency_bucket")
        ]
        assert [int(count) for _, count in buckets] == [1, 3, 4, 5, 5]
        assert buckets[0][0] == 'repro_recovery_latency_bucket{le="0"}'
        assert buckets[-1][0] == 'repro_recovery_latency_bucket{le="+Inf"}'
        assert "repro_recovery_latency_count 5" in text
        assert text.endswith("# EOF\n")

    def test_name_sanitization(self):
        registry = MetricsRegistry()
        registry.counter("weird-name.with spaces").inc()
        text = openmetrics_from_snapshot(registry.snapshot())
        assert "repro_weird_name_with_spaces_total 1" in text

    def test_empty_snapshot_is_valid_exposition(self):
        assert openmetrics_from_snapshot({}) == "# EOF\n"

    def test_render_openmetrics_requires_run_report(self):
        with pytest.raises(ConfigurationError, match="not a repro run report"):
            render_openmetrics({"junk": True})

    def test_render_openmetrics_from_report(self):
        obs = Observability()
        obs.counter("demo.widgets").inc(2)
        report = build_run_report(obs)
        text = render_openmetrics(report)
        assert "repro_demo_widgets_total 2" in text

    def test_sink_writes_atomically_and_on_close(self, tmp_path):
        path = tmp_path / "metrics.prom"
        clock = FakeClock()
        sink = OpenMetricsSink(path, min_interval=1.0, monotonic=clock)
        registry = MetricsRegistry()
        registry.counter("demo.things").inc()
        sink.tick({"metrics": registry.snapshot()})
        text = path.read_text()
        assert "repro_demo_things_total 1" in text
        assert not path.with_name(path.name + ".tmp").exists()
        registry.counter("demo.things").inc()
        sink.tick({"metrics": registry.snapshot()})  # throttled, unchanged
        assert "repro_demo_things_total 1" in path.read_text()
        sink.close()  # close always flushes the final state
        assert "repro_demo_things_total 2" in path.read_text()


class TestEmptyRunGuards:
    def test_histogram_mean_guarded_on_zero_observations(self):
        registry = MetricsRegistry()
        hist = registry.hdr_histogram("empty.hist")
        assert hist.mean == 0.0

    def test_render_run_report_with_empty_histogram(self):
        obs = Observability()
        obs.hdr_histogram("empty.hist")  # registered, never observed
        text = render_run_report(build_run_report(obs))
        assert "empty.hist: n=0 mean=0.000 min=— max=— p50=— p95=— p99=—" in text

    def test_render_run_report_on_fresh_obs(self):
        # A run that recorded nothing still renders (no division, no None).
        text = render_run_report(build_run_report(Observability()))
        assert "run report" in text
