"""Live telemetry through the executors: lifecycle records, heartbeats,
and hang attribution.

The invariant mirrored from the resilience suite: telemetry is
observe-only.  Every executor run here is checked byte-equal against the
clean serial ground truth while a hub collects its records.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.exec import (
    ExecPolicy,
    ExperimentSpec,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.experiments.exec.worker import HANG_SPAN
from repro.obs import Observability, TelemetryHub, TelemetrySink

#: 1 swept value x 2 topologies x 2 member sets = 4 scenario work units.
SPEC = ExperimentSpec(
    n=30,
    group_size=8,
    alpha=0.4,
    sweep_parameter="d_thresh",
    sweep_values=(0.3,),
    topologies=2,
    member_sets=2,
)

FAST = dict(backoff_base=0.0)


class CollectSink(TelemetrySink):
    def __init__(self) -> None:
        self.records = []

    def handle(self, record):
        self.records.append(record)

    def kinds(self):
        return [r["kind"] for r in self.records]


def results_digest(points):
    return [(p.label, [r.to_dict() for r in p.scenarios]) for p in points]


@pytest.fixture(scope="module")
def serial_points():
    with SerialExecutor() as ex:
        return ex.run_sweep(SPEC)


class TestSerialTelemetry:
    def test_lifecycle_records_and_identical_results(self, serial_points):
        sink = CollectSink()
        with TelemetryHub(sinks=[sink]) as hub:
            with SerialExecutor(telemetry=hub) as ex:
                points = ex.run_sweep(SPEC)
        assert results_digest(points) == results_digest(serial_points)
        kinds = sink.kinds()
        assert kinds[0] == "sweep.start"
        assert kinds[-1] == "sweep.finish"
        assert kinds.count("scenario.start") == 4
        assert kinds.count("scenario.finish") == 4
        finishes = [r for r in sink.records if r["kind"] == "scenario.finish"]
        assert all(r["duration_s"] >= 0 for r in finishes)
        assert [r["index"] for r in finishes] == [0, 1, 2, 3]


class TestParallelTelemetry:
    def test_worker_stamped_records_and_identical_results(self, serial_points):
        sink = CollectSink()
        with TelemetryHub(sinks=[sink]) as hub:
            with ParallelExecutor(jobs=2, telemetry=hub) as ex:
                points = ex.run_sweep(SPEC)
        assert results_digest(points) == results_digest(serial_points)
        kinds = sink.kinds()
        assert kinds.count("scenario.start") == 4
        assert kinds.count("scenario.finish") == 4
        starts = [r for r in sink.records if r["kind"] == "scenario.start"]
        # Worker-stamped: each record carries the worker's pid and time.
        assert all("pid" in r and "t" in r for r in starts)

    def test_no_hub_means_no_telemetry_payloads(self, serial_points):
        with ParallelExecutor(jobs=2) as ex:
            points = ex.run_sweep(SPEC)
        assert results_digest(points) == results_digest(serial_points)


class TestResilientTelemetry:
    def test_clean_run_records_and_identical_results(self, serial_points):
        sink = CollectSink()
        with TelemetryHub(sinks=[sink]) as hub:
            with ParallelExecutor(
                jobs=2, policy=ExecPolicy(**FAST), telemetry=hub
            ) as ex:
                points = ex.run_sweep(SPEC)
        assert results_digest(points) == results_digest(serial_points)
        kinds = sink.kinds()
        assert kinds.count("scenario.start") == 4
        assert kinds.count("scenario.finish") == 4

    def test_crash_emits_crash_and_retry_records(self, serial_points):
        sink = CollectSink()
        with TelemetryHub(sinks=[sink]) as hub:
            with ParallelExecutor(
                jobs=2, policy=ExecPolicy(retries=2, **FAST), telemetry=hub
            ) as ex:
                ex.inject_fault(0, "crash")
                points = ex.run_sweep(SPEC)
        assert results_digest(points) == results_digest(serial_points)
        crashes = [r for r in sink.records if r["kind"] == "scenario.crash"]
        retries = [r for r in sink.records if r["kind"] == "scenario.retry"]
        assert len(crashes) == 1 and crashes[0]["index"] == 0
        assert "died without a result" in crashes[0]["reason"]
        assert len(retries) == 1 and retries[0]["attempt"] == 1
        # The scenario still finished (on the retry).
        assert sink.kinds().count("scenario.finish") == 4

    def test_hang_timeout_record_carries_last_heartbeat_spans(
        self, serial_points
    ):
        # The acceptance criterion: an injected hang must yield (1)
        # heartbeat records whose span snapshot shows the hang site and
        # (2) a scenario.timeout record carrying that snapshot — while
        # the sweep's results stay byte-identical to serial.
        sink = CollectSink()
        obs = Observability()
        policy = ExecPolicy(
            timeout=1.0, retries=2, heartbeat_interval=0.05, **FAST
        )
        with TelemetryHub(sinks=[sink]) as hub:
            with ParallelExecutor(
                jobs=2, policy=policy, telemetry=hub
            ) as ex:
                ex.inject_fault(0, "hang")
                points = ex.run_sweep(SPEC, obs=obs)
        assert results_digest(points) == results_digest(serial_points)

        heartbeats = [r for r in sink.records if r["kind"] == "heartbeat"]
        hanging = [r for r in heartbeats if r.get("spans") == [HANG_SPAN]]
        assert hanging, "no heartbeat captured the injected hang span"

        timeouts = [r for r in sink.records if r["kind"] == "scenario.timeout"]
        assert len(timeouts) == 1
        record = timeouts[0]
        assert record["index"] == 0
        assert record["timeout_s"] == 1.0
        assert record["spans"] == [HANG_SPAN]
        assert record["last_heartbeat_elapsed_s"] is not None
        assert record["attempt"] == 0
        assert obs.metrics.counters("exec.timeouts") == {"exec.timeouts": 1}

    def test_cached_scenarios_publish_cached_finish(self, tmp_path):
        policy = ExecPolicy(
            checkpoint_dir=str(tmp_path / "ckpt"), resume=True, **FAST
        )
        with ParallelExecutor(jobs=2, policy=policy) as ex:
            first = ex.run_sweep(SPEC)
        sink = CollectSink()
        with TelemetryHub(sinks=[sink]) as hub:
            with ParallelExecutor(jobs=2, policy=policy, telemetry=hub) as ex:
                resumed = ex.run_sweep(SPEC)
        assert results_digest(resumed) == results_digest(first)
        finishes = [r for r in sink.records if r["kind"] == "scenario.finish"]
        assert len(finishes) == 4
        assert all(r.get("cached") for r in finishes)
        assert sink.kinds().count("scenario.start") == 0


class TestPolicyAndFactory:
    def test_zero_heartbeat_interval_rejected(self):
        with pytest.raises(ConfigurationError, match="heartbeat_interval"):
            ExecPolicy(heartbeat_interval=0)
        with pytest.raises(ConfigurationError, match="heartbeat_interval"):
            ExecPolicy(heartbeat_interval=-1.0)

    def test_make_executor_threads_telemetry_through(self):
        hub = TelemetryHub()
        for jobs in (1, 2):
            ex = make_executor(jobs, telemetry=hub)
            assert ex.telemetry is hub
            ex.close()

    def test_api_rejects_telemetry_with_explicit_executor(self):
        from repro.api import open_session

        hub = TelemetryHub()
        with SerialExecutor() as ex:
            with pytest.raises(ConfigurationError, match="telemetry"):
                open_session(executor=ex, telemetry=hub)

    def test_api_run_sweep_with_telemetry(self, serial_points):
        from repro.api import open_session

        sink = CollectSink()
        with TelemetryHub(sinks=[sink]) as hub:
            with open_session(telemetry=hub) as session:
                points = session.run_sweep(SPEC)
        assert results_digest(points) == results_digest(serial_points)
        assert sink.kinds().count("scenario.finish") == 4
