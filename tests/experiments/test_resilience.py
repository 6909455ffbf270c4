"""The process pool's fault tolerance: crashes, hangs, retries, resume.

The load-bearing guarantee under test: a sweep's results — down to the
byte in the rendered figure table — are **identical** whether the run was
clean and serial, or survived injected worker crashes, hangs killed at
the timeout, transient errors, and a resume from a partial checkpoint.
Fault handling changes only *when* results arrive, never *what* they are.
"""

import json

import pytest

from repro.errors import CheckpointError, ConfigurationError, RetryExhaustedError
from repro.experiments.exec import (
    CheckpointStore,
    ExecPolicy,
    ExperimentSpec,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.experiments.exec.checkpoint import RESULTS_FILENAME
from repro.experiments.runner import ScenarioResult
from repro.experiments.scenario import ScenarioConfig
from repro.obs import Observability, TelemetryHub, TelemetrySink

#: Small but non-trivial spec: 2 swept values x 2 topologies x 2 member
#: sets = 8 scenario work units.
SPEC = ExperimentSpec(
    n=30,
    group_size=8,
    alpha=0.4,
    sweep_parameter="d_thresh",
    sweep_values=(0.1, 0.3),
    topologies=2,
    member_sets=2,
)

#: Retry instantly in tests; the backoff schedule itself is unit-tested.
FAST = dict(backoff_base=0.0)


def results_digest(points):
    """Exact observable content of a sweep result, for equality checks."""
    return [
        (p.label, [r.to_dict() for r in p.scenarios]) for p in points
    ]


@pytest.fixture(scope="module")
def serial_points():
    """The ground-truth clean serial run every faulted run must match."""
    with SerialExecutor() as ex:
        return ex.run_sweep(SPEC)


class TestExecPolicy:
    def test_defaults(self):
        policy = ExecPolicy()
        assert policy.timeout is None
        assert policy.retries == 2
        assert policy.checkpoint_dir is None and not policy.resume

    @pytest.mark.parametrize(
        "bad",
        [
            dict(timeout=0),
            dict(timeout=-1.0),
            dict(retries=-1),
            dict(backoff_base=-0.1),
            dict(backoff_cap=-1.0),
            dict(resume=True),  # resume without a checkpoint dir
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ConfigurationError):
            ExecPolicy(**bad)

    def test_backoff_doubles_and_caps(self):
        policy = ExecPolicy(backoff_base=0.1, backoff_cap=0.35)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.35)  # capped, not 0.4
        assert policy.backoff(10) == pytest.approx(0.35)


class TestMakeExecutor:
    def test_policy_requires_the_pool(self):
        with pytest.raises(ConfigurationError, match="--executor process"):
            make_executor("serial", policy=ExecPolicy())
        policy = ExecPolicy(retries=5)
        with make_executor("process", jobs=2, policy=policy) as ex:
            assert isinstance(ex, ParallelExecutor)
            assert ex.kind == "process" and ex.jobs == 2
            assert ex.policy is policy

    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(jobs=0)

    def test_rejects_unknown_fault(self):
        with ParallelExecutor(jobs=1) as ex:
            with pytest.raises(ConfigurationError):
                ex.inject_fault(0, "gremlin")
            with pytest.raises(ConfigurationError):
                ex.inject_fault(-1, "crash")


class TestCleanRunParity:
    def test_matches_serial_run_exactly(self, serial_points):
        with ParallelExecutor(jobs=2, policy=ExecPolicy(**FAST)) as ex:
            points = ex.run_sweep(SPEC)
        assert results_digest(points) == results_digest(serial_points)

    def test_workers_keep_their_substrate_cache(self):
        # Long-lived workers run every unit against one warm cache, so
        # the 8 units' 2 topologies are generated at most once per worker.
        serial_obs, pooled_obs = Observability(), Observability()
        with SerialExecutor() as ex:
            ex.run_sweep(SPEC, obs=serial_obs)
        with ParallelExecutor(jobs=2, policy=ExecPolicy(**FAST)) as ex:
            ex.run_sweep(SPEC, obs=pooled_obs)
        serial = serial_obs.metrics.counters("cache.topology")
        pooled = pooled_obs.metrics.counters("cache.topology")
        assert pooled.get("cache.topology.hits", 0) > 0
        assert (
            pooled.get("cache.topology.hits", 0)
            + pooled.get("cache.topology.misses", 0)
            == serial["cache.topology.hits"] + serial["cache.topology.misses"]
        )


class StartPids(TelemetrySink):
    """Collects the worker pid every unit attempt started on."""

    def __init__(self) -> None:
        self.pids = []

    def handle(self, record):
        if record["kind"] == "scenario.start":
            self.pids.append(record["pid"])


class TestFaultRecovery:
    def test_crashed_worker_loses_one_attempt_not_the_sweep(
        self, serial_points
    ):
        obs = Observability()
        with ParallelExecutor(
            jobs=2, policy=ExecPolicy(retries=2, **FAST)
        ) as ex:
            ex.inject_fault(0, "crash")
            points = ex.run_sweep(SPEC, obs=obs)
        counters = obs.metrics.counters("exec")
        assert counters["exec.crashes"] == 1
        assert counters["exec.retries"] == 1
        assert results_digest(points) == results_digest(serial_points)

    def test_hung_worker_is_killed_at_the_timeout(self, serial_points):
        obs = Observability()
        with ParallelExecutor(
            jobs=2, policy=ExecPolicy(timeout=1.0, retries=2, **FAST)
        ) as ex:
            ex.inject_fault(1, "hang")
            points = ex.run_sweep(SPEC, obs=obs)
        counters = obs.metrics.counters("exec")
        assert counters["exec.timeouts"] == 1
        assert counters["exec.retries"] == 1
        assert results_digest(points) == results_digest(serial_points)

    @pytest.mark.parametrize(
        "fault, timeout", [("crash", None), ("hang", 1.0)]
    )
    def test_fault_replaces_only_the_dead_worker(
        self, serial_points, fault, timeout
    ):
        # 8 units on 2 workers: the faulted worker alone is replaced, so
        # its unit's retry and everything else run on 3 processes in all.
        sink = StartPids()
        policy = ExecPolicy(timeout=timeout, retries=2, **FAST)
        with TelemetryHub(sinks=[sink]) as hub:
            with ParallelExecutor(jobs=2, policy=policy, telemetry=hub) as ex:
                ex.inject_fault(1, fault)
                points = ex.run_sweep(SPEC)
        assert len(sink.pids) == 9  # 8 units + 1 retry
        assert len(set(sink.pids)) == 3
        assert results_digest(points) == results_digest(serial_points)

    def test_transient_error_retries_then_succeeds(self, serial_points):
        obs = Observability()
        with ParallelExecutor(
            jobs=2, policy=ExecPolicy(retries=1, **FAST)
        ) as ex:
            ex.inject_fault(3, "error")
            points = ex.run_sweep(SPEC, obs=obs)
        counters = obs.metrics.counters("exec")
        assert counters["exec.scenario_errors"] == 1
        assert counters["exec.retries"] == 1
        assert results_digest(points) == results_digest(serial_points)

    def test_persistent_fault_exhausts_retries_and_raises(self):
        configs = SPEC.scenario_configs()[:2]
        with ParallelExecutor(
            jobs=1, policy=ExecPolicy(retries=1, **FAST)
        ) as ex:
            ex.inject_fault(0, "crash", persistent=True)
            with pytest.raises(RetryExhaustedError) as excinfo:
                ex.map_units(configs)
        assert excinfo.value.index == 0
        assert excinfo.value.attempts == 2  # first try + one retry
        assert "died without a result" in str(excinfo.value)

    def test_zero_retries_fails_on_first_fault(self):
        configs = SPEC.scenario_configs()[:1]
        with ParallelExecutor(
            jobs=1, policy=ExecPolicy(retries=0, **FAST)
        ) as ex:
            ex.inject_fault(0, "error")
            with pytest.raises(RetryExhaustedError, match="injected transient"):
                ex.map_units(configs)

    def test_worker_interrupt_is_not_reported_as_transient(self, monkeypatch):
        # Ctrl-C hitting the process group must not come back on the pipe
        # as a retryable "error" — the parent is unwinding too, and would
        # otherwise burn retries on attempts interrupted again.
        from repro.experiments.exec import worker

        sent = []
        config = SPEC.scenario_configs()[0]

        class FakeConn:
            def send(self, message):
                sent.append(message)

            def recv(self):
                return (config, False, False, None, None)

            def close(self):
                pass

        def interrupted(config, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(worker, "run_scenario", interrupted)
        with pytest.raises(KeyboardInterrupt):
            worker.worker_main(FakeConn())
        assert sent == [("ready",)]  # the handshake, but no "error" report


class TestCheckpointResume:
    def test_faulted_then_resumed_run_matches_serial(
        self, serial_points, tmp_path
    ):
        store_dir = tmp_path / "ckpt"
        obs = Observability()
        with ParallelExecutor(
            jobs=2,
            policy=ExecPolicy(retries=2, checkpoint_dir=str(store_dir), **FAST),
        ) as ex:
            ex.inject_fault(0, "crash")
            ex.inject_fault(5, "error")
            faulted = ex.run_sweep(SPEC, obs=obs)
        counters = obs.metrics.counters("exec")
        assert counters["exec.checkpoint.writes"] == 8
        assert results_digest(faulted) == results_digest(serial_points)

        obs2 = Observability()
        with ParallelExecutor(
            jobs=2,
            policy=ExecPolicy(
                checkpoint_dir=str(store_dir), resume=True, **FAST
            ),
        ) as ex:
            resumed = ex.run_sweep(SPEC, obs=obs2)
        counters2 = obs2.metrics.counters("exec")
        assert counters2["exec.checkpoint.hits"] == 8
        assert "exec.checkpoint.writes" not in counters2  # nothing recomputed
        assert results_digest(resumed) == results_digest(serial_points)

    def test_resume_from_partial_checkpoint(self, serial_points, tmp_path):
        store_dir = tmp_path / "ckpt"
        configs = SPEC.scenario_configs()
        # Seed the store with the first half of the sweep only.
        with SerialExecutor() as warm, CheckpointStore(store_dir) as store:
            for result in warm.map_units(configs[:4]):
                store.put(result.config.content_key(), result)

        obs = Observability()
        with ParallelExecutor(
            jobs=2,
            policy=ExecPolicy(
                checkpoint_dir=str(store_dir), resume=True, **FAST
            ),
        ) as ex:
            points = ex.run_sweep(SPEC, obs=obs)
        counters = obs.metrics.counters("exec")
        assert counters["exec.checkpoint.hits"] == 4
        assert counters["exec.checkpoint.writes"] == 4  # only the second half
        assert results_digest(points) == results_digest(serial_points)

    def test_without_resume_store_is_written_but_not_read(self, tmp_path):
        store_dir = tmp_path / "ckpt"
        configs = SPEC.scenario_configs()[:2]
        policy = ExecPolicy(checkpoint_dir=str(store_dir), **FAST)
        with ParallelExecutor(jobs=1, policy=policy) as ex:
            ex.map_units(configs)
        obs = Observability()
        with ParallelExecutor(jobs=1, policy=policy) as ex:
            ex.map_units(configs, obs=obs)
        counters = obs.metrics.counters("exec")
        assert "exec.checkpoint.hits" not in counters
        # Recomputed results were already stored: duplicate puts are no-ops.
        assert "exec.checkpoint.writes" not in counters

    def test_manifest_written_next_to_results(self, tmp_path):
        store_dir = tmp_path / "ckpt"
        with ParallelExecutor(
            jobs=1, policy=ExecPolicy(checkpoint_dir=str(store_dir), **FAST)
        ) as ex:
            ex.run_sweep(SPEC)
        manifest = store_dir / f"manifest-{SPEC.content_key()}.json"
        assert manifest.exists()
        assert ExperimentSpec.from_json(manifest.read_text()) == SPEC


class TestCheckpointStore:
    def make_result(self, seed=0):
        from repro.experiments.runner import run_scenario

        config = ScenarioConfig(
            n=30, group_size=8, topology_seed=seed, member_seed=seed
        )
        return run_scenario(config)

    def test_round_trip_is_exact(self, tmp_path):
        result = self.make_result()
        key = result.config.content_key()
        with CheckpointStore(tmp_path) as store:
            assert store.put(key, result)
            assert not store.put(key, result)  # duplicate is a no-op
        reloaded = CheckpointStore(tmp_path)
        again = reloaded.get(key)
        assert again == result
        assert again.to_dict() == result.to_dict()
        assert key in reloaded and len(reloaded) == 1

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        result = self.make_result()
        with CheckpointStore(tmp_path) as store:
            store.put(result.config.content_key(), result)
        path = tmp_path / RESULTS_FILENAME
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"store_version": 1, "key": "abc", "resu')  # torn
        store = CheckpointStore(tmp_path)
        assert len(store) == 1  # the torn record is skipped, not fatal

    def test_torn_tail_is_truncated_so_resume_can_append(self, tmp_path):
        # The crash-then-resume sequence the store exists to survive:
        # load() must truncate the torn tail, or the first post-resume
        # put() glues onto the partial line and corrupts *both* records.
        first = self.make_result(seed=0)
        second = self.make_result(seed=1)
        with CheckpointStore(tmp_path) as store:
            store.put(first.config.content_key(), first)
        path = tmp_path / RESULTS_FILENAME
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"store_version": 1, "key": "abc", "resu')  # torn
        with CheckpointStore(tmp_path) as resumed:  # truncates the tail...
            assert resumed.put(second.config.content_key(), second)
        reloaded = CheckpointStore(tmp_path)  # ...so this append is clean
        assert len(reloaded) == 2
        assert reloaded.get(first.config.content_key()) == first
        assert reloaded.get(second.config.content_key()) == second

    def test_missing_final_newline_is_repaired(self, tmp_path):
        # An intact last record whose newline never hit the disk: the
        # record is kept and the next append still starts a fresh line.
        first = self.make_result(seed=0)
        second = self.make_result(seed=1)
        with CheckpointStore(tmp_path) as store:
            store.put(first.config.content_key(), first)
        path = tmp_path / RESULTS_FILENAME
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        with CheckpointStore(tmp_path) as resumed:
            assert len(resumed) == 1  # the intact record is not dropped
            resumed.put(second.config.content_key(), second)
        reloaded = CheckpointStore(tmp_path)
        assert len(reloaded) == 2
        assert reloaded.get(first.config.content_key()) == first
        assert reloaded.get(second.config.content_key()) == second

    def test_corruption_before_the_tail_is_rejected(self, tmp_path):
        result = self.make_result()
        path = tmp_path / RESULTS_FILENAME
        with CheckpointStore(tmp_path) as store:
            store.put(result.config.content_key(), result)
        good_line = path.read_text()
        path.write_text("not json at all\n" + good_line)
        with pytest.raises(CheckpointError, match="corrupt"):
            CheckpointStore(tmp_path)

    def test_unknown_store_version_is_rejected(self, tmp_path):
        path = tmp_path / RESULTS_FILENAME
        path.write_text(
            json.dumps({"store_version": 99, "key": "k", "result": {}}) + "\n"
            + "{}\n"  # a second line so the bad record is not "torn"
        )
        with pytest.raises(CheckpointError, match="version"):
            CheckpointStore(tmp_path)

    def test_result_payload_version_is_checked(self):
        result = self.make_result()
        payload = result.to_dict()
        payload["version"] = 99
        with pytest.raises(CheckpointError, match="version"):
            ScenarioResult.from_dict(payload)

    def test_scenario_content_key_is_stable_and_distinct(self):
        a = ScenarioConfig(n=30, group_size=8)
        b = ScenarioConfig(n=30, group_size=8)
        c = ScenarioConfig(n=30, group_size=8, member_seed=1)
        assert a.content_key() == b.content_key()
        assert a.content_key() != c.content_key()


class TestApiIntegration:
    def test_run_sweep_policy_kwarg(self, serial_points):
        from repro.api import open_session

        with open_session(jobs=2, policy=ExecPolicy(**FAST)) as session:
            points = session.run_sweep(SPEC)
        assert results_digest(points) == results_digest(serial_points)

    def test_policy_and_executor_are_mutually_exclusive(self):
        from repro.api import open_session

        with SerialExecutor() as ex:
            with pytest.raises(ConfigurationError, match="not both"):
                open_session(executor=ex, policy=ExecPolicy())
