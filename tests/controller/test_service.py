"""Service-run determinism: serial, sharded, resilient, and resumed
executions of one ServiceSpec must render byte-identical reports."""

import pytest

from repro.api import open_session
from repro.controller.service import (
    ServiceReport,
    ServiceShard,
    ShardResult,
    plan_shards,
    run_service,
)
from repro.controller.spec import ServiceSpec
from repro.errors import CheckpointError
from repro.experiments.exec import ExecPolicy
from repro.obs import Observability
from repro.obs.live import TelemetryHub

#: Small mixed-workload spec: big enough that the auto failure cuts
#: several groups, small enough to run in every executor kind.
SPEC = ServiceSpec(
    n=60, groups=24, sources=6, shard_size=7, workload="flash",
    protocol="spf", topology_seed=1,
)

#: One SMRP case exercising local detours + reshaping end to end.
SMRP_SPEC = ServiceSpec(n=50, groups=10, sources=4, shard_size=4)


class ListSink:
    """Telemetry sink stand-in collecting every record."""

    def __init__(self):
        self.records = []

    def handle(self, record):
        self.records.append(record)

    def tick(self, snapshot):
        pass

    def close(self):
        pass


@pytest.fixture(scope="module")
def serial_report():
    return run_service(SPEC)


class TestPlanShards:
    def test_partition_covers_the_range_once(self):
        shards = plan_shards(SPEC)
        assert [s.start for s in shards] == [0, 7, 14, 21]
        assert [s.stop for s in shards] == [7, 14, 21, 24]
        assert all(s.spec == SPEC for s in shards)

    def test_partition_ignores_everything_but_shard_size(self):
        assert len(plan_shards(ServiceSpec(groups=10, shard_size=50))) == 1
        assert len(plan_shards(ServiceSpec(groups=10, shard_size=1))) == 10

    def test_bad_shard_range_rejected(self):
        with pytest.raises(CheckpointError, match="outside the spec"):
            ServiceShard(SPEC, 20, 30)
        with pytest.raises(CheckpointError):
            ServiceShard(SPEC, 5, 5)

    def test_content_keys_distinct_and_stable(self):
        shards = plan_shards(SPEC)
        keys = [s.content_key() for s in shards]
        assert len(set(keys)) == len(keys)
        assert keys == [s.content_key() for s in plan_shards(SPEC)]
        assert "service shard groups [0, 7)" in shards[0].describe()


class TestShardResult:
    def test_checkpoint_round_trip(self):
        result = plan_shards(SMRP_SPEC)[0].run()
        clone = ShardResult.from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()
        assert clone.checkpoint_type == "service_shard"

    def test_foreign_payload_version_rejected(self):
        result = plan_shards(SMRP_SPEC)[0].run()
        payload = result.to_dict()
        payload["payload_version"] = 99
        with pytest.raises(CheckpointError, match="payload version"):
            ShardResult.from_dict(payload)


class TestServiceRun:
    def test_report_shape(self, serial_report):
        report = serial_report
        assert isinstance(report, ServiceReport)
        assert report.groups == SPEC.groups
        assert report.shards == 4
        assert report.members > 0 and report.events > 0
        assert report.affected >= 1
        assert report.restored >= 1
        # canonical row order: shards ascending, sorted gids within each
        gids = [(row.source, row.group) for row in report.rows]
        by_shard: dict[int, list] = {}
        for source, group in gids:
            by_shard.setdefault(group // SPEC.shard_size, []).append(
                (source, group)
            )
        expected = [
            gid for shard in sorted(by_shard)
            for gid in sorted(by_shard[shard])
        ]
        assert gids == expected
        assert len(set(gids)) == len(gids)

    def test_render_table_mentions_the_run(self, serial_report):
        text = serial_report.render_table()
        assert f"service {SPEC.content_key()}" in text
        assert "24 spf groups" in text
        assert "worst restoration latency" in text

    def test_sharded_run_is_byte_identical(self, serial_report):
        with open_session(jobs=2) as session:
            sharded = session.run_service(SPEC)
        assert sharded.render_table() == serial_report.render_table()

    def test_resilient_run_is_byte_identical(self, serial_report):
        policy = ExecPolicy(backoff_base=0.0)
        with open_session(jobs=2, policy=policy) as session:
            report = session.run_service(SPEC)
        assert report.render_table() == serial_report.render_table()

    def test_checkpoint_resume_is_byte_identical(self, serial_report, tmp_path):
        store = str(tmp_path / "ckpt")
        cold_obs, warm_obs = Observability(), Observability()
        with open_session(
            jobs=2,
            policy=ExecPolicy(backoff_base=0.0, checkpoint_dir=store),
            obs=cold_obs,
        ) as session:
            cold = session.run_service(SPEC)
        with open_session(
            jobs=2,
            policy=ExecPolicy(
                backoff_base=0.0, checkpoint_dir=store, resume=True
            ),
            obs=warm_obs,
        ) as session:
            warm = session.run_service(SPEC)
        assert cold.render_table() == serial_report.render_table()
        assert warm.render_table() == serial_report.render_table()
        counters = warm_obs.metrics.snapshot()["counters"]
        assert counters.get("exec.checkpoint.hits", 0) == 4

    def test_smrp_service_restores_with_local_detours(self):
        report = run_service(SMRP_SPEC)
        assert report.affected >= 1
        assert any(row.strategy == "local" for row in report.rows)
        assert all(row.protocol == "smrp" for row in report.rows)

    def test_no_failure_mode_yields_empty_rows(self):
        spec = ServiceSpec(n=40, groups=4, sources=2, shard_size=2,
                           failure="none")
        report = run_service(spec)
        assert report.rows == ()
        assert "no groups affected" in report.render_table()

    def test_telemetry_stream_matches_rows(self, serial_report):
        sink = ListSink()
        hub = TelemetryHub(sinks=[sink])
        with open_session(telemetry=hub) as session:
            report = session.run_service(SPEC)
        restores = [
            r for r in sink.records if r.get("kind") == "group.restore"
        ]
        assert [r["group"] for r in restores] == [
            f"{row.source}:{row.group}" for row in report.rows
        ]
        assert report.render_table() == serial_report.render_table()
        counters = hub.metrics.snapshot()["counters"]
        assert counters["telemetry.groups.restored"] == report.affected
        assert counters["telemetry.groups.members_restored"] == report.restored


class TestAcceptanceScale:
    """The PR's headline criterion: a single link failure hitting ≥50
    of 1000 hosted groups is restored in one controller pass."""

    def test_thousand_groups_one_pass(self):
        spec = ServiceSpec(
            n=100, groups=1000, sources=8, shard_size=250,
            protocol="spf", failure="auto",
        )
        sink = ListSink()
        hub = TelemetryHub(sinks=[sink])
        with open_session(telemetry=hub) as session:
            report = session.run_service(spec)
        assert report.groups == 1000
        assert report.affected >= 50
        assert report.restored > 0
        assert report.unrecoverable == 0
        restores = [
            r for r in sink.records if r.get("kind") == "group.restore"
        ]
        assert len(restores) == report.affected
