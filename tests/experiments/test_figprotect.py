"""Protection-family figure: determinism and checkpoint round-trips.

The figure's table must be byte-identical whether the grid ran serially,
over a process pool, checkpointed under an execution policy, or resumed
from a half-finished checkpoint store — the same merge contract every
other figure family honours (and ``benchmarks/test_goldens.py`` diffs
for real).
"""

import pytest

from repro.errors import CheckpointError, ConfigurationError
from repro.experiments.exec import (
    ExecPolicy,
    ParallelExecutor,
    SerialExecutor,
)
from repro.experiments.exec.checkpoint import CheckpointStore
from repro.experiments.figprotect import (
    ProtectionPoint,
    ProtectionPointResult,
    run_protection_figure,
)

#: Small but non-trivial: 2 rates x 2 topologies x 1 member set.
QUICK = dict(
    rates=(0.02, 0.1),
    n=40,
    group_size=8,
    topologies=2,
    member_sets=1,
    trials=2,
)


@pytest.fixture(scope="module")
def serial_render():
    with SerialExecutor() as ex:
        return run_protection_figure(executor=ex, **QUICK).render()


class TestProtectionPoint:
    def test_content_key_is_stable_and_parameter_sensitive(self):
        a = ProtectionPoint(failure_rate=0.05)
        b = ProtectionPoint(failure_rate=0.05)
        c = ProtectionPoint(failure_rate=0.1)
        assert a.content_key() == b.content_key()
        assert a.content_key() != c.content_key()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            ProtectionPoint(failure_rate=0.0)
        with pytest.raises(ConfigurationError):
            ProtectionPoint(failure_rate=1.5)
        with pytest.raises(ConfigurationError):
            ProtectionPoint(failure_rate=0.05, budget=-1)
        with pytest.raises(ConfigurationError):
            ProtectionPoint(failure_rate=0.05, trials=0)

    def test_result_round_trips_through_dict(self):
        point = ProtectionPoint(failure_rate=0.1, n=30, group_size=6, trials=1)
        result = point.run()
        clone = ProtectionPointResult.from_dict(result.to_dict())
        assert clone.to_dict() == result.to_dict()

    def test_foreign_payload_version_rejected(self):
        point = ProtectionPoint(failure_rate=0.1, n=30, group_size=6, trials=1)
        payload = point.run().to_dict()
        payload["payload_version"] = 99
        with pytest.raises(CheckpointError):
            ProtectionPointResult.from_dict(payload)

    def test_result_is_checkpointable(self, tmp_path):
        point = ProtectionPoint(failure_rate=0.1, n=30, group_size=6, trials=1)
        result = point.run()
        with CheckpointStore(tmp_path) as store:
            assert store.put(point.content_key(), result, point.describe())
        reloaded = CheckpointStore(tmp_path)
        stored = reloaded.get(point.content_key())
        assert stored.to_dict() == result.to_dict()


class TestExecutorByteIdentity:
    def test_process_pool_identical_to_serial(self, serial_render):
        with ParallelExecutor(jobs=2) as ex:
            pooled = run_protection_figure(executor=ex, **QUICK).render()
        assert pooled == serial_render

    def test_resilient_identical_to_serial(self, serial_render, tmp_path):
        policy = ExecPolicy(
            checkpoint_dir=str(tmp_path), resume=True, backoff_base=0.0
        )
        with ParallelExecutor(jobs=2, policy=policy) as ex:
            resilient = run_protection_figure(executor=ex, **QUICK).render()
        assert resilient == serial_render

    def test_resume_from_checkpoint_identical(self, serial_render, tmp_path):
        policy = ExecPolicy(
            checkpoint_dir=str(tmp_path), resume=True, backoff_base=0.0
        )
        with ParallelExecutor(jobs=2, policy=policy) as ex:
            first = run_protection_figure(executor=ex, **QUICK).render()
        # Every point is now checkpointed; the rerun must be served from
        # the store and still render identically.
        with ParallelExecutor(jobs=2, policy=policy) as ex:
            resumed = run_protection_figure(executor=ex, **QUICK).render()
        assert first == serial_render
        assert resumed == serial_render
