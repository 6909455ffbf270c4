"""Restoration tracing through the executors.

The merge contract: the process pool, clean or faulted, must hand back
exactly the episodes a serial run produces — same ids, same spans, same
analysis — while the sweep results stay byte-identical to a trace-free
run (tracing is observe-only).
"""

import pytest

from repro.experiments.exec import (
    ExecPolicy,
    ExperimentSpec,
    ParallelExecutor,
    SerialExecutor,
)
from repro.obs import Observability, RestorationTracer, TraceAnalyzer

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


def _traced():
    return Observability(enabled=False, tracer=RestorationTracer())


def results_digest(points):
    return [(p.label, [r.to_dict() for r in p.scenarios]) for p in points]


def episode_digest(tracer):
    return [e.to_dict() for e in sorted(tracer.episodes, key=lambda e: e.episode_id)]


@pytest.fixture(scope="module")
def serial_run():
    obs = _traced()
    with SerialExecutor() as ex:
        points = ex.run_sweep(SPEC, obs=obs)
    return points, obs.tracer


class TestSerialTracing:
    def test_episodes_collected_and_results_untouched(self, serial_run):
        points, tracer = serial_run
        assert tracer.episodes
        assert TraceAnalyzer(tracer.episodes).check() == []
        with SerialExecutor() as ex:
            untraced = ex.run_sweep(SPEC)
        assert results_digest(points) == results_digest(untraced)

    def test_episode_ids_carry_scenario_content_keys(self, serial_run):
        _, tracer = serial_run
        keys = {e.scenario_key for e in tracer.episodes}
        assert len(keys) == 4  # one content key per scenario work unit
        assert all(
            e.episode_id.startswith(f"ep-{e.scenario_key}-")
            for e in tracer.episodes
        )


class TestParallelTracing:
    def test_identical_to_serial(self, serial_run):
        points, serial_tracer = serial_run
        obs = _traced()
        with ParallelExecutor(jobs=2) as ex:
            parallel_points = ex.run_sweep(SPEC, obs=obs)
        assert results_digest(parallel_points) == results_digest(points)
        assert episode_digest(obs.tracer) == episode_digest(serial_tracer)
        assert TraceAnalyzer(obs.tracer.episodes).render() == TraceAnalyzer(
            serial_tracer.episodes
        ).render()


class TestResilientTracing:
    def test_identical_to_serial(self, serial_run):
        points, serial_tracer = serial_run
        obs = _traced()
        with ParallelExecutor(jobs=2, policy=ExecPolicy(**FAST)) as ex:
            res_points = ex.run_sweep(SPEC, obs=obs)
        assert results_digest(res_points) == results_digest(points)
        assert episode_digest(obs.tracer) == episode_digest(serial_tracer)

    def test_crash_retry_does_not_duplicate_episodes(self, serial_run):
        points, serial_tracer = serial_run
        obs = _traced()
        with ParallelExecutor(
            jobs=2, policy=ExecPolicy(retries=2, **FAST)
        ) as ex:
            ex.inject_fault(0, "crash")
            res_points = ex.run_sweep(SPEC, obs=obs)
        assert results_digest(res_points) == results_digest(points)
        # The crashed attempt shipped no report; only the successful
        # retry's episodes arrive, so the trace matches serial exactly.
        assert episode_digest(obs.tracer) == episode_digest(serial_tracer)
        assert TraceAnalyzer(obs.tracer.episodes).check() == []
