"""The execution engine: specs, executors, caching, and determinism.

The load-bearing guarantees under test:

- serial and process-parallel execution produce **identical** sweep
  summaries and rendered figure tables for the same spec;
- substrate caching (topologies + SPF routes) never changes results and
  reports its hit/miss/eviction activity through ``repro.obs``;
- :class:`ExperimentSpec` validates eagerly, hashes, and survives a JSON
  round-trip with a stable content key.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.exec import (
    ExperimentSpec,
    ParallelExecutor,
    SerialExecutor,
    SubstrateCache,
    make_executor,
)
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.sweeps import SweepPoint
from repro.obs import Observability

#: Small but non-trivial spec shared by the determinism tests.
SPEC = ExperimentSpec(
    n=30,
    group_size=8,
    alpha=0.4,
    sweep_parameter="d_thresh",
    sweep_values=(0.1, 0.3),
    topologies=2,
    member_sets=2,
)


def point_digest(point):
    """Everything observable about a sweep point, exactly."""
    return (
        point.label,
        point.parameter,
        point.average_degree,
        point.cost_relative,
        point.delay_relative,
        point.unrecoverable_members,
        [r.summary() for r in point.scenarios],
        [(r.source, tuple(r.members)) for r in point.scenarios],
    )


class TestExperimentSpec:
    def test_defaults_match_paper_setup(self):
        spec = ExperimentSpec()
        assert spec.n == 100 and spec.group_size == 30
        assert spec.topologies == 10 and spec.member_sets == 10

    def test_hashable_and_equal(self):
        assert hash(SPEC) == hash(ExperimentSpec(**SPEC.to_dict()))
        assert SPEC == ExperimentSpec(**SPEC.to_dict())

    def test_sweep_values_list_normalised_to_tuple(self):
        spec = ExperimentSpec(sweep_values=[0.1, 0.2])
        assert spec.sweep_values == (0.1, 0.2)
        hash(spec)

    def test_json_round_trip_preserves_identity(self):
        again = ExperimentSpec.from_json(SPEC.to_json())
        assert again == SPEC
        assert again.content_key() == SPEC.content_key()

    def test_key_is_content_addressed(self):
        assert SPEC.content_key() != ExperimentSpec(
            **{**SPEC.to_dict(), "seed_offset": 1}
        ).content_key()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError, match="unknown ExperimentSpec"):
            ExperimentSpec.from_dict({"n": 30, "frobnicate": 1})

    def test_from_json_rejects_malformed_text(self):
        with pytest.raises(ConfigurationError, match="invalid ExperimentSpec"):
            ExperimentSpec.from_json("{not json")
        with pytest.raises(ConfigurationError, match="must be an object"):
            ExperimentSpec.from_json("[1, 2]")

    @pytest.mark.parametrize(
        "bad",
        [
            {"sweep_parameter": "beta"},
            {"sweep_values": ()},
            {"sweep_values": (0.1, 0.1)},
            {"topologies": 0},
            {"member_sets": 0},
            {"seed_offset": -1},
        ],
    )
    def test_eager_structural_validation(self, bad):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(**bad)

    def test_swept_values_validated_eagerly(self):
        # d_thresh must stay in [0, ...): a negative swept value is
        # rejected at spec construction, not inside a worker later.
        with pytest.raises(ConfigurationError):
            ExperimentSpec(sweep_values=(0.1, -0.2))

    def test_base_params_may_be_invalid_for_swept_parameter(self):
        # Sweeping group_size over small values with the default base
        # group_size (30) >= n is fine: the swept value replaces it.
        spec = ExperimentSpec(
            n=30, sweep_parameter="group_size", sweep_values=(5.0, 10.0),
            topologies=1, member_sets=1,
        )
        assert [c.group_size for c in spec.scenario_configs()] == [5, 10]

    def test_points_share_the_seed_grid_across_values(self):
        seeds = [
            [(c.topology_seed, c.member_seed) for c in configs]
            for _, configs in SPEC.points()
        ]
        assert seeds[0] == seeds[1]

    def test_swept_values_coerced_to_field_type(self):
        spec = ExperimentSpec(
            n=30, sweep_parameter="group_size", sweep_values=(5.0,),
            topologies=1, member_sets=1,
        )
        (config,) = spec.scenario_configs()
        assert isinstance(config.group_size, int)


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"n": 1},
            {"group_size": 0},
            {"n": 10, "group_size": 10},
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"beta": 0.0},
            {"d_thresh": -0.1},
            {"knowledge": "psychic"},
        ],
    )
    def test_config_rejects_bad_params_at_construction(self, bad):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(**bad)

    def test_sweep_point_requires_scenarios(self):
        with pytest.raises(ConfigurationError, match="no scenarios"):
            SweepPoint(label="0.3", parameter=0.3, scenarios=[])


class TestSubstrateCache:
    def test_cached_run_matches_uncached(self):
        config = ScenarioConfig(n=30, group_size=8, alpha=0.4)
        plain = run_scenario(config)
        cached = run_scenario(config, cache=SubstrateCache())
        assert plain.summary() == cached.summary()
        assert plain.source == cached.source and plain.members == cached.members

    def test_topology_hits_and_misses_counted(self):
        obs = Observability()
        cache = SubstrateCache()
        config = ScenarioConfig(n=30, group_size=8, alpha=0.4)
        run_scenario(config, obs=obs, cache=cache)
        # Same topology seed, different member set: topology is a hit.
        run_scenario(
            config.with_seeds(topology_seed=0, member_seed=7),
            obs=obs,
            cache=cache,
        )
        counters = obs.metrics.snapshot()["counters"]
        assert counters["cache.topology.misses"] == 1
        assert counters["cache.topology.hits"] == 1
        assert counters["cache.routes.misses"] > 0
        assert counters["cache.routes.hits"] > 0

    def test_route_cache_eviction_bound_holds(self):
        obs = Observability()
        cache = SubstrateCache(max_routes=4)
        config = ScenarioConfig(n=30, group_size=8, alpha=0.4)
        run_scenario(config, obs=obs, cache=cache)
        stats = cache.stats["routes"]
        assert stats["size"] <= 4
        assert stats["evictions"] > 0
        counters = obs.metrics.snapshot()["counters"]
        assert counters["cache.routes.evictions"] == stats["evictions"]

    def test_cache_stats_and_clear(self):
        cache = SubstrateCache()
        cache.topology_for(ScenarioConfig(n=20, group_size=4))
        assert cache.stats["topologies"]["size"] == 1
        cache.clear()
        assert cache.stats["topologies"]["size"] == 0


class TestMakeExecutor:
    def test_kinds(self):
        serial = make_executor(jobs=1)
        assert isinstance(serial, SerialExecutor) and serial.kind == "serial"
        parallel = make_executor(jobs=2)
        assert isinstance(parallel, ParallelExecutor) and parallel.jobs == 2
        assert parallel.kind == "process"
        parallel.close()

    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            make_executor(jobs=0)

    def test_parallel_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            ParallelExecutor(jobs=0)


class TestDeterminism:
    """Serial and parallel execution are observably identical."""

    def test_serial_vs_parallel_sweep_points_identical(self):
        with SerialExecutor() as ex:
            serial = ex.run_sweep(SPEC)
        with ParallelExecutor(jobs=2) as ex:
            parallel = ex.run_sweep(SPEC)
        assert [point_digest(p) for p in serial] == [
            point_digest(p) for p in parallel
        ]

    def test_serial_vs_parallel_rendered_figure_identical(self):
        from repro.experiments.figsweep import FIGURE_8

        kwargs = dict(
            values=[0.1, 0.3], n=30, group_size=8, topologies=2, member_sets=2
        )
        with SerialExecutor() as ex:
            serial = FIGURE_8.run(executor=ex, **kwargs).render()
        with ParallelExecutor(jobs=2) as ex:
            parallel = FIGURE_8.run(executor=ex, **kwargs).render()
        assert serial == parallel

    def test_parallel_merges_worker_obs_counters(self):
        obs_serial, obs_parallel = Observability(), Observability()
        with SerialExecutor() as ex:
            ex.run_sweep(SPEC, obs=obs_serial)
        with ParallelExecutor(jobs=2) as ex:
            ex.run_sweep(SPEC, obs=obs_parallel)
        serial = obs_serial.metrics.snapshot()["counters"]
        parallel = obs_parallel.metrics.snapshot()["counters"]
        # Algorithm counters merge to identical totals...
        for name in ("scenario.runs", "smrp.joins", "exec.scenarios"):
            assert parallel[name] == serial[name], name
        # ...and cache *totals* agree even though the hit/miss split
        # differs (per-worker caches see fewer cross-scenario hits).
        for family in ("cache.topology", "cache.routes"):
            assert (
                parallel[f"{family}.hits"] + parallel[f"{family}.misses"]
                == serial[f"{family}.hits"] + serial[f"{family}.misses"]
            ), family
        assert parallel["exec.worker_reports_merged"] == 8

    def test_parallel_jobs_one_works(self):
        with ParallelExecutor(jobs=1) as ex:
            (result,) = ex.map_units(
                [ScenarioConfig(n=24, group_size=5, alpha=0.5)]
            )
        assert len(result.members) == 5

    def test_disabled_obs_ships_no_worker_reports(self):
        with ParallelExecutor(jobs=2) as ex:
            results = ex.map_units(
                [
                    ScenarioConfig(n=24, group_size=5, alpha=0.5),
                    ScenarioConfig(n=24, group_size=5, alpha=0.5, member_seed=1),
                ]
            )
        assert len(results) == 2


class TestExecutorLifecycle:
    def test_run_sweep_groups_points_in_spec_order(self):
        with SerialExecutor() as ex:
            points = ex.run_sweep(SPEC)
        assert [p.label for p in points] == ["0.1", "0.3"]
        assert all(len(p.scenarios) == 4 for p in points)

    def test_close_is_idempotent(self):
        ex = ParallelExecutor(jobs=1)
        ex.map_units([ScenarioConfig(n=20, group_size=4, alpha=0.5)])
        ex.close()
        ex.close()

    def test_serial_executor_reuses_cache_across_calls(self):
        obs = Observability()
        config = ScenarioConfig(n=24, group_size=5, alpha=0.5)
        with SerialExecutor() as ex:
            ex.map_units([config], obs=obs)
            ex.map_units([config], obs=obs)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["cache.topology.hits"] >= 1
