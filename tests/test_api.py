"""The ``repro.api`` facade and the harness import paths."""

import warnings
from pathlib import Path

import pytest

import repro.api as api
from repro.api import (
    ExperimentSpec,
    ScenarioConfig,
    SerialExecutor,
    ServiceSpec,
    Session,
    open_session,
)
from repro.errors import ConfigurationError


def run_scenario(*args, **kwargs):
    with open_session() as session:
        return session.run_scenario(*args, **kwargs)


def run_sweep(spec, **options):
    with open_session(**options) as session:
        return session.run_sweep(spec)


def build_figure(figure, **kwargs):
    with open_session() as session:
        return session.build_figure(figure, **kwargs)


class TestRunScenario:
    def test_accepts_keyword_fields(self):
        result = run_scenario(n=24, group_size=5, alpha=0.5)
        assert len(result.members) == 5

    def test_accepts_config_object(self):
        config = ScenarioConfig(n=24, group_size=5, alpha=0.5)
        assert run_scenario(config).config is config

    def test_rejects_mixing_config_and_kwargs(self):
        with pytest.raises(ConfigurationError, match="not both"):
            run_scenario(ScenarioConfig(n=24, group_size=5), n=30)


class TestRunSweep:
    SPEC = ExperimentSpec(
        n=24, group_size=5, alpha=0.5, sweep_values=(0.1, 0.3),
        topologies=1, member_sets=2,
    )

    def test_spec_object(self):
        points = run_sweep(self.SPEC)
        assert [p.label for p in points] == ["0.1", "0.3"]

    def test_spec_as_dict(self):
        assert len(run_sweep(self.SPEC.to_dict())) == 2

    def test_jobs_spawns_transient_pool_with_identical_results(self):
        serial = run_sweep(self.SPEC)
        parallel = run_sweep(self.SPEC, jobs=2)
        assert [
            [r.summary() for r in p.scenarios] for p in serial
        ] == [[r.summary() for r in p.scenarios] for p in parallel]

    def test_explicit_executor_stays_open(self):
        with SerialExecutor() as ex:
            run_sweep(self.SPEC, executor=ex)
            # Second use proves the session did not close it.
            run_sweep(self.SPEC, executor=ex)

    def test_rejects_executor_and_jobs_together(self):
        with SerialExecutor() as ex:
            with pytest.raises(ConfigurationError, match="not both"):
                run_sweep(self.SPEC, executor=ex, jobs=2)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError, match="jobs must be >= 1"):
            run_sweep(self.SPEC, jobs=0)


#: Keyword overrides that shrink each registered figure to a few seconds.
SMALL_FIGURES = {
    "fig7": dict(topologies=1, n=24, group_size=5, alpha=0.5),
    "fig8": dict(values=[0.3], n=24, group_size=5, alpha=0.5,
                 topologies=1, member_sets=1),
    "fig9": dict(values=[0.5], n=24, group_size=5, topologies=1,
                 member_sets=1),
    "fig10": dict(values=[5], n=24, alpha=0.5, topologies=1, member_sets=1),
    "protection": dict(rates=(0.1,), n=24, group_size=5, topologies=1,
                       member_sets=1, trials=1),
    "distribution": dict(groups=4, n=24, sources=2, shard_size=2),
    "phases": dict(n=24, group_size=5, alpha=0.5, topologies=1,
                   member_sets=1),
}


class TestBuildFigure:
    def test_numeric_and_string_names(self):
        kwargs = dict(values=[0.1], n=30, group_size=8, topologies=2,
                      member_sets=2)
        by_number = build_figure(8, **kwargs)
        by_name = build_figure("fig8", **kwargs)
        assert by_number.render() == by_name.render()

    def test_quick_shrinks_grid(self):
        result = build_figure(10, quick=True, values=[5], n=24)
        assert len(result.point(5).scenarios) == 4 * 2

    def test_figure7_runs(self):
        result = build_figure(7, topologies=2, n=24, group_size=5, alpha=0.5)
        assert "below y=x" in result.render() or "no comparable" in result.render()

    def test_unknown_figure_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown figure"):
            build_figure(11)

    def test_small_overrides_cover_every_figure(self):
        assert set(SMALL_FIGURES) == set(api._FIGURES)

    @pytest.mark.parametrize("name", sorted(SMALL_FIGURES))
    def test_every_figure_builds_quick(self, name):
        """Each quick preset only names keywords its driver takes."""
        assert build_figure(name, quick=True, **SMALL_FIGURES[name]).render()

    def test_quick_protection_is_the_cli_preset(self):
        """``repro protection --quick`` prints this table (golden file)."""
        golden = Path(__file__).resolve().parents[1] / (
            "benchmarks/golden/protection_quick.txt"
        )
        table = build_figure("protection", quick=True).render()
        assert table in golden.read_text()


class TestSession:
    SERVICE = ServiceSpec(n=50, groups=6, sources=3, shard_size=3)

    def test_context_manager_owns_its_executor(self):
        with open_session() as session:
            assert session.executor.kind == "serial"
        assert "closed" in repr(session)

    def test_supplied_executor_stays_open(self):
        with SerialExecutor() as ex:
            session = open_session(executor=ex)
            session.close()
            ex.map_units([])  # still usable: the caller owns it

    def test_executor_conflicts_use_shared_rules(self):
        with SerialExecutor() as ex:
            with pytest.raises(ConfigurationError, match="not both"):
                open_session(executor=ex, jobs=2)

    def test_service_verbs_host_live_groups(self, waxman50):
        with open_session(waxman50) as session:
            gid = session.open_group(0, members=[5, 9])
            session.join(gid, 14)
            session.leave(gid, 9)
            assert session.metrics()["groups"] == 1
            from repro.routing.failure_view import FailureSet

            link = min(session.controller.tree(gid).tree_links())
            dispatch = session.restore(FailureSet.links(link))
            assert dispatch.affected == 1

    def test_topology_requires_spec_or_argument(self):
        with open_session() as session:
            with pytest.raises(ConfigurationError, match="no topology"):
                session.topology

    def test_spec_provides_topology_and_protocol(self):
        with open_session(spec=self.SERVICE.to_dict()) as session:
            assert session.spec == self.SERVICE
            assert session.topology.has_node(0)
            assert session.controller.protocol == "smrp"

    def test_run_service_needs_a_spec(self):
        with open_session() as session:
            with pytest.raises(ConfigurationError, match="no service spec"):
                session.run_service()

    def test_run_service_matches_one_shot_verb(self):
        with open_session() as session:
            one_shot = session.run_service(self.SERVICE)
        with open_session(spec=self.SERVICE) as session:
            via_session = session.run_service()
        assert via_session.render_table() == one_shot.render_table()

    def test_scenario_verbs_share_the_session_cache(self):
        with open_session() as session:
            first = session.run_scenario(n=24, group_size=5, alpha=0.5)
            second = session.run_scenario(n=24, group_size=5, alpha=0.5)
            assert first.summary() == second.summary()
            assert session.cache.stats["topologies"]["hits"] >= 1

    def test_public_surface_is_all(self):
        exported = {
            name for name in dir(api)
            if not name.startswith("_") and name in api.__all__
        }
        assert exported == set(api.__all__)
        for name in api.__all__:
            assert getattr(api, name) is not None


class TestDeprecationShims:
    """The legacy ``repro.experiments`` re-exports are gone; the
    submodule paths and the ``repro.api`` facade are the import homes."""

    def test_unknown_attribute_still_raises(self):
        import repro.experiments as experiments

        with pytest.raises(AttributeError):
            experiments.does_not_exist

    def test_submodule_imports_unaffected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.experiments.scenario import ScenarioConfig  # noqa: F401
            from repro.experiments.sweeps import run_sweep  # noqa: F401

    def test_repro_api_lazy_attribute(self):
        import repro

        assert repro.api.ExperimentSpec is ExperimentSpec
