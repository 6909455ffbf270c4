"""Tests for the scenario runner (small N for speed)."""

import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.scenario import ScenarioConfig


@pytest.fixture(scope="module")
def result():
    return run_scenario(
        ScenarioConfig(n=40, group_size=10, topology_seed=2, member_seed=7)
    )


class TestScenarioResult:
    def test_all_members_measured(self, result):
        assert len(result.measurements) == 10
        assert sorted(m.member for m in result.measurements) == sorted(
            result.members
        )

    def test_relative_metrics_well_formed(self, result):
        for value in result.rd_relative:
            assert -5.0 < value <= 1.0  # RD_rel is at most 1 by definition
        assert len(result.delay_relative) == 10

    def test_delay_penalty_non_negative(self, result):
        """SMRP can never beat SPF on a member's delay (SPF is optimal)."""
        for value in result.delay_relative:
            assert value >= -1e-9

    def test_cost_relative_defined(self, result):
        assert result.cost_spf > 0
        assert result.cost_smrp > 0
        assert result.cost_relative == pytest.approx(
            (result.cost_smrp - result.cost_spf) / result.cost_spf
        )

    def test_cross_strategies_recorded(self, result):
        for m in result.measurements:
            if m.rd_spf_local is not None and m.rd_spf_global is not None:
                assert m.rd_spf_local <= m.rd_spf_global + 1e-9

    def test_reproducible(self):
        cfg = ScenarioConfig(n=40, group_size=10, topology_seed=2, member_seed=7)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert a.rd_relative == b.rd_relative
        assert a.cost_relative == b.cost_relative

    def test_different_seeds_differ(self, result):
        other = run_scenario(
            ScenarioConfig(n=40, group_size=10, topology_seed=3, member_seed=8)
        )
        assert other.rd_relative != result.rd_relative


class TestSummaries:
    def test_scenario_summary_one_line(self, result):
        text = result.summary()
        assert "\n" not in text
        assert "10 members" in text
        assert f"cost spf={result.cost_spf:.1f}" in text

    def test_scenario_repr_embeds_config_and_summary(self, result):
        text = repr(result)
        assert text.startswith("<ScenarioResult ")
        assert result.config.describe() in text
        assert result.summary() in text

    def test_member_measurement_repr(self, result):
        m = result.measurements[0]
        text = repr(m)
        assert text.startswith(f"<MemberMeasurement {m.member}:")
        assert f"delay spf={m.delay_spf:.1f}" in text

    def test_member_measurement_repr_handles_unrecoverable(self):
        from repro.experiments.runner import MemberMeasurement

        m = MemberMeasurement(
            member=5,
            rd_spf_global=None,
            rd_smrp_local=None,
            rd_spf_local=None,
            rd_smrp_global=None,
            delay_spf=2.0,
            delay_smrp=2.5,
        )
        assert "RD spf=— smrp=—" in repr(m)


class TestObservedScenario:
    def test_obs_counters_match_result(self):
        from repro.obs import Observability

        obs = Observability()
        cfg = ScenarioConfig(n=40, group_size=10, topology_seed=2, member_seed=7)
        result = run_scenario(cfg, obs=obs)
        counters = obs.metrics.counters()
        assert counters["scenario.runs"] == 1
        assert counters["smrp.joins"] == len(result.members)
        assert counters["smrp.reshapes_performed"] == result.smrp_reshapes
        assert counters["smrp.fallback_joins"] == result.smrp_fallback_joins
        # Each member triggers one local (SMRP) and one global (SPF) attempt.
        assert counters["recovery.local.attempts"] == len(result.members)
        assert counters["recovery.global.attempts"] == len(result.members)
        # Per-message-type counts mirror the signaling-hop accounting.
        assert counters["smrp.msg.Join_Req"] == counters[
            "smrp.join_signaling_hops"
        ]
        spans = obs.spans.totals()
        for name in (
            "scenario.topology",
            "scenario.build.spf",
            "scenario.build.smrp",
            "scenario.measure",
        ):
            assert spans[name][0] == 1
        # Every local detour observed its hop count, exactly.
        hops = obs.metrics.snapshot()["hdr_histograms"]["recovery.local.hops"]
        assert hops["integral"]
        assert hops["count"] == (
            counters["recovery.local.attempts"]
            - counters.get("recovery.local.already_connected", 0)
            - counters.get("recovery.local.unrecoverable", 0)
        )
