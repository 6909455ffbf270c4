"""Run reports: build, write, load and render, and version-1 reports."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    Observability,
    build_run_report,
    diff_run_reports,
    load_run_report,
    render_report_diff,
    render_run_report,
    write_run_report,
)


class TestRunReport:
    def _populated_obs(self):
        obs = Observability()
        obs.counter("smrp.joins").inc(4)
        obs.gauge("sim.engine.queue_depth").set(7)
        obs.hdr_histogram("recovery.local.hops").observe(3)
        with obs.span("smrp.build"):
            with obs.span("smrp.join"):
                pass
        return obs

    def test_build_contains_all_sections(self):
        report = build_run_report(self._populated_obs(), meta={"title": "t"})
        assert report["version"] == 2
        assert report["meta"] == {"title": "t"}
        assert report["metrics"]["counters"]["smrp.joins"] == 4
        assert report["metrics"]["hdr_histograms"]["recovery.local.hops"][
            "integral"
        ]
        assert report["spans"]["children"][0]["name"] == "smrp.build"
        assert set(report) == {"version", "meta", "metrics", "spans"}

    def test_write_load_round_trip(self, tmp_path):
        obs = self._populated_obs()
        report = obs.run_report(meta={"title": "round-trip", "seed": 3})
        path = str(tmp_path / "run.json")
        write_run_report(report, path)
        assert load_run_report(path) == report

    def test_load_rejects_non_report_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ConfigurationError):
            load_run_report(str(path))

    def test_render_mentions_every_section(self):
        obs = self._populated_obs()
        text = render_run_report(obs.run_report(meta={"title": "demo run"}))
        assert "== demo run ==" in text
        assert "smrp.joins" in text and "4" in text
        assert "high-water 7" in text
        assert (
            "recovery.local.hops: n=1 mean=3.000 min=3 max=3 "
            "p50=3 p95=3 p99=3"
        ) in text
        assert "smrp.build: 1 calls" in text
        assert "smrp.join" in text

    def test_disabled_obs_produces_empty_report(self):
        obs = Observability(enabled=False)
        obs.counter("x").inc()
        with obs.span("y"):
            obs.hdr_histogram("z").observe(1)
        report = obs.run_report()
        assert report["metrics"]["counters"] == {}
        assert report["metrics"]["hdr_histograms"] == {}
        assert report["spans"]["children"] == []


class TestVersionOneReport:
    """A report written before version 2 (with its fixed-bucket
    ``histograms`` and ``events`` sections) still renders and diffs by
    its counters, gauges, hdr histograms and spans."""

    REPORT = {
        "version": 1,
        "meta": {"title": "old run"},
        "metrics": {
            "counters": {"smrp.joins": 4},
            "gauges": {"q": {"value": 2.0, "high_water": 7.0}},
            "histograms": {
                "recovery.local.hops": {
                    "bounds": [1.0, 2.0], "counts": [1, 0, 0], "count": 1,
                    "sum": 1.0, "min": 1, "max": 1,
                },
            },
            "hdr_histograms": {
                "dist.latency.smrp": {
                    "growth": 1.02, "counts": [[0, 2]], "zero_count": 0,
                    "count": 2, "min": 1.0, "max": 1.01,
                },
            },
        },
        "spans": {
            "name": "<root>", "calls": 0, "total_s": 0.0, "self_s": 0.0,
            "children": [{"name": "smrp.build", "calls": 1, "total_s": 0.5,
                          "self_s": 0.5, "children": []}],
        },
        "events": {"recorded": 9, "dropped": 0},
    }

    def test_renders_what_version_two_keeps(self):
        text = render_run_report(self.REPORT)
        assert "smrp.joins" in text
        assert "high-water 7" in text
        assert "dist.latency.smrp: n=2" in text
        assert "smrp.build: 1 calls" in text
        assert "recovery.local.hops" not in text
        assert "events" not in text

    def test_diffs_against_a_version_two_report(self):
        obs = Observability()
        obs.counter("smrp.joins").inc(5)
        diff = diff_run_reports(self.REPORT, obs.run_report())
        assert diff["counters"]["smrp.joins"] == {"a": 4, "b": 5, "delta": 1}
        assert set(diff) == {"counters", "spans", "quantiles"}
        assert "dist.latency.smrp.p50" in diff["quantiles"]
        assert "events" not in render_report_diff(diff)
