"""Tests for result export (CSV/JSON/Markdown)."""

import csv
import io
import json

import pytest

from repro.experiments.fig7 import run_figure7
from repro.experiments.report import (
    scatter_to_csv,
    sweep_to_csv,
    sweep_to_json,
    sweep_to_markdown,
)
from repro.experiments.exec.spec import ExperimentSpec
from repro.experiments.sweeps import run_spec_sweep


@pytest.fixture(scope="module")
def points():
    return run_spec_sweep(ExperimentSpec(
        n=30, group_size=6, alpha=0.6, sweep_parameter="d_thresh",
        sweep_values=(0.1, 0.4), topologies=2, member_sets=1,
    ))


@pytest.fixture(scope="module")
def fig7():
    return run_figure7(topologies=2, n=30, group_size=6, alpha=0.6)


class TestCsv:
    def test_sweep_csv_parses(self, points):
        text = sweep_to_csv("d_thresh", points)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 2
        assert rows[0]["d_thresh"] == "0.1"
        assert float(rows[0]["rd_relative_mean"]) == pytest.approx(
            points[0].rd_relative.mean, abs=1e-6
        )
        assert float(rows[1]["avg_degree"]) > 1.0

    def test_ci_bounds_ordered(self, points):
        rows = list(csv.DictReader(io.StringIO(sweep_to_csv("p", points))))
        for row in rows:
            assert float(row["rd_relative_ci_low"]) <= float(
                row["rd_relative_ci_high"]
            )

    def test_scatter_csv(self, fig7):
        rows = list(csv.DictReader(io.StringIO(scatter_to_csv(fig7))))
        assert len(rows) == len(fig7.points)
        for row in rows:
            assert float(row["rd_global"]) > 0


class TestJson:
    def test_round_trip(self, points):
        payload = json.loads(sweep_to_json("d_thresh", points))
        assert payload["parameter"] == "d_thresh"
        assert len(payload["points"]) == 2
        first = payload["points"][0]
        assert first["scenarios"] == 2
        assert first["rd_relative"]["n"] > 0
        assert first["rd_relative"]["ci_low"] <= first["rd_relative"]["mean"]


class TestMarkdown:
    def test_table_structure(self, points):
        text = sweep_to_markdown("Effect of D_thresh", "D_thresh", points)
        lines = text.splitlines()
        assert lines[0] == "## Effect of D_thresh"
        assert lines[2].startswith("| D_thresh |")
        assert len([l for l in lines if l.startswith("| 0")]) == 2
        assert "±" in text
