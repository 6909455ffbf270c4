"""Self-test of the benchmark at its smallest size (``--seconds 1``, one
or two sub-populations per workload).

Run from the repository root: ``python3 -m pytest perfbench -q``.
Every workload runs untraced and traced through the real entry script;
the test checks the result line against ``BENCHMARK.json``, zero failed
ops, the traced digest against the untraced one, the span structure
behind the self-time accounting, that no timed phase builds a graph,
and the zeros ``design.json`` predicts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DESIGN = json.loads((ROOT / "perfbench" / "design.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]
SEED = 3


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def runs() -> dict:
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            completed = _run(workload, trace)
            assert completed.returncode == 0, completed.stderr[-3000:]
            lines = completed.stdout.strip().splitlines()
            record_path = ROOT / "perfbench" / "runs" / f"{workload}-seed{SEED}-trace{trace}.json"
            out[workload, trace] = {
                "result": json.loads(lines[-1]),
                "digest": next(line for line in lines if line.startswith("digest ")),
                "record": json.loads(record_path.read_text()),
            }
    return out


def _expected(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line(runs, workload, trace, section):
    result = runs[workload, trace]["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == _expected(section)
    if trace == 0:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_names_and_units_cover_all_metrics():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(BENCHMARK["end_to_end"]) * len(WORKLOADS) + len(BENCHMARK["per_layer"]) == 46
    assert len(names) == len(set(names))
    assert [m["metric"] for m in DESIGN["per_layer"]] == [
        m["name"] for m in BENCHMARK["per_layer"]
    ]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_digest_equals_untraced(runs, workload):
    traced = runs[workload, 1]
    assert traced["record"]["digest"] == traced["record"]["untraced_digest"]
    assert traced["digest"] == runs[workload, 0]["digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_account_for_op_time(runs, workload):
    record = runs[workload, 1]["record"]
    assert record["self_time_accounted"] is True
    accounting = record["bases"]["self_time_accounting"]
    assert accounting["unclosed_spans"] == accounting["escaped_spans"] == 0
    total = accounting["layer_self_ns"] + accounting["unattributed_ns"]
    assert abs(total - accounting["op_spans_ns"]) <= 0.01 * accounting["op_spans_ns"]
    assert runs[workload, 1]["result"]["metrics"]["harness.unattributed_ms"]["value"] >= 0
    lookups = record["bases"]["routing.route_cache.hit_ratio"]["lookups"]
    assert lookups == runs[workload, 1]["result"]["metrics"]["routing.route_cache.lookups"]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_predicted_zeros(runs, workload):
    metrics = runs[workload, 1]["result"]["metrics"]
    for layer in DESIGN["per_layer"]:
        value = metrics[layer["metric"]]["value"]
        if workload in layer["zero_on"]:
            assert value == 0, layer["metric"]
        elif layer["metric"] != "harness.unattributed_ms":
            assert value > 0, layer["metric"]


def test_sweep_never_rebuilds_a_topology():
    """At the shipped run length every sub-population's topologies stay
    cached, so the timed phase builds none."""
    sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import Sweep

    state = Sweep(SEED, BENCHMARK["run_seconds"]).setup()
    for session in state.sessions:
        assert session.cache.topologies.stats["evictions"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_phase_builds_no_graph(runs, workload):
    spans = np.load(ROOT / "perfbench" / "runs" / f"{workload}-spans.npz")
    layers = spans["layers"][spans["name_id"]]
    timed = spans["op"] >= 0
    assert not np.any(timed & (layers == "graph.build"))


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("runs", "__pycache__"),
    )
    completed = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert not completed.stdout.strip()


def test_summary_prints_every_end_to_end_metric():
    completed = subprocess.run(
        [sys.executable, "perfbench/summary.py", "--seed", str(SEED), "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    metric_lines = [line for line in completed.stdout.splitlines() if line.startswith("  ")]
    assert len(metric_lines) == len(BENCHMARK["end_to_end"]) * len(WORKLOADS)
    assert completed.stdout.count("failed=0 digest sha256:") == len(WORKLOADS)
