"""The committed golden tables, end to end through the CLI.

Every table in ``benchmarks/golden/`` must be reproduced byte for byte:

- all seven golden commands on the serial executor;
- the four commands that shard over an executor (``figures``, ``serve``
  flash crowd, ``protection``, ``distribution``) also on the process
  pool (``--jobs 2``), on the pool under a checkpointing execution
  policy with every telemetry sink attached, surviving an injected
  worker crash at unit 0 and a transient error at unit 5 (which only
  ``figures`` and ``distribution`` batches reach: ``serve`` and
  ``protection`` run 4 units), and resumed from that checkpoint;
- the observe-only runs: the flash-crowd service recorded to a flight
  record, a ``--profile`` run, and ``--trace-out`` runs whose NDJSON
  traces must match between the serial executor and the pool;
- the protocol counters of a Poisson-churn service
  (``serve_poisson60_counters.json``): every counter of its
  ``--obs-out`` report except the route cache's, whose traffic depends
  on what the cache is asked to keep, not on what the protocol does.

Each run is a real ``python -m repro`` process, as a user would start
it.  Run from the repository root (outside tier-1; a few minutes)::

    python -m pytest benchmarks/test_goldens.py --basetemp=golden-out

Artifacts land in one directory per case under ``--basetemp`` (stdout,
flight records, OpenMetrics textfiles, checkpoints, traces), where CI
replays and uploads them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.exec.checkpoint import RESULT_TYPES, RESULTS_FILENAME

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "benchmarks" / "golden"

#: golden file stem -> the CLI runs whose concatenated stdout it holds.
GOLDENS = {
    "figures_quick": [["figures", "--quick"]],
    "serve_flash200": [["serve", "--groups", "200", "--workload", "flash"]],
    "serve_poisson200": [["serve", "--groups", "200", "--workload", "poisson"]],
    "distribution_quick": [["distribution", "--quick"]],
    "protection_quick": [["protection", "--quick"]],
    "distribution_protection_quick": [
        ["distribution", "--quick", "--engines", "protection", "hybrid",
         "alternate"],
    ],
    "simulate_quick": [
        ["simulate", "--n", "40", "--members", "6", "--seed", "4",
         "--fail-worst"],
        ["simulate", "--n", "40", "--members", "6", "--seed", "3",
         "--fail-worst", "--d-thresh", "0.1"],
    ],
}

#: The goldens whose command shards over an executor.
POOLED = (
    "figures_quick", "serve_flash200", "protection_quick",
    "distribution_quick",
)

CASES = [(name, "serial") for name in GOLDENS] + [
    (name, mode) for name in POOLED for mode in ("jobs2", "faulted", "resumed")
]


def repro(*argv: str) -> subprocess.CompletedProcess:
    """Run ``python -m repro ARGV`` from the repository root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        cwd=REPO, env=env, capture_output=True, text=True, check=True,
    )


def golden(name: str) -> str:
    return (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """``case -> directory`` under the session's base temp directory."""
    root = tmp_path_factory.getbasetemp()

    def case_dir(case: str) -> Path:
        path = root / case
        path.mkdir(exist_ok=True)
        return path

    return case_dir


@pytest.fixture(scope="module")
def faulted(workdir):
    """``name -> stdout`` of that golden's faulted, checkpointed pool run.

    Each runs once; the checkpoint it leaves behind is what the
    ``resumed`` case and :func:`test_every_result_type_is_checkpointed`
    read.
    """
    stdout: dict[str, str] = {}

    def run(name: str) -> str:
        if name not in stdout:
            out = workdir(f"{name}-faulted")
            (argv,) = GOLDENS[name]
            stdout[name] = repro(
                *argv, "--jobs", "2", "--timeout", "300", "--retries", "3",
                "--checkpoint-dir", str(out / "ckpt"),
                "--inject-fault", "crash:0", "--inject-fault", "error:5",
                "--progress", "--telemetry-out", str(out / "flight.ndjson"),
                "--openmetrics-out", str(out / "metrics.prom"),
            ).stdout
        return stdout[name]

    return run


@pytest.mark.parametrize("name, mode", CASES, ids=[f"{n}-{m}" for n, m in CASES])
def test_golden(name, mode, workdir, faulted):
    if mode == "serial":
        stdout = "".join(repro(*argv).stdout for argv in GOLDENS[name])
    elif mode == "jobs2":
        (argv,) = GOLDENS[name]
        stdout = repro(*argv, "--jobs", "2").stdout
    elif mode == "faulted":
        stdout = faulted(name)
    else:
        faulted(name)
        (argv,) = GOLDENS[name]
        ckpt = workdir(f"{name}-faulted") / "ckpt"
        stdout = repro(
            *argv, "--jobs", "2", "--checkpoint-dir", str(ckpt), "--resume"
        ).stdout
    (workdir(f"{name}-{mode}") / "stdout.txt").write_text(stdout)
    assert stdout == golden(name)


def test_every_result_type_is_checkpointed(workdir, faulted):
    stored = set()
    for name in POOLED:
        faulted(name)
        path = workdir(f"{name}-faulted") / "ckpt" / RESULTS_FILENAME
        with path.open(encoding="utf-8") as fh:
            stored.update(json.loads(line)["type"] for line in fh)
    assert stored == set(RESULT_TYPES)


def test_flight_recorder_is_observe_only(workdir):
    flight = workdir("serve_flash200-telemetry") / "flight.ndjson"
    (argv,) = GOLDENS["serve_flash200"]
    result = repro(*argv, "--telemetry-out", str(flight))
    assert result.stdout == golden("serve_flash200")
    kinds = [json.loads(line)["kind"] for line in flight.read_text().splitlines()]
    assert "group.restore" in kinds


def test_profile_is_observe_only(workdir):
    result = repro("distribution", "--quick", "--profile")
    (workdir("profile") / "stderr.txt").write_text(result.stderr)
    assert result.stdout == golden("distribution_quick")
    assert "self-time profile" in result.stderr


def test_trace_is_observe_only_and_executor_independent(workdir):
    out = workdir("trace")
    serial = repro("figures", "--quick",
                   "--trace-out", str(out / "serial.ndjson"))
    pooled = repro("figures", "--quick", "--jobs", "2", "--timeout", "300",
                   "--retries", "3", "--trace-out", str(out / "pool.ndjson"))
    assert serial.stdout == golden("figures_quick")
    assert pooled.stdout == golden("figures_quick")
    assert (out / "serial.ndjson").read_bytes() == (
        out / "pool.ndjson"
    ).read_bytes()


def test_poisson_service_counters(workdir):
    report = workdir("serve_poisson60-counters") / "obs.json"
    repro("serve", "--groups", "60", "--workload", "poisson",
          "--obs-out", str(report))
    counters = json.loads(report.read_text())["metrics"]["counters"]
    got = {
        name: value
        for name, value in counters.items()
        if not name.startswith("cache.routes.")
    }
    want = json.loads(
        (GOLDEN / "serve_poisson60_counters.json").read_text(encoding="utf-8")
    )
    assert got == want
