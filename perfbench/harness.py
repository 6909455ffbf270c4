"""Run one benchmark workload and compute its metrics.

Untraced runs (``--trace 0``) report the end-to-end metrics: set-up is
built :data:`SETUP_REPEATS` times (fresh sessions each time) and the
last build feeds the timed phase.  Traced runs (``--trace 1``) first
run the timed phase untraced on one fresh set-up, then install the
span wrappers, build a second fresh set-up and run the same ops traced;
the per-layer metrics come from the traced phase, the tracing overhead
from the ratio of the two, and the two phases must produce the same
output digest.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import host
from perfbench.tracing import Tracer, layer_metrics
from perfbench.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
RUNS_DIR = HERE / "runs"
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
DESIGN = json.loads((HERE / "design.json").read_text())
#: Every metric's unit, as ``BENCHMARK.json`` declares it.
UNITS = {
    metric["name"]: metric["unit"]
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
}

#: Set-up builds per untraced run; ``setup_s`` uses their median.
SETUP_REPEATS = 3


@dataclass
class Phase:
    """Outcome of one timed phase."""

    latencies_ns: list[int]
    work: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    @property
    def timed_ns(self) -> int:
        return sum(self.latencies_ns)


def timed_phase(state, tracer: Tracer | None = None) -> Phase:
    """Issue every op in order, one at a time; check each after timing."""
    gc.collect()
    clock = time.perf_counter_ns
    latencies: list[int] = []
    work = 0
    failed = 0
    problems: list[str] = []
    for op_id, op in enumerate(state.ops):
        error = None
        if tracer is not None:
            tracer.begin_op(op_id)
        else:
            start = clock()
        try:
            result = state.run(op)
        except Exception as exc:  # an op that raises counts as failed
            error = f"op {op_id} raised {type(exc).__name__}: {exc}"
        elapsed = tracer.end_op() if tracer is not None else clock() - start
        latencies.append(elapsed)
        if error is None:
            try:
                found = state.check(op, result)
            except Exception as exc:  # a check that raises is a failed check
                found = [f"{type(exc).__name__}: {exc}"]
            if found:
                error = f"op {op_id}: " + "; ".join(found)
        if error is not None:
            failed += 1
            problems.append(error)
            continue
        work += state.work(op, result)
    hasher = hashlib.sha256()
    state.digest(hasher)
    return Phase(latencies, work, failed, hasher.hexdigest(), problems[:20])


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``pct``
    percent of the values at or below it."""
    # Integer ceiling over thousandths of a percent: no float rounding.
    rank = max(1, -(-round(pct * 1000) * len(sorted_values) // 100_000))
    return sorted_values[rank - 1]


def _route_totals(caches) -> dict[str, int]:
    hits = sum(cache.stats["hits"] for cache in caches)
    misses = sum(cache.stats["misses"] for cache in caches)
    return {"hits": hits, "misses": misses}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(phase: Phase, tail: float, setup_s: float) -> dict:
    latencies_ms = sorted(ns / 1e6 for ns in phase.latencies_ns)
    return {
        "throughput_per_s": phase.work / (phase.timed_ns / 1e9),
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_tail_ms": percentile(latencies_ms, tail),
        "setup_s": setup_s,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _untraced(workload, tail: float, import_s: float, record: dict) -> tuple[dict, Phase, bool]:
    setups = []
    for _ in range(SETUP_REPEATS):
        state = None  # release the previous build before timing the next
        gc.collect()
        start = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - start)
    record["ops"] = len(state.ops)
    phase = timed_phase(state)
    setup_s = import_s + statistics.median(setups)
    record.update(setup_builds_s=setups, work=phase.work,
                  digest=phase.digest, problems=phase.problems)
    metrics = end_to_end_metrics(phase, tail, setup_s)
    return metrics, phase, phase.failed == 0


def _traced(workload, record: dict) -> tuple[dict, Phase, bool]:
    state = workload.setup()
    record["ops"] = len(state.ops)
    plain = timed_phase(state)
    state = None
    gc.collect()
    tracer = Tracer()
    tracer.install()
    state = workload.setup()
    caches = state.route_caches()
    before = _route_totals(caches)
    traced = timed_phase(state, tracer)
    after = _route_totals(caches)
    route_stats = {key: after[key] - before[key] for key in after}
    metrics, bases = layer_metrics(tracer, route_stats, plain.timed_ns)
    # The self-time sum holds by construction once every span is closed
    # and nested inside its parent; those two counts are what can fail.
    accounting = bases["self_time_accounting"]
    total = accounting["layer_self_ns"] + accounting["unattributed_ns"]
    accounted = (
        accounting["unclosed_spans"] == 0
        and accounting["escaped_spans"] == 0
        and accounting["unattributed_ns"] >= 0
        and abs(total - accounting["op_spans_ns"]) <= 0.01 * accounting["op_spans_ns"]
    )
    tracer.save(RUNS_DIR / f"{workload.name}-spans.npz")
    record.update(bases=bases, counts=dict(tracer.counts),
                  digest=traced.digest, untraced_digest=plain.digest,
                  self_time_accounted=accounted,
                  problems=plain.problems + traced.problems)
    both = Phase(plain.latencies_ns + traced.latencies_ns,
                 plain.work + traced.work, plain.failed + traced.failed, traced.digest)
    correct = both.failed == 0 and plain.digest == traced.digest and accounted
    return metrics, both, correct


def execute(name: str, seed: int, seconds: int, trace: bool, import_s: float) -> tuple[dict, dict]:
    """Run one workload; returns ``(result line, run record)``.

    ``import_s`` is the time the entry script spent before its imports
    returned.  A traced run counts the ops of both its phases.
    """
    workload = WORKLOADS[name](seed, seconds)
    tail = DESIGN["workloads"][name]["tail_percentile"]
    RUNS_DIR.mkdir(exist_ok=True)
    host_before = host.snapshot()
    record: dict = {"workload": name, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "import_s": import_s,
                    "tail_percentile": tail}
    if trace:
        metrics, phase, correct = _traced(workload, record)
    else:
        metrics, phase, correct = _untraced(workload, tail, import_s, record)
    record["host"] = {"before": host_before, "after": host.snapshot()}
    record["metrics"] = metrics
    result = {
        "correct": correct,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            metric: {"value": value, "unit": UNITS[metric]}
            for metric, value in metrics.items()
        },
    }
    path = RUNS_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({**record, "result": result}, indent=1, sort_keys=True))
    return result, record

