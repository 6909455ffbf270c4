"""Fan-in of observability state from parallel workers.

The process-parallel execution engine
(:mod:`repro.experiments.exec.executor`) runs each scenario in a worker
process with its own :class:`~repro.obs.Observability`; the worker ships
back a run report (plain JSON-serializable dicts — no live objects cross
the process boundary) and the parent folds it into its own instance so
``--obs-out`` still produces **one** run report for the whole run:

- metric counters sum, gauges keep the max high-water mark, histograms
  combine bucket-wise (:meth:`MetricsRegistry.merge_snapshot`);
- span trees accumulate calls/seconds by name
  (:meth:`SpanProfiler.merge_report`);
- restoration-trace episodes append and their drop/trim counts **sum**
  (:meth:`~repro.obs.tracing.RestorationTracer.absorb`) — the parent ends
  up with exactly the episode set a serial run would have produced.

Merging is deterministic when reports are folded in a deterministic
order; the executors merge in seed order regardless of completion order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability


def merge_report_into(obs: "Observability", report: dict) -> None:
    """Fold one worker run report into ``obs`` in place.

    Accepts any dict shaped like :func:`repro.obs.export.build_run_report`
    output; missing sections are skipped so partial worker payloads
    (e.g. metrics-only) merge cleanly.
    """
    if not isinstance(report, dict):
        raise ConfigurationError(
            f"worker report must be a dict, got {type(report).__name__}"
        )
    metrics = report.get("metrics")
    if metrics is not None:
        obs.metrics.merge_snapshot(metrics)
    spans = report.get("spans")
    if spans is not None:
        obs.spans.merge_report(spans)
    tracing = report.get("tracing")
    if tracing is not None:
        tracer = getattr(obs, "tracer", None)
        if tracer is not None:
            # Episodes append in merge (= seed) order; drop counts sum.
            tracer.absorb(tracing)


def merge_reports_into(obs: "Observability", reports: Iterable[dict]) -> int:
    """Fold many worker reports into ``obs``; returns how many merged."""
    merged = 0
    for report in reports:
        merge_report_into(obs, report)
        merged += 1
    return merged


def merge_run_reports(reports: Sequence[dict], meta: dict | None = None) -> dict:
    """Combine standalone run reports into one fresh report document.

    The report-level counterpart of :func:`merge_report_into`, for
    aggregating already-written ``--obs-out`` artifacts after the fact.
    """
    from repro.obs import Observability
    from repro.obs.export import build_run_report

    combined = Observability()
    merge_reports_into(combined, reports)
    merged_meta = {"merged_reports": len(reports)}
    merged_meta.update(meta or {})
    return build_run_report(combined, meta=merged_meta)
