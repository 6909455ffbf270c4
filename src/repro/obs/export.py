"""Run reports: one JSON document summarizing an observed run.

A run report bundles the metrics snapshot and the span timing tree
under a caller-supplied ``meta`` block.  It is the interchange format
between the experiment runner (``--obs-out run.json``) and the CLI
renderer (``repro obs report run.json``), and what benchmarks assert
against instead of re-deriving counts.

Version 2 dropped version 1's fixed-bucket ``histograms`` section (hop
counts moved onto the exact integer mode of the hdr histograms) and its
``events`` accounting.  Readers ignore both sections, so a version-1
report still renders and diffs by its counters, gauges, hdr histograms
and spans.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.obs.registry import HdrHistogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability

#: Schema marker so future readers can evolve the format compatibly.
REPORT_VERSION = 2

#: Quantiles the report renderer prints for every histogram.
REPORT_QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.5),
    ("p95", 0.95),
    ("p99", 0.99),
)


def build_run_report(obs: "Observability", meta: dict | None = None) -> dict:
    """Assemble the JSON-serializable run report for ``obs``."""
    report = {
        "version": REPORT_VERSION,
        "meta": dict(meta or {}),
        "metrics": obs.metrics.snapshot(),
        "spans": obs.spans.report(),
    }
    tracer = getattr(obs, "tracer", None)
    if tracer is not None:
        # Causal restoration episodes ride the same worker->parent channel
        # as metrics; the parent's tracer absorbs them in seed order.
        report["tracing"] = tracer.report()
    return report


def write_run_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_run_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if not isinstance(report, dict) or "metrics" not in report:
        raise ConfigurationError(f"{path} is not a repro run report")
    return report


def render_run_report(report: dict) -> str:
    """Human-readable rendering of a run report (the CLI's output)."""
    lines: list[str] = []
    meta = report.get("meta", {})
    title = meta.get("title", "run report")
    lines.append(f"== {title} ==")
    for key in sorted(k for k in meta if k != "title"):
        lines.append(f"  {key}: {meta[key]}")

    metrics = report.get("metrics", {})
    counters = metrics.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        width = max(len(n) for n in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]}")

    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append("gauges:")
        width = max(len(n) for n in gauges)
        for name in sorted(gauges):
            g = gauges[name]
            lines.append(
                f"  {name:<{width}}  {g['value']:g} (high-water {g['high_water']:g})"
            )

    hdr = metrics.get("hdr_histograms", {})
    if hdr:
        lines.append("")
        lines.append("hdr histograms (log-bucketed):")
        for name in sorted(hdr):
            hist = HdrHistogram.from_dict(name, hdr[name])
            low = "—" if hist.min is None else format(hist.min, "g")
            high = "—" if hist.max is None else format(hist.max, "g")
            quantiles = " ".join(
                f"{label}={_quantile_text(hist.quantile(q))}"
                for label, q in REPORT_QUANTILES
            )
            lines.append(
                f"  {name}: n={hist.count} mean={hist.mean:.3f} "
                f"min={low} max={high} {quantiles}"
            )

    spans = report.get("spans", {})
    if spans.get("children"):
        lines.append("")
        lines.append("spans (calls, total seconds):")
        lines.extend(_render_span_tree(spans, depth=0))

    tracing = report.get("tracing")
    if tracing is not None:
        lines.append("")
        lines.append(
            f"tracing: {len(tracing.get('episodes', []))} episodes, "
            f"{tracing.get('dropped', 0)} dropped, "
            f"{tracing.get('trimmed', 0)} spans trimmed"
        )
    return "\n".join(lines)


def _quantile_text(value: float | None) -> str:
    """Render a quantile estimate, em-dash when the series is empty."""
    return "—" if value is None else format(float(value), "g")


# ----------------------------------------------------------------------
# OpenMetrics exposition
# ----------------------------------------------------------------------
#: Metric-name prefix for every exported series.
OPENMETRICS_PREFIX = "repro"


def _openmetrics_name(name: str, prefix: str = OPENMETRICS_PREFIX) -> str:
    """Map a dotted repro metric name onto the OpenMetrics charset."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    full = f"{prefix}_{cleaned}" if prefix else cleaned
    if full and full[0].isdigit():
        full = "_" + full
    return full


def _openmetrics_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return format(float(value), "g")


def openmetrics_from_snapshot(
    snapshot: dict, prefix: str = OPENMETRICS_PREFIX
) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as OpenMetrics text.

    Counters become ``<name>_total`` samples, gauges plain samples, and
    hdr histograms the standard ``_bucket{le=...}`` / ``_sum`` /
    ``_count`` series with *cumulative* bucket counts (repro's registry
    keeps per-bucket counts).  The exposition always terminates with ``# EOF``.
    Shared by both ``repro obs export --format openmetrics`` and the
    live :class:`~repro.obs.sinks.OpenMetricsSink` textfile exporter.
    """
    lines: list[str] = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        om = _openmetrics_name(name, prefix)
        lines.append(f"# TYPE {om} counter")
        lines.append(f"{om}_total {_openmetrics_value(value)}")
    for name, payload in sorted(snapshot.get("gauges", {}).items()):
        om = _openmetrics_name(name, prefix)
        lines.append(f"# TYPE {om} gauge")
        lines.append(f"{om} {_openmetrics_value(payload['value'])}")
    for name, payload in sorted(snapshot.get("hdr_histograms", {}).items()):
        om = _openmetrics_name(name, prefix)
        hist = HdrHistogram.from_dict(name, payload)
        lines.append(f"# TYPE {om} histogram")
        cumulative = hist.zero_count
        if cumulative:
            lines.append(f'{om}_bucket{{le="0"}} {cumulative}')
        for index in sorted(hist.counts):
            cumulative += hist.counts[index]
            upper = hist.growth ** (index + 1)
            lines.append(
                f'{om}_bucket{{le="{_openmetrics_value(upper)}"}} {cumulative}'
            )
        lines.append(f'{om}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{om}_sum {_openmetrics_value(hist.total)}")
        lines.append(f"{om}_count {hist.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def render_openmetrics(report: dict, prefix: str = OPENMETRICS_PREFIX) -> str:
    """OpenMetrics exposition of a run report's metrics snapshot."""
    if not isinstance(report, dict) or "metrics" not in report:
        raise ConfigurationError(
            "not a repro run report (missing a 'metrics' section)"
        )
    return openmetrics_from_snapshot(report["metrics"], prefix=prefix)


def _render_span_tree(node: dict, depth: int) -> list[str]:
    lines = []
    for child in node.get("children", []):
        indent = "  " * (depth + 1)
        lines.append(
            f"{indent}{child['name']}: {child['calls']} calls, "
            f"{child['total_s']:.6f}s total, {child['self_s']:.6f}s self"
        )
        lines.extend(_render_span_tree(child, depth + 1))
    return lines
