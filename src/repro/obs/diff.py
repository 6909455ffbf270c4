"""Run-report diffing for regression triage (``repro obs diff``).

Two captured ``--obs-out`` run reports are compared along the axes that
matter for triaging a regression between two builds or configurations:

- **counter deltas** — algorithm/work counters that changed (a different
  ``recovery.repair.spf_runs`` or ``smrp.joins`` total means behaviour
  changed, not just timing);
- **span-time ratios** — per-span wall-clock of report *b* relative to
  report *a*, aggregated by span name across the whole tree (recursion
  depths sum), so a hot path that got slower stands out;
- **latency-quantile ratios** — p50/p99 of every
  :class:`~repro.obs.registry.HdrHistogram` in report *b* relative to
  report *a*: a tail regression (p99 blew up while the mean held) is
  exactly what mean-based counters hide.

``repro obs diff a.json b.json --fail-over R`` exits nonzero when any
span-time *or* latency-quantile ratio exceeds ``R``, making the diff
usable as a CI tripwire.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.obs.registry import HdrHistogram

#: Spans faster than this (seconds) in *both* reports are ignored by the
#: threshold check: ratios of near-zero timings are noise, not signal.
SPAN_NOISE_FLOOR_S = 1e-4

#: Quantiles compared (and gated on) per hdr histogram.
DIFF_QUANTILES: tuple[tuple[str, float], ...] = (("p50", 0.5), ("p99", 0.99))


def span_totals(tree: dict) -> dict[str, tuple[int, float]]:
    """``name -> (calls, total seconds)`` aggregated across a span tree.

    The report-dict counterpart of :meth:`SpanProfiler.totals`: a span
    name appearing at several depths is summed into one row.
    """
    out: dict[str, tuple[int, float]] = {}

    def visit(node: dict) -> None:
        for child in node.get("children", []):
            calls, total = out.get(child["name"], (0, 0.0))
            out[child["name"]] = (
                calls + child.get("calls", 0),
                total + child.get("total_s", 0.0),
            )
            visit(child)

    visit(tree or {})
    return out


def hdr_quantiles(report: dict) -> dict[str, dict[str, float | None]]:
    """``name -> {label: value}`` for every hdr histogram in a report.

    Quantile labels follow :data:`DIFF_QUANTILES`; reports predating the
    hdr section simply yield an empty dict.
    """
    out: dict[str, dict[str, float | None]] = {}
    payloads = report.get("metrics", {}).get("hdr_histograms", {})
    for name in sorted(payloads):
        hist = HdrHistogram.from_dict(name, payloads[name])
        out[name] = {label: hist.quantile(q) for label, q in DIFF_QUANTILES}
    return out


def diff_run_reports(a: dict, b: dict) -> dict:
    """Structured comparison of two run reports.

    Returns::

        {
          "counters":  {name: {"a": .., "b": .., "delta": ..}},   # changed only
          "spans":     {name: {"a_s": .., "b_s": .., "ratio": ..}},
          "quantiles": {"name.p99": {"a": .., "b": .., "ratio": ..}},
        }

    Span ``ratio`` is ``b_s / a_s``; a span absent (or zero) in ``a`` but
    timed in ``b`` gets ``inf``, and one that vanished gets ``0.0``.
    Ratios of spans below :data:`SPAN_NOISE_FLOOR_S` on both sides are
    reported as ``None`` (noise).  Quantile entries compare each hdr
    histogram's :data:`DIFF_QUANTILES` the same way (``None`` when both
    sides are zero or the series is empty on both sides).
    """
    for name, report in (("a", a), ("b", b)):
        if not isinstance(report, dict) or "metrics" not in report:
            raise ConfigurationError(
                f"report {name!r} is not a repro run report"
            )

    counters_a = a["metrics"].get("counters", {})
    counters_b = b["metrics"].get("counters", {})
    counters = {}
    for name in sorted(set(counters_a) | set(counters_b)):
        va, vb = counters_a.get(name, 0), counters_b.get(name, 0)
        if va != vb:
            counters[name] = {"a": va, "b": vb, "delta": vb - va}

    totals_a = span_totals(a.get("spans", {}))
    totals_b = span_totals(b.get("spans", {}))
    spans = {}
    for name in sorted(set(totals_a) | set(totals_b)):
        _, ta = totals_a.get(name, (0, 0.0))
        _, tb = totals_b.get(name, (0, 0.0))
        if ta < SPAN_NOISE_FLOOR_S and tb < SPAN_NOISE_FLOOR_S:
            ratio = None
        elif ta > 0:
            ratio = tb / ta
        else:
            ratio = math.inf if tb > 0 else 0.0
        spans[name] = {"a_s": ta, "b_s": tb, "ratio": ratio}

    quantiles_a = hdr_quantiles(a)
    quantiles_b = hdr_quantiles(b)
    quantiles = {}
    for name in sorted(set(quantiles_a) | set(quantiles_b)):
        for label, _ in DIFF_QUANTILES:
            va = quantiles_a.get(name, {}).get(label)
            vb = quantiles_b.get(name, {}).get(label)
            if va is None and vb is None:
                continue
            va = va or 0.0
            vb = vb or 0.0
            if va > 0:
                ratio = vb / va
            elif vb > 0:
                ratio = math.inf
            else:
                ratio = None  # both zero: nothing to gate on
            quantiles[f"{name}.{label}"] = {"a": va, "b": vb, "ratio": ratio}

    return {
        "counters": counters,
        "spans": spans,
        "quantiles": quantiles,
    }


def max_span_ratio(diff: dict) -> float:
    """The worst span-time ratio in a diff (0.0 when nothing is timed)."""
    ratios = [
        entry["ratio"]
        for entry in diff.get("spans", {}).values()
        if entry.get("ratio") is not None
    ]
    return max(ratios, default=0.0)


def max_quantile_ratio(diff: dict) -> float:
    """The worst latency-quantile ratio (0.0 when no hdr series)."""
    ratios = [
        entry["ratio"]
        for entry in diff.get("quantiles", {}).values()
        if entry.get("ratio") is not None
    ]
    return max(ratios, default=0.0)


def max_regression_ratio(diff: dict) -> float:
    """Worst of the span-time and latency-quantile ratios.

    This is what ``repro obs diff --fail-over`` gates on: a build that
    kept every span flat but doubled a restoration-latency p99 fails
    the same tripwire as one that slowed a hot path.
    """
    return max(max_span_ratio(diff), max_quantile_ratio(diff))


def render_report_diff(diff: dict, threshold: float | None = None) -> str:
    """Human-readable rendering of :func:`diff_run_reports` output."""
    lines: list[str] = []
    counters = diff.get("counters", {})
    if counters:
        lines.append(f"counters changed ({len(counters)}):")
        width = max(len(n) for n in counters)
        for name in sorted(counters):
            entry = counters[name]
            lines.append(
                f"  {name:<{width}}  {entry['a']} -> {entry['b']} "
                f"({entry['delta']:+d})"
            )
    else:
        lines.append("counters: identical")

    spans = diff.get("spans", {})
    timed = {n: e for n, e in spans.items() if e.get("ratio") is not None}
    if timed:
        lines.append("")
        lines.append("span-time ratios (b/a):")
        width = max(len(n) for n in timed)
        for name in sorted(timed, key=lambda n: -(
            timed[n]["ratio"] if math.isfinite(timed[n]["ratio"]) else 1e18
        )):
            entry = timed[name]
            ratio = entry["ratio"]
            shown = "inf" if math.isinf(ratio) else f"{ratio:.2f}x"
            flag = ""
            if threshold is not None and ratio > threshold:
                flag = f"  <-- over --fail-over {threshold:g}"
            lines.append(
                f"  {name:<{width}}  {entry['a_s']:.6f}s -> "
                f"{entry['b_s']:.6f}s  {shown}{flag}"
            )

    quantiles = diff.get("quantiles", {})
    rated = {n: e for n, e in quantiles.items() if e.get("ratio") is not None}
    if rated:
        lines.append("")
        lines.append("latency-quantile ratios (b/a):")
        width = max(len(n) for n in rated)
        for name in sorted(rated, key=lambda n: -(
            rated[n]["ratio"] if math.isfinite(rated[n]["ratio"]) else 1e18
        )):
            entry = rated[name]
            ratio = entry["ratio"]
            shown = "inf" if math.isinf(ratio) else f"{ratio:.2f}x"
            flag = ""
            if threshold is not None and ratio > threshold:
                flag = f"  <-- over --fail-over {threshold:g}"
            lines.append(
                f"  {name:<{width}}  {entry['a']:g} -> "
                f"{entry['b']:g}  {shown}{flag}"
            )

    return "\n".join(lines)
