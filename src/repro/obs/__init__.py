"""Observability: metrics, span profiling, and structured run artifacts.

The paper's evaluation is entirely empirical — recovery latency, message
overhead (§4.4), tree cost — so this package makes those quantities
first-class measured outputs of any run instead of ad-hoc return values:

- :class:`MetricsRegistry` — counters, gauges, and log-bucketed
  :class:`HdrHistogram` quantile trackers (exact for integer series such
  as hop counts);
- :class:`SpanProfiler` — hierarchical ``perf_counter`` timing tree;
- run reports — one JSON document per run (``repro obs report`` renders it).

The :class:`Observability` facade bundles the two and is what the
instrumented layers accept (``obs=`` keyword).  Passing nothing means the
module-level :data:`NULL_OBS` is used: every instrument is a shared no-op
object, so disabled instrumentation costs one attribute access and an
empty call per event — nothing measurable on the hot paths
(``benchmarks/test_micro_obs_overhead.py`` guards this).

Examples
--------
>>> obs = Observability()
>>> with obs.span("demo.work"):
...     obs.counter("demo.widgets").inc(3)
>>> obs.metrics.counters("demo.")
{'demo.widgets': 3}
>>> report = obs.run_report(meta={"title": "demo"})
>>> report["metrics"]["counters"]["demo.widgets"]
3
"""

from __future__ import annotations

from repro.obs.diff import (
    diff_run_reports,
    hdr_quantiles,
    max_quantile_ratio,
    max_regression_ratio,
    max_span_ratio,
    render_report_diff,
    span_totals,
)
from repro.obs.export import (
    OPENMETRICS_PREFIX,
    REPORT_VERSION,
    build_run_report,
    load_run_report,
    openmetrics_from_snapshot,
    render_openmetrics,
    render_run_report,
    write_run_report,
)
from repro.obs.live import RECORD_VERSION, TelemetryHub
from repro.obs.sinks import (
    FlightRecorder,
    OpenMetricsSink,
    ProgressSink,
    TelemetrySink,
    load_flight_record,
    render_flight_record,
)
from repro.obs.merge import (
    merge_report_into,
    merge_reports_into,
    merge_run_reports,
)
from repro.obs.prof import (
    collapse_stacks,
    flat_profile,
    render_collapsed,
    render_profile,
    self_time_total,
)
from repro.obs.registry import (
    DEFAULT_HDR_GROWTH,
    Counter,
    Gauge,
    HdrHistogram,
    MetricsRegistry,
)
from repro.obs.spans import SpanNode, SpanProfiler
from repro.obs.tracing import (
    Episode,
    RestorationTracer,
    TraceAnalyzer,
    TraceSpan,
    chrome_trace_document,
    critical_path,
    read_trace_ndjson,
    validate_episode,
    write_chrome_trace,
    write_trace_ndjson,
)


class Observability:
    """Facade bundling a metrics registry and a span profiler.

    ``tracer`` is the optional third instrument: a
    :class:`~repro.obs.tracing.RestorationTracer` collecting causal
    restoration episodes in simulated time.  It defaults to ``None`` —
    unlike the always-present metrics and spans, tracing is attached
    explicitly (``--trace-out``) and instrumented code guards on
    ``obs.tracer is not None``.
    """

    __slots__ = ("enabled", "metrics", "spans", "tracer")

    def __init__(
        self,
        enabled: bool = True,
        tracer: "RestorationTracer | None" = None,
    ) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry(enabled=enabled)
        self.spans = SpanProfiler(enabled=enabled)
        self.tracer = tracer

    # -- delegation shorthands ------------------------------------------
    def counter(self, name: str):
        return self.metrics.counter(name)

    def gauge(self, name: str):
        return self.metrics.gauge(name)

    def hdr_histogram(self, name: str, growth=DEFAULT_HDR_GROWTH):
        return self.metrics.hdr_histogram(name, growth)

    def span(self, name: str):
        return self.spans.span(name)

    def run_report(self, meta: dict | None = None) -> dict:
        return build_run_report(self, meta)


#: Shared disabled instance; ``obs or NULL_OBS`` is the idiom for optional
#: instrumentation parameters.
NULL_OBS = Observability(enabled=False)

__all__ = [
    "Observability",
    "NULL_OBS",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "HdrHistogram",
    "DEFAULT_HDR_GROWTH",
    "SpanProfiler",
    "SpanNode",
    # Self-time profiling (repro.obs.prof)
    "flat_profile",
    "self_time_total",
    "collapse_stacks",
    "render_collapsed",
    "render_profile",
    "REPORT_VERSION",
    "build_run_report",
    "write_run_report",
    "load_run_report",
    "render_run_report",
    "merge_report_into",
    "merge_reports_into",
    "merge_run_reports",
    # Live telemetry (repro.obs.live / repro.obs.sinks)
    "RECORD_VERSION",
    "TelemetryHub",
    "TelemetrySink",
    "ProgressSink",
    "FlightRecorder",
    "OpenMetricsSink",
    "load_flight_record",
    "render_flight_record",
    # OpenMetrics export
    "OPENMETRICS_PREFIX",
    "openmetrics_from_snapshot",
    "render_openmetrics",
    # Run-report diffing
    "diff_run_reports",
    "hdr_quantiles",
    "max_quantile_ratio",
    "max_regression_ratio",
    "max_span_ratio",
    "render_report_diff",
    "span_totals",
    # Causal restoration tracing (repro.obs.tracing)
    "RestorationTracer",
    "Episode",
    "TraceSpan",
    "TraceAnalyzer",
    "critical_path",
    "validate_episode",
    "read_trace_ndjson",
    "write_trace_ndjson",
    "chrome_trace_document",
    "write_chrome_trace",
]
