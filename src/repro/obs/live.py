"""Live telemetry: streaming observability for in-flight sweeps.

PR 1's run reports are *post-hoc* — one JSON document after the sweep
finishes.  A multi-hour Figure 7–10 sweep with retries and timeouts
(the paper's §4 evaluation shape) is a black box while it runs.  This
module adds the streaming layer: workers emit structured lifecycle
events (scenario started / finished / retried / timed-out / crashed,
plus periodic **heartbeats** carrying the worker's current span-stack
snapshot) multiplexed over the executors' existing result pipes, and
the parent-side :class:`TelemetryHub` aggregates them into rolling
throughput, fault rates, and an ETA, fanning out to pluggable sinks
(:mod:`repro.obs.sinks`): a TTY progress renderer, an append-only
NDJSON flight recorder, and an OpenMetrics textfile exporter.

The hard invariant is that telemetry is **observe-only**: the hub never
touches the caller's :class:`~repro.obs.Observability`, sinks write to
stderr or side files (never stdout), and a raising sink is quarantined
rather than allowed to kill the sweep — golden figures stay
byte-identical with every sink enabled (``benchmarks/test_goldens.py``
proves it).

Record format
-------------
Every record is a flat JSON-serializable dict::

    {"v": 1, "t": <unix seconds>, "kind": "<kind>", ...fields}

Kinds and their extra fields:

=================  ====================================================
``sweep.start``    ``total`` (work units in the batch), ``meta``
``scenario.start`` ``index``, ``attempt``, ``pid``, ``key``
``scenario.finish`` ``index``, ``attempt``, ``key``, ``duration_s``,
                   ``cached``?
``scenario.retry`` ``index``, ``attempt`` (next, 0-based), ``key``,
                   ``reason``, ``backoff_s``
``scenario.timeout`` ``index``, ``attempt``, ``key``, ``timeout_s``,
                   ``spans`` (the last heartbeat's span-stack snapshot
                   — hang attribution), ``last_heartbeat_elapsed_s``
``scenario.crash`` ``index``, ``attempt``, ``key``, ``reason``
``scenario.error`` ``index``, ``attempt``, ``key``, ``reason``
``heartbeat``      ``index``, ``attempt``, ``pid``, ``spans``
                   (open span names, outermost first), ``elapsed_s``
``sweep.finish``   ``completed``, ``total``, ``wall_s``, fault counts
``group.restore``  ``group`` (``source:number``), ``protocol``,
                   ``affected``, ``restored``, ``unrecoverable``,
                   ``strategy``, ``latency_s`` — one per multicast
                   group repaired by a controller restoration pass
=================  ====================================================

``key`` is :meth:`~repro.experiments.scenario.ScenarioConfig.content_key`
— the same content hash that names checkpoint entries and seeds trace
episode ids, so a flight-recorder line, a checkpoint row, and a trace
episode for one scenario all join on it.
"""

from __future__ import annotations

import sys
import time

from repro.obs.registry import MetricsRegistry

#: Telemetry record schema marker.
RECORD_VERSION = 1


class TelemetryHub:
    """Parent-side aggregator of live telemetry records.

    Executors call :meth:`begin` / :meth:`publish` / :meth:`forward` /
    :meth:`end` from the parent's scheduling thread (no locking is
    needed — all executors drain telemetry on one thread).  The hub
    keeps two layers of state:

    - **per-batch progress** (total, completed, in-flight, fault counts,
      rolling throughput and ETA) — reset by each :meth:`begin`, read
      back via :meth:`snapshot`;
    - a **cumulative** :class:`~repro.obs.registry.MetricsRegistry`
      (``telemetry.*`` counters / gauges / a per-scenario duration
      histogram) spanning the hub's lifetime — what the OpenMetrics
      sink exports.

    Sinks are fail-safe: a sink that raises is disabled with a stderr
    warning and the sweep continues (telemetry must never take down the
    run it is watching).
    """

    def __init__(
        self,
        sinks=(),
        clock=time.time,
        monotonic=time.monotonic,
        tick_interval: float = 1.0,
    ) -> None:
        self._sinks = list(sinks)
        self._clock = clock
        self._monotonic = monotonic
        self.tick_interval = tick_interval
        self.metrics = MetricsRegistry()
        self._last_tick = 0.0
        self._in_batch = False
        self._closed = False
        self._reset_batch(total=0)

    # ------------------------------------------------------------------
    # Batch lifecycle
    # ------------------------------------------------------------------
    def _reset_batch(self, total: int) -> None:
        self.total = total
        self.completed = 0
        self.cached = 0
        self.retries = 0
        self.timeouts = 0
        self.crashes = 0
        self.errors = 0
        self.heartbeats = 0
        self.started_mono: float | None = None
        #: index -> monotonic start of the live attempt.
        self.in_flight: dict[int, float] = {}
        #: index -> last heartbeat record seen for the live attempt.
        self.last_heartbeat: dict[int, dict] = {}

    def begin(self, total: int, meta: dict | None = None) -> None:
        """Open a batch of ``total`` work units; publishes ``sweep.start``."""
        self._reset_batch(total)
        self.started_mono = self._monotonic()
        self._in_batch = True
        self.publish("sweep.start", total=total, meta=dict(meta or {}))

    def end(self) -> None:
        """Close the batch; publishes ``sweep.finish`` (idempotent)."""
        if not self._in_batch:
            return
        self._in_batch = False
        self.publish(
            "sweep.finish",
            completed=self.completed,
            total=self.total,
            wall_s=round(self._elapsed(), 6),
            retries=self.retries,
            timeouts=self.timeouts,
            crashes=self.crashes,
            errors=self.errors,
        )
        self.tick()

    def close(self) -> None:
        """End any open batch and close every sink (idempotent)."""
        if self._closed:
            return
        self.end()
        self._closed = True
        for sink in list(self._sinks):
            try:
                sink.close()
            except Exception as exc:  # noqa: BLE001 - observe-only
                self._quarantine(sink, exc)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def attach(self, sink) -> None:
        self._sinks.append(sink)

    def publish(self, kind: str, **fields) -> dict:
        """Stamp and ingest a parent-originated record."""
        record = {"v": RECORD_VERSION, "t": round(self._clock(), 6), "kind": kind}
        record.update(fields)
        self._ingest(record)
        return record

    def forward(self, record: dict, **extra) -> dict:
        """Ingest a worker-originated record, preserving its timestamp."""
        merged = {"v": RECORD_VERSION}
        merged.update(record)
        merged.update(extra)
        merged.setdefault("t", round(self._clock(), 6))
        self._ingest(merged)
        return merged

    def _ingest(self, record: dict) -> None:
        self._update_stats(record)
        self._fanout("handle", record)
        self.maybe_tick()

    def _update_stats(self, record: dict) -> None:
        kind = record.get("kind")
        index = record.get("index")
        counters = self.metrics.counter
        if kind == "scenario.start":
            counters("telemetry.scenarios.started").inc()
            if index is not None:
                self.in_flight[index] = self._monotonic()
                self.last_heartbeat.pop(index, None)
        elif kind == "scenario.finish":
            self.completed += 1
            counters("telemetry.scenarios.finished").inc()
            if record.get("cached"):
                self.cached += 1
                counters("telemetry.scenarios.cached").inc()
            duration = record.get("duration_s")
            if duration is not None:
                # Latency-shaped: log-bucketed so both a 50ms cached hit
                # and a 5-minute straggler resolve to ~1% quantiles.
                self.metrics.hdr_histogram(
                    "telemetry.scenario_seconds"
                ).observe(duration)
            if index is not None:
                self.in_flight.pop(index, None)
                self.last_heartbeat.pop(index, None)
        elif kind == "scenario.retry":
            self.retries += 1
            counters("telemetry.scenarios.retries").inc()
        elif kind == "scenario.timeout":
            self.timeouts += 1
            counters("telemetry.scenarios.timeouts").inc()
            if index is not None:
                self.in_flight.pop(index, None)
        elif kind == "scenario.crash":
            self.crashes += 1
            counters("telemetry.scenarios.crashes").inc()
            if index is not None:
                self.in_flight.pop(index, None)
        elif kind == "scenario.error":
            self.errors += 1
            counters("telemetry.scenarios.errors").inc()
            if index is not None:
                self.in_flight.pop(index, None)
        elif kind == "heartbeat":
            self.heartbeats += 1
            counters("telemetry.heartbeats").inc()
            if index is not None:
                self.last_heartbeat[index] = record
        elif kind == "group.restore":
            counters("telemetry.groups.restored").inc()
            counters("telemetry.groups.members_restored").inc(
                record.get("restored", 0)
            )
            unrecoverable = record.get("unrecoverable", 0)
            if unrecoverable:
                counters("telemetry.groups.members_unrecoverable").inc(
                    unrecoverable
                )
            latency = record.get("latency_s")
            if latency is not None:
                self.metrics.hdr_histogram(
                    "telemetry.group_restore_latency_s"
                ).observe(latency)

    # ------------------------------------------------------------------
    # Rolling view
    # ------------------------------------------------------------------
    def _elapsed(self) -> float:
        if self.started_mono is None:
            return 0.0
        return max(0.0, self._monotonic() - self.started_mono)

    def snapshot(self) -> dict:
        """Rolling progress view; every derived rate is division-guarded
        so rendering mid-run partial state (zero completed, zero elapsed)
        never divides by zero."""
        elapsed = self._elapsed()
        rate = self.completed / elapsed if elapsed > 0 and self.completed else 0.0
        remaining = max(0, self.total - self.completed)
        eta = remaining / rate if rate > 0 else None
        gauge = self.metrics.gauge
        gauge("telemetry.in_flight").set(len(self.in_flight))
        gauge("telemetry.batch.total").set(self.total)
        gauge("telemetry.batch.completed").set(self.completed)
        gauge("telemetry.throughput_per_s").set(rate)
        if eta is not None:
            gauge("telemetry.eta_s").set(eta)
        return {
            "total": self.total,
            "completed": self.completed,
            "cached": self.cached,
            "in_flight": len(self.in_flight),
            "elapsed_s": elapsed,
            "rate_per_s": rate,
            "eta_s": eta,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "errors": self.errors,
            "heartbeats": self.heartbeats,
        }

    def maybe_tick(self) -> None:
        """Tick if at least ``tick_interval`` passed since the last one."""
        now = self._monotonic()
        if now - self._last_tick >= self.tick_interval:
            self.tick()

    def tick(self) -> None:
        """Push a rolling snapshot (plus the cumulative metrics) to sinks."""
        self._last_tick = self._monotonic()
        snap = self.snapshot()
        snap["metrics"] = self.metrics.snapshot()
        self._fanout("tick", snap)

    # ------------------------------------------------------------------
    # Sink fan-out (fail-safe)
    # ------------------------------------------------------------------
    def _fanout(self, method: str, payload: dict) -> None:
        for sink in list(self._sinks):
            try:
                getattr(sink, method)(payload)
            except Exception as exc:  # noqa: BLE001 - observe-only
                self._quarantine(sink, exc)

    def _quarantine(self, sink, exc: BaseException) -> None:
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass
        print(
            f"repro telemetry: sink {type(sink).__name__} failed "
            f"({type(exc).__name__}: {exc}); sink disabled",
            file=sys.stderr,
        )

    def __enter__(self) -> "TelemetryHub":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        names = ", ".join(type(s).__name__ for s in self._sinks) or "no sinks"
        return (
            f"TelemetryHub({names}; {self.completed}/{self.total} done, "
            f"{len(self.in_flight)} in flight)"
        )
