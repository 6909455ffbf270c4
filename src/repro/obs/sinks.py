"""Telemetry sinks: where live sweep telemetry goes.

Three sinks ship with the hub (:class:`~repro.obs.live.TelemetryHub`);
all implement the same three-method protocol and all are observe-only —
they write to stderr or side files, never stdout, so rendered figure
tables stay byte-identical with every sink enabled:

- :class:`ProgressSink` — a TTY progress line on stderr (``--progress``):
  completed/total, rolling throughput, ETA, fault counts, in-flight;
- :class:`FlightRecorder` — an append-only NDJSON record of every
  telemetry event (``--telemetry-out``), flushed per record so a killed
  run leaves a usable post-mortem; it and :func:`load_flight_record`
  write and read through :mod:`repro.obs.jsonl`, as restoration traces
  and ``CheckpointStore`` do;
- :class:`OpenMetricsSink` — an OpenMetrics textfile (atomically
  replaced) so external scrapers (node-exporter textfile collector,
  a Prometheus file probe) can watch a run (``--openmetrics-out``).

``repro obs tail <flight-record>`` renders a recorded file via
:func:`render_flight_record`.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from repro.obs import jsonl


class TelemetrySink:
    """Base sink: every method is an optional no-op hook.

    ``handle(record)`` receives every published telemetry record;
    ``tick(snapshot)`` receives the hub's rolling snapshot (including a
    ``metrics`` registry snapshot) at most once per tick interval;
    ``close()`` releases resources.
    """

    def handle(self, record: dict) -> None:
        pass

    def tick(self, snapshot: dict) -> None:
        pass

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class FlightRecorder(TelemetrySink):
    """Append-only NDJSON log of every telemetry record.

    Durability mirrors ``CheckpointStore``: one flushed line per record,
    so a killed run loses at most the line being written.  Opening an
    existing file seals its tail first (:func:`~repro.obs.jsonl.seal_tail`:
    an intact last record gets its missing newline, a torn one is cut),
    so appends from a new run never glue onto it and readers still only
    ever see whole records.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            jsonl.seal_tail(self.path)
        self._fh = self.path.open("a", encoding="utf-8")

    def handle(self, record: dict) -> None:
        jsonl.append(self._fh, record)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __repr__(self) -> str:
        return f"FlightRecorder({str(self.path)!r})"


def load_flight_record(path: str | os.PathLike) -> list[dict]:
    """Read a flight record back into dicts.

    A torn trailing record (the run was killed mid-append) is skipped;
    any other malformed record indicates real damage and raises
    :class:`~repro.errors.ConfigurationError` — the rules of
    :func:`repro.obs.jsonl.read_records`.  The file is not modified.
    """
    return [
        record
        for _, record in jsonl.read_records(path, what="flight record")
    ]


def _describe_record(record: dict) -> str:
    kind = record.get("kind", "?")
    index = record.get("index")
    attempt = record.get("attempt")
    where = f"scenario {index}" if index is not None else "sweep"
    if attempt:
        where += f" (attempt {attempt + 1})"
    if kind == "sweep.start":
        return f"sweep started: {record.get('total', '?')} work units"
    if kind == "sweep.finish":
        return (
            f"sweep finished: {record.get('completed', '?')}/"
            f"{record.get('total', '?')} in {record.get('wall_s', 0):.2f}s"
            f" (retries {record.get('retries', 0)},"
            f" timeouts {record.get('timeouts', 0)},"
            f" crashes {record.get('crashes', 0)},"
            f" errors {record.get('errors', 0)})"
        )
    if kind == "scenario.start":
        pid = record.get("pid")
        return f"{where} started" + (f" [pid {pid}]" if pid else "")
    if kind == "scenario.finish":
        duration = record.get("duration_s")
        took = f" in {duration:.3f}s" if duration is not None else ""
        cached = " (from checkpoint)" if record.get("cached") else ""
        return f"{where} finished{took}{cached}"
    if kind == "heartbeat":
        spans = record.get("spans") or []
        inside = " > ".join(spans) if spans else "(no open span)"
        return f"{where} heartbeat: {inside}"
    if kind == "scenario.timeout":
        spans = record.get("spans") or []
        inside = " > ".join(spans) if spans else "no heartbeat seen"
        return (
            f"{where} TIMED OUT after {record.get('timeout_s', '?')}s; "
            f"last heartbeat inside: {inside}"
        )
    if kind == "scenario.crash":
        return f"{where} CRASHED: {record.get('reason', '?')}"
    if kind == "scenario.error":
        return f"{where} errored: {record.get('reason', '?')}"
    if kind == "scenario.retry":
        return (
            f"{where} retrying after {record.get('reason', '?')} "
            f"(backoff {record.get('backoff_s', 0):g}s)"
        )
    fields = {
        k: v for k, v in record.items() if k not in ("v", "t", "kind")
    }
    return f"{kind}: {fields}" if fields else kind


def render_flight_record(records: list[dict], last: int | None = None) -> str:
    """Human-readable timeline of a flight record (the ``obs tail`` view)."""
    if not records:
        return "flight record: empty"
    lines = [f"flight record: {len(records)} records"]
    t0 = next((r["t"] for r in records if "t" in r), None)
    shown = records[-last:] if last is not None and last >= 0 else records
    if len(shown) < len(records):
        lines.append(f"  ... {len(records) - len(shown)} earlier records elided")
    for record in shown:
        t = record.get("t")
        stamp = f"+{t - t0:9.3f}s" if t is not None and t0 is not None else " " * 10
        lines.append(f"  {stamp}  {_describe_record(record)}")
    by_kind: dict[str, int] = {}
    for record in records:
        kind = record.get("kind", "?")
        by_kind[kind] = by_kind.get(kind, 0) + 1
    summary = ", ".join(f"{k}={by_kind[k]}" for k in sorted(by_kind))
    lines.append(f"record kinds: {summary}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# TTY progress
# ----------------------------------------------------------------------
def _format_eta(seconds: float | None) -> str:
    if seconds is None:
        return "--:--"
    seconds = int(round(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}:{seconds % 3600 // 60:02}:{seconds % 60:02}"
    return f"{seconds // 60}:{seconds % 60:02}"


class ProgressSink(TelemetrySink):
    """Rolling progress line on stderr.

    On a TTY the line is rewritten in place (``\\r``); elsewhere (CI
    logs, redirects) one full line is printed at a throttled interval so
    logs stay readable.  Nothing is ever written to stdout, keeping
    figure tables byte-identical under ``--progress``.
    """

    def __init__(
        self,
        stream=None,
        min_interval: float | None = None,
        monotonic=time.monotonic,
    ) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._tty = bool(getattr(self._stream, "isatty", lambda: False)())
        if min_interval is None:
            min_interval = 0.2 if self._tty else 5.0
        self._min_interval = min_interval
        self._monotonic = monotonic
        self._last_render = float("-inf")
        self._width = 0
        self._line_open = False

    def handle(self, record: dict) -> None:
        kind = record.get("kind")
        if kind == "sweep.start":
            self._write_line(
                f"sweep started: {record.get('total', '?')} work units",
                force=True,
            )
        elif kind == "sweep.finish":
            self._write_line(_describe_record(record), force=True)

    def tick(self, snapshot: dict) -> None:
        self._write_line(self._format(snapshot))

    @staticmethod
    def _format(snap: dict) -> str:
        total = snap.get("total", 0)
        completed = snap.get("completed", 0)
        pct = 100.0 * completed / total if total else 0.0
        parts = [
            f"{completed}/{total} ({pct:.0f}%)",
            f"{snap.get('rate_per_s', 0.0):.2f}/s",
            f"eta {_format_eta(snap.get('eta_s'))}",
        ]
        in_flight = snap.get("in_flight", 0)
        if in_flight:
            parts.append(f"in-flight {in_flight}")
        if snap.get("cached"):
            parts.append(f"cached {snap['cached']}")
        faults = [
            f"{name} {snap[name]}"
            for name in ("retries", "timeouts", "crashes", "errors")
            if snap.get(name)
        ]
        if faults:
            parts.append(" ".join(faults))
        return " | ".join(parts)

    def _write_line(self, line: str, force: bool = False) -> None:
        now = self._monotonic()
        if not force and now - self._last_render < self._min_interval:
            return
        self._last_render = now
        if self._tty:
            self._width = max(self._width, len(line))
            self._stream.write("\r" + line.ljust(self._width))
            if force:
                self._stream.write("\n")
                self._width = 0
                self._line_open = False
            else:
                self._line_open = True
        else:
            self._stream.write(line + "\n")
        self._stream.flush()

    def close(self) -> None:
        if self._tty and self._line_open:
            self._stream.write("\n")
            self._stream.flush()
            self._line_open = False


# ----------------------------------------------------------------------
# OpenMetrics textfile exporter
# ----------------------------------------------------------------------
class OpenMetricsSink(TelemetrySink):
    """Atomically rewritten OpenMetrics textfile of the hub's metrics.

    The file is written whole (temp file + ``os.replace``) so a scraper
    never reads a half-written exposition; rewrites are throttled to
    ``min_interval`` except at sweep boundaries and on close, which
    always flush the final state.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        min_interval: float = 1.0,
        monotonic=time.monotonic,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._min_interval = min_interval
        self._monotonic = monotonic
        self._last_write = float("-inf")
        self._last_metrics: dict | None = None
        self._force = False

    def handle(self, record: dict) -> None:
        if record.get("kind") in ("sweep.start", "sweep.finish"):
            self._force = True

    def tick(self, snapshot: dict) -> None:
        metrics = snapshot.get("metrics")
        if metrics is not None:
            self._last_metrics = metrics
        now = self._monotonic()
        if self._force or now - self._last_write >= self._min_interval:
            self._write()
            self._last_write = now
            self._force = False

    def _write(self) -> None:
        if self._last_metrics is None:
            return
        from repro.obs.export import openmetrics_from_snapshot

        text = openmetrics_from_snapshot(self._last_metrics)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, self.path)

    def close(self) -> None:
        self._write()

    def __repr__(self) -> str:
        return f"OpenMetricsSink({str(self.path)!r})"
