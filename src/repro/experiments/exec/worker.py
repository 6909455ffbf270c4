"""Worker-process side of the parallel executor.

Everything here runs inside a pool worker started by
:class:`~repro.experiments.exec.executor.ParallelExecutor`.  A worker
boots once, sends a ``("ready",)`` handshake on its own pipe, then runs
work units one at a time until the parent sends ``None`` (or closes the
pipe).  Units run against the per-process substrate cache
(:func:`~repro.experiments.exec.cache.process_cache`), so every unit a
worker executes reuses the topologies and SPF state its predecessors
built.

A unit is either a :class:`~repro.experiments.scenario.ScenarioConfig`
(executed via :func:`~repro.experiments.runner.run_scenario`) or any
object with a ``run(obs=..., cache=...)`` method — the seam that lets
the controller's service shards ride the same executors as scenario
sweeps (:func:`execute_unit` dispatches).

The pipe protocol, per unit:

- parent → worker: ``(unit, capture_obs, trace, heartbeat_interval,
  fault)``;
- worker → parent: zero or more ``("telemetry", heartbeat)`` messages
  from a sampler thread (each carrying the unit's currently open span
  names — what makes hang attribution possible), then exactly one final
  message: ``("ok", result, run-report | None)`` or ``("error",
  summary, traceback)`` when the unit raised.

When observability capture is on, each unit records into a fresh
:class:`~repro.obs.Observability` and ships its run report back; the
parent merges reports by batch index (:mod:`repro.obs.merge`), keeping
the combined report deterministic regardless of completion order.  When
restoration tracing is on (``trace``), the worker also attaches a fresh
:class:`~repro.obs.tracing.RestorationTracer`; its episodes ride back
inside the run report's ``tracing`` section — episode ids are seeded
from each unit's content key, so the merged episode set equals a serial
run's regardless of worker placement.
"""

from __future__ import annotations

import os
import threading
import time
import traceback

from repro.errors import ExecutionError
from repro.experiments.runner import run_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.exec.cache import process_cache

#: Fault kinds the executor may inject for testing: die without a word,
#: never answer, or raise a transient in-unit error.
FAULT_KINDS = ("crash", "hang", "error")

#: How long a "hang" fault sleeps — effectively forever next to any
#: realistic per-unit timeout; the parent kills the process long before
#: this elapses.
_HANG_SECONDS = 3600.0

#: Span the injected "hang" fault sleeps under, so heartbeat snapshots
#: (and therefore the timeout record's hang attribution) have a concrete
#: location to report — exactly what a real wedged code path would show.
HANG_SPAN = "fault.injected_hang"


def execute_unit(unit, obs=None, cache=None):
    """Run one work unit and return its result.

    The dispatch seam of the execution layer: a
    :class:`~repro.experiments.scenario.ScenarioConfig` runs through
    :func:`~repro.experiments.runner.run_scenario`; anything else must
    provide ``run(obs=..., cache=...)`` (plus ``content_key()`` and
    ``describe()`` for scheduling and checkpointing) — the protocol the
    controller's service shards implement.
    """
    if isinstance(unit, ScenarioConfig):
        return run_scenario(unit, obs=obs, cache=cache)
    run = getattr(unit, "run", None)
    if run is None:
        raise ExecutionError(
            f"work unit {unit!r} is neither a ScenarioConfig nor provides "
            f"a run(obs=..., cache=...) method"
        )
    return run(obs=obs, cache=cache)


class _HeartbeatSampler(threading.Thread):
    """Worker-side heartbeat thread: periodically ships the running
    unit's span-stack snapshot up the worker's pipe.

    Runs as a daemon so a wedged unit cannot be kept alive by its own
    monitor; sends go through the worker's pipe lock so heartbeats
    never interleave with a final result message.
    """

    def __init__(self, send, profiler, interval: float) -> None:
        super().__init__(name="repro-heartbeat", daemon=True)
        self._send = send
        self._profiler = profiler
        self._interval = interval
        self.stop = threading.Event()

    def run(self) -> None:
        started = time.monotonic()
        while not self.stop.wait(self._interval):
            record = {
                "kind": "heartbeat",
                "t": round(time.time(), 6),
                "pid": os.getpid(),
                "spans": self._profiler.stack_snapshot(),
                "elapsed_s": round(time.monotonic() - started, 3),
            }
            try:
                self._send(("telemetry", record))
            except (OSError, ValueError):
                return  # parent gone; nothing left to report to


def _run_unit(send, unit, capture_obs, trace, heartbeat_interval, fault):
    """Run one unit and return its final message.

    An exception from the unit becomes an ``("error", ...)`` message — a
    *transient* failure the parent may retry.  An interrupt (e.g. Ctrl-C
    hitting the whole process group) is the parent unwinding, not a unit
    failure, so it propagates: the parent then sees a plain dead worker
    instead of burning retries on attempts that would be interrupted
    again.  ``fault`` is the executor's test-injection hook and does
    nothing in production runs.
    """
    sampler = None
    try:
        from repro.obs import Observability, build_run_report

        # Spans must be live whenever heartbeats are on — the snapshot
        # is the heartbeat's payload — even if no run report ships back.
        obs = Observability(
            enabled=capture_obs or heartbeat_interval is not None
        )
        if trace:
            from repro.obs.tracing import RestorationTracer

            obs.tracer = RestorationTracer()
        if heartbeat_interval is not None:
            sampler = _HeartbeatSampler(send, obs.spans, heartbeat_interval)
            sampler.start()
        if fault == "crash":
            os._exit(86)  # die wordlessly, as a segfaulted worker would
        if fault == "hang":
            with obs.span(HANG_SPAN):
                time.sleep(_HANG_SECONDS)
        if fault == "error":
            raise RuntimeError("injected transient error")
        result = execute_unit(unit, obs=obs, cache=process_cache())
        report = build_run_report(obs) if (capture_obs or trace) else None
        return ("ok", result, report)
    except Exception as exc:  # noqa: BLE001 - the pipe is the error channel
        return ("error", f"{type(exc).__name__}: {exc}", traceback.format_exc())
    finally:
        # Stopped before the final message goes out, so no heartbeat of
        # this unit can arrive after the parent has moved on.
        if sampler is not None:
            sampler.stop.set()
            sampler.join(timeout=2.0)


def worker_main(conn) -> None:
    """Process main of one pool worker.

    Sends ``("ready",)`` once — the parent restarts the first unit's
    deadline on it, so interpreter startup never counts against a unit's
    timeout — then answers every unit message with exactly one final
    message (see the module docstring) until the parent sends ``None``
    or closes its end.  A worker that dies mid-unit (a real crash, an
    OOM kill, or the injected ``"crash"`` fault) is detected by the
    parent through the process sentinel; one that never answers
    (``"hang"``) is killed at the policy's wall-clock timeout.
    """
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            conn.send(message)

    try:
        send(("ready",))
        while True:
            try:
                task = conn.recv()
            except EOFError:
                return  # parent gone
            if task is None:
                return
            send(_run_unit(send, *task))
    finally:
        conn.close()
