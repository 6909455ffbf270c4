"""Executors: how a batch of work units actually runs.

An :class:`Executor` turns a list of work units into their results, in
input order, regardless of *how* they run.  A work unit is either a
:class:`~repro.experiments.scenario.ScenarioConfig` or any object
implementing the work-unit protocol (``run(obs=..., cache=...)``,
``content_key()``, ``describe()`` — see
:func:`~repro.experiments.exec.worker.execute_unit`), which is how the
controller's service shards share this machinery:

- :class:`SerialExecutor` — in-process, one unit at a time, against a
  long-lived :class:`~repro.experiments.exec.cache.SubstrateCache`;
- :class:`ParallelExecutor` — a pool of long-lived worker processes,
  each on its own pipe and each keeping its own substrate cache, run
  under an :class:`~repro.experiments.exec.resilience.ExecPolicy`
  (per-unit timeouts, bounded retry, checkpoint/resume, heartbeats).

Both produce **identical results** for the same inputs (the determinism
suite asserts this): the pool records results and per-unit
observability reports by batch index and merges the reports in that
order after the batch, however many faults, retries or checkpoint hits
happened.  Merged algorithm counters match too; cache hit/miss *splits*
differ (per-worker caches see fewer cross-unit hits, though hits +
misses totals agree) and span *timings* naturally differ.
``Executor.run_sweep`` adds the shared spec-driven sweep loop on top, so
a backend only has to implement :meth:`Executor.map_units`.

:func:`make_executor` picks the backend from ``jobs`` and the policy
alone; the session of :mod:`repro.api` is its one caller, for the
facade and the CLI alike.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from multiprocessing import get_context
from multiprocessing.connection import wait as _connection_wait
from time import monotonic
from typing import Sequence

from repro.errors import ConfigurationError, RetryExhaustedError
from repro.obs import NULL_OBS, Observability, merge_report_into
from repro.experiments.exec.cache import SubstrateCache
from repro.experiments.exec.checkpoint import CheckpointStore
from repro.experiments.exec.resilience import STARTUP_GRACE, ExecPolicy
from repro.experiments.exec.spec import ExperimentSpec
from repro.experiments.exec.worker import FAULT_KINDS, execute_unit, worker_main

#: Seconds :meth:`ParallelExecutor.close` waits for a worker to exit on
#: its own before killing it.
_SHUTDOWN_WAIT = 5.0


class Executor(ABC):
    """Strategy for running work units.

    Executors are context managers; :meth:`close` releases pooled
    resources (a no-op for the serial executor).
    """

    #: Machine-readable kind, mirrored in run-report metadata.
    kind: str = "abstract"

    #: Optional :class:`~repro.obs.live.TelemetryHub` receiving lifecycle
    #: records while a batch is in flight.  Observe-only by contract:
    #: results are identical with or without one attached.
    telemetry = None

    @abstractmethod
    def map_units(
        self,
        units: Sequence,
        obs: Observability | None = None,
    ) -> list:
        """Run every work unit; results come back in input order."""

    def run_sweep(
        self, spec: ExperimentSpec, obs: Observability | None = None
    ) -> "list[SweepPoint]":
        """Execute a declarative sweep spec into :class:`SweepPoint` list.

        All scenario work units across every swept value form one batch,
        so a parallel executor keeps its workers busy across sweep-point
        boundaries; results are regrouped per value afterwards.
        """
        from repro.experiments.sweeps import SweepPoint

        obs = obs if obs is not None else NULL_OBS
        points = spec.points()
        flat = [config for _, configs in points for config in configs]
        with obs.span("sweep.run"):
            results = self.map_units(flat, obs=obs)
        out: list[SweepPoint] = []
        cursor = 0
        for value, configs in points:
            chunk = results[cursor : cursor + len(configs)]
            cursor += len(configs)
            out.append(
                SweepPoint(
                    label=f"{value:g}", parameter=value, scenarios=list(chunk)
                )
            )
        return out

    def close(self) -> None:
        """Release executor resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run scenarios one at a time in the calling process.

    Keeps a :class:`SubstrateCache` for its lifetime, so consecutive
    scenarios (and consecutive sweeps run on the same executor) reuse
    generated topologies and SPF state.
    """

    kind = "serial"

    def __init__(
        self, cache: SubstrateCache | None = None, telemetry=None
    ) -> None:
        self.cache = cache if cache is not None else SubstrateCache()
        self.telemetry = telemetry

    def map_units(
        self,
        units: Sequence,
        obs: Observability | None = None,
    ) -> list:
        obs = obs if obs is not None else NULL_OBS
        hub = self.telemetry
        if hub is not None:
            hub.begin(len(units), meta={"executor": self.kind, "jobs": 1})
        results = []
        try:
            for index, unit in enumerate(units):
                if hub is not None:
                    hub.publish(
                        "scenario.start",
                        index=index,
                        attempt=0,
                        key=unit.content_key(),
                    )
                started = monotonic()
                results.append(execute_unit(unit, obs=obs, cache=self.cache))
                obs.counter("exec.scenarios").inc()
                if hub is not None:
                    hub.publish(
                        "scenario.finish",
                        index=index,
                        attempt=0,
                        key=unit.content_key(),
                        duration_s=round(monotonic() - started, 6),
                    )
        finally:
            if hub is not None:
                hub.end()
        return results

    def __repr__(self) -> str:
        return f"SerialExecutor(cache={self.cache!r})"


class _Task:
    """One work unit's retry state inside a batch."""

    __slots__ = ("index", "unit", "key", "attempt", "not_before")

    def __init__(self, index: int, unit, key: str):
        self.index = index
        self.unit = unit
        self.key = key  # unit.content_key(): checkpoint + telemetry id
        self.attempt = 0  # attempts already failed
        self.not_before = 0.0  # monotonic instant the next attempt may start


class _Worker:
    """One long-lived pool process and the unit it is running, if any."""

    __slots__ = (
        "proc", "conn", "booting", "task", "started", "deadline",
        "last_heartbeat",
    )

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.booting = True  # until the worker's "ready" handshake
        self.task: _Task | None = None
        self.started = 0.0
        self.deadline: float | None = None
        self.last_heartbeat: dict | None = None


def _reap(worker: _Worker, kill: bool) -> None:
    """Wait for (or, with ``kill``, force) a worker's exit; leak nothing."""
    proc = worker.proc
    if not kill:
        proc.join(_SHUTDOWN_WAIT)
    if proc.is_alive():
        proc.terminate()
        proc.join(2.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    worker.conn.close()


class ParallelExecutor(Executor):
    """Run work units on a pool of long-lived worker processes.

    Parameters
    ----------
    jobs:
        Worker process count (>= 1).  Defaults to the machine's CPU
        count.  ``jobs=1`` still exercises the full dispatch path (one
        worker process) — useful for testing the seam cheaply.
    policy:
        The :class:`ExecPolicy` enforced around every unit; ``None``
        means ``ExecPolicy()`` (no timeout, two retries, no checkpoint).
    telemetry:
        Optional :class:`~repro.obs.live.TelemetryHub`; workers then
        send heartbeats, and lifecycle records are published as units
        start, finish, fail and retry.

    Each worker boots once, says ``ready`` on its own pipe, then runs
    units one at a time against its warm
    :func:`~repro.experiments.exec.cache.process_cache`.  The pool is
    created on first use, reused across :meth:`map_units` calls, and shut
    down by :meth:`close`.  The parent multiplexes over worker pipes and
    process sentinels with ``multiprocessing.connection.wait``, so a
    worker dying mid-unit is seen at once and costs exactly that unit's
    attempt: the dead worker alone is replaced and only its unit is
    requeued.  A unit past its deadline has its worker killed the same
    way.  Retry exhaustion or an interrupt kills every worker.

    Workers come from the platform's default start method (``fork`` on
    Linux): a spawned worker would pay the package's import time before
    its first unit.

    ``inject_fault`` arms deterministic test faults (crash / hang /
    error) against a batch index — the hook behind the fault-injection
    suite and the golden tests' faulted runs; production runs never set
    it.
    """

    kind = "process"

    def __init__(
        self,
        jobs: int | None = None,
        policy: ExecPolicy | None = None,
        telemetry=None,
    ) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.policy = policy if policy is not None else ExecPolicy()
        self.telemetry = telemetry
        self._ctx = get_context()
        self._workers: list[_Worker] = []
        self._store = (
            CheckpointStore(self.policy.checkpoint_dir)
            if self.policy.checkpoint_dir is not None
            else None
        )
        #: index -> (fault kind, persistent).  One-shot faults fire on the
        #: first attempt of the matching work unit, then disarm.
        self._fault_plan: dict[int, tuple[str, bool]] = {}

    # ------------------------------------------------------------------
    # Fault injection (testing hook)
    # ------------------------------------------------------------------
    def inject_fault(
        self, index: int, fault: str, persistent: bool = False
    ) -> None:
        """Arm ``fault`` against batch work unit ``index``.

        One-shot by default (first attempt only — the retry then
        succeeds); ``persistent`` faults hit every attempt, which is how
        the suite proves retry exhaustion fails loudly.
        """
        check_fault(index, fault)
        self._fault_plan[index] = (fault, persistent)

    def _take_fault(self, task: _Task) -> str | None:
        armed = self._fault_plan.get(task.index)
        if armed is None:
            return None
        fault, persistent = armed
        if persistent:
            return fault
        if task.attempt == 0:
            del self._fault_plan[task.index]
            return fault
        return None

    # ------------------------------------------------------------------
    # Executor interface
    # ------------------------------------------------------------------
    def map_units(
        self,
        units: Sequence,
        obs: Observability | None = None,
    ) -> list:
        obs = obs if obs is not None else NULL_OBS
        capture = obs.enabled
        trace = obs.tracer is not None
        hub = self.telemetry
        if hub is not None:
            hub.begin(
                len(units), meta={"executor": self.kind, "jobs": self.jobs}
            )
        results: list = [None] * len(units)
        reports: dict[int, dict] = {}
        waiting: list[_Task] = []
        try:
            for index, unit in enumerate(units):
                key = unit.content_key()
                if self._store is not None and self.policy.resume:
                    cached = self._store.get(key)
                    if cached is not None:
                        results[index] = cached
                        obs.counter("exec.checkpoint.hits").inc()
                        if hub is not None:
                            hub.publish(
                                "scenario.finish",
                                index=index,
                                attempt=0,
                                key=key,
                                cached=True,
                            )
                        continue
                waiting.append(_Task(index, unit, key))
            self._run_tasks(waiting, capture, trace, obs, results, reports)
        finally:
            # The flight recorder gets its sweep.finish record even when
            # the batch dies to retry exhaustion or an interrupt — that
            # is exactly when a post-mortem matters.
            if hub is not None:
                hub.end()
        # Merge worker reports by batch (seed) index, never completion
        # order, so the combined report is deterministic under retries.
        for index in sorted(reports):
            merge_report_into(obs, reports[index])
        obs.counter("exec.scenarios").inc(len(units))
        if capture:
            obs.gauge("exec.jobs").set(self.jobs)
            obs.counter("exec.worker_reports_merged").inc(len(reports))
        return results

    def run_sweep(self, spec: ExperimentSpec, obs=None):
        if self._store is not None:
            # Archive the sweep's spec next to its results, named by its
            # content key, so a checkpoint directory is self-describing.
            path = self._store.directory / f"manifest-{spec.content_key()}.json"
            if not path.exists():
                path.write_text(spec.to_json() + "\n", encoding="utf-8")
        return super().run_sweep(spec, obs=obs)

    def close(self) -> None:
        self._stop_workers(kill=False)
        if self._store is not None:
            self._store.close()

    # ------------------------------------------------------------------
    # The pool
    # ------------------------------------------------------------------
    def _spawn(self) -> _Worker:
        conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=worker_main,
            args=(child_conn,),
            daemon=True,
            name="repro-worker",
        )
        proc.start()
        child_conn.close()  # the worker holds the only child end now
        worker = _Worker(proc, conn)
        self._workers.append(worker)
        return worker

    def _stop_workers(self, kill: bool) -> None:
        workers, self._workers = self._workers, []
        if not kill:
            for worker in workers:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass  # already dead; _reap collects it
        for worker in workers:
            _reap(worker, kill=kill)

    def _run_tasks(self, waiting, capture, trace, obs, results, reports) -> None:
        hub = self.telemetry
        try:
            while True:
                self._dispatch(waiting, capture, trace)
                busy = [w for w in self._workers if w.task is not None]
                if not busy and not waiting:
                    return
                self._poll(busy, waiting, obs, results, reports)
                if hub is not None:
                    hub.maybe_tick()
        except BaseException:
            # Retry exhaustion or a caller interrupt: no worker may
            # outlive the failed batch, busy or not.
            self._stop_workers(kill=True)
            raise

    def _dispatch(self, waiting, capture, trace) -> None:
        """Hand every unit whose backoff has passed to a worker.

        A pool short of ``jobs`` workers — on first use, or after a crash
        or a timeout kill — starts a fresh worker for the next unit before
        idle workers take more, so it is back at full strength as soon as
        there is work for the replacement.
        """
        now = monotonic()
        idle = [w for w in self._workers if w.task is None]
        for task in [t for t in waiting if t.not_before <= now]:
            if len(self._workers) < self.jobs:
                worker = self._spawn()
            elif idle:
                worker = idle.pop(0)
            else:
                return
            waiting.remove(task)
            self._assign(worker, task, capture, trace)

    def _assign(self, worker: _Worker, task: _Task, capture, trace) -> None:
        policy = self.policy
        # Heartbeats flow whenever someone can use them: a live hub, or
        # an armed timeout (hang attribution needs the span snapshots
        # even without sinks).
        heartbeat = (
            policy.heartbeat_interval
            if (self.telemetry is not None or policy.timeout is not None)
            else None
        )
        worker.task = task
        worker.last_heartbeat = None
        worker.started = monotonic()
        worker.deadline = None
        if policy.timeout is not None:
            # A booting worker's first unit gets startup its own grace;
            # the "ready" handshake replaces this provisional deadline.
            grace = STARTUP_GRACE if worker.booting else 0.0
            worker.deadline = worker.started + policy.timeout + grace
        if self.telemetry is not None:
            self.telemetry.publish(
                "scenario.start",
                index=task.index,
                attempt=task.attempt,
                key=task.key,
                pid=worker.proc.pid,
            )
        try:
            worker.conn.send(
                (task.unit, capture, trace, heartbeat, self._take_fault(task))
            )
        except OSError:
            pass  # the worker is dead: _poll sees its sentinel and retries

    def _poll(self, busy, waiting, obs, results, reports) -> None:
        hub = self.telemetry
        now = monotonic()
        wakeups = [w.deadline for w in busy if w.deadline is not None]
        if waiting and len(busy) < self.jobs:
            wakeups.append(min(t.not_before for t in waiting))
        timeout = None if not wakeups else max(0.0, min(wakeups) - now)
        if hub is not None:
            # Keep waking at tick cadence so progress lines advance even
            # while every worker is mid-unit and silent.
            timeout = (
                hub.tick_interval
                if timeout is None
                else min(timeout, hub.tick_interval)
            )
        handles = []
        for worker in self._workers:
            handles.append(worker.conn)
            handles.append(worker.proc.sentinel)
        signalled = set(_connection_wait(handles, timeout))
        now = monotonic()
        for worker in list(self._workers):
            final, dead = None, False
            if worker.conn in signalled or worker.proc.sentinel in signalled:
                final, dead = self._drain(worker)
            task = worker.task
            if final is not None:
                worker.task = None
                if final[0] == "ok":
                    self._complete(worker, task, final, obs, results, reports)
                else:
                    self._fail(
                        worker,
                        task,
                        "scenario_errors",
                        f"worker raised {final[1]}",
                        waiting,
                        obs,
                        remote_traceback=final[2],
                    )
            elif dead:
                self._workers.remove(worker)
                _reap(worker, kill=False)
                if task is not None:
                    self._fail(
                        worker,
                        task,
                        "crashes",
                        f"worker died without a result "
                        f"(exit code {worker.proc.exitcode})",
                        waiting,
                        obs,
                    )
            elif (
                task is not None
                and worker.deadline is not None
                and now >= worker.deadline
            ):
                # Checked even when the pipe was signalled: a hung worker
                # whose heartbeat thread keeps the pipe busy must not be
                # able to starve its own deadline.
                self._workers.remove(worker)
                _reap(worker, kill=True)
                self._fail(
                    worker,
                    task,
                    "timeouts",
                    f"exceeded the {self.policy.timeout:g}s wall-clock "
                    "timeout and was killed",
                    waiting,
                    obs,
                )

    def _drain(self, worker: _Worker):
        """Read every queued message of ``worker``.

        Returns ``(final, dead)``: the unit's final ``ok``/``error``
        message if it arrived, and whether the worker died without one.
        The ``ready`` handshake and ``telemetry`` heartbeats are handled
        here as they come.
        """
        hub = self.telemetry
        while worker.conn.poll():
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                return None, True
            if message[0] == "ready":
                worker.booting = False
                if worker.task is not None:
                    worker.started = monotonic()
                    if self.policy.timeout is not None:
                        worker.deadline = worker.started + self.policy.timeout
            elif message[0] == "telemetry":
                record = message[1]
                if record.get("kind") == "heartbeat":
                    worker.last_heartbeat = record
                if hub is not None and worker.task is not None:
                    hub.forward(
                        record,
                        index=worker.task.index,
                        attempt=worker.task.attempt,
                    )
            else:
                return message, False
        return None, not worker.proc.is_alive()

    def _complete(self, worker, task, message, obs, results, reports) -> None:
        _, result, report = message
        results[task.index] = result
        if report is not None:
            reports[task.index] = report
        if self.telemetry is not None:
            self.telemetry.publish(
                "scenario.finish",
                index=task.index,
                attempt=task.attempt,
                key=task.key,
                duration_s=round(monotonic() - worker.started, 6),
            )
        if self._store is not None:
            if self._store.put(task.key, result, describe=task.unit.describe()):
                obs.counter("exec.checkpoint.writes").inc()

    def _fail(
        self,
        worker: _Worker,
        task: _Task,
        counter: str,
        reason: str,
        waiting,
        obs,
        remote_traceback: str | None = None,
    ) -> None:
        obs.counter(f"exec.{counter}").inc()
        spans: list | None = None
        if counter == "timeouts":
            # Hang attribution: the last heartbeat's span-stack snapshot
            # is the best available answer to "where was it stuck?".
            if worker.last_heartbeat is not None:
                spans = worker.last_heartbeat.get("spans") or []
            if spans:
                reason = f"{reason}; last seen in span {' > '.join(spans)}"
        if self.telemetry is not None:
            record_kind = {
                "timeouts": "scenario.timeout",
                "crashes": "scenario.crash",
                "scenario_errors": "scenario.error",
            }[counter]
            fields: dict = {
                "index": task.index,
                "attempt": task.attempt,
                "key": task.key,
                "reason": reason,
            }
            if counter == "timeouts":
                fields["timeout_s"] = self.policy.timeout
                fields["spans"] = spans
                if worker.last_heartbeat is not None:
                    fields["last_heartbeat_elapsed_s"] = (
                        worker.last_heartbeat.get("elapsed_s")
                    )
            self.telemetry.publish(record_kind, **fields)
        if task.attempt >= self.policy.retries:
            detail = reason
            if remote_traceback:
                detail = f"{reason}\n{remote_traceback}"
            raise RetryExhaustedError(
                task.index, task.unit.describe(), task.attempt + 1, detail
            )
        task.attempt += 1
        obs.counter("exec.retries").inc()
        backoff = self.policy.backoff(task.attempt)
        task.not_before = monotonic() + backoff
        waiting.insert(0, task)
        if self.telemetry is not None:
            self.telemetry.publish(
                "scenario.retry",
                index=task.index,
                attempt=task.attempt,
                key=task.key,
                reason=reason,
                backoff_s=round(backoff, 6),
            )

    def __repr__(self) -> str:
        store = "" if self._store is None else f", store={self._store!r}"
        return (
            f"ParallelExecutor(jobs={self.jobs}, "
            f"workers={len(self._workers)}, "
            f"timeout={self.policy.timeout}, retries={self.policy.retries}"
            f"{store})"
        )


def check_fault(index: int, fault: str) -> None:
    """Raise unless :meth:`ParallelExecutor.inject_fault` can arm ``fault``
    against ``index``; the CLI checks its flags with it before any run."""
    if fault not in FAULT_KINDS:
        raise ConfigurationError(
            f"unknown fault {fault!r}; expected one of {FAULT_KINDS}"
        )
    if index < 0:
        raise ConfigurationError(f"fault index must be >= 0, got {index}")


def make_executor(jobs: int = 1, policy=None, telemetry=None) -> Executor:
    """The executor ``jobs`` and ``policy`` imply.

    ``jobs > 1`` or any ``policy`` (an
    :class:`~repro.experiments.exec.resilience.ExecPolicy`: timeouts,
    retries, checkpointing) selects the :class:`ParallelExecutor` pool;
    otherwise the in-process :class:`SerialExecutor` runs the units.
    ``jobs`` must be >= 1.  ``telemetry`` (a
    :class:`~repro.obs.live.TelemetryHub`) attaches live sweep telemetry
    to either.
    """
    if jobs < 1:
        raise ConfigurationError(f"--jobs must be >= 1, got {jobs}")
    if jobs > 1 or policy is not None:
        return ParallelExecutor(jobs=jobs, policy=policy, telemetry=telemetry)
    return SerialExecutor(telemetry=telemetry)
