"""Execution engine: declarative specs, executors, and substrate caching.

The pieces and how they fit:

- :class:`ExperimentSpec` (``spec``) — frozen, hashable, JSON-serializable
  description of a whole sweep;
- :class:`Executor` / :class:`SerialExecutor` / :class:`ParallelExecutor`
  (``executor``) — how work units run: in-process, or on a pool of
  long-lived worker processes, each on its own pipe; results merge
  deterministically by batch index either way;
- :class:`ExecPolicy` (``resilience``) — the envelope the pool enforces
  around every unit: per-unit timeouts, bounded retry with backoff, and
  checkpoint/resume through a :class:`CheckpointStore` (``checkpoint``);
- :class:`SubstrateCache` (``cache``) — content-keyed topology + SPF
  route caches shared per executor / per worker process;
- ``worker`` — the pool worker's main loop, which also sends heartbeats
  for an attached :class:`~repro.obs.live.TelemetryHub` (observe-only
  live progress, flight recording, and hang attribution).

``make_executor(jobs, policy, telemetry)`` is the one factory: ``jobs >
1`` or a policy selects the pool, else the serial executor.  A session
of :mod:`repro.api` builds, owns and closes it; the public API is also
re-exported there.
"""

from repro.experiments.exec.cache import SubstrateCache, process_cache
from repro.experiments.exec.checkpoint import CheckpointStore
from repro.experiments.exec.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.experiments.exec.resilience import ExecPolicy
from repro.experiments.exec.spec import SWEEPABLE_PARAMETERS, ExperimentSpec

__all__ = [
    "CheckpointStore",
    "ExecPolicy",
    "Executor",
    "ExperimentSpec",
    "ParallelExecutor",
    "SWEEPABLE_PARAMETERS",
    "SerialExecutor",
    "SubstrateCache",
    "make_executor",
    "process_cache",
]
