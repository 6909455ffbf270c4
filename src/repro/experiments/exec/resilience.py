"""The fault-tolerance policy of a parallel sweep.

The paper's evaluation procedure is long sweeps of independent scenarios
(100 per sweep point, §4.1) — exactly the workload where one hung or
crashed worker must not cost the run.  :class:`ExecPolicy` is the
envelope the :class:`~repro.experiments.exec.executor.ParallelExecutor`
enforces around every work unit:

- **wall-clock timeouts** — a unit running past
  :attr:`ExecPolicy.timeout` has its worker killed, which is then
  treated like a crash;
- **bounded retry with exponential backoff** — a unit whose worker
  crashed or was killed, or which raised, is re-attempted up to
  :attr:`ExecPolicy.retries` times; a unit that fails every attempt
  raises :class:`~repro.errors.RetryExhaustedError`;
- **content-keyed checkpoint/resume** — completed results persist to a
  :class:`~repro.experiments.exec.checkpoint.CheckpointStore` keyed by
  the unit's ``content_key()``, so an interrupted ``figures`` run
  resumes instead of restarting;
- **heartbeats** — the interval at which a worker reports the running
  unit's open spans, so a timeout kill names the code path it hung in.

Fault activity is visible in run reports as ``exec.retries`` /
``exec.timeouts`` / ``exec.crashes`` / ``exec.scenario_errors`` and
``exec.checkpoint.{hits,writes}``; none of it changes results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Extra wall-clock allowance for a fresh worker's startup (interpreter
#: boot and imports) before its ``ready`` handshake restarts the first
#: unit's deadline.  Keeps a tight :attr:`ExecPolicy.timeout` from
#: killing units that never got to run, while still bounding a worker
#: wedged during startup.
STARTUP_GRACE = 30.0


@dataclass(frozen=True)
class ExecPolicy:
    """Fault-tolerance envelope of a parallel sweep.

    Attributes
    ----------
    timeout:
        Per-unit wall-clock limit in seconds (``None``: no limit).  A
        unit past its deadline has its worker killed and is retried.
        The clock starts when the unit is handed to a ready worker; a
        freshly started worker's first unit starts its clock at the
        worker's ``ready`` handshake, so interpreter startup never eats
        a tight limit.
    retries:
        Re-attempts allowed per unit after its first try; ``0`` turns
        every fault into an immediate :class:`RetryExhaustedError`.
    backoff_base / backoff_cap:
        Retry ``n`` waits ``min(cap, base * 2**(n-1))`` seconds before
        redispatch (tests set ``backoff_base=0`` for speed).
    checkpoint_dir:
        Directory of the content-keyed result store; every completed
        unit is appended there.  ``None`` disables checkpointing.
    resume:
        Serve units already present in the checkpoint store from disk
        instead of recomputing them.  Requires ``checkpoint_dir``.
    heartbeat_interval:
        Seconds between worker heartbeats (each carrying the live
        span-stack snapshot).  Heartbeats flow whenever a telemetry hub
        is attached *or* a timeout is armed — the latter so a timeout
        kill can attribute the hang even without live sinks.
    """

    timeout: float | None = None
    retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    checkpoint_dir: str | None = None
    resume: bool = False
    heartbeat_interval: float = 5.0

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError(
                f"timeout must be positive (or None), got {self.timeout}"
            )
        if self.retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError("backoff must be non-negative")
        if self.resume and self.checkpoint_dir is None:
            raise ConfigurationError("resume requires a checkpoint directory")
        if self.heartbeat_interval <= 0:
            raise ConfigurationError(
                f"heartbeat_interval must be positive, "
                f"got {self.heartbeat_interval}"
            )

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        return min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
