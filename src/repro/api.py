"""The stable high-level API: open a session, declare work, run it.

This facade is the supported entry point for using the reproduction
programmatically; the CLI is a thin wrapper over it, and the deep module
paths (``repro.experiments.fig8``, ``repro.controller.service``, …)
remain available for fine-grained access.

The surface is **session-oriented**: :func:`open_session` builds a
:class:`Session` that owns the execution substrate — a resolved
:class:`Executor`, a shared :class:`SubstrateCache`, optional live
telemetry — and exposes every verb against it:

- **scenario verbs** — :meth:`Session.run_scenario`,
  :meth:`Session.run_sweep`, :meth:`Session.build_figure` run the
  paper's experiments (consecutive calls share the session's caches);
- **service verbs** — :meth:`Session.open_group` /
  :meth:`Session.join` / :meth:`Session.leave` / :meth:`Session.fail` /
  :meth:`Session.restore` / :meth:`Session.metrics` host live multicast
  groups on the session's :class:`MulticastController`, and
  :meth:`Session.run_service` executes a declarative
  :class:`ServiceSpec` (thousands of groups, sharded over the session's
  executor, byte-identical however sharded).

A one-shot run is ``with open_session(...) as session:`` around one
verb.

:func:`open_session` accepts ``jobs`` (worker process count) or an explicit
``executor``; ``jobs > 1`` fans work units out over the
:class:`ParallelExecutor` pool of long-lived worker processes, with
results merged deterministically in input order, so parallel runs are
byte-identical to serial ones.  A ``policy`` (:class:`ExecPolicy`) sets
the pool's per-unit timeouts, retries and checkpoint/resume (and implies
the pool on its own); the byte-identical guarantee holds even when
workers crash or hang mid-batch.  The combination rules live in one
place, :func:`resolve_executor`, shared with the CLI.

``__all__`` below is the documented public surface; anything not listed
is an implementation detail.

Examples
--------
>>> from repro.api import ExperimentSpec, open_session
>>> spec = ExperimentSpec(n=30, group_size=8, sweep_parameter="d_thresh",
...                       sweep_values=(0.1, 0.3), topologies=2, member_sets=2)
>>> with open_session() as session:
...     points = session.run_sweep(spec)
>>> [p.label for p in points]
['0.1', '0.3']
"""

from __future__ import annotations

from repro.controller.controller import (
    FailureDispatch,
    GroupRestoration,
    MulticastController,
)
from repro.controller.service import ServiceReport, run_service as _run_service
from repro.controller.spec import ServiceSpec
from repro.errors import ConfigurationError
from repro.experiments.exec.cache import SubstrateCache
from repro.experiments.exec.checkpoint import CheckpointStore
from repro.experiments.exec.executor import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    resolve_executor,
)
from repro.experiments.exec.resilience import ExecPolicy
from repro.experiments.exec.spec import ExperimentSpec
from repro.experiments.runner import ScenarioResult
from repro.experiments.runner import run_scenario as _run_scenario
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.sweeps import SweepPoint, run_spec_sweep

__all__ = [
    "CheckpointStore",
    "ExecPolicy",
    "Executor",
    "ExperimentSpec",
    "FailureDispatch",
    "GroupRestoration",
    "MulticastController",
    "ParallelExecutor",
    "ScenarioConfig",
    "ScenarioResult",
    "SerialExecutor",
    "ServiceReport",
    "ServiceSpec",
    "Session",
    "SubstrateCache",
    "SweepPoint",
    "make_executor",
    "open_session",
    "resolve_executor",
]

#: The 4×2 seeding grid per sweep point of the scenario-grid figures.
_QUICK_GRID = {"topologies": 4, "member_sets": 2}

#: Figure driver registry: canonical name -> (module, runner attribute,
#: quick preset).  A driver's defaults are the full run; the quick preset
#: is the reduced run behind ``build_figure(..., quick=True)`` and every
#: CLI ``--quick``.  Figure 7 is already small: its quick run is the full
#: one.
_FIGURES = {
    "fig7": ("repro.experiments.fig7", "run_figure7", {}),
    "fig8": ("repro.experiments.fig8", "run_figure8", _QUICK_GRID),
    "fig9": ("repro.experiments.fig9", "run_figure9", _QUICK_GRID),
    "fig10": ("repro.experiments.fig10", "run_figure10", _QUICK_GRID),
    "protection": (
        "repro.experiments.figprotect",
        "run_protection_figure",
        {
            "rates": (0.02, 0.1),
            "n": 40,
            "group_size": 8,
            "topologies": 2,
            "member_sets": 1,
            "trials": 2,
        },
    ),
    "distribution": (
        "repro.experiments.figdist",
        "run_distribution_figure",
        {"engines": ("smrp", "spf"), "groups": 1000},
    ),
    "phases": ("repro.experiments.figphases", "run_phase_figure", _QUICK_GRID),
}

#: Distinguishes "caller did not mention cache" (session builds one)
#: from an explicit ``cache=None`` (run uncached).
_UNSET_CACHE = object()


class Session:
    """A long-lived handle over the execution substrate.

    Owns a resolved :class:`Executor` (closed with the session unless
    the caller passed a ready one in), a :class:`SubstrateCache` shared
    by every verb, and — lazily, on first service verb — a
    :class:`MulticastController` hosting live groups.

    Parameters
    ----------
    topology:
        Optional ready topology for the service verbs.  When omitted,
        the session derives one from ``spec`` via the cache on first
        use.
    spec:
        Optional default :class:`ServiceSpec`; provides the topology,
        protocol, and :meth:`run_service` defaults.
    executor, jobs, policy, telemetry:
        Execution selection, reconciled by :func:`resolve_executor` —
        identical rules and message text as the CLI.
    cache:
        Substrate cache for topologies and SPF state.  Omitted → the
        session builds its own; explicitly ``None`` → verbs run
        uncached.
    obs:
        Default :class:`~repro.obs.Observability` for every verb.
    """

    def __init__(
        self,
        topology=None,
        *,
        spec: ServiceSpec | None = None,
        protocol: str = "smrp",
        smrp_config=None,
        convergence=None,
        executor: Executor | None = None,
        jobs: int = 1,
        policy: ExecPolicy | None = None,
        telemetry=None,
        cache=_UNSET_CACHE,
        obs=None,
    ) -> None:
        self.executor, self._owned = resolve_executor(
            executor=executor, jobs=jobs, policy=policy, telemetry=telemetry
        )
        self.cache = SubstrateCache() if cache is _UNSET_CACHE else cache
        self.spec = spec
        self.obs = obs
        self._topology = topology
        self._protocol = protocol
        self._smrp_config = smrp_config
        self._convergence = convergence
        self._controller: MulticastController | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Substrate
    # ------------------------------------------------------------------
    @property
    def topology(self):
        """The service topology (derived from ``spec`` on first use)."""
        if self._topology is None:
            if self.spec is None:
                raise ConfigurationError(
                    "session has no topology: pass one to open_session "
                    "or provide a ServiceSpec"
                )
            if self.cache is not None:
                self._topology = self.cache.topology_for(self.spec)
            else:
                from repro.experiments.exec.cache import SubstrateCache

                self._topology = SubstrateCache().topology_for(self.spec)
        return self._topology

    @property
    def controller(self) -> MulticastController:
        """The session's hosted-group controller (built on first use)."""
        if self._controller is None:
            spec = self.spec
            smrp_config = self._smrp_config
            protocol = spec.protocol if spec is not None else self._protocol
            if smrp_config is None and spec is not None:
                from repro.core.protocol import SMRPConfig

                smrp_config = SMRPConfig(
                    d_thresh=spec.d_thresh,
                    reshape_enabled=spec.reshape_enabled,
                    self_check=False,
                )
            self._controller = MulticastController(
                self.topology,
                protocol=protocol,
                smrp_config=smrp_config,
                cache=self.cache,
                convergence=self._convergence,
                obs=self.obs,
                telemetry=self.executor.telemetry,
            )
        return self._controller

    # ------------------------------------------------------------------
    # Service verbs (live hosted groups)
    # ------------------------------------------------------------------
    def open_group(self, source, group=None, *, protocol=None, members=()):
        """Host a new ``(source, group)`` session; see
        :meth:`MulticastController.open_group`."""
        return self.controller.open_group(
            source, group, protocol=protocol, members=members
        )

    def join(self, gid, node) -> None:
        self.controller.join(gid, node)

    def leave(self, gid, node) -> None:
        self.controller.leave(gid, node)

    def fail(self, failures):
        """Dispatch a failure to every affected hosted group."""
        return self.controller.fail(failures)

    def restore(self, failures=None) -> FailureDispatch:
        """Repair every affected group in one pass."""
        return self.controller.restore(failures)

    def metrics(self) -> dict:
        return self.controller.metrics()

    def run_service(self, spec: ServiceSpec | dict | None = None) -> ServiceReport:
        """Execute a declarative service run on the session's executor."""
        spec = spec if spec is not None else self.spec
        if spec is None:
            raise ConfigurationError(
                "no service spec: pass one or open the session with spec=..."
            )
        if isinstance(spec, dict):
            spec = ServiceSpec.from_dict(spec)
        return _run_service(spec, executor=self.executor, obs=self.obs)

    # ------------------------------------------------------------------
    # Scenario verbs (the paper's experiments)
    # ------------------------------------------------------------------
    def run_scenario(
        self, config: ScenarioConfig | None = None, **params
    ) -> ScenarioResult:
        """Run one scenario against the session's cache."""
        if config is None:
            config = ScenarioConfig(**params)
        elif params:
            raise ConfigurationError(
                "pass either a ScenarioConfig or its fields as keywords, "
                "not both"
            )
        return _run_scenario(config, obs=self.obs, cache=self.cache)

    def run_sweep(self, spec: ExperimentSpec | dict) -> list[SweepPoint]:
        """Expand a declarative sweep spec on the session's executor."""
        if isinstance(spec, dict):
            spec = ExperimentSpec.from_dict(spec)
        return run_spec_sweep(spec, executor=self.executor, obs=self.obs)

    def build_figure(self, figure: int | str, *, quick: bool = False, **overrides):
        """Run one of the figure drivers on the session's executor.

        ``figure`` is 7–10 (or ``"fig8"``-style names), ``"protection"``,
        ``"distribution"`` or ``"phases"``; the returned result has a
        ``render()`` method producing the text table.  ``quick`` applies
        the figure's reduced preset (the CLI's ``--quick``); any
        figure-driver keyword (``values``, ``n``, ``topologies``, …)
        can be overridden explicitly and wins over ``quick``.
        """
        import importlib

        name = figure if isinstance(figure, str) else f"fig{figure}"
        if name not in _FIGURES:
            raise ConfigurationError(
                f"unknown figure {figure!r}; expected one of "
                f"{sorted(_FIGURES)} (or 7-10)"
            )
        module_name, attr, preset = _FIGURES[name]
        runner = getattr(importlib.import_module(module_name), attr)
        kwargs = {**preset, **overrides} if quick else overrides
        return runner(obs=self.obs, executor=self.executor, **kwargs)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the session's executor (idempotent; a caller-supplied
        executor is left open — the caller owns its lifecycle)."""
        if self._closed:
            return
        self._closed = True
        if self._owned:
            self.executor.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        hosted = len(self._controller) if self._controller is not None else 0
        return (
            f"Session(executor={self.executor.kind!r}, groups={hosted}, "
            f"{'closed' if self._closed else 'open'})"
        )


def open_session(
    topology=None,
    *,
    spec: ServiceSpec | dict | None = None,
    executor: Executor | None = None,
    jobs: int = 1,
    policy: ExecPolicy | None = None,
    telemetry=None,
    cache=_UNSET_CACHE,
    obs=None,
    **options,
) -> Session:
    """Open a :class:`Session` — the session-oriented entry point.

    Usable as a context manager; :meth:`Session.close` releases the
    executor the session resolved (a ready ``executor`` passed in stays
    open: the caller owns its lifecycle).  ``policy`` sets the pool's
    timeouts, retries and checkpoint/resume (implying the pool even at
    ``jobs=1``); ``telemetry`` (a :class:`~repro.obs.live.TelemetryHub`)
    streams observe-only lifecycle events and progress.  Both are
    mutually exclusive with ``executor``: attach them when building it.
    """
    if isinstance(spec, dict):
        spec = ServiceSpec.from_dict(spec)
    return Session(
        topology,
        spec=spec,
        executor=executor,
        jobs=jobs,
        policy=policy,
        telemetry=telemetry,
        cache=cache,
        obs=obs,
        **options,
    )

