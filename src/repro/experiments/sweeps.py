"""Parameter sweeps over many seeded scenarios.

The paper's Figures 8–10 each evaluate one parameter at several values,
with 10 random topologies × 10 random member sets (100 scenarios) per
value, reporting means with 95% confidence intervals.  :func:`run_sweep`
reproduces that procedure for arbitrary scenario families, and
:func:`run_spec_sweep` does the same for a declarative
:class:`~repro.experiments.exec.spec.ExperimentSpec`.

Both accept an :class:`~repro.experiments.exec.executor.Executor`; pass a
:class:`~repro.experiments.exec.executor.ParallelExecutor` to fan the
scenario grid out over worker processes (results are identical to serial
execution — the determinism suite asserts it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import ConfigurationError
from repro.metrics.stats import Summary, summarize
from repro.obs import NULL_OBS, Observability
from repro.experiments.runner import ScenarioResult
from repro.experiments.scenario import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.exec.executor import Executor
    from repro.experiments.exec.spec import ExperimentSpec


@dataclass
class SweepPoint:
    """Aggregated results at one parameter value.

    A point is only meaningful over at least one scenario, so an empty
    ``scenarios`` list is rejected at construction — not lazily when an
    aggregate property happens to be read.
    """

    label: str
    parameter: float
    scenarios: list[ScenarioResult] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.scenarios:
            raise ConfigurationError(
                f"sweep point {self.label!r} has no scenarios; "
                "construct points from at least one ScenarioResult"
            )

    @property
    def rd_relative(self) -> Summary:
        samples = [x for r in self.scenarios for x in r.rd_relative]
        return summarize(samples)

    @property
    def delay_relative(self) -> Summary:
        samples = [x for r in self.scenarios for x in r.delay_relative]
        return summarize(samples)

    @property
    def cost_relative(self) -> Summary:
        return summarize([r.cost_relative for r in self.scenarios])

    @property
    def average_degree(self) -> float:
        return sum(r.average_degree for r in self.scenarios) / len(self.scenarios)

    @property
    def unrecoverable_members(self) -> int:
        return sum(r.unrecoverable_members for r in self.scenarios)


def scenario_grid(
    base: ScenarioConfig, topologies: int, member_sets: int, seed_offset: int = 0
) -> list[ScenarioConfig]:
    """The paper's seeding grid: ``topologies × member_sets`` scenarios.

    Seeds are derived deterministically so that two sweep points sharing
    the same grid sizes face the *same* topologies and member sets — the
    paper varies one parameter at a time over a common random ensemble.
    """
    if topologies < 1 or member_sets < 1:
        raise ConfigurationError("grid dimensions must be positive")
    configs = []
    for t in range(topologies):
        for m in range(member_sets):
            configs.append(
                base.with_seeds(
                    topology_seed=seed_offset + t,
                    member_seed=seed_offset + 1000 * (t + 1) + m,
                )
            )
    return configs


def run_sweep(
    label_fn: Callable[[float], ScenarioConfig],
    values: list[float],
    topologies: int = 10,
    member_sets: int = 10,
    seed_offset: int = 0,
    obs: Observability | None = None,
    executor: "Executor | None" = None,
) -> list[SweepPoint]:
    """Evaluate ``label_fn(value)`` over the seeding grid for each value.

    A provided ``obs`` is shared by every scenario, so counters and span
    timings aggregate over the whole sweep.  A provided ``executor``
    decides how scenarios run (and stays open — callers own its
    lifecycle); by default a transient
    :class:`~repro.experiments.exec.executor.SerialExecutor` is used.
    """
    from repro.experiments.exec.executor import SerialExecutor

    obs = obs if obs is not None else NULL_OBS
    owned = executor is None
    if executor is None:
        executor = SerialExecutor()
    try:
        points: list[SweepPoint] = []
        for value in values:
            base = label_fn(value)
            configs = scenario_grid(base, topologies, member_sets, seed_offset)
            with obs.span(f"sweep.point.{value:g}"):
                results = executor.map_units(configs, obs=obs)
            points.append(
                SweepPoint(label=f"{value:g}", parameter=value, scenarios=results)
            )
        return points
    finally:
        if owned:
            executor.close()


def run_spec_sweep(
    spec: "ExperimentSpec",
    executor: "Executor | None" = None,
    obs: Observability | None = None,
) -> list[SweepPoint]:
    """Execute a declarative :class:`ExperimentSpec` into sweep points.

    The executor sees the whole sweep as one batch of work units (so a
    parallel executor keeps workers busy across sweep-point boundaries).
    A passed-in executor stays open; a default serial one is transient.
    """
    from repro.experiments.exec.executor import SerialExecutor

    owned = executor is None
    if executor is None:
        executor = SerialExecutor()
    try:
        return executor.run_sweep(spec, obs=obs)
    finally:
        if owned:
            executor.close()
