"""Parameter sweeps over many seeded scenarios.

The paper's Figures 8–10 each evaluate one parameter at several values,
with 10 random topologies × 10 random member sets (100 scenarios) per
value, reporting means with 95% confidence intervals.  A declarative
:class:`~repro.experiments.exec.spec.ExperimentSpec` describes such a
sweep, :func:`scenario_grid` is its seeding grid, and
:func:`run_spec_sweep` runs it into :class:`SweepPoint` aggregates.

The sweep runs on the :class:`~repro.experiments.exec.executor.Executor`
it is given; a :class:`~repro.experiments.exec.executor.ParallelExecutor`
fans the scenario grid out over worker processes (results are identical
to serial execution — the determinism suite asserts it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.metrics.stats import Summary, summarize
from repro.obs import Observability
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


def run_spec_sweep(
    spec: "ExperimentSpec",
    executor: "Executor | None" = None,
    obs: Observability | None = None,
) -> list[SweepPoint]:
    """Execute a declarative :class:`ExperimentSpec` into sweep points.

    The executor sees the whole sweep as one batch of work units (so a
    parallel executor keeps workers busy across sweep-point boundaries)
    and stays open; a transient serial one runs by default.
    """
    from repro.experiments.exec.executor import SerialExecutor

    executor = executor if executor is not None else SerialExecutor()
    return executor.run_sweep(spec, obs=obs)
