"""Figure 7: local detour vs. global detour (paper §4.3.1).

Setup: N=100, N_G=30, α=0.2, D_thresh=0.3; five random topologies, one
random member group each.  For every member, the worst-case failure (the
source-incident link of its path) is applied and the recovery distance is
measured twice: via the global detour on the SPF baseline tree (x-axis)
and via the local detour on the SMRP tree (y-axis).  The paper observes
most points below the ``y = x`` diagonal with an average ≈33% reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.experiments.scenario import ScenarioConfig
from repro.experiments.tables import format_table
from repro.metrics.stats import Summary, summarize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.exec.executor import Executor


@dataclass(frozen=True)
class Figure7Point:
    """One scatter point: a member in one scenario."""

    topology_seed: int
    member: int
    rd_global: float
    rd_local: float

    @property
    def below_diagonal(self) -> bool:
        return self.rd_local < self.rd_global


@dataclass
class Figure7Result:
    points: list[Figure7Point] = field(default_factory=list)

    @property
    def fraction_below_diagonal(self) -> float:
        if not self.points:
            return 0.0
        strictly_below = sum(1 for p in self.points if p.below_diagonal)
        return strictly_below / len(self.points)

    @property
    def fraction_at_or_below_diagonal(self) -> float:
        if not self.points:
            return 0.0
        at_or_below = sum(1 for p in self.points if p.rd_local <= p.rd_global)
        return at_or_below / len(self.points)

    @property
    def reduction(self) -> Summary:
        """Per-member relative reduction of the recovery distance."""
        return summarize(
            [(p.rd_global - p.rd_local) / p.rd_global for p in self.points]
        )

    def render(self) -> str:
        if not self.points:
            return "no comparable members (every worst-case failure was a bridge)"
        rows = [
            [
                str(p.topology_seed),
                str(p.member),
                f"{p.rd_global:.2f}",
                f"{p.rd_local:.2f}",
                "yes" if p.below_diagonal else "no",
            ]
            for p in self.points
        ]
        table = format_table(
            ["topo", "member", "RD global (SPF)", "RD local (SMRP)", "below y=x"],
            rows,
        )
        summary = self.reduction
        footer = (
            f"\npoints: {len(self.points)}  "
            f"below y=x: {100 * self.fraction_below_diagonal:.0f}%  "
            f"avg reduction: {100 * summary.mean:.0f}% "
            f"(paper: most below, avg 33%)"
        )
        return table + footer


def run_figure7(
    topologies: int = 5,
    n: int = 100,
    group_size: int = 30,
    alpha: float = 0.2,
    d_thresh: float = 0.3,
    seed_offset: int = 0,
    obs=None,
    executor: "Executor | None" = None,
) -> Figure7Result:
    """Reproduce Figure 7's scatter data.

    The per-topology scenarios run on ``executor``, which stays open
    (a transient serial one by default).
    """
    from repro.experiments.exec.executor import SerialExecutor

    configs = [
        ScenarioConfig(
            n=n,
            group_size=group_size,
            alpha=alpha,
            d_thresh=d_thresh,
            topology_seed=seed_offset + t,
            member_seed=seed_offset + 5000 + t,
        )
        for t in range(topologies)
    ]
    executor = executor if executor is not None else SerialExecutor()
    scenarios = executor.map_units(configs, obs=obs)
    result = Figure7Result()
    for config, scenario in zip(configs, scenarios):
        for m in scenario.measurements:
            if not m.comparable:
                continue
            result.points.append(
                Figure7Point(
                    topology_seed=config.topology_seed,
                    member=m.member,
                    rd_global=m.rd_spf_global,
                    rd_local=m.rd_smrp_local,
                )
            )
    return result
