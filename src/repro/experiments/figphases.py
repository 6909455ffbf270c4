"""Restoration latency breakdown by phase (tracing figure family).

The paper's Figures 7–10 report *end-to-end* restoration quantities.
This driver decomposes them: it runs the standard scenario grid with a
:class:`~repro.obs.tracing.RestorationTracer` attached, extracts each
episode's critical path, and tabulates how much of the restoration
latency each phase contributes per strategy — making the paper's core
argument (local repair skips the re-convergence phase that dominates
SPF restoration) directly visible as a table.

Phases follow the span taxonomy of :mod:`repro.obs.tracing`: ``detect``
(failure detection delay), ``converge`` (global SPF re-convergence —
absent under SMRP local repair), ``search`` (candidate/attach
selection, charged zero sim-time by the latency model), ``signal``
(join signaling along the graft path).  All times are simulated time in
the topology's delay units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.experiments.fig8 import figure8_spec
from repro.experiments.sweeps import run_spec_sweep
from repro.experiments.tables import format_table
from repro.obs import Observability, RestorationTracer, TraceAnalyzer
from repro.obs.tracing import Episode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.exec.executor import Executor


@dataclass
class PhaseFigureResult:
    """Episodes plus the rendered critical-path phase decomposition."""

    episodes: list[Episode] = field(default_factory=list)

    @property
    def analyzer(self) -> TraceAnalyzer:
        return TraceAnalyzer(self.episodes)

    def render(self) -> str:
        analyzer = self.analyzer
        stats = analyzer.latency_stats()
        breakdown = analyzer.phase_breakdown()
        rows = []
        for strategy in sorted(breakdown):
            strategy_total = stats.get(strategy, {}).get("total", 0.0)
            phases = breakdown[strategy]
            for phase in sorted(phases):
                stat = phases[phase]
                share = (
                    stat.total / strategy_total if strategy_total > 0 else 0.0
                )
                rows.append([
                    strategy,
                    phase,
                    str(stat.count),
                    f"{stat.mean:.1f}",
                    f"{share:.1%}",
                ])
        table = format_table(
            ["strategy", "phase", "spans", "mean sim-time", "share"], rows
        )
        outcomes = analyzer.outcome_counts()
        outcome_text = ", ".join(
            f"{count} {outcome}" for outcome, count in sorted(outcomes.items())
        )
        return (
            f"{table}\n"
            f"({len(self.episodes)} episodes: {outcome_text}; critical-path "
            "decomposition — local repair has no converge phase)"
        )


def run_phase_figure(
    n: int = 100,
    group_size: int = 30,
    alpha: float = 0.2,
    d_thresh: float = 0.3,
    topologies: int = 10,
    member_sets: int = 10,
    seed_offset: int = 0,
    obs=None,
    executor: "Executor | None" = None,
) -> PhaseFigureResult:
    """Run the grid with tracing attached and decompose the latencies.

    ``obs`` may carry a tracer already (the CLI's ``--trace-out`` path);
    otherwise a private trace-only
    :class:`~repro.obs.Observability` is created so the caller's golden
    output stays untouched.
    """
    if obs is None:
        obs = Observability(enabled=False)
    if obs.tracer is None:
        obs.tracer = RestorationTracer()
    spec = figure8_spec(
        values=[d_thresh],
        n=n,
        group_size=group_size,
        alpha=alpha,
        topologies=topologies,
        member_sets=member_sets,
        seed_offset=seed_offset,
    )
    run_spec_sweep(spec, executor=executor, obs=obs)
    return PhaseFigureResult(episodes=list(obs.tracer.episodes))
