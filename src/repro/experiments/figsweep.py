"""Figures 8–10: one parameter swept over a common ensemble (§4.3.2–§4.3.4).

The three figures share one procedure.  Each varies one scenario
parameter over 10 topologies × 10 member sets (§4.1), holds the others at
the paper's setup (N=100, N_G=30, α=0.2, D_thresh=0.3), and reports RD,
delay and cost relative to SPF with 95% confidence intervals.  They
differ only in the data declared below:

- **Figure 8** (§4.3.2) sweeps ``D_thresh`` over 0.1–0.4 at α=0.2.  The
  recovery-distance improvement grows (≈linearly) with D_thresh; at 0.3
  the recovery path shortens by ≈20% while delay and tree-cost penalties
  stay ≈5%.
- **Figure 9** (§4.3.3) sweeps α over {0.15, 0.2, 0.25, 0.3} at
  D_thresh=0.3 and annotates each α with the realised average node
  degree.  The improvement diminishes slightly as connectivity grows,
  yet stays useful (≈12% at average degree 10 in the paper's follow-up
  check, which ``benchmarks/test_fig9_alpha.py`` runs as its own point).
- **Figure 10** (§4.3.4) sweeps the group size N_G over {20, 30, 40, 50}
  at α=0.2, D_thresh=0.3.  A steady ≈20% recovery-path reduction with
  ≈5% overhead, declining slightly for larger groups (more members means
  everyone already has close neighbors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.experiments.exec.spec import ExperimentSpec
from repro.experiments.sweeps import SweepPoint, run_spec_sweep
from repro.experiments.tables import format_summary, format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.exec.executor import Executor


@dataclass(frozen=True)
class SweepFigure:
    """One sweep figure, declared as data."""

    #: The :class:`ExperimentSpec` field the figure sweeps.
    parameter: str
    #: The paper's swept values (the full run's default).
    values: tuple[float, ...]
    #: The parameters the figure holds fixed, at the paper's setup.
    fixed: tuple[tuple[str, float], ...]
    #: First column header (also names the parameter in errors).
    header: str
    #: Whether the table shows the realised average node degree.
    degree: bool
    #: The paper's claim, printed under the table.
    note: str

    def run(
        self,
        values=None,
        *,
        obs=None,
        executor: "Executor | None" = None,
        **params,
    ) -> "SweepFigureResult":
        """Sweep ``values`` (default: the paper's) on ``executor`` (serial
        by default); ``params`` set any other :class:`ExperimentSpec`
        field (``n``, ``topologies``, …) and win over ``fixed``."""
        spec = ExperimentSpec(
            **{**dict(self.fixed), **params},
            sweep_parameter=self.parameter,
            sweep_values=tuple(
                float(v) for v in (values if values is not None else self.values)
            ),
        )
        return SweepFigureResult(
            self, run_spec_sweep(spec, executor=executor, obs=obs)
        )


@dataclass
class SweepFigureResult:
    figure: SweepFigure
    points: list[SweepPoint] = field(default_factory=list)

    def point(self, value: float) -> SweepPoint:
        for p in self.points:
            if abs(p.parameter - value) < 1e-9:
                return p
        raise KeyError(f"no sweep point for {self.figure.header}={value}")

    def render(self) -> str:
        degree = self.figure.degree
        rows = [
            [
                p.label,
                *([f"{p.average_degree:.2f}"] if degree else []),
                format_summary(p.rd_relative),
                format_summary(p.delay_relative),
                format_summary(p.cost_relative),
            ]
            for p in self.points
        ]
        table = format_table(
            [
                self.figure.header,
                *(["avg degree"] if degree else []),
                "RD_relative",
                "D_relative",
                "Cost_relative",
            ],
            rows,
        )
        return f"{table}\n{self.figure.note}"


FIGURE_8 = SweepFigure(
    parameter="d_thresh",
    values=(0.1, 0.2, 0.3, 0.4),
    fixed=(("alpha", 0.2),),
    header="D_thresh",
    degree=False,
    note="(paper at 0.3: RD ≈ +20%, delay/cost penalties ≈ 5%; "
    "improvement grows with D_thresh)",
)

FIGURE_9 = SweepFigure(
    parameter="alpha",
    values=(0.15, 0.2, 0.25, 0.3),
    fixed=(("d_thresh", 0.3),),
    header="alpha",
    degree=True,
    note="(paper: improvement shrinks slightly as the degree grows; "
    "still ≈12% at degree 10)",
)

FIGURE_10 = SweepFigure(
    parameter="group_size",
    values=(20, 30, 40, 50),
    fixed=(("alpha", 0.2), ("d_thresh", 0.3)),
    header="N_G",
    degree=False,
    note="(paper: ≈20% RD reduction, ≈5% overhead, slight decline "
    "with larger groups)",
)
