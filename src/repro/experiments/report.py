"""Machine-readable export of experiment results.

The figure drivers return structured results; this module serializes
them — CSV for plotting elsewhere, JSON for archival, and a Markdown
section per figure in the EXPERIMENTS.md style — so a downstream user
can regenerate the full evaluation record::

    from repro.experiments.figsweep import FIGURE_8
    from repro.experiments.report import sweep_to_csv
    csv_text = sweep_to_csv("D_thresh", FIGURE_8.run().points)
"""

from __future__ import annotations

import csv
import io
import json
from typing import Sequence

from repro.experiments.fig7 import Figure7Result
from repro.experiments.sweeps import SweepPoint
from repro.experiments.tables import format_summary


def sweep_to_csv(parameter_name: str, points: Sequence[SweepPoint]) -> str:
    """One CSV row per sweep point, with means and 95% CI bounds."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        [
            parameter_name,
            "n",
            "rd_relative_mean",
            "rd_relative_ci_low",
            "rd_relative_ci_high",
            "delay_relative_mean",
            "delay_relative_ci_low",
            "delay_relative_ci_high",
            "cost_relative_mean",
            "cost_relative_ci_low",
            "cost_relative_ci_high",
            "avg_degree",
        ]
    )
    for point in points:
        rd = point.rd_relative
        delay = point.delay_relative
        cost = point.cost_relative
        writer.writerow(
            [
                point.parameter,
                rd.n,
                f"{rd.mean:.6f}",
                f"{rd.ci_low:.6f}",
                f"{rd.ci_high:.6f}",
                f"{delay.mean:.6f}",
                f"{delay.ci_low:.6f}",
                f"{delay.ci_high:.6f}",
                f"{cost.mean:.6f}",
                f"{cost.ci_low:.6f}",
                f"{cost.ci_high:.6f}",
                f"{point.average_degree:.4f}",
            ]
        )
    return buffer.getvalue()


def scatter_to_csv(result: Figure7Result) -> str:
    """Figure 7's scatter: one row per (topology, member) point."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["topology_seed", "member", "rd_global", "rd_local"])
    for point in result.points:
        writer.writerow(
            [
                point.topology_seed,
                point.member,
                f"{point.rd_global:.6f}",
                f"{point.rd_local:.6f}",
            ]
        )
    return buffer.getvalue()


def sweep_to_json(parameter_name: str, points: Sequence[SweepPoint]) -> str:
    """Nested JSON record of a sweep, including scenario counts."""
    payload = {
        "parameter": parameter_name,
        "points": [
            {
                "value": point.parameter,
                "scenarios": len(point.scenarios),
                "avg_degree": point.average_degree,
                "rd_relative": _summary_dict(point.rd_relative),
                "delay_relative": _summary_dict(point.delay_relative),
                "cost_relative": _summary_dict(point.cost_relative),
                "unrecoverable_members": point.unrecoverable_members,
            }
            for point in points
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def sweep_to_markdown(
    title: str, parameter_name: str, points: Sequence[SweepPoint]
) -> str:
    """A Markdown table in the EXPERIMENTS.md house style."""
    lines = [
        f"## {title}",
        "",
        f"| {parameter_name} | RD_relative | D_relative | Cost_relative |",
        "|---|---|---|---|",
    ]
    for point in points:
        lines.append(
            f"| {point.label} | {format_summary(point.rd_relative)} | "
            f"{format_summary(point.delay_relative)} | "
            f"{format_summary(point.cost_relative)} |"
        )
    return "\n".join(lines)


def _summary_dict(summary) -> dict:
    return {
        "n": summary.n,
        "mean": summary.mean,
        "std": summary.std,
        "ci_low": summary.ci_low,
        "ci_high": summary.ci_high,
    }
