"""Restoration-latency distribution figures: percentiles over thousands
of groups.

Every other figure family reports *means*; this one reports the shape.
For each engine it hosts ``groups`` controller sessions on the shared
topology, injects the spec's failure, and aggregates every affected
group's restoration latency — both the slowest-member ``latency_s``
(the group is restored when its last member is) and the per-group
``mean_latency_s`` — into :class:`~repro.obs.registry.HdrHistogram`
quantile trackers.  The rendered table is p50/p90/p99/p99.9/max/mean
per engine: tail behaviour is where precomputed protection
differentiates from reactive repair, and a p99.9 over thousands of
groups is the honest version of that claim.

Execution rides the controller's existing work-unit protocol: the
engines' :class:`~repro.controller.service.ServiceShard` units are
concatenated into **one** executor batch (so a process pool interleaves
engines freely) and results are re-grouped by engine afterwards.
Because hdr histograms derive every reported value from merged integer
bucket counts — never a running float sum — the table is byte-identical
across serial, pooled, faulted, and checkpoint-resumed runs
(``benchmarks/test_goldens.py`` diffs it for real; shard checkpoints
reuse the ``"service_shard"`` type).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.controller.controller import ENGINES
from repro.controller.service import ServiceShard, plan_shards
from repro.controller.spec import ServiceSpec
from repro.errors import ConfigurationError
from repro.experiments.tables import format_table
from repro.multicast.backup_trees import DEFAULT_BUDGET
from repro.obs import NULL_OBS
from repro.obs.registry import HdrHistogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.exec.executor import Executor

#: Quantiles rendered per engine/metric row.
QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.5),
    ("p90", 0.9),
    ("p99", 0.99),
    ("p99.9", 0.999),
)


def build_engine_spec(
    engine: str,
    groups: int,
    *,
    n: int = 100,
    alpha: float = 0.2,
    beta: float = 0.25,
    topology_seed: int = 0,
    member_seed: int = 0,
    sources: int = 8,
    d_thresh: float = 0.3,
    protect_budget: int = DEFAULT_BUDGET,
    workload: str = "static",
    failure: str = "auto",
    shard_size: int = 250,
) -> ServiceSpec:
    """One engine's :class:`ServiceSpec` — identical population, failure,
    and shard cuts for every engine, so the engines differ *only* in how
    they restore."""
    return ServiceSpec(
        n=n,
        alpha=alpha,
        beta=beta,
        topology_seed=topology_seed,
        member_seed=member_seed,
        groups=groups,
        sources=sources,
        protocol=engine,
        d_thresh=d_thresh,
        protect_budget=protect_budget,
        workload=workload,
        failure=failure,
        shard_size=shard_size,
    )


@dataclass
class EngineDistribution:
    """One engine's merged outcome: rows plus the two latency histograms.

    ``worst`` holds the slowest-member latency of each restored group,
    ``mean`` the group-mean latency; ``n`` (their common count) excludes
    affected groups with zero restored members — they have no latency.
    """

    engine: str
    spec: ServiceSpec
    failure: str
    members: int
    events: int
    rows: tuple
    worst: HdrHistogram
    mean: HdrHistogram

    @property
    def affected(self) -> int:
        return len(self.rows)

    @property
    def restored(self) -> int:
        return sum(row.restored for row in self.rows)

    @property
    def unrecoverable(self) -> int:
        return sum(row.unrecoverable for row in self.rows)


@dataclass
class DistributionResult:
    """The merged figure: one :class:`EngineDistribution` per engine."""

    groups: int
    engines: list[EngineDistribution] = field(default_factory=list)

    def render(self) -> str:
        if not self.engines:
            return "no engines were run"
        spec = self.engines[0].spec
        lines = [
            "== restoration-latency distribution ==",
            f"population: {self.groups} groups per engine on waxman "
            f"n={spec.n} alpha={spec.alpha:g} seed={spec.topology_seed} "
            f"(sources={spec.sources}, workload={spec.workload})",
            f"failure: {self.engines[0].failure}",
            "",
        ]
        summary_rows = [
            (
                dist.engine,
                str(self.groups),
                str(dist.members),
                str(dist.affected),
                str(dist.restored),
                str(dist.unrecoverable),
            )
            for dist in self.engines
        ]
        lines.append(
            format_table(
                ("engine", "groups", "members", "affected", "restored",
                 "unrec"),
                summary_rows,
            )
        )
        lines.append("")
        lines.append(
            "latency quantiles over restored groups "
            "('worst' = slowest member, 'mean' = group mean; "
            "model time units):"
        )
        quantile_rows = []
        for dist in self.engines:
            for label, hist in (("worst", dist.worst), ("mean", dist.mean)):
                cells = [dist.engine, label, str(hist.count)]
                if hist.count:
                    cells.extend(
                        f"{hist.quantile(q):.1f}" for _, q in QUANTILES
                    )
                    cells.append(f"{hist.max:.1f}")
                    cells.append(f"{hist.mean:.1f}")
                else:
                    cells.extend("—" for _ in range(len(QUANTILES) + 2))
                quantile_rows.append(cells)
        lines.append(
            format_table(
                ("engine", "metric", "n",
                 *(label for label, _ in QUANTILES), "max", "mean"),
                quantile_rows,
            )
        )
        return "\n".join(lines)


def run_distribution_figure(
    engines: tuple = tuple(ENGINES),
    groups: int = 2000,
    n: int = 100,
    alpha: float = 0.2,
    sources: int = 8,
    d_thresh: float = 0.3,
    protect_budget: int = DEFAULT_BUDGET,
    workload: str = "static",
    failure: str = "auto",
    shard_size: int = 250,
    topology_seed: int = 0,
    member_seed: int = 0,
    obs=None,
    executor: "Executor | None" = None,
) -> DistributionResult:
    """Run every engine's shards as one batch; aggregate per engine.

    The shards run on ``executor``, which stays open (a transient serial
    one by default).  The per-engine histograms are rebuilt from the
    merged rows parent-side, so scheduling cannot influence any rendered
    value.
    """
    from repro.experiments.exec.executor import SerialExecutor

    obs = obs if obs is not None else NULL_OBS
    if not engines:
        raise ConfigurationError("distribution figure needs >= 1 engine")
    specs = [
        build_engine_spec(
            engine,
            groups,
            n=n,
            alpha=alpha,
            topology_seed=topology_seed,
            member_seed=member_seed,
            sources=sources,
            d_thresh=d_thresh,
            protect_budget=protect_budget,
            workload=workload,
            failure=failure,
            shard_size=shard_size,
        )
        for engine in engines
    ]
    batches: list[list[ServiceShard]] = [plan_shards(spec) for spec in specs]
    flat = [shard for shards in batches for shard in shards]
    executor = executor if executor is not None else SerialExecutor()
    results = executor.map_units(flat, obs=obs)

    out = DistributionResult(groups=groups)
    cursor = 0
    for spec, shards in zip(specs, batches):
        engine_results = results[cursor:cursor + len(shards)]
        cursor += len(shards)
        rows: list = []
        members = 0
        events = 0
        failure_text = "no failures"
        for result in engine_results:
            rows.extend(result.rows)
            members += result.members
            events += result.events
            failure_text = result.failure
        worst = HdrHistogram(f"dist.latency.{spec.protocol}")
        mean = HdrHistogram(f"dist.mean_latency.{spec.protocol}")
        obs_worst = obs.hdr_histogram(f"dist.latency.{spec.protocol}")
        obs_mean = obs.hdr_histogram(f"dist.mean_latency.{spec.protocol}")
        for row in rows:
            if not row.restored:
                continue  # nothing came back: no latency to speak of
            worst.observe(row.latency_s)
            mean.observe(row.mean_latency_s)
            obs_worst.observe(row.latency_s)
            obs_mean.observe(row.mean_latency_s)
        obs.counter("dist.groups").inc(spec.groups)
        obs.counter("dist.rows").inc(len(rows))
        out.engines.append(
            EngineDistribution(
                engine=spec.protocol,
                spec=spec,
                failure=failure_text,
                members=members,
                events=events,
                rows=tuple(rows),
                worst=worst,
                mean=mean,
            )
        )
    return out
