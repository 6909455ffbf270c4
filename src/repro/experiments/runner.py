"""Run one scenario: build both trees, fail worst-case links, measure.

For a scenario this runner reproduces the paper's §4.2/§4.3 procedure:

1. build the multicast tree twice over the same topology and join order —
   once with SMRP, once with the SPF baseline;
2. for every member, apply the *worst-case* failure (the source-incident
   link on that member's path — evaluated separately per tree, since the
   trees route members differently);
3. measure the recovery distance: **local detour on the SMRP tree** vs.
   **global detour (post-re-convergence SPF re-join) on the SPF tree** —
   the two complete systems the paper contrasts;
4. measure end-to-end delays per member and the total tree cost on both
   trees.

Cross strategies (local detour on the SPF tree, global on SMRP) are also
recorded so the ablation benches can separate how much of the win comes
from the tree shape versus the recovery rule.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from repro.graph.topology import NodeId, Topology
from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.metrics.recovery_metrics import worst_case_recovery
from repro.metrics.relative import (
    relative_cost,
    relative_delay,
    relative_recovery_distance,
)
from repro.multicast.spf_protocol import SPFMulticastProtocol
from repro.multicast.tree import MulticastTree
from repro.obs import NULL_OBS, Observability
from repro.experiments.scenario import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.exec.cache import SubstrateCache


@dataclass
class MemberMeasurement:
    """Per-member outcome of one scenario."""

    member: NodeId
    rd_spf_global: float | None
    rd_smrp_local: float | None
    rd_spf_local: float | None
    rd_smrp_global: float | None
    delay_spf: float
    delay_smrp: float

    @property
    def comparable(self) -> bool:
        """True when both headline strategies produced a recovery."""
        return (
            self.rd_spf_global is not None
            and self.rd_smrp_local is not None
            and self.rd_spf_global > 0
        )

    def __repr__(self) -> str:
        def fmt(value: float | None) -> str:
            return f"{value:.1f}" if value is not None else "—"

        return (
            f"<MemberMeasurement {self.member}: "
            f"RD spf={fmt(self.rd_spf_global)} smrp={fmt(self.rd_smrp_local)}, "
            f"delay spf={self.delay_spf:.1f} smrp={self.delay_smrp:.1f}>"
        )


@dataclass
class ScenarioResult:
    """Everything measured in one scenario."""

    config: ScenarioConfig
    source: NodeId
    members: list[NodeId]
    average_degree: float
    cost_spf: float
    cost_smrp: float
    measurements: list[MemberMeasurement] = field(default_factory=list)
    smrp_fallback_joins: int = 0
    smrp_reshapes: int = 0

    # -- the paper's relative metrics -----------------------------------
    @property
    def rd_relative(self) -> list[float]:
        """``RD_relative`` per member (positive: SMRP recovers shorter)."""
        return [
            relative_recovery_distance(m.rd_spf_global, m.rd_smrp_local)
            for m in self.measurements
            if m.comparable
        ]

    @property
    def delay_relative(self) -> list[float]:
        """``D_relative`` per member (positive: SMRP's delay penalty)."""
        return [
            relative_delay(m.delay_spf, m.delay_smrp)
            for m in self.measurements
            if m.delay_spf > 0
        ]

    @property
    def cost_relative(self) -> float:
        """``Cost_relative`` of the whole tree."""
        return relative_cost(self.cost_spf, self.cost_smrp)

    @property
    def unrecoverable_members(self) -> int:
        return sum(1 for m in self.measurements if not m.comparable)

    # -- checkpoint (de)serialization -----------------------------------
    #: Payload layout version, bumped whenever the dict shape changes so a
    #: stale checkpoint is rejected instead of half-read.
    PAYLOAD_VERSION = 1

    def to_dict(self) -> dict:
        """JSON-ready payload that round-trips exactly through
        :meth:`from_dict` (Python's JSON float encoding is lossless, so a
        restored result is ``==`` to the original — the checkpoint suite
        asserts byte-identical rendered tables)."""
        return {
            "version": self.PAYLOAD_VERSION,
            "config": asdict(self.config),
            "source": self.source,
            "members": list(self.members),
            "average_degree": self.average_degree,
            "cost_spf": self.cost_spf,
            "cost_smrp": self.cost_smrp,
            "smrp_fallback_joins": self.smrp_fallback_joins,
            "smrp_reshapes": self.smrp_reshapes,
            "measurements": [asdict(m) for m in self.measurements],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioResult":
        from repro.errors import CheckpointError

        version = payload.get("version")
        if version != cls.PAYLOAD_VERSION:
            raise CheckpointError(
                f"unsupported ScenarioResult payload version {version!r} "
                f"(expected {cls.PAYLOAD_VERSION})"
            )
        return cls(
            config=ScenarioConfig(**payload["config"]),
            source=payload["source"],
            members=list(payload["members"]),
            average_degree=payload["average_degree"],
            cost_spf=payload["cost_spf"],
            cost_smrp=payload["cost_smrp"],
            smrp_fallback_joins=payload["smrp_fallback_joins"],
            smrp_reshapes=payload["smrp_reshapes"],
            measurements=[
                MemberMeasurement(**m) for m in payload["measurements"]
            ],
        )

    def summary(self) -> str:
        """One-line digest: member count, costs, and the headline metrics."""
        parts = [
            f"{len(self.members)} members",
            f"cost spf={self.cost_spf:.1f} smrp={self.cost_smrp:.1f} "
            f"({self.cost_relative:+.1%})",
        ]
        rd = self.rd_relative
        if rd:
            parts.append(f"RD_rel mean {sum(rd) / len(rd):+.1%} (n={len(rd)})")
        delays = self.delay_relative
        if delays:
            parts.append(f"D_rel mean {sum(delays) / len(delays):+.1%}")
        if self.smrp_reshapes:
            parts.append(f"{self.smrp_reshapes} reshapes")
        if self.unrecoverable_members:
            parts.append(f"{self.unrecoverable_members} unrecoverable")
        return ", ".join(parts)

    def __repr__(self) -> str:
        return f"<ScenarioResult {self.config.describe()}: {self.summary()}>"


def run_scenario(
    config: ScenarioConfig,
    obs: Observability | None = None,
    cache: "SubstrateCache | None" = None,
) -> ScenarioResult:
    """Execute one scenario end to end.

    Passing an enabled :class:`~repro.obs.Observability` yields span
    timings for each stage (topology, both tree builds, measurement),
    the SMRP engine's counters, and recovery-path hop histograms.

    Passing a :class:`~repro.experiments.exec.cache.SubstrateCache`
    reuses generated topologies and failure-free SPF state across
    scenarios; results are identical with or without it (topologies are
    deterministic functions of their config, and cached routes are
    exactly what Dijkstra would recompute).
    """
    obs = obs if obs is not None else NULL_OBS
    if obs.tracer is not None:
        # Episode ids and headers carry the scenario content key, the same
        # key checkpoints and flight records use — traces join offline.
        obs.tracer.begin_scenario(config.content_key())
    route_cache = cache.routes if cache is not None else None
    with obs.span("scenario.topology"):
        if cache is not None:
            topology = cache.topology_for(config, obs=obs)
        else:
            topology = config.build_topology()
        source, members = config.pick_participants(topology)

    with obs.span("scenario.build.spf"):
        spf = SPFMulticastProtocol(
            topology, source, self_check=False, route_cache=route_cache, obs=obs
        )
        spf_tree = spf.build(members)

    with obs.span("scenario.build.smrp"):
        smrp = SMRPProtocol(
            topology,
            source,
            config=SMRPConfig(
                d_thresh=config.d_thresh,
                reshape_enabled=config.reshape_enabled,
                knowledge=config.knowledge,
                self_check=False,
            ),
            obs=obs,
            route_cache=route_cache,
        )
        smrp_tree = smrp.build(members)

    result = ScenarioResult(
        config=config,
        source=source,
        members=members,
        average_degree=topology.average_degree(),
        cost_spf=spf_tree.tree_cost(),
        cost_smrp=smrp_tree.tree_cost(),
        smrp_fallback_joins=smrp.stats.fallback_joins,
        smrp_reshapes=smrp.stats.reshapes_performed,
    )
    with obs.span("scenario.measure"):
        for member in members:
            result.measurements.append(
                _measure_member(
                    topology,
                    spf_tree,
                    smrp_tree,
                    member,
                    obs=obs,
                    route_cache=route_cache,
                )
            )
    obs.counter("scenario.runs").inc()
    return result


def _measure_member(
    topology: Topology,
    spf_tree: MulticastTree,
    smrp_tree: MulticastTree,
    member: NodeId,
    obs: Observability | None = None,
    route_cache=None,
) -> MemberMeasurement:
    # The paired strategies share one worst-case failure per tree, so with
    # a failure-aware route cache each member costs at most two post-failure
    # SPF computations (often zero, by reuse proof) instead of four.  The
    # cross-strategy measurements pass obs only as route_obs: cache traffic
    # is reported, recovery attempt counters count each member once.
    spf_global = worst_case_recovery(
        topology, spf_tree, member, strategy="global", obs=obs, route_cache=route_cache
    )
    spf_local = worst_case_recovery(
        topology,
        spf_tree,
        member,
        strategy="local",
        route_cache=route_cache,
        route_obs=obs,
    )
    smrp_local = worst_case_recovery(
        topology, smrp_tree, member, strategy="local", obs=obs, route_cache=route_cache
    )
    smrp_global = worst_case_recovery(
        topology,
        smrp_tree,
        member,
        strategy="global",
        route_cache=route_cache,
        route_obs=obs,
    )

    def rd(measurement) -> float | None:
        return measurement.recovery_distance if measurement.recovered else None

    return MemberMeasurement(
        member=member,
        rd_spf_global=rd(spf_global),
        rd_smrp_local=rd(smrp_local),
        rd_spf_local=rd(spf_local),
        rd_smrp_global=rd(smrp_global),
        delay_spf=spf_tree.delay_from_source(member),
        delay_smrp=smrp_tree.delay_from_source(member),
    )
