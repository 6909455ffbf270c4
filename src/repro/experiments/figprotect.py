"""Protection figure family: reactive vs. precomputed restoration.

The paper's evaluation compares SMRP's local detour against the global
(PIM/MOSPF) detour.  The protection family adds the proactive design
points — per-link backup trees and precomputed alternate paths — and
this driver places all five on one table: for a grid of failure *rates*
(the fraction of candidate tree links failed per trial), it measures
restoration latency, recovery distance, restored/unrecoverable member
counts, and the standing state each mode pays for its speed:

========== =========================================================
``local``   SMRP tree, reactive local detours (no standing state)
``global``  SPF tree, re-convergence + re-join (no standing state)
``backup``  SPF tree + per-link backup trees (budget ``F``); covered
            failures switch over at recovery distance zero
``hybrid``  SMRP tree + per-link backup trees; uncovered failures use
            the local detour
``alternate`` SPF tree + per-member precomputed single-failure routes;
            misses fall back to the global detour
========== =========================================================

Every :class:`ProtectionPoint` is a work unit on the standard executor
protocol (``run(obs=..., cache=...)`` / ``content_key()`` /
``describe()``), so the family runs serial, or pooled with
checkpoint/resume — :class:`ProtectionPointResult` registers under the
``"protection_point"`` checkpoint type — and the rendered table is
byte-identical across all of them (the CI ``protection-smoke`` job
diffs it for real).  All measurements are *non-mutating*: each trial
plans the repair against the same pre-failure trees, so trials are
independent and their order is immaterial.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.core.recovery import estimate_restoration_latency, repair_tree
from repro.errors import CheckpointError, ConfigurationError
from repro.experiments.scenario import validate_scenario_params
from repro.experiments.tables import format_table
from repro.multicast.backup_trees import (
    DEFAULT_BUDGET,
    AlternatePathProtocol,
    BackupTreeProtocol,
)
from repro.multicast.group import random_member_set
from repro.multicast.spf_protocol import SPFMulticastProtocol
from repro.obs import NULL_OBS
from repro.obs.jsonl import digest
from repro.routing.failure_view import FailureSet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.exec.executor import Executor

#: Bumped when :class:`ProtectionPointResult`'s serialised layout
#: changes, so stale checkpoints are refused instead of misread.
PROTECT_PAYLOAD_VERSION = 1

#: Restoration modes, in render order.
MODES = ("local", "global", "backup", "hybrid", "alternate")


def _blank_mode_stats() -> dict:
    return {
        "trials_affected": 0,
        "members_cut": 0,
        "restored": 0,
        "unrecoverable": 0,
        "rd_sum": 0.0,
        "latency_sum": 0.0,
        "latency_max": 0.0,
        "switchover_trials": 0,
        "fallback_trials": 0,
        "strategies": {},
        "standing_links": 0,
        "standing_cost": 0.0,
    }


@dataclass(frozen=True)
class ProtectionPoint:
    """One grid point: a (topology, member set, failure rate) cell.

    ``failure_rate`` is the fraction of candidate links (the union of
    all five modes' tree links) failed per trial, at least one; each of
    the ``trials`` draws is seeded from
    ``(topology_seed, member_seed, trial)`` so the same point always
    fails the same links wherever it runs.
    """

    failure_rate: float
    n: int = 100
    group_size: int = 12
    alpha: float = 0.2
    beta: float = 0.25
    d_thresh: float = 0.3
    budget: int = DEFAULT_BUDGET
    trials: int = 3
    topology_seed: int = 0
    member_seed: int = 0

    def __post_init__(self) -> None:
        validate_scenario_params(
            n=self.n,
            group_size=self.group_size,
            alpha=self.alpha,
            beta=self.beta,
            d_thresh=self.d_thresh,
            knowledge="full",
        )
        if not 0 < self.failure_rate <= 1:
            raise ConfigurationError(
                f"failure_rate must be in (0, 1], got {self.failure_rate}"
            )
        if self.budget < 0:
            raise ConfigurationError(
                f"budget must be >= 0, got {self.budget}"
            )
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")

    def waxman_config(self):
        from repro.graph.waxman import WaxmanConfig

        return WaxmanConfig(
            n=self.n, alpha=self.alpha, beta=self.beta, seed=self.topology_seed
        )

    def content_key(self) -> str:
        return digest({"kind": "protection_point", **asdict(self)})

    def describe(self) -> str:
        return (
            f"protection point rate={self.failure_rate:g} N={self.n} "
            f"N_G={self.group_size} F={self.budget} "
            f"seeds=({self.topology_seed},{self.member_seed})"
        )

    def run(self, obs=None, cache=None) -> "ProtectionPointResult":
        """Build all five engines once, then measure every trial.

        The engines share the executor's route cache, so the five
        builds (and the backup state ``standing_links`` computes)
        mostly reuse one another's SPF runs.  Per-trial measurement
        never mutates an engine: ``local``/``global`` plan through
        :func:`~repro.core.recovery.repair_tree` on the standing tree,
        the protection family through its ``plan_repair``.
        """
        obs = obs if obs is not None else NULL_OBS
        if cache is None:
            from repro.experiments.exec.cache import SubstrateCache

            cache = SubstrateCache()
        topology = cache.topology_for(self, obs=obs)
        routes = cache.routes
        rng = np.random.default_rng(self.member_seed)
        source = int(rng.integers(self.n))
        members = random_member_set(topology, source, self.group_size, rng)

        smrp_config = SMRPConfig(d_thresh=self.d_thresh, self_check=False)
        engines = {
            "local": SMRPProtocol(
                topology, source, config=smrp_config, obs=obs,
                route_cache=routes,
            ),
            "global": SPFMulticastProtocol(
                topology, source, self_check=False, route_cache=routes,
                obs=obs,
            ),
            "backup": BackupTreeProtocol(
                topology, source, mode="protection", budget=self.budget,
                route_cache=routes, obs=obs,
            ),
            "hybrid": BackupTreeProtocol(
                topology, source, mode="hybrid", budget=self.budget,
                smrp_config=smrp_config, route_cache=routes, obs=obs,
            ),
            "alternate": AlternatePathProtocol(
                topology, source, route_cache=routes, obs=obs,
            ),
        }
        stats = {mode: _blank_mode_stats() for mode in MODES}
        for mode in MODES:
            engines[mode].build(list(members))
            standing = getattr(engines[mode], "standing_links", None)
            if standing is not None:
                links = standing()
                stats[mode]["standing_links"] = len(links)
                stats[mode]["standing_cost"] = round(
                    sum(topology.cost(u, v) for u, v in links), 6
                )

        candidates = sorted(
            set().union(*(engines[mode].tree.tree_links() for mode in MODES))
        )
        per_trial = min(
            max(1, round(self.failure_rate * len(candidates))), len(candidates)
        )
        for trial in range(self.trials):
            trial_rng = np.random.default_rng(
                [self.topology_seed, self.member_seed, trial]
            )
            picked = trial_rng.choice(
                len(candidates), size=per_trial, replace=False
            )
            failures = FailureSet.links(
                *(candidates[i] for i in sorted(picked))
            )
            for mode in MODES:
                engine = engines[mode]
                cut = engine.tree.disconnected_members(failures)
                if mode in ("local", "global"):
                    report = repair_tree(
                        topology,
                        engine.tree,
                        failures,
                        strategy=mode,
                        obs=obs,
                        route_cache=routes,
                    )
                else:
                    report = engine.plan_repair(failures)
                entry = stats[mode]
                entry["members_cut"] += len(cut)
                if cut:
                    entry["trials_affected"] += 1
                entry["unrecoverable"] += len(report.unrecoverable)
                if report.strategy == "backup":
                    entry["switchover_trials"] += 1
                elif mode in ("backup", "hybrid") and cut:
                    entry["fallback_trials"] += 1
                restored = [
                    r for r in report.recoveries if not r.already_connected
                ]
                entry["restored"] += len(restored)
                entry["rd_sum"] = round(
                    entry["rd_sum"]
                    + sum(r.recovery_distance for r in restored),
                    6,
                )
                for recovery in restored:
                    latency = estimate_restoration_latency(
                        topology, report.repaired_tree, recovery, failures
                    )
                    entry["latency_sum"] = round(
                        entry["latency_sum"] + latency, 6
                    )
                    entry["latency_max"] = round(
                        max(entry["latency_max"], latency), 6
                    )
                    strategies = entry["strategies"]
                    strategies[recovery.strategy] = (
                        strategies.get(recovery.strategy, 0) + 1
                    )
        return ProtectionPointResult(
            point_key=self.content_key(),
            failure_rate=self.failure_rate,
            budget=self.budget,
            trials=self.trials,
            links_failed_per_trial=per_trial,
            modes=stats,
        )


@dataclass
class ProtectionPointResult:
    """One grid point's outcome — plain data, checkpointable."""

    #: Checkpoint type tag (see ``repro.experiments.exec.checkpoint``).
    checkpoint_type = "protection_point"

    point_key: str
    failure_rate: float
    budget: int
    trials: int
    links_failed_per_trial: int
    modes: dict = field(default_factory=dict)
    payload_version: int = PROTECT_PAYLOAD_VERSION

    def to_dict(self) -> dict:
        return {
            "payload_version": self.payload_version,
            "point_key": self.point_key,
            "failure_rate": self.failure_rate,
            "budget": self.budget,
            "trials": self.trials,
            "links_failed_per_trial": self.links_failed_per_trial,
            "modes": self.modes,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ProtectionPointResult":
        version = payload.get("payload_version")
        if version != PROTECT_PAYLOAD_VERSION:
            raise CheckpointError(
                f"protection point payload version {version!r} is not "
                f"{PROTECT_PAYLOAD_VERSION}; refusing to reinterpret"
            )
        return cls(**payload)


@dataclass
class ProtectionFigureResult:
    """Merged grid, rendered as the resource-vs-recovery-speed table.

    Aggregation and rendering depend only on the merged results (in
    work-unit order) — never on executor kind or scheduling — which is
    what the serial/pooled/resumed byte-identity guarantee is
    asserted against.
    """

    budget: int
    results: list[ProtectionPointResult] = field(default_factory=list)

    def aggregate(self) -> dict:
        """``{failure_rate: {mode: summed stats}}``, rates ascending."""
        merged: dict = {}
        for result in self.results:
            by_mode = merged.setdefault(result.failure_rate, {})
            for mode, entry in result.modes.items():
                into = by_mode.setdefault(mode, _blank_mode_stats())
                for key in (
                    "trials_affected", "members_cut", "restored",
                    "unrecoverable", "switchover_trials", "fallback_trials",
                    "standing_links",
                ):
                    into[key] += entry[key]
                for key in ("rd_sum", "latency_sum", "standing_cost"):
                    into[key] = round(into[key] + entry[key], 6)
                into["latency_max"] = max(
                    into["latency_max"], entry["latency_max"]
                )
                for strategy, count in entry["strategies"].items():
                    into["strategies"][strategy] = (
                        into["strategies"].get(strategy, 0) + count
                    )
        return dict(sorted(merged.items()))

    def render(self) -> str:
        merged = self.aggregate()
        if not merged:
            return "no protection points were run"
        rows = []
        for rate, by_mode in merged.items():
            for mode in MODES:
                if mode not in by_mode:
                    continue
                entry = by_mode[mode]
                restored = entry["restored"]
                mean_rd = entry["rd_sum"] / restored if restored else 0.0
                mean_latency = (
                    entry["latency_sum"] / restored if restored else 0.0
                )
                provenance = "+".join(
                    f"{count}{strategy[0]}"
                    for strategy, count in sorted(entry["strategies"].items())
                ) or "-"
                rows.append([
                    f"{rate:g}",
                    mode,
                    str(entry["members_cut"]),
                    str(restored),
                    str(entry["unrecoverable"]),
                    f"{mean_rd:.2f}",
                    f"{mean_latency:.1f}",
                    f"{entry['latency_max']:.1f}",
                    provenance,
                    str(entry["standing_links"]),
                    f"{entry['standing_cost']:.1f}",
                ])
        table = format_table(
            [
                "rate", "mode", "cut", "restored", "unrec", "mean-RD",
                "mean-lat", "worst-lat", "via", "standing", "state-cost",
            ],
            rows,
        )
        points = len(self.results)
        return (
            f"{table}\n"
            f"({points} grid points, budget F={self.budget}; 'via' counts "
            "restored members by strategy — a=alternate, b=backup, "
            "g=global, l=local; 'standing'/'state-cost' are links reserved "
            "beyond the working tree, the price of precomputation)"
        )


def run_protection_figure(
    rates: tuple = (0.02, 0.05, 0.1),
    n: int = 100,
    group_size: int = 12,
    alpha: float = 0.2,
    d_thresh: float = 0.3,
    budget: int = DEFAULT_BUDGET,
    trials: int = 3,
    topologies: int = 4,
    member_sets: int = 2,
    seed_offset: int = 0,
    obs=None,
    executor: "Executor | None" = None,
) -> ProtectionFigureResult:
    """Run the protection grid: every rate x topology x member set.

    The points run on ``executor``, which stays open (a transient serial
    one by default).  Results merge in work-unit order, so the rendered
    table is identical however the points were scheduled.
    """
    from repro.experiments.exec.executor import SerialExecutor

    points = [
        ProtectionPoint(
            failure_rate=rate,
            n=n,
            group_size=group_size,
            alpha=alpha,
            d_thresh=d_thresh,
            budget=budget,
            trials=trials,
            topology_seed=seed_offset + t,
            member_seed=seed_offset + 5000 + m,
        )
        for rate in rates
        for t in range(topologies)
        for m in range(member_sets)
    ]
    executor = executor if executor is not None else SerialExecutor()
    results = executor.map_units(points, obs=obs)
    return ProtectionFigureResult(budget=budget, results=list(results))
