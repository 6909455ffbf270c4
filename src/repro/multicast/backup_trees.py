"""Per-link backup trees and the protection-mode protocol family.

SMRP restores *reactively*; production fast-reroute precomputes.  This
module adds the proactive design points the ROADMAP's "Precomputed
protection" item names, modelled on the TUDelft ``PerLinkTreeBuilder``
Fast Failover scheme: with a protected-link budget ``F``, the builder
ranks the current tree's links by *load* (the member count of the
subtree each link carries, the paper's ``N_R``), and for each of the
top-``F`` links installs — before any failure — the complete tree the
session would rebuild if exactly that link failed.  A failure hitting a
protected link is then survived by an instant **switchover**: the
pre-installed tree takes over, recovery distance zero, latency equal to
the detection delay alone.

Three engines make the family selectable wherever SMRP/SPF are today
(the controller's engine table
:data:`~repro.controller.controller.ENGINES`, from which
:class:`~repro.controller.spec.ServiceSpec` and the CLI's
``--protocol`` derive their choices):

``protection``
    SPF base tree + per-link backup trees; failures no backup covers
    fall back to the global (re-convergence) detour.
``hybrid``
    SMRP base tree + per-link backup trees; uncovered failures fall
    back to SMRP's local detour — precomputed speed where the budget
    reaches, short reactive detours everywhere else.
``alternate``
    SPF base tree + per-member Bhosle–Gonzalez single-failure alternate
    routes (:mod:`repro.routing.alternate`): a disconnected member
    re-joins over its precomputed route with no re-convergence wait,
    falling back to the global detour when no precomputed route
    survives the failure.

Backup state is recomputed lazily after membership churn (a real
deployment installs it at change time; computing it at the next use
yields the identical state for a fraction of the work) and accounted as
*standing state*: links the backups reserve beyond the working tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.core.recovery import (
    RecoveryResult,
    TreeRepairReport,
    _already_connected,
    _truncate_at_first_contact,
    global_detour_recovery,
    repair_tree,
    surviving_subtree,
)
from repro.errors import ConfigurationError, UnrecoverableFailureError
from repro.graph.topology import Edge, NodeId, Topology, edge_key
from repro.multicast.spf_protocol import SPFMulticastProtocol
from repro.multicast.tree import MulticastTree
from repro.obs import NULL_OBS
from repro.routing.alternate import AlternateRouteTable, build_alternate_table
from repro.routing.failure_view import FailureSet

#: Default protected-link budget ``F`` (the TUDelft builder's parameter).
DEFAULT_BUDGET = 4


def protected_links(tree: MulticastTree, budget: int) -> list[Edge]:
    """The top-``budget`` most-loaded tree links, most-loaded first.

    A link's load is ``N_R`` of its downstream end — the members the
    link carries.  Equal loads break ties by canonical edge key, so the
    protected set is a deterministic function of the tree.
    """
    if budget < 0:
        raise ConfigurationError(f"budget must be >= 0, got {budget}")
    ranked = []
    for edge in sorted(tree.tree_links()):
        u, v = edge
        downstream = v if tree.parent(v) == u else u
        ranked.append((-tree.subtree_member_count(downstream), edge))
    ranked.sort()
    return [edge for _, edge in ranked[:budget]]


@dataclass(frozen=True)
class BackupTree:
    """The pre-installed tree for one protected link's failure.

    ``tree`` is exactly what :func:`~repro.core.recovery.repair_tree`
    would rebuild after that failure (the switchover-equivalence
    property the test suite asserts); ``unprotectable`` lists members
    the rebuild could not reach (the link is a bridge for them).
    """

    link: Edge
    tree: MulticastTree
    unprotectable: tuple[NodeId, ...] = ()


class PerLinkBackupTrees:
    """The protected-link set and its pre-installed backup trees.

    ``strategy`` selects how backups are *computed* (the fallback
    strategy of the owning engine, so a switchover is indistinguishable
    from a fresh post-failure rebuild); switchover itself never runs a
    path search.
    """

    def __init__(
        self,
        topology: Topology,
        budget: int = DEFAULT_BUDGET,
        strategy: str = "local",
        route_cache=None,
        obs=None,
    ) -> None:
        self.topology = topology
        self.budget = budget
        self.strategy = strategy
        self.route_cache = route_cache
        self.obs = obs if obs is not None else NULL_OBS
        self._backups: dict[Edge, BackupTree] = {}
        self._built_for: MulticastTree | None = None
        self._dirty = True

    def mark_dirty(self) -> None:
        self._dirty = True

    def ensure(self, tree: MulticastTree) -> None:
        """(Re)compute the backups for ``tree`` if anything changed."""
        if not self._dirty and self._built_for is tree:
            return
        self._backups = {}
        for link in protected_links(tree, self.budget):
            failures = FailureSet.links(link)
            # Precomputation is bookkeeping, not restoration: run it
            # under a silent obs so recovery.* counters and traced
            # episodes keep meaning "a failure actually happened".
            report = repair_tree(
                self.topology,
                tree,
                failures,
                strategy=self.strategy,
                obs=NULL_OBS,
                route_cache=self.route_cache,
            )
            self._backups[link] = BackupTree(
                link=link,
                tree=report.repaired_tree,
                unprotectable=tuple(sorted(report.unrecoverable)),
            )
        self._built_for = tree
        self._dirty = False
        self.obs.counter("protection.backups_built").inc(len(self._backups))

    def links(self) -> list[Edge]:
        """The protected links, most-loaded first."""
        return list(self._backups)

    def lookup(self, failures: FailureSet) -> BackupTree | None:
        """The first pre-installed tree that survives ``failures`` whole.

        A backup covers the failure when its protected link is among the
        failed links and the stored tree touches no failed component —
        then every member it reaches is served the instant traffic
        switches over.  Checked in load-rank order, so coverage is
        deterministic under multi-failures too.
        """
        if not failures.failed_links:
            return None
        for backup in self._backups.values():
            if backup.link not in failures.failed_links:
                continue
            if backup.tree.affected_by(failures):
                continue
            return backup
        return None

    def standing_links(self, tree: MulticastTree) -> set[Edge]:
        """Links the backups reserve beyond the working tree."""
        working = tree.tree_links()
        standing: set[Edge] = set()
        for backup in self._backups.values():
            standing |= backup.tree.tree_links() - working
        return standing

    def standing_cost(self, tree: MulticastTree) -> float:
        return sum(
            self.topology.cost(u, v) for u, v in self.standing_links(tree)
        )


class BackupTreeProtocol:
    """Protection-mode engine: base protocol + per-link backup trees.

    ``mode="protection"`` wraps the SPF baseline (global-detour
    fallback); ``mode="hybrid"`` wraps SMRP (local-detour fallback).
    Implements the engine interface the controller hosts (``tree`` /
    ``join`` / ``leave`` / ``build`` / ``repair``), so the modes slot in
    wherever ``smrp`` and ``spf`` do.
    """

    MODES = ("protection", "hybrid")

    def __init__(
        self,
        topology: Topology,
        source: NodeId,
        mode: str = "protection",
        budget: int = DEFAULT_BUDGET,
        smrp_config: SMRPConfig | None = None,
        route_cache=None,
        obs=None,
    ) -> None:
        if mode not in self.MODES:
            raise ConfigurationError(
                f"unknown protection mode {mode!r}; expected one of {self.MODES}"
            )
        self.topology = topology
        self.source = source
        self.mode = mode
        self.name = mode
        self.obs = obs if obs is not None else NULL_OBS
        self.route_cache = route_cache
        if mode == "hybrid":
            self._inner = SMRPProtocol(
                topology,
                source,
                config=smrp_config or SMRPConfig(self_check=False),
                obs=obs,
                route_cache=route_cache,
            )
        else:
            self._inner = SPFMulticastProtocol(
                topology,
                source,
                self_check=False,
                route_cache=route_cache,
                obs=obs,
            )
        self.backups = PerLinkBackupTrees(
            topology,
            budget=budget,
            strategy="local" if mode == "hybrid" else "global",
            route_cache=route_cache,
            obs=self.obs,
        )

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------
    @property
    def tree(self) -> MulticastTree:
        return self._inner.tree

    def join(self, member: NodeId):
        outcome = self._inner.join(member)
        self.backups.mark_dirty()
        return outcome

    def leave(self, member: NodeId):
        outcome = self._inner.leave(member)
        self.backups.mark_dirty()
        return outcome

    def build(self, members) -> MulticastTree:
        tree = self._inner.build(list(members))
        self.backups.mark_dirty()
        self.backups.ensure(self.tree)
        return tree

    def plan_repair(self, failures: FailureSet) -> TreeRepairReport:
        """The repair this engine would perform, without mutating it.

        Switchover when a pre-installed tree covers the failure
        (strategy ``"backup"``, every re-attached member at recovery
        distance zero); otherwise the mode's reactive fallback.
        """
        self.backups.ensure(self.tree)
        backup = self.backups.lookup(failures)
        if backup is not None:
            with self.obs.span("protection.switchover"):
                report = self._switchover_report(backup, failures)
            self.obs.counter("protection.switchovers").inc()
            return report
        self.obs.counter("protection.fallbacks").inc()
        return repair_tree(
            self.topology,
            self.tree,
            failures,
            strategy="local" if self.mode == "hybrid" else "global",
            obs=self.obs,
            route_cache=self.route_cache,
        )

    def repair(self, failures: FailureSet) -> TreeRepairReport:
        """Restore the session; see :meth:`plan_repair` for the policy."""
        report = self.plan_repair(failures)
        self._adopt(report.repaired_tree)
        return report

    def _switchover_report(
        self, backup: BackupTree, failures: FailureSet
    ) -> TreeRepairReport:
        old = self.tree
        repaired = backup.tree.copy()
        report = TreeRepairReport(repaired_tree=repaired, strategy="backup")
        report.new_links = repaired.tree_links() - old.tree_links()
        for member in old.disconnected_members(failures):
            if failures.node_failed(member) or not repaired.is_member(member):
                report.unrecoverable.append(member)
                continue
            # The branch serving this member is pre-installed: nothing
            # new enters the tree at failure time, hence RD = 0.
            report.recoveries.append(
                RecoveryResult(
                    member=member,
                    strategy="backup",
                    attach_node=member,
                    restoration_path=(member,),
                    recovery_distance=0.0,
                    recovery_hops=0,
                    new_end_to_end_delay=repaired.delay_from_source(member),
                )
            )
        return report

    def _adopt(self, tree: MulticastTree) -> None:
        inner = self._inner
        inner.tree = tree
        state = getattr(inner, "state", None)
        if state is not None:
            state.rebind(tree)
        self.backups.mark_dirty()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def standing_links(self) -> set[Edge]:
        self.backups.ensure(self.tree)
        standing = self.backups.standing_links(self.tree)
        self.obs.counter("protection.standing_links").inc(len(standing))
        return standing

    def standing_cost(self) -> float:
        return sum(self.topology.cost(u, v) for u, v in self.standing_links())


class AlternatePathProtocol:
    """Alternate-path engine: SPF tree + precomputed single-failure routes.

    Every member carries an :class:`AlternateRouteTable` toward the
    source.  On failure, a disconnected member re-joins over the
    precomputed route that survives (no re-convergence wait — the
    Bhosle–Gonzalez promotion), grafting at the first surviving on-tree
    node; members whose tables don't cover the failure fall back to the
    global detour, with per-member strategy provenance kept in the
    report.
    """

    name = "alternate"

    def __init__(
        self,
        topology: Topology,
        source: NodeId,
        route_cache=None,
        obs=None,
    ) -> None:
        self.topology = topology
        self.source = source
        self.obs = obs if obs is not None else NULL_OBS
        self.route_cache = route_cache
        self._inner = SPFMulticastProtocol(
            topology, source, self_check=False, route_cache=route_cache, obs=obs
        )
        self._tables: dict[NodeId, AlternateRouteTable] = {}

    @property
    def tree(self) -> MulticastTree:
        return self._inner.tree

    def join(self, member: NodeId):
        return self._inner.join(member)

    def leave(self, member: NodeId):
        self._tables.pop(member, None)
        return self._inner.leave(member)

    def build(self, members) -> MulticastTree:
        tree = self._inner.build(list(members))
        self.ensure_tables()
        return tree

    def ensure_tables(self) -> None:
        """Precompute (and garbage-collect) the per-member route tables.

        Tables depend only on the topology and member set — never on
        the tree shape — so repairs don't invalidate them.
        """
        members = self.tree.members
        for stale in [m for m in self._tables if m not in members]:
            del self._tables[stale]
        for member in sorted(members):
            if member == self.source or member in self._tables:
                continue
            table = build_alternate_table(
                self.topology,
                member,
                self.source,
                route_cache=self.route_cache,
                obs=self.obs,
            )
            if table is not None:
                self._tables[member] = table

    def plan_repair(self, failures: FailureSet) -> TreeRepairReport:
        """The repair this engine would perform, without mutating it."""
        if failures.node_failed(self.source):
            raise UnrecoverableFailureError(
                self.source, "the source itself has failed"
            )
        self.ensure_tables()
        tree = self.tree
        repaired = surviving_subtree(tree, failures)
        report = TreeRepairReport(repaired_tree=repaired, strategy="alternate")
        report.unrecoverable.extend(
            m
            for m in tree.disconnected_members(failures)
            if failures.node_failed(m)
        )
        pending = [
            m
            for m in tree.disconnected_members(failures)
            if not failures.node_failed(m)
        ]
        for member in pending:
            surviving = set(repaired.on_tree_nodes())
            if member in surviving:
                # An earlier graft already passed through this member.
                repaired.add_member(member)
                report.recoveries.append(
                    _already_connected(repaired, member, "alternate")
                )
                continue
            table = self._tables.get(member)
            route = table.route_under(failures) if table is not None else None
            if route is not None:
                self.obs.counter("protection.alternate.hits").inc()
                detour = _truncate_at_first_contact(list(route), surviving)
                attach = detour[-1]
                distance = self.topology.path_delay(detour)
                result = RecoveryResult(
                    member=member,
                    strategy="alternate",
                    attach_node=attach,
                    restoration_path=tuple(detour),
                    recovery_distance=distance,
                    recovery_hops=len(detour) - 1,
                    new_end_to_end_delay=repaired.delay_from_source(attach)
                    + distance,
                )
            else:
                self.obs.counter("protection.alternate.misses").inc()
                try:
                    result = global_detour_recovery(
                        self.topology,
                        repaired,
                        member,
                        failures,
                        obs=self.obs,
                        route_cache=self.route_cache,
                    )
                except UnrecoverableFailureError:
                    report.unrecoverable.append(member)
                    continue
            graft = list(reversed(result.restoration_path))
            repaired.graft(graft)
            report.recoveries.append(result)
            report.new_links.update(
                edge_key(u, v) for u, v in zip(graft, graft[1:])
            )
        return report

    def repair(self, failures: FailureSet) -> TreeRepairReport:
        report = self.plan_repair(failures)
        self._inner.tree = report.repaired_tree
        return report

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def standing_links(self) -> set[Edge]:
        """Links the alternate routes reserve beyond the working tree."""
        self.ensure_tables()
        reserved: set[Edge] = set()
        for table in self._tables.values():
            reserved |= table.reserved_links()
        return reserved - self.tree.tree_links()

    def standing_cost(self) -> float:
        return sum(self.topology.cost(u, v) for u, v in self.standing_links())
