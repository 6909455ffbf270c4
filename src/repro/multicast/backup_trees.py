"""Per-link backup trees and the protection-mode protocol family.

SMRP restores *reactively*; production fast-reroute precomputes.  This
module adds the proactive design points the ROADMAP's "Precomputed
protection" item names, modelled on the TUDelft ``PerLinkTreeBuilder``
Fast Failover scheme: with a protected-link budget ``F``, the builder
ranks the current tree's links by *load* (the member count of the
subtree each link carries, the paper's ``N_R``), and for each of the
top-``F`` links installs the complete tree the session would rebuild if
exactly that link failed.  A failure hitting a protected link is then
survived by an instant **switchover**: the installed tree takes over,
recovery distance zero, latency equal to the detection delay alone.

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
    re-joins over its alternate route with no re-convergence wait,
    falling back to the global detour when no alternate survives the
    failure.

The dataplane here is simulated, so installing protection state is a
modelled quantity, not work that must happen ahead of time.  A backup
is a deterministic function of (tree, link) and an alternate of
(topology, member, source, link), so both are computed at first need —
a backup when ``plan_repair`` sees its link fail, an alternate when a
failure cuts its member off — and a switchover is still identical to a
fresh post-failure rebuild.  What a deployment would hold installed is
reported as *standing state* — links the backups or alternates reserve
beyond the working tree — and ``standing_links`` computes whatever the
figure asks for that is not built yet.
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
)
from repro.core.shr import link_utilisation
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
    link carries, counted for every link in one post-order pass.  Equal
    loads break ties by canonical edge key, so the protected set is a
    deterministic function of the tree.
    """
    if budget < 0:
        raise ConfigurationError(f"budget must be >= 0, got {budget}")
    load = link_utilisation(tree)
    return sorted(load, key=lambda edge: (-load[edge], edge))[:budget]


@dataclass(frozen=True)
class BackupTree:
    """The installed tree for one protected link's failure.

    ``tree`` is exactly what :func:`~repro.core.recovery.repair_tree`
    would rebuild after that failure (the switchover-equivalence
    property the test suite asserts); ``unprotectable`` lists members
    the rebuild could not reach (the link is a bridge for them).
    """

    link: Edge
    tree: MulticastTree
    unprotectable: tuple[NodeId, ...] = ()


class PerLinkBackupTrees:
    """The protected-link set of a tree and the backups built for it.

    The protected links are re-ranked whenever the tree changes.  A
    link's backup is built the first time it is needed and kept until
    the tree changes — a new tree object, or :meth:`mark_dirty` after an
    in-place mutation.  ``strategy`` selects how backups are *computed*
    (the fallback strategy of the owning engine, so a switchover is
    indistinguishable from a fresh post-failure rebuild); switchover
    itself never runs a path search.
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
        self._tree: MulticastTree | None = None
        self._ranked: list[Edge] = []
        self._backups: dict[Edge, BackupTree] = {}
        self._dirty = True

    def mark_dirty(self) -> None:
        self._dirty = True

    def ensure(self, tree: MulticastTree, failed_links=None) -> None:
        """Build the backups a failure of ``failed_links`` could switch to.

        A changed tree is re-ranked first and its old backups dropped.
        Only protected links among ``failed_links`` get a backup, and
        only once per tree; ``None`` stands for every protected link
        (the standing state).
        """
        if self._dirty or self._tree is not tree:
            self._tree = tree
            self._ranked = protected_links(tree, self.budget)
            self._backups = {}
            self._dirty = False
        for link in self._ranked:
            if link in self._backups:
                continue
            if failed_links is not None and link not in failed_links:
                continue
            # Building a backup is bookkeeping, not restoration: run it
            # under a silent obs so recovery.* counters and traced
            # episodes keep meaning "a failure actually happened".
            report = repair_tree(
                self.topology,
                tree,
                FailureSet.links(link),
                strategy=self.strategy,
                obs=NULL_OBS,
                route_cache=self.route_cache,
            )
            self._backups[link] = BackupTree(
                link=link,
                tree=report.repaired_tree,
                unprotectable=tuple(sorted(report.unrecoverable)),
            )
            self.obs.counter("protection.backups_built").inc()

    def links(self, tree: MulticastTree) -> list[Edge]:
        """``tree``'s protected links, most-loaded first."""
        self.ensure(tree, ())
        return list(self._ranked)

    def lookup(
        self, tree: MulticastTree, failures: FailureSet
    ) -> BackupTree | None:
        """The first backup of ``tree`` that survives ``failures`` whole.

        A backup covers the failure when its protected link is among the
        failed links and its tree touches no failed component — then
        every member it reaches is served the instant traffic switches
        over.  Checked in load-rank order, so coverage is deterministic
        under multi-failures too.  Only the failed links' backups are
        built.
        """
        if not failures.failed_links:
            return None
        self.ensure(tree, failures.failed_links)
        for link in self._ranked:
            if link not in failures.failed_links:
                continue
            backup = self._backups[link]
            if not backup.tree.affected_by(failures):
                return backup
        return None

    def standing_links(self, tree: MulticastTree) -> set[Edge]:
        """Links the backups reserve beyond the working tree.

        Builds every protected link's backup not built yet.
        """
        self.ensure(tree)
        working = tree.tree_links()
        standing: set[Edge] = set()
        for backup in self._backups.values():
            standing |= backup.tree.tree_links() - working
        return standing


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
        return tree

    def plan_repair(self, failures: FailureSet) -> TreeRepairReport:
        """The repair this engine would perform, without mutating it.

        Switchover when a backup tree covers the failure (strategy
        ``"backup"``, every re-attached member at recovery distance
        zero); otherwise the mode's reactive fallback.
        """
        backup = self.backups.lookup(self.tree, failures)
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
            # The branch serving this member is installed: nothing new
            # enters the tree at failure time, hence RD = 0.
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
        standing = self.backups.standing_links(self.tree)
        self.obs.counter("protection.standing_links").inc(len(standing))
        return standing

    def standing_cost(self) -> float:
        return sum(self.topology.cost(u, v) for u, v in self.standing_links())


class AlternatePathProtocol:
    """Alternate-path engine: SPF tree + single-failure alternate routes.

    A member cut off by a failure gets an :class:`AlternateRouteTable`
    toward the source, holding the alternate for the primary link the
    failure hit.  It re-joins over the route that survives (no
    re-convergence wait — the Bhosle–Gonzalez promotion), grafting at
    the first surviving on-tree node; members whose tables don't cover
    the failure fall back to the global detour, with per-member strategy
    provenance kept in the report.
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
        self._tables: dict[NodeId, AlternateRouteTable | None] = {}

    @property
    def tree(self) -> MulticastTree:
        return self._inner.tree

    def join(self, member: NodeId):
        return self._inner.join(member)

    def leave(self, member: NodeId):
        self._tables.pop(member, None)
        return self._inner.leave(member)

    def build(self, members) -> MulticastTree:
        return self._inner.build(list(members))

    def ensure_tables(self, members, failures: FailureSet | None = None) -> None:
        """Build the route state ``members`` need, at first need.

        Each member gets its table (its failure-free primary toward the
        source); within it, only the alternate for the primary link
        ``failures`` hit is computed, or every alternate when
        ``failures`` is ``None`` (the standing state).  Tables depend
        only on the topology and the member — never on the tree shape —
        so repairs don't invalidate them.
        """
        for member in members:
            if member == self.source:
                continue
            if member not in self._tables:
                self._tables[member] = build_alternate_table(
                    self.topology,
                    member,
                    self.source,
                    route_cache=self.route_cache,
                    obs=self.obs,
                )
            table = self._tables[member]
            if table is None:
                continue
            if failures is None:
                links = table.primary_links()
            else:
                hit = table.hit_link(failures)
                links = [] if hit is None else [hit]
            for link in links:
                table.alternate(link)

    def plan_repair(self, failures: FailureSet) -> TreeRepairReport:
        """The repair this engine would perform, without mutating it."""
        if failures.node_failed(self.source):
            raise UnrecoverableFailureError(
                self.source, "the source itself has failed"
            )
        tree = self.tree
        repaired = tree.surviving_subtree(failures)
        report = TreeRepairReport(repaired_tree=repaired, strategy="alternate")
        cut = tree.disconnected_members(failures)
        report.unrecoverable.extend(m for m in cut if failures.node_failed(m))
        pending = [m for m in cut if not failures.node_failed(m)]
        self.ensure_tables(pending, failures)
        # The repaired tree's nodes, extended with each graft (every one
        # is fed by the source: routes and detours avoid the failures).
        surviving = set(repaired.on_tree_nodes())
        for member in pending:
            if member in surviving:
                # An earlier graft already passed through this member.
                repaired.add_member(member)
                report.recoveries.append(
                    _already_connected(repaired, member, "alternate")
                )
                continue
            table = self._tables[member]
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
            surviving.update(graft)
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
        """Links the alternate routes reserve beyond the working tree.

        Builds every member's table and alternates not built yet.
        """
        members = sorted(self.tree.members)
        self.ensure_tables(members)
        reserved: set[Edge] = set()
        for member in members:
            table = self._tables.get(member)
            if table is not None:
                reserved |= table.reserved_links()
        return reserved - self.tree.tree_links()

    def standing_cost(self) -> float:
        return sum(self.topology.cost(u, v) for u, v in self.standing_links())
