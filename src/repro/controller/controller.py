"""The long-lived multi-group controller.

A :class:`MulticastController` hosts many concurrent ``(source, group)``
multicast sessions over one shared topology — the service setting the
paper's per-tree machinery is built for.  Each hosted group owns a full
protocol engine — :class:`~repro.core.protocol.SMRPProtocol`, the
:class:`~repro.multicast.spf_protocol.SPFMulticastProtocol` baseline, or
one of the protection family
(:class:`~repro.multicast.backup_trees.BackupTreeProtocol` in
``protection``/``hybrid`` mode,
:class:`~repro.multicast.backup_trees.AlternatePathProtocol`) — with its
own tree and standing state; the controller contributes what the
engines cannot do alone:

- a **group registry** with join/leave/workload verbs addressed by
  group id;
- shared substrate: one topology and one failure-aware
  :class:`~repro.routing.route_cache.RouteCache` amortise SPF state
  across all hosted groups;
- **one-pass failure dispatch** — a reverse index from links/nodes to
  the groups whose trees traverse them, so a failure event fans out to
  exactly the affected groups (:meth:`MulticastController.fail`) and a
  single :meth:`~MulticastController.restore` pass repairs them all,
  producing one :class:`GroupRestoration` accounting row per group and
  a ``group.restore`` telemetry record when a hub is attached.

The reverse index is maintained lazily: membership changes only mark a
group dirty, and the index is refreshed on the next dispatch — churn
between failures costs nothing extra.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.core.protocol import SMRPConfig, SMRPProtocol
from repro.core.recovery import estimate_restoration_latency
from repro.errors import ConfigurationError
from repro.graph.topology import Edge, NodeId, Topology, edge_key
from repro.multicast.backup_trees import (
    DEFAULT_BUDGET,
    AlternatePathProtocol,
    BackupTreeProtocol,
)
from repro.multicast.group import GroupAction, GroupWorkload
from repro.multicast.spf_protocol import SPFMulticastProtocol
from repro.obs import NULL_OBS, Observability
from repro.routing.failure_view import FailureSet
from repro.routing.link_state import ConvergenceModel

#: A hosted session's identity: ``(source node, group number)``.
GroupId = tuple


def _smrp_engine(controller: MulticastController, source: NodeId, routes):
    return SMRPProtocol(
        controller.topology,
        source,
        config=controller.smrp_config,
        obs=controller.obs,
        route_cache=routes,
    )


def _spf_engine(controller: MulticastController, source: NodeId, routes):
    return SPFMulticastProtocol(
        controller.topology,
        source,
        self_check=False,
        route_cache=routes,
        obs=controller.obs,
    )


def _backup_engine(mode: str):
    def build(controller: MulticastController, source: NodeId, routes):
        return BackupTreeProtocol(
            controller.topology,
            source,
            mode=mode,
            budget=controller.protect_budget,
            smrp_config=controller.smrp_config,
            route_cache=routes,
            obs=controller.obs,
        )

    return build


def _alternate_engine(controller: MulticastController, source: NodeId, routes):
    return AlternatePathProtocol(
        controller.topology,
        source,
        route_cache=routes,
        obs=controller.obs,
    )


#: Protocol engines the controller can host: spec name → factory
#: ``(controller, source, route cache) → engine``.  The one declaration
#: of the engine names — :class:`~repro.controller.spec.ServiceSpec`
#: validation, the CLI's ``--protocol``/``--engines`` choices and the
#: distribution figure's default engine list all derive from it.
ENGINES = {
    "smrp": _smrp_engine,
    "spf": _spf_engine,
    "protection": _backup_engine("protection"),
    "hybrid": _backup_engine("hybrid"),
    "alternate": _alternate_engine,
}


def check_protocol(protocol: str) -> None:
    """Reject an engine name :data:`ENGINES` does not declare."""
    if protocol not in ENGINES:
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; expected one of {tuple(ENGINES)}"
        )


@dataclass(frozen=True)
class GroupRestoration:
    """Per-group accounting row of one restoration pass.

    ``latency_s`` is the group's service-restoration latency — the
    *slowest* member's :func:`~repro.core.recovery.estimate_restoration_latency`
    (the group is restored when its last member is); ``mean_latency_s``
    and ``recovery_distance`` (mean ``RD_R``) summarise the rest.
    """

    source: NodeId
    group: int
    protocol: str
    members: int
    affected: int
    restored: int
    unrecoverable: int
    strategy: str
    recovery_distance: float
    latency_s: float
    mean_latency_s: float

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "GroupRestoration":
        return cls(**payload)


@dataclass(frozen=True)
class FailureDispatch:
    """Outcome of one failure → restore cycle across the registry."""

    failure: str
    groups_hosted: int
    groups_checked: int
    rows: tuple

    @property
    def affected(self) -> int:
        return len(self.rows)

    @property
    def restored(self) -> int:
        return sum(row.restored for row in self.rows)

    @property
    def unrecoverable(self) -> int:
        return sum(row.unrecoverable for row in self.rows)

    def describe(self) -> str:
        return (
            f"{self.failure}: {self.affected}/{self.groups_hosted} groups "
            f"affected ({self.groups_checked} indexed candidates), "
            f"{self.restored} members restored, "
            f"{self.unrecoverable} unrecoverable"
        )


class _HostedGroup:
    """Registry entry: the engine plus its indexed footprint."""

    __slots__ = ("engine", "protocol", "links", "nodes", "dirty")

    def __init__(self, engine, protocol: str) -> None:
        self.engine = engine
        self.protocol = protocol
        self.links: frozenset = frozenset()
        self.nodes: frozenset = frozenset()
        self.dirty = True


class MulticastController:
    """Host thousands of multicast groups over one topology.

    Parameters
    ----------
    topology:
        The shared substrate every hosted tree lives on.
    protocol:
        Default engine for new groups: ``"smrp"``, ``"spf"``,
        ``"protection"`` (SPF + per-link backup trees), ``"hybrid"``
        (SMRP + per-link backup trees), or ``"alternate"`` (SPF +
        single-failure alternate routes).
    smrp_config:
        Shared :class:`~repro.core.protocol.SMRPConfig` for SMRP groups
        (``self_check`` off by default at service scale); also the inner
        config of ``hybrid`` groups.
    protect_budget:
        Protected-link budget ``F`` for ``protection``/``hybrid``
        groups — the top-``F`` most-loaded tree links get a backup tree
        each, built when a failure of the link first needs it.
    cache:
        Optional :class:`~repro.experiments.exec.cache.SubstrateCache`;
        its route cache is shared by every hosted engine, so the
        thousandth group's joins mostly hit memoised SPF state.
    convergence:
        :class:`~repro.routing.link_state.ConvergenceModel` used for
        restoration-latency estimates (global detours wait on it).
    telemetry:
        Optional :class:`~repro.obs.live.TelemetryHub`; each restored
        group publishes one ``group.restore`` record.  Observe-only:
        results are identical with or without a hub.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        protocol: str = "smrp",
        smrp_config: SMRPConfig | None = None,
        protect_budget: int = DEFAULT_BUDGET,
        cache=None,
        convergence: ConvergenceModel | None = None,
        obs: Observability | None = None,
        telemetry=None,
    ) -> None:
        check_protocol(protocol)
        if protect_budget < 0:
            raise ConfigurationError(
                f"protect_budget must be >= 0, got {protect_budget}"
            )
        self.topology = topology
        self.protocol = protocol
        self.smrp_config = smrp_config or SMRPConfig(self_check=False)
        self.protect_budget = protect_budget
        self.cache = cache
        self.convergence = convergence
        self.obs = obs if obs is not None else NULL_OBS
        self.telemetry = telemetry
        self._groups: dict[GroupId, _HostedGroup] = {}
        self._by_link: dict[Edge, set] = {}
        self._by_node: dict[NodeId, set] = {}
        self._next_group = 0
        #: ``(failure, affected group ids, groups checked)`` armed by
        #: :meth:`fail` for the next :meth:`restore`.
        self._pending: tuple[FailureSet, list, int] | None = None
        self._restorations = 0

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._groups)

    def group_ids(self) -> list[GroupId]:
        return sorted(self._groups)

    def _hosted(self, gid: GroupId) -> _HostedGroup:
        try:
            return self._groups[gid]
        except KeyError:
            raise ConfigurationError(f"no hosted group {gid!r}") from None

    def tree(self, gid: GroupId):
        """The group's current :class:`~repro.multicast.tree.MulticastTree`."""
        return self._hosted(gid).engine.tree

    def open_group(
        self,
        source: NodeId,
        group: int | None = None,
        *,
        protocol: str | None = None,
        members=(),
    ) -> GroupId:
        """Register a new ``(source, group)`` session; joins ``members``
        in order.  ``group`` auto-increments when omitted."""
        if not self.topology.has_node(source):
            raise ConfigurationError(f"source {source} is not in the topology")
        if group is None:
            group = self._next_group
            self._next_group += 1
        else:
            self._next_group = max(self._next_group, group + 1)
        gid = (source, group)
        if gid in self._groups:
            raise ConfigurationError(f"group {gid!r} is already hosted")
        kind = protocol if protocol is not None else self.protocol
        check_protocol(kind)
        routes = self.cache.routes if self.cache is not None else None
        engine = ENGINES[kind](self, source, routes)
        self._groups[gid] = _HostedGroup(engine, kind)
        self.obs.counter("controller.groups_opened").inc()
        for member in members:
            self.join(gid, member)
        return gid

    def close_group(self, gid: GroupId) -> None:
        hosted = self._hosted(gid)
        self._drop_from_index(gid, hosted)
        del self._groups[gid]

    def join(self, gid: GroupId, node: NodeId) -> None:
        hosted = self._hosted(gid)
        hosted.engine.join(node)
        hosted.dirty = True

    def leave(self, gid: GroupId, node: NodeId) -> None:
        hosted = self._hosted(gid)
        hosted.engine.leave(node)
        hosted.dirty = True

    def apply_workload(self, gid: GroupId, workload: GroupWorkload) -> int:
        """Replay a membership workload against the group; returns the
        number of events applied.

        Defensive replay: a join of a current member (or of the source)
        and a leave of a non-member are skipped rather than raised —
        workload generators overlap their initial member sets with churn
        arrivals by design.
        """
        hosted = self._hosted(gid)
        engine = hosted.engine
        applied = 0
        for event in workload:
            if event.action is GroupAction.JOIN:
                if event.node == engine.source or engine.tree.is_member(event.node):
                    continue
                engine.join(event.node)
            else:
                if not engine.tree.is_member(event.node):
                    continue
                engine.leave(event.node)
            applied += 1
        hosted.dirty = True
        self.obs.counter("controller.workload_events").inc(applied)
        return applied

    # ------------------------------------------------------------------
    # Failure dispatch
    # ------------------------------------------------------------------
    def _drop_from_index(self, gid: GroupId, hosted: _HostedGroup) -> None:
        for link in hosted.links:
            bucket = self._by_link.get(link)
            if bucket is not None:
                bucket.discard(gid)
        for node in hosted.nodes:
            bucket = self._by_node.get(node)
            if bucket is not None:
                bucket.discard(gid)

    def _refresh_index(self) -> None:
        """Re-index every dirty group by the difference between the links
        and nodes it was indexed under and the ones its tree has now — a
        repair or a join changes a few, not the whole tree."""
        by_link = self._by_link
        by_node = self._by_node
        for gid, hosted in self._groups.items():
            if not hosted.dirty:
                continue
            tree = hosted.engine.tree
            links = frozenset(tree.tree_links())
            nodes = frozenset(tree.children_map())
            for link in hosted.links - links:
                by_link[link].discard(gid)
            for node in hosted.nodes - nodes:
                by_node[node].discard(gid)
            for link in links - hosted.links:
                by_link.setdefault(link, set()).add(gid)
            for node in nodes - hosted.nodes:
                by_node.setdefault(node, set()).add(gid)
            hosted.links = links
            hosted.nodes = nodes
            hosted.dirty = False

    def fail(self, failures: FailureSet) -> list[GroupId]:
        """Dispatch a failure event: one index pass finds every group
        whose tree it touches.  Returns the affected group ids (sorted)
        and arms :meth:`restore`.
        """
        if failures.is_empty:
            self._pending = (failures, [], 0)
            return []
        with self.obs.span("controller.fail"):
            self._refresh_index()
            # Candidates come from the index; affected_by then looks at
            # the failed components only, not at the candidate's tree.
            candidates: set = set()
            for u, v in failures.iter_failed_links():
                candidates |= self._by_link.get(edge_key(u, v), set())
            for node in failures.iter_failed_nodes():
                candidates |= self._by_node.get(node, set())
            affected = sorted(
                gid
                for gid in candidates
                if self._groups[gid].engine.tree.affected_by(failures)
            )
        self._pending = (failures, affected, len(candidates))
        self.obs.counter("controller.failures_dispatched").inc()
        self.obs.counter("controller.groups_affected").inc(len(affected))
        return affected

    def restore(self, failures: FailureSet | None = None) -> FailureDispatch:
        """Repair every affected group in one pass.

        Uses the failure armed by the last :meth:`fail` call (or
        dispatches ``failures`` first when given).  Each group repairs
        through its own engine — local detours for SMRP, global SPF
        detours for the baseline — and contributes one
        :class:`GroupRestoration` row, in group-id order.
        """
        if failures is not None:
            self.fail(failures)
        if self._pending is None:
            raise ConfigurationError(
                "nothing to restore: call fail() first or pass failures"
            )
        failures, affected, checked = self._pending
        self._pending = None
        rows = []
        with self.obs.span("controller.restore"):
            for gid in affected:
                rows.append(self._restore_group(gid, failures))
        dispatch = FailureDispatch(
            failure=failures.describe(),
            groups_hosted=len(self._groups),
            groups_checked=checked,
            rows=tuple(rows),
        )
        self.obs.counter("controller.members_restored").inc(dispatch.restored)
        return dispatch

    def _restore_group(self, gid: GroupId, failures: FailureSet) -> GroupRestoration:
        hosted = self._groups[gid]
        engine = hosted.engine
        cut = engine.tree.disconnected_members(failures)
        report = engine.repair(failures)
        latencies = [
            estimate_restoration_latency(
                self.topology,
                engine.tree,
                recovery,
                failures,
                convergence=self.convergence,
            )
            for recovery in report.recoveries
            if not recovery.already_connected
        ]
        distances = [
            r.recovery_distance
            for r in report.recoveries
            if not r.already_connected
        ]
        restored = len(distances)
        row = GroupRestoration(
            source=gid[0],
            group=gid[1],
            protocol=hosted.protocol,
            members=len(engine.tree.members),
            affected=len(cut),
            restored=restored,
            unrecoverable=len(report.unrecoverable),
            strategy=report.strategy,
            recovery_distance=round(
                sum(distances) / restored if restored else 0.0, 6
            ),
            latency_s=round(max(latencies, default=0.0), 6),
            mean_latency_s=round(
                sum(latencies) / len(latencies) if latencies else 0.0, 6
            ),
        )
        hosted.dirty = True
        self._restorations += 1
        if self.telemetry is not None:
            self.telemetry.publish(
                "group.restore",
                group=f"{gid[0]}:{gid[1]}",
                protocol=row.protocol,
                affected=row.affected,
                restored=row.restored,
                unrecoverable=row.unrecoverable,
                strategy=row.strategy,
                latency_s=row.latency_s,
            )
        return row

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Point-in-time registry snapshot (plain values, render-friendly)."""
        return {
            "groups": len(self._groups),
            "members": sum(
                len(h.engine.tree.members) for h in self._groups.values()
            ),
            "indexed_links": sum(1 for b in self._by_link.values() if b),
            "indexed_nodes": sum(1 for b in self._by_node.values() if b),
            "restorations": self._restorations,
        }

    def __repr__(self) -> str:
        return (
            f"MulticastController(groups={len(self._groups)}, "
            f"protocol={self.protocol!r})"
        )
