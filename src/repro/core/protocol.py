"""The SMRP protocol engine (graph level).

:class:`SMRPProtocol` ties together every mechanism of §3.2–3.3 over a
topology: SHR-driven path selection with the ``D_thresh`` bound, explicit
join/leave processing, distributed-state maintenance with message
accounting, Condition-I/Condition-II tree reshaping, the partial-knowledge
query scheme, and local-detour failure recovery.

This engine computes the same trees the message-level implementation in
:mod:`repro.sim.protocols` converges to (a cross-validation test asserts
it), but runs orders of magnitude faster — the parameter sweeps of
Figures 7–10 use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import (
    AlreadyMemberError,
    ConfigurationError,
    NotMemberError,
)
from repro.graph.topology import NodeId, Topology
from repro.multicast.tree import MulticastTree
from repro.multicast.validation import check_tree_invariants
from repro.obs import NULL_OBS, Observability
from repro.core.join import PathSelection, select_join, select_path, unicast_spf
from repro.core.leave import LeaveOutcome, process_leave
from repro.core.query import enumerate_candidates_query
from repro.core.recovery import (
    RecoveryResult,
    TreeRepairReport,
    local_detour_recovery,
    repair_tree,
)
from repro.core.reshape import ReshapeDecision, apply_reshape, evaluate_reshape
from repro.core.state import StateManager
from repro.routing.failure_view import NO_FAILURES, FailureSet
from repro.routing.route_cache import RouteCache


#: Cap on the cascading reshape rounds after one membership event (and on
#: the rounds of one periodic pass), preventing livelock on adversarial
#: topologies.  Each round re-evaluates the members only: every receiver
#: moves together with its subtree (§3.2.3).
MAX_RESHAPE_ROUNDS = 10


@dataclass(frozen=True)
class SMRPConfig:
    """Protocol configuration.

    Attributes
    ----------
    d_thresh:
        The delay-stretch bound of the Path Selection Criterion (§3.2.2).
        The paper sweeps 0.1–0.4 and uses 0.3 as its headline setting.
    reshape_enabled:
        Master switch for tree reshaping (§3.2.3); the reshaping ablation
        turns it off.
    reshape_shr_threshold:
        Condition I threshold on ``SHR_{S,R_u} − SHR^{old}_{S,R_u}``.
    knowledge:
        ``"full"`` — members know the topology and all SHR values
        (§3.2.2's assumption); ``"query"`` — the neighbor-relay query
        scheme of §3.3.1.
    state_mode:
        ``"eager"`` or ``"deferred"`` SHR maintenance (§3.3.2); affects
        only the control-message accounting.
    allow_fallback:
        Accept the minimum-delay candidate when nothing satisfies the
        delay bound (see :func:`repro.core.join.select_path`).
    self_check:
        Re-validate tree invariants after every mutation.
    """

    d_thresh: float = 0.3
    reshape_enabled: bool = True
    reshape_shr_threshold: int = 2
    knowledge: str = "full"
    state_mode: str = "eager"
    allow_fallback: bool = True
    self_check: bool = True

    def __post_init__(self) -> None:
        if self.d_thresh < 0:
            raise ConfigurationError(f"d_thresh must be >= 0, got {self.d_thresh}")
        if self.knowledge not in ("full", "query"):
            raise ConfigurationError(f"unknown knowledge mode {self.knowledge!r}")
        if self.state_mode not in ("eager", "deferred"):
            raise ConfigurationError(f"unknown state mode {self.state_mode!r}")


@dataclass
class ProtocolStats:
    """Cumulative protocol activity, for the overhead ablations."""

    joins: int = 0
    fallback_joins: int = 0
    leaves: int = 0
    reshape_evaluations: int = 0
    reshapes_performed: int = 0
    query_messages: int = 0
    query_hops: int = 0
    join_signaling_hops: int = 0
    leave_signaling_hops: int = 0


class SMRPProtocol:
    """Survivable Multicast Routing Protocol over a topology.

    Examples
    --------
    >>> from repro.graph import figure4_topology
    >>> from repro.graph.generators import node_id
    >>> proto = SMRPProtocol(figure4_topology(), source=node_id("S"))
    >>> _ = proto.join(node_id("E"))
    >>> proto.shr_values()[node_id("D")]
    2
    """

    name = "SMRP"

    def __init__(
        self,
        topology: Topology,
        source: NodeId,
        config: SMRPConfig | None = None,
        obs: Observability | None = None,
        route_cache: "RouteCache | None" = None,
    ) -> None:
        self.topology = topology
        self.source = source
        self.config = config or SMRPConfig()
        self.obs = obs if obs is not None else NULL_OBS
        # Optional memoisation of member-rooted SPF state (the D_thresh
        # bound's D^SPF(S, NR)); the cache is failure-aware, so
        # failure-masked searches consult it too.
        self.route_cache = route_cache
        self.tree = MulticastTree(topology, source)
        self.state = StateManager(
            self.tree, mode=self.config.state_mode, obs=self.obs
        )
        self.stats = ProtocolStats()
        # Disabled registries hand out shared no-op instruments, so these
        # stay unconditional single calls on every path below.
        metrics = self.obs.metrics
        self._c_joins = metrics.counter("smrp.joins")
        self._c_fallback_joins = metrics.counter("smrp.fallback_joins")
        self._c_leaves = metrics.counter("smrp.leaves")
        self._c_reshape_evals = metrics.counter("smrp.reshape_evaluations")
        self._c_reshapes = metrics.counter("smrp.reshapes_performed")
        self._c_query_messages = metrics.counter("smrp.query_messages")
        self._c_query_hops = metrics.counter("smrp.query_hops")
        self._c_join_hops = metrics.counter("smrp.join_signaling_hops")
        self._c_leave_hops = metrics.counter("smrp.leave_signaling_hops")
        # Per-message-type transmission counts (the §4.4 overhead figure):
        # at the graph level each signaling hop is one control message
        # crossing one link, so the hop counts double as message counts.
        self._c_msg_join = metrics.counter("smrp.msg.Join_Req")
        self._c_msg_leave = metrics.counter("smrp.msg.Leave_Req")
        self._c_msg_query = metrics.counter("smrp.msg.Query")

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def join(
        self, member: NodeId, failures: FailureSet = NO_FAILURES
    ) -> PathSelection | None:
        """Process a member join; returns the path selection (or None when
        the member was already an on-tree relay and simply became a
        receiver)."""
        if self.tree.is_member(member):
            raise AlreadyMemberError(member)
        with self.obs.span("smrp.join"):
            self.stats.joins += 1
            self._c_joins.inc()
            if self.tree.is_on_tree(member):
                self.tree.add_member(member)
                self.state.notify_graft([member])
                self._after_membership_change()
                return None

            shr_values = self.state.shr_snapshot()
            if self.config.knowledge == "query":
                candidates, query_stats = enumerate_candidates_query(
                    self.topology, self.tree, member, shr_values, failures=failures
                )
                self.stats.query_messages += query_stats.queries_sent
                self.stats.query_hops += query_stats.query_hops
                self._c_query_messages.inc(query_stats.queries_sent)
                self._c_query_hops.inc(query_stats.query_hops)
                self._c_msg_query.inc(query_stats.queries_sent)
                selection = select_path(
                    candidates,
                    self._spf_delay(member, failures),
                    self.config.d_thresh,
                    allow_fallback=self.config.allow_fallback,
                )
            else:
                selection = select_join(
                    self.topology,
                    self.tree,
                    member,
                    shr_values,
                    self._spf_delay(member, failures),
                    self.config.d_thresh,
                    failures=failures,
                    allow_fallback=self.config.allow_fallback,
                    obs=self.obs,
                )
            if selection.fallback:
                self.stats.fallback_joins += 1
                self._c_fallback_joins.inc()

            graft = list(selection.candidate.graft_path)
            self.tree.graft(graft)
            self.state.notify_graft(graft)
            self.stats.join_signaling_hops += len(graft) - 1
            self._c_join_hops.inc(len(graft) - 1)
            self._c_msg_join.inc(len(graft) - 1)
            self._after_membership_change()
            return selection

    def _spf_delay(self, member: NodeId, failures: FailureSet) -> float:
        """``D^{SPF}_{S,NR}``; raises :class:`~repro.errors.NoPathError`
        when the source is unreachable."""
        spf = unicast_spf(
            self.topology, member, failures, self.route_cache, self.obs
        )
        return spf.distance(self.source)

    def leave(self, member: NodeId) -> LeaveOutcome:
        """Process a member departure (``Leave_Req`` walk, §3.2.2)."""
        if not self.tree.is_member(member):
            raise NotMemberError(member)
        with self.obs.span("smrp.leave"):
            self.stats.leaves += 1
            self._c_leaves.inc()
            outcome = process_leave(self.tree, member)
            self.state.notify_prune(outcome.stopped_at)
            self.stats.leave_signaling_hops += outcome.hops_travelled
            self._c_leave_hops.inc(outcome.hops_travelled)
            self._c_msg_leave.inc(outcome.hops_travelled)
            self._after_membership_change()
            return outcome

    def build(self, members: list[NodeId]) -> MulticastTree:
        """Join a member list in order; returns the tree."""
        with self.obs.span("smrp.build"):
            for member in members:
                self.join(member)
        return self.tree

    # ------------------------------------------------------------------
    # Reshaping
    # ------------------------------------------------------------------
    def periodic_reshape(self) -> list[ReshapeDecision]:
        """Condition II: every member re-runs path selection.

        Returns the decisions of the performed reshapes, in order.
        """
        performed: list[ReshapeDecision] = []
        for _ in range(MAX_RESHAPE_ROUNDS):
            moved = False
            for node in sorted(self.tree.members):
                decision = self._reshape_once(node)
                if decision is not None and decision.performed:
                    performed.append(decision)
                    moved = True
            if not moved:
                break
        return performed

    def _after_membership_change(self) -> None:
        if self.config.self_check:
            check_tree_invariants(self.tree)
        if not self.config.reshape_enabled:
            return
        # Condition I: nodes whose upstream SHR grew past the threshold
        # since their last reshape re-run path selection.
        for _ in range(MAX_RESHAPE_ROUNDS):
            triggered = [
                node
                for node in sorted(self.tree.members)
                if self.state.condition_i_delta(node)
                >= self.config.reshape_shr_threshold
            ]
            if not triggered:
                return
            moved = False
            for node in triggered:
                decision = self._reshape_once(node)
                if decision is not None and decision.performed:
                    moved = True
            if not moved:
                return

    def _reshape_once(self, node: NodeId) -> ReshapeDecision | None:
        if not self.tree.is_on_tree(node) or node == self.source:
            return None
        self.stats.reshape_evaluations += 1
        self._c_reshape_evals.inc()
        with self.obs.span("smrp.reshape"):
            decision = evaluate_reshape(
                self.topology,
                self.tree,
                node,
                self.config.d_thresh,
                route_cache=self.route_cache,
                obs=self.obs,
            )
            if decision.performed:
                apply_reshape(self.tree, decision)
                self.state.notify_move(node)
                self.stats.reshapes_performed += 1
                self._c_reshapes.inc()
                if self.config.self_check:
                    check_tree_invariants(self.tree)
        # The reshaping process ran: record the fresh upstream SHR as the
        # new Condition-I baseline whether or not the node moved.
        self.state.record_reshape_baseline(node)
        return decision

    # ------------------------------------------------------------------
    # Recovery and introspection
    # ------------------------------------------------------------------
    def recover(self, member: NodeId, failures: FailureSet) -> RecoveryResult:
        """Local-detour restoration of ``member`` (measurement only)."""
        with self.obs.span("smrp.recover"):
            tracer = self.obs.tracer
            if tracer is not None:
                # Episodes opened under this entry point are labelled with
                # the protocol API that produced them.
                with tracer.origin("smrp.recover"):
                    return local_detour_recovery(
                        self.topology, self.tree, member, failures, obs=self.obs
                    )
            return local_detour_recovery(
                self.topology, self.tree, member, failures, obs=self.obs
            )

    def repair(self, failures: FailureSet) -> TreeRepairReport:
        """Whole-session restoration: repair the tree, rebind the state.

        Unlike :meth:`recover` — a per-member measurement that leaves the
        session untouched — this *mutates* the session the way §3.2.3's
        hierarchical recovery would: disconnected members re-attach via
        local detours (nearest-first, so restored members compound), the
        repaired tree replaces the current one, and the per-node SHR
        state is rebuilt against it.  Each protocol instance owns its
        tree and state outright, so concurrent hosted groups repaired
        against the same failure stay fully isolated from one another.
        """
        with self.obs.span("smrp.repair"):
            report = repair_tree(
                self.topology,
                self.tree,
                failures,
                strategy="local",
                obs=self.obs,
                route_cache=self.route_cache,
            )
            self.tree = report.repaired_tree
            self.state.rebind(self.tree)
            if self.config.self_check:
                check_tree_invariants(self.tree)
        return report

    def shr_values(self) -> dict[NodeId, int]:
        """Current ``SHR_{S,R}`` for every on-tree node."""
        return self.state.shr_snapshot()
