"""SMRP and the SPF baseline as message-level simulated protocols.

Every router runs a :class:`MulticastSimNode`: it keeps per-session soft
state (upstream neighbor, downstream interfaces), refreshes it
periodically, learns its ``SHR`` through parent-to-child adverts
(the iterative calculation of Eq. 2), detects upstream failures through
advert watchdogs, and restores service with a local detour join — all via
messages delivered over delay-weighted links by the
:class:`~repro.sim.network.SimNetwork`.

Division of labour with the graph-level engine
(:class:`repro.core.protocol.SMRPProtocol`):

- the graph engine is the *reference algorithm* (used by the parameter
  sweeps); this module demonstrates that the same decisions emerge from a
  distributed, message-driven implementation with soft state and
  failure detection, and measures **latencies in simulated time**
  (join latency, detection latency, service-restoration latency);
- a cross-validation test builds the same scenario on both engines and
  asserts the trees match.

Path selection runs at the joining node exactly as §3.2.2 assumes: the
member knows the topology (or uses the §3.3.1 query scheme) and reads the
SHR values *currently advertised* by on-tree nodes — which may be stale
while adverts propagate, a fidelity the graph engine cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.graph.topology import NodeId, Topology
from repro.multicast.tree import MulticastTree
from repro.core.join import select_join
from repro.obs import NULL_OBS, Observability
from repro.routing.failure_view import FailureSet
from repro.routing.route_cache import RouteCache
from repro.routing.spf import dijkstra_with_barriers, spf_distance
from repro.sim.engine import Simulator
from repro.sim.events import PeriodicTimer, WatchdogTimer
from repro.sim.messages import (
    DataPacket,
    JoinAck,
    JoinReq,
    LeaveReq,
    Message,
    Prune,
    Refresh,
    ShrAdvert,
)
from repro.sim.network import SimNetwork
from repro.sim.node import SimNode
from repro.sim.softstate import SoftStateTable
from repro.sim.trace import Trace


@dataclass(frozen=True)
class SimTimers:
    """Protocol timer configuration (all in simulated time units).

    Timers must be scaled to the topology's link delays: the watchdog
    timeout has to exceed the advert period plus one link traversal, or
    healthy upstreams get declared dead.  :meth:`for_topology` derives a
    consistent set from the maximum link delay; the class defaults suit
    unit-delay topologies like the paper's worked examples.
    """

    refresh_period: float = 5.0
    advert_period: float = 5.0
    softstate_lifetime: float = 16.0
    failure_detection_timeout: float = 12.0
    join_retry_interval: float = 20.0
    max_join_retries: int = 5

    def __post_init__(self) -> None:
        if min(
            self.refresh_period,
            self.advert_period,
            self.softstate_lifetime,
            self.failure_detection_timeout,
            self.join_retry_interval,
        ) <= 0:
            raise SimulationError("all protocol timers must be positive")
        if self.failure_detection_timeout <= self.advert_period:
            raise SimulationError(
                "failure_detection_timeout must exceed advert_period, or "
                "every healthy upstream is declared dead"
            )

    @classmethod
    def for_topology(cls, topology: Topology) -> "SimTimers":
        """Timers consistent with the topology's largest link delay."""
        links = topology.links()
        max_delay = max((l.delay for l in links), default=1.0)
        advert = 2.0 * max_delay
        return cls(
            refresh_period=advert,
            advert_period=advert,
            softstate_lifetime=3.2 * advert + max_delay,
            failure_detection_timeout=2.4 * advert + max_delay,
            join_retry_interval=8.0 * advert,
        )


@dataclass
class JoinRecord:
    """Lifecycle of one join, for latency measurement."""

    member: NodeId
    requested_at: float
    path: tuple[NodeId, ...] = ()
    acked_at: float | None = None

    @property
    def latency(self) -> float | None:
        if self.acked_at is None:
            return None
        return self.acked_at - self.requested_at


@dataclass
class RecoveryRecord:
    """Lifecycle of one failure recovery, for latency measurement."""

    detector: NodeId
    failed_at: float
    detected_at: float | None = None
    restored_at: float | None = None
    detour: tuple[NodeId, ...] = ()

    @property
    def restoration_latency(self) -> float | None:
        """Failure injection → service restored."""
        if self.restored_at is None:
            return None
        return self.restored_at - self.failed_at

    @property
    def post_detection_latency(self) -> float | None:
        """Detection → restored: the part the recovery strategy controls
        (detection itself is identical across protocols)."""
        if self.restored_at is None or self.detected_at is None:
            return None
        return self.restored_at - self.detected_at


class MulticastSimNode(SimNode):
    """A router running the simulated multicast protocol."""

    def __init__(
        self, node_id: NodeId, network: SimNetwork, owner: "_BaseSimulation"
    ) -> None:
        super().__init__(node_id, network)
        self.owner = owner
        self.upstream: NodeId | None = None
        self.is_member = False
        self.is_source = False
        self.connected = False  # believes it currently receives data
        self.shr_upstream_value = 0
        self._join_retries_left = 0
        self._awaiting_ack = False
        self.downstream = SoftStateTable(
            self.sim,
            owner.timers.softstate_lifetime,
            on_expire=self._on_softstate_expired,
        )
        self._refresh_timer = PeriodicTimer(
            self.sim, owner.timers.refresh_period, self._send_refresh
        )
        self._advert_timer = PeriodicTimer(
            self.sim, owner.timers.advert_period, self._send_adverts
        )
        self._watchdog = WatchdogTimer(
            self.sim, owner.timers.failure_detection_timeout, self._on_upstream_lost
        )
        self._last_data_seq = -1
        self.on(JoinReq, self._handle_join_req)
        self.on(JoinAck, self._handle_join_ack)
        self.on(LeaveReq, self._handle_leave_req)
        self.on(Refresh, self._handle_refresh)
        self.on(ShrAdvert, self._handle_shr_advert)
        self.on(Prune, self._handle_prune)
        self.on(DataPacket, self._handle_data)

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    @property
    def on_tree(self) -> bool:
        return self.is_source or self.upstream is not None

    @property
    def n_self(self) -> int:
        """``N_R``: own membership plus everything below (Figure 3)."""
        return (1 if self.is_member else 0) + self.downstream.total_subtree_members()

    @property
    def shr(self) -> int:
        """``SHR_{S,R} = SHR_{S,R_u} + N_R`` (Eq. 2); 0 at the source."""
        if self.is_source:
            return 0
        return self.shr_upstream_value + self.n_self

    # ------------------------------------------------------------------
    # Actions initiated by the owner simulation
    # ------------------------------------------------------------------
    def become_source(self) -> None:
        self.is_source = True
        self.connected = True
        self._refresh_timer.start()
        self._advert_timer.start()

    def start_join(self, path: tuple[NodeId, ...]) -> None:
        """Issue a ``Join_Req`` along ``path`` (this node first)."""
        if path[0] != self.node_id:
            raise SimulationError(f"join path must start at {self.node_id}")
        self.is_member = True
        if self.on_tree:
            # Already relaying: membership flag is enough (§3.2.2).
            self.owner.complete_join(self.node_id, self.sim.now)
            return
        if len(path) < 2:
            raise SimulationError("off-tree joiner needs a path of length >= 2")
        self.upstream = path[1]
        self.trace("join", "request", detail=f"path {'-'.join(map(str, path))}")
        self.send(
            JoinReq(
                hop_src=self.node_id, hop_dst=path[1], joiner=self.node_id, path=path
            )
        )
        self._refresh_timer.start()
        self._advert_timer.start()
        # The watchdog arms only once the ack confirms connectivity; until
        # then a retransmission timer covers lost requests.
        self._arm_join_retry(path)

    def start_leave(self) -> None:
        """Issue a ``Leave_Req`` toward the source."""
        if not self.is_member:
            raise SimulationError(f"node {self.node_id} is not a member")
        self.is_member = False
        self.trace("leave", "request")
        if len(self.downstream) == 0 and not self.is_source:
            self._detach_and_prune_upstream()

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def _handle_join_req(self, message: Message) -> None:
        assert isinstance(message, JoinReq)
        previous_hop = message.hop_src
        self.downstream.refresh(previous_hop, subtree_members=0)
        if self.on_tree:
            # Merge point reached (possibly earlier than planned: the join
            # stops at the first on-tree router, PIM-style).
            self.trace("join", "merged", detail=f"joiner {message.joiner}")
            self.send(
                JoinAck(
                    hop_src=self.node_id,
                    hop_dst=previous_hop,
                    joiner=message.joiner,
                    merge_node=self.node_id,
                    path=message.path,
                )
            )
            return
        index = message.path.index(self.node_id)
        if index + 1 >= len(message.path):
            raise SimulationError(
                f"join request ran out of path at off-tree node {self.node_id}"
            )
        self.upstream = message.path[index + 1]
        self._refresh_timer.start()
        self._advert_timer.start()
        self.send(
            JoinReq(
                hop_src=self.node_id,
                hop_dst=self.upstream,
                joiner=message.joiner,
                path=message.path,
            )
        )

    def _handle_join_ack(self, message: Message) -> None:
        assert isinstance(message, JoinAck)
        self.connected = True
        if self.upstream is not None:
            self._watchdog.kick()
        if message.joiner == self.node_id:
            self.trace("join", "ack", detail=f"merge {message.merge_node}")
            self._join_retries_left = 0
            self._awaiting_ack = False
            self.owner.complete_join(self.node_id, self.sim.now)
            self.owner.note_restored(self.node_id)
            return
        # Relay the ack downstream along the recorded path.
        index = message.path.index(self.node_id)
        if index == 0:
            raise SimulationError(f"ack overshot the joiner at {self.node_id}")
        self.send(
            JoinAck(
                hop_src=self.node_id,
                hop_dst=message.path[index - 1],
                joiner=message.joiner,
                merge_node=message.merge_node,
                path=message.path,
            )
        )

    def _handle_leave_req(self, message: Message) -> None:
        assert isinstance(message, LeaveReq)
        self.downstream.remove(message.hop_src)
        if len(self.downstream) == 0 and not self.is_member and not self.is_source:
            self._detach_and_prune_upstream()

    def _handle_refresh(self, message: Message) -> None:
        assert isinstance(message, Refresh)
        self.downstream.refresh(
            message.hop_src, subtree_members=message.subtree_members
        )

    def _handle_shr_advert(self, message: Message) -> None:
        assert isinstance(message, ShrAdvert)
        if message.hop_src != self.upstream:
            return  # stale advert from a former parent
        self.shr_upstream_value = message.shr_upstream
        self.connected = True
        self._watchdog.kick()
        self.owner.note_heartbeat(self.node_id)

    def _handle_prune(self, message: Message) -> None:
        assert isinstance(message, Prune)
        self.downstream.remove(message.hop_src)
        if len(self.downstream) == 0 and not self.is_member and not self.is_source:
            self._detach_and_prune_upstream()

    def _handle_data(self, message: Message) -> None:
        assert isinstance(message, DataPacket)
        # Monotone-sequence dedup kills transient forwarding loops; the
        # TTL is the backstop for anything pathological.
        if message.seq <= self._last_data_seq or message.ttl <= 0:
            return
        self._last_data_seq = message.seq
        if self.is_member:
            self.owner.record_delivery(self.node_id, message.seq, self.sim.now)
        self.forward_data(message.seq, message.ttl - 1, exclude=message.hop_src)

    def forward_data(self, seq: int, ttl: int, exclude: NodeId | None = None) -> None:
        """Replicate a data packet to every downstream interface."""
        for child in self.downstream.neighbors():
            if child == exclude:
                continue
            self.send(
                DataPacket(hop_src=self.node_id, hop_dst=child, seq=seq, ttl=ttl)
            )

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _send_refresh(self) -> None:
        self.downstream.expire()
        if self.upstream is not None and self.network.node_alive(self.node_id):
            self.send(
                Refresh(
                    hop_src=self.node_id,
                    hop_dst=self.upstream,
                    subtree_members=self.n_self,
                )
            )

    def _send_adverts(self) -> None:
        # A node only claims tree membership downstream while it believes
        # it is itself receiving data; a disconnected node falls silent so
        # its children's watchdogs fire and they recover independently.
        if (
            not self.on_tree
            or not self.connected
            or not self.network.node_alive(self.node_id)
        ):
            return
        for child in self.downstream.neighbors():
            self.send(
                ShrAdvert(hop_src=self.node_id, hop_dst=child, shr_upstream=self.shr)
            )

    def _on_upstream_lost(self) -> None:
        if self.upstream is None or self.is_source:
            return
        self.trace("failure", "detected", detail=f"upstream {self.upstream} silent")
        self.connected = False
        self.owner.handle_upstream_loss(self.node_id, self.upstream)

    def _on_softstate_expired(self, entry) -> None:
        self.trace("softstate", "expired", detail=f"downstream {entry.neighbor}")
        if len(self.downstream) == 0 and not self.is_member and not self.is_source:
            self._detach_and_prune_upstream()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _detach_and_prune_upstream(self) -> None:
        if self.upstream is not None:
            self.send(
                Prune(hop_src=self.node_id, hop_dst=self.upstream, pruned=self.node_id)
            )
        self.upstream = None
        self.connected = False
        self.shr_upstream_value = 0
        self._watchdog.disarm()
        self._refresh_timer.stop()
        self._advert_timer.stop()

    def mark_disconnected(self) -> None:
        """Recovery failed here: fall silent so descendants try themselves."""
        self.connected = False
        self._watchdog.disarm()

    def force_new_upstream(self, path: tuple[NodeId, ...]) -> None:
        """Switch to a detour path (failure recovery / reshape switch)."""
        if path[0] != self.node_id or len(path) < 2:
            raise SimulationError(f"bad detour path {path} for node {self.node_id}")
        self.upstream = path[1]
        self._watchdog.disarm()
        self._refresh_timer.start()
        self._advert_timer.start()
        self.send(
            JoinReq(
                hop_src=self.node_id,
                hop_dst=path[1],
                joiner=self.node_id,
                path=path,
                member=self.is_member,
            )
        )
        self._arm_join_retry(path)

    def _arm_join_retry(self, path: tuple[NodeId, ...]) -> None:
        """Retransmit the join until an ack confirms it was installed."""
        self._join_retries_left = self.owner.timers.max_join_retries
        self._awaiting_ack = True
        self._schedule_join_retry(path)

    def _schedule_join_retry(self, path: tuple[NodeId, ...]) -> None:
        def retry() -> None:
            if not self._awaiting_ack or self._join_retries_left <= 0:
                return
            if self.upstream != path[1]:
                return  # a newer path superseded this join
            self._join_retries_left -= 1
            self.trace("join", "retry", detail=f"path {'-'.join(map(str, path))}")
            self.send(
                JoinReq(
                    hop_src=self.node_id,
                    hop_dst=path[1],
                    joiner=self.node_id,
                    path=path,
                    member=self.is_member,
                )
            )
            self._schedule_join_retry(path)

        self.sim.schedule(self.owner.timers.join_retry_interval, retry)


class _BaseSimulation:
    """Shared harness: builds the network, tracks joins and recoveries."""

    #: Router implementation; subclasses may install an extended node type.
    node_class: type = MulticastSimNode

    def __init__(
        self,
        topology: Topology,
        source: NodeId,
        timers: SimTimers | None = None,
        trace: Trace | None = None,
        obs: Observability | None = None,
    ) -> None:
        self.topology = topology
        self.source = source
        self.timers = timers or SimTimers.for_topology(topology)
        self.obs = obs if obs is not None else NULL_OBS
        self.sim = Simulator(obs=obs)
        #: The caller's trace, or None: without one nothing is recorded.
        self.trace = trace
        if self.obs.tracer is not None:
            # Restoration episodes and ambient spans (reshape evaluations,
            # candidate searches) read the simulated clock from here on.
            self.obs.tracer.bind_clock(lambda: self.sim.now)
        self.network = SimNetwork(self.sim, topology, trace=self.trace, obs=obs)
        metrics = self.obs.metrics
        self._c_detections = metrics.counter("sim.recovery.detections")
        self._c_unrecoverable = metrics.counter("sim.recovery.unrecoverable")
        self._c_restored = metrics.counter("sim.recovery.restored")
        self._h_detour_hops = metrics.hdr_histogram("sim.recovery.detour_hops")
        self.nodes: dict[NodeId, MulticastSimNode] = {
            node: self.node_class(node, self.network, self)
            for node in topology.nodes()
        }
        self.nodes[source].become_source()
        # Per-simulation memo of failure-free member-rooted SPF state:
        # join-path selection repeats the same lookups across retries and
        # reshapes, and the failure-aware cache keys keep post-failure
        # searches distinct.
        self.route_cache = RouteCache()
        self.join_records: dict[NodeId, JoinRecord] = {}
        self.recovery_records: list[RecoveryRecord] = []
        #: member → list of (sequence number, arrival time) data receipts.
        self.deliveries: dict[NodeId, list[tuple[int, float]]] = {}
        self._data_timer: PeriodicTimer | None = None
        self._data_seq = 0
        self.data_period: float | None = None

    # -- overridden by concrete protocols --------------------------------
    def select_join_path(self, member: NodeId) -> tuple[NodeId, ...]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def start_data(self, period: float) -> None:
        """Have the source multicast one data packet every ``period``.

        Members log every packet they receive (:attr:`deliveries`);
        :meth:`disruption` turns the sequence gaps into the user-visible
        outage metric.
        """
        if self._data_timer is not None:
            self._data_timer.stop()
        self.data_period = period
        self._data_timer = PeriodicTimer(self.sim, period, self._emit_data)
        self._data_timer.start()

    def _emit_data(self) -> None:
        source_node = self.nodes[self.source]
        if not self.network.node_alive(self.source):
            return
        self._data_seq += 1
        source_node.forward_data(self._data_seq, ttl=64)

    def record_delivery(self, member: NodeId, seq: int, at: float) -> None:
        self.deliveries.setdefault(member, []).append((seq, at))

    def disruption(self, member: NodeId) -> tuple[int, float]:
        """Worst service gap a member experienced.

        Returns ``(packets lost in the largest gap, gap duration)`` over
        the member's delivery log — (0, 0.0) for uninterrupted service.
        """
        log = self.deliveries.get(member, [])
        if len(log) < 2:
            return (0, 0.0)
        worst_missing = 0
        worst_duration = 0.0
        for (seq_a, t_a), (seq_b, t_b) in zip(log, log[1:]):
            missing = seq_b - seq_a - 1
            if missing > worst_missing:
                worst_missing = missing
                worst_duration = t_b - t_a
        return (worst_missing, worst_duration)

    # ------------------------------------------------------------------
    # Workload API
    # ------------------------------------------------------------------
    def schedule_join(self, time: float, member: NodeId) -> None:
        self.sim.schedule_at(time, lambda: self._do_join(member))

    def schedule_leave(self, time: float, member: NodeId) -> None:
        self.sim.schedule_at(time, lambda: self._do_leave(member))

    def run(self, until: float) -> None:
        self.sim.run(until=until)

    # ------------------------------------------------------------------
    # Callbacks from nodes
    # ------------------------------------------------------------------
    def complete_join(self, member: NodeId, at: float) -> None:
        record = self.join_records.get(member)
        if record is not None and record.acked_at is None:
            record.acked_at = at

    def note_heartbeat(self, node: NodeId) -> None:
        """Hook for latency bookkeeping; a node heard from its parent."""
        self.note_restored(node)

    def note_restored(self, node: NodeId) -> None:
        """Close any pending recovery record for ``node`` — but only when
        its data path genuinely reaches the source.

        A re-join can transiently attach to a *stale* on-tree fragment
        (e.g. one of the node's own detached descendants, before that
        descendant has detected the outage) — the transient multicast
        loops real PIM exhibits during convergence.  Such an attachment
        must not count as restored service; the record stays open and is
        re-examined on later heartbeats until the chain is genuine.
        """
        if not self._reaches_source(node):
            return
        for record in self.recovery_records:
            if record.detector == node and record.restored_at is None:
                if record.detected_at is not None:
                    record.restored_at = self.sim.now
                    self._c_restored.inc()
                    if self.obs.tracer is not None:
                        # Closes the open ``repair`` span and the episode
                        # root at the restoration time; hops still in
                        # flight are trimmed so causality stays valid.
                        self.obs.tracer.close(node, self.sim.now)

    def _reaches_source(self, node: NodeId) -> bool:
        """True when the node's upstream chain reaches the source over
        live links (measurement-only check; nodes never read this)."""
        cursor = node
        seen = {node}
        while cursor != self.source:
            upstream = self.nodes[cursor].upstream
            if upstream is None or upstream in seen:
                return False
            if not self.network.link_usable(cursor, upstream):
                return False
            if not self.network.node_alive(upstream):
                return False
            seen.add(upstream)
            cursor = upstream
        return True

    def _failure_time(self) -> float:
        """When the triggering failure happened (injection time when
        known; otherwise bounded by the detection timeout)."""
        if self.network.last_failure_at is not None:
            return self.network.last_failure_at
        return self.sim.now - self.timers.failure_detection_timeout

    def handle_upstream_loss(self, detector: NodeId, lost_upstream: NodeId) -> None:
        """A node's upstream went silent: run the local-detour recovery.

        The detecting node (the root of the detached subtree) computes a
        detour to the last-known tree, avoiding the component it has just
        diagnosed as faulty, and re-joins.  Its descendants never notice.
        """
        record = RecoveryRecord(
            detector=detector,
            failed_at=self._failure_time(),
            detected_at=self.sim.now,
        )
        self.recovery_records.append(record)
        self._c_detections.inc()
        tracer = self.obs.tracer
        episode = None
        if tracer is not None:
            # The episode spans failure injection to service restoration;
            # ``detect`` covers the silent-upstream window, ``repair``
            # opens now and is closed by :meth:`note_restored`.
            episode = tracer.open(
                detector,
                "local",
                self.network.current_failures.describe(),
                record.failed_at,
            )
            episode.child(
                "detect", detector, record.failed_at, record.detected_at,
                payload={"lost_upstream": lost_upstream},
            )
        with self.obs.span("sim.recovery.detour"):
            known_failures = self.network.current_failures
            # The node states still hold the pre-failure upstream pointers
            # (the detector included), so the extracted tree IS the
            # last-known tree.
            known_tree = self.extract_tree()
            detached = known_tree.subtree_nodes(detector) if (
                known_tree.is_on_tree(detector)
            ) else {detector}
            surviving = known_tree.surviving_component(known_failures)
            barriers = set(known_tree.on_tree_nodes())
            paths = dijkstra_with_barriers(
                self.topology,
                detector,
                barriers=barriers - {detector},
                failures=known_failures.union(
                    FailureSet(failed_nodes=frozenset(detached - {detector}))
                ),
            )
            reachable = [n for n in surviving if n in paths.dist and n != detector]
            if not reachable:
                # This subtree root cannot reach the surviving tree itself
                # (e.g. its only exits run through its own descendants).  It
                # falls silent; descendants' watchdogs will expire and they
                # recover on their own — the member-driven recovery of §3.1.
                if self.trace is not None:
                    self.trace.record(
                        self.sim.now, "failure", detector, "unrecoverable",
                        episode_id=(
                            episode.episode.episode_id if episode is not None
                            else ""
                        ),
                    )
                if tracer is not None:
                    tracer.abandon(detector)
                self._c_unrecoverable.inc()
                self.nodes[detector].mark_disconnected()
                return
            target = min(reachable, key=lambda n: (paths.dist[n], n))
            toward = paths.path_to(target)
            detour = tuple(toward)
        record.detour = detour
        self._h_detour_hops.observe(len(detour) - 1)
        if episode is not None:
            episode.instant(
                "search", detector, self.sim.now,
                payload={
                    "detour_hops": len(detour) - 1,
                    "attach_node": detour[-1],
                },
            )
            episode.open_phase(
                "repair", detector, self.sim.now,
                payload={"detour": "-".join(str(n) for n in detour)},
            )
        node = self.nodes[detector]
        node.force_new_upstream(detour)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def extract_tree(self) -> MulticastTree:
        """Reconstruct the multicast tree from live node states."""
        tree = MulticastTree(self.topology, self.source)
        # Attach nodes in upstream-chain order.
        remaining = {
            n.node_id: n.upstream
            for n in self.nodes.values()
            if n.upstream is not None and self.network.node_alive(n.node_id)
        }
        progress = True
        while remaining and progress:
            progress = False
            for node, up in sorted(remaining.items()):
                if tree.is_on_tree(up):
                    tree.graft([up, node], member=False)
                    del remaining[node]
                    progress = True
        for node in self.nodes.values():
            if node.is_member and tree.is_on_tree(node.node_id):
                tree.add_member(node.node_id)
        return tree

    def shr_view(self) -> dict[NodeId, int]:
        """The SHR values nodes currently believe (may lag the truth)."""
        return {
            n.node_id: n.shr
            for n in self.nodes.values()
            if n.on_tree and self.network.node_alive(n.node_id)
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _do_join(self, member: NodeId) -> None:
        node = self.nodes[member]
        if node.is_member:
            return
        self.join_records[member] = JoinRecord(member=member, requested_at=self.sim.now)
        if node.on_tree:
            node.is_member = True
            self.complete_join(member, self.sim.now)
            return
        with self.obs.span("sim.join.select_path"):
            path = self.select_join_path(member)
        self.join_records[member].path = path
        node.start_join(path)

    def _do_leave(self, member: NodeId) -> None:
        node = self.nodes[member]
        if not node.is_member:
            return
        node.start_leave()


class SmrpSimulation(_BaseSimulation):
    """SMRP over the DES: SHR-driven selection with the D_thresh bound.

    The joining member enumerates candidates against the *advertised* SHR
    values (full-knowledge mode of §3.2.2; possibly stale mid-convergence)
    and applies the Path Selection Criterion.

    Condition-II reshaping (§3.2.3) can be enabled with
    :meth:`enable_reshaping`: a periodic timer re-runs path selection at
    every member and switches it (make-before-break: ``Join_Req`` along
    the new path, then ``Prune`` up the old one) when a strictly better
    attachment exists.  The evaluation assumes SHR adverts have converged
    between timer firings, which holds when the reshape period is long
    relative to the advert period — the recommended regime anyway, since
    reshaping exists to track slow membership drift, not message noise.
    """

    def __init__(
        self,
        topology: Topology,
        source: NodeId,
        d_thresh: float = 0.3,
        timers: SimTimers | None = None,
        trace: Trace | None = None,
        obs: Observability | None = None,
    ) -> None:
        super().__init__(topology, source, timers=timers, trace=trace, obs=obs)
        self.d_thresh = d_thresh
        self.reshapes_performed = 0
        self._reshape_timer: PeriodicTimer | None = None

    # ------------------------------------------------------------------
    # Condition-II reshaping
    # ------------------------------------------------------------------
    def enable_reshaping(self, period: float) -> None:
        """Arm the periodic re-selection timer (Condition II)."""
        if self._reshape_timer is not None:
            self._reshape_timer.stop()
        self._reshape_timer = PeriodicTimer(self.sim, period, self._reshape_pass)
        self._reshape_timer.start()

    def _reshape_pass(self) -> None:
        from repro.core.reshape import evaluate_reshape

        tree = self.extract_tree()
        for member in sorted(tree.members):
            if member == self.source:
                continue
            node = self.nodes[member]
            if not node.connected or not self.network.node_alive(member):
                continue
            decision = evaluate_reshape(
                self.topology, tree, member, self.d_thresh,
                failures=self.network.current_failures,
            )
            if not decision.performed:
                continue
            old_upstream = node.upstream
            detour = tuple(reversed(decision.new_path))
            node.force_new_upstream(detour)
            if old_upstream is not None and old_upstream != detour[1]:
                node.send(
                    Prune(
                        hop_src=member, hop_dst=old_upstream, pruned=member
                    )
                )
            self.reshapes_performed += 1
            if self.trace is not None:
                self.trace.record(
                    self.sim.now, "reshape", member, "switched",
                    detail=f"merge {decision.new_merge_node}",
                )
            # Re-read the tree so later members see the switch.
            tree = self.extract_tree()

    def select_join_path(self, member: NodeId) -> tuple[NodeId, ...]:
        tree = self.extract_tree()
        shr_values = self.shr_view()
        shr_values.setdefault(self.source, 0)
        selection = select_join(
            self.topology,
            tree,
            member,
            shr_values,
            spf_distance(self.topology, member, self.source),
            self.d_thresh,
        )
        # start_join expects joiner-first ordering.
        return tuple(reversed(selection.candidate.graft_path))


class SpfSimulation(_BaseSimulation):
    """The PIM/MOSPF-style baseline over the DES."""

    def select_join_path(self, member: NodeId) -> tuple[NodeId, ...]:
        paths = self.route_cache.shortest_paths(self.topology, member, obs=self.obs)
        return tuple(paths.path_to(self.source))
