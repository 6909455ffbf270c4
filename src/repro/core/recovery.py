"""Failure restoration: local detours vs. the global (SPF re-join) detour.

This module implements the two recovery strategies the evaluation
compares (§4.3.1):

**Local detour** (SMRP's mechanism)
    The disconnected member immediately reconnects to the *nearest*
    on-tree node still connected to the source, over the shortest
    non-faulty path.  Only failure detection and a short graft stand
    between the failure and restored service — no waiting for unicast
    re-convergence.

**Global detour** (what PIM/MOSPF do today)
    The member waits for the unicast routing protocol to re-converge,
    then re-joins along its new shortest path toward the source, grafting
    at the first surviving on-tree router that path meets.

Both produce a :class:`RecoveryResult` carrying the paper's recovery
distance ``RD_R`` — the length of the restoration path, i.e. of the links
newly brought into the tree ("if D chooses D→C→A→S, the restoration path
is D→C and hence RD_D = 2").

The per-member *measurement* functions never mutate the tree;
:func:`repair_tree` actually restores a whole session (all disconnected
members) and returns the repaired tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RecoveryError, UnrecoverableFailureError
from repro.graph.topology import Edge, NodeId, Topology, edge_key
from repro.multicast.tree import MulticastTree
from repro.obs import NULL_OBS, Observability
from repro.obs.tracing import Episode, RestorationTracer
from repro.routing.failure_view import NO_FAILURES, FailureSet
from repro.routing.link_state import ConvergenceModel
from repro.routing.spf import ShortestPaths, dijkstra


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of one member's restoration.

    Attributes
    ----------
    member:
        The disconnected member.
    strategy:
        ``"local"`` or ``"global"``.
    attach_node:
        The surviving on-tree node the member reconnected through.
    restoration_path:
        ``member → … → attach_node`` — the links brought into the tree.
    recovery_distance:
        ``RD_R``: delay-weighted length of the restoration path.
    recovery_hops:
        Hop-count variant of the same metric (for sensitivity checks).
    new_end_to_end_delay:
        Post-recovery delay ``D_{S,member}``.
    already_connected:
        True when the failure did not actually cut this member off
        (``RD_R = 0`` and the other fields describe the status quo).
    """

    member: NodeId
    strategy: str
    attach_node: NodeId
    restoration_path: tuple[NodeId, ...]
    recovery_distance: float
    recovery_hops: int
    new_end_to_end_delay: float
    already_connected: bool = False


def worst_case_failure(tree: MulticastTree, member: NodeId) -> FailureSet:
    """The paper's worst-case scenario for ``member`` (§4.3.1).

    Fails the on-tree link closest to the source on the member's path
    (the incident link of ``S`` toward ``member``), which detaches the
    largest possible portion of the member's branch.
    """
    path = tree.path_from_source(member)
    if len(path) < 2:
        raise RecoveryError(f"member {member} is the source; nothing to fail")
    return FailureSet.links((path[0], path[1]))


def _member_paths(
    topology: Topology,
    member: NodeId,
    failures: FailureSet,
    route_cache,
    route_obs,
) -> ShortestPaths:
    """Post-failure SPF state rooted at the member.

    Routed through the failure-aware ``route_cache`` when one is supplied:
    the worst-case sweep evaluates the same ``(member, failure)`` scenario
    under several strategies and trees, and single-link failures off the
    member's failure-free tree resolve by reuse proof without a kernel run.
    """
    if route_cache is not None:
        return route_cache.shortest_paths(
            topology, member, weight="delay", failures=failures, obs=route_obs
        )
    return dijkstra(topology, member, weight="delay", failures=failures)


def local_detour_recovery(
    topology: Topology,
    tree: MulticastTree,
    member: NodeId,
    failures: FailureSet,
    obs: Observability | None = None,
    route_cache=None,
    route_obs=None,
) -> RecoveryResult:
    """Measure the local-detour restoration of ``member`` under ``failures``.

    The member connects to the surviving on-tree node at minimum
    shortest-path distance over non-faulty components.  If the shortest
    path toward that node touches the surviving tree earlier, the detour
    is truncated at the first contact (the restoration path may not cross
    the surviving tree — those links are already in service).

    ``route_cache`` memoises the post-failure SPF lookup; ``route_obs``
    attributes its cache activity (defaults to ``obs``, letting callers
    report cache traffic without double-counting recovery attempts).
    """
    obs = obs if obs is not None else NULL_OBS
    tracer = obs.tracer
    obs.counter("recovery.local.attempts").inc()
    route_obs = route_obs if route_obs is not None else obs
    surviving = tree.surviving_component(failures)
    if not surviving:
        obs.counter("recovery.local.unrecoverable").inc()
        if tracer is not None:
            _trace_unrecoverable_episode(
                tracer, member, "local", failures, "source failed"
            )
        raise UnrecoverableFailureError(member, "the source itself has failed")
    if member in surviving:
        obs.counter("recovery.local.already_connected").inc()
        result = _already_connected(tree, member, "local")
        if tracer is not None:
            _trace_recovery_episode(tracer, topology, tree, result, failures)
        return result

    paths = _member_paths(topology, member, failures, route_cache, route_obs)
    reachable = [node for node in surviving if node in paths.dist]
    if not reachable:
        obs.counter("recovery.local.unrecoverable").inc()
        if tracer is not None:
            _trace_unrecoverable_episode(
                tracer, member, "local", failures, "no path to surviving tree"
            )
        raise UnrecoverableFailureError(
            member, f"no non-faulty path to the surviving tree ({failures.describe()})"
        )
    target = min(reachable, key=lambda node: (paths.dist[node], node))
    detour = _truncate_at_first_contact(paths.path_to(target), surviving)
    attach = detour[-1]
    obs.histogram("recovery.local.hops").observe(len(detour) - 1)
    result = RecoveryResult(
        member=member,
        strategy="local",
        attach_node=attach,
        restoration_path=tuple(detour),
        recovery_distance=topology.path_delay(detour),
        recovery_hops=len(detour) - 1,
        new_end_to_end_delay=tree.delay_from_source(attach)
        + topology.path_delay(detour),
    )
    if tracer is not None:
        _trace_recovery_episode(tracer, topology, tree, result, failures)
    return result


def global_detour_recovery(
    topology: Topology,
    tree: MulticastTree,
    member: NodeId,
    failures: FailureSet,
    obs: Observability | None = None,
    route_cache=None,
    route_obs=None,
) -> RecoveryResult:
    """Measure the SPF re-join restoration of ``member`` under ``failures``.

    Models today's PIM-over-OSPF behaviour: after re-convergence the
    member's routing table holds a new shortest path to the source with
    the failed components withdrawn; the re-join travels that path and
    grafts at the first surviving on-tree router it meets.
    ``route_cache`` / ``route_obs`` as in :func:`local_detour_recovery`.
    """
    obs = obs if obs is not None else NULL_OBS
    tracer = obs.tracer
    obs.counter("recovery.global.attempts").inc()
    route_obs = route_obs if route_obs is not None else obs
    surviving = tree.surviving_component(failures)
    if not surviving:
        obs.counter("recovery.global.unrecoverable").inc()
        if tracer is not None:
            _trace_unrecoverable_episode(
                tracer, member, "global", failures, "source failed"
            )
        raise UnrecoverableFailureError(member, "the source itself has failed")
    if member in surviving:
        obs.counter("recovery.global.already_connected").inc()
        result = _already_connected(tree, member, "global")
        if tracer is not None:
            _trace_recovery_episode(tracer, topology, tree, result, failures)
        return result

    paths = _member_paths(topology, member, failures, route_cache, route_obs)
    if tree.source not in paths.dist:
        obs.counter("recovery.global.unrecoverable").inc()
        if tracer is not None:
            _trace_unrecoverable_episode(
                tracer, member, "global", failures,
                "source unreachable after re-convergence",
            )
        raise UnrecoverableFailureError(
            member, f"source unreachable after re-convergence ({failures.describe()})"
        )
    rejoin = paths.path_to(tree.source)
    detour = _truncate_at_first_contact(rejoin, surviving)
    attach = detour[-1]
    obs.histogram("recovery.global.hops").observe(len(detour) - 1)
    result = RecoveryResult(
        member=member,
        strategy="global",
        attach_node=attach,
        restoration_path=tuple(detour),
        recovery_distance=topology.path_delay(detour),
        recovery_hops=len(detour) - 1,
        new_end_to_end_delay=tree.delay_from_source(attach)
        + topology.path_delay(detour),
    )
    if tracer is not None:
        _trace_recovery_episode(tracer, topology, tree, result, failures)
    return result


def estimate_restoration_latency(
    topology: Topology,
    tree: MulticastTree,
    result: RecoveryResult,
    failures: FailureSet,
    convergence: ConvergenceModel | None = None,
    signaling_delay_factor: float = 1.0,
) -> float:
    """Translate a recovery into a service-restoration latency estimate.

    - Local detour: failure detection at the member plus graft signaling
      over the restoration path (round trip: request out, data back).
    - Global detour: the member's unicast table must re-converge first
      (§1, [25]); then the re-join propagates the same way.
    - Precomputed strategies (``"alternate"`` re-joins over a
      pre-established single-failure route; ``"backup"`` switches to a
      pre-installed tree) skip the re-convergence wait exactly like the
      local detour — only ``"global"`` pays it.  A backup switchover's
      recovery distance is zero, so its latency collapses to the
      detection delay alone.

    The latency model deliberately keeps the same detection delay for
    every strategy so the comparison isolates what the paper argues:
    the *re-convergence wait* and the *longer restoration path* are the
    global detour's handicap.
    """
    model = convergence or ConvergenceModel()
    signaling = 2.0 * signaling_delay_factor * result.recovery_distance
    if result.strategy != "global":
        return model.detection_delay + signaling
    times = model.convergence_times(topology, failures)
    member_ready = times.get(result.member, model.detection_delay)
    return member_ready + signaling


# ----------------------------------------------------------------------
# Causal tracing of the closed-form latency model
# ----------------------------------------------------------------------
def _trace_recovery_episode(
    tracer: RestorationTracer,
    topology: Topology,
    tree: MulticastTree,
    result: RecoveryResult,
    failures: FailureSet,
    origin: str = "measure",
    convergence: ConvergenceModel | None = None,
    signaling_delay_factor: float = 1.0,
) -> None:
    """Emit one restoration episode for a measured recovery.

    The span tree is synthesized from the *same* latency model as
    :func:`estimate_restoration_latency`, phase by phase, so the
    episode's critical path sums to exactly the latency the figures
    report: ``detect`` (local) or ``converge`` (global) covers the wait
    before the member can act, a zero-width ``search`` marks the
    candidate selection (the model charges no time for computation), and
    ``signal`` covers the round-trip graft, tiled by per-link
    ``signal.hop`` children along the restoration path.
    """
    model = convergence or ConvergenceModel()
    latency = estimate_restoration_latency(
        topology, tree, result, failures, model, signaling_delay_factor
    )
    episode = Episode.new(
        tracer.next_episode_id(result.member, result.strategy),
        tracer.scenario_key,
        result.member,
        result.strategy,
        tracer.current_origin(origin),
        failures.describe(),
        0.0,
        outcome="already_connected" if result.already_connected else "restored",
    )
    if result.strategy != "global":
        ready = model.detection_delay
        episode.add("detect", result.member, 0.0, ready,
                    payload={"detection_delay": model.detection_delay})
    else:
        times = model.convergence_times(topology, failures)
        ready = times.get(result.member, model.detection_delay)
        episode.add("converge", result.member, 0.0, ready,
                    payload={"detection_delay": model.detection_delay})
    episode.add("search", result.member, ready, ready, payload={
        "attach_node": result.attach_node,
        "recovery_hops": result.recovery_hops,
        "already_connected": result.already_connected,
    })
    if result.recovery_distance > 0:
        signal = episode.add("signal", result.member, ready, latency, payload={
            "recovery_distance": result.recovery_distance,
        })
        cursor = ready
        path = result.restoration_path
        for u, v in zip(path, path[1:]):
            step = 2.0 * signaling_delay_factor * topology.delay(u, v)
            episode.add("signal.hop", v, cursor, cursor + step, parent=signal,
                        payload={"link": f"{u}-{v}"})
            cursor += step
    episode.close(latency)
    tracer.emit(episode)


def _trace_unrecoverable_episode(
    tracer: RestorationTracer,
    member: NodeId,
    strategy: str,
    failures: FailureSet,
    reason: str,
    origin: str = "measure",
) -> None:
    """Emit an episode for a member the strategy could not restore.

    There is no restoration latency to attribute; the episode covers
    only the detection window (the member learned of the failure and
    found no path), with the reason in the root payload.  The analyzer
    excludes these from latency statistics.
    """
    detection = ConvergenceModel().detection_delay
    episode = Episode.new(
        tracer.next_episode_id(member, strategy),
        tracer.scenario_key,
        member,
        strategy,
        tracer.current_origin(origin),
        failures.describe(),
        0.0,
        outcome="unrecoverable",
    )
    episode.root.payload["reason"] = reason
    episode.add("detect", member, 0.0, detection,
                payload={"detection_delay": detection})
    episode.close(detection)
    tracer.emit(episode)


@dataclass
class TreeRepairReport:
    """Outcome of restoring an entire session after a failure."""

    repaired_tree: MulticastTree
    strategy: str
    recoveries: list[RecoveryResult] = field(default_factory=list)
    unrecoverable: list[NodeId] = field(default_factory=list)
    new_links: set[Edge] = field(default_factory=set)

    @property
    def total_recovery_distance(self) -> float:
        return sum(r.recovery_distance for r in self.recoveries)


class _RepairPathsMemo:
    """Per-repair memo of post-failure SPF state: one run per member, ever.

    Within one :func:`repair_tree` call the ``(topology, member, failures)``
    triple is invariant — only the *tree* grows as members re-attach — so
    the member's :class:`ShortestPaths` from the first round stays valid in
    every later round and only the truncation against the updated surviving
    set needs redoing.  The memo presents the
    :meth:`~repro.routing.route_cache.RouteCache.shortest_paths` interface
    the recovery functions already consume, so it simply slots in as their
    ``route_cache``; an actual route cache, when supplied, sits underneath
    and serves cross-repair reuse (and its reuse proofs).

    ``recovery.repair.spf_runs`` counts memo misses — at most one per
    pending member, the O(k) bound the regression suite asserts (the old
    loop recomputed every pending member every round: O(k²)).

    The memo keys on ``root`` alone precisely *because* of that
    one-repair invariance, so it binds itself to the
    ``(topology state, weight, failures)`` of its first call and raises
    on any later mismatch — misuse across failure sets or topologies
    fails loudly instead of silently serving stale paths.
    """

    __slots__ = ("_inner", "_paths", "_runs", "_bound")

    def __init__(self, inner, runs_counter) -> None:
        self._inner = inner
        self._paths: dict[NodeId, ShortestPaths] = {}
        self._runs = runs_counter
        self._bound: tuple[int, str, FailureSet] | None = None

    def shortest_paths(
        self,
        topology: Topology,
        root: NodeId,
        weight: str = "delay",
        failures: FailureSet = NO_FAILURES,
        obs=None,
    ) -> ShortestPaths:
        context = (topology.cache_token(), weight, failures)
        if self._bound is None:
            self._bound = context
        elif context != self._bound:
            raise RecoveryError(
                "_RepairPathsMemo reused across repair contexts: it memoizes "
                "SPF state per member for ONE (topology, weight, failures) "
                f"and was bound to {self._bound!r} but called with {context!r}"
            )
        paths = self._paths.get(root)
        if paths is None:
            self._runs.inc()
            if self._inner is not None:
                paths = self._inner.shortest_paths(
                    topology, root, weight=weight, failures=failures, obs=obs
                )
            else:
                paths = dijkstra(topology, root, weight=weight, failures=failures)
            self._paths[root] = paths
        return paths


def repair_tree(
    topology: Topology,
    tree: MulticastTree,
    failures: FailureSet,
    strategy: str = "local",
    obs: Observability | None = None,
    route_cache=None,
    route_obs=None,
) -> TreeRepairReport:
    """Restore every disconnected member; returns the repaired tree.

    The surviving portion of the tree is kept as-is; disconnected members
    re-attach one at a time — nearest-first for the local strategy (each
    restored member immediately becomes a potential attachment for the
    rest, so recoveries compound), join-order for the global strategy
    (each member independently re-joins along its re-converged SPF path).
    Detached pure-relay state is discarded, as its soft state would time
    out (§3.2).

    Each member's post-failure SPF state is computed at most once for the
    whole repair (``recovery.repair.spf_runs``) and re-truncated against
    the updated surviving set each round.  ``route_cache`` (a failure-aware
    :class:`~repro.routing.route_cache.RouteCache`) additionally shares
    that state *across* repair calls; ``route_obs`` attributes its cache
    traffic without touching the per-member ``recovery.*.attempts``
    counters (the same split the measurement paths use).
    """
    if strategy not in ("local", "global"):
        raise RecoveryError(f"unknown repair strategy {strategy!r}")
    if failures.node_failed(tree.source):
        raise UnrecoverableFailureError(tree.source, "the source itself has failed")

    obs = obs if obs is not None else NULL_OBS
    route_obs = route_obs if route_obs is not None else obs
    with obs.span("recovery.repair_tree"):
        repaired = _surviving_subtree(tree, failures)
        report = TreeRepairReport(repaired_tree=repaired, strategy=strategy)
        pending = [
            m
            for m in tree.disconnected_members(failures)
            if not failures.node_failed(m)
        ]
        report.unrecoverable.extend(
            m for m in tree.disconnected_members(failures) if failures.node_failed(m)
        )

        memo = _RepairPathsMemo(
            route_cache, obs.counter("recovery.repair.spf_runs")
        )
        while pending:
            recovery_fn = (
                local_detour_recovery if strategy == "local" else global_detour_recovery
            )
            options: list[tuple[float, NodeId, RecoveryResult]] = []
            for member in pending:
                try:
                    result = recovery_fn(
                        topology,
                        repaired,
                        member,
                        failures,
                        route_cache=memo,
                        route_obs=route_obs,
                    )
                except UnrecoverableFailureError:
                    continue
                options.append((result.recovery_distance, member, result))
            if not options:
                report.unrecoverable.extend(sorted(pending))
                break
            if strategy == "local":
                options.sort(key=lambda item: (item[0], item[1]))
            chosen_distance, chosen_member, chosen = options[0]
            if obs.tracer is not None:
                # One episode per member actually re-attached, against the
                # tree as it stood when that member was chosen.
                _trace_recovery_episode(
                    obs.tracer, topology, repaired, chosen, failures,
                    origin="repair",
                )
            graft = list(reversed(chosen.restoration_path))
            repaired.graft(graft)
            report.recoveries.append(chosen)
            report.new_links.update(
                edge_key(u, v) for u, v in zip(graft, graft[1:])
            )
            pending.remove(chosen_member)
        obs.counter("recovery.repair.members_restored").inc(len(report.recoveries))
        obs.counter("recovery.repair.unrecoverable").inc(len(report.unrecoverable))
    return report


def surviving_subtree(tree: MulticastTree, failures: FailureSet) -> MulticastTree:
    """Copy of ``tree`` restricted to the component still fed by the source.

    Public entry point for protocol families that assemble their own
    repairs (the alternate-path engine grafts precomputed routes onto
    this) — identical to what :func:`repair_tree` starts from.
    """
    return _surviving_subtree(tree, failures)


def _surviving_subtree(tree: MulticastTree, failures: FailureSet) -> MulticastTree:
    """Copy of the tree restricted to the component still fed by the source."""
    surviving = tree.surviving_component(failures)
    rebuilt = MulticastTree(tree.topology, tree.source)
    # Graft surviving branches in breadth-first order so parents exist first.
    frontier = [tree.source]
    while frontier:
        node = frontier.pop(0)
        for child in tree.children(node):
            if child not in surviving:
                continue
            rebuilt.graft([node, child], member=False)
            frontier.append(child)
    for member in tree.members:
        if member in surviving:
            rebuilt.add_member(member)
    # Trim surviving relays whose entire subtree was detached.
    rebuilt.trim_dead_branches()
    return rebuilt


def _already_connected(
    tree: MulticastTree, member: NodeId, strategy: str
) -> RecoveryResult:
    return RecoveryResult(
        member=member,
        strategy=strategy,
        attach_node=member,
        restoration_path=(member,),
        recovery_distance=0.0,
        recovery_hops=0,
        new_end_to_end_delay=tree.delay_from_source(member),
        already_connected=True,
    )


def _truncate_at_first_contact(
    path: list[NodeId], surviving: set[NodeId]
) -> list[NodeId]:
    """Cut ``path`` (starting off-tree) at its first surviving-tree node."""
    for index, node in enumerate(path):
        if node in surviving:
            return path[: index + 1]
    raise RecoveryError("path never touches the surviving tree")
