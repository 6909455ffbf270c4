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

Each detour is one question asked of the member's post-failure search
(:class:`~repro.routing.spf.PathSearch`): the nearest surviving node for
a local detour, the source for a global one.  The search settles nodes
only until that answer is final and resumes for the next question, so
no detour pays for a full post-failure SPF, and every answer equals the
full search's (DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.errors import RecoveryError, UnrecoverableFailureError
from repro.graph.topology import Edge, NodeId, Topology, edge_key
from repro.multicast.tree import MulticastTree
from repro.obs import NULL_OBS, Observability
from repro.obs.tracing import Episode, RestorationTracer
from repro.routing.failure_view import FailureSet
from repro.routing.link_state import ConvergenceModel
from repro.routing.spf import PathSearch, ShortestPaths


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


def _member_search(
    topology: Topology,
    member: NodeId,
    failures: FailureSet,
    route_cache,
    route_obs,
) -> ShortestPaths | PathSearch:
    """Post-failure shortest paths from the member, settled on demand.

    Routed through the failure-aware ``route_cache`` when one is supplied:
    the worst-case sweep asks the same ``(member, failure)`` scenario under
    several strategies and trees, and every question resumes the one
    search (or reads a failure-free result a reuse proof vouches for).
    """
    if route_cache is not None:
        return route_cache.search(
            topology, member, weight="delay", failures=failures, obs=route_obs
        )
    return PathSearch(topology, member, weight="delay", failures=failures)


def _local_detour(tree, surviving, paths) -> list[NodeId] | None:
    """The member's path to its nearest surviving on-tree node — minimum
    ``(distance, id)`` — cut at its first contact with the surviving tree;
    ``None`` when no surviving node is reachable."""
    target = paths.nearest(surviving)
    if target is None:
        return None
    return _truncate_at_first_contact(paths.path_to(target), surviving)


def _global_detour(tree, surviving, paths) -> list[NodeId] | None:
    """The member's re-converged path toward the source, cut at its first
    surviving on-tree router; ``None`` when the source is unreachable."""
    if not paths.reachable(tree.source):
        return None
    return _truncate_at_first_contact(paths.path_to(tree.source), surviving)


class _Strategy(NamedTuple):
    """A detour rule, why a member it cannot serve is unrecoverable (the
    trace reason, then the error message's prefix), and its metrics."""

    rule: Callable
    reason: str
    message: str
    attempts: str
    already_connected: str
    unrecoverable: str
    hops: str


_STRATEGIES = {
    "local": _Strategy(
        _local_detour,
        "no path to surviving tree",
        "no non-faulty path to the surviving tree",
        "recovery.local.attempts",
        "recovery.local.already_connected",
        "recovery.local.unrecoverable",
        "recovery.local.hops",
    ),
    "global": _Strategy(
        _global_detour,
        "source unreachable after re-convergence",
        "source unreachable after re-convergence",
        "recovery.global.attempts",
        "recovery.global.already_connected",
        "recovery.global.unrecoverable",
        "recovery.global.hops",
    ),
}


def _detour_result(
    topology: Topology,
    tree: MulticastTree,
    member: NodeId,
    strategy: str,
    detour: list[NodeId],
) -> RecoveryResult:
    attach = detour[-1]
    distance = topology.path_delay(detour)
    return RecoveryResult(
        member=member,
        strategy=strategy,
        attach_node=attach,
        restoration_path=tuple(detour),
        recovery_distance=distance,
        recovery_hops=len(detour) - 1,
        new_end_to_end_delay=tree.delay_from_source(attach) + distance,
    )


def _detour_recovery(
    strategy: str,
    topology: Topology,
    tree: MulticastTree,
    member: NodeId,
    failures: FailureSet,
    obs: Observability | None,
    route_cache,
    route_obs,
) -> RecoveryResult:
    """The measurement both detour functions share; see
    :func:`local_detour_recovery`."""
    spec = _STRATEGIES[strategy]
    obs = obs if obs is not None else NULL_OBS
    tracer = obs.tracer
    obs.counter(spec.attempts).inc()
    route_obs = route_obs if route_obs is not None else obs
    surviving = tree.surviving_component(failures)
    if not surviving:
        obs.counter(spec.unrecoverable).inc()
        if tracer is not None:
            _trace_unrecoverable_episode(
                tracer, member, strategy, failures, "source failed"
            )
        raise UnrecoverableFailureError(member, "the source itself has failed")
    if member in surviving:
        obs.counter(spec.already_connected).inc()
        result = _already_connected(tree, member, strategy)
        if tracer is not None:
            _trace_recovery_episode(tracer, topology, tree, result, failures)
        return result

    paths = _member_search(topology, member, failures, route_cache, route_obs)
    detour = spec.rule(tree, surviving, paths)
    if detour is None:
        obs.counter(spec.unrecoverable).inc()
        if tracer is not None:
            _trace_unrecoverable_episode(
                tracer, member, strategy, failures, spec.reason
            )
        raise UnrecoverableFailureError(
            member, f"{spec.message} ({failures.describe()})"
        )
    obs.hdr_histogram(spec.hops).observe(len(detour) - 1)
    result = _detour_result(topology, tree, member, strategy, detour)
    if tracer is not None:
        _trace_recovery_episode(tracer, topology, tree, result, failures)
    return result


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

    The member's post-failure search settles nodes only until the nearest
    surviving node is final (:meth:`~repro.routing.spf.PathSearch.nearest`);
    the answer equals a full post-failure SPF's.  ``route_cache`` shares
    that search with every other question about the same scenario;
    ``route_obs`` attributes its cache activity (defaults to ``obs``,
    letting callers report cache traffic without double-counting recovery
    attempts).
    """
    return _detour_recovery(
        "local", topology, tree, member, failures, obs, route_cache, route_obs
    )


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
    grafts at the first surviving on-tree router it meets.  The search
    settles nodes only until the source settles.
    ``route_cache`` / ``route_obs`` as in :func:`local_detour_recovery`.
    """
    return _detour_recovery(
        "global", topology, tree, member, failures, obs, route_cache, route_obs
    )


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
    return _converged_at(model, topology, failures, result.member) + signaling


def _converged_at(
    model: ConvergenceModel, topology: Topology, failures: FailureSet, member: NodeId
) -> float:
    """When ``member``'s unicast table has re-converged: the model's
    convergence time, asked about this one router (its flood searches
    settle only that far)."""
    if failures.node_failed(member) or not topology.has_node(member):
        return model.detection_delay  # a router the flood never reports
    return model.convergence_time(topology, failures, member)


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
        origin,
        failures.describe(),
        0.0,
        outcome="already_connected" if result.already_connected else "restored",
    )
    if result.strategy != "global":
        ready = model.detection_delay
        episode.add("detect", result.member, 0.0, ready,
                    payload={"detection_delay": model.detection_delay})
    else:
        ready = _converged_at(model, topology, failures, result.member)
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
        origin,
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

    Each pending member gets one post-failure search for the whole repair
    (``recovery.repair.spf_runs`` counts them); every round resumes it
    against the surviving set, which the repair extends with each graft
    instead of re-walking the tree.  The set only grows, so a new node
    nearer than a member's last answer has already settled: resuming
    gives the answer a fresh full search would.  ``route_cache`` (a
    failure-aware :class:`~repro.routing.route_cache.RouteCache`)
    additionally shares those searches *across* repair calls;
    ``route_obs`` attributes its cache traffic without touching the
    per-member ``recovery.*.attempts`` counters (the same split the
    measurement paths use).
    """
    if strategy not in ("local", "global"):
        raise RecoveryError(f"unknown repair strategy {strategy!r}")
    if failures.node_failed(tree.source):
        raise UnrecoverableFailureError(tree.source, "the source itself has failed")

    obs = obs if obs is not None else NULL_OBS
    route_obs = route_obs if route_obs is not None else obs
    detour_fn = _STRATEGIES[strategy].rule
    with obs.span("recovery.repair_tree"):
        repaired = tree.surviving_subtree(failures)
        report = TreeRepairReport(repaired_tree=repaired, strategy=strategy)
        cut = tree.disconnected_members(failures)
        pending = [m for m in cut if not failures.node_failed(m)]
        report.unrecoverable.extend(m for m in cut if failures.node_failed(m))

        # Every node of the repaired tree is fed by the source: the copy
        # holds only the surviving component, and detours avoid failures.
        surviving = set(repaired.on_tree_nodes())
        searches: dict[NodeId, ShortestPaths | PathSearch] = {}
        spf_runs = obs.counter("recovery.repair.spf_runs")
        while pending:
            options: list[tuple[float, NodeId, RecoveryResult]] = []
            for member in pending:
                if member in surviving:
                    result = _already_connected(repaired, member, strategy)
                else:
                    paths = searches.get(member)
                    if paths is None:
                        spf_runs.inc()
                        paths = searches[member] = _member_search(
                            topology, member, failures, route_cache, route_obs
                        )
                    detour = detour_fn(repaired, surviving, paths)
                    if detour is None:
                        continue
                    result = _detour_result(
                        topology, repaired, member, strategy, detour
                    )
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
            surviving.update(graft)
            report.recoveries.append(chosen)
            report.new_links.update(
                edge_key(u, v) for u, v in zip(graft, graft[1:])
            )
            pending.remove(chosen_member)
        obs.counter("recovery.repair.members_restored").inc(len(report.recoveries))
        obs.counter("recovery.repair.unrecoverable").inc(len(report.unrecoverable))
    return report


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
