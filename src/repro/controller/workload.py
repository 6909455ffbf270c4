"""Population generators for controller runs.

Turns a :class:`~repro.controller.spec.ServiceSpec` into the concrete
group population: which sources exist, which groups each hosts (Zipf
popularity — a few hot sources carry most groups), how big each group
starts (heavy-tailed sizes), and each group's membership workload
(static joins, Poisson churn, or a flash crowd), extending
:class:`~repro.multicast.group.GroupWorkload`.

Everything is a pure function of ``(spec, topology, group index)``.  In
particular each group draws from its own
``default_rng([member_seed, topology_seed, index])`` stream, so a group
generates identically whether it lands in a serial run, a process-pool
worker, or a shard resumed from a checkpoint — the property the
byte-identical sharding guarantee rests on.
"""

from __future__ import annotations

import numpy as np

from repro.controller.spec import ServiceSpec
from repro.graph.topology import NodeId, Topology
from repro.multicast.group import GroupAction, GroupEvent, GroupWorkload, random_member_set


def source_pool(spec: ServiceSpec, topology: Topology) -> list[NodeId]:
    """The run's source nodes, hottest first.

    Drawn once per spec (not per group) from a stream independent of the
    per-group streams; index 0 is the "hot" source that Zipf popularity
    favours and that ``failure="auto"`` targets.
    """
    rng = np.random.default_rng([spec.topology_seed, spec.member_seed, 7])
    nodes = topology.nodes()
    picked = rng.choice(len(nodes), size=spec.sources, replace=False)
    return [nodes[i] for i in picked]


def group_sources(spec: ServiceSpec, topology: Topology) -> list[NodeId]:
    """Source of every group index, Zipf-skewed toward the hot source.

    Deterministic proportional fill rather than sampling: source rank
    ``k`` gets weight ``1/(k+1)^source_skew`` and group ``g`` maps to the
    rank whose cumulative weight bracket contains ``(g + 0.5)/groups``.
    Group→source assignment is therefore exact, monotone in ``g``, and
    independent of sharding.
    """
    pool = source_pool(spec, topology)
    weights = np.array(
        [1.0 / (k + 1) ** spec.source_skew for k in range(len(pool))]
    )
    cumulative = np.cumsum(weights / weights.sum())
    positions = (np.arange(spec.groups) + 0.5) / spec.groups
    ranks = np.searchsorted(cumulative, positions)
    return [pool[int(rank)] for rank in ranks]


def build_workload(
    spec: ServiceSpec, topology: Topology, index: int, source: NodeId
) -> GroupWorkload:
    """Group ``index``'s membership events, from its private rng stream."""
    rng = np.random.default_rng([spec.member_seed, spec.topology_seed, index])
    size = int(
        min(spec.group_size_max, spec.group_size_min - 1 + rng.zipf(spec.size_skew))
    )
    members = random_member_set(topology, source, size, rng)
    if spec.workload == "static":
        return GroupWorkload.static_joins(members)
    if spec.workload == "poisson":
        return GroupWorkload.churn(
            topology,
            source,
            rng,
            duration=spec.churn_duration,
            mean_holding_time=spec.mean_holding_time,
            mean_interarrival=spec.mean_interarrival,
            initial_members=members,
        )
    return _flash_crowd(spec, topology, source, rng, members)


def _flash_crowd(
    spec: ServiceSpec,
    topology: Topology,
    source: NodeId,
    rng: np.random.Generator,
    members: list[NodeId],
) -> GroupWorkload:
    """A static base plus a simultaneous burst that partially drains.

    The crowd all joins at the *same* timestamp — the worst case for
    replay determinism, which is exactly why the workload layer sorts
    simultaneous events canonically — and odd-ranked crowd members leave
    again one holding time later.
    """
    workload = GroupWorkload.static_joins(members)
    outsiders = [
        n for n in topology.nodes() if n != source and n not in set(members)
    ]
    crowd_size = max(1, int(len(outsiders) * spec.flash_fraction))
    picked = rng.choice(len(outsiders), size=min(crowd_size, len(outsiders)), replace=False)
    burst = spec.churn_duration * 0.5
    crowd = [outsiders[i] for i in picked]
    for node in crowd:
        workload.add(GroupEvent(time=burst, node=node, action=GroupAction.JOIN))
    for rank, node in enumerate(crowd):
        if rank % 2 == 1:
            workload.add(
                GroupEvent(
                    time=burst + spec.mean_holding_time,
                    node=node,
                    action=GroupAction.LEAVE,
                )
            )
    return workload
