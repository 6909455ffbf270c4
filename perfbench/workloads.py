"""The three benchmark workloads: ``sweep``, ``churn`` and ``failover``.

Each workload is a closed loop with one caller: the harness issues an
op, waits for it to return, checks its output outside the timed
interval, and only then issues the next op.  Everything an op depends
on — topologies, source pools, member sets, the churn schedule and the
failure order — is drawn from the run's seed *before* timing starts, so
a run does a fixed amount of work.

A run spans several independent sub-populations (one Waxman topology
and one source pool each), so a seed change moves the figures less than
it would with a single population.

Interface used by :mod:`perfbench.harness`: a workload object is built
from ``(seed, seconds)``; its class attributes give how many
sub-populations a second of ``--seconds`` buys (sized so the timed phase
lasts about ``--seconds`` on a 2-core x86 VM).  Its tail percentile is
read from ``design.json``.
Its :meth:`setup` returns a fresh *state* holding the op list plus four
methods — ``run(op)`` (the timed call), ``check(op, result)`` (untimed
output check, returns a list of problems), ``work(op, result)`` (units
of work the op completed) and ``digest(hasher)`` (feeds the run's final
outputs into a SHA-256).
"""

from __future__ import annotations

import json
import zlib

import numpy as np

from repro.api import ScenarioConfig, ScenarioResult, ServiceSpec, open_session
from repro.controller.workload import build_workload, group_sources
from repro.multicast.group import GroupAction
from repro.multicast.validation import check_tree_invariants
from repro.routing.failure_view import FailureSet

#: The quick-figures grid (Figures 8-10 at N=100), deduplicated:
#: ``(N_G, alpha, D_thresh)``.  Pinned here rather than read from the
#: figure modules, so the workload stays the same across commits.
SWEEP_GRID = (
    (30, 0.2, 0.1),
    (30, 0.2, 0.2),
    (30, 0.2, 0.3),
    (30, 0.2, 0.4),
    (30, 0.15, 0.3),
    (30, 0.25, 0.3),
    (30, 0.3, 0.3),
    (20, 0.2, 0.3),
    (40, 0.2, 0.3),
    (50, 0.2, 0.3),
)

#: Engines of the ``repro distribution`` population, assigned round-robin.
FAILOVER_ENGINES = ("smrp", "spf", "protection", "hybrid", "alternate")


def _canonical(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def _tree_payload(tree) -> list:
    """A tree as plain data: source, sorted members, sorted parent links."""
    return [
        tree.source,
        sorted(tree.members),
        [[node, tree.parent(node)] for node in tree.on_tree_nodes()],
    ]


def subpopulation_seeds(seed: int, workload) -> list[tuple[int, int]]:
    """Independent ``(topology_seed, member_seed)`` pairs, one per
    sub-population of ``workload``."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    draws = rng.integers(0, 2**31 - 1, size=(workload.subpops, 2))
    return [(int(t), int(m)) for t, m in draws]


class _Workload:
    name: str
    subpops_per_second: float
    max_subpops: int | None = None

    def __init__(self, seed: int, seconds: int) -> None:
        self.seed = seed
        self.subpops = max(1, round(seconds * self.subpops_per_second))
        if self.max_subpops is not None:
            self.subpops = min(self.subpops, self.max_subpops)


# ----------------------------------------------------------------------
# sweep: Session.run_scenario over the quick-figures grid
# ----------------------------------------------------------------------
class Sweep(_Workload):
    """One op = one scenario (both trees, worst-case failures, metrics)."""

    name = "sweep"
    subpops_per_second = 1.3

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        # Sub-population-major: every stretch of the timed phase holds
        # the whole grid mix, so the median op sees the whole run.
        self.ops = [
            (
                index,
                ScenarioConfig(
                    n=100,
                    group_size=size,
                    alpha=alpha,
                    d_thresh=d_thresh,
                    topology_seed=topology_seed,
                    member_seed=member_seed,
                ),
            )
            for index, (topology_seed, member_seed) in enumerate(
                subpopulation_seeds(seed, self)
            )
            for size, alpha, d_thresh in SWEEP_GRID
        ]

    def setup(self) -> "_SweepState":
        # One session per sub-population: like ``repro figures --quick``,
        # whose 16 topologies fit one substrate cache, each session holds
        # only its four (one per alpha), so the timed phase never
        # rebuilds one.
        sessions = [open_session() for _ in range(self.subpops)]
        for index, config in self.ops:
            sessions[index].cache.topology_for(config)
        return _SweepState(sessions, self.ops)


class _SweepState:
    def __init__(self, sessions, ops) -> None:
        self.sessions = sessions
        self.ops = ops
        self._dicts: list[dict] = []

    def route_caches(self) -> list:
        return [session.cache.routes for session in self.sessions]

    def run(self, op):
        index, config = op
        return self.sessions[index].run_scenario(config)

    def check(self, op, result) -> list[str]:
        problems = []
        measured = [m.member for m in result.measurements]
        if measured != list(result.members):
            problems.append("members and measurements differ")
        payload = result.to_dict()
        restored = ScenarioResult.from_dict(payload)
        if restored != result or restored.to_dict() != payload:
            problems.append("ScenarioResult does not round-trip")
        self._dicts.append(payload)
        return problems

    def work(self, op, result) -> int:
        return 1

    def digest(self, hasher) -> None:
        for payload in self._dicts:
            hasher.update(_canonical(payload))


# ----------------------------------------------------------------------
# churn: SMRP sessions under the poisson ServiceSpec workload
# ----------------------------------------------------------------------
class Churn(_Workload):
    """One op = one join or leave; events merged across groups by time."""

    name = "churn"
    subpops_per_second = 2.2
    #: Beyond this, longer runs lengthen the churn rather than add
    #: sub-populations, so set-up (the t=0 joins) stays small.
    max_subpops = 32

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        # Ten groups per sub-population: the slowest joins come from a
        # few large groups on dense topologies, so many small
        # sub-populations keep the p99.9 tail from hinging on one.
        self.specs = [
            ServiceSpec(
                n=100,
                groups=10,
                workload="poisson",
                churn_duration=30.0 * seconds,
                protocol="smrp",
                topology_seed=topology_seed,
                member_seed=member_seed,
            )
            for topology_seed, member_seed in subpopulation_seeds(seed, self)
        ]

    def setup(self) -> "_ChurnState":
        sessions = []
        ops = []
        for index, spec in enumerate(self.specs):
            session = open_session(spec=spec)
            sessions.append(session)
            topology = session.topology
            sources = group_sources(spec, topology)
            for group in range(spec.groups):
                source = sources[group]
                gid = session.open_group(source, group)
                members: set = set()
                for event in build_workload(spec, topology, group, source):
                    # The controller's defensive replay rules: skip a join
                    # of a member (or the source) and a leave of a
                    # non-member.
                    join = event.action is GroupAction.JOIN
                    if join:
                        if event.node == source or event.node in members:
                            continue
                        members.add(event.node)
                    else:
                        if event.node not in members:
                            continue
                        members.discard(event.node)
                    if event.time == 0.0:
                        session.join(gid, event.node)
                    else:
                        ops.append((event.time, index, gid, event.node, join))
        # Stable sort: simultaneous events of one group keep their order.
        ops.sort(key=lambda op: op[:2])
        return _ChurnState(sessions, ops)


class _ChurnState:
    def __init__(self, sessions, ops) -> None:
        self.sessions = sessions
        self.ops = ops

    def route_caches(self) -> list:
        return [session.cache.routes for session in self.sessions]

    def run(self, op):
        _, index, gid, node, join = op
        if join:
            self.sessions[index].join(gid, node)
        else:
            self.sessions[index].leave(gid, node)

    def check(self, op, result) -> list[str]:
        _, index, gid, node, join = op
        tree = self.sessions[index].controller.tree(gid)
        check_tree_invariants(tree)
        if tree.is_member(node) != join:
            return [f"group {gid}: membership of {node} is wrong"]
        return []

    def work(self, op, result) -> int:
        return 1

    def digest(self, hasher) -> None:
        for session in self.sessions:
            controller = session.controller
            for gid in controller.group_ids():
                hasher.update(_canonical(_tree_payload(controller.tree(gid))))


# ----------------------------------------------------------------------
# failover: every tree-carried link failed once, one failure at a time
# ----------------------------------------------------------------------
class Failover(_Workload):
    """One op = one failure dispatch, ``fail()`` + ``restore()``."""

    name = "failover"
    subpops_per_second = 1.2

    def __init__(self, seed: int, seconds: int) -> None:
        super().__init__(seed, seconds)
        self.specs = [
            ServiceSpec(
                n=100,
                groups=40,
                workload="static",
                topology_seed=topology_seed,
                member_seed=member_seed,
            )
            for topology_seed, member_seed in subpopulation_seeds(seed, self)
        ]

    def setup(self) -> "_FailoverState":
        sessions = []
        per_population = []
        for index, spec in enumerate(self.specs):
            session = open_session(spec=spec)
            sessions.append(session)
            topology = session.topology
            sources = group_sources(spec, topology)
            links: set = set()
            for group in range(spec.groups):
                members = [
                    event.node
                    for event in build_workload(spec, topology, group, sources[group])
                ]
                gid = session.open_group(
                    sources[group],
                    group,
                    protocol=FAILOVER_ENGINES[group % len(FAILOVER_ENGINES)],
                    members=members,
                )
                links |= session.controller.tree(gid).tree_links()
            order = sorted(links)
            np.random.default_rng([self.seed, index]).shuffle(order)
            per_population.append([(index, link) for link in order])
        # Round-robin across sub-populations, so every stretch of the
        # timed phase sees the same mix.
        ops = []
        for position in range(max(len(p) for p in per_population)):
            ops.extend(p[position] for p in per_population if position < len(p))
        return _FailoverState(sessions, ops)


class _FailoverState:
    def __init__(self, sessions, ops) -> None:
        self.sessions = sessions
        self.ops = ops
        self._members = {
            (index, gid): session.controller.tree(gid).members
            for index, session in enumerate(sessions)
            for gid in session.controller.group_ids()
        }
        self._rows: list[dict] = []

    def route_caches(self) -> list:
        return [session.cache.routes for session in self.sessions]

    def run(self, op):
        index, link = op
        session = self.sessions[index]
        session.fail(FailureSet.links(link))
        return session.restore()

    def check(self, op, dispatch) -> list[str]:
        index, link = op
        failures = FailureSet.links(link)
        controller = self.sessions[index].controller
        problems = []
        for row in dispatch.rows:
            gid = (row.source, row.group)
            tree = controller.tree(gid)
            check_tree_invariants(tree)
            before = self._members[(index, gid)]
            members = tree.members
            if tree.affected_by(failures):
                problems.append(f"group {gid} still uses {failures.describe()}")
            if not members <= before:
                problems.append(f"group {gid} gained members in a repair")
            if len(members) + row.unrecoverable != len(before):
                problems.append(f"group {gid}: members lost without account")
            if row.members != len(members):
                problems.append(f"group {gid}: row member count is wrong")
            self._members[(index, gid)] = members
            self._rows.append(row.to_dict())
        # One failure active per op: clear it once the controller can.
        heal = getattr(controller, "heal", None)
        if heal is not None:
            heal(failures)
        return problems

    def work(self, op, dispatch) -> int:
        return len(dispatch.rows)

    def digest(self, hasher) -> None:
        for row in self._rows:
            hasher.update(_canonical(row))
        for session in self.sessions:
            controller = session.controller
            for gid in controller.group_ids():
                hasher.update(_canonical(_tree_payload(controller.tree(gid))))


WORKLOADS = {cls.name: cls for cls in (Sweep, Churn, Failover)}
