"""Single-failure alternate paths (Bhosle–Gonzalez).

The RouteCache already leans on the Bhosle–Gonzalez single-failure
result *negatively*: a baseline shortest path provably survives a
failure that touches none of its arcs (`_provably_unaffected`).  This
module uses the same result *positively*: every link on a node pair's
shortest path has a replacement shortest path that avoids it.  A single
link failure then resolves by table lookup — no re-convergence wait —
which is what promotes the alternate-path idea from a cache reuse proof
to a first-class recovery strategy (see
:class:`~repro.multicast.backup_trees.AlternatePathProtocol`).

An alternate is a deterministic function of (topology, pair, link), so
a table computes each one the first time a failure of its link asks for
it; the state a deployment would install ahead of time is what
:meth:`AlternateRouteTable.reserved_links` reports.

The table is rooted at the *member* and targets the source, matching
the direction PIM-style joins travel; a recovery re-joins over the
precomputed route and grafts at the first surviving on-tree node it
meets, exactly like a global detour minus the convergence wait.

Determinism: every path here comes out of the one scalar search
(smaller-predecessor-id tie-break): a
:class:`~repro.routing.spf.PathSearch` that settles only until the
target does, optionally shared through a failure-aware
:class:`~repro.routing.route_cache.RouteCache`, so tables are
byte-identical however they are produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.topology import Edge, NodeId, Topology, edge_key
from repro.obs import NULL_OBS, Observability
from repro.routing.failure_view import NO_FAILURES, FailureSet
from repro.routing.route_cache import RouteCache
from repro.routing.spf import PathSearch


@dataclass(frozen=True)
class AlternateRoute:
    """The precomputed replacement for one failed primary link.

    ``path`` is ``None`` when removing ``failed_link`` disconnects the
    endpoints — the link is a bridge and no alternate exists.
    """

    failed_link: Edge
    path: tuple[NodeId, ...] | None
    delay: float | None


@dataclass(eq=False)
class AlternateRouteTable:
    """Single-failure alternate routes for one ``root → target`` pair.

    ``primary`` is the failure-free shortest path.  The replacement for a
    primary link — the shortest path that avoids it — is computed the
    first time it is needed (:meth:`alternate`) and kept in ``routes``:
    a route is a deterministic function of the topology, the pair and
    the link, so computing it at first need yields exactly the route
    precomputing it would.  Links *off* the primary need no entry: their
    failure provably leaves the primary intact (the Bhosle–Gonzalez
    observation the RouteCache reuse proofs are built on).
    """

    topology: Topology
    root: NodeId
    target: NodeId
    primary: tuple[NodeId, ...]
    weight: str = "delay"
    route_cache: RouteCache | None = None
    obs: Observability = NULL_OBS
    routes: dict[Edge, AlternateRoute] = field(default_factory=dict)

    def route_under(self, failures: FailureSet) -> tuple[NodeId, ...] | None:
        """The route serving ``root → target`` under ``failures``.

        Returns the primary when it is untouched, the alternate when
        exactly one primary link failed and the alternate itself
        survives, and ``None`` otherwise (multi-failure on the primary,
        a failed primary node, or a bridge link) — the caller then falls
        back to a reactive strategy.
        """
        if not failures.path_affected(self.primary):
            return self.primary
        link = self.hit_link(failures)
        if link is None:
            return None  # node failure or multi-failure: not covered
        path = self.alternate(link).path
        if path is None or failures.path_affected(path):
            return None  # a bridge, or the failure also clips the alternate
        return path

    def hit_link(self, failures: FailureSet) -> Edge | None:
        """The one primary link ``failures`` hit, if the table covers them.

        ``None`` when they leave the primary's links alone, hit two or
        more of them, or fail a primary node.
        """
        hit = [
            edge
            for edge in self.primary_links()
            if edge in failures.failed_links
        ]
        if len(hit) != 1:
            return None
        if any(node in failures.failed_nodes for node in self.primary):
            return None
        return hit[0]

    def alternate(self, link: Edge) -> AlternateRoute:
        """The replacement for primary ``link``, computed at first need."""
        route = self.routes.get(link)
        if route is not None:
            return route
        masked = _paths(
            self.topology,
            self.root,
            self.weight,
            FailureSet.links(link),
            self.route_cache,
            self.obs,
        )
        if masked.reachable(self.target):
            route = AlternateRoute(
                failed_link=link,
                path=tuple(masked.path_to(self.target)),
                delay=masked.distance(self.target),
            )
            self.obs.counter("protection.alternate.routes").inc()
        else:
            route = AlternateRoute(failed_link=link, path=None, delay=None)
        self.routes[link] = route
        return route

    def primary_links(self) -> list[Edge]:
        return [
            edge_key(u, v) for u, v in zip(self.primary, self.primary[1:])
        ]

    def reserved_links(self) -> set[Edge]:
        """Standing state: links reserved by alternates beyond the primary.

        Computes every alternate not yet built.
        """
        primary = self.primary_links()
        reserved: set[Edge] = set()
        for link in primary:
            path = self.alternate(link).path
            if path is None:
                continue
            reserved |= {edge_key(u, v) for u, v in zip(path, path[1:])}
        return reserved - set(primary)


def build_alternate_table(
    topology: Topology,
    root: NodeId,
    target: NodeId,
    weight: str = "delay",
    route_cache=None,
    obs=None,
) -> AlternateRouteTable | None:
    """The alternate-route table for ``root → target``, alternates unbuilt.

    One failure-free SPF finds the primary; each alternate costs one more
    SPF under its link's failure when first asked for.  Both are routed
    through ``route_cache`` when given, so repeated scenarios share the
    kernel runs.  Returns ``None`` when the pair is disconnected even
    failure-free.
    """
    obs = obs if obs is not None else NULL_OBS
    baseline = _paths(topology, root, weight, NO_FAILURES, route_cache, obs)
    if not baseline.reachable(target):
        return None
    obs.counter("protection.alternate.tables").inc()
    return AlternateRouteTable(
        topology,
        root,
        target,
        tuple(baseline.path_to(target)),
        weight=weight,
        route_cache=route_cache,
        obs=obs,
    )


def _paths(topology, root, weight, failures, route_cache, obs):
    """Shortest paths from ``root`` under ``failures``, settled only as
    far as the questions asked of them need."""
    if route_cache is not None:
        return route_cache.search(
            topology, root, weight=weight, failures=failures, obs=obs
        )
    return PathSearch(topology, root, weight=weight, failures=failures)
