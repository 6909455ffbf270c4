"""SMRP path selection for joining members (paper §3.2.2).

The Path Selection Criterion: among the candidate paths, pick the one whose
merge node has the minimum ``SHR_{S,R_i}``, subject to the delay bound

.. math::

    D^{R^*}_{S,NR} \\le (1 + D_{thresh}) \\cdot D^{SPF}_{S,NR}

with ties broken by the shorter path.  ``D_thresh`` is the paper's knob
trading transmission efficiency for recovery speed.

When *no* candidate satisfies the bound (possible on sparse topologies
where every detour to the tree is long — the paper does not discuss this
corner), the selection falls back to the minimum-delay candidate and flags
the fallback, so experiments can report how often it happens.

:func:`select_join` is the join both engines run: it computes the bound
first and enumerates only the candidates inside it, falling back to the
full enumeration only when none is.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, JoinRejectedError
from repro.graph.topology import NodeId, Topology
from repro.multicast.tree import MulticastTree
from repro.core.candidates import Candidate, enumerate_candidates
from repro.routing.failure_view import NO_FAILURES, FailureSet
from repro.routing.spf import dijkstra, spf_distance


@dataclass(frozen=True)
class PathSelection:
    """The outcome of one path selection.

    ``num_candidates`` counts the options the selection was given and
    ``num_feasible`` those inside the delay bound.  :func:`select_join`
    hands over only the candidates inside the bound, so for its
    selections the two are equal, unless no candidate was inside the
    bound (a fallback: ``num_feasible == 0`` and ``num_candidates`` counts
    every option).
    """

    candidate: Candidate
    spf_delay: float
    bound: float
    fallback: bool
    num_candidates: int
    num_feasible: int

    @property
    def within_bound(self) -> bool:
        return self.candidate.total_delay <= self.bound + 1e-12


def unicast_delay(
    topology: Topology,
    member: NodeId,
    source: NodeId,
    failures: FailureSet = NO_FAILURES,
    route_cache=None,
    obs=None,
) -> float:
    """``D^{SPF}_{S,NR}``, the member's unicast shortest-path delay to the
    source; raises :class:`~repro.errors.NoPathError` when there is none.

    Failure-free, :func:`~repro.routing.spf.spf_distance` answers it with
    a search confined to the member's shortest-path corridor, and
    nothing is cached.  Under failures it is read off the member's
    failure-masked SPF, served by ``route_cache`` (a
    :class:`~repro.routing.route_cache.RouteCache`, which ``obs``
    accounts) when one is given, else computed.
    """
    if failures.is_empty:
        return spf_distance(topology, member, source)
    if route_cache is not None:
        spf = route_cache.shortest_paths(
            topology, member, weight="delay", failures=failures, obs=obs
        )
    else:
        spf = dijkstra(topology, member, weight="delay", failures=failures)
    return spf.distance(source)


def delay_bound(spf_delay: float, d_thresh: float) -> float:
    """The §3.2.2 bound ``(1 + D_thresh) · D^SPF_{S,NR}``."""
    if d_thresh < 0:
        raise ConfigurationError(f"D_thresh must be non-negative, got {d_thresh}")
    if spf_delay < 0:
        raise ConfigurationError(f"SPF delay must be non-negative, got {spf_delay}")
    return (1.0 + d_thresh) * spf_delay


def select_path(
    candidates: list[Candidate],
    spf_delay: float,
    d_thresh: float,
    allow_fallback: bool = True,
) -> PathSelection:
    """Apply the Path Selection Criterion.

    Parameters
    ----------
    candidates:
        Options from :func:`repro.core.candidates.enumerate_candidates`.
    spf_delay:
        ``D^{SPF}_{S,NR}`` — the member's unicast shortest-path delay to
        the source, computed by the underlying routing protocol.
    d_thresh:
        The delay-stretch bound ``D_thresh`` (0 forces pure SPF behaviour
        in terms of delay, larger values admit more sharing reduction).
    allow_fallback:
        When False, an empty feasible set raises
        :class:`~repro.errors.JoinRejectedError` instead of falling back
        to the minimum-delay candidate.
    """
    bound = delay_bound(spf_delay, d_thresh)
    if not candidates:
        raise JoinRejectedError(None, "no candidate paths reach the tree")

    feasible = [c for c in candidates if c.total_delay <= bound + 1e-12]
    if feasible:
        best = min(feasible, key=lambda c: (c.shr, c.total_delay, c.merge_node))
        return PathSelection(
            candidate=best,
            spf_delay=spf_delay,
            bound=bound,
            fallback=False,
            num_candidates=len(candidates),
            num_feasible=len(feasible),
        )
    if not allow_fallback:
        raise JoinRejectedError(
            candidates[0].joiner,
            f"no candidate within delay bound {bound:.3f} "
            f"(best total delay {min(c.total_delay for c in candidates):.3f})",
        )
    best = min(candidates, key=lambda c: (c.total_delay, c.shr, c.merge_node))
    return PathSelection(
        candidate=best,
        spf_delay=spf_delay,
        bound=bound,
        fallback=True,
        num_candidates=len(candidates),
        num_feasible=0,
    )


def select_join(
    topology: Topology,
    tree: MulticastTree,
    joiner: NodeId,
    shr_values: dict[NodeId, int],
    spf_delay: float,
    d_thresh: float,
    failures: FailureSet = NO_FAILURES,
    allow_fallback: bool = True,
    obs=None,
) -> PathSelection:
    """Enumerate ``joiner``'s options and apply the criterion (§3.2.2).

    ``spf_delay`` is ``D^{SPF}_{S,NR}``, which the caller looks up first.
    Only the candidates inside the bound are enumerated; when there are
    none, the full enumeration runs so that fallback and rejection
    behave exactly as :func:`select_path` does on every option.
    """
    bound = delay_bound(spf_delay, d_thresh)
    candidates = enumerate_candidates(
        topology, tree, joiner, shr_values,
        failures=failures, obs=obs, delay_bound=bound,
    )
    if not candidates:
        candidates = enumerate_candidates(
            topology, tree, joiner, shr_values, failures=failures, obs=obs
        )
    return select_path(
        candidates, spf_delay, d_thresh, allow_fallback=allow_fallback
    )
