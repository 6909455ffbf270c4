"""Unicast routing substrate (the paper's OSPF-like underlay).

SMRP sits on top of a conventional link-state unicast routing protocol: it
needs shortest-path distances for the ``D_thresh`` bound, shortest paths to
arbitrary merge points for candidate enumeration, and — for the global-
detour baseline — re-converged routes after a failure.  This subpackage
implements that underlay from scratch:

- :mod:`repro.routing.failure_view` — immutable sets of failed components
  and graph views that mask them,
- :mod:`repro.routing.spf` — Dijkstra shortest-path-first with
  deterministic tie-breaking,
- :mod:`repro.routing.csr` — the compiled CSR graph form and the
  array-based SPF kernels the searches actually run on (their dict-based
  executable specification lives with the tests,
  ``tests/routing/spf_reference.py``),
- :mod:`repro.routing.batch` — a multi-root SPF sweep
  (:func:`~repro.routing.batch.dijkstra_multi`) and, through
  :meth:`RouteCache.warm_batch`, batched cache warming; neither has a
  caller in the package (restoration asks each cut member's questions
  of one resumable search, :meth:`RouteCache.search`),
- :mod:`repro.routing.tables` — per-node routing tables,
- :mod:`repro.routing.link_state` — a link-state database with flooding
  and a convergence-latency model (used to contrast local-detour recovery
  time against waiting for unicast re-convergence, §1 and [25]),
- :mod:`repro.routing.route_cache` — memoised, failure-aware SPF state
  for repeated seeded sweeps: failure-free results, resumable
  post-failure searches, and single-failure reuse proofs.
"""

from repro.routing.csr import CsrGraph, compile_failures, csr_dijkstra
from repro.routing.failure_view import FailureSet, NO_FAILURES
from repro.routing.route_cache import RouteCache
from repro.routing.spf import (
    PathSearch,
    ShortestPaths,
    dijkstra,
    dijkstra_with_barriers,
    shortest_path,
    spf_distance,
)
from repro.routing.tables import RoutingTable, build_routing_table
from repro.routing.link_state import LinkStateDatabase, ConvergenceModel

__all__ = [
    "CsrGraph",
    "compile_failures",
    "csr_dijkstra",
    "FailureSet",
    "NO_FAILURES",
    "RouteCache",
    "PathSearch",
    "ShortestPaths",
    "dijkstra",
    "dijkstra_with_barriers",
    "shortest_path",
    "spf_distance",
    "RoutingTable",
    "build_routing_table",
    "LinkStateDatabase",
    "ConvergenceModel",
]
