"""Network topology substrate.

The paper generates its evaluation topologies with GT-ITM using the Waxman
random-graph model; this subpackage provides a from-scratch equivalent:

- :mod:`repro.graph.topology` — the :class:`~repro.graph.topology.Topology`
  container (delay/cost-weighted undirected graph with validation helpers),
- :mod:`repro.graph.placement` — node placement models on the plane,
- :mod:`repro.graph.waxman` — the Waxman model (flat random graphs),
- :mod:`repro.graph.nlevel` — nested recovery-domain hierarchies
  (:class:`~repro.graph.nlevel.NLevelNetwork`),
- :mod:`repro.graph.transit_stub` — the paper's 2-level transit-stub
  networks, each a depth-2 :class:`~repro.graph.nlevel.NLevelNetwork`,
- :mod:`repro.graph.generators` — deterministic fixtures, including the
  paper's worked-example topologies (Figures 1 and 4),
- :mod:`repro.graph.cache` — content-keyed topology caching for seeded
  sweeps (build each Waxman graph once per process).
"""

from repro.graph.cache import LruCache, TopologyCache
from repro.graph.topology import Link, Topology
from repro.graph.placement import grid_jitter_placement, uniform_placement
from repro.graph.waxman import WaxmanConfig, waxman_topology
from repro.graph.transit_stub import TransitStubConfig, transit_stub_topology
from repro.graph.nlevel import LevelSpec, NLevelNetwork, n_level_topology
from repro.graph.generators import (
    figure1_topology,
    figure4_topology,
    grid_topology,
    line_topology,
    ring_topology,
    star_topology,
)

__all__ = [
    "Link",
    "LruCache",
    "Topology",
    "TopologyCache",
    "uniform_placement",
    "grid_jitter_placement",
    "WaxmanConfig",
    "waxman_topology",
    "TransitStubConfig",
    "transit_stub_topology",
    "LevelSpec",
    "NLevelNetwork",
    "n_level_topology",
    "figure1_topology",
    "figure4_topology",
    "grid_topology",
    "line_topology",
    "ring_topology",
    "star_topology",
]
