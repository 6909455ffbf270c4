"""networkx as a test oracle: the same graph as a :class:`Topology`.

networkx is a test dependency only; the library keeps its own store.
"""

import networkx as nx

from repro.graph.topology import Topology


def to_networkx(topology: Topology) -> nx.Graph:
    """An ``nx.Graph`` with ``topology``'s nodes and weighted links."""
    graph = nx.Graph()
    graph.add_nodes_from(topology.nodes())
    for link in topology.links():
        graph.add_edge(link.u, link.v, delay=link.delay, cost=link.cost)
    return graph
