"""networkx graphs from edge lists: the independent graph reference.

The runtime keeps its graphs as edge lists, neighbour sets and dicts; the
topology and layout tests check them against networkx, which is a test-only
dependency.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import networkx as nx


def networkx_graph(edges: Iterable[Tuple[int, int]], num_nodes: int) -> nx.Graph:
    """Undirected graph on nodes ``0..num_nodes-1``, edges added in order."""
    graph = nx.Graph()
    graph.add_nodes_from(range(num_nodes))
    graph.add_edges_from(edges)
    return graph
