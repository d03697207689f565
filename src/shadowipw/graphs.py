"""Directed acyclic graphs and d-separation queries.

Used as the independence oracle in search experiments: conditions are
decided by graph structure instead of finite-sample tests. Correlated
covariate errors are represented by explicit latent parent nodes, which
are ordinary nodes that no dataset column names.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx


@dataclass(frozen=True)
class Dag:
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        g = nx.DiGraph(self.edges)
        if not nx.is_directed_acyclic_graph(g):
            raise ValueError("graph has a directed cycle")
        object.__setattr__(self, "_graph", g)

    def d_separated(self, x: str, y: str, given=()) -> bool:
        g = self._graph
        for node in (x, y, *given):
            if node not in g:
                raise ValueError(f"unknown node {node!r}")
        return nx.is_d_separator(g, {x}, {y}, set(given))
