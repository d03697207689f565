"""Directed acyclic graphs and d-separation queries.

Used as the independence oracle in search experiments: conditions are
decided by graph structure instead of finite-sample tests. Correlated
covariate errors are represented by explicit latent parent nodes, which
are ordinary nodes that no dataset column names.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Dag:
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        parents = {}
        for a, b in self.edges:
            parents.setdefault(a, set())
            parents.setdefault(b, set()).add(a)
        # Kahn's algorithm, a layer at a time: remove every node whose
        # parents are all removed; the nodes of a directed cycle never are
        left = dict(parents)
        while ready := [v for v, ps in left.items() if not ps & left.keys()]:
            for v in ready:
                del left[v]
        if left:
            raise ValueError("graph has a directed cycle")
        object.__setattr__(self, "_parents", parents)

    def d_separated(self, x: str, y: str, given=()) -> bool:
        """Whether x and y are d-separated by the node set ``given``.

        By Lauritzen, Dawid, Larsen & Leimer (1990) they are exactly when
        ``given`` separates them in the moral graph of the ancestors of
        {x, y} and ``given``.
        """
        parents = self._parents
        given = set(given)
        for node in (x, y, *given):
            if node not in parents:
                raise ValueError(f"unknown node {node!r}")
        if x == y or {x, y} & given:
            raise ValueError("x, y and given must be disjoint")
        ancestral, stack = set(), [x, y, *given]
        while stack:
            v = stack.pop()
            if v not in ancestral:
                ancestral.add(v)
                stack.extend(parents[v])
        # moralize: link each node to its parents and its parents to each
        # other, ignoring direction
        moral = {v: set() for v in ancestral}
        for v in ancestral:
            for p in parents[v]:
                moral[v].add(p)
                moral[p] |= parents[v] - {p}
                moral[p].add(v)
        reached, stack = {x} | given, [x]
        while stack:
            for w in moral[stack.pop()] - reached:
                if w == y:
                    return False
                reached.add(w)
                stack.append(w)
        return True
