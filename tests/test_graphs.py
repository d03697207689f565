import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shadowipw.graphs import Dag


class TestDag:
    @pytest.mark.parametrize("edges", [
        (("a", "a"),),
        (("a", "b"), ("b", "a")),
        (("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")),
    ])
    def test_directed_cycle_is_rejected(self, edges):
        with pytest.raises(ValueError, match="directed cycle"):
            Dag(edges)

    @pytest.mark.parametrize("x,y,given", [
        ("Q", "b", ()), ("a", "Q", ()), ("a", "c", ("b", "Q")),
    ])
    def test_unknown_node_is_rejected(self, x, y, given):
        with pytest.raises(ValueError, match="unknown node 'Q'"):
            Dag((("a", "b"), ("b", "c"))).d_separated(x, y, given)

    @pytest.mark.parametrize("x,y,given", [
        ("a", "a", ()), ("a", "c", ("a",)), ("a", "c", ("c", "b")),
    ])
    def test_overlapping_query_is_rejected(self, x, y, given):
        with pytest.raises(ValueError, match="disjoint"):
            Dag((("a", "b"), ("b", "c"))).d_separated(x, y, given)

    def test_chain_fork_and_collider(self):
        g = Dag((("a", "b"), ("b", "c"), ("b", "d"), ("e", "f"), ("g", "f"),
                 ("f", "h")))
        assert not g.d_separated("a", "c")
        assert g.d_separated("a", "c", ("b",))         # chain
        assert g.d_separated("c", "d", ("b",))         # fork
        assert g.d_separated("e", "g")                 # collider
        assert not g.d_separated("e", "g", ("f",))
        assert not g.d_separated("e", "g", ("h",))     # collider's child


@st.composite
def dag_queries(draw):
    """A random DAG over observed nodes V0.. and latent parents U0.., each
    latent with two observed children, and one d-separation query on it."""
    n = draw(st.integers(2, 7))
    order = draw(st.permutations([f"V{i}" for i in range(n)]))
    edges = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)
             if draw(st.booleans())]
    for k in range(draw(st.integers(0, 2))):
        children = draw(st.lists(st.sampled_from(order), min_size=2,
                                 max_size=2, unique=True))
        edges += [(f"U{k}", child) for child in children]
    nodes = sorted({v for edge in edges for v in edge})
    assume(len(nodes) >= 2)
    x, y = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=2,
                         unique=True))
    given_nodes = draw(st.lists(
        st.sampled_from([v for v in nodes if v not in (x, y)]), unique=True)
        if len(nodes) > 2 else st.just([]))
    return edges, x, y, given_nodes


@given(dag_queries())
@settings(max_examples=400, deadline=None)
def test_d_separated_matches_networkx(query):
    nx = pytest.importorskip("networkx")
    edges, x, y, given_nodes = query
    expected = nx.is_d_separator(nx.DiGraph(edges), {x}, {y}, set(given_nodes))
    assert Dag(tuple(edges)).d_separated(x, y, given_nodes) == expected
