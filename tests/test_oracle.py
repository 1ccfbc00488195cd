import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dks.errors import CapExceeded, KTooLarge
from dks.graph import Graph
from dks.oracle import brute_force_all_k, brute_force_densest_k
from helpers import brute_force_slice_table, oracle_self_check


def random_graph(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return Graph(n=n, edges=picks)


@st.composite
def graphs(draw):
    return random_graph(draw)


def test_known_values_on_k4_minus_edge():
    g = Graph(n=4, edges=[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    assert brute_force_all_k(g) == [0, 0, 1, 3, 5]
    v, w = brute_force_densest_k(g, 3)
    assert v == 3 and set(w) <= set(range(4)) and len(w) == 3


def test_witness_is_first_maximiser():
    g = Graph(n=4, edges=[(2, 3)])
    v, w = brute_force_densest_k(g, 2)
    assert v == 1 and w == [2, 3]


def test_k_bounds():
    g = Graph(n=3, edges=[(0, 1)])
    with pytest.raises(KTooLarge):
        brute_force_densest_k(g, 4)
    assert brute_force_densest_k(g, 0) == (0, [])


def test_cap():
    g = Graph(n=21, edges=[])
    with pytest.raises(CapExceeded):
        brute_force_all_k(g)
    with pytest.raises(CapExceeded):
        brute_force_densest_k(g, 8)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_oracles_agree(g):
    oracle_self_check(g)


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_all_k_monotone_and_bounded(g):
    opt = brute_force_all_k(g)
    assert opt[0] == 0
    for k in range(1, g.n + 1):
        assert opt[k] >= opt[k - 1]
        assert opt[k] <= k * (k - 1) // 2


def test_slice_table_exact_trace_semantics():
    # path 0-1-2, boundary {0,2}, countable edges = both path edges
    g = Graph(n=3, edges=[(0, 1), (1, 2)])
    t = brute_force_slice_table(
        g, vertices=[0, 1, 2],
        countable_edges={(0, 1), (1, 2)},
        boundary=[0, 2], kmax=3)
    assert t[(frozenset(), 0)] == 0
    assert t[(frozenset(), 1)] == 0          # {1} alone
    assert t[(frozenset(), 2)] is None       # can't pick 2 avoiding both ends
    assert t[(frozenset({0}), 2)] == 1       # {0,1}
    assert t[(frozenset({0, 2}), 2)] == 0    # {0,2} exactly: no edge
    assert t[(frozenset({0, 2}), 3)] == 2


def test_slice_table_countable_filter():
    # edge (0,1) exists but is not countable
    g = Graph(n=2, edges=[(0, 1)])
    t = brute_force_slice_table(g, [0, 1], set(), [0, 1], 2)
    assert t[(frozenset({0, 1}), 2)] == 0
