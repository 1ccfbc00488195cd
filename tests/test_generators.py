import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dks.dp_outerplanar import is_outerplanar
from dks.embedding import embed_and_level
from dks.errors import InfeasibleSpec
from dks.generators import GenSpec, gen_bouterplanar, gen_outerplanar, gen_planar
from dks.graph import induced_subgraph
from dks.oracle import brute_force_all_k
from dks.solve import solve


def test_equal_specs_give_equal_graphs():
    for gen in (gen_outerplanar, gen_planar):
        a = gen(GenSpec(n=14, rho=0.6, seed=42))
        b = gen(GenSpec(n=14, rho=0.6, seed=42))
        assert a.edges == b.edges and a.rotation == b.rotation
    a = gen_bouterplanar(GenSpec(n=14, b=3, rho=0.6, seed=42))
    b = gen_bouterplanar(GenSpec(n=14, b=3, rho=0.6, seed=42))
    assert a.edges == b.edges and a.rotation == b.rotation


def test_outerplanar_density_endpoints():
    # rho=0 is the bare cycle, rho=1 a full polygon triangulation
    assert gen_outerplanar(GenSpec(n=9, rho=0.0, seed=1)).m == 9
    assert gen_outerplanar(GenSpec(n=9, rho=1.0, seed=1)).m == 9 + 6


@given(st.integers(3, 16), st.floats(0, 1), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_outerplanar_output_is_outerplanar(n, rho, seed):
    g = gen_outerplanar(GenSpec(n=n, rho=rho, seed=seed))
    assert is_outerplanar(g)
    assert g.connected_components() == [range(n)]


@pytest.mark.parametrize("b", [2, 3, 4])
def test_bouterplanar_realizes_requested_depth(b):
    for seed in range(25):
        n = 3 * (b - 1) + 1 + (seed % 13)
        g = gen_bouterplanar(GenSpec(n=n, b=b, rho=0.5, seed=seed))
        assert embed_and_level(g).depth == b


def test_bouterplanar_b1_is_plain_outerplanar():
    g = gen_bouterplanar(GenSpec(n=8, b=1, rho=0.5, seed=4))
    assert is_outerplanar(g)
    assert g.edges == gen_outerplanar(GenSpec(n=8, b=1, rho=0.5, seed=4)).edges


def test_bouterplanar_rejects_impossible_nesting():
    with pytest.raises(InfeasibleSpec):
        gen_bouterplanar(GenSpec(n=6, b=3, rho=0.5, seed=0))


def test_rho_outside_unit_interval_rejected():
    with pytest.raises(InfeasibleSpec):
        GenSpec(n=8, rho=1.5, seed=0)


@pytest.mark.parametrize("seed", range(12))
def test_generated_instances_agree_with_oracle(seed):
    b = 2 + seed % 2
    g = gen_bouterplanar(GenSpec(n=8 + seed % 4, b=b, rho=0.7, seed=seed))
    assert solve(g, g.n).values == brute_force_all_k(g)


def test_planar_edge_budget_and_endpoints():
    g = gen_planar(GenSpec(n=60, rho=1.0, seed=11))
    assert g.m <= 3 * 60 - 6
    assert gen_planar(GenSpec(n=20, rho=0.0, seed=2)).m == 0


def test_planar_feeds_the_leveled_solver():
    g = gen_planar(GenSpec(n=11, rho=0.8, seed=3))
    sub = induced_subgraph(g, max(g.connected_components(), key=len))
    assert solve(sub, sub.n).values == brute_force_all_k(sub)
