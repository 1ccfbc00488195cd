"""The layering probe: decomposition shape, scoring, failure modes."""

import time
from importlib import import_module

import networkx as nx
import pytest

import dks.embedding
from dks.errors import BadArgument, CapExceeded
from dks.generators import (GenSpec, gen_bouterplanar, gen_outerplanar,
                            gen_planar)
from dks.graph import Graph, induced_subgraph
from dks.oracle import brute_force_all_k
from dks.ptas_probe import ProbeReport, baker_decompose, bfs_levels, probe

from helpers import biggest_component


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def test_path_levels_alternate():
    p6 = Graph(6, [(i, i + 1) for i in range(5)])
    assert bfs_levels(p6, 0) == [0, 1, 2, 3, 4, 5]
    assert bfs_levels(p6, 2) == [2, 1, 0, 1, 2, 3]
    # keep variant, b=2: both classes lose every (cross-level) edge
    for _, gi in baker_decompose(p6, 2):
        assert gi.m == 0


def test_degenerate_b_beyond_depth():
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    dec = baker_decompose(tri, 5)
    assert sum(gi.n for _, gi in dec) == 3
    assert [i for i, _ in dec] == list(range(5))


def test_star_is_the_advertised_failure_mode():
    # every edge crosses a BFS level, so keeping congruent levels strands
    # them all: the heuristic returns an edgeless answer
    e = probe(star(6), 4, 0.5)
    assert e.opt == 3 and e.s == 0 and e.ratio == 0.0
    # the delete variant at b=2 drops one of the two levels outright and
    # fares exactly as badly ...
    assert probe(star(6), 4, 0.5, classic=True).ratio == 0.0
    # ... but at b=3 one class deletes an absent level and keeps it all
    e3 = probe(star(6), 4, 1 / 3, classic=True)
    assert e3.b == 3 and e3.ratio == 1.0


def test_zero_optimum_counts_as_ratio_one():
    assert probe(star(6), 1, 0.5).ratio == 1.0


def test_class_score_equals_oracle_on_the_class_subgraph():
    g = biggest_component(gen_planar(GenSpec(n=12, rho=0.9, seed=5)))
    lev = bfs_levels(g, 0)
    k = min(6, g.n)
    e = probe(g, k, 0.5)
    for i in range(2):
        gi = induced_subgraph(g, [v for v in range(g.n) if lev[v] % 2 == i])
        kk = min(k, gi.n)
        assert e.s_by_class[i] == brute_force_all_k(gi)[kk]


@pytest.mark.parametrize("seed", range(8))
def test_ratios_bounded_and_certified_on_planar_corpus(seed):
    g = biggest_component(gen_planar(GenSpec(n=14, rho=0.85, seed=seed)))
    if g.n < 5:
        pytest.skip("tiny component")
    for classic in (False, True):
        e = probe(g, 5, 0.5, classic=classic)
        assert 0.0 <= e.ratio <= 1.0
        assert e.cert_ok and e.cert_max_depth <= e.b - 1
        assert e.s == max(e.s_by_class) == e.s_by_class[e.best_i]


def test_outerplanar_input_scores_against_flat_solver():
    g = gen_outerplanar(GenSpec(n=10, rho=0.7, seed=3))
    e = probe(g, 5, 0.25)
    assert e.opt == brute_force_all_k(g)[5]
    assert 0.0 <= e.ratio <= 1.0


def test_nonplanar_reference_paths():
    k6 = [(i, j) for i in range(6) for j in range(i)]
    e = probe(Graph(6, k6), 4, 0.5)          # small: oracle reference
    assert e.opt == 6 and not e.cert_ok      # K5 class flunks certification
    big = Graph(25, k6 + [(i, i + 1) for i in range(6, 24)])
    with pytest.raises(CapExceeded):
        probe(big, 5, 0.5)


def test_epsilon_whose_inverse_overflows_is_refused():
    with pytest.raises(BadArgument, match="1/epsilon finite"):
        probe(star(6), 3, 1e-320)


@pytest.mark.parametrize("classic", [False, True])
def test_tiny_epsilon_builds_only_the_classes_the_depth_needs(classic):
    # b = 10^9 level classes, of which all past depth + 1 are empty (keep)
    # or the whole graph (classic): the score is that of b = depth + 2
    g = biggest_component(gen_planar(GenSpec(n=12, rho=0.9, seed=5)))
    depth = max(bfs_levels(g, 0))
    t = time.perf_counter()
    e = probe(g, 5, 1e-9, classic=classic)
    assert time.perf_counter() - t < 1.0
    ref = probe(g, 5, 1 / (depth + 2), classic=classic)
    assert e.b == 10**9 and ref.b == depth + 2
    assert (e.s, e.ratio, e.best_i) == (ref.s, ref.ratio, ref.best_i)


def test_report_aggregation():
    rep = ProbeReport()
    for seed in range(6):
        g = biggest_component(gen_planar(GenSpec(n=12, rho=0.9, seed=seed)))
        rep.entries.append(probe(g, min(5, g.n), 0.5))
    hist = rep.histogram(bins=4)
    assert sum(hist) == len(rep.entries) == 6
    assert rep.worst().ratio == min(rep.ratios())


def test_probe_levels_each_class_once(monkeypatch):
    # the classes of a rotation-carrying graph are planar by construction:
    # no planarity test, and one leveling per leveled component solve
    g = gen_bouterplanar(GenSpec(n=24, b=4, seed=1))
    calls = {"planarity": 0, "levels": 0, "leveled": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(nx, "check_planarity",
                        counted("planarity", nx.check_planarity))
    monkeypatch.setattr(dks.embedding, "compute_levels",
                        counted("levels", dks.embedding.compute_levels))
    front = import_module("dks.solve")    # the package shadows it
    monkeypatch.setattr(front, "solve_bouterplanar_values",
                        counted("leveled", front.solve_bouterplanar_values))
    for classic in (False, True):
        e = probe(g, 6, 1 / 3, classic=classic)
        assert e.cert_ok and e.cert_max_depth == (2 if classic else 1)
    assert calls["planarity"] == 0
    assert calls["levels"] == calls["leveled"] > 2
