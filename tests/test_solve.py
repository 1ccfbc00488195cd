"""The dispatcher: detection, components, witnesses, error surface."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dks
from dks import dp_outerplanar
from dks.errors import KTooLarge
from dks.generators import GenSpec, gen_bouterplanar, gen_outerplanar
from dks.graph import Graph, parse_edge_list, parse_json
from dks.oracle import brute_force_all_k
from dks.solve import solve, solve_bouterplanar, solve_outerplanar

from helpers import figure_graph, wheel


def edges_within(g: Graph, vs: list[int]) -> int:
    return g.induced_edge_count(sum(1 << v for v in vs))


def test_auto_detection_picks_the_flat_solver():
    g = gen_outerplanar(GenSpec(n=10, rho=0.5, seed=0))
    rep = solve(g, 6)
    assert rep.solver == "outerplanar"
    assert rep.values == brute_force_all_k(g)[:7]


def test_auto_detection_falls_back_to_leveled():
    rep = solve(wheel(6), 7)
    assert rep.solver == "bouterplanar"
    assert rep.values == brute_force_all_k(wheel(6))


def test_forced_solvers_agree_on_outerplanar_input():
    g = gen_outerplanar(GenSpec(n=9, rho=0.8, seed=2))
    a = solve_outerplanar(g, g.n)
    b = solve_bouterplanar(g, g.n)
    assert a.values == b.values
    assert (a.solver, b.solver) == ("outerplanar", "bouterplanar")


def test_disconnected_input_is_combined_exactly():
    # triangle + path + isolated vertex
    g = Graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)])
    rep = solve(g, 8)
    assert rep.values == brute_force_all_k(g)
    assert rep.stats["pieces"] == 3


def test_disconnected_stats_report_the_deepest_piece():
    # two copies of one 3-level graph: depth and widest table stay those of
    # one copy, while the counts double
    one = gen_bouterplanar(GenSpec(n=12, b=3, seed=1))
    n = one.n
    two = Graph(2 * n, one.edges + [(u + n, v + n) for u, v in one.edges],
                rotation=one.rotation + [[w + n for w in r]
                                         for r in one.rotation])
    a, b = solve(one, 6).stats, solve(two, 6).stats
    assert (a["levels"], a["max_rows"]) == (3, 64)
    assert (b["levels"], b["max_rows"]) == (3, 64)
    assert b["tree_nodes"] == 2 * a["tree_nodes"]
    assert b["pieces"] == 2


def test_outerplanar_input_is_recognised_once(monkeypatch):
    # two triangles joined by a bridge, plus a pendant edge: two cycle
    # blocks, two bridges, three cutpoints
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5),
                  (5, 6)])
    calls = {"blocks": 0, "cycles": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Graph, "blocks_and_cutpoints",
                        counted("blocks", Graph.blocks_and_cutpoints))
    monkeypatch.setattr(dp_outerplanar, "block_outer_cycle",
                        counted("cycles", dp_outerplanar.block_outer_cycle))
    for force in ("auto", "outerplanar"):
        calls.update(blocks=0, cycles=0)
        rep = solve(g, 5, force_solver=force)
        assert rep.solver == "outerplanar"
        assert rep.values == brute_force_all_k(g)[:6]
        assert calls == {"blocks": 1, "cycles": 2}, force


def test_flat_stats_count_every_table():
    # the fixture's seven leaves and six merges at k = 7
    g = parse_edge_list("c b\nb a\na e\ne f\nf g\ng d\nd c\nb e\nb g\nc g\n")
    stats = solve(g, 7).stats
    widths = [4, 5, 6, 4, 7, 8]           # k' columns of each merged table
    assert stats["merges"] == 6
    assert stats["tables"] == 7 + 6
    assert stats["cells"] == 4 * (7 * 3 + sum(widths))


def test_both_solvers_emit_one_event_shape():
    # a triangle (flat solver) beside K4 (leveled solver)
    g = Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (3, 5), (3, 6), (4, 5),
                  (4, 6), (5, 6)])
    events: list = []
    rep = solve(g, 7, trace=events)
    assert rep.values == brute_force_all_k(g)
    assert {ev["branch"] for ev in events} >= {"leaf", "merge", "S2", "S3"}
    named = set()
    for ev in events:
        assert set(ev) == {"branch", "pivot", "table", "graph"}
        t, sub = ev["table"], ev["graph"]
        ends = (t.x, t.y) if hasattr(t, "x") else (t.L[0], t.R[0])
        named |= {sub.name_of(v) for v in ends}
    assert named == {str(v) for v in range(7)}


def test_k_larger_than_n_raises():
    with pytest.raises(KTooLarge):
        solve(Graph(3, [(0, 1)]), 4)
    with pytest.raises(ValueError):
        solve(Graph(3, [(0, 1)]), -1)


def test_empty_graph():
    rep = solve(Graph(0, []), 0)
    assert rep.values == [0] and rep.optimum == 0


def test_witness_achieves_the_reported_optimum():
    g = figure_graph()
    rep = solve(g, 5, witness=True)
    assert len(rep.witness) == 5
    assert edges_within(g, rep.witness) == rep.optimum


def test_witness_on_disconnected_input():
    # triangle vs diamond: the best 4 vertices live entirely in one piece
    g = Graph(7, [(0, 1), (1, 2), (0, 2),
                  (3, 4), (4, 5), (5, 6), (6, 3), (3, 5)])
    rep = solve(g, 4, witness=True)
    assert edges_within(g, rep.witness) == rep.optimum == 5
    assert sorted(rep.witness) == [3, 4, 5, 6]


@given(st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_root_choice_never_changes_values(seed):
    # roots must sit on the outermost boundary; the generator puts the
    # outer ring first, and enclosing rings always have >= 3 vertices
    g = gen_bouterplanar(GenSpec(n=9, b=2, rho=0.6, seed=seed))
    want = solve(g, g.n).values
    for root in range(3):
        assert solve(g, g.n, root=root).values == want


def test_report_serializes():
    rep = solve(wheel(5), 4)
    d = json.loads(json.dumps(rep.to_dict()))
    assert d["values"] == rep.values and d["solver"] == "bouterplanar"
    assert d["seconds"] >= 0


def test_json_rotation_survives_the_round_trip():
    g = figure_graph()
    from dks.graph import dump_json
    g2 = parse_json(dump_json(g))
    assert solve(g2, 7).values == solve(g, 7).values


def test_lazy_package_attributes():
    assert dks.solve is solve
    assert dks.SolveReport.__name__ == "SolveReport"
    with pytest.raises(AttributeError):
        dks.no_such_thing
