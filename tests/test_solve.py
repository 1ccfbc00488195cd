"""The dispatcher: detection, components, witnesses, error surface."""

import dataclasses
import io
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dks
import helpers
from dks import dp_bouterplanar, dp_outerplanar, tables
from dks.cli import _print_table
from dks.embedding import embed_and_level
from dks.errors import BadArgument, InternalError, KTooLarge, NotOuterplanar
from dks.generators import (GenSpec, gen_bouterplanar, gen_outerplanar,
                            gen_planar)
from dks.graph import Graph, induced_subgraph, parse_edge_list, parse_json
from dks.oracle import brute_force_all_k, brute_force_densest_k
from dks.ptas_probe import baker_decompose, bfs_levels, probe
from dks.solve import SOLVERS, solve, solve_bouterplanar, solve_outerplanar
from dks.tables import convolve_max_plus

from helpers import (biggest_component, figure_graph, induced_edge_count,
                     self_reduction_witness, wheel)


FIG7 = "c b\nb a\na e\ne f\nf g\ng d\nd c\nb e\nb g\nc g\n"


def edges_within(g: Graph, vs: list[int]) -> int:
    return induced_edge_count(g, sum(1 << v for v in vs))


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


def _piece(kind: str, seed: int) -> Graph:
    """One small graph of a kind: a lone vertex, an edge, outerplanar,
    2-level or planar."""
    if kind == "lone":
        return Graph(1, [])
    if kind == "edge":
        return Graph(2, [(0, 1)])
    if kind == "outerplanar":
        return gen_outerplanar(GenSpec(n=3 + seed % 5, rho=0.6, seed=seed))
    if kind == "b2":
        return gen_bouterplanar(GenSpec(n=7 + seed % 3, b=2, rho=0.5,
                                        seed=seed))
    return biggest_component(gen_planar(GenSpec(n=5 + seed % 3, rho=0.9,
                                                seed=seed)))


def _event(ev: dict) -> tuple:
    """An event's branch, pivot and node, and its table as dump-tables
    prints it: its rows, in the vertex names of the event's graph."""
    out = io.StringIO()
    _print_table(ev, out)
    return ev["branch"], ev["pivot"], ev["node"], out.getvalue()


@given(st.lists(st.sampled_from(["lone", "edge", "outerplanar", "b2",
                                 "planar"]), min_size=2, max_size=5),
       st.integers(0, 10_000), st.data())
@settings(max_examples=40, deadline=None)
def test_disconnected_input_solves_as_its_components_one_by_one(kinds, seed,
                                                                data):
    # the same table events, in order, the same stats, and the values
    # joined, as solving each component on its own graph; names run
    # backwards, so that a name is never a vertex id
    h = _union(*(_piece(kind, seed + i) for i, kind in enumerate(kinds)))
    g = Graph(h.n, h.edges, names=[f"v{h.n - v}" for v in range(h.n)])
    comps = g.connected_components()
    subs = [induced_subgraph(g, c) for c in comps]
    flat = [len(c) == 1 or dp_outerplanar.is_outerplanar(sub) is not None
            for c, sub in zip(comps, subs)]
    k = data.draw(st.integers(0, g.n), label="k")
    force = data.draw(st.sampled_from(SOLVERS), label="force")
    witness = data.draw(st.booleans(), label="witness")
    if force == "outerplanar" and not all(flat):
        with pytest.raises(NotOuterplanar):
            solve(g, k, force_solver=force)
        return
    # a root in a later component, one whose every vertex is admissible
    later = [i for i, c in enumerate(comps) if i and len(c) > 1 and flat[i]]
    root = None
    if later:
        c = comps[data.draw(st.sampled_from(later), label="component")]
        root = c[data.draw(st.integers(0, len(c) - 1), label="root")]
    events: list = []
    rep = solve(g, k, force_solver=force, root=root, witness=witness,
                trace=events)

    want_events, want_stats, joined = [], {}, [0]
    for c, sub in zip(comps, subs):
        part: list = []
        one = solve(sub, min(k, sub.n), force_solver=force, trace=part,
                    root=c.index(root) if root in c else None)
        want_events += part
        for key, val in one.stats.items():
            want_stats[key] = (max(want_stats.get(key, 0), val)
                               if key in ("levels", "max_rows")
                               else want_stats.get(key, 0) + val)
        joined = convolve_max_plus(joined, one.values,
                                   min(k, len(joined) - 1 + sub.n))
    if len(comps) > 1:
        want_stats["pieces"] = len(comps)
    assert [_event(ev) for ev in events] == [_event(ev)
                                              for ev in want_events]
    assert rep.stats == want_stats
    assert rep.values == joined
    if g.n <= 16:
        assert rep.values == brute_force_all_k(g)[:k + 1]
    if witness:
        assert len(rep.witness) == k
        assert edges_within(g, rep.witness) == rep.optimum


def test_int32_joins_match_list_joins(monkeypatch):
    # from the first join wider than tables._WIDE cells on, the running
    # vector is one int32 array; with _WIDE out of reach every join (and
    # every flat combine) stays on lists, and values, witness, stats and
    # table events must come out the same.  Pieces of up to 40 vertices,
    # up to 15 of them, so joins at large k cross _WIDE
    wide = []
    front = import_module("dks.solve")
    real = front._join_wide
    monkeypatch.setattr(front, "_join_wide",
                        lambda *args: wide.append(1) or real(*args))
    piece = st.one_of(
        st.just(Graph(1, [])), st.just(Graph(2, [(0, 1)])),
        st.builds(lambda n, seed: gen_outerplanar(
            GenSpec(n=n, rho=0.6, seed=seed)),
            st.integers(3, 40), st.integers(0, 10_000)),
        st.builds(lambda n, seed: gen_bouterplanar(
            GenSpec(n=n, b=2, rho=0.5, seed=seed)),
            st.integers(7, 40), st.integers(0, 10_000)))

    @given(st.lists(piece, min_size=2, max_size=15), st.data())
    @settings(max_examples=40, deadline=None)
    def check(parts, data):
        g = _union(*parts)
        k = data.draw(st.integers(0, g.n), label="k")
        witness = data.draw(st.booleans(), label="witness")

        def run():
            events: list = []
            rep = solve(g, k, witness=witness, trace=events)
            return (rep.values, rep.witness, rep.stats,
                    [_event(ev) for ev in events])

        got = run()
        with monkeypatch.context() as m:
            m.setattr(tables, "_WIDE", 1 << 62)
            assert run() == got

    check()
    assert wide


def test_disconnected_refusals_stay():
    # a pinned flat solve refuses a union with a non-outerplanar part, and
    # the flat solver alone, with no blocks given, refuses any union
    tri = Graph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NotOuterplanar):
        solve(_union(tri, wheel(4)), 3, force_solver="outerplanar")
    with pytest.raises(BadArgument):
        dp_outerplanar.solve_outerplanar_values(_union(tri, tri), 3)


def _counting_dfs(monkeypatch) -> list[list[int]]:
    """The vertices of every Graph.blocks_and_cutpoints call, in order."""
    calls: list[list[int]] = []
    real = Graph.blocks_and_cutpoints

    def counted(self, part=None):
        calls.append(list(range(self.n) if part is None else part))
        return real(self, part)

    monkeypatch.setattr(Graph, "blocks_and_cutpoints", counted)
    return calls


def _counting_builds(monkeypatch) -> list[int]:
    """The vertex count of every Graph built, in order."""
    built: list[int] = []
    init = Graph.__post_init__
    monkeypatch.setattr(Graph, "__post_init__",
                        lambda self: built.append(self.n) or init(self))
    return built


def test_outerplanar_input_is_recognised_once(monkeypatch):
    # two triangles joined by a bridge, plus a pendant edge: two cycle
    # blocks, two bridges, three cutpoints; then two copies of it, each
    # recognised once, in place, and folded with no copy made
    one = Graph(7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5),
                    (3, 5), (5, 6)])
    two = _union(one, one)
    cycles = []
    real = dp_outerplanar.block_outer_cycle
    monkeypatch.setattr(dp_outerplanar, "block_outer_cycle",
                        lambda *a: cycles.append(a[1]) or real(*a))
    dfs = _counting_dfs(monkeypatch)
    built = _counting_builds(monkeypatch)
    for force in ("auto", "outerplanar"):
        for g in (one, two):
            dfs.clear()
            cycles.clear()
            rep = solve(g, 5, force_solver=force)
            assert rep.solver == "outerplanar"
            assert rep.values == brute_force_all_k(g)[:6]
            assert dfs == [list(range(7)), list(range(7, 14))][:g.n // 7]
            assert cycles == [[3, 4, 5], [0, 1, 2], [10, 11, 12],
                              [7, 8, 9]][:2 * g.n // 7], force
            assert built == []


def test_flat_stats_count_every_table():
    # the fixture's seven leaves and six merges at k = 7
    g = parse_edge_list(FIG7)
    stats = solve(g, 7).stats
    widths = [4, 5, 6, 4, 7, 8]           # k' columns of each merged table
    assert stats["merges"] == 6
    assert stats["tables"] == 7 + 6
    assert stats["cells"] == 4 * (7 * 3 + sum(widths))


# (cells, max_rows, levels) of the leveled solver: the counts of the
# dict-keyed tables that the array tables replaced, row for row
LEVELED_STATS = {
    ("fig7", 7): (168, 4, 1), ("fig10", 10): (878, 32, 3),
    ((2, 1), 5): (864, 16, 2), ((2, 1), None): (942, 16, 2),
    ((2, 2), 5): (828, 16, 2), ((2, 2), None): (906, 16, 2),
    ((3, 1), 5): (2096, 64, 3), ((3, 1), None): (3358, 64, 3),
    ((3, 2), 5): (2496, 64, 3), ((3, 2), None): (3438, 64, 3),
    ((4, 1), 5): (6436, 256, 4), ((4, 1), None): (11754, 256, 4),
    ((4, 2), 5): (9396, 256, 4), ((4, 2), None): (16170, 256, 4),
}


@pytest.mark.parametrize("which,k", list(LEVELED_STATS))
def test_leveled_table_stats_are_pinned(which, k):
    if which == "fig7":
        g = parse_edge_list(FIG7)
    elif which == "fig10":
        g = figure_graph()
    else:
        b, seed = which
        g = gen_bouterplanar(GenSpec(n=10 + 4 * b, b=b, rho=0.5, seed=seed))
    stats = solve_bouterplanar(g, g.n if k is None else k).stats
    assert (stats["cells"], stats["max_rows"],
            stats["levels"]) == LEVELED_STATS[which, k]


def test_import_and_flat_solve_leave_numpy_unloaded():
    # numpy and networkx cost a noticeable share of a short run's
    # start-up; only the leveled tables and the flat solver's combines
    # wider than tables._WIDE cells a pair (as an all-k solve of a
    # hundred vertices builds) need numpy, and only a rotation-less
    # input that is not outerplanar needs networkx
    script = ("import sys, dks, dks.cli\n"
              "from dks import Graph, solve\n"
              "from dks.generators import GenSpec, gen_bouterplanar\n"
              "def loaded(): return ('numpy' in sys.modules, "
              "'networkx' in sys.modules)\n"
              "solve(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 3)\n"
              "w = solve(Graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), "
              "(4, 5), (5, 3), (5, 6)]), 4, witness=True).witness\n"
              "print(*loaded(), len(w))\n"
              "g = gen_bouterplanar(GenSpec(n=12, b=2, seed=1))\n"
              "assert g.rotation is not None\n"
              "print(solve(g, 4).solver, *loaded())\n"
              "solve(Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), "
              "(2, 3)]), 3)\n"
              "print(*loaded())\n")
    src = Path(dks.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                         timeout=120)
    assert out.stdout == ("False False 4\nbouterplanar True False\n"
                          "True True\n"), out.stderr
    script = ("import sys\n"
              "from dks import solve\n"
              "from dks.generators import GenSpec, gen_outerplanar\n"
              "g = gen_outerplanar(GenSpec(n=100, seed=1))\n"
              "solve(g, 5, witness=True)\n"
              "print('numpy' in sys.modules)\n"
              "solve(g, g.n)\n"
              "print('numpy' in sys.modules, 'networkx' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                         timeout=120)
    assert out.stdout == "False\nTrue False\n", out.stderr
    # a union's component joins stay on lists at k < 20 and load numpy
    # once an all-k join grows past tables._WIDE cells; a matching and
    # 5-cycles, all flat and too small for a wide flat combine
    script = ("import sys\n"
              "from dks import Graph, solve\n"
              "e = [(2 * i, 2 * i + 1) for i in range(100)]\n"
              "e += [(200 + 5 * c + i, 200 + 5 * c + (i + 1) % 5) "
              "for c in range(4) for i in range(5)]\n"
              "g = Graph(220, e)\n"
              "print(len(solve(g, 10, witness=True).witness), "
              "'numpy' in sys.modules)\n"
              "solve(g, g.n)\n"
              "print('numpy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                         timeout=120)
    assert out.stdout == "10 False\nTrue\n", out.stderr


def test_solves_leave_every_module_level_container_and_cache_as_found():
    # a solve keeps no state at module level: in a fresh process, every
    # dict, list and set global and every function cache of each dks
    # module reads the same after a flat, a forced-leveled and a witness
    # solve as it did after import
    script = """
import importlib, pkgutil, sys
import dks
for m in pkgutil.iter_modules(dks.__path__):
    importlib.import_module("dks." + m.name)

def state():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "dks" and not name.startswith("dks."):
            continue
        for attr, val in vars(mod).items():
            if attr.startswith("__"):
                continue
            if isinstance(val, (dict, list, set)):
                out[name, attr] = repr(val)
            elif hasattr(val, "cache_info"):
                out[name, attr] = val.cache_info().currsize
    return out

before = state()
from dks import solve
from dks.generators import GenSpec, gen_bouterplanar, gen_outerplanar
solve(gen_outerplanar(GenSpec(n=60, seed=1)), 60)
g = gen_bouterplanar(GenSpec(n=30, b=3, rho=0.6, seed=2))
solve(g, 8, force_solver="bouterplanar")
solve(g, 8, witness=True)
after = state()
print(len(before) > 0,
      sorted(k for k in before.keys() | after.keys()
             if before.get(k) != after.get(k)))
"""
    src = Path(dks.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                         timeout=120)
    assert out.stdout == "True []\n", out.stderr


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
        assert set(ev) == {"branch", "pivot", "node", "table", "graph"}
        t, sub = ev["table"], ev["graph"]
        ends = (t.x, t.y) if hasattr(t, "x") else (t.L[0], t.R[0])
        named |= {sub.name_of(v) for v in ends}
    assert named == {str(v) for v in range(7)}


def test_k_larger_than_n_raises():
    with pytest.raises(KTooLarge):
        solve(Graph(3, [(0, 1)]), 4)
    with pytest.raises(ValueError):
        solve(Graph(3, [(0, 1)]), -1)


@pytest.mark.parametrize("force", ["auto", "outerplanar", "bouterplanar"])
def test_root_outside_the_vertices_raises(force):
    cycle = [(0, 1), (1, 2), (2, 3), (0, 3)]
    g = Graph(4, cycle)
    for root in (-1, g.n):
        with pytest.raises(ValueError):
            solve(g, 2, force_solver=force, root=root)
    # a root in another component, or on an isolated vertex, is accepted
    h = Graph(7, cycle + [(4, 5)])
    want = solve(h, 4, force_solver=force).values
    for root in (4, 6):
        assert solve(h, 4, force_solver=force, root=root).values == want


@pytest.mark.parametrize("option", ["force_solver", "triangulation"])
def test_unknown_option_names_raise_on_entry(option):
    # a path is outerplanar: the flat solver reads neither name, so only
    # the check on entry can refuse them
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(BadArgument):
        solve(path, 2, **{option: "typo"})


PATH3 = Graph(3, [(0, 1), (1, 2)])
C4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.mark.parametrize("refused", [
    lambda: solve(PATH3, -1),
    lambda: solve(PATH3, 2, root=3),
    lambda: solve(wheel(4), 2, root=4),     # the hub is off the outer face
    lambda: dp_outerplanar.solve_outerplanar_values(Graph(3, [(0, 1)]), 2,
                                                    root=2),
    lambda: embed_and_level(wheel(4), variant="typo"),
    lambda: brute_force_densest_k(PATH3, -1),
    lambda: probe(PATH3, 2, 0.0),
    lambda: probe(PATH3, 2, float("nan")),
    lambda: baker_decompose(PATH3, 1),
    lambda: bfs_levels(PATH3, root=3),
    lambda: solve(C4, 2, root=1.5),
    lambda: solve(C4, 2.0),
], ids=["k", "root", "outer-root", "flat-root", "variant", "oracle-k",
        "epsilon-0", "epsilon-nan", "b", "bfs-root", "root-float",
        "k-float"])
def test_refusals_are_bad_arguments(refused):
    with pytest.raises(BadArgument):
        refused()


def test_numpy_integers_pass_as_k_and_root():
    np = pytest.importorskip("numpy")
    assert (solve(C4, np.int64(2), root=np.int64(1)).values
            == solve(C4, 2, root=1).values)


def test_empty_graph():
    rep = solve(Graph(0, []), 0)
    assert rep.values == [0] and rep.optimum == 0


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("force", ["auto", "outerplanar", "bouterplanar"])
@pytest.mark.parametrize("witness", [False, True])
def test_edgeless_inputs_are_answered_by_the_front_door(n, force, witness):
    # no solver runs on a lone vertex; it counts under the pinned solver's
    # name, or the flat one's
    for k in range(n + 1):
        rep = solve(Graph(n, []), k, force_solver=force, witness=witness)
        assert rep.values == [0] * (k + 1)
        assert rep.solver == ("outerplanar" if force == "auto" else force)
        assert rep.witness == (list(range(k)) if witness else None)
        assert rep.stats == {}


def test_mixed_union_is_one_pass_per_component(monkeypatch):
    # a 2-edge matching, an outerplanar part, a 2-level part and an
    # isolated vertex: one block-cut pass per component with an edge, in
    # place, no Graph built for a flat component, and the leveled one
    # recognised once, before it is cut
    parts = [Graph(2, [(0, 1)]), Graph(2, [(0, 1)]),
             gen_outerplanar(GenSpec(n=4, rho=0.6, seed=2)),
             gen_bouterplanar(GenSpec(n=7, b=2, rho=0.5, seed=3)),
             Graph(1, [])]
    g = _union(*parts)
    comps = g.connected_components()
    assert [len(c) for c in comps] == [2, 2, 4, 7, 1]
    assert dp_outerplanar.is_outerplanar(parts[3]) is None
    dfs = _counting_dfs(monkeypatch)
    built = _counting_builds(monkeypatch)
    for witness in (False, True):
        dfs.clear()
        built.clear()
        rep = solve(g, g.n, witness=witness)
        assert dfs == [list(c) for c in comps[:4]]
        assert built == [7]
        assert rep.solver == "bouterplanar"
        assert rep.values == brute_force_all_k(g)
    assert edges_within(g, rep.witness) == rep.optimum


def test_connected_input_takes_the_component_loop(monkeypatch):
    # one path for every input: a connected flat graph is folded in place,
    # with no cut at all, and a connected leveled one is cut by
    # component_subgraphs, which hands it back itself, with no copy
    front = import_module("dks.solve")
    graphs = ((parse_edge_list(FIG7), True), (wheel(5), False))
    cuts = []
    split = front.component_subgraphs
    monkeypatch.setattr(front, "component_subgraphs",
                        lambda g, comps: cuts.append(g.n) or split(g, comps))
    built = _counting_builds(monkeypatch)
    for g, flat in graphs:
        for witness in (False, True):
            cuts.clear()
            rep = solve(g, 4, witness=witness)
            assert (cuts, built) == ([] if flat else [g.n], [])
            assert rep.values == brute_force_all_k(g)[:5]


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


def rescan_witness(g: Graph, k: int) -> list[int]:
    """Self-reduction that rescans from the first vertex after every
    deletion, one whole-graph solve per try."""
    target = solve(g, k).optimum
    keep = list(range(g.n))
    while len(keep) > k:
        keep = next(rest for i in range(len(keep))
                    for rest in [keep[:i] + keep[i + 1:]]
                    if solve(induced_subgraph(g, rest), k).optimum == target)
    return keep


def _union(*parts: Graph) -> Graph:
    g = Graph(0, [])
    for part in parts:
        g = Graph(g.n + part.n, g.edges
                  + [(u + g.n, v + g.n) for u, v in part.edges])
    return g


def witness_graphs():
    union = _union(gen_outerplanar(GenSpec(n=6, rho=0.5, seed=3)),
                   gen_bouterplanar(GenSpec(n=7, b=2, rho=0.5, seed=3)),
                   wheel(4))
    return [(gen_outerplanar(GenSpec(n=16, rho=0.5, seed=1)), 6),
            (gen_bouterplanar(GenSpec(n=14, b=3, rho=0.5, seed=1)), 6),
            (union, 6)]


@pytest.mark.parametrize("case", range(3))
def test_witness_tries_each_vertex_at_most_once(case, monkeypatch):
    # the self-reduction oracle builds one subgraph of g for the optimum and
    # one per try; rescanning from the start made 52 and 32 tries on the
    # first two graphs (n = 16 and 14)
    g, k = witness_graphs()[case]
    tries = []
    real = helpers.induced_subgraph
    monkeypatch.setattr(helpers, "induced_subgraph",
                        lambda h, keep: tries.append(h is g) or real(h, keep))
    oracle = self_reduction_witness(g, k)
    assert sum(tries) - 1 <= g.n
    monkeypatch.undo()
    assert oracle == rescan_witness(g, k)
    rep = solve(g, k, witness=True)
    assert len(set(rep.witness)) == k and rep.witness == sorted(rep.witness)
    assert edges_within(g, rep.witness) == edges_within(g, oracle)


def test_witness_resolves_only_the_touched_component(monkeypatch):
    g, k = witness_graphs()[2]
    solved = []
    real = helpers.solve
    monkeypatch.setattr(helpers, "solve",
                        lambda sub, *a, **kw: solved.append(tuple(sub.names))
                        or real(sub, *a, **kw))
    keep = self_reduction_witness(g, k)
    assert edges_within(g, keep) == solve(g, k).optimum
    # every vertex set is solved once: a try re-solves only the pieces
    # its deletion made, and the 18 tries solve far fewer than 3 each
    assert len(solved) == len(set(solved)) < 2 * g.n


def test_witness_is_one_traceback_after_one_value_solve(monkeypatch):
    # no re-solve: the witness costs no second pass over the components,
    # and no second recognition or cut of any of them
    g, k = witness_graphs()[2]
    comps = g.connected_components()
    leveled = [len(c) for c in comps
               if dp_outerplanar.is_outerplanar(induced_subgraph(g, c)) is None]
    assert leveled and len(leveled) < len(comps)
    calls = []
    real = Graph.connected_components
    monkeypatch.setattr(Graph, "connected_components",
                        lambda self: calls.append(self.n) or real(self))
    dfs = _counting_dfs(monkeypatch)
    built = _counting_builds(monkeypatch)
    rep = solve(g, k, witness=True)
    assert calls == [g.n]
    assert dfs == [list(c) for c in comps]
    assert built == leveled
    assert edges_within(g, rep.witness) == rep.optimum


def family_graph(family: str, seed: int) -> Graph:
    """A small graph of one generator family; n <= 16."""
    if family == "outerplanar":
        return gen_outerplanar(GenSpec(n=6 + seed % 9, rho=0.6, seed=seed))
    if family in ("b2", "b3", "b4"):
        b = int(family[1])
        return gen_bouterplanar(GenSpec(n=3 * b + 1 + seed % (14 - 3 * b),
                                        b=b, rho=0.5, seed=seed))
    if family == "planar":
        return biggest_component(
            gen_planar(GenSpec(n=8 + seed % 7, rho=0.8, seed=seed)))
    return _union(gen_outerplanar(GenSpec(n=5, rho=0.5, seed=seed)),
                  gen_bouterplanar(GenSpec(n=7, b=2, rho=0.5, seed=seed)),
                  gen_planar(GenSpec(n=4, rho=0.9, seed=seed)))


@given(st.sampled_from(["outerplanar", "b2", "b3", "b4", "planar", "union"]),
       st.integers(0, 10_000), st.data())
@settings(max_examples=60, deadline=None)
def test_witness_is_certified_and_as_dense_as_the_oracle(family, seed,
                                                         data):
    g = family_graph(family, seed)
    k = data.draw(st.integers(0, g.n), label="k")
    flat = solve(g, 0).solver == "outerplanar"
    force = data.draw(st.sampled_from(
        ["auto", "bouterplanar"] + (["outerplanar"] if flat else [])),
        label="solver")
    tri = data.draw(st.sampled_from(["zigzag", "zigzag_alt"]),
                    label="triangulation")
    root = None
    if family != "union" and g.m:
        # admissible roots sit on the outermost walk
        le = embed_and_level(g, blocks=dp_outerplanar.is_outerplanar(g))
        outer = sorted({u for u, _ in le.components[0].walk})
        root = data.draw(st.sampled_from([None] + outer), label="root")
    rep = solve(g, k, force_solver=force, triangulation=tri, root=root,
                witness=True)
    assert len(set(rep.witness)) == k and rep.witness == sorted(rep.witness)
    assert edges_within(g, rep.witness) == rep.values[k]
    assert rep.values[k] == edges_within(g, self_reduction_witness(g, k))


@pytest.mark.parametrize("case", range(3))
def test_corrupted_traceback_raises(case, monkeypatch):
    # an inverse kernel that settles for one edge less wherever it can
    # walks to a set that misses the optimum: the certificate refuses it.
    # The third input is a wheel, a triangle and a path at k = 3, where the
    # last component join can settle for the path's two edges
    wheel_tri_path = _union(wheel(4), Graph(3, [(0, 1), (1, 2), (0, 2)]),
                            Graph(3, [(0, 1), (1, 2)]))
    g, k = witness_graphs()[case] if case < 2 else (wheel_tri_path, 3)
    want = solve(g, k).values
    real = dp_outerplanar.maxplus_pair

    def short(a, b, kp, val, shift=0, add=0):
        return (real(a, b, kp, val - 1, shift, add)
                or real(a, b, kp, val, shift, add))

    front = import_module("dks.solve")
    for mod in (dp_outerplanar, dp_bouterplanar, front):
        monkeypatch.setattr(mod, "maxplus_pair", short)
    with pytest.raises(InternalError):
        solve(g, k, witness=True)
    assert solve(g, k).values == want     # no witness, no traceback


def test_auto_path_recognises_once(monkeypatch):
    # K2,3 as a bare edge list: not outerplanar, so the auto path embeds
    # it without recognising it a second time, alone or beside a flat
    # hexagon; the union's one cut builds K2,3 alone
    k23 = Graph(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
    hexagon = Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
    dfs = _counting_dfs(monkeypatch)
    built = _counting_builds(monkeypatch)
    rep = solve(k23, 5)
    assert rep.solver == "bouterplanar" and dfs == [list(range(5))]
    assert rep.values == brute_force_all_k(k23)
    assert built == []
    both = _union(hexagon, k23)
    dfs.clear()
    built.clear()
    rep = solve(both, 11)
    assert rep.solver == "bouterplanar"
    assert dfs == [list(range(6)), list(range(6, 11))] and built == [5]
    assert rep.values == brute_force_all_k(both)
    # a pinned leveled solve still draws an outerplanar input as a convex
    # polygon: one level, from one recognition of the part it cuts out
    dfs.clear()
    built.clear()
    assert solve_bouterplanar(hexagon, 6).stats["levels"] == 1
    assert dfs == [list(range(6))] and built == []
    dfs.clear()
    assert solve_bouterplanar(both, 6).stats["levels"] == 2
    assert dfs == [list(range(6)), list(range(5))] and built == [6, 5]


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
    # a plain dataclass: asdict is its JSON form, with no renderer of its own
    rep = solve(wheel(5), 4)
    d = json.loads(json.dumps(dataclasses.asdict(rep)))
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


# A 31-vertex, depth-2 planar graph shrunk from gen_planar(n=200,
# rho=0.3, seed=24).  Under zigzag the strip sweep of its deeper walk
# reaches 27 again at the foot of a spur (0 -> 27 -> 29) before the
# visit whose corner (29 -> 27 -> 16) the ladder really goes on at, and
# once desynced there (NoDividingPoint).
LEVELED_DEFECT_EDGES = (
    "0-11 0-27 1-12 1-16 2-6 2-20 2-23 3-23 3-25 4-6 4-22 5-8 5-14 6-27 "
    "6-28 7-13 7-21 8-23 9-25 9-30 10-21 10-22 12-13 14-17 15-19 15-24 "
    "16-17 17-18 18-22 24-30 26-30 27-29")


def test_leveled_defect_repro_solves_under_both_triangulations():
    g = Graph(31, [tuple(map(int, e.split("-")))
                   for e in LEVELED_DEFECT_EDGES.split()])
    assert (solve(g, 8).values
            == solve(g, 8, triangulation="zigzag_alt").values)


# The smallest component the strip sweep once desynced on under both
# triangulations: component 12 of gen_planar(n=200, rho=0.3, seed=647),
# drawn with networkx 3.6.1's rotation.  It is outerplanar, so only a
# forced leveled solve meets it.
DEFECT14_EDGES = ("0-4 1-2 1-8 1-10 1-13 2-8 2-12 3-5 3-7 3-13 4-6 4-13 "
                  "5-7 5-11 8-9 10-13")
DEFECT14_ROTATION = [[4], [8, 2, 10, 13], [12, 8, 1], [7, 5, 13],
                     [13, 6, 0], [11, 7, 3], [4], [3, 5], [9, 1, 2], [8],
                     [13, 1], [5], [2], [3, 10, 1, 4]]


@pytest.mark.parametrize("variant", ["zigzag", "zigzag_alt"])
def test_leveled_defect_14_matches_the_oracle(variant):
    g = Graph(14, [tuple(map(int, e.split("-")))
                   for e in DEFECT14_EDGES.split()],
              rotation=DEFECT14_ROTATION)
    rep = solve(g, 14, force_solver="bouterplanar", triangulation=variant,
                witness=True)
    assert rep.values == brute_force_all_k(g)
