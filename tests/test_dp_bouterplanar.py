import copy
import dataclasses
import os
import subprocess
import sys
import weakref
from itertools import combinations
from unittest import mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dks
from dks import dp_bouterplanar
from dks.dp_bouterplanar import (BoundaryTable, create, evaluate_tables,
                                 merge_tables, solve_bouterplanar_values)
from dks.embedding import embed_and_level
from dks.errors import BoundaryMismatch, InternalError
from dks.generators import GenSpec, gen_bouterplanar, gen_outerplanar
from dks.graph import Graph
from dks.oracle import brute_force_all_k
from dks.dp_outerplanar import is_outerplanar, solve_outerplanar_values
from dks.plane import rotations_from_coordinates
from dks.solve import solve
from dks.tables import NEG, UNIT
from dks.trees import build_forest

from helpers import (FIG_ID, as_none, brute_force_slice_table, figure_graph,
                     hex_two_pendants, materialize_slice, merge_reference,
                     node_tables, wheel)
from test_dp_outerplanar import outerplanar_graphs


def coord_graph(coords, edges, outer=None):
    return Graph(len(coords), edges, outer_face=outer,
                 rotation=rotations_from_coordinates(coords, edges))


def grid3():
    coords = [(float(i % 3), float(i // 3)) for i in range(9)]
    edges = [(i, i + 1) for i in range(9) if i % 3 != 2]
    edges += [(i, i + 3) for i in range(6)]
    return coord_graph(coords, edges)


def nested_triangles(rings=3):
    import math
    coords, edges = [], []
    for r in range(rings):
        rad = 10.0 / (r + 1)
        base = 3 * r
        for j in range(3):
            ang = math.radians(90 + 120 * j)
            coords.append((rad * math.cos(ang), rad * math.sin(ang)))
        edges += [(base + j, base + (j + 1) % 3) for j in range(3)]
        if r:
            edges += [(base - 3 + j, base + j) for j in range(3)]
    return coord_graph(coords, edges, outer=[0, 1, 2])


def spike_triangle():
    coords = [(0.0, 0.0), (4.0, 0.0), (2.0, 3.0), (5.0, -1.0)]
    return coord_graph(coords, [(0, 1), (1, 2), (2, 0), (1, 3)])


def solve_all(g):
    return solve_bouterplanar_values(g, g.n, blocks=is_outerplanar(g))[0]


# ------------------------------------------------------- whole-graph values


def test_figure_matches_oracle_for_every_k():
    g = figure_graph()
    vals = solve_all(g)
    assert vals == brute_force_all_k(g)
    assert vals[10] == 19


def test_wheel_values():
    g = wheel(5)
    vals = solve_all(g)
    assert vals == brute_force_all_k(g)
    assert vals[5] == 7 and vals[6] == 10


def test_hex_with_pendants_matches_oracle():
    g = hex_two_pendants()
    assert solve_all(g) == brute_force_all_k(g)


def test_grid_matches_oracle():
    assert solve_all(grid3()) == brute_force_all_k(grid3())


def test_three_nested_rings_match_oracle():
    g = nested_triangles(3)
    le = embed_and_level(g)
    assert le.depth == 3
    assert solve_all(g) == brute_force_all_k(g)


def test_cube_matches_oracle():
    edges = [(0, 1), (1, 2), (2, 3), (3, 0),
             (4, 5), (5, 6), (6, 7), (7, 4),
             (0, 4), (1, 5), (2, 6), (3, 7)]
    g = Graph(8, edges)
    assert solve_all(g) == brute_force_all_k(g)


def test_small_k_is_clamped_and_prefix_consistent():
    g = figure_graph()
    assert solve_bouterplanar_values(g, 4)[0] == solve_all(g)[:5]
    assert solve_bouterplanar_values(g, 25)[0] == solve_all(g)


def test_pinched_enclosing_face_with_repeated_labels():
    # The deeper component's enclosing face pinches at a cut vertex, so the
    # window labels repeat (..., 3, 3, ...) around a zero-extent stub and the
    # anchor label wraps.  Any bookkeeping keyed on vertex names instead of
    # slot indices resolves to the wrong occurrence here.
    g = Graph(7, [(0, 1), (0, 2), (0, 5), (1, 2), (1, 3), (2, 3),
                  (3, 4), (3, 5), (3, 6), (4, 6)])
    want = brute_force_all_k(g)
    for variant in ("zigzag", "zigzag_alt"):
        assert solve_bouterplanar_values(g, g.n,
                                         triangulation=variant)[0] == want


def test_same_level_pocket_chord():
    # Triangulating the annulus around the path 4-5-6 forces the same-level
    # chord (4, 6): the cross-level diagonal of the quad face (3, 6, 5, 4) is
    # already an edge of a neighbouring face.  The chord cuts a pure-deep
    # pocket off the region, shielding the elbow visit of 5 from every window
    # label; the strip sweep has to shortcut across it.
    g = Graph(8, [(0, 3), (1, 2), (1, 3), (1, 4), (1, 5), (2, 5),
                  (2, 7), (3, 4), (3, 6), (3, 7), (4, 5), (5, 6)])
    want = brute_force_all_k(g)
    for variant in ("zigzag", "zigzag_alt"):
        assert solve_bouterplanar_values(g, g.n,
                                         triangulation=variant)[0] == want


# ------------------------------------------------- per-node table soundness


def assert_node_tables_match_slice_oracle(g):
    forest = build_forest(embed_and_level(g))
    memo = node_tables(forest, g.n)
    slices: dict = {}
    for node in forest.nodes:
        t = memo[node.uid]
        verts, edges = materialize_slice(forest, node, slices)
        assert t.vset == verts
        assert t.eset <= edges
        boundary = list(dict.fromkeys(t.L + t.R))
        want = brute_force_slice_table(g, sorted(verts), set(edges),
                                       boundary, t.K)
        for a, cells in t.rows.items():
            for kp, got in enumerate(as_none(cells)):
                assert got == want[(a, kp)], (
                    f"node {node.uid} row {sorted(a)} k'={kp}: "
                    f"{got} != {want[(a, kp)]}")


@pytest.mark.parametrize("make", [figure_graph, hex_two_pendants,
                                  spike_triangle, lambda: wheel(5), grid3],
                         ids=["figure", "hex", "spike", "w5", "grid"])
def test_every_node_table_matches_slice_oracle(make):
    assert_node_tables_match_slice_oracle(make())


def test_evaluate_tables_checks_conservation():
    # W5: the root encloses the hub, whose S4 sweep consumes the five
    # leaf windows in order.  The last leaf claiming the first as a child
    # makes the first consumed twice, which is caught before the last
    # leaf's table is built; a node no table reads is unreachable.
    # Either would break "each real edge scores once".
    forest = build_forest(embed_and_level(wheel(5)))
    leaves = forest.trees[0].root.children
    leaves[-1].children = [leaves[0]]
    with pytest.raises(InternalError, match="consumed twice"):
        evaluate_tables(forest, 6)
    forest = build_forest(embed_and_level(wheel(5)))
    stray = copy.copy(forest.trees[0].root.children[0])
    stray.uid = len(forest.nodes)
    forest.nodes.append(stray)
    with pytest.raises(InternalError, match="unreachable"):
        evaluate_tables(forest, 6)


def ladder(rungs: int) -> Graph:
    """Two paths of `rungs` vertices, joined rung by rung."""
    return Graph(2 * rungs, [(i + s, i + s + 1) for s in (0, rungs)
                             for i in range(rungs - 1)]
                 + [(i, rungs + i) for i in range(rungs)])


def test_walk_holds_few_tables_at_once(monkeypatch):
    # the ladder's tree is about 1,000 nodes deep with a leaf beside each
    # rung: a walk that holds every finished table, or even one waiting
    # sibling per level, keeps hundreds alive; built deepest first and
    # dropped once consumed, a handful are alive at any time.  The
    # cycle's root folds 2,000 leaves: merged into the running table as
    # each is built, they are never alive together
    live: weakref.WeakSet = weakref.WeakSet()
    most = [0]
    made = BoundaryTable.__post_init__

    def counted(self):
        made(self)
        live.add(self)
        most[0] = max(most[0], len(live))

    monkeypatch.setattr(BoundaryTable, "__post_init__", counted)
    g = ladder(1000)
    rep = solve(g, 6, force_solver="bouterplanar")
    assert rep.values == [0, 0, 1, 2, 4, 5, 7]
    assert rep.stats["tree_nodes"] > 2900 and most[0] <= 8
    most[0] = 0
    cycle = Graph(2000, [(i, (i + 1) % 2000) for i in range(2000)])
    rep = solve(cycle, 6, force_solver="bouterplanar")
    assert rep.values == [0, 0, 1, 2, 3, 4, 5]
    assert most[0] <= 8


def test_fold_starts_at_the_first_of_equally_hungry_operands():
    # a cycle's root folds six leaves that each hold one table: it starts
    # at the first, so each merge takes the next leaf as its second
    # operand, the merges a left-to-right fold makes
    g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    forest = build_forest(embed_and_level(g, blocks=is_outerplanar(g)))
    merges = kept_merges(evaluate_tables(forest, 6, keep=True)[0])
    assert len(merges) == 5 and not any(t2.made for _, t2 in merges)


def test_table_shape_invariants():
    g = figure_graph()
    forest = build_forest(embed_and_level(g))
    memo = node_tables(forest, g.n, keep=True)
    merges = kept_merges(memo[forest.trees[0].root.uid])
    assert merges and all(t.cells.dtype == np.int32
                          for pair in merges for t in pair)
    for node in forest.nodes:
        t = memo[node.uid]
        assert t.cells.dtype == np.int32
        level = forest.le.components[node.comp].level
        assert len(t.rows) <= 4 ** level
        assert t.rows[frozenset()][0] == 0
        for a, cells in t.rows.items():
            for kp, v in enumerate(cells):
                if v != NEG:
                    assert kp >= len(a)
                    assert v >= 0


@given(family=st.sampled_from(["bouterplanar", "outerplanar"]),
       b=st.integers(2, 4), extra=st.integers(0, 8), k=st.integers(1, 9),
       seed=st.integers(0, 10**6),
       variant=st.sampled_from(["zigzag", "zigzag_alt"]))
@settings(max_examples=40, deadline=None)
def test_every_table_stores_exactly_the_sizes_its_rows_reach(
        family, b, extra, k, seed, variant):
    # a row can reach the sizes from its subset's size up by the region's
    # interior vertices, capped at K, and every one of them: a table has
    # one column per interior count, and its rows view is real exactly
    # on that band (an outerplanar input is forced onto the leveled DP)
    spec = GenSpec(n=3 * b - 2 + extra, b=b, rho=0.6, seed=seed)
    g = (gen_bouterplanar if family == "bouterplanar"
         else gen_outerplanar)(spec)
    trace: list = []
    solve(g, min(k, g.n), force_solver="bouterplanar",
          triangulation=variant, trace=trace)
    tables = [ev["table"] for ev in trace
              if isinstance(ev["table"], BoundaryTable)]
    assert tables
    for t in tables:
        inner = len(t.vset) - len(t.bset)
        assert t.cells.shape[1] == min(inner, t.K) + 1
        for a, cells in t.rows.items():
            assert [kp for kp, c in enumerate(cells) if c != NEG] \
                == list(range(len(a), min(len(a) + inner, t.K) + 1))


@given(family=st.sampled_from(["bouterplanar", "outerplanar"]),
       b=st.integers(2, 4), extra=st.integers(0, 8), k=st.integers(0, 5),
       seed=st.integers(0, 10**6),
       variant=st.sampled_from(["zigzag", "zigzag_alt"]))
@settings(max_examples=40, deadline=None)
def test_every_stored_cell_is_the_all_k_tables_value(
        family, b, extra, k, seed, variant):
    # the budget bounds only a table's width: each node's table at k holds
    # no NEG and equals the first columns of the same node's all-k table,
    # cells past size K included; the tables a witness keeps, intermediate
    # ones too, hold no NEG either (an outerplanar input is drawn on one
    # level, as the forced leveled solver draws it)
    spec = GenSpec(n=3 * b - 2 + extra, b=b, rho=0.6, seed=seed)
    g = (gen_bouterplanar if family == "bouterplanar"
         else gen_outerplanar)(spec)
    forest = build_forest(embed_and_level(g, variant=variant,
                                          blocks=is_outerplanar(g)))
    full = node_tables(forest, g.n)
    at_k = node_tables(forest, k, keep=True)
    assert at_k.keys() == full.keys()
    for uid, t in at_k.items():
        assert np.array_equal(t.cells, full[uid].cells[:, :t.cells.shape[1]])
    todo = list(at_k.values())      # every node table, then what built it
    while todo:
        t = todo.pop()
        assert (t.cells != dp_bouterplanar.NEG).all()
        todo += kept_operands(t)


# ------------------------------------------------------------- equivalences


def test_outermost_only_inputs_agree_with_flat_solver():
    for make in (spike_triangle,
                 lambda: Graph(5, [(i, i + 1) for i in range(4)]),
                 lambda: Graph(5, [(0, i) for i in range(1, 5)]),
                 lambda: Graph(6, [(i, (i + 1) % 6) for i in range(6)])):
        g = make()
        assert solve_all(g) == solve_outerplanar_values(g, g.n)[0]


@given(outerplanar_graphs())
@settings(max_examples=40, deadline=None)
def test_random_outermost_inputs_agree_with_flat_solver(g):
    if g.n > 14:
        return
    assert solve_all(g) == solve_outerplanar_values(g, g.n)[0]


def test_filler_edge_choice_is_neutral():
    for make in (figure_graph, hex_two_pendants, grid3):
        g = make()
        a = solve_bouterplanar_values(g, g.n, triangulation="zigzag")[0]
        b = solve_bouterplanar_values(g, g.n, triangulation="zigzag_alt")[0]
        assert a == b


def test_root_choice_is_neutral():
    g = figure_graph()
    base = solve_all(g)
    for name in "ABCDE":
        assert solve_bouterplanar_values(g, g.n,
                                         root=FIG_ID[name])[0] == base


# ------------------------------------------------------------ small pieces


def test_leaf_template_shape():
    le = embed_and_level(spike_triangle())
    forest = build_forest(le)
    first = forest.trees[0].leaves[0]
    t = create(le.graph, first, (), 2)
    assert set(t.rows) == {frozenset(), frozenset({first.x}),
                           frozenset({first.y}),
                           frozenset({first.x, first.y})}
    assert t.rows[frozenset({first.x, first.y})][2] == 1
    assert t.rows[frozenset()] == [0, NEG, NEG]


def test_doubled_walk_edge_scores_once():
    le = embed_and_level(spike_triangle())
    forest = build_forest(le)
    bridge = forest.trees[0].root.children[1]
    out, back = bridge.children
    assert create(le.graph, out, (), 2).rows[frozenset({1, 3})][2] == 1
    assert create(le.graph, back, (), 2).rows[frozenset({1, 3})][2] == 0


def test_merge_rejects_gap():
    le = embed_and_level(figure_graph())
    forest = build_forest(le)
    a, b = forest.trees[0].leaves[0], forest.trees[0].leaves[2]
    with pytest.raises(BoundaryMismatch):
        merge_tables(create(le.graph, a, (), 3), create(le.graph, b, (), 3),
                     3)


def kept_operands(t: BoundaryTable) -> list:
    """The tables among t's kept operands: both of a merge's, one of
    any other step's (the other is a tables.Record)."""
    return [s for s in t.made[1:3] if isinstance(s, BoundaryTable)]


def kept_merges(root: BoundaryTable) -> list:
    """(t1, t2) of every merge_tables call behind a table kept for a
    traceback, intermediate tables included: the kept tables whose two
    operands are both tables."""
    seen, todo, out = set(), [root], []
    while todo:
        t = todo.pop()
        if id(t) in seen or not t.made:
            continue
        seen.add(id(t))
        ops = kept_operands(t)
        if len(ops) == 2:
            out.append(tuple(ops))
        todo += ops
    return out


@given(b=st.integers(2, 5), extra=st.integers(0, 6),
       seed=st.integers(0, 10**6),
       variant=st.sampled_from(["zigzag", "zigzag_alt"]))
@example(b=5, extra=6, seed=0, variant="zigzag")    # merges of 8 blocks
@settings(max_examples=30, deadline=None)
def test_merge_tables_matches_the_per_pair_reference(b, extra, seed, variant):
    # the overlap charged once to t2's rows gives what charging it to
    # every (result row, middle subset) pair gives, on every merge of a
    # generated graph's tables, block by block, and a merge writes into
    # neither operand (a transposed operand may be the operand's memory)
    k = 5
    g = gen_bouterplanar(GenSpec(n=3 * b - 2 + extra, b=b, rho=0.6,
                                 seed=seed))
    forest = build_forest(embed_and_level(g, variant=variant))
    merges = kept_merges(evaluate_tables(forest, k, keep=True)[0])
    assert merges
    blocks = []
    with mock.patch.object(dp_bouterplanar, "maxplus_rows",
                           wraps=dp_bouterplanar.maxplus_rows) as kernel:
        for t1, t2 in merges:
            want = merge_reference(t1, t2, k)
            before = t1.cells.tobytes(), t2.cells.tobytes()
            kernel.reset_mock()
            assert merge_tables(t1, t2, k).rows == want
            blocks.append(kernel.call_count)
            assert (t1.cells.tobytes(), t2.cells.tobytes()) == before
    if (b, extra, seed) == (5, 6, 0):
        assert max(blocks) > 1


def no_interior(t: BoundaryTable) -> bool:
    return len(t.vset) == len(t.bset)


def edge_count_rows(t: BoundaryTable) -> dict:
    """t's rows view by brute force, for a table with no interior vertex:
    each boundary subset reaches its own size only, with the eset edges
    inside it."""
    out = {}
    for r in range(len(t.verts) + 1):
        for a in map(frozenset, combinations(t.verts, r)):
            row = out[a] = [NEG] * (t.K + 1)
            if r <= t.K:
                row[r] = sum(1 for e in t.eset if a.issuperset(e))
    return out


def unread(step, *args) -> BoundaryTable:
    """step(*args) while any read of a cell that is not built yet, and
    the merge kernel, raise."""
    with mock.patch.object(dp_bouterplanar, "_edge_counts",
                           side_effect=AssertionError("cells read")), \
            mock.patch.object(dp_bouterplanar, "maxplus_rows",
                              side_effect=AssertionError("kernel called")):
        return step(*args)


@pytest.mark.parametrize("step", ["merge_tables", "extend"])
@pytest.mark.parametrize("variant", ["zigzag", "zigzag_alt"])
def test_steps_without_interior_read_no_cells(step, variant):
    # every call of the step, in a 3- and a 4-level solve, whose result has
    # no interior vertex is made again from copies of its operands whose
    # cells are not built: it reads none of them, and its rows are the
    # eset edges inside each boundary subset
    real = getattr(dp_bouterplanar, step)
    calls = []

    def spy(*args):
        out = real(*args)
        if no_interior(out):
            calls.append(args)
        return out

    for b, n in ((3, 20), (4, 36)):
        g = gen_bouterplanar(GenSpec(n=n, b=b, seed=1))
        forest = build_forest(embed_and_level(g, variant=variant))
        with mock.patch.object(dp_bouterplanar, step, spy):
            evaluate_tables(forest, 5)
    assert len(calls) > 10
    for args in calls:
        out = unread(real, *(dataclasses.replace(a, _cells=None)
                             if isinstance(a, BoundaryTable) else a
                             for a in args))
        assert no_interior(out) and out.made == ()
        assert out.rows == edge_count_rows(out)


def test_adjust_without_interior_reads_no_cells():
    # the spike triangle's doubled walk edge (1, 3) is left out of its
    # back copy's seed; adjust scores it without reading the seed's cells
    le = embed_and_level(spike_triangle())
    back = build_forest(le).trees[0].root.children[1].children[1]
    t = unread(dp_bouterplanar.adjust, le.graph, create(le.graph, back, (), 2))
    assert no_interior(t) and (1, 3) in t.eset
    assert t.rows == edge_count_rows(t)
    assert t.rows[frozenset({1, 3})] == [NEG, NEG, 1]


@pytest.mark.parametrize("b, n", [(2, 16), (3, 20), (4, 20)])
def test_kept_tables_without_interior_end_the_walk(b, n):
    # with a witness, a table with no interior vertex keeps no operands:
    # the replay reads its rows as the selections; every other kept
    # table holds the terms of the step that built it, over the table
    # it was built from
    g = gen_bouterplanar(GenSpec(n=n, b=b, seed=1))
    trace: list = []
    rep = solve(g, n // 2, force_solver="bouterplanar", witness=True,
                trace=trace)
    assert rep.values == brute_force_all_k(g)[:n // 2 + 1]
    seen, todo = set(), [ev["table"] for ev in trace]
    free, kinds = 0, set()
    while todo:
        t = todo.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if no_interior(t):
            assert t.made == ()
            free += 1
        else:
            # a merge's second operand is a table, an extend's a leaf of
            # its vertex, a contract's or adjust's the unit
            terms, o1, o2 = t.made
            assert callable(terms) and isinstance(o1, BoundaryTable)
            kinds.add("merge" if isinstance(o2, BoundaryTable)
                      else "unit" if o2 is UNIT
                      else "extend" if o2.verts == (t.L[0],) else o2)
        todo += kept_operands(t)
    assert free and {"merge", "unit"} <= kinds <= {"merge", "extend", "unit"}


def test_trace_names_branch_and_pivot():
    g = figure_graph()
    trace = []
    solve_bouterplanar_values(g, g.n, trace=trace)
    assert {row["branch"] for row in trace} == {"S1", "S2", "S3", "S4"}
    for row in trace:
        assert (row["pivot"] is not None) == (row["branch"] == "S4")
    assert len(trace) == 14


def test_boundary_drift_raises_under_python_O():
    # the drift check, the exactness checks in extend and adjust, the
    # forest's seam and walk checks, the embedding's triangulation check
    # and the oracle cross-check and the generators' self-check must survive
    # `python -O`, which strips asserts
    script = """
import sys
from dks.dp_bouterplanar import adjust, evaluate_tables, extend
from dks.embedding import embed_and_level
from dks.errors import BoundaryMismatch, DksError, InternalError
from dks.graph import Graph
from dks.trees import _assign_boundaries, build_forest
rim = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]
g = Graph(6, rim)
forest = build_forest(embed_and_level(g))
root = forest.trees[0].root
trace = []
t = evaluate_tables(forest, 6, trace=trace)[0]
scored = next(s for s in (ev["table"] for ev in trace)
              if tuple(sorted((s.L[0], s.R[0]))) in s.eset)
for step in (lambda: extend(g, t.L[0], t, 6), lambda: adjust(g, scored)):
    try:
        step()
    except DksError as e:
        print(type(e).__name__, sys.flags.optimize)
spare = build_forest(embed_and_level(g))
hub = spare.trees[1]
hub.root.lbn = 2                  # the hub claims to start a window late
try:
    _assign_boundaries(spare.le, hub)
except BoundaryMismatch:
    print("seam", sys.flags.optimize)
lost = embed_and_level(g)
lost.graph = Graph(6, rim[1:])    # the outer walk edge (0, 1) is gone
try:
    build_forest(lost)
except InternalError:
    print("walk", sys.flags.optimize)
root.lbound = root.lbound + (root.x,)
try:
    evaluate_tables(forest, 6)
except BoundaryMismatch:
    print("BoundaryMismatch", sys.flags.optimize)
from dks import embedding
from dks.errors import TriangulationIncomplete
prism = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                  (0, 3), (1, 4), (2, 5)])
embedding.PlaneGraph.insert_chords = lambda self, orbit, chords: None
try:
    embedding.embed_and_level(prism)   # its quad faces stay untriangulated
except TriangulationIncomplete:
    print("untriangulated", sys.flags.optimize)
from dks import generators, oracle
from helpers import oracle_self_check
real = oracle.brute_force_densest_k
oracle.brute_force_densest_k = lambda g, k: (real(g, k)[0] + 1, [])
try:
    oracle_self_check(Graph(3, [(0, 1)]))   # a corrupted oracle
except InternalError:
    print("oracle", sys.flags.optimize)
generators.is_outerplanar = lambda g: None
try:
    generators.gen_outerplanar(generators.GenSpec(n=5))
except InternalError:
    print("generator", sys.flags.optimize)
"""
    src = Path(dks.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), str(Path(__file__).resolve().parent)]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout == ("BoundaryMismatch 1\nInternalError 1\nseam 1\n"
                          "walk 1\nBoundaryMismatch 1\nuntriangulated 1\n"
                          "oracle 1\ngenerator 1\n"), out.stderr


def test_edge_limit_of_int32_tables_raises_under_python_O():
    # int32 cells count exactly only below MAX_EDGES edges: the guard
    # refuses before any table is built, under -O too (a stub stands in
    # for a graph that large)
    script = """
import sys
from dks.dp_bouterplanar import solve_bouterplanar_values
from dks.errors import InternalError, TooManyEdges
from dks.tables import MAX_EDGES
class Huge:
    n, m = 3, MAX_EDGES
try:
    solve_bouterplanar_values(Huge(), 2)
except TooManyEdges as e:
    print("TooManyEdges", isinstance(e, InternalError), sys.flags.optimize)
"""
    src = Path(dks.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout == "TooManyEdges False 1\n", out.stderr


def test_merge_guards_raise_under_python_O():
    # merge_tables refuses operands that do not meet (BoundaryMismatch)
    # and regions that overlap off their shared boundary (InternalError),
    # under -O too; each fixture is printed, so it is checked under -O
    script = """
import dataclasses, sys
from dks.dp_bouterplanar import BoundaryTable, evaluate_tables, merge_tables
from dks.embedding import embed_and_level
from dks.errors import BoundaryMismatch, InternalError
from dks.graph import Graph
from dks.trees import build_forest
rim = [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]
g = Graph(6, rim)
trace = []
evaluate_tables(build_forest(embed_and_level(g)), 2, trace=trace, keep=True)
t1, t2 = next(ev["table"].made[1:3] for ev in trace
              if ev["table"].made and all(isinstance(s, BoundaryTable)
                                          for s in ev["table"].made[1:3]))
merge_tables(t1, t2, 2)
print("meet", t1.R == t1.L)
try:
    merge_tables(t1, t1, 2)
except BoundaryMismatch:
    print("BoundaryMismatch", sys.flags.optimize)
v = min(t2.vset - t1.bset)      # inside t2's region, off t1's boundary
bad = dataclasses.replace(t1, vset=t1.vset | {v})
print("overlap", v not in bad.bset)
try:
    merge_tables(bad, t2, 2)
except InternalError:
    print("InternalError", sys.flags.optimize)
"""
    src = Path(dks.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout == ("meet False\nBoundaryMismatch 1\n"
                          "overlap True\nInternalError 1\n"), out.stderr
