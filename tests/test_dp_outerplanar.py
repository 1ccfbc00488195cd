"""Unit and golden tests for the outerplanar DP.

The seven-vertex fixture below (outer cycle c-b-a-e-f-g-d plus chords
b-e, b-g, c-g) has every intermediate table hand-computed; the fold is
checked bit-for-bit against those tables, None (= no subgraph of that
size with that endpoint trace) included: a table marks such a cell
tables.NEG, which the comparisons read as None (helpers.as_none).
"""

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dks
from dks.errors import DksError, NotOuterplanar
from dks.generators import GenSpec, gen_outerplanar
from dks.graph import Graph, parse_edge_list
from dks.oracle import brute_force_all_k
from dks import dp_outerplanar, tables
from dks.tables import NEG
from dks.dp_outerplanar import (
    _EMPTY,
    _HANG_TERMS,
    _MAX_TERMS,
    _MERGE_TERMS,
    EdgeTable,
    Hang,
    block_outer_cycle,
    fold_block,
    is_outerplanar,
    leaf_table,
    merge_tables,
    solve_outerplanar_values,
)
from dks.solve import solve, solve_bouterplanar, solve_outerplanar
from helpers import (as_none, brute_force_slice_table, flat_merge_reference,
                     shaped_outerplanar, square_hub)

FIXTURE = "c b\nb a\na e\ne f\nf g\ng d\nd c\nb e\nb g\nc g\n"

N = None
LEAF = [[0, N, N], [N, 0, N], [N, 0, N], [N, N, 1]]

# Hand-computed and oracle-verified (see the slice-oracle crosscheck
# below, which re-derives every cell by exhaustive enumeration).
EXPECTED_MERGES = {
    # (x, y): rows (0,0), (0,1), (1,0), (1,1); columns k' = 0..min(k, span size)
    ("b", "e"): [[0, 0, N, N], [N, 0, 1, N], [N, 0, 1, N], [N, N, 1, 3]],
    ("b", "f"): [[0, 0, 1, N, N], [N, 0, 1, 2, N], [N, 0, 1, 3, N], [N, N, 0, 2, 4]],
    ("b", "g"): [[0, 0, 1, 2, N, N], [N, 0, 1, 2, 3, N],
                 [N, 0, 1, 3, 4, N], [N, N, 1, 2, 4, 6]],
    ("g", "c"): [[0, 0, N, N], [N, 0, 1, N], [N, 0, 1, N], [N, N, 1, 3]],
    # (0,1) k=4 is 4 via {b,e,f,g}: edges b-e, e-f, f-g, b-g
    ("c", "g"): [[0, 0, 1, 3, 4, N, N], [N, 0, 1, 2, 4, 6, N],
                 [N, 0, 1, 2, 4, 5, N], [N, N, 1, 3, 4, 6, 8]],
    # (1,1) k=4 is 5 via {b,c,d,g}: edges c-b, b-g, c-g, g-d, d-c
    ("c", "c"): [[0, 0, 1, 3, 4, 6, 7, N], [N] * 8, [N] * 8,
                 [N, 0, 1, 3, 5, 6, 8, 10]],
}

EXPECTED_VALUES = [0, 0, 1, 3, 5, 6, 8, 10]


def run_fixture():
    g = parse_edge_list(FIXTURE)
    leaves, merges = {}, {}
    events: list = []
    values = solve_outerplanar_values(g, 7, trace=events)[0]
    for ev in events:
        t = ev["table"]
        assert ev["graph"] is g
        key = (g.names[t.x], g.names[t.y])
        rows = [as_none(r) for r in t.rows]
        if ev["branch"] == "leaf":
            leaves[key] = rows
        elif ev["branch"] == "merge":
            assert key not in merges, f"duplicate merge label {key}"
            merges[key] = rows
    return g, leaves, merges, values


def test_fixture_leaf_tables():
    _, leaves, _, _ = run_fixture()
    assert set(leaves) == {("c", "b"), ("b", "a"), ("a", "e"), ("e", "f"),
                           ("f", "g"), ("g", "d"), ("d", "c")}
    for key, rows in leaves.items():
        assert rows == LEAF, key


def test_fixture_merge_tables_bit_exact():
    _, _, merges, _ = run_fixture()
    assert set(merges) == set(EXPECTED_MERGES)
    for key in EXPECTED_MERGES:
        assert merges[key] == EXPECTED_MERGES[key], f"table {key} mismatch"


def test_fixture_extracted_values():
    _, _, _, values = run_fixture()
    assert values == EXPECTED_VALUES
    assert brute_force_all_k(parse_edge_list(FIXTURE)) == EXPECTED_VALUES


def test_golden_tables_against_slice_oracle():
    """Every golden cell re-derived by exhaustive enumeration.

    A merged table with labels (x, y) covers a contiguous arc of the
    outer cycle; its countable edges are exactly the real edges induced
    on the arc (chords close when the arc spans both endpoints).
    """
    g = parse_edge_list(FIXTURE)
    vid = {nm: i for i, nm in enumerate(g.names)}
    cycle = "cbaefgd"
    arcs = {("b", "e"): "bae", ("b", "f"): "baef", ("b", "g"): "baefg",
            ("g", "c"): "gdc", ("c", "g"): "cbaefg", ("c", "c"): cycle}
    for (xn, yn), rows in EXPECTED_MERGES.items():
        span = [vid[c] for c in arcs[(xn, yn)]]
        sset = set(span)
        induced = {(u, v) for u, v in g.edges if u in sset and v in sset}
        boundary = [vid[xn]] if xn == yn else [vid[xn], vid[yn]]
        kmax = len(rows[0]) - 1
        oracle = brute_force_slice_table(g, span, induced, boundary, kmax)
        for bx in (0, 1):
            for by in (0, 1):
                if xn == yn and bx != by:
                    assert all(v is None for v in rows[(bx << 1) | by])
                    continue
                a = frozenset({vid[xn]} if bx else set()) | \
                    frozenset({vid[yn]} if by else set())
                for kp in range(kmax + 1):
                    assert rows[(bx << 1) | by][kp] == oracle[(a, kp)], \
                        (xn, yn, bx, by, kp)


def test_fixture_explicit_root_orientation():
    g = parse_edge_list(FIXTURE)
    vid = {nm: i for i, nm in enumerate(g.names)}
    vals = solve_outerplanar_values(g, 7, root=vid["e"])[0]
    assert vals == EXPECTED_VALUES


def test_leaf_table_shape():
    t = leaf_table(4, 9, k=5)
    assert [as_none(r) for r in t.rows] == [[0, N, N], [N, 0, N], [N, 0, N],
                                            [N, N, 1]]
    assert t.vcount == 2 and t.counts_label_edge


def test_merge_empty_cells_are_reset_per_k():
    # two disjoint path edges sharing the middle vertex: row (0,0) has no
    # size-2 subset avoiding both endpoints, so that cell must stay absent
    g = Graph(n=3, edges=[(0, 1), (1, 2)])
    t = merge_tables(leaf_table(0, 1, 3), leaf_table(1, 2, 3), g, 3)
    assert as_none(t.rows[0]) == [0, 0, N, N]


@st.composite
def span_tables(draw, x: int, y: int, k: int, vcounts):
    """A span table T_(x,y) with one of `vcounts` vertices and min(k,
    vcount) + 1 cells a row: random cells, NEG where the row's set bits
    alone outnumber the size, as in every table the fold builds, and at
    least 1 in row (1, 1) when the table counts its label edge."""
    vcount = draw(vcounts)
    counted = draw(st.booleans())
    rows = [[NEG if kp < bin(r).count("1")
             else draw(st.just(NEG) | st.integers(int(r == 3 and counted),
                                                  12))
             for kp in range(min(k, vcount) + 1)] for r in range(4)]
    return EdgeTable(x, y, vcount, rows, counted)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_merge_tables_matches_the_eight_call_reference(data):
    # x = 0, y = 1, and z = 2, or z = x when the merge closes the cycle;
    # k runs from 0 to past both operands' vertex counts, and the second
    # operand is a bare leaf (the push) or a span (the one loop)
    k = data.draw(st.integers(0, 8), label="k")
    closing = data.draw(st.booleans(), label="closing")
    z = 0 if closing else 2
    g = Graph(3, [(0, 1), (1, 2)] + ([(0, 2)] if data.draw(
        st.booleans(), label="chord") else []))
    t1 = data.draw(span_tables(0, 1, k, st.integers(2, 7)), label="t1")
    t2 = data.draw(st.just(leaf_table(1, z, k))
                   | span_tables(1, z, k, st.integers(3, 7)), label="t2")
    before = [list(r) for r in t1.rows + t2.rows]
    got = merge_tables(t1, t2, g, k)
    want = flat_merge_reference(t1, t2, g, k)
    assert got.rows == want.rows
    assert (got.vcount, got.counts_label_edge) == (want.vcount,
                                                   want.counts_label_edge)
    assert t1.rows + t2.rows == before          # the operands are untouched


# ------------------------------------------------------------ outer cycle


def test_block_outer_cycle_on_fixture():
    g = parse_edge_list(FIXTURE)
    blocks, tops, _ = g.blocks_and_cutpoints()
    assert blocks == [list(range(7))]
    cycle = block_outer_cycle(g, blocks[0], tops[0])
    names = [g.names[v] for v in cycle]
    assert names[0] == "c"
    assert names in (["c", "b", "a", "e", "f", "g", "d"],
                     ["c", "d", "g", "f", "e", "a", "b"])


def test_block_outer_cycle_rejects_k4():
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    with pytest.raises(NotOuterplanar):
        block_outer_cycle(Graph(4, edges), [0, 1, 2, 3], 0)


def test_rejects_k23():
    # K_{2,3} is planar but not outerplanar
    g = Graph(n=5, edges=[(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert not is_outerplanar(g)
    blocks, tops, _ = g.blocks_and_cutpoints()
    with pytest.raises(NotOuterplanar):
        block_outer_cycle(g, blocks[0], tops[0])


def _outer_cycle_corpus():
    for s in range(30):
        yield gen_outerplanar(GenSpec(n=3 + 2 * s, rho=(s % 6) / 5, seed=s))
    for n in (3, 4, 9, 25):
        yield from shaped_outerplanar(n)


@pytest.mark.parametrize("g", list(_outer_cycle_corpus()),
                         ids=lambda g: f"n{g.n}m{g.m}")
def test_block_outer_cycle_is_hamiltonian_with_noncrossing_chords(g):
    # a block's edges are the ones g.adj holds between its vertices
    blocks, tops, _ = g.blocks_and_cutpoints()
    for vs, top in zip(blocks, tops):
        if len(vs) == 2:
            continue
        cycle = block_outer_cycle(g, vs, top)
        m = len(cycle)
        assert cycle[0] == vs[0] and sorted(cycle) == vs
        edges = {frozenset((u, v)) for u, v in combinations(vs, 2)
                 if v in g.adj[u]}
        ring = {frozenset((cycle[i], cycle[(i + 1) % m])) for i in range(m)}
        assert ring <= edges
        pos = {v: i for i, v in enumerate(cycle)}
        chords = [sorted(pos[v] for v in e) for e in edges - ring]
        for (a, z), (c, d) in combinations(chords, 2):
            assert not (a < c < z < d or c < a < d < z), (a, z, c, d)


class _CountedSet(set):
    """An adjacency set that counts the scans of it."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


@pytest.mark.parametrize("hub_last", [False, True])
def test_a_hub_adjacency_is_read_a_constant_number_of_times(hub_last):
    # 100 4-cycles at one vertex, which is 0 (every block's top and its
    # smallest degree-2 vertex) or n-1 (not the top of the root block).
    # Each block reads g.adj only through its vertices other than its
    # top (the fold: other than its key), so the hub's adjacency is read
    # once by the CSR copy, and at most twice more by the one block that
    # it is not the top of, and once by the fold: never once per block
    g = square_hub(100)
    hub = g.n - 1 if hub_last else 0
    if hub_last:
        swap = {0: hub, hub: 0}
        g = Graph(g.n, [(swap.get(u, u), swap.get(v, v)) for u, v in g.edges])
    g.adj[hub] = counted = _CountedSet(g.adj[hub])
    blocks = is_outerplanar(g)
    assert len(blocks.vertices) == 100 and counted.reads <= 3
    for root in (None, hub, 1, g.n - 2):
        counted.reads = 0
        values, pick = solve_outerplanar_values(g, 10, root=root,
                                                blocks=blocks, witness=True)
        pick(10)
        assert counted.reads <= 1, root
    for solver in (solve, solve_bouterplanar):
        # components, recognition, and (leveled) the convex drawing
        counted.reads = 0
        assert solver(g, 10, witness=True).values == values
        assert counted.reads <= 5, solver


def test_is_outerplanar_accepts_trees_and_cycles():
    assert is_outerplanar(Graph(n=4, edges=[(0, 1), (1, 2), (2, 3)]))
    assert is_outerplanar(Graph(n=5, edges=[(i, (i + 1) % 5) for i in range(5)]))


# ------------------------------------------------- cutpoints and bridges


def check_against_oracle(g, kmax=None):
    kmax = g.n if kmax is None else kmax
    expected = brute_force_all_k(g)
    got = solve_outerplanar_values(g, kmax)[0]
    assert got == expected[:kmax + 1], (got, expected[:kmax + 1])


def test_bowtie():
    g = Graph(n=5, edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    check_against_oracle(g)


def test_pseudocode_size_rule_breaks_cutpoint_attachment():
    # Bowtie cut at the root: two triangles sharing vertex 0.  The size
    # rule must keep the hanging triangle's "only the cutpoint" cell; a
    # rule that drops it (as the paper's pseudocode does) can no longer
    # assemble the other triangle and answers 2 instead of 3.
    g = Graph(n=5, edges=[(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    assert brute_force_all_k(g)[3] == 3
    assert solve_outerplanar_values(g, 3)[0][3] == 3


def test_two_triangles_joined_by_bridge():
    g = Graph(n=6, edges=[(0, 1), (1, 2), (0, 2), (2, 3),
                          (3, 4), (4, 5), (3, 5)])
    check_against_oracle(g)


def kept_records(top):
    """top and every flat record its made reaches, each once."""
    seen, todo = {}, [top]
    while todo:
        item = todo.pop()
        if id(item) not in seen:
            seen[id(item)] = item
            todo += item.made[1:]
    return list(seen.values())


def test_traceback_reads_each_sibling_hang(monkeypatch):
    # two triangles and a pendant edge hang off cutpoint 2 of the root
    # block (0, 1, 2); each is attached to the leaf at 2 on its own, so
    # at k = n the walk must step through each sibling's Hang, by its
    # recorded block terms, into that block's table
    g = Graph(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (2, 5),
                  (5, 6), (2, 6), (2, 7)])
    pairs, tops = [], []
    pair, walk = dp_outerplanar.maxplus_pair, dp_outerplanar._traceback
    monkeypatch.setattr(dp_outerplanar, "maxplus_pair", lambda a, b, *rest:
                        pairs.append((id(a), id(b))) or pair(a, b, *rest))
    monkeypatch.setattr(dp_outerplanar, "_traceback", lambda top, kp:
                        tops.append(top) or walk(top, kp))
    want = brute_force_all_k(g)
    for k in range(g.n + 1):
        pairs.clear()
        rep = solve_outerplanar(g, k, root=0, witness=True)
        chosen = set(rep.witness)
        assert rep.values == want[:k + 1]
        assert len(chosen) == k
        assert sum(u in chosen and v in chosen for u, v in g.edges) == want[k]
    top = tops[-1]
    hangs = [h for h in kept_records(top)
             if isinstance(h, Hang) and h is not top and h is not _EMPTY]
    assert sorted(h.count for h in hangs) == [2, 3, 3]
    for h in hangs:
        terms, t, unit = h.made
        assert terms in _MAX_TERMS.values() and unit is _EMPTY
        # the attachment read one of h's vectors, and h's step one of
        # its block's rows
        assert any(id(v) == b for v in h.rows for _, b in pairs)
        assert any((id(row), id(_EMPTY.d0)) in pairs for row in t.rows)


@pytest.mark.parametrize("chords", [[(0, 2), (1, 3)], [(0, 3), (1, 4)],
                                    [(1, 4), (2, 5)],
                                    [(0, 2), (2, 4), (1, 5)]])
def test_fold_block_rejects_crossing_chords(chords):
    # the recogniser never hands such a block to the fold, so the sweep's
    # own check is driven directly, chords through position 0 included
    cycle = list(range(6))
    edges = [(i, (i + 1) % 6) for i in range(6)] + chords
    with pytest.raises(NotOuterplanar, match="crossing chords"):
        fold_block(Graph(6, edges), cycle, 6)


def test_root_outside_the_vertex_range_raises():
    # a root id is checked against 0..n-1 before it indexes anything
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for root in (-1, g.n):
        with pytest.raises(ValueError, match="root vertex"):
            solve_outerplanar_values(g, 3, root=root)


def test_disconnected_input_raises():
    # the flat DP folds one connected graph; solve() splits components
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    triangle_and_vertex = Graph(4, [(0, 1), (1, 2), (0, 2)])
    for g in (two_triangles, triangle_and_vertex):
        with pytest.raises(DksError, match="disconnected"):
            solve_outerplanar_values(g, g.n)


def test_star_and_paths():
    check_against_oracle(Graph(n=5, edges=[(0, i) for i in range(1, 5)]))
    check_against_oracle(Graph(n=6, edges=[(i, i + 1) for i in range(5)]))
    check_against_oracle(Graph(n=2, edges=[(0, 1)]))
    # a lone vertex is answered by solve(), not by the fold
    assert solve_outerplanar(Graph(n=1, edges=[]), 1).values == [0, 0]


def test_small_k_on_larger_graph():
    g = parse_edge_list(FIXTURE)
    vals = solve_outerplanar_values(g, 3)[0]
    assert vals == [0, 0, 1, 3]


def test_long_path_stays_fast():
    n = 20000
    g = Graph(n=n, edges=[(i, i + 1) for i in range(n - 1)])
    vals = solve_outerplanar_values(g, 4)[0]
    assert vals == [0, 0, 1, 2, 3]


# --------------------------------------------------------- random graphs


@st.composite
def outerplanar_gadget(draw, lo=3, hi=8):
    """Cycle plus random non-crossing chords, as local vertex ids."""
    n = draw(st.integers(lo, hi))
    edges = [(i, (i + 1) % n) for i in range(n)]
    tries = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    accepted = []
    for a, b in tries:
        a, b = min(a, b), max(a, b)
        if b - a < 2 or (a == 0 and b == n - 1):
            continue
        if any(x < a < y < b or a < x < b < y for x, y in accepted):
            continue
        if (a, b) not in accepted:
            accepted.append((a, b))
    return n, edges + accepted


@st.composite
def outerplanar_graphs(draw, hub: bool = False):
    """Several gadgets glued at cutpoints, plus optional pendant edges;
    with `hub`, sometimes up to four gadgets all glued at one drawn
    cutpoint instead."""
    hub = hub and draw(st.booleans())
    count = draw(st.integers(1, 4 if hub else 3))
    edges: list[tuple[int, int]] = []
    n = 0
    share = None
    for _ in range(count):
        gn, gedges = draw(outerplanar_gadget(3, 5 if hub else 6))
        if n == 0:
            remap = list(range(gn))
        else:
            if share is None or not hub:
                share = draw(st.integers(0, n - 1))
            remap = [share] + list(range(n, n + gn - 1))
        edges += [(remap[u], remap[v]) for u, v in gedges]
        n = max(n, max(remap) + 1)
    for _ in range(draw(st.integers(0, 2))):
        v = draw(st.integers(0, n - 1))
        edges.append((v, n))
        n += 1
    return Graph(n=n, edges=edges)


@given(outerplanar_graphs(hub=True), st.data())
@settings(max_examples=80, deadline=None)
def test_matches_oracle_on_random_outerplanar(g, data):
    if g.n > 18:
        return
    root = data.draw(st.integers(0, g.n - 1))
    expected = brute_force_all_k(g)
    assert solve_outerplanar_values(g, g.n, root=root)[0] == expected
    tops = []
    walk = dp_outerplanar._traceback
    with mock.patch.object(dp_outerplanar, "_traceback", lambda top, kp:
                           tops.append(top) or walk(top, kp)):
        for k in range(g.n + 1):
            rep = solve_outerplanar(g, k, root=root, witness=True)
            chosen = set(rep.witness)
            assert rep.values == expected[:k + 1]
            assert len(chosen) == k
            assert sum(u in chosen and v in chosen for u, v in g.edges) \
                == expected[k]
    # every kept record states how to step back from it: a leaf, or
    # terms from the module's own tables and two operands
    terms = {id(t) for t in (*_MERGE_TERMS.values(), *_HANG_TERMS,
                             *_MAX_TERMS.values())}
    assert tops
    for top in tops:
        for rec in kept_records(top):
            assert rec.made == () or (len(rec.made) == 3
                                      and id(rec.made[0]) in terms), rec


def test_edge_limit_of_int32_tables_raises_under_python_O():
    # a wide combine runs on int32 cells, exact only below MAX_EDGES
    # edges: the flat solver refuses before any table is built, under -O
    # too (a stub stands in for a graph that large)
    script = """
import sys
from dks.dp_outerplanar import solve_outerplanar_values
from dks.errors import InternalError, TooManyEdges
from dks.tables import MAX_EDGES
class Huge:
    n, m = 3, MAX_EDGES
try:
    solve_outerplanar_values(Huge(), 2)
except TooManyEdges as e:
    print("TooManyEdges", isinstance(e, InternalError), sys.flags.optimize)
"""
    src = Path(dks.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout == "TooManyEdges False 1\n", out.stderr


@pytest.mark.parametrize("n, seed", [(100, 1), (180, 2), (300, 3)])
def test_wide_combines_leave_all_k_values_and_witnesses_unchanged(
        n, seed, monkeypatch):
    # combines wider than _WIDE cells a pair run on the array kernel; with
    # _WIDE out of reach the Python loop runs them all, and the values,
    # the witnesses (at k = n, as `dks solve --all-k --witness` asks, and
    # at n // 2) and every traced table, cell for cell, must come out the
    # same
    g = gen_outerplanar(GenSpec(n=n, rho=0.5, seed=seed))
    calls = []
    kernel = tables.maxplus_rows
    monkeypatch.setattr(tables, "maxplus_rows",
                        lambda *args: calls.append(1) or kernel(*args))

    def reports():
        out = []
        for kp in (g.n, g.n // 2):
            events: list = []
            r = solve(g, kp, witness=True, trace=events)
            out.append((r.values, r.witness,
                        [ev["table"].rows for ev in events]))
        return out

    wide = reports()
    ran = len(calls)
    monkeypatch.setattr(tables, "_WIDE", 1 << 62)
    assert reports() == wide
    assert ran > 0 and len(calls) == ran
