"""Acceptance checklist: twelve end-to-end checks, one per shipping requirement.

Run this module with ``pytest tests/test_acceptance.py -v`` to read the
checklist; every test pins its corpus size and, where one is stated, a
wall-clock budget, so a green line certifies the requirement as written
rather than a smoke test.

A note on the seven-vertex worked example: early hand computations of
its tables mis-added two cells, both at k' = 4 (the closing merge's
(0,1) row and the final table's (1,1) row).  Exhaustive enumeration
proves the corrected values -- see the slice-oracle crosscheck in
test_dp_outerplanar -- so the goldens asserted here carry 4 and 5 in
those cells, and the final vector reads 5, not 4, at k = 4.
"""

import statistics
import time
import tracemalloc
from functools import lru_cache
from itertools import combinations

import numpy as np

from dks.embedding import embed_and_level
from dks.generators import GenSpec, gen_bouterplanar, gen_outerplanar, gen_planar
from dks.graph import Graph, parse_edge_list
from dks.oracle import brute_force_all_k
from dks.ptas_probe import probe
from dks.solve import solve, solve_bouterplanar, solve_outerplanar
from dks.trees import build_forest
from helpers import (brute_force_slice_table, induced_edge_count,
                     materialize_slice, node_tables, parse_tables, run_cli,
                     triangle_chain)
from test_dp_outerplanar import EXPECTED_MERGES, EXPECTED_VALUES, FIXTURE, LEAF


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


@lru_cache(maxsize=1)
def _outerplanar_corpus() -> tuple:
    """200 seeded instances, n in 4..12, density knob swept over [0, 1]."""
    return tuple(
        gen_outerplanar(GenSpec(n=4 + s % 9, rho=(s % 5) / 4, seed=s))
        for s in range(200))


def test_worked_example_tables_reproduced_bit_for_bit(tmp_path, capsys):
    """The table dump of the seven-vertex example: 7 leaf tables, 6 merge
    tables, every defined cell and every ∅ in its place, in under a second."""
    path = tmp_path / "fig.edges"
    path.write_text(FIXTURE)
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "dump-tables", "--graph", str(path),
                           "--k", "7")
    elapsed = time.perf_counter() - t0
    assert code == 0

    tables = parse_tables(out)
    leaf_keys = [("c", "b"), ("b", "a"), ("a", "e"), ("e", "f"),
                 ("f", "g"), ("g", "d"), ("d", "c")]
    want = ({f"leaf ({x},{y})" for x, y in leaf_keys}
            | {f"merge ({x},{y})" for x, y in EXPECTED_MERGES})
    assert set(tables) == want
    assert sum(line.startswith("# ") for line in out.splitlines()) == 13

    def grid(t):  # row order (0,0), (0,1), (1,0), (1,1), as frozen
        return [t[f"{bx} {by}"] for bx in (0, 1) for by in (0, 1)]

    for x, y in leaf_keys:
        assert grid(tables[f"leaf ({x},{y})"]) == LEAF, (x, y)
    # EXPECTED_MERGES carries the enumeration-proven k'=4 cells (see the
    # module docstring); bit-for-bit includes both of them.
    for (x, y), rows in EXPECTED_MERGES.items():
        assert grid(tables[f"merge ({x},{y})"]) == rows, (x, y)
    assert elapsed < 1.0


def test_worked_example_value_vector_proven_by_enumeration(capsys):
    """End-to-end answers 0..7 equal the brute-force vector; the k=4
    optimum is 5 (four outer-ring vertices around two chords), which the
    returned witness exhibits."""
    g = parse_edge_list(FIXTURE)
    t0 = time.perf_counter()
    report = solve(g, 7)
    elapsed = time.perf_counter() - t0
    assert report.values == EXPECTED_VALUES == brute_force_all_k(g)

    at4 = solve(g, 4, witness=True)
    assert at4.values[4] == 5
    mask = sum(1 << v for v in at4.witness)
    assert induced_edge_count(g, mask) == 5
    assert elapsed < 1.0


def test_flat_solver_agrees_with_oracle_across_corpus():
    """200 outerplanar instances, n in 4..12, full value vectors, < 60 s."""
    t0 = time.perf_counter()
    corpus = _outerplanar_corpus()
    assert len(corpus) >= 200
    for g in corpus:
        assert solve_outerplanar(g, g.n).values == brute_force_all_k(g), g
    assert time.perf_counter() - t0 < 60.0


def test_leveled_solver_agrees_with_oracle_across_corpus():
    """120 instances at depths 2 and 3, n up to 14, full vectors, < 10 min.

    Depth 3 needs n >= 7 (two enclosing triangles around a hub), so its
    sizes run 7..14 while depth 2 runs 6..14.
    """
    t0 = time.perf_counter()
    count = 0
    for b in (2, 3):
        lo = 6 if b == 2 else 7
        for i in range(60):
            spec = GenSpec(n=lo + i % (15 - lo), b=b, rho=(i % 5) / 4,
                           seed=1000 + 100 * b + i)
            g = gen_bouterplanar(spec)
            assert solve_bouterplanar(g, g.n).values == brute_force_all_k(g), spec
            count += 1
    assert count >= 100
    assert time.perf_counter() - t0 < 600.0


def test_every_intermediate_table_agrees_with_slice_enumeration():
    """20 leveled instances: for every tree node, the DP table equals the
    brute-force table of its independently materialized slice -- same
    values, same ABSENT pattern, over the full subset x budget grid."""
    cells = absent = 0
    for i in range(20):
        b = 2 + i % 2
        n = (7 if b == 3 else 6) + i % 6
        g = gen_bouterplanar(GenSpec(n=n, b=b, rho=(i % 4) / 3, seed=40 + i))
        forest = build_forest(embed_and_level(g))
        memo = node_tables(forest, g.n)
        slices: dict = {}
        for node in forest.nodes:
            t = memo[node.uid]
            verts, edges = materialize_slice(forest, node, slices)
            assert set(t.vset) == verts, (i, node)
            reference = brute_force_slice_table(
                g, sorted(verts), set(edges), sorted(t.bset), t.K)
            full_grid = {frozenset(c) for r in range(len(t.bset) + 1)
                         for c in combinations(sorted(t.bset), r)}
            assert set(t.rows) == full_grid, (i, node)
            for (a, kp), wanted in reference.items():
                got = t.rows[a][kp]
                assert got == wanted, (i, node, sorted(a), kp, got, wanted)
                cells += 1
                absent += wanted is None
    assert cells > 10_000 and absent > 1_000   # the grid was real, both ways


def test_leveled_solver_collapses_to_flat_answers_on_outerplanar_corpus():
    """Forcing the leveled program onto every criterion-3 instance (one
    level, window machinery degenerate) reproduces the flat vectors."""
    for g in _outerplanar_corpus():
        flat = solve_outerplanar(g, g.n).values
        assert solve_bouterplanar(g, g.n).values == flat, g


def test_flat_solver_wall_time_grows_near_linearly():
    """Fixed k=10, n over three decades: log-log slope <= 1.25.

    Constant factors are machine noise; only the growth exponent is
    checked, with best-of-reps per size to damp scheduler jitter.
    """
    t0 = time.perf_counter()
    sizes = (1_000, 10_000, 100_000)
    times = []
    for n in sizes:
        g = gen_outerplanar(GenSpec(n=n, rho=0.5, seed=1))
        reps = 3 if n < 100_000 else 2
        times.append(min(_timed(lambda: solve_outerplanar(g, 10))
                         for _ in range(reps)))
    slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    assert slope <= 1.25, (slope, times)
    assert time.perf_counter() - t0 < 600.0


def test_flat_solve_memory_is_linear_with_a_small_constant():
    """n = 20,000, k = 10: the tracemalloc peak of one flat solve stays
    under 400 bytes per vertex.  Recognition reads a CSR adjacency and
    the fold indexes its bookkeeping by vertex; per-vertex Python
    containers (one set or list each) would cost about 700."""
    g = gen_outerplanar(GenSpec(n=20_000, rho=0.5, seed=1))
    tracemalloc.start()
    try:
        solve_outerplanar(g, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / g.n < 400, peak / g.n


def test_all_k_witness_of_many_components_keeps_int32_prefixes():
    """A 2,000-vertex matching, all k, with a witness: the tracemalloc
    peak stays under 10 MiB.  The witness walk keeps the running vector
    of every join; kept as int32 arrays once the joins are wide, the
    1,000 prefixes take about 4 MiB, and as lists of Python ints about
    25."""
    g = Graph(2_000, [(2 * i, 2 * i + 1) for i in range(1_000)])
    solve(Graph(40, [(2 * i, 2 * i + 1) for i in range(20)]), 40)
    tracemalloc.start()
    try:
        rep = solve(g, g.n, witness=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.values[-1] == 1_000 and len(rep.witness) == g.n
    assert peak < 10 * 2**20, peak / 2**20


def test_flat_solver_time_on_many_blocks_grows_near_linearly():
    """Chains of 2,000 and 20,000 triangles (one block each): log-log
    slope <= 1.25 of the best of 5 runs at each size, so per-block work
    done at Python speed does not grow with the whole graph.  The clock-free
    half: each triangle costs exactly 2 merges and 5 tables (3 leaves and
    2 merges), give or take 0, so 10x the triangles is exactly 10x both
    counts."""
    sizes = (2_000, 20_000)
    times, counts = [], []
    for t in sizes:
        g = triangle_chain(t)
        reps: list = []
        times.append(min(_timed(lambda: reps.append(solve_outerplanar(g, 10)))
                         for _ in range(5)))
        counts.append((reps[-1].stats["merges"], reps[-1].stats["tables"]))
        del reps
    assert counts == [(2 * t, 5 * t) for t in sizes], counts
    assert counts[1] == (10 * counts[0][0], 10 * counts[0][1])
    slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    assert slope <= 1.25, (slope, times)


def test_leveled_solver_depth_overhead_within_budget():
    """n=200, k=10: median runtime ratio depth-3 / depth-2 stays under 24
    (3x slack on the 8x table-width prediction per extra level)."""
    t0 = time.perf_counter()
    medians = {}
    for b in (2, 3):
        runs = []
        for seed in range(5):
            g = gen_bouterplanar(GenSpec(n=200, b=b, rho=0.6, seed=seed))
            runs.append(_timed(lambda: solve_bouterplanar(g, 10)))
        medians[b] = statistics.median(runs)
    assert medians[3] / medians[2] <= 24.0, medians
    assert time.perf_counter() - t0 < 600.0


def test_tree_and_boundary_invariants_hold_corpus_wide():
    """30 instances at depths 1..3: label chaining, window-number seams
    and monotonicity, boundary-vector lengths and seams, slice-of-root
    coverage, answer invariance under 5 root choices and under both
    triangulation variants."""
    corpus = []
    seed = 0
    while len(corpus) < 30:
        b = 1 + len(corpus) % 3
        g = gen_bouterplanar(GenSpec(n=8 + len(corpus) % 9, b=b,
                                     rho=(seed % 4) / 3, seed=seed))
        seed += 1
        assert seed < 500, "corpus filter stopped converging"
        le = embed_and_level(g)
        outer = [v for v in range(g.n) if le.level[v] == 1]
        if len(outer) >= 5:                    # invariance needs 5 roots
            corpus.append((g, le, outer))

    for g, le, outer in corpus:
        forest = build_forest(le)
        for tree in forest.trees:
            level = le.components[tree.comp].level
            for node in tree.nodes:
                if node.children:
                    ch = node.children
                    assert (node.x, node.y) == (ch[0].x, ch[-1].y), node
                    assert all(ch[j].y == ch[j + 1].x
                               for j in range(len(ch) - 1)), node
            if tree.parent_node is None:
                continue
            for node in tree.nodes:            # window + boundary shape
                assert node.lbn <= node.rbn, node
                assert len(node.lbound) == len(node.rbound) == level, node
                if node.children:
                    assert node.lbn == node.children[0].lbn, node
                    assert node.rbn == node.children[-1].rbn, node
            leaves = tree.leaves               # [] for singleton components
            if leaves:
                assert leaves[0].lbn == 1
                for a, b_ in zip(leaves, leaves[1:]):
                    assert a.rbn == b_.lbn, (a, b_)
                    assert a.lbn <= b_.lbn, (a, b_)
                    assert a.rbound == b_.lbound, (a, b_)

        verts, edges = materialize_slice(forest, forest.trees[0].root, {})
        assert verts == set(range(g.n))
        assert edges == {tuple(sorted(e)) for e in g.edges}

        base = solve(g, g.n, triangulation="zigzag").values
        assert solve(g, g.n, triangulation="zigzag_alt").values == base, g
        for r in outer[:5]:
            assert solve(g, g.n, root=r).values == base, (g, r)


def test_probe_runs_end_to_end_and_exhibits_star_failure():
    """50 planar instances, n <= 16: every reported ratio lands in [0, 1]
    and the reference optimum matches brute force.  A star (every edge
    inter-level) then shows the keep-variant losing more than half the
    optimum -- here all of it.  Nothing is claimed about the
    delete-variant's worst case."""
    ratios = []
    for seed in range(50):
        g = gen_planar(GenSpec(n=8 + seed % 9, rho=0.75, seed=seed))
        k = min(5, g.n)
        entry = probe(g, k, epsilon=0.5 if seed % 2 else 0.34,
                      classic=(seed % 3 == 0))
        assert 0.0 <= entry.ratio <= 1.0, (seed, entry)
        assert entry.opt == brute_force_all_k(g)[k], seed
        ratios.append(entry.ratio)
    assert len(ratios) == 50

    star = Graph(9, [(0, leaf) for leaf in range(1, 9)])
    entry = probe(star, 4, epsilon=0.5)        # keep variant, two classes
    assert entry.opt == 3                      # hub plus three leaves
    assert entry.s == 0                        # either class alone is edgeless
    assert entry.ratio == 0.0 < 0.5
