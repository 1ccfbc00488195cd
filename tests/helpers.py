"""Shared hand-drawn fixtures for the leveling and table tests, the
self-reduction oracle for witnesses, the slice-table oracle, the
eight-call reference for the flat merge and the cross-check of the two
brute-force oracles.

The main fixture is a three-level plane graph: a pentagon with one chord,
a square with one chord nested inside it, and a single vertex inside the
square.  Coordinates are kept so tests can derive the rotation system of
the intended drawing instead of trusting whatever embedding a planarity
checker picks.
"""

from __future__ import annotations

from itertools import chain, combinations

from dks import oracle
from dks.dp_outerplanar import EdgeTable, _merge_terms
from dks.errors import CapExceeded, InternalError
from dks.graph import Graph, induced_subgraph
from dks.plane import rotations_from_coordinates
from dks.solve import solve
from dks.tables import NEG, convolve_max_plus, maxplus_into

FIG_NAMES = ["A", "B", "C", "D", "E", "a", "b", "c", "d", "1"]
FIG_ID = {s: i for i, s in enumerate(FIG_NAMES)}

FIG_COORDS = [
    (0.0, 0.0),    # A
    (10.0, 0.0),   # B
    (12.0, 8.0),   # C
    (6.0, 13.0),   # D
    (0.0, 8.0),    # E
    (3.0, 2.0),    # a
    (8.0, 2.0),    # b
    (8.0, 6.0),    # c
    (3.0, 6.0),    # d
    (5.5, 4.5),    # 1
]

FIG_EDGES_BY_NAME = [
    ("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "A"), ("C", "E"),
    ("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "d"),
    ("a", "A"), ("b", "B"), ("c", "B"), ("c", "C"), ("c", "E"), ("d", "E"),
    ("1", "b"), ("1", "d"),
]


def fig_edges() -> list[tuple[int, int]]:
    return [(FIG_ID[u], FIG_ID[v]) for u, v in FIG_EDGES_BY_NAME]


def figure_graph(with_rotation: bool = True) -> Graph:
    edges = fig_edges()
    if not with_rotation:
        return Graph(10, edges, names=list(FIG_NAMES))
    rot = rotations_from_coordinates(FIG_COORDS, edges)
    outer = [FIG_ID[s] for s in ("A", "B", "C", "D", "E")]
    return Graph(10, edges, names=list(FIG_NAMES), rotation=rot,
                 outer_face=outer)


def nm(*names: str) -> frozenset[int]:
    """Vertex-id set from fixture names."""
    return frozenset(FIG_ID[s] for s in names)


def degree(g: Graph, v: int) -> int:
    return len(g.adj[v])


def induced_edge_count(g: Graph, mask: int) -> int:
    """Number of edges of g with both endpoints in the vertex bitmask."""
    return sum(1 for u, v in g.edges if mask >> u & 1 and mask >> v & 1)


def succ(plane, v: int, u: int) -> int:
    """Neighbor immediately after u in ccw order around v."""
    ns = plane.rot[v]
    return ns[(ns.index(u) + 1) % len(ns)]


def biggest_component(g: Graph) -> Graph:
    return induced_subgraph(g, max(g.connected_components(), key=len))


def wheel(rim: int) -> Graph:
    """Rim cycle 0..rim-1 plus a hub (vertex `rim`) joined to every rim vertex."""
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, rim) for i in range(rim)]
    return Graph(rim + 1, edges)


def triangle_chain(t: int) -> Graph:
    """t triangles in a row, each sharing one vertex with the next: 2t+1
    vertices, t blocks, t-1 cutpoints (t = 2 is the bowtie)."""
    return Graph(2 * t + 1, [e for i in range(t)
                             for e in ((2 * i, 2 * i + 1),
                                       (2 * i + 1, 2 * i + 2),
                                       (2 * i, 2 * i + 2))])


def triangle_hub(t: int) -> Graph:
    """t triangles sharing vertex 0: 2t+1 vertices, t blocks, one
    cutpoint in all of them."""
    return Graph(2 * t + 1, [e for i in range(1, 2 * t, 2)
                             for e in ((0, i), (i, i + 1), (0, i + 1))])


def square_hub(t: int) -> Graph:
    """t 4-cycles sharing vertex 0: 3t+1 vertices, t blocks, one
    cutpoint in all of them, and 0 is each block's smallest vertex of
    degree 2."""
    return Graph(3 * t + 1, [e for i in range(1, 3 * t, 3)
                             for e in ((0, i), (i, i + 1), (i + 1, i + 2),
                                       (i + 2, 0))])


def star(t: int) -> Graph:
    """Hub 0 with t leaves: t bridges at one cutpoint."""
    return Graph(t + 1, [(0, i) for i in range(1, t + 1)])


def shaped_outerplanar(n: int) -> list[Graph]:
    """A path, star, fan (hub 0 on the path 1..n-1) and cycle on n >= 3
    vertices, and a chain of n triangles."""
    path = [(i, i + 1) for i in range(n - 1)]
    spokes = [(0, i) for i in range(1, n)]
    return [Graph(n, path), Graph(n, spokes),
            Graph(n, spokes + path[1:]),
            Graph(n, path + [(n - 1, 0)]), triangle_chain(n)]


def hex_two_pendants() -> Graph:
    """Hexagon with two separate interior pendants hanging off it.

    Both pendants end up enclosed by the same face, so leveling has to
    stitch them into one second-level component with a connector.
    """
    coords = [(0.0, 2.0), (-2.0, 1.0), (-2.0, -1.0), (0.0, -2.0),
              (2.0, -1.0), (2.0, 1.0), (0.0, 1.0), (0.0, -1.0)]
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(0, 6), (3, 7)]
    rot = rotations_from_coordinates(coords, edges)
    return Graph(8, edges, rotation=rot, outer_face=list(range(6)))


def run_cli(capsys, *argv):
    """Invoke the command line in-process; -> (exit code, stdout, stderr)."""
    from dks.cli import main
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_tables(text: str) -> dict:
    """TSV dump -> {header: {row label: [cells]}} with ∅ -> None."""
    tables: dict = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# "):
            current = {}
            tables[line[2:]] = current
        elif line and current is not None and not line.startswith(("bx", "subset")):
            cells = line.split("\t")
            label_width = 2 if cells[0] in "01" else 1
            key = " ".join(cells[:label_width])
            current[key] = [None if c == "∅" else int(c)
                            for c in cells[label_width:]]
    return tables


def materialize_slice(forest, node, memo: dict) -> tuple[frozenset, frozenset]:
    """Vertices and countable edges of the subgraph a node's table ranges over.

    Mirrors the table dispatch structurally (it must: the table is a
    function of exactly this subgraph) but uses plain set arithmetic, so a
    brute-force pass over the result independently checks every table
    entry.  `memo` caches slices by node uid; share one dict per forest.
    """

    def norm(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a < b else (b, a)

    def go(v) -> tuple[frozenset, frozenset]:
        if v.uid in memo:
            return memo[v.uid]
        g = forest.le.graph
        lev = forest.le.components[v.comp].level
        deeper = forest.enclosed_component(v)
        verts: set[int] = {v.x, v.y}
        edges: set[tuple[int, int]] = set()
        if deeper is not None:
            dv, de = go(forest.trees[deeper].root)
            verts |= dv
            edges |= de
            if v.x != v.y and g.has_edge(v.x, v.y):
                edges.add(norm(v.x, v.y))
        elif v.children:
            for c in v.children:
                cv, ce = go(c)
                verts |= cv
                edges |= ce
            if v.x != v.y and g.has_edge(v.x, v.y):
                edges.add(norm(v.x, v.y))
        elif lev == 1:
            if v.countable:
                if not g.has_edge(v.x, v.y):
                    raise AssertionError(f"countable leaf ({v.x}, {v.y}) "
                                         f"is not an edge")
                edges.add(norm(v.x, v.y))
        else:
            tree = forest.trees[v.comp]
            u = tree.parent_node.children
            s = len(u)
            p = v.pivot
            bnd = u[p - 1].lbound if p <= s else u[s - 1].rbound
            verts |= set(bnd)
            if v.x != v.y and v.countable and g.has_edge(v.x, v.y):
                edges.add(norm(v.x, v.y))
            for a, b in combinations(sorted(set(bnd)), 2):
                if g.has_edge(a, b):
                    edges.add(norm(a, b))
            for end in (v.x, v.y):
                if end != bnd[0] and g.has_edge(end, bnd[0]):
                    edges.add(norm(end, bnd[0]))
            for j in range(v.lbn, v.rbn):
                ext = v.x if j < p else v.y
                uv, ue = go(u[j - 1])
                verts |= uv
                edges |= ue
                for w in set(u[j - 1].lbound) | set(u[j - 1].rbound):
                    if ext != w and g.has_edge(ext, w):
                        edges.add(norm(ext, w))
        out = (frozenset(verts), frozenset(edges))
        memo[v.uid] = out
        return out

    return go(node)


def subsets(vs) -> list[frozenset]:
    vs = sorted(vs)
    return [frozenset(c) for c in chain.from_iterable(
        combinations(vs, r) for r in range(len(vs) + 1))]


def as_none(cells) -> list:
    """A vector of a table, with each absent cell (exactly tables.NEG)
    as None, as the hand-computed and brute-force tables mark it.  Any
    other cell stays, a negative one too, so it shows as a mismatch."""
    return [None if c == NEG else c for c in cells]


def merge_reference(t1, t2, k: int) -> dict:
    """merge_tables by its definition, pair by pair over the `rows` views:
    each result subset A is the best, over the middle subsets Bx, of the
    operand rows of S = A | Bx combined by maxplus_into, with the
    vertices both tables claim in S as a negative size shift and the
    counted edges both claim inside S as a negative add."""
    outer = frozenset(t1.L) | frozenset(t2.R)
    middle = frozenset(t1.R) - outer
    shared_v, shared_e = t1.vset & t2.vset, t1.eset & t2.eset
    K = min(k, len(t1.vset | t2.vset))
    rows1, rows2 = t1.rows, t2.rows
    out = {}
    for a in subsets(outer):
        row = out[a] = [NEG] * (K + 1)
        for bx in subsets(middle):
            s = a | bx
            maxplus_into(row, rows1[s & t1.bset], rows2[s & t2.bset],
                         -len(s & shared_v),
                         -sum(1 for u, v in shared_e if u in s and v in s))
    return out


def flat_merge_reference(t1, t2, g: Graph, k: int):
    """dp_outerplanar.merge_tables as one maxplus_into call per term of
    _merge_terms: the plain eight-call combine that its push of a bare
    leaf and its one-loop combine must both agree with."""
    x, z = t1.x, t2.y
    closing = x == z
    vcount = t1.vcount + t2.vcount - 1 - (1 if closing else 0)
    cap = min(k, vcount)
    rows = [[NEG] * (cap + 1) for _ in range(4)]
    chord_real = (not closing) and g.has_edge(x, z)
    for r, r1, r2, shift, add in _merge_terms(
            closing, chord_real, t1.counts_label_edge, t2.counts_label_edge):
        maxplus_into(rows[r], t1.rows[r1], t2.rows[r2], shift, add)
    return EdgeTable(x, z, vcount, rows, chord_real)


def self_reduction_witness(g: Graph, k: int, **opts) -> list[int]:
    """A k-set achieving the optimum by greedy self-reduction: the oracle
    that solve()'s traceback witness is tested against.

    While more than k vertices remain, some vertex lies outside at least
    one optimal set, so deleting it leaves the optimum intact.  One pass
    with a cursor finds them: a vertex whose deletion lowered the optimum
    lies in every optimal set of the graph it was tried on, and every
    later graph is a subgraph with the same optimum, whose optimal sets
    are optimal sets of that graph too; so it never needs a second try,
    and at most n tries are made.  Rescanning from the first vertex after
    each deletion returns the same set, with up to O(n^2) tries.

    A try solves (with `opts` passed to solve()) only the components its
    deletion made: each component's value vector is kept, keyed by its
    vertices, and the vectors are joined by max-plus convolution.
    """
    memo: dict[tuple[int, ...], list[int]] = {}

    def optimum(keep: list[int]) -> int:
        if not keep:
            return 0
        h = induced_subgraph(g, keep)
        acc = [0]
        for comp in h.connected_components():
            key = tuple(keep[v] for v in comp)
            vec = memo.get(key)
            if vec is None:
                sub = h if len(comp) == h.n else induced_subgraph(h, comp)
                vec = memo[key] = solve(sub, min(k, sub.n), **opts).values
            acc = convolve_max_plus(acc, vec,
                                    min(k, len(acc) + len(vec) - 2))
        return acc[k]

    keep = list(range(g.n))
    target = optimum(keep)
    i = 0
    while len(keep) > k:
        if i == len(keep):
            raise AssertionError("no vertex is removable")
        rest = keep[:i] + keep[i + 1:]
        if optimum(rest) == target:
            keep = rest
        else:
            i += 1
    return keep


def node_tables(forest, k: int, keep: bool = False) -> dict:
    """Every tree node's table, keyed by node uid, read off the trace of
    one evaluate_tables walk, which itself keeps only the root's."""
    from dks.dp_bouterplanar import evaluate_tables

    trace: list = []
    evaluate_tables(forest, k, trace=trace, keep=keep)
    return {ev["node"]: ev["table"] for ev in trace}


def brute_force_slice_table(
    g: Graph,
    vertices: list[int],
    countable_edges: set[tuple[int, int]],
    boundary: list[int],
    kmax: int,
) -> dict[tuple[frozenset, int], int | None]:
    """Exact-trace optimum table over an explicit vertex slice.

    For every subset A of `boundary` and every k' = 0..kmax, the best
    countable-edge count over subsets S ⊆ vertices with |S| = k' and
    S ∩ boundary = A exactly; None marks empty cells.  Used to validate
    the slice DP's table algebra on small instances.
    """
    if len(vertices) > oracle.ORACLE_VERTEX_CAP:
        raise CapExceeded(f"slice of {len(vertices)} exceeds oracle cap")
    bset = set(boundary)
    table: dict[tuple[frozenset, int], int | None] = {}
    for r in range(len(bset) + 1):
        for asub in combinations(sorted(bset), r):
            for kp in range(kmax + 1):
                table[(frozenset(asub), kp)] = None
    norm = {(min(u, v), max(u, v)) for u, v in countable_edges}
    for r in range(len(vertices) + 1):
        if r > kmax:
            break
        for sub in combinations(sorted(vertices), r):
            sset = set(sub)
            a = frozenset(sset & bset)
            val = sum(1 for (u, v) in norm if u in sset and v in sset)
            cur = table[(a, r)]
            if cur is None or val > cur:
                table[(a, r)] = val
    return table


def oracle_self_check(g: Graph) -> None:
    """The two oracles must agree; raises InternalError on mismatch (not
    an assert, so the check holds under python -O).  Both are called
    through dks.oracle, so a test can corrupt one there."""
    allk = oracle.brute_force_all_k(g)
    for k in range(g.n + 1):
        v, _ = oracle.brute_force_densest_k(g, k)
        if v != allk[k]:
            raise InternalError(f"oracle disagreement at k={k}: {v} vs "
                                f"{allk[k]}")
