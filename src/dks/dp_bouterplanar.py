"""Exact subgraph-density tables over a peeled plane graph.

Every node of a component tree owns a table indexed by (subset of its
two boundary paths, subgraph size): the best real-edge count over
subgraphs of the node's region that touch the boundary in exactly that
subset.  Four ways to build one, picked per node:

* fold the children left to right and close the entering edge (S1),
* defer to the component drawn inside the node's face (S2),
* the two-vertex template for an outermost walk edge (S3),
* seed a small table at a pivot window, then sweep the parent windows
  in, extending by the node's endpoints (S4).

Filler and connector edges steer the geometry but never score; only
edges of the input graph are counted, each exactly once.  To keep that
promise through overlapping regions, a table also records the counted
edges whose endpoints all still sit on its boundary (``eset``) and the
full vertex set of its region (``vset``); ``merge_tables`` subtracts
the vertices and edges the two operands both claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .embedding import LeveledEmbedding, embed_and_level
from .errors import BoundaryMismatch, DksError
from .graph import Graph
from .tables import maxplus_into, vector_max
from .trees import Forest, TreeNode, build_forest

ABSENT = None


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _subsets(vs):
    vs = sorted(vs)
    for r in range(len(vs) + 1):
        for comb in combinations(vs, r):
            yield frozenset(comb)


@dataclass
class BoundaryTable:
    """Optimum edge count per (touched boundary subset, subgraph size).

    L and R list the boundary paths innermost vertex first.  rows maps
    each subset of the (deduplicated) boundary vertex set to a column
    vector over k' = 0..K; ABSENT cells mark unrealisable pairs."""

    L: tuple[int, ...]
    R: tuple[int, ...]
    vset: frozenset
    eset: frozenset
    K: int
    rows: dict

    @property
    def bset(self) -> frozenset:
        return frozenset(self.L) | frozenset(self.R)

    def best(self, kp: int):
        out = ABSENT
        for cells in self.rows.values():
            v = cells[kp] if kp < len(cells) else ABSENT
            if v is not ABSENT and (out is ABSENT or v > out):
                out = v
        return out


def _enum_table(L, R, verts, edges, k: int) -> BoundaryTable:
    """Brute-force table for a region whose vertices all lie on the
    boundary; the workhorse behind the leaf template and create."""
    core = sorted(set(verts))
    K = min(k, len(core))
    es = sorted(edges)
    rows = {A: [ABSENT] * (K + 1) for A in _subsets(core)}
    for A in rows:
        if len(A) <= K:
            rows[A][len(A)] = sum(1 for u, v in es if u in A and v in A)
    return BoundaryTable(tuple(L), tuple(R), frozenset(core),
                         frozenset(es), K, rows)


def leaf_template(le: LeveledEmbedding, v: TreeNode, k: int) -> BoundaryTable:
    """Table for an outermost walk edge (or isolated vertex)."""
    if v.x == v.y:
        return _enum_table((v.x,), (v.x,), [v.x], [], k)
    counted = v.countable and not le.is_fake(v.x, v.y)
    es = [_norm(v.x, v.y)] if counted else []
    return _enum_table((v.x,), (v.y,), [v.x, v.y], es, k)


def create(forest: Forest, v: TreeNode, p: int, k: int) -> BoundaryTable:
    """Seed table for the pivot column of a childless deeper node: the
    node's endpoints plus the boundary path at window p, with all real
    edges inside that column (the doubled copy of a repeated walk edge
    scores zero)."""
    g = forest.le.graph
    u = forest.trees[v.comp].parent_node.children
    s = len(u)
    bnd = u[p - 1].lbound if p <= s else u[s - 1].rbound
    x, y = v.x, v.y
    verts = {x, y, *bnd}
    edges = set()
    for a, b in combinations(sorted(verts), 2):
        if not g.has_edge(a, b):
            continue
        if {a, b} == {x, y} and not v.countable:
            continue
        edges.add((a, b))
    L = (x,) + tuple(bnd)
    R = (y,) + tuple(bnd)
    return _enum_table(L, R, verts, edges, k)


def extend(g: Graph, z: int, t: BoundaryTable, k: int) -> BoundaryTable:
    """Push vertex z onto both boundary paths; rows that include z pay
    one vertex and collect z's real edges into the selected boundary."""
    if z in t.vset:
        raise BoundaryMismatch(f"extension vertex {z} is already inside "
                               "the region")
    vset = t.vset | {z}
    K = min(k, len(vset))
    zn = {w for w in t.bset if g.has_edge(z, w)}
    rows = {}
    for A, cells in t.rows.items():
        base = [cells[kp] if kp <= t.K else ABSENT for kp in range(K + 1)]
        rows[A] = base
        inc = len(zn & A)
        up = [ABSENT] * (K + 1)
        for kp in range(1, K + 1):
            prev = cells[kp - 1] if kp - 1 <= t.K else ABSENT
            if prev is not ABSENT:
                up[kp] = prev + inc
        rows[A | {z}] = up
    eset = t.eset | {_norm(z, w) for w in zn}
    return BoundaryTable((z,) + t.L, (z,) + t.R, vset, eset, K, rows)


def contract(t: BoundaryTable) -> BoundaryTable:
    """Drop the shared innermost vertex from both boundaries; each cell
    keeps the better of the vertex-in / vertex-out alternatives."""
    z = t.L[0]
    L, R = t.L[1:], t.R[1:]
    newb = frozenset(L) | frozenset(R)
    if t.R[0] != z or z in newb:
        raise BoundaryMismatch(f"contract needs a closed table whose top "
                               f"{z} leaves the boundary: {t.L}/{t.R}")
    rows = {}
    for A in _subsets(newb):
        rows[A] = vector_max(t.rows[A | {z}], t.rows[A])
    eset = frozenset(e for e in t.eset if z not in e)
    return BoundaryTable(L, R, t.vset, eset, t.K, rows)


def adjust(g: Graph, t: BoundaryTable) -> BoundaryTable:
    """Score the closing edge between the two boundary tops, if real."""
    x, y = t.L[0], t.R[0]
    if x == y or not g.has_edge(x, y):
        return t
    e = _norm(x, y)
    if e in t.eset:
        raise DksError(f"closing edge {e} was already counted")
    rows = {A: ([v + 1 if v is not ABSENT else ABSENT for v in cells]
                if x in A and y in A else list(cells))
            for A, cells in t.rows.items()}
    return BoundaryTable(t.L, t.R, t.vset, t.eset | {e}, t.K, rows)


def merge_tables(t1: BoundaryTable, t2: BoundaryTable, g: Graph,
                 k: int) -> BoundaryTable:
    """Glue two tables along t1.R == t2.L.

    Vertices and counted edges claimed by both operands are subtracted
    from the raw sums, so the result again counts everything exactly
    once.  Sound only while the regions overlap nowhere off their
    shared boundaries, which the construction guarantees (checked)."""
    if list(t1.R) != list(t2.L):
        raise BoundaryMismatch(
            f"cannot merge: {t1.R} does not meet {t2.L}")
    L, R = t1.L, t2.R
    b1, b2 = t1.bset, t2.bset
    mset = frozenset(t1.R)
    outset = frozenset(L) | frozenset(R)
    vshared = t1.vset & t2.vset
    if not vshared <= (b1 & b2):
        raise DksError("regions overlap off the boundary")
    vset = t1.vset | t2.vset
    K = min(k, len(vset))
    eshared = t1.eset & t2.eset
    free = mset - outset
    rows = {A: [ABSENT] * (K + 1) for A in _subsets(outset)}
    for A in rows:
        cells = rows[A]
        for Bx in _subsets(free):
            B = (A & mset) | Bx
            k1set = (A & b1) | B
            k2set = (A & b2) | B
            sel = k1set | k2set
            over = len(k1set & vshared)
            m = sum(1 for u, v in eshared if u in sel and v in sel)
            maxplus_into(cells, t1.rows[k1set], t2.rows[k2set], -over, -m)
    eset = frozenset(e for e in (t1.eset | t2.eset)
                     if e[0] in outset and e[1] in outset)
    return BoundaryTable(L, R, vset, eset, K, rows)


def _branch(forest: Forest, v: TreeNode) -> str:
    if forest.enclosed_component(v) is not None:
        return "S2"
    if v.children:
        return "S1"
    if forest.le.components[v.comp].level == 1:
        return "S3"
    return "S4"


def _deps(forest: Forest, v: TreeNode) -> list[TreeNode]:
    br = _branch(forest, v)
    if br == "S1":
        return list(v.children)
    if br == "S2":
        return [forest.trees[forest.enclosed_component(v)].root]
    if br == "S4":
        u = forest.trees[v.comp].parent_node.children
        return [u[j - 1] for j in range(v.lbn, v.rbn)]
    return []


def _table_of(forest: Forest, v: TreeNode, k: int, memo: dict,
              trace: list | None) -> BoundaryTable:
    g = forest.le.graph
    br = _branch(forest, v)
    pivot = None
    if br == "S3":
        t = leaf_template(forest.le, v, k)
    elif br == "S1":
        t = memo[v.children[0].uid]
        for ch in v.children[1:]:
            t = merge_tables(t, memo[ch.uid], g, k)
        t = adjust(g, t)
    elif br == "S2":
        inner = forest.trees[forest.enclosed_component(v)].root
        t = adjust(g, contract(memo[inner.uid]))
    else:
        tr = forest.trees[v.comp]
        u = tr.parent_node.children
        pivot = v.pivot
        t = create(forest, v, pivot, k)
        for j in range(pivot - 1, v.lbn - 1, -1):
            t = merge_tables(extend(g, v.x, memo[u[j - 1].uid], k), t, g, k)
        for j in range(pivot, v.rbn):
            t = merge_tables(t, extend(g, v.y, memo[u[j - 1].uid], k), g, k)
    if t.L != v.lbound or t.R != v.rbound:
        raise BoundaryMismatch(f"table boundaries {t.L}/{t.R} drifted from "
                               f"{v.lbound}/{v.rbound} at node {v.uid}")
    if trace is not None:
        trace.append({"branch": br, "pivot": pivot, "table": t, "graph": g})
    return t


def evaluate_tables(forest: Forest, k: int,
                    trace: list | None = None) -> dict:
    """Tables for every tree node, keyed by node uid; one event per table
    is appended to `trace`.

    Every node except the outermost root is consumed by exactly one
    other node's computation; that conservation law is checked (DksError)
    because it is what makes each real edge score exactly once."""
    root = forest.trees[0].root
    deps: dict[int, list[TreeNode]] = {}
    consumed: dict[int, int] = {}
    todo = [root]
    seen = {root.uid}
    while todo:
        v = todo.pop()
        dv = _deps(forest, v)
        deps[v.uid] = dv
        for d in dv:
            consumed[d.uid] = consumed.get(d.uid, 0) + 1
            if d.uid not in seen:
                seen.add(d.uid)
                todo.append(d)
    every = {n.uid for n in forest.nodes}
    if set(consumed) != every - {root.uid}:
        raise DksError("unreachable tree nodes")
    if any(c != 1 for c in consumed.values()):
        raise DksError("tree node consumed twice")

    memo: dict[int, BoundaryTable] = {}
    stack = [(root, iter(deps[root.uid]))]
    while stack:
        v, it = stack[-1]
        child = next(it, None)
        if child is None:
            stack.pop()
            memo[v.uid] = _table_of(forest, v, k, memo, trace)
            continue
        if child.uid not in memo:
            stack.append((child, iter(deps[child.uid])))
    if memo.keys() != every:
        raise DksError("tree nodes left without a table")
    return memo


def solve_bouterplanar_values(g: Graph, k: int, *, root: int | None = None,
                              triangulation: str = "zigzag",
                              trace: list | None = None,
                              stats: dict | None = None) -> list[int | None]:
    """Optimum edge counts for every k' = 0..min(k, n) on a connected
    planar graph, via peeling, component trees, and the table fold.
    Appends one event per table built to `trace`."""
    cap = min(k, g.n)
    if g.n <= 1:
        return [0] * (cap + 1)
    le = embed_and_level(g, variant=triangulation)
    forest = build_forest(le, root=root)
    memo = evaluate_tables(forest, cap, trace=trace)
    rt = memo[forest.trees[0].root.uid]
    vals = [rt.best(kp) for kp in range(cap + 1)]
    if any(v is ABSENT for v in vals):
        raise DksError("root table has holes")
    if stats is not None:
        stats["levels"] = le.depth
        stats["components"] = len(le.components)
        stats["tree_nodes"] = len(forest.nodes)
        stats["max_rows"] = max(len(t.rows) for t in memo.values())
        stats["cells"] = sum(len(t.rows) * len(next(iter(t.rows.values())))
                             for t in memo.values())
        stats["fake_edges"] = len(le.fake_edges)
    return vals
