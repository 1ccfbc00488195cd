"""Exact subgraph-density tables over a peeled plane graph.

Every node of a component tree owns a table indexed by (subset of its
two boundary paths, subgraph size): the best real-edge count over
subgraphs of the node's region that touch the boundary in exactly that
subset.  Four ways to build one, picked per node:

* fold the children and close the entering edge (S1),
* defer to the component drawn inside the node's face (S2),
* ``create`` it from the node's endpoints, for an outermost walk edge (S3),
* ``create`` it from the endpoints and the boundary path at a pivot
  window, then fold the parent windows in, each extended by the node's
  endpoint on its side (S4).

A table whose region has no interior vertex (I = 0 below) holds in
each row just the number of its counted edges inside the row's subset.
Every step knows that before any cell exists, from its vertex sets: a
seed, and any extend, adjust or merge whose result has no interior,
builds no cells and reads none of its operands'.  The table's cells are
enumerated from its ``verts`` and ``eset`` when something first reads
them: a step with interior, the root, a dump or a witness walk.

A fold starts at a pivot, S4's seed or else the hungriest operand, and
merges the others outward from it as each is built: one running table
per node, however many operands (three live on a 2,000-vertex cycle).

Filler and connector edges steer the geometry but never score; only
edges of the input graph are counted, each exactly once.  To keep that
promise through overlapping regions, a table also records the counted
edges whose endpoints all still sit on its boundary (``eset``) and the
full vertex set of its region (``vset``); ``merge_tables`` charges
the edges the two operands both claim to the second operand's rows,
once per merge, and counts the vertices they share once by where it
puts each pair's cells (below).

A table stores each row by interior count: a row selects its subset of
the boundary, so it can only reach the sizes from that subset's size up
by the region's interior vertices (I = |vset| - |bset|).  Column d of
row r holds size popcount(r) + d, and a table has min(I, K) + 1
columns: a seed, whose vertices all lie on its boundary, has one.
``extend`` keeps the columns, ``contract`` adds one, and a merge's pair
of rows lands |Bx| columns right of its operands' columns summed, Bx
being the middle vertices it selects.  K bounds only that width: every
stored cell is a real, exact value, and a cell past size K (a row of
many boundary vertices) is the optimum of a larger subgraph, which no
cell at size K or below reads and the size view hides (``_sized``).

A table's row bits follow its own vertex order (``verts``), which the
step that built it chose: a merge transposes each operand once into
runs of vertices and broadcasts the two against each other, so no
operand row is copied per pair and nothing outlives the merge.  Only
the ``rows`` view reorders, by the sorted boundary.

When a witness is asked for, every table with interior keeps the
operands it was built from, and ``_traceback`` walks a root cell back
down them to the tables with none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .dp_outerplanar import Blocks
from .embedding import embed_and_level
from .errors import BoundaryMismatch, InternalError, TooManyEdges
from .graph import Graph
from .tables import MAX_EDGES, NEG, maxplus_pair, maxplus_rows
from .trees import Forest, TreeNode, build_forest, window_path

# Pairs per merge block, at least: big enough to amortise numpy's
# per-call cost, small enough that a block's buffers stay small beside
# the leveled benchmark's tables.  A block pairs whole rows of t1's own
# outer bits with all of t2, so it holds at least t2's rows, and it may
# grow to t1's: the buffers stay within a few times the operands, and
# the b = 7 rung of gen_bouterplanar(n=200), whose largest merges have
# 16,384 rows a side, took 0.85 s with blocks that size against 1.2 s
# with blocks of one row of t1.
_BLOCK = 512

# Vertices an enumeration doubles a plain list for, before it doubles an
# array: up to 6 the list's comprehension costs less than the array's
# three numpy calls a vertex, and past that it grows twice as fast (a
# 14-vertex table of the b = 7 rung took 1.8 ms on lists alone and
# 0.09 ms this way).
_LIST_BITS = 6


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(eq=False)   # by identity: == on two cells arrays has no truth
class BoundaryTable:
    """Optimum edge count per (touched boundary subset, subgraph size).

    L and R list the boundary paths innermost vertex first; bset, their
    union, is set once at construction.  verts lists bset in the order
    of the row bits, chosen by the step that built the table: ascending
    for a seed, the new vertex on top for extend, the runs of
    merge_tables for a merge.  cells is an int32 array of shape
    (2^|boundary|, min(I, K) + 1), for the I = |vset| - |bset| vertices
    inside the region: row i holds the subset whose bit j is set when
    verts[j] is in it; column d holds subgraph size popcount(i) + d.
    Every cell is real and exact, a cell past size K too; rows hides
    those, and NEG marks only the sizes off a row's band.  int32 holds
    every cell exactly while the graph has fewer than 2^28 edges, which
    solve_bouterplanar_values checks (tables.NEG gives the argument).
    A table with no interior vertex (|vset| = |verts|) is built with
    _cells None, and cells enumerates its one column from verts and eset
    on the first read; any other is built with its cells.  made is ()
    for a table with no interior vertex, whose rows are the selections,
    and, when kept for a traceback, (step, operands...) for the extend,
    contract, adjust or merge_tables call that built any other (a
    merge's also holds its shared-edge discount).  A
    table lives only as long as something points to it:
    evaluate_tables drops each one once it is consumed."""

    L: tuple[int, ...]
    R: tuple[int, ...]
    vset: frozenset
    eset: frozenset
    K: int
    verts: tuple[int, ...]
    _cells: object = field(default=None, repr=False)
    made: tuple = ()
    bset: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.bset = frozenset(self.verts)

    @property
    def cells(self):
        """The int32 cells array, enumerated from verts and eset on the
        first read when the step that built the table left it None."""
        if self._cells is None:
            self._cells = _edge_counts(self.verts, self.eset).reshape(-1, 1)
        return self._cells

    @property
    def rows(self) -> dict:
        """Read-only view: boundary subset -> cells by size 0..K, NEG
        for a size off the subset's band, the subsets in the order of
        their bitmasks over the sorted boundary."""
        verts = sorted(self.verts)
        return {frozenset(v for j, v in enumerate(verts) if i >> j & 1): row
                for i, row in enumerate(
                    _sized(self)[_sorted_rows(self)].tolist())}


def _sorted_rows(t: BoundaryTable) -> list[int]:
    """t's row of each boundary subset, the subsets in the order of their
    bitmasks over the sorted boundary."""
    at = {v: 1 << j for j, v in enumerate(t.verts)}
    out = [0]
    for v in sorted(t.verts):
        out += [r + at[v] for r in out]
    return out


def _sized(t: BoundaryTable):
    """t's cells by size: a (rows, K + 1) array, NEG off each row's band."""
    import numpy as np

    n, w = t.cells.shape
    span = max(t.K + 1, len(t.verts) + w)
    out = np.full((n, span), NEG, dtype=np.int32)
    first = np.arange(n) * span + np.bitwise_count(np.arange(n))
    out.reshape(-1)[first[:, None] + np.arange(w)] = t.cells
    return out[:, :t.K + 1]


def _cell(t: BoundaryTable, r: int, kp: int) -> int:
    """t's cell of row r at size kp, NEG off the row's band."""
    d = kp - r.bit_count()
    return int(t.cells[r, d]) if 0 <= d < t.cells.shape[1] else NEG


def _edge_counts(verts, edges):
    """int32 array: the number of edges inside each subset of verts, by
    its bitmask over verts.  The subsets with vertex j on top are those
    below it, each plus j's edges into it: the first _LIST_BITS vertices
    double a list, the rest an array."""
    import numpy as np  # deferred: `import dks` stays numpy-free

    at = {v: j for j, v in enumerate(verts)}
    lower = [0] * len(verts)    # each vertex's neighbours below it, a mask
    for u, v in edges:
        i, j = at[u], at[v]
        if i < j:
            lower[j] |= 1 << i
        else:
            lower[i] |= 1 << j
    count = [0]
    for m in lower[:_LIST_BITS]:
        count += [c + (i & m).bit_count()
                  for i, c in enumerate(count)] if m else count
    count = np.array(count, dtype=np.int32)
    for m in lower[_LIST_BITS:]:
        count = np.concatenate(
            (count, count + np.bitwise_count(np.arange(len(count)) & m)))
    return count


def create(g: Graph, v: TreeNode, bnd: tuple[int, ...],
           k: int) -> BoundaryTable:
    """Seed table of a childless node: its endpoints plus the boundary
    path bnd, with all real edges among them (the doubled copy of a
    repeated walk edge scores zero).  bnd is () for an outermost walk
    edge or isolated vertex (S3) and the path at the pivot window for a
    deeper node (S4).  The vertices go in ascending order; the region
    has no interior, so its cells are enumerated when first read."""
    x, y = v.x, v.y
    verts = tuple(sorted({x, y, *bnd}))
    edges = frozenset((a, b) for a, b in combinations(verts, 2)
                      if g.has_edge(a, b)
                      and (v.countable or {a, b} != {x, y}))
    return BoundaryTable((x,) + bnd, (y,) + bnd, frozenset(verts), edges,
                         min(k, len(verts)), verts)


def extend(g: Graph, z: int, t: BoundaryTable, k: int) -> BoundaryTable:
    """Push vertex z onto both boundary paths, as the top bit of the rows:
    a z-in row pays one vertex and collects z's real edges into the
    selected boundary.  The interior is unchanged, and so is each cell's
    column; every cell stays real, so a z-in row is its z-out row plus
    z's edges into it.  With no interior, neither table's cells are
    built: the result's are enumerated when first read."""
    if z in t.vset:
        raise BoundaryMismatch(f"extension vertex {z} is already inside "
                               "the region")
    vset = t.vset | {z}
    verts = t.verts
    zn = [j for j, w in enumerate(verts) if g.has_edge(z, w)]
    eset = t.eset | {_norm(z, verts[j]) for j in zn}
    cells = None
    if len(t.vset) > len(verts):
        import numpy as np

        old = t.cells
        inc = np.bitwise_count(np.arange(len(old)) & sum(1 << j for j in zn))
        cells = np.concatenate((old, old + inc[:, None]))
    return BoundaryTable((z,) + t.L, (z,) + t.R, vset, eset,
                         min(k, len(vset)), verts + (z,), cells)


def contract(t: BoundaryTable) -> BoundaryTable:
    """Drop the shared innermost vertex from both boundaries; each cell
    keeps the better of the vertex-in / vertex-out alternatives.  z joins
    the interior, so the band gains a column (up to K + 1), and a z-in
    row, one boundary vertex more for the same size, lands one column
    to the right."""
    import numpy as np

    z = t.L[0]
    L, R = t.L[1:], t.R[1:]
    newb = frozenset(L) | frozenset(R)
    if t.R[0] != z or z in newb:
        raise BoundaryMismatch(f"contract needs a closed table whose top "
                               f"{z} leaves the boundary: {t.L}/{t.R}")
    lo = 1 << t.verts.index(z)
    w = t.cells.shape[1]
    width = min(len(t.vset) - len(newb), t.K) + 1
    pair = t.cells.reshape(-1, 2, lo, w)
    cells = np.full((len(pair), lo, width), NEG, dtype=np.int32)
    cells[..., :w] = pair[:, 0]
    np.maximum(cells[..., 1:], pair[:, 1, :, :width - 1], out=cells[..., 1:])
    eset = frozenset(e for e in t.eset if z not in e)
    return BoundaryTable(L, R, t.vset, eset, t.K,
                         tuple(v for v in t.verts if v != z),
                         cells.reshape(-1, width))


def adjust(g: Graph, t: BoundaryTable) -> BoundaryTable:
    """Score the closing edge between the two boundary tops, if real:
    every cell is real, so each row selecting both gains exactly 1.
    With no interior, neither table's cells are built: the result's are
    enumerated, the edge among them, when first read."""
    x, y = t.L[0], t.R[0]
    if x == y or not g.has_edge(x, y):
        return t
    e = _norm(x, y)
    if e in t.eset:
        raise InternalError(f"closing edge {e} was already counted")
    verts = t.verts
    cells = None
    if len(t.vset) > len(verts):
        import numpy as np

        both = (1 << verts.index(x)) | (1 << verts.index(y))
        sel = (np.arange(len(t.cells)) & both) == both
        cells = t.cells.copy()
        cells[sel] += 1
    return BoundaryTable(t.L, t.R, t.vset, t.eset | {e}, t.K, verts, cells)


def _runs(cells, verts: tuple[int, ...], runs) -> object:
    """cells, a row per subset of verts, as a size-major array with an
    axis per run of vertices after the size axis: bit j of the axis's
    index selects the run's j-th vertex, and a run of no vertices gives
    an axis of length 1.  A contiguous copy, or cells' own memory when
    that is already in this order."""
    n = len(verts)
    order = [n]         # the size axis, then each run's bits, highest first
    for run in runs:
        for v in reversed(run):
            order.append(n - 1 - verts.index(v))
    return cells.reshape((2,) * n + (-1,)).transpose(order).reshape(
        (-1, *[1 << len(run) for run in runs]))


def merge_tables(t1: BoundaryTable, t2: BoundaryTable, k: int,
                 keep: bool = False) -> BoundaryTable:
    """Glue two tables along t1.R == t2.L.

    A result row A (a subset of the outer boundary L + R) is the best,
    over the subsets Bx of the middle vertices off that boundary, of
    the operand rows S = A | Bx cut down to each operand's boundary.
    Every vertex and counted edge both operands claim lies on both
    boundaries, so the shared edges are charged to t2's rows once, by
    one vector over those vertices, and a plain max-plus of the operand
    rows then counts every edge once.
    Sound only while the regions overlap nowhere off their shared
    boundaries, which the construction guarantees (checked).  The
    vertices too count once: the operand rows' subsets together are S,
    whose size is |A| + |Bx|, so a pair's cells land |Bx| columns right
    of the sum of their own columns.  Every pair in the result's band
    is realisable, so the result holds no NEG either, and a cell at
    size K or below reads no operand cell past that operand's K: an
    operand's part of a subgraph is no larger than the subgraph.

    Each operand is transposed once (_runs) into a size axis and an
    axis per run of its boundary: the outer vertices only it has, a
    length-1 axis for the other operand's own ones, and the middle
    vertices below the outer ones both have (those two runs in t1's
    order).  The two broadcast against each other in maxplus_rows, a
    column per pair (A, Bx), so no operand row is copied per pair, and
    the kernel lifts each pair by |Bx| as it keeps the best pair per
    result row.  A block pairs n rows of t1's own outer vertices with
    every row of t2: _BLOCK pairs, or as many as t1 has rows, and never
    fewer than t2's rows.  The result's rows come out indexed by (t1's
    own, t2's own, shared) outer bits, so its verts list the shared
    vertices, then t2's own, then t1's own.  With `keep`, made is
    ("merge", t1, t2, both, less): the vertices both boundaries hold, in
    the discount's bit order, and the discount (None with no shared
    edge).

    A result with no interior has no middle vertex either, so each of
    its rows is one pair of operand rows: it reads neither operand's
    cells, and its own are enumerated when first read (made stays ())."""
    if t1.R != t2.L:
        raise BoundaryMismatch(
            f"cannot merge: {t1.R} does not meet {t2.L}")
    L, R = t1.L, t2.R
    outset = frozenset(L) | frozenset(R)
    if not t1.vset & t2.vset <= (t1.bset & t2.bset):
        raise InternalError("regions overlap off the boundary")
    vset = t1.vset | t2.vset
    K = min(k, len(vset))
    own1, shared, middle = [], [], []
    for v in t1.verts:
        (middle if v not in outset else shared if v in t2.bset
         else own1).append(v)
    own2 = [v for v in t2.verts if v not in t1.bset]
    verts = (*shared, *own2, *own1)
    if len(vset) == len(verts):     # no interior: no middle vertex, and
        # every edge either operand counts lies on the outer boundary
        return BoundaryTable(L, R, vset, t1.eset | t2.eset, K, verts)
    import numpy as np

    both = middle + shared      # every vertex both boundaries hold
    a = _runs(t1.cells, t1.verts, (own1, (), both))
    b = _runs(t2.cells, t2.verts, ((), own2, both))
    common = t1.eset & t2.eset
    less = _edge_counts(both, common) if common else None
    if less is not None:    # each t2 row less the shared edges inside it
        b = b - less
    x1, group = a.shape[1], 1 << len(middle)
    rows2 = len(t2.cells) // group      # result rows per row of t1's own
    width = min(len(vset) - len(outset), K) + 1
    cells = np.empty((x1 * rows2, width), dtype=np.int32)
    # a block pairs n rows of t1's own bits with every row of t2
    n = min(x1, max(1, max(_BLOCK, len(t1.cells)) // len(t2.cells)))
    out = np.empty((width, n, *b.shape[2:]), dtype=np.int32)
    # a one-row operand leaves the kernel no partial sums to hold
    scratch = np.empty(((min(len(a), len(b)) > 1)
                        * min(max(len(a), len(b)), width), *out.shape[1:]),
                       dtype=np.int32)
    for i in range(0, x1, n):
        cells[i * rows2:(i + n) * rows2] = maxplus_rows(
            a[:, i:i + n], b, out, scratch, group, len(middle)).T
    eset = frozenset(e for e in (t1.eset | t2.eset)
                     if e[0] in outset and e[1] in outset)
    return BoundaryTable(L, R, vset, eset, K, verts, cells,
                         ("merge", t1, t2, both, less) if keep else ())


def _merge_split(t: BoundaryTable, r: int, kp: int) -> list[tuple]:
    """The operand cells (table, row, size) of a kept merge_tables result
    t that reach its cell (r, kp): the first Bx, in the order of its
    bitmask over the sorted middle vertices, whose t1 row and discounted
    t2 row for S = r | Bx, lifted by |Bx|, combine to the cell's value.
    Each operand row, and its index into the discount merge_tables
    kept, is worked out from the bit positions of S's vertices in that
    operand and in the discount's vertices, each time."""
    t1, t2, both, less = t.made[1:]
    val = _cell(t, r, kp)
    v1, v2 = t1.verts, t2.verts
    h1 = h2 = hd = 0
    for j, v in enumerate(t.verts):
        if r >> j & 1:
            if v in t1.bset:
                h1 |= 1 << v1.index(v)
            if v in t2.bset:
                h2 |= 1 << v2.index(v)
                if v in t1.bset:
                    hd |= 1 << both.index(v)
    low = [(0, 0, 0)]
    for v in sorted(t1.bset - t.bset):
        b1, b2, bd = 1 << v1.index(v), 1 << v2.index(v), 1 << both.index(v)
        low += [(x1 | b1, x2 | b2, xd | bd) for x1, x2, xd in low]
    size = kp - r.bit_count()
    for x1, x2, xd in low:
        r1, r2 = h1 | x1, h2 | x2
        add = 0 if less is None else -int(less[hd | xd])
        pair = maxplus_pair(t1.cells[r1].tolist(), t2.cells[r2].tolist(),
                            size, val, x1.bit_count(), add)
        if pair is not None:
            return [(t1, r1, pair[0] + r1.bit_count()),
                    (t2, r2, pair[1] + r2.bit_count())]
    raise InternalError(f"traceback: no middle subset reaches {val} at "
                        f"size {kp}")


def _traceback(t: BoundaryTable, kp: int) -> set[int]:
    """Vertices of a kp-subset that reaches the best cell at size kp of
    the kept table t, the first such subset by the sorted boundary.
    Each cell is walked back to operand cells that reach it: adjust
    keeps the row; extend drops z's bit, its top one, and one unit of
    size when z is selected; contract takes the z-out or the z-in row,
    whichever reaches the cell; merge_tables searches the Bx of the row.
    The walk ends at the tables with no interior vertex, kept with made
    (), whose rows are the selections."""
    chosen: set[int] = set()
    order = _sorted_rows(t)
    todo = [(t, order[int(_sized(t)[order, kp].argmax())], kp)]
    while todo:
        t, r, kp = todo.pop()
        if kp == 0:
            continue
        if not t.made:
            chosen.update(v for j, v in enumerate(t.verts) if r >> j & 1)
            continue
        step, src = t.made[0], t.made[1]
        if step == "merge":
            todo += _merge_split(t, r, kp)
            continue
        if step == "extend":                # drop z's bit, the top one
            top = 1 << len(src.verts)
            if r & top:
                chosen.add(t.L[0])
                kp -= 1
                r ^= top
        elif step == "contract":            # put z's bit j back
            j = src.verts.index(src.L[0])
            out = ((r >> j) << (j + 1)) | (r & ((1 << j) - 1))
            if _cell(src, out, kp) != _cell(t, r, kp):
                out |= 1 << j
            r = out
        todo.append((src, r, kp))
    return chosen


def _kept(out: BoundaryTable, step: str, src: BoundaryTable,
          keep: bool) -> BoundaryTable:
    """out, with made (step, src) when kept, unless it has no interior
    vertex (its rows are then the selections) or is src itself, which
    adjust may return."""
    if keep and out is not src and len(out.vset) > len(out.verts):
        out.made = (step, src)
    return out


def _extended(g: Graph, z: int | None, t: BoundaryTable, k: int,
              keep: bool) -> BoundaryTable:
    return t if z is None else _kept(extend(g, z, t, k), "extend", t, keep)


def _fold(forest: Forest, v: TreeNode, br: str, deps: list, pivot: int,
          k: int, keep: bool):
    """Generator of v's table: starts from deps[pivot]'s table, or S4's
    seed left of deps[pivot], then yields the left nodes going down and the
    right ones going up, merging each table it is sent at once.  S4
    extends each window by v.x on the left and by v.y on the right."""
    g = forest.le.graph
    x = y = None
    right = pivot + 1
    if br == "S3":
        t = create(g, v, (), k)
    elif br == "S4":
        t = create(g, v, window_path(forest.trees[v.comp].parent_node,
                                     v.pivot), k)
        x, y, right = v.x, v.y, pivot
    else:
        t = yield deps[pivot]
    for i in range(pivot - 1, -1, -1):  # operands unnamed: freed once merged
        t = merge_tables(_extended(g, x, (yield deps[i]), k, keep), t, k,
                         keep)
    for i in range(right, len(deps)):
        t = merge_tables(t, _extended(g, y, (yield deps[i]), k, keep), k,
                         keep)
    if br == "S2":
        t = _kept(contract(t), "contract", t, keep)
    if br in ("S1", "S2"):
        t = _kept(adjust(g, t), "adjust", t, keep)
    if t.L != v.lbound or t.R != v.rbound:
        raise BoundaryMismatch(f"table boundaries {t.L}/{t.R} drifted from "
                               f"{v.lbound}/{v.rbound} at node {v.uid}")
    return t


def _schedule(forest: Forest) -> dict[int, tuple]:
    """Node uid -> (node, branch, operand nodes, pivot) for every tree
    node, in the post-order that reads each node's operands left to
    right, so the outermost root comes last.

    Every node except the outermost root is consumed by exactly one
    other node's computation.  The walk checks that conservation law as
    it consumes (InternalError on a node consumed twice, and on nodes
    left unreached), because it is what makes each real edge score
    exactly once.  A node's pivot is S4's seed, left of operand v.pivot -
    v.lbn, or else the first operand whose build holds the most tables
    at once (need), so that no running table waits while it is built."""
    def enter(v: TreeNode) -> tuple:    # the nodes v consumes, in order
        inner = forest.enclosed_component(v)
        if inner is not None:
            br, deps = "S2", [forest.trees[inner].root]
        elif v.children:
            br, deps = "S1", v.children
        elif forest.le.components[v.comp].level == 1:
            br, deps = "S3", []
        else:
            windows = forest.trees[v.comp].parent_node.children
            br, deps = "S4", windows[v.lbn - 1:v.rbn - 1]
        return v, br, deps, iter(deps)

    root = forest.trees[0].root
    consumed = {root.uid}
    need: dict[int, int] = {}
    plan: dict[int, tuple] = {}
    stack = [enter(root)]
    while stack:
        v, br, deps, it = stack[-1]
        d = next(it, None)
        if d is None:
            stack.pop()
            needs = [need[c.uid] for c in deps]
            pivot = 0
            if br == "S4":
                pivot = v.pivot - v.lbn
            elif needs:
                pivot = needs.index(max(needs))
                needs[pivot] -= 1   # built while no table waits
            need[v.uid] = 1 + max(needs, default=0)
            plan[v.uid] = (v, br, deps, pivot)
        elif d.uid in consumed:
            raise InternalError(f"tree node {d.uid} consumed twice")
        else:
            consumed.add(d.uid)
            stack.append(enter(d))
    if consumed != {n.uid for n in forest.nodes}:
        raise InternalError("tree nodes unreachable from the root, left "
                            "without a table")
    return plan


def evaluate_tables(forest: Forest, k: int, trace: list | None = None,
                    keep: bool = False) -> tuple[BoundaryTable, int, int]:
    """(root table, cells, max rows): the outermost root's table, and the
    cells of every tree node's table summed, K + 1 a row (one per size,
    however few the row stores), and the most rows of any.  Both come
    from each table's shape, 2^|verts| rows, so they read no cells and
    enumerate no table.
    `keep` records in the `made` of each table with interior the
    operands it was built from, intermediate tables included.  One
    event per node table, naming the node, is appended to `trace`, in
    `_schedule`'s post-order.

    The walk keeps a stack of folds: the operand a fold yields is built
    next and sent back, so a table lives on only where a running fold, a
    trace event or, with `keep`, a `made` chain points to it."""
    plan = _schedule(forest)
    events: dict[int, dict] = {}
    cells = rows = 0
    root = forest.trees[0].root
    stack = [(root, _fold(forest, *plan[root.uid], k, keep))]
    t = None
    while stack:
        v, fold = stack[-1]
        try:
            d = fold.send(t)
        except StopIteration as done:
            t = done.value
            stack.pop()
            cells += (1 << len(t.verts)) * (t.K + 1)
            rows = max(rows, 1 << len(t.verts))
            if trace is not None:
                br = plan[v.uid][1]
                events[v.uid] = {"branch": br,
                                 "pivot": v.pivot if br == "S4" else None,
                                 "node": v.uid, "table": t,
                                 "graph": forest.le.graph}
        else:
            t = None
            stack.append((d, _fold(forest, *plan[d.uid], k, keep)))
    if trace is not None:
        trace += [events[uid] for uid in plan]
    return t, cells, rows


def solve_bouterplanar_values(g: Graph, k: int, *, root: int | None = None,
                              triangulation: str = "zigzag",
                              trace: list | None = None,
                              stats: dict | None = None,
                              witness: bool = False,
                              blocks: Blocks | None = None):
    """(values, pick): optimum edge counts for every k' = 0..min(k, n) on
    a connected planar graph with n >= 2, via peeling, component trees,
    and the table fold.  `blocks`, g's decomposition when g is
    outerplanar, lets the embedding draw a rotation-less g on one face.
    Appends one event per table built to `trace`.  With `witness`, every
    table is kept and pick(k') walks them back to a set of k' vertices
    that induces values[k'] edges; else pick is None.  TooManyEdges when
    g has too many edges for int32 tables (see tables.NEG)."""
    if g.m >= MAX_EDGES:
        raise TooManyEdges(f"{g.m} edges: int32 tables count exactly only "
                           f"below {MAX_EDGES}")
    cap = min(k, g.n)
    le = embed_and_level(g, variant=triangulation, blocks=blocks)
    forest = build_forest(le, root=root)
    rt, cells, max_rows = evaluate_tables(forest, cap, trace=trace,
                                          keep=witness)
    vals = _sized(rt).max(axis=0).tolist()
    if len(vals) <= cap or min(vals) < 0:
        raise InternalError("root table has holes")
    if stats is not None:
        stats["levels"] = le.depth
        stats["components"] = len(le.components)
        stats["tree_nodes"] = len(forest.nodes)
        stats["max_rows"] = max_rows
        stats["cells"] = cells
        stats["fake_edges"] = len(le.fake_edges)
    return vals, (lambda kp: _traceback(rt, kp)) if witness else None
