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

What a merge derives from its operands' boundary shape, not from their
cells (which operand cells meet, and what the overlap costs), is its
plan, built once per shape and kept across solves (``_by_shape``).

When a witness is asked for, every table keeps the operands it was built
from, and ``_traceback`` walks a root cell back down them.
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

ABSENT = None

# Pairs per merge block: big enough to amortise numpy's per-call cost,
# small enough that a block's buffers stay small (1,024 pairs ran the
# leveled benchmark's solve pass about 6% faster, but raised its
# tracemalloc peak by over a third).
_BLOCK = 512

# Merge plans by shape key (see _by_shape).  Shapes repeat across graphs
# far more than within one solve, so the memo outlives solves: a merge
# that builds its plan is slower than a merge without a memo, and only
# a later merge of the shape wins that back (README).  A plan
# whose arrays hold more than _SHAPE_BYTES is used once and dropped, and
# a full memo drops its oldest plan, so the kept arrays never exceed
# _SHAPES_MAX * _SHAPE_BYTES = 32 MiB.
_SHAPE_BYTES = 1 << 15
_SHAPES_MAX = 1024
_SHAPES: dict[tuple, tuple] = {}


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(eq=False)   # by identity: == on two cells arrays has no truth
class BoundaryTable:
    """Optimum edge count per (touched boundary subset, subgraph size).

    L and R list the boundary paths innermost vertex first; bset, their
    union, and verts, bset ascending, are set once at construction.
    cells is an int32 array of shape (2^|boundary|, min(I, K) + 1), for
    the I = |vset| - |bset| vertices inside the region: row i holds the
    subset whose bit j is set when verts[j], the j-th smallest boundary
    vertex, is in it; column d holds subgraph size popcount(i) + d.
    Every cell is real and exact, a cell past size K too; rows hides
    those, and NEG marks only the sizes off a row's band.  int32 holds
    every cell exactly while the graph has fewer than 2^28 edges, which
    solve_bouterplanar_values checks (tables.NEG gives the argument).
    made is () for a table enumerated from its boundary and, when kept
    for a traceback, (step, operands...) for the extend, contract,
    adjust or merge_tables call that built it; a merge also keeps its
    plan (see merge_tables).  A table lives only as long as something
    points to it: evaluate_tables drops each one once it is consumed."""

    L: tuple[int, ...]
    R: tuple[int, ...]
    vset: frozenset
    eset: frozenset
    K: int
    cells: object
    made: tuple = ()
    bset: frozenset = field(init=False, compare=False, repr=False)
    verts: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.bset = frozenset(self.L) | frozenset(self.R)
        self.verts = tuple(sorted(self.bset))

    @property
    def rows(self) -> dict:
        """Read-only view: boundary subset -> cells by size 0..K, ABSENT
        for a cell below NEG // 2."""
        verts = self.verts
        return {frozenset(v for j, v in enumerate(verts) if i >> j & 1):
                [ABSENT if c < NEG // 2 else c for c in row]
                for i, row in enumerate(_sized(self).tolist())}


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


def _bits(mask: int) -> list[int]:
    """The positions of mask's set bits, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _by_shape(*key) -> tuple:
    """_merge_plan(*key), its arrays made read-only and kept in _SHAPES
    for the next merge of the same shape."""
    plan = _SHAPES.get(key)
    if plan is None:
        plan = _merge_plan(*key)
        arrays = [a for a in plan if hasattr(a, "flags")]
        for a in arrays:
            a.flags.writeable = False
        if sum(a.nbytes for a in arrays) <= _SHAPE_BYTES:
            if len(_SHAPES) >= _SHAPES_MAX:
                del _SHAPES[next(iter(_SHAPES))]
            _SHAPES[key] = plan
    return plan


def _enum_table(L, R, verts, edges, k: int) -> BoundaryTable:
    """Brute-force table for a region whose vertices all lie on the
    boundary; the workhorse behind create."""
    import numpy as np  # deferred: `import dks` stays numpy-free

    core = sorted(set(verts))
    K = min(k, len(core))
    es = sorted(edges)
    at = {v: j for j, v in enumerate(core)}
    nbr = [0] * len(core)       # each vertex's neighbours, as a row mask
    for u, v in es:
        nbr[at[u]] |= 1 << at[v]
        nbr[at[v]] |= 1 << at[u]
    # a row's edges are those of the row less its lowest vertex, plus
    # that vertex's edges into the rest; a few dozen rows: plain Python
    count = [0] * (1 << len(core))
    for a in range(1, len(count)):
        low = a & -a
        count[a] = count[a ^ low] + (nbr[low.bit_length() - 1] & a).bit_count()
    # no interior vertex, so one column
    cells = np.array(count, dtype=np.int32).reshape(-1, 1)
    return BoundaryTable(tuple(L), tuple(R), frozenset(core),
                         frozenset(es), K, cells)


def create(g: Graph, v: TreeNode, bnd: tuple[int, ...],
           k: int) -> BoundaryTable:
    """Seed table of a childless node: its endpoints plus the boundary
    path bnd, with all real edges among them (the doubled copy of a
    repeated walk edge scores zero).  bnd is () for an outermost walk
    edge or isolated vertex (S3) and the path at the pivot window for a
    deeper node (S4)."""
    x, y = v.x, v.y
    verts = {x, y, *bnd}
    edges = [(a, b) for a, b in combinations(sorted(verts), 2)
             if g.has_edge(a, b) and (v.countable or {a, b} != {x, y})]
    return _enum_table((x,) + bnd, (y,) + bnd, verts, edges, k)


def extend(g: Graph, z: int, t: BoundaryTable, k: int) -> BoundaryTable:
    """Push vertex z onto both boundary paths; rows that include z pay
    one vertex and collect z's real edges into the selected boundary.
    The interior is unchanged, and so is each cell's column; every cell
    stays real, so a z-in row is its z-out row plus z's edges into it."""
    import numpy as np

    if z in t.vset:
        raise BoundaryMismatch(f"extension vertex {z} is already inside "
                               "the region")
    vset = t.vset | {z}
    K = min(k, len(vset))
    verts = t.verts
    zn = [j for j, w in enumerate(verts) if g.has_edge(z, w)]
    # z's bit goes just above the bits of the boundary vertices below it,
    # so each run of `lo` old rows is followed by its copy with z selected
    lo = 1 << sum(1 for w in verts if w < z)
    old = t.cells
    hi, w = len(old) // lo, old.shape[1]
    cells = np.empty((hi, 2, lo, w), dtype=np.int32)
    cells[:, 0] = old.reshape(hi, lo, w)
    inc = np.bitwise_count(np.arange(len(old)) & sum(1 << j for j in zn))
    cells[:, 1] = (old + inc[:, None]).reshape(hi, lo, w)
    eset = t.eset | {_norm(z, verts[j]) for j in zn}
    return BoundaryTable((z,) + t.L, (z,) + t.R, vset, eset, K,
                         cells.reshape(2 * len(old), w))


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
    return BoundaryTable(L, R, t.vset, eset, t.K, cells.reshape(-1, width))


def adjust(g: Graph, t: BoundaryTable) -> BoundaryTable:
    """Score the closing edge between the two boundary tops, if real:
    every cell is real, so each row selecting both gains exactly 1."""
    import numpy as np

    x, y = t.L[0], t.R[0]
    if x == y or not g.has_edge(x, y):
        return t
    e = _norm(x, y)
    if e in t.eset:
        raise InternalError(f"closing edge {e} was already counted")
    verts = t.verts
    both = (1 << verts.index(x)) | (1 << verts.index(y))
    sel = (np.arange(len(t.cells)) & both) == both
    cells = t.cells.copy()
    cells[sel] += 1
    return BoundaryTable(t.L, t.R, t.vset, t.eset | {e}, t.K, cells)


def _merge_plan(m1: int, m2: int, mo: int, mf: int, eb: int) -> tuple:
    """(low, high, pen) of a merge whose masks over the sorted union of
    both boundaries select t1's boundary (m1), t2's (m2), the outer one
    (mo) and the middle vertices off it (mf), and whose shared counted
    edges are the bits i * u + j of eb (of the i-th and j-th of u union
    vertices): the operand rows of every middle and outer subset, a row
    per operand, and each t2 row's shared edges (None without any)."""
    import numpy as np

    u = (m1 | m2).bit_length()
    b1, b2 = [0] * u, [0] * u   # a union vertex's row bit in t1, in t2
    for b, m in ((b1, m1), (b2, m2)):
        for i, j in enumerate(_bits(m)):
            b[j] = 1 << i

    def rows(mask: int):    # both operands' rows of each subset of mask
        r1, r2 = [0], [0]
        for j in _bits(mask):
            r1 += [r + b1[j] for r in r1]
            r2 += [r + b2[j] for r in r2]
        return np.array((r1, r2), dtype=np.int32)

    r2 = np.arange(1 << m2.bit_count(), dtype=np.int32)
    pen = None
    for b in _bits(eb):
        e = b2[b // u] | b2[b % u]
        hit = (r2 & e) == e
        if pen is None:
            pen = hit.astype(np.int32)
        else:
            pen += hit
    return rows(mf), rows(mo), pen


def merge_tables(t1: BoundaryTable, t2: BoundaryTable, k: int,
                 keep: bool = False) -> BoundaryTable:
    """Glue two tables along t1.R == t2.L.

    A result row A (a subset of the outer boundary L + R) is the best,
    over the subsets Bx of the middle vertices off that boundary, of
    the operand rows S = A | Bx cut down to each operand's boundary.
    Every vertex and counted edge both operands claim lies on t2's
    boundary, so the shared edges are charged to t2's rows once, and a
    plain max-plus of the operand rows then counts every edge once.
    Sound only while the regions overlap nowhere off their shared
    boundaries, which the construction guarantees (checked).  The
    vertices too count once: the operand rows' subsets together are S,
    whose size is |A| + |Bx|, so a pair's cells land |Bx| columns right
    of the sum of their own columns.  Every pair in the result's band
    is realisable, so the result holds no NEG either, and a cell at
    size K or below reads no operand cell past that operand's K: an
    operand's part of a subgraph is no larger than the subgraph.

    What depends on the boundary shape alone, the operand rows and the
    shared edges, is the shape's _merge_plan, built once per shape.  A
    block of n result rows holds pair (Bx, A) in column Bx * n + A; an
    operand's row for S is the sum of its rows for A and for Bx.  Both
    operands are gathered size-major, at their own widths, into buffers
    that every block reuses, and the kernel lifts each pair by |Bx| as
    it keeps the best pair per result row.  With `keep`, made is
    ("merge", t1, t2, (low, high, pen)): the plan, which a traceback
    reads."""
    import numpy as np

    if list(t1.R) != list(t2.L):
        raise BoundaryMismatch(
            f"cannot merge: {t1.R} does not meet {t2.L}")
    L, R = t1.L, t2.R
    outset = frozenset(L) | frozenset(R)
    middle = frozenset(t1.R) - outset
    if not t1.vset & t2.vset <= (t1.bset & t2.bset):
        raise InternalError("regions overlap off the boundary")
    vset = t1.vset | t2.vset
    K = min(k, len(vset))
    at = {v: 1 << j for j, v in enumerate(sorted(t1.bset | t2.bset))}
    u = len(at)
    low, high, pen = _by_shape(
        *[sum(map(at.__getitem__, vs)) for vs in (
            t1.bset, t2.bset, outset, middle)],
        # (1 << i) ** u * (1 << j) is bit i * u + j
        sum(at[a] ** u * at[b] for a, b in t1.eset & t2.eset))
    w1, w2 = t1.cells.shape[1], t2.cells.shape[1]
    c2 = t2.cells.T if pen is None else t2.cells.T - pen
    width = min(len(vset) - len(outset), K) + 1
    cells = np.empty((high.shape[1], width), dtype=np.int32)
    # powers of two, so the blocks of n result rows tile the result
    group = low.shape[1]
    n = min(len(cells), max(1, _BLOCK // group))
    a = np.empty((w1, group, n), dtype=np.int32)
    b = np.empty((w2, group, n), dtype=np.int32)
    out = np.empty((len(middle) + width, group * n), dtype=np.int32)
    # a one-row operand leaves the kernel no partial sums to hold
    scratch = np.empty(((min(w1, w2) > 1) * min(max(w1, w2), width),
                        group * n), dtype=np.int32)
    for s in range(0, len(cells), n):
        idx = low[:, :, None] + high[:, None, s:s + n]
        t1.cells.T.take(idx[0], axis=1, out=a, mode="clip")
        c2.take(idx[1], axis=1, out=b, mode="clip")
        cells[s:s + n] = maxplus_rows(a.reshape(w1, -1), b.reshape(w2, -1),
                                      out, scratch, group, len(middle)).T
    eset = frozenset(e for e in (t1.eset | t2.eset)
                     if e[0] in outset and e[1] in outset)
    return BoundaryTable(L, R, vset, eset, K, cells,
                         ("merge", t1, t2, (low, high, pen)) if keep else ())


def _merge_split(t: BoundaryTable, r: int, kp: int) -> list[tuple]:
    """The operand cells (table, row, size) of a kept merge_tables result
    t that reach its cell (r, kp): the first Bx, in pair order, whose
    t1 row and discounted t2 row for S = r | Bx, lifted by |Bx|, combine
    to the cell's value.  The operand rows and the discount come from
    the plan the merge kept."""
    t1, t2, (low, high, pen) = t.made[1:]
    val = _cell(t, r, kp)
    h1, h2 = high[:, r].tolist()
    for x1, x2 in low.T.tolist():
        r1, r2 = h1 + x1, h2 + x2
        less = 0 if pen is None else int(pen[r2])
        pair = maxplus_pair(t1.cells[r1].tolist(),
                            [c - less for c in t2.cells[r2].tolist()],
                            kp - r.bit_count(), val, x1.bit_count())
        if pair is not None:
            return [(t1, r1, pair[0] + r1.bit_count()),
                    (t2, r2, pair[1] + r2.bit_count())]
    raise InternalError(f"traceback: no middle subset reaches {val} at "
                        f"size {kp}")


def _traceback(t: BoundaryTable, kp: int) -> set[int]:
    """Vertices of a kp-subset that reaches the best cell at size kp of
    the kept table t.  Each cell is walked back to operand cells that
    reach it: adjust keeps the row; extend drops z's bit, and one unit of
    size when z is selected; contract takes the z-out or the z-in row,
    whichever reaches the cell; merge_tables searches the Bx of the row.
    The walk ends at enumerated tables, whose rows are the selections."""
    chosen: set[int] = set()
    todo = [(t, int(_sized(t)[:, kp].argmax()), kp)]
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
        if step == "extend":                # drop z's bit j
            z = t.L[0]
            j = t.verts.index(z)
            if r >> j & 1:
                chosen.add(z)
                kp -= 1
            r = ((r >> (j + 1)) << j) | (r & ((1 << j) - 1))
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
    if keep and out is not src:     # adjust may return its operand
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
    however few the row stores), and the most rows of any.
    `keep` records in each table's `made` the operands it was built
    from, intermediate tables included.  One event per node table,
    naming the node, is appended to `trace`, in `_schedule`'s
    post-order.

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
            cells += len(t.cells) * (t.K + 1)
            rows = max(rows, len(t.cells))
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
