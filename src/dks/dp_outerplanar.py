"""Exact densest-k-subgraph DP for outerplanar graphs.

Per 2-connected block, the unique outer (Hamiltonian) cycle is found by
degree-2 elimination, and tables indexed by (endpoint bits, exact
subgraph size) are folded in one sweep around it: each chord's span of
cycle edges is merged when the sweep leaves it, nested spans first.
A merge whose second operand is a bare cycle edge pushes that edge's
far vertex onto the span, one pass per result row; every other merge,
and each cutpoint attachment, runs its row pairs through one
tables.maxplus_terms loop.
Each block hanging off a cutpoint is collapsed into a pair of vectors
and attached, one block at a time, to the leaf table where the cutpoint
sits.
When a witness is asked for, every table and vector keeps the operands
it was built from, and `_traceback` walks a root cell back down them.

A note on the closing merge (the one that reunites the two ends of the
cycle, producing a table whose two labels coincide): the size arithmetic
must treat the coincident endpoint as shared whenever both bits are set
— not only when the middle vertex is also included — and the label edge
of the two operands is then a single physical edge that both operand
tables have already counted, so one copy must be subtracted.  Both
corrections are exercised by unit tests against hand-computed tables.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import NamedTuple

from dks.errors import (BadArgument, BoundaryMismatch, InternalError,
                        NotOuterplanar, TooManyEdges)
from dks.graph import Graph
from dks.tables import convolve_max_plus  # noqa: F401  (perfbench hooks it here)
from dks.tables import MAX_EDGES, maxplus_pair, maxplus_terms, vector_max


@dataclass
class EdgeTable:
    """DP table for a contiguous span of a block's outer cycle.

    rows[(bx << 1) | by][kp] is the best real-edge count over subsets of
    the span's vertices with exactly kp vertices where bx/by fix whether
    the two span endpoints are included; None marks impossible cells.
    counts_label_edge is True when row values already include the edge
    (x, y) itself.  made is () for a leaf and, when kept for a traceback,
    ("merge", t1, t2) or ("hang", t, side, hang) for the call that built
    the table.
    """

    x: int
    y: int
    vcount: int
    rows: list[list[int | None]]
    counts_label_edge: bool
    made: tuple = ()


class Hang(NamedTuple):
    """Best-value vectors over one block and the subtree below it,
    without (d0) and with (d1) the cutpoint it hangs from, and their
    vertex count.  made is (), or, when kept for a traceback,
    ("block", t, groups): the vectors are the cellwise max over the rows
    groups[0] and groups[1] of the block's final table t.
    """

    d0: list[int | None]
    d1: list[int | None]
    count: int
    made: tuple = ()


def leaf_table(x: int, y: int, k: int) -> EdgeTable:
    cap = min(k, 2)
    rows: list[list[int | None]] = [[None] * (cap + 1) for _ in range(4)]
    rows[0][0] = 0
    if cap >= 1:
        rows[1][1] = 0
        rows[2][1] = 0
    if cap >= 2:
        rows[3][2] = 1
    return EdgeTable(x, y, 2, rows, True)


def merge_tables(t1: EdgeTable, t2: EdgeTable, g: Graph, k: int) -> EdgeTable:
    """Combine span tables T_(x,y) and T_(y,z) into T_(x,z).

    The spans share vertex y; when x == z the cycle has closed and they
    share x as well.  A real edge (x, z) is credited here, exactly once,
    in the rows where both bits are set.  When t2 is a bare leaf (only
    leaf_table makes 2-vertex tables) and the cycle stays open, the
    merge pushes z onto the span: each result row is one pass over
    t1's rows without and with y.  Every other merge combines the row
    pairs _merge_terms lists in one maxplus_terms loop.
    """
    if t1.y != t2.x:
        raise BoundaryMismatch(f"cannot merge T_({t1.x},{t1.y}) with T_({t2.x},{t2.y})")
    x, z = t1.x, t2.y
    closing = x == z
    vcount = t1.vcount + t2.vcount - 1 - (1 if closing else 0)
    cap = min(k, vcount)
    chord_real = (not closing) and g.has_edge(x, z)
    if t2.vcount == 2 and not closing:
        rows = []
        for bx in (0, 1):
            out_y, in_y = t1.rows[bx << 1], t1.rows[(bx << 1) | 1]
            # z out: the best with y out or in; z in: one vertex more,
            # plus the edge y-z when y is in and the chord when x is in
            rows.append([o if i is None or (o is not None and o >= i) else i
                         for o, i in zip(out_y, in_y)]
                        + [None] * (cap + 1 - len(out_y)))
            z_in = [o if i is None or (o is not None and o > i) else i + 1
                    for o, i in zip(out_y, in_y)]
            if chord_real and bx:
                z_in = [None if v is None else v + 1 for v in z_in]
            z_in.insert(0, None)    # one size up, in place: no second copy
            del z_in[cap + 1:]
            rows.append(z_in)
    else:
        rows = [[None] * (cap + 1) for _ in range(4)]
        maxplus_terms(rows, t1.rows, t2.rows, _MERGE_TERMS[
            closing, chord_real, t1.counts_label_edge, t2.counts_label_edge])
    return EdgeTable(x, z, vcount, rows, chord_real)


def _merge_terms(closing: bool, chord_real: bool, counted1: bool,
                 counted2: bool) -> tuple[tuple[int, int, int, int, int], ...]:
    """(result row, t1 row, t2 row, shift, add) of every row pair that
    merge_tables combines: row (bx, by) of t1 with row (by, bz) of t2
    into row (bx, bz).  The flags say whether the merge closes the
    cycle, whether the edge (x, z) is real and scored here, and whether
    each operand counted its own label edge."""
    terms = []
    for bx in (0, 1):
        for bz in (0, 1):
            if closing and bx != bz:
                continue
            shared = 1 if (closing and bx) else 0
            for by in (0, 1):
                bonus = 1 if (chord_real and bx and bz) else 0
                if closing and bx and by and counted1 and counted2:
                    bonus -= 1  # both operands counted the same label edge
                terms.append(((bx << 1) | bz, (bx << 1) | by, (by << 1) | bz,
                              -by - shared, bonus))
    return tuple(terms)


# _merge_terms of every flag combination, built once at import
_MERGE_TERMS = {flags: _merge_terms(*flags)
                for flags in product((False, True), repeat=4)}

# The terms, as in _merge_terms, of attach_hang at side 0 (x) and side 1
# (y): row (bx, by) of the table with the hang's vector for the bit of
# the cutpoint, which both count once.
_HANG_TERMS = tuple(tuple((r, r, b, -b, 0) for r, b in enumerate(bits))
                    for bits in ((0, 0, 1, 1), (0, 1, 0, 1)))


def attach_hang(t: EdgeTable, side: int, hang: Hang, k: int,
                keep: bool = False) -> EdgeTable:
    """Fold one hanging block's vector pair into a leaf table; side 0
    attaches at label x, side 1 at label y, and the cutpoint counts
    once.  With `keep`, made is ("hang", t, side, hang)."""
    vcount = t.vcount + hang.count - 1
    cap = min(k, vcount)
    rows: list[list[int | None]] = [[None] * (cap + 1) for _ in range(4)]
    maxplus_terms(rows, t.rows, hang[:2], _HANG_TERMS[side])
    return EdgeTable(t.x, t.y, vcount, rows, t.counts_label_edge,
                     ("hang", t, side, hang) if keep else ())


# ------------------------------------------------------------ outer cycle


def block_outer_cycle(g: Graph, vertices: list[int],
                      edges: list[tuple[int, int]]) -> list[int]:
    """Hamiltonian outer cycle of a 2-connected outerplanar block of g,
    starting at its smallest vertex.

    `vertices` and `edges` are the block's, as outerplanar_blocks lists
    them: every edge of g between two of the vertices is in `edges`, so
    g.adj, read through the live mark below, is the block's adjacency.
    Repeatedly strips the smallest degree-2 vertex (patching its two
    neighbours with a virtual edge when they are not adjacent), then
    rebuilds the cycle by reinserting vertices in reverse; a reinsertion
    whose neighbours are not adjacent on the current cycle certifies
    non-outerplanarity.  Every structure is sized by the block: the
    live vertices' degrees in one dict (the live mark), the live virtual
    edges in a map holding only the vertices that have one, the
    stripped (v, a, b) triples in one flat list, and the cycle as a
    successor map.
    """
    n = len(vertices)
    if len(edges) > 2 * n - 3:
        raise NotOuterplanar(f"block has {len(edges)} edges on {n} vertices")
    adj = g.adj
    deg = dict.fromkeys(vertices, 0)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    heap = [v for v in vertices if deg[v] == 2]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    virt: dict[int, list[int]] = {}
    removed: list[int] = []
    for _ in range(n - 3):
        while heap and deg.get(heap[0]) != 2:
            pop(heap)
        if not heap:
            raise NotOuterplanar("no degree-2 vertex to strip")
        v = pop(heap)
        del deg[v]
        ns = adj[v]
        if v in virt:
            ab = [w for w in ns if w in deg]
            for w in virt.pop(v):
                ab.append(w)
                virt[w].remove(v)
            a, b = ab
        elif len(ns) == 2:              # both real neighbours are live
            a, b = ns
        else:
            a, b = [w for w in ns if w in deg]
        if b in adj[a] or b in virt.get(a, ()):
            deg[a] -= 1
            deg[b] -= 1
        else:
            virt.setdefault(a, []).append(b)
            virt.setdefault(b, []).append(a)
        da, db = deg[a], deg[b]
        if da == 2:
            push(heap, a)
        if db == 2:
            push(heap, b)
        if da < 2 or db < 2:
            raise NotOuterplanar("block is not 2-connected")
        removed += (v, a, b)
    if any(d != 2 for d in deg.values()):
        raise NotOuterplanar("reduction did not end in a triangle")
    x, y, z = sorted(deg)
    del deg, heap, virt                 # freed before the ring is built

    nxt = {x: y, y: z, z: x}
    back = reversed(removed)
    for b, a, v in zip(back, back, back):
        if nxt[b] == a:
            a, b = b, a
        elif nxt[a] != b:
            raise NotOuterplanar(f"vertex {v} cannot sit on the outer face")
        nxt[a] = v
        nxt[v] = b

    start = min(vertices)
    cycle = [start]
    cur = nxt[start]
    while cur != start:
        cycle.append(cur)
        cur = nxt[cur]
    if len(cycle) != n:
        raise NotOuterplanar("outer cycle does not span the block")
    return cycle


@dataclass
class Blocks:
    """The block decomposition the flat DP folds: one
    Graph.blocks_and_cutpoints pass, then block_outer_cycle per block.

    part is the vertices decomposed (range(g.n) for all of g), edges[i]
    is block i's edge list, in the order the depth-first search pops it
    off its edge stack, vertices[i] its ascending vertex list, and
    cycles[i] its outer cycle from its smallest vertex (None for a
    bridge).  These
    lists are all that recognition keeps: its per-vertex working data
    (the CSR adjacency, degree maps, rings) is dropped before it returns.
    """

    edges: list[list[tuple[int, int]]]
    vertices: list[list[int]]
    cycles: list[list[int] | None]
    part: Sequence[int]


def outerplanar_blocks(g: Graph, part: Sequence[int] | None = None) -> Blocks:
    """Blocks of g, or of its `part` (see Graph.blocks_and_cutpoints),
    with their outer cycles; raises NotOuterplanar."""
    blocks, _ = g.blocks_and_cutpoints(part)
    verts = [sorted({u for e in b for u in e}) for b in blocks]
    cycles = [block_outer_cycle(g, vs, b) if len(b) > 1 else None
              for vs, b in zip(verts, blocks)]
    return Blocks(blocks, verts, cycles, range(g.n) if part is None else part)


def is_outerplanar(g: Graph, part: Sequence[int] | None = None
                   ) -> Blocks | None:
    """outerplanar_blocks(g, part) when that part of g is outerplanar,
    else None."""
    if len(part or range(g.n)) == g.n and g.m > max(0, 2 * g.n - 3):
        return None
    try:
        return outerplanar_blocks(g, part)
    except NotOuterplanar:
        return None


# ------------------------------------------------------------------ fold


def _count(stats: dict | None, tables: int, cells: int, merges: int) -> None:
    if stats is not None:
        for key, n in (("tables", tables), ("cells", cells),
                       ("merges", merges)):
            stats[key] = stats.get(key, 0) + n


def _emit(trace: list | None, g: Graph, branch: str, t: EdgeTable) -> None:
    if trace is not None:
        trace.append({"branch": branch, "pivot": None, "node": None,
                      "table": t, "graph": g})


def fold_block(g: Graph, cycle: list[int], edges: list[tuple[int, int]],
               k: int, attach: dict[int, list[Hang]] | None = None,
               trace: list | None = None, stats: dict | None = None,
               keep: bool = False) -> EdgeTable:
    """Fold a whole block (outer cycle + chords) into T_(cycle[0], cycle[0]).

    One sweep over the cycle edges 0..m-1 keeps a stack of open spans,
    the whole cycle at the bottom.  A chord spans the edges s..e-1 between
    its endpoints (one through position 0 spans the complementary arc);
    its span opens at edge s, outermost first.  Each edge's leaf table,
    with the hangs that attach lists at its first vertex attached one by
    one, goes onto the innermost open span; a leaf that only a push will
    read, unless traced or kept, goes on without rows.  A span closes
    after its last edge: its pieces are merged left to right, and the
    result goes onto the enclosing span.  `keep` records each table's
    operands in its `made`."""
    attach = attach or {}
    m = len(cycle)
    pos = {v: i for i, v in enumerate(cycle)}
    # chord spans [s, e) as s * (m + 1) + m - e, sorted so that the last
    # is the one to open first: by start, outermost first at each start
    spans = []
    for u, v in edges:
        pa, pb = sorted((pos[u], pos[v]))
        if 1 < pb - pa < m - 1:                 # a chord, not a cycle edge
            s, e = (pa, pb) if pa > 0 else (pb, m)
            spans.append(s * (m + 1) + m - e)
    spans.sort(reverse=True)
    del pos                             # not held while tables are built
    stack: list[tuple[int, list[EdgeTable]]] = [(m, [])]  # (end, pieces)
    cells = 0
    for i in range(m + 1):
        while stack[-1][0] <= i:       # close the spans ending at edge i-1
            t, *rest = stack.pop()[1]
            for t2 in rest:
                t1, t = t, merge_tables(t, t2, g, k)
                if keep:
                    t.made = ("merge", t1, t2)
                cells += 4 * len(t.rows[0])
                _emit(trace, g, "merge", t)
            if not stack:              # the cycle's own span, at i == m
                _count(stats, 2 * m - 1, m * 4 * (min(k, 2) + 1) + cells,
                       m - 1)
                return t
            stack[-1][1].append(t)
        while spans and spans[-1] // (m + 1) == i:
            e = m - spans.pop() % (m + 1)
            if e > stack[-1][0]:
                raise NotOuterplanar(f"crossing chords at span [{i},{e})")
            stack.append((e, []))
        x, y = cycle[i], cycle[(i + 1) % m]
        hangs = attach.get(x, ())
        if (trace is None and not keep and stack[-1][1] and not hangs
                and (y != cycle[0] or len(stack) > 1)):
            # a later piece of its span, which no merge closes the cycle
            # with: pushed, it is read for its labels and vcount alone
            stack[-1][1].append(EdgeTable(x, y, 2, [], True))
            continue
        t = leaf_table(x, y, k)
        _emit(trace, g, "leaf", t)
        for h in hangs:
            t = attach_hang(t, 0, h, k, keep)
        stack[-1][1].append(t)


# ------------------------------------------------------------- block-cut


def _row_reaching(t: EdgeTable, group: tuple[int, ...], kp: int,
                  val: int) -> int:
    for r in group:
        if t.rows[r][kp] == val:
            return r
    raise InternalError(f"traceback: no row of T_({t.x},{t.y}) reaches "
                        f"{val} at size {kp}")


def _cells(item: EdgeTable | Hang, r: int) -> list[int | None]:
    """Row r of a table, or the vector with cutpoint bit r of a hang."""
    return item[r] if isinstance(item, Hang) else item.rows[r]


def _traceback(t: EdgeTable, group: tuple[int, ...], kp: int,
               val: int) -> set[int]:
    """Vertices of a kp-subset that reaches val in one of the rows
    `group` of the kept table t.  Each cell is walked back to operand
    cells that reach it, down to the leaves, whose rows select their
    endpoints.  A cell of size 0 selects nothing."""
    chosen: set[int] = set()
    todo: list[tuple] = [(t, _row_reaching(t, group, kp, val), kp)]
    while todo:
        item, r, kp = todo.pop()
        if kp == 0:
            continue
        made = item.made
        if not made:                        # a leaf
            chosen.update(v for v, bit in ((item.x, 2), (item.y, 1))
                          if r & bit)
            continue
        val = _cells(item, r)[kp]
        if made[0] == "block":              # r is the cutpoint's bit
            todo.append((made[1], _row_reaching(made[1], made[2][r], kp,
                                                val), kp))
            continue
        if made[0] == "merge":
            o1, o2 = made[1:]
            terms = _MERGE_TERMS[o1.x == o2.y, item.counts_label_edge,
                                 o1.counts_label_edge, o2.counts_label_edge]
        else:
            o1, side, o2 = made[1:]
            terms = _HANG_TERMS[side]
        for out, r1, r2, shift, add in terms:
            if out != r:
                continue
            pair = maxplus_pair(_cells(o1, r1), _cells(o2, r2), kp, val,
                                shift, add)
            if pair is not None:
                todo += [(o1, r1, pair[0]), (o2, r2, pair[1])]
                break
        else:
            raise InternalError(f"traceback: no operand cells reach {val} "
                                f"at size {kp}")
    return chosen


def solve_outerplanar_values(g: Graph, k: int, *, root: int | None = None,
                             trace: list | None = None,
                             stats: dict | None = None,
                             blocks: Blocks | None = None,
                             witness: bool = False):
    """(values, pick): optimum edge counts for every k' = 0..min(k, n) on
    a connected outerplanar graph with n >= 2: g, or the part of g that
    `blocks` decomposes, in g's own vertex ids.

    `blocks` comes from is_outerplanar(g, part); without it, all of g is
    decomposed here, which raises NotOuterplanar on other graphs.  Blocks
    that miss a vertex of their part or do not hang together, or a root
    (by default the part's first vertex) outside the part or with no
    incident edge, raise BadArgument.  Adds the number of blocks, tables,
    table cells and merges to `stats`, and one event per table built to
    `trace`.  With `witness`, every table is kept and pick(k') walks them
    back to a set of k' vertices that induces values[k'] edges; else pick
    is None.  TooManyEdges when g has too many edges for the int32 cells
    of a wide combine (see tables.NEG).
    """
    if g.m >= MAX_EDGES:
        raise TooManyEdges(f"{g.m} edges: int32 tables count exactly only "
                           f"below {MAX_EDGES}")
    if blocks is None:
        blocks = outerplanar_blocks(g)
    bverts, part = blocks.vertices, blocks.part
    # each vertex's first block (over all of g, a list), and every block
    # of each cutpoint
    home = [-1] * g.n if len(part) == g.n else dict.fromkeys(part, -1)
    at_cut: dict[int, list[int]] = {}
    for i, vs in enumerate(bverts):
        for v in vs:
            if home[v] < 0:
                home[v] = i
            else:
                at_cut.setdefault(v, [home[v]]).append(i)
    # distinct vertices: each cutpoint is listed once per block it is in
    placed = (sum(map(len, bverts)) - sum(map(len, at_cut.values()))
              + len(at_cut))

    rootv = root if root is not None else part[0] if part else 0
    if rootv not in part or home[rootv] < 0:
        raise BadArgument(f"root vertex {rootv} has no incident edge")
    root_bid = home[rootv]

    # BFS the block-cut tree from the root block; a block's key vertex is
    # the cutpoint it hangs from
    key_of = [-1] * len(bverts)
    key_of[root_bid] = rootv
    order = [root_bid]
    for bid in order:
        for v in bverts[bid]:
            for nb in at_cut.get(v, ()):
                if key_of[nb] < 0:
                    key_of[nb] = v
                    order.append(nb)
    if len(order) < len(bverts) or placed < len(part):
        raise BadArgument("graph is disconnected; solve() splits components")

    if stats is not None:
        stats["blocks"] = len(blocks.edges)

    # each block's Hang waits at its key vertex until the block it hangs
    # from is folded; the root block also takes those at the root vertex
    waiting: dict[int, list[Hang]] = defaultdict(list)
    for bid in reversed(order):         # the root block comes last
        key = key_of[bid]
        attach = {v: waiting.pop(v) for v in bverts[bid]
                  if v in waiting and (v != key or bid == root_bid)}
        b_edges = blocks.edges[bid]
        if len(b_edges) == 1:
            (u, v) = b_edges[0]
            x, y = (u, v) if u == key else (v, u)
            t = leaf_table(x, y, k)
            _count(stats, 1, 4 * len(t.rows[0]), 0)
            _emit(trace, g, "leaf", t)
            for side, v in enumerate((x, y)):
                for h in attach.get(v, ()):
                    t = attach_hang(t, side, h, k, witness)
            groups = ((0, 1), (2, 3))
        else:
            cycle = blocks.cycles[bid]
            i = cycle.index(key)
            cycle = cycle[i:] + cycle[:i]
            if cycle[-1] < cycle[1]:
                cycle = [cycle[0]] + cycle[:0:-1]
            t = fold_block(g, cycle, b_edges, k, attach, trace, stats,
                           witness)
            groups = ((0,), (3,))
        # the best over the rows without (u0) and with (u1) the key vertex
        u0, u1 = (reduce(vector_max, [t.rows[r] for r in group])
                  for group in groups)
        if bid == root_bid:
            values = vector_max(u0, u1)
        else:
            waiting[key].append(Hang(u0, u1, t.vcount,
                                     ("block", t, groups) if witness else ()))
    if not witness:
        return values, None
    return values, lambda kp: _traceback(t, sum(groups, ()), kp, values[kp])
