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
When a witness is asked for, every table and vector records the terms
and operands that built it, and `_traceback` replays a root cell back
down them.

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
from dks.tables import (MAX_EDGES, NEG, maxplus_pair, maxplus_terms,
                        vector_max)


@dataclass
class EdgeTable:
    """DP table for a contiguous span of a block's outer cycle.

    rows[(bx << 1) | by][kp] is the best real-edge count over subsets of
    the span's vertices with exactly kp vertices where bx/by fix whether
    the two span endpoints are included; an impossible cell is
    tables.NEG.
    counts_label_edge is True when row values already include the edge
    (x, y) itself.  made is () for a leaf and, when kept for a traceback,
    (terms, o1, o2): rows are the maxplus_terms combine of o1's rows and
    o2's under those terms.
    """

    x: int
    y: int
    vcount: int
    rows: list[list[int]]
    counts_label_edge: bool
    made: tuple = ()


class Hang(NamedTuple):
    """Best-value vectors over one block and the subtree below it,
    without (d0) and with (d1) the cutpoint it hangs from, and their
    vertex count.  made is as EdgeTable's, its terms over the block's
    final table and _EMPTY (see _MAX_TERMS).
    """

    d0: list[int]
    d1: list[int]
    count: int
    made: tuple = ()

    @property
    def rows(self) -> tuple[list[int], list[int]]:
        return self[:2]


# The hang of no vertices: its one cell is the unit of maxplus_terms
_EMPTY = Hang((0,), (), 0)


def leaf_table(x: int, y: int, k: int) -> EdgeTable:
    cap = min(k, 2)
    rows = [[NEG] * (cap + 1) for _ in range(4)]
    rows[0][0] = 0
    if cap >= 1:
        rows[1][1] = 0
        rows[2][1] = 0
    if cap >= 2:
        rows[3][2] = 1
    return EdgeTable(x, y, 2, rows, True)


def merge_tables(t1: EdgeTable, t2: EdgeTable, g: Graph, k: int,
                 keep: bool = False) -> EdgeTable:
    """Combine span tables T_(x,y) and T_(y,z) into T_(x,z).

    The spans share vertex y; when x == z the cycle has closed and they
    share x as well.  A real edge (x, z) is credited here, exactly once,
    in the rows where both bits are set.  When t2 is a bare leaf (only
    leaf_table makes 2-vertex tables) and the cycle stays open, the
    merge pushes z onto the span: each result row is one pass over
    t1's rows without and with y.  Every other merge combines the row
    pairs _merge_terms lists in one maxplus_terms loop.  With `keep`,
    made holds those terms, which the push matches.
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
            # plus the edge y-z when y is in and the chord when x is in,
            # each only on a real cell, so an absent one stays NEG
            rows.append([o if o >= i else i for o, i in zip(out_y, in_y)]
                        + [NEG] * (cap + 1 - len(out_y)))
            z_in = [o if o > i or i < 0 else i + 1
                    for o, i in zip(out_y, in_y)]
            if chord_real and bx:
                z_in = [v + 1 if v >= 0 else v for v in z_in]
            z_in.insert(0, NEG)     # one size up, in place: no second copy
            del z_in[cap + 1:]
            rows.append(z_in)
    else:
        rows = [[NEG] * (cap + 1) for _ in range(4)]
        maxplus_terms(rows, t1.rows, t2.rows, _MERGE_TERMS[
            closing, chord_real, t1.counts_label_edge, t2.counts_label_edge])
    return EdgeTable(x, z, vcount, rows, chord_real, (_MERGE_TERMS[
        closing, chord_real, t1.counts_label_edge, t2.counts_label_edge],
        t1, t2) if keep else ())


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

# The terms of a cellwise max: row b is the max of the rows groups[b],
# each paired with _EMPTY's cell.  A block's hang takes its final table's
# rows without and with its key vertex (a bridge's x, a cycle's both
# labels); the root takes all of them into one row.
_MAX_TERMS = {groups: tuple((b, r, 0, 0, 0) for b, rows in enumerate(groups)
                            for r in rows)
              for groups in (((0, 1), (2, 3)), ((0,), (3,)),
                             ((0, 1, 2, 3),), ((0, 3),))}


def attach_hang(t: EdgeTable, side: int, hang: Hang, k: int,
                keep: bool = False) -> EdgeTable:
    """Fold one hanging block's vector pair into a leaf table; side 0
    attaches at label x, side 1 at label y, and the cutpoint counts
    once.  With `keep`, made holds _HANG_TERMS[side]."""
    vcount = t.vcount + hang.count - 1
    cap = min(k, vcount)
    rows = [[NEG] * (cap + 1) for _ in range(4)]
    maxplus_terms(rows, t.rows, hang.rows, _HANG_TERMS[side])
    return EdgeTable(t.x, t.y, vcount, rows, t.counts_label_edge,
                     (_HANG_TERMS[side], t, hang) if keep else ())


# ------------------------------------------------------------ outer cycle


def block_outer_cycle(g: Graph, vertices: list[int], top: int) -> list[int]:
    """Hamiltonian outer cycle of a 2-connected outerplanar block of g,
    starting at its smallest vertex.

    `vertices` and `top` are the block's, as outerplanar_blocks lists
    them: every edge of g between two of the vertices is a block edge,
    so g.adj, read through the live mark below, is the block's
    adjacency.  It is read only through the vertices other than `top`
    (a vertex in many blocks is the top of all but at most one of
    them); the top's neighbours are the vertices whose adjacency holds
    it, and stripping the top reads only those.
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
    adj = g.adj
    deg = dict.fromkeys(vertices, 0)
    ups = [v for v in vertices if top in adj[v]]    # the top's neighbours
    for v in vertices:
        deg[v] = len(ups) if v == top else sum(w in deg for w in adj[v])
    n, m = len(vertices), sum(deg.values()) // 2
    if m > 2 * n - 3:
        raise NotOuterplanar(f"block has {m} edges on {n} vertices")
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
        ns = adj[v] if v != top else ups
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

    part is the vertices decomposed (range(g.n) for all of g),
    vertices[i] is block i's ascending vertex list (two vertices: a
    bridge), tops[i] the vertex it shares towards the depth-first
    search's root, and cycles[i] its outer cycle from its smallest
    vertex (None for a bridge).  A block's edges are the ones g.adj
    holds between its vertices, read through all of them but the top.
    These lists are all that recognition keeps: its per-vertex working
    data (the CSR adjacency, degree maps, rings) is dropped before it
    returns.
    """

    vertices: list[list[int]]
    tops: list[int]
    cycles: list[list[int] | None]
    part: Sequence[int]


def outerplanar_blocks(g: Graph, part: Sequence[int] | None = None) -> Blocks:
    """Blocks of g, or of its `part` (see Graph.blocks_and_cutpoints),
    as vertex lists with their tops and outer cycles; raises
    NotOuterplanar."""
    blocks, tops, _ = g.blocks_and_cutpoints(part)
    cycles = [block_outer_cycle(g, vs, top) if len(vs) > 2 else None
              for vs, top in zip(blocks, tops)]
    return Blocks(blocks, tops, cycles, range(g.n) if part is None else part)


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


def fold_block(g: Graph, cycle: list[int], k: int,
               attach: dict[int, list[Hang]] | None = None,
               trace: list | None = None, stats: dict | None = None,
               keep: bool = False) -> EdgeTable:
    """Fold a whole block (outer cycle + chords) into T_(cycle[0], cycle[0]).

    The chords are the edges g.adj holds between the cycle's vertices
    that are not cycle edges, read through every vertex but cycle[0]: a
    chord at cycle[0] is taken from its other end.  One sweep over the
    cycle edges 0..m-1 keeps a stack of open spans, the whole cycle at
    the bottom.  A chord spans the edges s..e-1 between its endpoints
    (one through position 0 spans the complementary arc, to edge m-1);
    its span opens at edge s, outermost first.  Each edge's leaf table,
    with the hangs that attach lists at its first vertex attached one by
    one, goes onto the innermost open span; a leaf that only a push will
    read, unless traced or kept, goes on without rows.  A span closes
    after its last edge: its pieces are merged left to right, and the
    result goes onto the enclosing span.  With `keep`, every table
    records its `made`."""
    attach = attach or {}
    m = len(cycle)
    pos = {v: i for i, v in enumerate(cycle)}
    # chord spans [s, e) as s * (m + 1) + m - e, sorted so that the last
    # is the one to open first: by start, outermost first at each start;
    # each chord is read once, at its start s (never 0 or m-1)
    spans = []
    for s in range(1, m - 1):
        for w in g.adj[cycle[s]]:
            e = pos.get(w, -1)
            if e > s + 1 or (e == 0 and s > 1):
                spans.append(s * (m + 1) + (m - e if e else 0))
    spans.sort(reverse=True)
    del pos                             # not held while tables are built
    stack: list[tuple[int, list[EdgeTable]]] = [(m, [])]  # (end, pieces)
    cells = 0
    for i in range(m + 1):
        while stack[-1][0] <= i:       # close the spans ending at edge i-1
            t, *rest = stack.pop()[1]
            for t2 in rest:
                t = merge_tables(t, t2, g, k, keep)
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


def _traceback(top: Hang, kp: int) -> set[int]:
    """Vertices of a kp-subset that reaches cell kp of top's row 0.  A
    cell is replayed by the first term of its row whose operand cells
    reach it, down to the leaves, whose rows select their endpoints.  A
    cell of size 0 selects nothing."""
    chosen: set[int] = set()
    todo: list[tuple] = [(top, 0, kp)]
    while todo:
        item, r, kp = todo.pop()
        if kp == 0:
            continue
        if not item.made:                   # a leaf
            chosen.update(v for v, bit in ((item.x, 2), (item.y, 1))
                          if r & bit)
            continue
        terms, o1, o2 = item.made
        val = item.rows[r][kp]
        for out, r1, r2, shift, add in terms:
            if out != r:
                continue
            pair = maxplus_pair(o1.rows[r1], o2.rows[r2], kp, val, shift, add)
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

    rootv = root if root is not None else part[0] if part else 0
    if rootv not in part or home[rootv] < 0:
        raise BadArgument(f"root vertex {rootv} has no incident edge")
    root_bid = home[rootv]

    # BFS the block-cut tree from the root block; a block's key vertex is
    # the cutpoint it hangs from.  The first block to reach a cutpoint
    # takes all of its blocks, so each list is read once.
    key_of = [-1] * len(bverts)
    key_of[root_bid] = rootv
    order = [root_bid]
    for bid in order:
        for v in bverts[bid]:
            for nb in at_cut.pop(v, ()):
                if key_of[nb] < 0:
                    key_of[nb] = v
                    order.append(nb)
    # a connected block-cut tree has sum |B| - #B + 1 distinct vertices
    if (len(order) < len(bverts)
            or sum(map(len, bverts)) - len(bverts) + 1 < len(part)):
        raise BadArgument("graph is disconnected; solve() splits components")

    if stats is not None:
        stats["blocks"] = len(bverts)

    # each block's Hang waits at its key vertex until the block it hangs
    # from is folded; the root block also takes those at the root vertex
    waiting: dict[int, list[Hang]] = defaultdict(list)
    for bid in reversed(order):         # the root block comes last
        key = key_of[bid]
        attach = {v: waiting.pop(v) for v in bverts[bid]
                  if v in waiting and (v != key or bid == root_bid)}
        if len(bverts[bid]) == 2:             # a bridge
            u, v = bverts[bid]
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
            t = fold_block(g, cycle, k, attach, trace, stats, witness)
            groups = ((0,), (3,))
        # the best over the rows without (u0) and with (u1) the key vertex
        u0, u1 = (reduce(vector_max, [t.rows[r] for r in group])
                  for group in groups)
        if bid == root_bid:
            values = vector_max(u0, u1)
        else:
            waiting[key].append(Hang(u0, u1, t.vcount, (
                _MAX_TERMS[groups], t, _EMPTY) if witness else ()))
    if not witness:
        return values, None
    top = Hang(values, (), t.vcount,
               (_MAX_TERMS[sum(groups, ()),], t, _EMPTY))
    return values, lambda kp: _traceback(top, kp)
