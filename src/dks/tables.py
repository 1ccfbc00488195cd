"""Shared table arithmetic.

Vectors here are "max-plus" vectors: index = number of picked vertices,
value = best edge count.  A size that no selection reaches (∅ in the
worked tables) is an absent cell: any cell below 0, written as exactly
NEG in a list (see NEG).  `maxplus_terms` is the flat DP's cell
combine: one call over a list of terms (result row, operand rows,
`shift`, `add`), in which each caller keeps its own size, bonus and
overlap arithmetic.  `maxplus_into` is its one-term case.  (A flat
merge whose second operand is a bare leaf needs no combine at all; see
dp_outerplanar.merge_tables.)  `maxplus_rows` is the plain combine (no
add, a shift only per run of pairs) on size-major int32 arrays: a row
per size and a column per pair of vectors, so each numpy call runs
along a row of every pair at once.  It serves both DPs and the
component join.  The leveled DP keeps its tables in such arrays; it
charges its shared edges to one operand beforehand, lays both
operands' pairs out on axes that broadcast against each other's, and
has the kernel lift each pair by its middle subset's size as it keeps
the best pair per result.  A `maxplus_terms` call on rows wider than
_WIDE cells a pair turns its terms into such columns.
`convolve_max_plus`, the component join, takes and returns a list
while its pair is at most _WIDE cells, and one such column, an int32
array, from its first wider join on, so an all-k join of many
components costs Python work per component, not per cell of its
running vector.  So numpy is loaded the first time a leveled table is
built or a flat combine or a join (an all-k solve, say) grows that
wide; narrower calls run in Python and never load it.  int32 is exact
while the graph has fewer than 2^28 edges (see NEG).  `maxplus_pair`
inverts one cell of one term: each DP's witness traceback asks it
which operand cells a result cell came from.
"""

from __future__ import annotations

# The absent cell.  A real cell counts edges, so it lies in 0..m, and a
# combine adds two real cells and a term's add, which each caller keeps
# from taking the sum below 0 (the flat DP's -1 goes only on cells that
# both counted one edge).  So a cell below 0 is absent, and a list holds
# an absent cell as exactly NEG, which the Python combines skip.  The
# int32 kernel sums without skipping: the leveled DP adds two cells less
# at most m shared edges, and while m < MAX_EDGES (checked before any
# table is built) a real cell plus NEG stays below NEG // 2 and NEG plus
# NEG less the drops stays inside int32, so sums need no overflow guard,
# and a kernel cell below NEG // 2 is absent.
NEG = -(1 << 29)
MAX_EDGES = 1 << 28

# A maxplus_terms or convolve_max_plus call whose first a row times
# first b row exceeds this runs on maxplus_rows; below it, numpy's fixed
# cost per call (40-80 us) outweighs the Python loop's.  Measured per
# call, the kernel wins from about 16 x 16 cells for a merge's eight
# terms, 20 x 20 for a hang's four, and 100 x 5 for a join of a long
# vector with a short one.  Rows hold k + 1 cells at most, so a solve at
# k < 20 never crosses it.
_WIDE = 400


def maxplus_terms(out: list[list[int]], a: list[list[int]],
                  b: list[list[int]], terms) -> None:
    """maxplus_into(out[r], a[r1], b[r2], shift, add) for every term
    (r, r1, r2, shift, add).  Operands whose first rows pair more than
    _WIDE cells (every caller's rows of one operand have one length) run
    on the array kernel, _maxplus_terms_wide; narrower ones in one loop,
    in which each row of b has its real cells listed once, however
    many terms read it."""
    if len(a[0]) * len(b[0]) > _WIDE:
        _maxplus_terms_wide(out, a, b, terms)
        return
    pb = [[(k2, v2) for k2, v2 in enumerate(row) if v2 >= 0] for row in b]
    for r, r1, r2, shift, add in terms:
        row = out[r]
        n = len(row)
        cells2 = pb[r2]
        for k1, v1 in enumerate(a[r1], shift):  # k1 counts from shift
            if v1 < 0:
                continue
            v1 += add
            for k2, v2 in (cells2 if k1 >= 0 else
                           [c for c in cells2 if c[0] + k1 >= 0]):
                kp = k1 + k2
                if kp >= n:
                    break
                val = v1 + v2
                if val > row[kp]:
                    row[kp] = val


def _maxplus_terms_wide(out, a, b, terms) -> None:
    """maxplus_terms on maxplus_rows: each term's two rows, as they
    stand, padded with NEG, are its int32 column in each operand.  A
    term's add goes on its b column, and its a column starts shift - lo
    rows down, lo the least shift, so kernel row j is size j + lo of
    every result row.  The terms of one result row are the kernel's runs
    of columns (a NEG column fills a short run), reduced to their
    cellwise max; an absent cell of that max leaves the row's old cell."""
    import numpy as np  # deferred: see the module docstring

    shifts = [t[3] for t in terms]
    lo = min(shifts)
    slots: dict[int, list] = {}           # result row -> its terms
    for t in terms:
        slots.setdefault(t[0], []).append(t)
    group = max(map(len, slots.values()))
    la = max(map(len, a)) + max(shifts) - lo
    lb = max(map(len, b))
    ca, cb, adds = [], [], []
    for ts in slots.values():
        for run in range(group):
            col_a = col_b = []
            add = 0
            if run < len(ts):
                _, r1, r2, shift, add = ts[run]
                col_a = [NEG] * (shift - lo) + a[r1]
                col_b = b[r2]
            ca.append(col_a + [NEG] * (la - len(col_a)))
            cb.append(col_b + [NEG] * (lb - len(col_b)))
            adds.append(add)
    width = min(la + lb - 1, max(len(out[r]) for r in slots) - lo)
    if width <= 0:
        return
    cb = np.array(cb, np.int32).T
    cb += np.array(adds, np.int32)
    res = maxplus_rows(np.array(ca, np.int32).T, cb,
                       np.empty((width, len(ca)), np.int32),
                       np.empty((max(la, lb), len(ca)), np.int32), group)
    res[res < 0] = NEG                # absent, as a list holds it
    j = max(0, -lo)                   # the first row that lands in out
    for r, col in zip(slots, res.T.tolist()):
        row = out[r]
        new = col[j:len(row) - lo]
        row[j + lo:j + lo + len(new)] = [v if v > old else old for old, v
                                         in zip(row[j + lo:], new)]


def maxplus_into(out: list[int], a: list[int], b: list[int], shift: int = 0,
                 add: int = 0) -> None:
    """out[k1+k2+shift] = max(out[k1+k2+shift], a[k1]+b[k2]+add) for every
    real a[k1] and b[k2] whose target lies inside out.  The one-term
    case of maxplus_terms."""
    maxplus_terms((out,), (a,), (b,), ((0, 0, 0, shift, add),))


def maxplus_pair(a: list[int], b: list[int], kp: int, val: int,
                 shift: int = 0, add: int = 0) -> tuple[int, int] | None:
    """A pair (k1, k2) with k1 + k2 + shift == kp and a[k1] + b[k2] + add
    == val, k1 the least: a pair `maxplus_into` with the same a, b,
    shift and add combines into out[kp] with value val.  None when no
    pair reaches val.  val is a real cell, which no pair with an absent
    cell reaches (see NEG).  It walks a from its start, so the component
    join, whose a is the long running vector (an int32 array once
    wide), passes only the tail whose cells pair with b."""
    for k1, v1 in enumerate(a):
        k2 = kp - shift - k1
        if k2 < 0:
            break
        if k2 < len(b) and v1 + b[k2] + add == val:
            return k1, k2
    return None


def maxplus_rows(a, b, out, scratch, group: int = 1, lift: int = 0):
    """`maxplus_into` down every column of the size-major int32 arrays a
    and b (a row per size, at least one, then axes of columns that
    broadcast against each other's) into the same column of the
    C-contiguous out (a row per result size, then the broadcast axes),
    whose old cells are ignored; `scratch` has out's column axes and at
    least a's and b's rows.  Then the columns, read in runs of `group`
    consecutive ones, are reduced to their cellwise max; with `lift`,
    group is 2^lift, and column g of each run first moves popcount(g)
    rows down.  Returns the (len(out), columns // group) result, a view
    of `out`.  An operand cell below NEG // 2 is absent, and so is a
    result cell: it is below NEG // 2 exactly when no pair of defined
    cells lands on it (see NEG for why no sum wraps)."""
    import numpy as np  # deferred: see the module docstring

    if len(a) < len(b):
        a, b = b, a           # the combine is symmetric: loop the narrower
    width = len(out)
    n = min(len(a), width)
    np.add(a[:n], b[0], out=out[:n])
    if n < width:
        out[n:] = NEG
    for j in range(1, min(len(b), width)):
        n = min(len(a), width - j)
        np.add(a[:n], b[j], out=scratch[:n])
        np.maximum(out[j:j + n], scratch[:n], out=out[j:j + n])
    cols = out.reshape(width, -1)
    if lift:
        # fold the runs one bit at a time, lowest first: each column that
        # selects bit k lands one row down on its partner 2^k columns back
        for k in range(lift):
            keep = cols[1:, ::2 << k]
            np.maximum(keep, cols[:-1, 1 << k::2 << k], out=keep)
    else:
        for g in range(1, group):
            np.maximum(cols[:, ::group], cols[:, g::group],
                       out=cols[:, ::group])
    return cols[:, ::group]


def convolve_max_plus(a, b: list[int], kmax: int):
    """(a ⊛ b)[k] = max over k1 + k2 = k of a[k1] + b[k2], for k in
    0..kmax: the component join.  A list while a is one and the pair is
    at most _WIDE cells; else an int32 array from maxplus_rows, where a
    may already be one, so after a join's first wide step only b is
    converted: Python work in len(b), numpy work in len(a) * len(b).
    Either way an absent cell is exactly NEG."""
    if type(a) is list and len(a) * len(b) <= _WIDE:
        out = [NEG] * (kmax + 1)
        maxplus_into(out, a, b)
        return out
    import numpy as np  # deferred: see the module docstring

    a, b = (np.asarray(v, np.int32)[:, None] for v in (a, b))
    out = maxplus_rows(a, b, np.empty((kmax + 1, 1), np.int32),
                       np.empty((max(len(a), len(b)), 1), np.int32))[:, 0]
    out[out < 0] = NEG
    return out


def vector_max(a: list[int], b: list[int]) -> list[int]:
    """Cellwise max of two vectors of one length."""
    return [x if x >= y else y for x, y in zip(a, b)]
