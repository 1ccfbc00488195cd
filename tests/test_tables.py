"""The max-plus cell kernels the DPs combine their vectors with.

The references here are triple loops on vectors that mark an absent
cell None; the kernels get and give NEG for it (see tables.NEG).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dks.dp_outerplanar import _HANG_TERMS, _merge_terms
from dks.tables import (_WIDE, MAX_EDGES, NEG, convolve_max_plus,
                        maxplus_into, maxplus_pair, maxplus_rows,
                        maxplus_terms)

from helpers import as_none


def neg(v):
    """v in the kernels' encoding: NEG for each None."""
    return [NEG if c is None else c for c in v]


@st.composite
def term(draw):
    """(a, b, add): two vectors with None cells, and an add that keeps
    every sum of two real cells at 0 or above, as the DPs keep it."""
    add = draw(st.integers(-2, 2))
    cells = st.lists(st.one_of(st.none(), st.integers(max(0, -add), 9)),
                     max_size=7)
    return draw(cells), draw(cells), add


def naive(out, a, b, shift, add):
    out = list(out)
    for k1, v1 in enumerate(a):
        for k2, v2 in enumerate(b):
            kp = k1 + k2 + shift
            if v1 is None or v2 is None or not 0 <= kp < len(out):
                continue
            if out[kp] is None or v1 + v2 + add > out[kp]:
                out[kp] = v1 + v2 + add
    return out


@settings(max_examples=400, deadline=None)
@given(t=term(), shift=st.integers(-2, 1), extra=st.integers(-6, 3),
       start=st.lists(st.one_of(st.none(), st.integers(0, 9)), max_size=7))
def test_maxplus_into_matches_triple_loop(t, shift, extra, start):
    # out may be shorter or longer than len(a) + len(b), and need not
    # start empty: the kernel keeps the larger of old and new cells, and
    # an absent cell it leaves or writes is exactly NEG
    a, b, add = t
    n = max(0, len(a) + len(b) + extra)
    out = (start + [None] * n)[:n]
    want = naive(out, a, b, shift, add)
    out = neg(out)
    maxplus_into(out, neg(a), neg(b), shift, add)
    assert as_none(out) == want


@settings(max_examples=300, deadline=None)
@given(t=term(), shift=st.integers(-2, 1), width=st.integers(0, 12))
def test_maxplus_pair_inverts_every_cell(t, shift, width):
    # each real cell of a fresh result splits into the pair with the
    # least k1 that reaches it, from a list a or from an int32 array a
    # (the component join's running vector); an absent cell, or a value
    # above the cell's, splits into none
    a, b, add = t
    out = naive([None] * width, a, b, shift, add)
    a, b = neg(a), neg(b)
    as_array = np.array(a, np.int32)
    for kp, val in enumerate(out):
        if val is None:
            assert all(maxplus_pair(a, b, kp, v, shift, add) is None
                       and maxplus_pair(as_array, b, kp, v, shift, add)
                       is None for v in range(-10, 22))
            continue
        k1, k2 = maxplus_pair(a, b, kp, val, shift, add)
        assert k1 + k2 + shift == kp and a[k1] + b[k2] + add == val
        assert min(a[k1], b[k2]) >= 0
        assert all(min(a[j], b[kp - shift - j]) < 0
                   or a[j] + b[kp - shift - j] + add != val
                   for j in range(max(0, kp - shift - len(b) + 1), k1))
        assert maxplus_pair(a, b, kp, val + 1, shift, add) is None
        assert maxplus_pair(as_array, b, kp, val, shift, add) == (k1, k2)


class Counted(list):
    """A list that counts the cells its slices hand out."""

    reads = 0

    def __getitem__(self, i):
        got = super().__getitem__(i)
        self.reads += len(got) if isinstance(i, slice) else 1
        return got


def test_maxplus_pair_reads_only_the_cells_that_pair_with_b():
    # the component join splits its long running vector against a short
    # component vector: each split reads len(b) cells of a, not kp
    a = Counted(range(10**5))
    for kp, shift in ((10**5 - 1, 0), (50_000, 0), (60_000, 7), (2, 0)):
        val = a[kp - shift - 2] + 5
        a.reads = 0
        assert maxplus_pair(a, [1, 3, 5], kp, val, shift) == (
            kp - shift - 2, 2)
        assert a.reads <= 3
    a.reads = 0
    assert maxplus_pair(a, [1, 3, 5], 4, 0, 5) is None and a.reads == 0


@settings(max_examples=300, deadline=None)
@given(wide=st.booleans(), array=st.booleans(), data=st.data())
def test_convolve_max_plus_is_the_unshifted_kernel(wide, array, data):
    # a list while a is one and the pair is at most _WIDE cells, an int32
    # array else, whichever a is; an absent cell is exactly NEG in both
    la = data.draw(st.integers(1, 40), label="la")
    lb = data.draw(st.integers(_WIDE // la + 1, _WIDE // la + 8) if wide
                   else st.integers(1, max(1, _WIDE // la)), label="lb")
    cell = st.one_of(st.none(), st.integers(0, 9))
    a = data.draw(st.lists(cell, min_size=la, max_size=la), label="a")
    b = data.draw(st.lists(cell, min_size=lb, max_size=lb), label="b")
    kmax = data.draw(st.integers(0, la + lb), label="kmax")
    got = convolve_max_plus(np.array(neg(a), np.int32) if array else neg(a),
                            neg(b), kmax)
    assert (type(got) is list) == (not array and la * lb <= _WIDE)
    assert as_none(list(got)) == naive([None] * (kmax + 1), a, b, 0, 0)


@st.composite
def term_calls(draw):
    """(out, a, b, terms, wide): operand rows of one length per operand,
    whose product is above _WIDE when `wide` and at most _WIDE else, each
    with None runs at both ends; the terms of a flat merge (closing or
    not), of a hang attachment, or random ones with shifts -2..1 and adds
    -1..1; and result rows that need not start empty.  Real cells are
    at least 1 when some add is -1, so no sum of real cells is below 0."""
    wide = draw(st.booleans())
    kind = draw(st.sampled_from(["merge", "hang", "random"]))
    if kind == "merge":
        terms = _merge_terms(*(draw(st.booleans()) for _ in range(4)))
    elif kind == "hang":
        terms = _HANG_TERMS[draw(st.integers(0, 1))]
    else:
        terms = draw(st.lists(st.tuples(
            st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
            st.integers(-2, 1), st.integers(-1, 1)), min_size=1, max_size=8))
    if wide:
        la = draw(st.integers(8, 40))
        lb = draw(st.integers(_WIDE // la + 1, _WIDE // la + 8))
    else:
        la = draw(st.integers(1, 24))
        lb = draw(st.integers(1, min(24, _WIDE // la)))
    if draw(st.booleans()):
        la, lb = lb, la

    least = 1 if min(t[4] for t in terms) < 0 else 0

    def row(n):
        lead = draw(st.integers(0, min(3, n)))
        trail = draw(st.integers(0, min(3, n - lead)))
        body = draw(st.lists(st.one_of(st.none(), st.integers(least, 30)),
                             min_size=n - lead - trail,
                             max_size=n - lead - trail))
        return [None] * lead + body + [None] * trail

    a = [row(la) for _ in range(4)]
    b = [row(lb) for _ in range(2 if kind == "hang" else 4)]
    width = draw(st.integers(0, la + lb + 1))
    old = st.one_of(st.none(), st.none(), st.integers(0, 40))
    out = [draw(st.lists(old, min_size=width, max_size=width))
           for _ in range(4)]
    return out, a, b, terms, wide


@settings(max_examples=300, deadline=None)
@given(term_calls())
def test_maxplus_terms_matches_triple_loop_on_both_sides_of_wide(case):
    # above _WIDE cells a pair the call runs on the array kernel, at or
    # below it on the Python loop; both must match the triple loop, term
    # by term, old cells of out included, with every absent cell NEG
    out, a, b, terms, wide = case
    assert (len(a[0]) * len(b[0]) > _WIDE) == wide
    want = [list(r) for r in out]
    for r, r1, r2, shift, add in terms:
        want[r] = naive(want[r], a[r1], b[r2], shift, add)
    out = [neg(r) for r in out]
    maxplus_terms(out, [neg(r) for r in a], [neg(r) for r in b], terms)
    assert [as_none(r) for r in out] == want


@st.composite
def stacked(draw):
    """Pair vectors of two lengths (unequal K), each with its own None
    pattern, plus a result length and a group size."""
    group = draw(st.sampled_from([1, 2, 3]))
    pairs = group * draw(st.integers(1, 4))
    wa, wb = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cell = st.one_of(st.none(), st.integers(0, 9))
    a = [draw(st.lists(cell, min_size=wa, max_size=wa)) for _ in range(pairs)]
    b = [draw(st.lists(cell, min_size=wb, max_size=wb)) for _ in range(pairs)]
    width = draw(st.integers(1, wa + wb + 2))
    return a, b, width, group


def size_major(vectors):
    """A row per size, a column per pair vector; NEG for None."""
    return np.array([neg(v) for v in vectors], dtype=np.int32).T.copy()


@settings(max_examples=200, deadline=None)
@given(stacked())
def test_maxplus_rows_matches_maxplus_into_row_by_row(case):
    # pair p lands in result column p // group: the groups are runs of
    # consecutive columns, and out's old cells must not leak in
    a, b, width, group = case
    pairs = len(a)
    out = np.full((width, pairs), 5, dtype=np.int32)
    scratch = np.full((max(len(a[0]), len(b[0])), pairs), 5, dtype=np.int32)
    got = maxplus_rows(size_major(a), size_major(b), out, scratch, group)
    want = [[None] * width for _ in range(pairs // group)]
    for p in range(pairs):
        want[p // group] = naive(want[p // group], a[p], b[p], 0, 0)
    assert [[None if c < NEG // 2 else c for c in col]
            for col in got.T.tolist()] == want


@settings(max_examples=200, deadline=None)
@given(lift=st.integers(1, 3), cols=st.integers(1, 3),
       wa=st.integers(1, 5), wb=st.integers(1, 5), extra=st.integers(-3, 3),
       data=st.data())
def test_maxplus_rows_lifts_each_run_by_its_popcount(lift, cols, wa, wb,
                                                     extra, data):
    # column g of each run of 2^lift lands popcount(g) rows down before
    # the runs are reduced
    group = 1 << lift
    cell = st.one_of(st.none(), st.integers(0, 9))
    a = [data.draw(st.lists(cell, min_size=wa, max_size=wa))
         for _ in range(group * cols)]
    b = [data.draw(st.lists(cell, min_size=wb, max_size=wb))
         for _ in range(group * cols)]
    width = max(1, wa + wb - 1 + extra)
    out = np.full((width, group * cols), 5, dtype=np.int32)
    scratch = np.full((max(wa, wb), group * cols), 5, dtype=np.int32)
    got = maxplus_rows(size_major(a), size_major(b), out, scratch, group,
                       lift)
    want = [[None] * width for _ in range(cols)]
    for p in range(group * cols):
        want[p // group] = naive(want[p // group], a[p], b[p],
                                 (p % group).bit_count(), 0)
    assert [[None if c < NEG // 2 else c for c in col]
            for col in got.T.tolist()] == want


def test_maxplus_rows_keeps_absent_sums_below_the_line_inside_int32():
    # a merge charges up to a few shared edges to its second operand, so
    # an absent cell arrives as NEG - drop; each sum it enters, with a
    # real cell as large as int32 tables allow or with another absent
    # cell, is exact, inside int32 and below NEG // 2: absent again
    top = MAX_EDGES - 1
    a = size_major([[top, NEG - 2], [NEG - 2, top]])
    b = size_major([[NEG - 3, 5], [NEG - 3, NEG - 3]])
    out = np.empty((3, 2), dtype=np.int32)
    scratch = np.empty((2, 2), dtype=np.int32)
    got = maxplus_rows(a, b, out, scratch)
    assert got.dtype == np.int32
    assert got.T.tolist() == [[top + NEG - 3, top + 5, NEG + 3],
                              [NEG + NEG - 5, top + NEG - 3, top + NEG - 3]]
    absent = [c for c in got.reshape(-1).tolist() if c != top + 5]
    assert all(np.iinfo(np.int32).min <= c < NEG // 2 for c in absent)
