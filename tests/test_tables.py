"""The max-plus cell kernels the DPs combine their vectors with."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dks.dp_outerplanar import _HANG_TERMS, _merge_terms
from dks.tables import (_WIDE, MAX_EDGES, NEG, convolve_max_plus,
                        maxplus_into, maxplus_pair, maxplus_rows,
                        maxplus_terms)

cells = st.lists(st.one_of(st.none(), st.integers(-3, 9)), max_size=7)


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
@given(a=cells, b=cells, shift=st.integers(-2, 1), add=st.integers(-2, 2),
       extra=st.integers(-6, 3), start=cells)
def test_maxplus_into_matches_triple_loop(a, b, shift, add, extra, start):
    # out may be shorter or longer than len(a) + len(b), and need not
    # start empty: the kernel keeps the larger of old and new cells
    n = max(0, len(a) + len(b) + extra)
    out = (start + [None] * n)[:n]
    want = naive(out, a, b, shift, add)
    maxplus_into(out, a, b, shift, add)
    assert out == want


@settings(max_examples=300, deadline=None)
@given(a=cells, b=cells, shift=st.integers(-2, 1), add=st.integers(-2, 2),
       width=st.integers(0, 12))
def test_maxplus_pair_inverts_every_cell(a, b, shift, add, width):
    # each defined cell of a fresh result splits into the pair with the
    # least k1 that reaches it, from a list a or, with no None, from an
    # int32 array a (the component join's running vector); an undefined
    # cell, or a value above the cell's, splits into none
    out = [None] * width
    maxplus_into(out, a, b, shift, add)
    as_array = np.array(a, np.int32) if None not in a else None
    for kp, val in enumerate(out):
        if val is None:
            assert all(maxplus_pair(a, b, kp, v, shift, add) is None
                       for v in range(-10, 22))
            continue
        k1, k2 = maxplus_pair(a, b, kp, val, shift, add)
        assert k1 + k2 + shift == kp and a[k1] + b[k2] + add == val
        assert all(a[j] is None or b[kp - shift - j] is None
                   or a[j] + b[kp - shift - j] + add != val
                   for j in range(max(0, kp - shift - len(b) + 1), k1))
        assert maxplus_pair(a, b, kp, val + 1, shift, add) is None
        if as_array is not None:
            assert maxplus_pair(as_array, b, kp, val, shift, add) == (k1, k2)


@given(a=cells, b=cells, kmax=st.integers(0, 14))
def test_convolve_max_plus_is_the_unshifted_kernel(a, b, kmax):
    assert convolve_max_plus(a, b, kmax) == naive([None] * (kmax + 1), a, b,
                                                  0, 0)


@st.composite
def term_calls(draw):
    """(out, a, b, terms, wide): operand rows of one length per operand,
    whose product is above _WIDE when `wide` and at most _WIDE else, each
    with None runs at both ends; the terms of a flat merge (closing or
    not), of a hang attachment, or random ones with shifts -2..1 and adds
    -1..1; and result rows that need not start empty."""
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

    def row(n):
        lead = draw(st.integers(0, min(3, n)))
        trail = draw(st.integers(0, min(3, n - lead)))
        body = draw(st.lists(st.one_of(st.none(), st.integers(0, 30)),
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
    # by term, old cells of out included
    out, a, b, terms, wide = case
    assert (len(a[0]) * len(b[0]) > _WIDE) == wide
    want = [list(r) for r in out]
    for r, r1, r2, shift, add in terms:
        want[r] = naive(want[r], a[r1], b[r2], shift, add)
    maxplus_terms(out, a, b, terms)
    assert out == want


@st.composite
def stacked(draw):
    """Pair vectors of two lengths (unequal K), each with its own None
    pattern, plus a result length and a group size."""
    group = draw(st.sampled_from([1, 2, 3]))
    pairs = group * draw(st.integers(1, 4))
    wa, wb = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    cell = st.one_of(st.none(), st.integers(-3, 9))
    a = [draw(st.lists(cell, min_size=wa, max_size=wa)) for _ in range(pairs)]
    b = [draw(st.lists(cell, min_size=wb, max_size=wb)) for _ in range(pairs)]
    width = draw(st.integers(1, wa + wb + 2))
    return a, b, width, group


def size_major(vectors):
    """A row per size, a column per pair vector; NEG for None."""
    return np.array([[NEG if c is None else c for c in v] for v in vectors],
                    dtype=np.int32).T.copy()


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
        maxplus_into(want[p // group], a[p], b[p])
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
    cell = st.one_of(st.none(), st.integers(-3, 9))
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
        maxplus_into(want[p // group], a[p], b[p], (p % group).bit_count())
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
