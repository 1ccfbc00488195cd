"""The max-plus cell kernel both DPs combine their vectors with."""

from hypothesis import given, settings
from hypothesis import strategies as st

from dks.tables import convolve_max_plus, maxplus_into

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


@given(a=cells, b=cells, kmax=st.integers(0, 14))
def test_convolve_max_plus_is_the_unshifted_kernel(a, b, kmax):
    assert convolve_max_plus(a, b, kmax) == naive([None] * (kmax + 1), a, b,
                                                  0, 0)
