"""Shared table arithmetic.

Vectors here are "optional max-plus": index = number of picked vertices,
value = best edge count or None when no selection of that size exists.
`maxplus_into` is the one cell combine both DPs use; each caller keeps
its own size, bonus and overlap arithmetic in `shift` and `add`.
"""

from __future__ import annotations


def maxplus_into(out: list[int | None], a: list[int | None],
                 b: list[int | None], shift: int = 0, add: int = 0) -> None:
    """out[k1+k2+shift] = max(out[k1+k2+shift], a[k1]+b[k2]+add) for every
    defined a[k1] and b[k2] whose target lies inside out; None-absorbing."""
    n = len(out)
    pb = [(k2 + shift, v2 + add) for k2, v2 in enumerate(b) if v2 is not None]
    if not pb:
        return
    for k1, v1 in enumerate(a):
        if v1 is None:
            continue
        for k2, v2 in pb:
            kp = k1 + k2
            if kp >= n:
                break
            if kp >= 0:
                val = v1 + v2
                cur = out[kp]
                if cur is None or val > cur:
                    out[kp] = val


def convolve_max_plus(a: list[int | None], b: list[int | None],
                      kmax: int) -> list[int | None]:
    """(a ⊛ b)[k] = max over k1+k2=k of a[k1]+b[k2]; None-absorbing."""
    out: list[int | None] = [None] * (kmax + 1)
    maxplus_into(out, a, b)
    return out


def vector_max(a: list[int | None], b: list[int | None]) -> list[int | None]:
    """Cellwise max; the shorter vector reads as None past its end."""
    out = a + [None] * (len(b) - len(a))
    for i, y in enumerate(b):
        if y is not None and (out[i] is None or y > out[i]):
            out[i] = y
    return out
