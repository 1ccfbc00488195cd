"""Brute-force reference solvers.

These are the ground truth the dynamic programs are tested against.  They
are deliberately literal — no pruning beyond a hard size cap — so that a
bug in the clever code can't be mirrored here.
"""

from __future__ import annotations

from itertools import combinations

from dks.errors import BadArgument, CapExceeded, KTooLarge
from dks.graph import Graph

ORACLE_VERTEX_CAP = 20


def brute_force_densest_k(g: Graph, k: int) -> tuple[int, list[int]]:
    """Max edges over all C(n,k) vertex subsets, with one maximiser.

    Returns (value, witness) where witness is sorted.  The first subset
    attaining the max (in combinations order) is reported, which makes
    the answer deterministic.  Refuses, in this order, k < 0 (BadArgument),
    k > n (KTooLarge) and n > ORACLE_VERTEX_CAP (CapExceeded).
    """
    if k < 0:
        raise BadArgument(f"k must be nonnegative, got {k}")
    if k > g.n:
        raise KTooLarge(f"k={k} but the graph has {g.n} vertices")
    if g.n > ORACLE_VERTEX_CAP:
        raise CapExceeded(f"n={g.n} exceeds oracle cap {ORACLE_VERTEX_CAP}")
    masks = g.adj_masks()
    best = -1
    best_set: tuple[int, ...] = ()
    for subset in combinations(range(g.n), k):
        smask = 0
        for v in subset:
            smask |= 1 << v
        e = 0
        for v in subset:
            e += (masks[v] & smask).bit_count()
        e //= 2
        if e > best:
            best = e
            best_set = subset
    return best, list(best_set)


def brute_force_all_k(g: Graph) -> list[int]:
    """opt[k] for every k=0..n in one 2^n sweep.

    e(S) is built incrementally: peel the lowest vertex v of S, then
    e(S) = e(S - v) + |adj(v) ∩ (S - v)|.
    """
    if g.n > ORACLE_VERTEX_CAP:
        raise CapExceeded(f"n={g.n} exceeds oracle cap {ORACLE_VERTEX_CAP}")
    masks = g.adj_masks()
    size = 1 << g.n
    e = bytearray(size) if g.m < 256 else [0] * size
    opt = [0] * (g.n + 1)
    for s in range(1, size):
        v = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        ev = e[rest] + (masks[v] & rest).bit_count()
        e[s] = ev
        k = s.bit_count()
        if ev > opt[k]:
            opt[k] = ev
    return opt
