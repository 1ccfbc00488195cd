"""Brute-force reference solvers.

These are the ground truth the dynamic programs are tested against.  They
are deliberately literal — no pruning beyond a hard size cap — so that a
bug in the clever code can't be mirrored here.
"""

from __future__ import annotations

from itertools import combinations

from dks.errors import CapExceeded, InternalError, KTooLarge
from dks.graph import Graph

ORACLE_VERTEX_CAP = 20


def brute_force_densest_k(g: Graph, k: int) -> tuple[int, list[int]]:
    """Max edges over all C(n,k) vertex subsets, with one maximiser.

    Returns (value, witness) where witness is sorted.  The first subset
    attaining the max (in combinations order) is reported, which makes
    the answer deterministic.  Like brute_force_all_k, refuses graphs
    above ORACLE_VERTEX_CAP vertices with CapExceeded.
    """
    if g.n > ORACLE_VERTEX_CAP:
        raise CapExceeded(f"n={g.n} exceeds oracle cap {ORACLE_VERTEX_CAP}")
    if k < 0 or k > g.n:
        raise KTooLarge(f"k={k} out of range for n={g.n}")
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


def brute_force_slice_table(
    g: Graph,
    vertices: list[int],
    countable_edges: set[tuple[int, int]],
    boundary: list[int],
    kmax: int,
) -> dict[tuple[frozenset, int], int | None]:
    """Exact-trace optimum table over an explicit vertex slice.

    For every subset A of `boundary` and every k' = 0..kmax, the best
    countable-edge count over subsets S ⊆ vertices with |S| = k' and
    S ∩ boundary = A exactly; None marks empty cells.  Used to validate
    the slice DP's table algebra on small instances.
    """
    if len(vertices) > ORACLE_VERTEX_CAP:
        raise CapExceeded(f"slice of {len(vertices)} exceeds oracle cap")
    bset = set(boundary)
    table: dict[tuple[frozenset, int], int | None] = {}
    for r in range(len(bset) + 1):
        for asub in combinations(sorted(bset), r):
            for kp in range(kmax + 1):
                table[(frozenset(asub), kp)] = None
    norm = {(min(u, v), max(u, v)) for u, v in countable_edges}
    for r in range(len(vertices) + 1):
        if r > kmax:
            break
        for sub in combinations(sorted(vertices), r):
            sset = set(sub)
            a = frozenset(sset & bset)
            val = sum(1 for (u, v) in norm if u in sset and v in sset)
            cur = table[(a, r)]
            if cur is None or val > cur:
                table[(a, r)] = val
    return table


def oracle_self_check(g: Graph) -> None:
    """The two oracles must agree; raises InternalError on mismatch."""
    allk = brute_force_all_k(g)
    for k in range(g.n + 1):
        v, _ = brute_force_densest_k(g, k)
        if v != allk[k]:
            raise InternalError(f"oracle disagreement at k={k}: {v} vs "
                                f"{allk[k]}")
