"""Empirical probe of Baker-style layering for densest-k-subgraph.

Baker's technique (1994) turns a dynamic program for b-outerplanar graphs
into a PTAS for maximization problems that lose little when a 1/b fraction
of the graph is deleted.  Densest k-subgraph is not obviously such a
problem: the edges of an optimal solution can straddle BFS levels, and
restricting to level classes may destroy most of them.  This module runs
the layering pipeline end to end on small instances where the exact
optimum is computable and records how far the layered answer falls short.

Two decompositions are offered.  The *keep* variant induces G_i on the
levels congruent to i mod b, so every surviving edge lies within a single
BFS level and each component is outerplanar; it discards all cross-level
edges, which is exactly the suspected failure mode.  The *classic* variant
is Baker's own: delete levels congruent to i mod b, keeping chunks of at
most b-1 consecutive levels.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from dks.errors import BadArgument, CapExceeded, InternalError, NotPlanar
from dks.graph import Graph, induced_subgraph
from dks.oracle import ORACLE_VERTEX_CAP, brute_force_all_k
from dks.solve import solve

__all__ = ["PROBE_COLUMNS", "ProbeEntry", "ProbeReport", "baker_decompose",
           "probe", "bfs_levels"]

# The ProbeEntry fields of a CSV row, in column order.
PROBE_COLUMNS = ("n", "m", "k", "epsilon", "b", "variant", "s", "opt",
                 "ratio", "best_i", "cert_max_depth", "cert_ok")


def bfs_levels(g: Graph, root: int = 0) -> list[int]:
    """BFS level of every vertex, root at level 0.

    Extra components (the input is supposed to be connected, but corpus
    files are not always tidy) are swept from their smallest vertex, each
    restarting at level 0.
    """
    if g.n == 0:
        return []
    if not 0 <= root < g.n:
        raise BadArgument(f"BFS root {root} out of range for n={g.n}")
    lev = [-1] * g.n
    for start in [root] + [v for v in range(g.n) if v != root]:
        if lev[start] >= 0:
            continue
        lev[start] = 0
        q = deque([start])
        while q:
            u = q.popleft()
            for w in g.adj[u]:
                if lev[w] < 0:
                    lev[w] = lev[u] + 1
                    q.append(w)
    return lev


def baker_decompose(g: Graph, b: int, *, root: int = 0,
                    classic: bool = False) -> list[tuple[int, Graph]]:
    """Split g into b level-class subgraphs, one induced subgraph per class.

    The keep variant induces class i on BFS levels congruent to i mod b;
    since b >= 2, no edge of g joins two kept levels of the same class,
    so for planar g every component sits inside one BFS level and must be
    outerplanar (contract the levels above it to a point: all the level's
    vertices end up on one face).  `probe` checks that on its solves.  The
    classic variant deletes the congruent levels instead and checks the
    pigeonhole count: some class keeps at least a (1 - 1/b) fraction of
    the vertices.
    """
    if b < 2:
        raise BadArgument(f"need b >= 2 level classes, got {b}")
    lev = bfs_levels(g, root)
    out: list[tuple[int, Graph]] = []
    for i in range(b):
        if classic:
            keep = [v for v in range(g.n) if lev[v] % b != i]
        else:
            keep = [v for v in range(g.n) if lev[v] % b == i]
        out.append((i, induced_subgraph(g, keep)))
    if classic and g.n:
        dropped = min(g.n - gi.n for _, gi in out)
        if dropped * b > g.n:
            raise InternalError("pigeonhole failed: every class drops "
                                "more than n/b vertices")
    return out


@dataclass
class ProbeEntry:
    """One instance's trip through the layering pipeline."""

    n: int
    m: int
    k: int
    epsilon: float
    b: int
    variant: str                    # "keep" or "classic"
    s: int                          # max_i S_i
    opt: int
    ratio: float
    best_i: int
    s_by_class: list[int]
    cert_max_depth: int             # deepest realized peeling over all parts
    cert_ok: bool                   # every part within the b-1 budget

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in PROBE_COLUMNS}


@dataclass
class ProbeReport:
    """A corpus worth of probe entries plus ratio aggregation."""

    entries: list[ProbeEntry] = field(default_factory=list)

    def ratios(self) -> list[float]:
        return [e.ratio for e in self.entries]

    def histogram(self, bins: int = 10) -> list[int]:
        counts = [0] * bins
        for r in self.ratios():
            counts[min(int(r * bins), bins - 1)] += 1
        return counts

    def worst(self) -> ProbeEntry:
        return min(self.entries, key=lambda e: e.ratio)


def probe(g: Graph, k: int, epsilon: float, *, root: int = 0,
          classic: bool = False) -> ProbeEntry:
    """Run the layering heuristic and score it against the exact optimum.

    The heuristic solves each class subgraph exactly through `solve`,
    which joins the class's components, and keeps the best class.  A class
    with fewer than k vertices is scored at its full size: padding its
    solution with vertices from other levels never removes edges, so the
    score is a lower bound on what the padded heuristic would return and
    the ratio stays conservative.  The certified depth of a class is the
    deepest peeling its solve realized, which only upper-bounds the true
    outerplanarity index -- a failed check is a flag, not a proof.  A
    nonplanar input (scored by brute force, so only up to the oracle cap)
    may have nonplanar classes; those are scored by brute force too and
    fail certification with an effectively infinite depth.  Only the
    first BFS depth + 2 classes are built: each later one would be empty
    (keep) or the whole graph (classic), like the last one built.
    """
    if not 0 < epsilon or not math.isfinite(1 / epsilon):  # NaN included
        raise BadArgument("epsilon must be positive, with 1/epsilon "
                          f"finite, got {epsilon}")
    b = max(2, math.ceil(1 / epsilon))
    try:
        opt = solve(g, k).values[k]
        planar = True
    except NotPlanar:
        if g.n > ORACLE_VERTEX_CAP:
            raise CapExceeded(
                f"no exact reference: not planar and n={g.n} exceeds the "
                f"brute-force cap of {ORACLE_VERTEX_CAP}") from None
        opt = brute_force_all_k(g)[k]
        planar = False
    s_by_class: list[int] = []
    max_depth, all_ok = 1, True
    classes = min(b, max(bfs_levels(g, root), default=0) + 2)
    for _, gi in baker_decompose(g, classes, root=root, classic=classic):
        kk = min(k, gi.n)
        try:
            rep = solve(gi, kk)
            depth = rep.stats.get("levels", 1)
            ok = depth <= b - 1
            s_by_class.append(rep.values[kk])
        except NotPlanar:
            depth, ok = gi.n, False
            s_by_class.append(brute_force_all_k(gi)[kk])
        if planar and not classic and depth != 1:
            raise InternalError("a single-BFS-level component of a planar "
                                "graph is not outerplanar; either the BFS "
                                "or the recognizer is broken")
        max_depth, all_ok = max(max_depth, depth), all_ok and ok
    s = max(s_by_class)
    if s > opt:
        raise InternalError(f"an induced-subgraph solution ({s}) beat the "
                            f"exact optimum ({opt})")
    ratio = 1.0 if opt == 0 else s / opt
    return ProbeEntry(n=g.n, m=g.m, k=k, epsilon=epsilon, b=b,
                      variant="classic" if classic else "keep",
                      s=s, opt=opt, ratio=ratio,
                      best_i=s_by_class.index(s), s_by_class=s_by_class,
                      cert_max_depth=max_depth, cert_ok=all_ok)
