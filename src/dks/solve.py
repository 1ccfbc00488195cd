"""Front door: pick the right exact solver for whatever graph arrives.

The two dynamic programs are written for connected inputs of their own
class.  This module owns the boring reality around them: class detection,
disconnected inputs, size guards, timing, and optional witness recovery.
"""

from __future__ import annotations

import time

from dks.dp_bouterplanar import solve_bouterplanar_values
from dks.dp_outerplanar import (is_outerplanar, outerplanar_blocks,
                                solve_outerplanar_values)
from dks.errors import InternalError, KTooLarge
from dks.graph import Graph, component_subgraphs, induced_subgraph
from dks.report import SolveReport
from dks.tables import convolve_max_plus

__all__ = ["solve", "solve_outerplanar", "solve_bouterplanar"]

# Per-component stats that describe the deepest piece, not a total.
_DEEPEST = ("levels", "max_rows")


def _connected_values(g: Graph, k: int, *, force: str, triangulation: str,
                      root: int | None, trace: list | None, stats: dict):
    """The flat solver when it applies (pinning it raises NotOuterplanar
    on any other input), else the leveled one."""
    if force == "auto":
        blocks = is_outerplanar(g)
    elif force == "outerplanar":
        blocks = outerplanar_blocks(g)
    else:
        blocks = None
    if blocks is not None:
        vals = solve_outerplanar_values(g, k, root=root, trace=trace,
                                        stats=stats, blocks=blocks)
        return "outerplanar", vals
    vals = solve_bouterplanar_values(g, k, root=root,
                                     triangulation=triangulation,
                                     trace=trace, stats=stats)
    return "bouterplanar", vals


def _values(g: Graph, k: int, *, force: str = "auto",
            triangulation: str = "zigzag", root: int | None = None,
            trace: list | None = None, stats: dict | None = None):
    """(solver name, exact optimum vector for k' = 0..min(k, n)).

    Any vertex count, any number of components; per-component vectors are
    joined by max-plus convolution, which preserves exactness.
    """
    if stats is None:
        stats = {}
    cap = min(k, g.n)
    if g.n == 0:
        return (force if force != "auto" else "outerplanar"), [0]
    comps = g.connected_components()
    if len(comps) == 1:
        return _connected_values(g, cap, force=force,
                                 triangulation=triangulation, root=root,
                                 trace=trace, stats=stats)
    stats["pieces"] = len(comps)
    acc: list[int | None] = [0]
    names = set()
    for keep, sub in component_subgraphs(g, comps):
        sk = min(cap, sub.n)
        sub_root = keep.index(root) if root in keep else None
        part: dict = {}
        name, vec = _connected_values(sub, sk, force=force,
                                      triangulation=triangulation,
                                      root=sub_root, trace=trace, stats=part)
        del sub  # so the next component is built with this one gone
        names.add(name)
        for key, val in part.items():
            if key in _DEEPEST:
                stats[key] = max(stats.get(key, 0), val)
            elif isinstance(val, int):
                stats[key] = stats.get(key, 0) + val
        acc = convolve_max_plus(acc, vec, min(cap, len(acc) - 1 + sk))
    if len(acc) != cap + 1 or None in acc:
        raise InternalError("joined component vectors miss a size")
    return ("outerplanar" if names == {"outerplanar"} else "bouterplanar"), acc


def solve(g: Graph, k: int, *, force_solver: str = "auto",
          triangulation: str = "zigzag", root: int | None = None,
          witness: bool = False, trace: list | None = None) -> SolveReport:
    """Exact densest-k-subgraph values for every k' = 0..k.

    Auto-detection tries the flat outerplanar program first and falls back
    to the leveled one; `force_solver` pins either path.  Raises KTooLarge
    for k > n and lets NotPlanar/NotOuterplanar bubble up from below.
    `trace` collects one event per DP table, from every component and
    either solver: a dict with the table's `branch` and `pivot`, the
    `table` itself and the `graph` whose vertex ids it uses.
    """
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
    if k > g.n:
        raise KTooLarge(f"k={k} but the graph has only {g.n} vertices")
    t0 = time.perf_counter()
    stats: dict = {}
    name, values = _values(g, k, force=force_solver,
                           triangulation=triangulation, root=root,
                           trace=trace, stats=stats)
    rep = SolveReport(k=k, values=values, solver=name,
                      seconds=time.perf_counter() - t0, stats=stats)
    if witness:
        rep.witness = _witness(g, k, values[k], force_solver, triangulation)
    return rep


def solve_outerplanar(g: Graph, k: int, **kwargs) -> SolveReport:
    """solve() pinned to the flat outerplanar program."""
    return solve(g, k, force_solver="outerplanar", **kwargs)


def solve_bouterplanar(g: Graph, k: int, **kwargs) -> SolveReport:
    """solve() pinned to the leveled program (works on any planar input)."""
    return solve(g, k, force_solver="bouterplanar", **kwargs)


def _witness(g: Graph, k: int, target: int, force: str,
             triangulation: str) -> list[int]:
    """A vertex set achieving the optimum, by greedy self-reduction.

    While more than k vertices remain, some vertex lies outside at least
    one optimal set, so deleting it leaves the optimum intact.  One pass
    with a cursor finds them: a vertex whose deletion lowered the optimum
    lies in every optimal set of the graph it was tried on, and every
    later graph is a subgraph with the same optimum, whose optimal sets
    are optimal sets of that graph too; so it never needs a second try,
    and at most n tries are made.  Rescanning from the first vertex after
    each deletion returns the same set, with up to O(n^2) tries.

    A try re-solves only the components its deletion touched: each
    component's value vector is kept, keyed by its vertices, and the
    vectors are joined by max-plus convolution as in `_values`.
    """
    memo: dict[tuple[int, ...], list[int | None]] = {}

    def optimum(keep: list[int]) -> int:
        if not keep:
            return 0
        h = induced_subgraph(g, keep)
        acc = None
        for comp in h.connected_components():
            key = tuple(keep[v] for v in comp)
            vec = memo.get(key)
            if vec is None:
                sub = h if len(comp) == h.n else induced_subgraph(h, comp)
                _, vec = _connected_values(
                    sub, min(k, sub.n), force=force,
                    triangulation=triangulation, root=None, trace=None,
                    stats={})
                memo[key] = vec
            acc = vec if acc is None else convolve_max_plus(
                acc, vec, min(k, len(acc) + len(vec) - 2))
        return acc[k]

    keep = list(range(g.n))
    i = 0
    while len(keep) > k:
        if i == len(keep):
            raise InternalError("witness reduction is stuck; no vertex is "
                                "removable, which contradicts exactness")
        rest = keep[:i] + keep[i + 1:]
        if optimum(rest) == target:
            keep = rest
        else:
            i += 1
    return keep
