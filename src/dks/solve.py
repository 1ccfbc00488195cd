"""Front door: pick the right exact solver for whatever graph arrives.

The two dynamic programs are written for connected inputs of their own
class with at least two vertices.  This module owns the boring reality
around them, on one path for every input: one loop over the components
(a connected graph is its own one component), one-vertex components,
size guards, timing, and the optional witness: tables.replay through
the records of the value solve, each join's included, certified before
it is returned.  Each component is recognised once, in place, by one
block-cut pass over its own vertices: the flat solver folds an
outerplanar component on the input's own vertex ids, with no copy, and
only a component that is not flat is cut out as a Graph of its own for
the leveled solver.  The component vectors are joined into one running
vector by tables.convolve_max_plus, one call a component.
"""

from __future__ import annotations

import operator
import time

from dks.dp_bouterplanar import solve_bouterplanar_values
from dks.dp_outerplanar import (is_outerplanar, outerplanar_blocks,
                                solve_outerplanar_values)
from dks.embedding import TRIANGULATIONS
from dks.errors import BadArgument, InternalError, KTooLarge
from dks.graph import Graph, component_subgraphs
from dks.graph import induced_subgraph  # noqa: F401  (perfbench hooks it here)
from dks.report import SolveReport
from dks.tables import UNIT, Record, convolve_max_plus, replay

__all__ = ["SOLVERS", "solve", "solve_outerplanar", "solve_bouterplanar"]

SOLVERS = ("auto", "outerplanar", "bouterplanar")     # force_solver's names

# Per-component stats that describe the deepest piece, not a total.
_DEEPEST = ("levels", "max_rows")

# The terms of a one-vertex component's record, over its vertex's leaf
# and tables.UNIT: by size, the vertex in first, then out; and the one
# term of a component join
_ONE = ((0, 1, 0, 1, 0), (0, 0, 0, 0, 0))
_JOIN = ((0, 0, 0, 0, 0),)


def _values(g: Graph, k: int, *, force: str = "auto",
            triangulation: str = "zigzag", root: int | None = None,
            trace: list | None = None, stats: dict | None = None,
            witness: bool = False):
    """(solver name, exact optimum vector for k' = 0..min(k, n), pick).

    Any vertex count, any number of components; per-component vectors are
    joined by max-plus convolution, which preserves exactness.  A
    one-vertex component is answered here, with no solver.  Each other
    component is recognised once, in place, searched from `root` when
    it holds it (the flat fold starts where the search did): the flat
    solver folds it
    when it is outerplanar (pinning that solver raises NotOuterplanar on
    any other), else it is cut out of g for the leveled one.  With
    `witness`, pick(k') is a set of k' vertices that the tables of every
    component claim induces values[k'] edges: tables.replay from a
    record of each join, the running vector as it was built, over the
    one before and the component's top record (a cut-out component's
    with its vertex ids, to rename its leaves).  Else pick is None.
    """
    if stats is None:
        stats = {}
    cap = min(k, g.n)
    comps = g.connected_components()
    if len(comps) > 1:
        stats["pieces"] = len(comps)
    acc = [0]
    top = UNIT          # the record of acc, with a witness
    cut = None          # component_subgraphs(g, comps), once a part needs it
    # an edgeless input counts as solved by the pinned solver, or the flat one
    names = {"outerplanar" if force == "auto" else force}
    for c, keep in enumerate(comps):
        sk = min(cap, len(keep))
        rename = ()     # a part's leaves are in g's ids, unless it is cut out
        if len(keep) == 1:
            vec = [0, 0][:sk + 1]
            part = Record((vec,), (_ONE, Record(((0,), (0,)), (), keep),
                                   UNIT)) if witness else None
        else:
            part_root = root if root is not None and root in keep else None
            info: dict = {}
            blocks = (None if force == "bouterplanar"
                      else outerplanar_blocks(g, keep, part_root)
                      if force == "outerplanar"
                      else is_outerplanar(g, keep, part_root))
            if blocks is not None:
                names.add("outerplanar")
                vec, part = solve_outerplanar_values(
                    g, sk, trace=trace, stats=info, blocks=blocks,
                    witness=witness)
                del blocks  # gone before the next component is recognised
            else:
                names.add("bouterplanar")
                cut = cut or component_subgraphs(g, comps)
                sub = cut(c)
                vec, part = solve_bouterplanar_values(
                    sub, sk, triangulation=triangulation, trace=trace,
                    stats=info, witness=witness,
                    root=None if part_root is None else keep.index(part_root),
                    blocks=(is_outerplanar(sub) if force == "bouterplanar"
                            else None))
                del sub     # so the next component is built with this one gone
                rename = (keep,)
            for key, val in info.items():
                if key in _DEEPEST:
                    stats[key] = max(stats.get(key, 0), val)
                elif isinstance(val, int):
                    stats[key] = stats.get(key, 0) + val
        acc = convolve_max_plus(acc, vec, min(cap, len(acc) - 1 + sk))
        if witness:
            top = Record((acc,), (_JOIN, top, part) + rename)
    values = acc if type(acc) is list else acc.tolist()
    if len(values) != cap + 1 or min(values) < 0:
        raise InternalError("joined component vectors miss a size")
    name = "outerplanar" if names == {"outerplanar"} else "bouterplanar"
    return name, values, (lambda kp: replay(top, kp)) if witness else None


def solve(g: Graph, k: int, *, force_solver: str = "auto",
          triangulation: str = "zigzag", root: int | None = None,
          witness: bool = False, trace: list | None = None) -> SolveReport:
    """Exact densest-k-subgraph values for every k' = 0..k.

    Auto-detection tries the flat outerplanar program first and falls back
    to the leveled one; `force_solver` pins either path.  Raises
    BadArgument for a k or root that is not an integer (operator.index),
    k < 0, a root outside 0..n-1, or a `force_solver` or
    `triangulation` not in SOLVERS or TRIANGULATIONS, KTooLarge for
    k > n, and lets NotPlanar/NotOuterplanar bubble up from below.
    `trace` collects one event per DP table, from every component and
    either solver: a dict with the table's `branch` and `pivot`, the
    leveled tree `node` uid it belongs to (None for a flat table), the
    `table` itself and the `graph` whose vertex ids it uses: g itself for
    a flat component's table, not a copy, and a leveled component's own
    cut graph (g, when g is connected).

    With `witness`, the value solve keeps its tables, and the witness, k
    vertices in ascending order, is found by replaying the optimum's
    cell back down them (tables.replay): through the component joins and
    every combine of both DPs.  It is checked before it is returned: k
    distinct vertices that induce exactly values[k] edges, or
    InternalError.
    """
    try:
        k = operator.index(k)
        root = None if root is None else operator.index(root)
    except TypeError:
        raise BadArgument(f"k and root must be integers, got k={k!r}, "
                          f"root={root!r}") from None
    if k < 0:
        raise BadArgument(f"k must be nonnegative, got {k}")
    if root is not None and not 0 <= root < g.n:
        raise BadArgument(f"root {root} is not one of the {g.n} vertices")
    if force_solver not in SOLVERS:
        raise BadArgument(f"unknown solver {force_solver!r}")
    if triangulation not in TRIANGULATIONS:
        raise BadArgument(f"unknown triangulation variant {triangulation!r}")
    if k > g.n:
        raise KTooLarge(f"k={k} but the graph has only {g.n} vertices")
    t0 = time.perf_counter()
    stats: dict = {}
    name, values, pick = _values(g, k, force=force_solver,
                                 triangulation=triangulation, root=root,
                                 trace=trace, stats=stats, witness=witness)
    rep = SolveReport(k=k, values=values, solver=name,
                      seconds=time.perf_counter() - t0, stats=stats)
    if witness:
        rep.witness = _certified(g, k, sorted(pick(k)), values[k])
    return rep


def _certified(g: Graph, k: int, chosen: list[int],
               target: int) -> list[int]:
    """chosen, once it is k distinct vertices of g, ascending, inducing
    exactly `target` edges; InternalError otherwise."""
    sel = set(chosen)
    if (len(sel) != k or len(chosen) != k
            or not all(0 <= v < g.n for v in chosen)):
        raise InternalError(f"witness {chosen} is not a set of {k} "
                            f"vertices")
    got = sum(1 for u, v in g.edges if u in sel and v in sel)
    if got != target:
        raise InternalError(f"witness {chosen} induces {got} edges, the "
                            f"optimum is {target}")
    return chosen


def solve_outerplanar(g: Graph, k: int, **kwargs) -> SolveReport:
    """solve() pinned to the flat outerplanar program."""
    return solve(g, k, force_solver="outerplanar", **kwargs)


def solve_bouterplanar(g: Graph, k: int, **kwargs) -> SolveReport:
    """solve() pinned to the leveled program (works on any planar input)."""
    return solve(g, k, force_solver="bouterplanar", **kwargs)
