"""Seeded random instance generators.

Every construction here is geometric: vertices get coordinates, so
planarity holds by construction instead of by post-hoc embedding search,
and every generator but gen_planar returns the rotation system read off
its straight-line drawing.  gen_planar returns none, so its graphs are
embedded again when solved: its drawing's rotation would change the
outer face the leveled solver peels from, and with it the depth and the
leveled table dumps of the planar inputs it already made.  Randomness
comes exclusively from ``random.Random(seed)`` -- CPython's Mersenne
Twister, whose sequences are reproducible across platforms -- never from
the process-global generator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from dks.dp_outerplanar import is_outerplanar
from dks.embedding import compute_levels, planar_embed
from dks.errors import InfeasibleSpec, InternalError
from dks.graph import Graph
from dks.plane import rotations_from_coordinates

__all__ = ["GenSpec", "gen_outerplanar", "gen_bouterplanar", "gen_planar"]

# Successive ring radii shrink by this factor.  Keeping it under cos of the
# largest spoke span (60 degrees nearest + 45 extras, see _spokes) means a
# straight spoke never dips inside the circle its inner endpoint sits on,
# so the drawing stays crossing-free.
_RING_SHRINK = 0.3
_EXTRA_SPAN = math.pi / 4


@dataclass(frozen=True)
class GenSpec:
    """What to generate.  Equal specs yield equal graphs, always."""

    n: int
    b: int = 1
    rho: float = 0.5          # density knob: fraction of optional edges kept
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho <= 1.0:
            raise InfeasibleSpec(f"rho={self.rho} outside [0, 1]")
        if self.n < 0 or self.b < 1:
            raise InfeasibleSpec(f"bad sizes n={self.n}, b={self.b}")


def _circle_coords(n: int, radius: float = 1.0,
                   offset: float = 0.0) -> list[tuple[float, float]]:
    return [(radius * math.cos(offset + 2 * math.pi * i / n),
             radius * math.sin(offset + 2 * math.pi * i / n))
            for i in range(n)]


def gen_outerplanar(spec: GenSpec) -> Graph:
    """Cycle C_n plus a rho-fraction of one random maximal chord set.

    The chord set is a uniform-ish random triangulation of the polygon
    (recursive random ear choice), thinned by keeping round(rho * (n-3))
    of its chords; rho=0 gives the bare cycle, rho=1 a full triangulation.
    """
    n, rng = spec.n, random.Random(spec.seed)
    if n < 2:
        raise InfeasibleSpec("need at least two vertices")
    if n == 2:
        return Graph(2, [(0, 1)],
                     rotation=[[1], [0]], outer_face=[0, 1])
    edges = [(i, (i + 1) % n) for i in range(n)]
    chords: list[tuple[int, int]] = []
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        mid = rng.randint(lo + 1, hi - 1)
        if mid - lo > 1:
            chords.append((lo, mid))
        if hi - mid > 1:
            chords.append((mid, hi))
        stack += [(lo, mid), (mid, hi)]
    if len(chords) != n - 3:
        raise InternalError(f"{len(chords)} chords in a cycle of {n}, "
                            f"not {n - 3}")
    kept = sorted(rng.sample(sorted(chords), round(spec.rho * len(chords))))
    coords = _circle_coords(n)
    all_edges = edges + kept
    g = Graph(n, all_edges,
              rotation=rotations_from_coordinates(coords, all_edges),
              outer_face=list(range(n)))
    if not is_outerplanar(g):
        raise InternalError("generated graph is not outerplanar")
    return g


def _ring_sizes(n: int, b: int, rng: random.Random) -> list[int]:
    """Split n vertices into b nested rings, enclosing rings >= 3."""
    floor_n = 3 * (b - 1) + 1
    if n < floor_n:
        raise InfeasibleSpec(
            f"n={n} cannot hold {b} nested rings (needs at least {floor_n})")
    sizes = [3] * (b - 1) + [1]
    for _ in range(n - floor_n):
        sizes[rng.randrange(b)] += 1
    return sizes


def _spokes(inner: list[int], inner_ang: list[float], outer: list[int],
            outer_ang: list[float], rho: float,
            rng: random.Random) -> list[tuple[int, int]]:
    """Crossing-free fans from each inner-ring vertex to the ring outside.

    Each inner vertex always reaches its angularly nearest outer vertex
    (this alone keeps the graph connected); a random-length prefix of the
    outer vertices strictly between two consecutive nearest-targets is
    offered to the fan on their left, each kept with probability rho and
    only while within a fixed angular span of its inner endpoint.  When
    consecutive inner vertices share a nearest-target (the inner ring is
    locally denser than the outer one) the arc between them is empty and
    the left fan gets no extras -- anything more would sweep across the
    neighbouring fan and cross it.
    """
    so = len(outer)

    def gap(a: float, b: float) -> float:
        return abs((a - b + math.pi) % (2 * math.pi) - math.pi)

    nearest = [min(range(so), key=lambda w: gap(outer_ang[w], ang))
               for ang in inner_ang]
    edges = [(v, outer[nearest[j]]) for j, v in enumerate(inner)]
    for j, v in enumerate(inner):
        nxt = nearest[(j + 1) % len(inner)]
        between: list[int] = []
        if len(inner) == 1:
            between = [(nearest[j] + d) % so for d in range(1, so)]
            offered = between          # a hub owns the whole circle
        elif nxt == nearest[j]:
            offered = []               # shared target: the arc is empty
        else:
            w = (nearest[j] + 1) % so
            while w != nxt and w != nearest[j]:
                between.append(w)
                w = (w + 1) % so
            offered = between[:rng.randint(0, len(between))]
        for w in offered:
            if gap(outer_ang[w], inner_ang[j]) > _EXTRA_SPAN and len(inner) > 1:
                break
            if rng.random() < rho or len(inner) == 1:
                edges.append((v, outer[w]))
    return edges


def gen_bouterplanar(spec: GenSpec) -> Graph:
    """Concentric rings joined by random planar fans; exactly spec.b levels.

    Enclosing rings are cycles (size >= 3); the innermost may be a single
    hub, an edge, or a cycle.  The peeling depth of the result is checked
    against b before returning, so callers can rely on the realized level
    structure, not just the intended one.
    """
    if spec.b == 1:
        return gen_outerplanar(spec)
    rng = random.Random(spec.seed)
    sizes = _ring_sizes(spec.n, spec.b, rng)
    rings: list[list[int]] = []
    start = 0
    for sz in sizes:
        rings.append(list(range(start, start + sz)))
        start += sz

    coords: list[tuple[float, float]] = [(0.0, 0.0)] * spec.n
    angles: list[list[float]] = []
    radius = 1.0
    for i, ring in enumerate(rings):
        off = rng.uniform(0.0, 2 * math.pi)
        ring_ang = [off + 2 * math.pi * j / len(ring)
                    for j in range(len(ring))]
        if len(ring) == 1 and i == len(rings) - 1:
            ring_ang = [off]
            coords[ring[0]] = (0.0, 0.0)       # lone hub sits at the center
        else:
            for v, ang in zip(ring, ring_ang):
                coords[v] = (radius * math.cos(ang), radius * math.sin(ang))
        angles.append(ring_ang)
        radius *= _RING_SHRINK

    edges: list[tuple[int, int]] = []
    for ring in rings:
        if len(ring) == 2:
            edges.append((ring[0], ring[1]))
        elif len(ring) >= 3:
            edges += [(ring[j], ring[(j + 1) % len(ring)])
                      for j in range(len(ring))]
    for i in range(1, len(rings)):
        edges += _spokes(rings[i], angles[i], rings[i - 1], angles[i - 1],
                         spec.rho, rng)

    g = Graph(spec.n, edges,
              rotation=rotations_from_coordinates(coords, edges),
              outer_face=rings[0])
    le = compute_levels(g, *planar_embed(g))   # levels need no triangulation
    if le.depth != spec.b:
        raise InternalError(f"built {le.depth} levels, wanted {spec.b}")
    for i, ring in enumerate(rings):
        if any(le.level[v] != i + 1 for v in ring):
            raise InternalError(f"ring {i + 1} is not one level")
    return g


def gen_planar(spec: GenSpec) -> Graph:
    """Delaunay triangulation of seeded random points, edge-subsampled.

    rho is the per-edge keep probability: 1 keeps the full triangulation,
    0 keeps nothing (a forest of isolated vertices).  Connectivity is not
    guaranteed for rho < 1; callers that need it take a component.
    """
    n, rng = spec.n, random.Random(spec.seed)
    if n <= 1:
        return Graph(max(n, 0), [])
    if n == 2:
        return Graph(2, [(0, 1)] if rng.random() < spec.rho else [])
    from scipy.spatial import Delaunay  # deferred: big import

    pts = [(rng.random(), rng.random()) for _ in range(n)]
    tri = Delaunay(pts)
    full: set[tuple[int, int]] = set()
    for simplex in tri.simplices:
        vs = sorted(int(v) for v in simplex)
        full.update([(vs[0], vs[1]), (vs[0], vs[2]), (vs[1], vs[2])])
    edges = [e for e in sorted(full) if rng.random() < spec.rho]
    if len(full) > 3 * n - 6:
        raise InternalError(f"{len(full)} Delaunay edges on {n} points")
    return Graph(n, edges)
