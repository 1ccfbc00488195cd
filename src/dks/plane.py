"""Combinatorial plane graphs as rotation systems.

A plane graph is stored as one counterclockwise neighbor list per vertex,
and its faces are derived from that rotation system by one rule, the
left-face rule of `PlaneGraph.orbit`: the half-edge following (u, v) is
(v, w) where w immediately precedes u in the ccw order around v.  Under
this rule every interior face comes out as a ccw orbit and the unbounded
face as the single cw orbit, which is how the rest of the package tells
them apart.  The same rule, skipping the vertices a subgraph leaves out,
traces the faces of an induced plane subgraph.

Edges are inserted only as *corner chords*: a new edge between two corners
of one existing face.  That is the only mutation the leveling and
triangulation passes need, and it keeps the rotation system planar by
construction.
"""

from __future__ import annotations

from dks.errors import EmbeddingInconsistent

HalfEdge = tuple[int, int]
CW, CCW = -1, 1     # steps through a ccw rotation list


class PlaneGraph:
    """A rotation system and the faces it defines.

    `faces` is traced from `rot` on its first read after a change, so it
    is never stale: `insert_chords`, the one mutation, drops it.
    """

    def __init__(self, rotations: list[list[int]]):
        self.rot: list[list[int]] = [list(ns) for ns in rotations]
        self.n = len(self.rot)
        self._pos: list[dict[int, int]] = [{} for _ in range(self.n)]
        for v, ns in enumerate(self.rot):
            for i, w in enumerate(ns):
                if w == v or w in self._pos[v]:
                    raise EmbeddingInconsistent(
                        f"rotation at vertex {v} repeats neighbor {w}")
                self._pos[v][w] = i
        for v in range(self.n):
            for w in self.rot[v]:
                if not (0 <= w < self.n) or v not in self._pos[w]:
                    raise EmbeddingInconsistent(
                        f"half-edge ({v},{w}) has no twin")
        self._faces: list[tuple[HalfEdge, ...]] | None = None

    # -- static structure ------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._pos[u]

    def edge_count(self) -> int:
        return sum(len(ns) for ns in self.rot) // 2

    def first(self, v: int, start: int, turn: int, allowed) -> int | None:
        """First neighbor of v strictly past `start`, stepping CW or CCW
        (`turn`) round v, that satisfies `allowed`.

        Scans the full rotation once; `start` itself is inspected last, so
        with no other hit a qualifying start vertex is returned (useful for
        tracing walks of subgraphs where the edge to `start` is absent).
        """
        ns = self.rot[v]
        i = self._pos[v][start]
        d = len(ns)
        for j in range(i + turn, i + turn * (d + 1), turn):
            w = ns[j % d]
            if allowed(w):
                return w
        return None

    def in_wedge(self, v: int, a: int, b: int, w: int) -> bool:
        """Whether neighbor w of v lies in the ccw wedge at v from
        neighbor a to neighbor b, both included; the wedge from a to a
        is the whole turn."""
        pos, d = self._pos[v], len(self.rot[v])
        return (pos[w] - pos[a]) % d <= ((pos[b] - pos[a]) % d or d)

    # -- face tracing ----------------------------------------------------

    def orbit(self, h: HalfEdge, keep=None) -> tuple[HalfEdge, ...]:
        """The face left of half-edge h, as the orbit that starts at h.

        With `keep`, the face is that of the plane subgraph on the
        vertices `keep` accepts: neighbors it rejects are skipped, and
        both ends of h must be kept.
        """
        rot, pos = self.rot, self._pos
        out = [h]
        u, v = h
        while True:
            w = (rot[v][pos[v][u] - 1] if keep is None
                 else self.first(v, u, CW, keep))
            if v == h[0] and w == h[1]:
                return tuple(out)
            out.append((v, w))
            u, v = v, w

    def orbits(self, vertices, keep=None) -> list[tuple[HalfEdge, ...]]:
        """Every orbit through a half-edge out of `vertices`, each traced
        from its first such half-edge in vertex then rotation order;
        `keep` as in `orbit`, and every listed vertex must be kept."""
        seen: set[HalfEdge] = set()
        out = []
        for v in vertices:
            for w in self.rot[v]:
                if (v, w) not in seen and (keep is None or keep(w)):
                    o = self.orbit((v, w), keep)
                    seen.update(o)
                    out.append(o)
        return out

    @property
    def faces(self) -> list[tuple[HalfEdge, ...]]:
        if self._faces is None:
            self._faces = self.orbits(range(self.n))
        return self._faces

    def euler_check(self) -> None:
        """V - E + F = 2, as for any connected plane graph."""
        if self.n - self.edge_count() + len(self.faces) != 2:
            raise EmbeddingInconsistent(
                f"Euler check failed: V={self.n} E={self.edge_count()} "
                f"F={len(self.faces)}")

    # -- mutation ---------------------------------------------------------

    def insert_chords(self, orbit: tuple[HalfEdge, ...],
                      chords: list[tuple[int, int]]) -> None:
        """Add pairwise non-crossing chords between corners of one face.

        `orbit` must be a current face orbit; each chord is a pair of
        corner indices into it (corner i sits between orbit[i-1] and
        orbit[i], at the source vertex of orbit[i]).  Chords are placed in
        each corner's angular wedge ordered by cyclic distance to the far
        corner, which is exactly the order a straight-line drawing would
        give for non-crossing chords.  A loop, an existing edge or a pair
        given twice raises EmbeddingInconsistent before anything changes.
        """
        m = len(orbit)
        per_corner: dict[int, list[tuple[int, int]]] = {}
        batch: set[frozenset[int]] = set()
        for a, b in chords:
            va, vb = orbit[a][0], orbit[b][0]
            if va == vb:
                raise EmbeddingInconsistent("chord endpoints coincide")
            pair = frozenset((va, vb))
            if self.has_edge(va, vb) or pair in batch:
                raise EmbeddingInconsistent(
                    f"chord ({va},{vb}) duplicates an existing edge")
            batch.add(pair)
            per_corner.setdefault(a, []).append(((b - a) % m, vb))
            per_corner.setdefault(b, []).append(((a - b) % m, va))
        for c, targets in per_corner.items():
            v, q = orbit[c]
            targets.sort()
            i = self._pos[v][q]
            self.rot[v][i + 1:i + 1] = [w for _, w in targets]
            self._pos[v] = {w: j for j, w in enumerate(self.rot[v])}
        self._faces = None


def rotations_from_coordinates(coords: list[tuple[float, float]],
                               edges) -> list[list[int]]:
    """CCW rotation system of a straight-line drawing (test/gen helper)."""
    import math

    adj: list[list[int]] = [[] for _ in coords]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rot = []
    for v, ns in enumerate(adj):
        x0, y0 = coords[v]
        rot.append(sorted(set(ns), key=lambda w: math.atan2(
            coords[w][1] - y0, coords[w][0] - x0)))
    return rot
