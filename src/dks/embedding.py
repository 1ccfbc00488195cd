"""Planar embedding, vertex leveling, and annulus triangulation.

The embedding is the input's rotation system when it carries one.  A
rotation-less outerplanar graph is drawn from the blocks its caller's
recognition found, each block a convex polygon, so it lands on one
level; any other graph is embedded by networkx.  Nothing here decides
the graph class.

The leveling peels a connected plane graph from the outside in: vertices on
the outer face get level 1, and each run of the peel hands every bounded
face of the current layer's induced plane subgraph its enclosed blob of
deeper vertices.  When a face encloses several pieces they are stitched
into one blob with fake *connector* edges so each level component stays
connected: one pass over the plane's faces round the deeper vertices
chords, in each face, every two consecutive deep corners whose pieces are
not yet joined.  Every face walked here, of the whole plane, of one level
component, or the outer walk of the next blob, is a `PlaneGraph.orbit`;
the plane's own faces follow its chords by themselves, so nothing here
refreshes them.

After peeling, every bounded face whose corners span two consecutive levels
is triangulated with fake chords (never between same-level vertices when
the face is a clean annulus strip; a small DP fallback covers pinched
faces).  Fake edges live only in the rotation system — the input Graph
keeps real edges only, so edge counting downstream never sees them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from dks.errors import (BadArgument, EmbeddingInconsistent, InternalError,
                        NotPlanar, TriangulationIncomplete)
from dks.graph import Graph
from dks.plane import CW, HalfEdge, PlaneGraph

if TYPE_CHECKING:
    from dks.dp_outerplanar import Blocks

Orbit = tuple[HalfEdge, ...]

TRIANGULATIONS = ("zigzag", "zigzag_alt")      # the variants triangulate takes


def ccw_walk_of(orbit: Orbit) -> list[HalfEdge]:
    """Reverse a cw boundary orbit into a ccw closed walk."""
    return [(v, u) for (u, v) in reversed(orbit)]


def _outerplanar_rotation(g: Graph, blocks: Blocks) -> list[list[int]]:
    """Rotation system with every vertex on one face.

    Each block is drawn as a convex polygon over its outer cycle, so a
    vertex's neighbours in a block are ordered by cycle offset (walking
    the cycle backwards, which keeps the worked example's orientation);
    at a cutpoint each block's neighbours stay in one run, and a bridge
    is a single entry.  A block's neighbours are read from g.adj through
    its vertices other than its top; the top's are the vertices whose
    adjacency holds it.
    """
    rot: list[list[int]] = [[] for _ in range(g.n)]
    adj = g.adj
    for vs, top, cycle in zip(blocks.vertices, blocks.tops, blocks.cycles):
        if cycle is None:
            u, v = vs
            rot[u].append(v)
            rot[v].append(u)
            continue
        pos = {v: i for i, v in enumerate(cycle)}
        for v in cycle:
            ws = ([w for w in cycle if v in adj[w]] if v == top
                  else [w for w in adj[v] if w in pos])
            ws.sort(key=lambda w: (pos[v] - pos[w]) % len(cycle))
            rot[v] += ws
    return rot


def planar_embed(g: Graph,
                 blocks: Blocks | None = None) -> tuple[PlaneGraph, int]:
    """Embed a connected graph; returns (plane, outer face id).

    A rotation system supplied with the input is honored (and validated).
    Otherwise `blocks`, g's decomposition from the flat recognizer when
    the caller found g outerplanar, draws each block as a convex polygon,
    so every vertex lies on the longest face; else networkx computes one.
    Nothing is recognised here.  An explicit outer face is looked up in
    that drawing; without one the longest face is chosen, ties going to
    the face containing the smallest vertex.
    """
    if g.n < 2:
        raise EmbeddingInconsistent("embedding needs at least two vertices")
    rot = g.rotation
    if rot is not None:
        pairs = {frozenset(e) for e in g.edges}
        listed = {frozenset((v, w)) for v, ns in enumerate(rot) for w in ns}
        if pairs != listed:
            raise EmbeddingInconsistent("rotation does not list the edge set")
    elif blocks is not None:
        rot = _outerplanar_rotation(g, blocks)
    else:
        import networkx as nx  # deferred: `import dks` stays light
        ok, emb = nx.check_planarity(nx.Graph(g.edges), counterexample=False)
        if not ok:
            raise NotPlanar(f"graph with {g.n} vertices is not planar")
        rot = [list(reversed(list(emb.neighbors_cw_order(v))))
               if v in emb else [] for v in range(g.n)]
    plane = PlaneGraph(rot)
    plane.euler_check()

    if g.outer_face is not None:
        want = list(g.outer_face)
        for fid, orbit in enumerate(plane.faces):
            cyc = [u for u, _ in orbit]
            if len(cyc) == len(want) and set(cyc) == set(want):
                doubled = cyc + cyc
                for cand in (want, want[::-1]):
                    if any(doubled[i:i + len(cand)] == cand
                           for i in range(len(cyc))):
                        return plane, fid
        raise EmbeddingInconsistent("requested outer face is not a face")
    best = min(range(len(plane.faces)),
               key=lambda f: (-len(plane.faces[f]),
                              min(u for u, _ in plane.faces[f]),
                              plane.faces[f]))
    return plane, best


@dataclass
class LevelComponent:
    cid: int
    level: int
    vertices: list[int]
    walk: list[HalfEdge]              # ccw outer walk; [] for a singleton
    sub_faces: list[Orbit]            # bounded faces of the induced plane subgraph
    enclosures: dict[int, int] = field(default_factory=dict)  # face idx -> child cid
    parent: tuple[int, int] | None = None  # (parent cid, parent face idx)


@dataclass
class LeveledEmbedding:
    graph: Graph
    plane: PlaneGraph
    level: list[int]
    components: list[LevelComponent]
    connector_edges: set[frozenset]
    fake_edges: set[frozenset] = field(default_factory=set)

    @property
    def depth(self) -> int:
        return max(self.level)


def compute_levels(g: Graph, plane: PlaneGraph, outer_fid: int) -> LeveledEmbedding:
    """Peel a connected plane graph into levels and level components."""
    level = [0] * g.n
    comps: list[LevelComponent] = []
    connectors: set[frozenset] = set()

    tasks = [(set(range(g.n)), ccw_walk_of(plane.faces[outer_fid]), 1, None)]
    while tasks:
        blob, walk, lev, parent = tasks.pop()
        lset = {h[0] for h in walk} if walk else set(blob)
        for v in lset:
            if level[v]:
                raise InternalError(f"vertex {v} peeled at levels "
                                    f"{level[v]} and {lev}")
            level[v] = lev
        verts = sorted(lset)
        sub_faces: list[Orbit] = []
        if walk:
            orbits = plane.orbits(verts, lset.__contains__)
            back = (walk[0][1], walk[0][0])
            sub_faces = [o for o in orbits if back not in o]
            if len(sub_faces) != len(orbits) - 1:
                raise InternalError(f"level-{lev} walk bounds no single "
                                    "outer face of its component")
        cid = len(comps)
        comps.append(LevelComponent(cid, lev, verts, walk, sub_faces,
                                    parent=parent))
        if parent is not None:
            comps[parent[0]].enclosures[parent[1]] = cid

        deeper = blob - lset
        if not deeper:
            continue
        side2sub = {h: i for i, o in enumerate(sub_faces) for h in o}
        found: dict[int, tuple] = {}
        for blobset in _blobs(plane, deeper, connectors):
            w, d = next((w, d) for d in sorted(blobset)
                        for w in plane.rot[d] if w in lset)
            fi = side2sub.get((w, plane.first(w, d, CW, lset.__contains__)))
            if fi is None or fi in found:
                raise InternalError("a deep blob is not alone in a bounded "
                                    f"face of level component {cid}")
            sub_walk: list[HalfEdge] = []
            if len(blobset) > 1:
                x = plane.first(d, w, CW, blobset.__contains__)
                sub_walk = ccw_walk_of(plane.orbit((d, x),
                                                   blobset.__contains__))
            found[fi] = (blobset, sub_walk, lev + 1, (cid, fi))
        tasks += [found[fi] for fi in sorted(found)]

    if not all(level):
        raise InternalError("a vertex was left without a level")
    for u, v in g.edges:
        if abs(level[u] - level[v]) > 1:
            raise EmbeddingInconsistent(
                f"edge ({u},{v}) spans levels {level[u]},{level[v]}")
    return LeveledEmbedding(g, plane, level, comps, connectors)


def _blobs(plane: PlaneGraph, deeper: set[int],
           connectors: set[frozenset]) -> list[set[int]]:
    """The pieces of `deeper`, stitched into one blob per enclosing face.

    A union-find labels the pieces, one sweep hanging each off its first
    vertex.  Chords between consecutive corners of a face cannot cross,
    and a face lies inside one face of the level above, so the stitch
    pass never joins pieces of two enclosing faces.
    """
    up: dict[int, int] = {}
    pieces = 0
    for s in deeper:
        if s in up:
            continue
        up[s] = s
        pieces += 1
        stack = [s]
        while stack:
            for w in plane.rot[stack.pop()]:
                if w in deeper and w not in up:
                    up[w] = s
                    stack.append(w)
        if len(up) == len(deeper):
            break
    if pieces == 1:
        return [deeper]

    def find(v: int) -> int:
        while up[v] != v:
            up[v] = v = up[up[v]]
        return v

    def join(u: int, v: int) -> bool:
        a, b = find(u), find(v)
        up[a] = b
        return a != b

    for orbit in plane.orbits(sorted(deeper)):
        corners = [c for c, h in enumerate(orbit) if h[0] in up]
        chords = [(a, b) for a, b in zip(corners, corners[1:] + corners[:1])
                  if join(orbit[a][0], orbit[b][0])]
        if chords:
            plane.insert_chords(orbit, chords)
            connectors.update(frozenset((orbit[a][0], orbit[b][0]))
                              for a, b in chords)
    blobs: dict[int, set[int]] = {}
    for v in deeper:
        blobs.setdefault(find(v), set()).add(v)
    return list(blobs.values())


# -- triangulation --------------------------------------------------------


def triangulate(le: LeveledEmbedding, variant: str = "zigzag") -> LeveledEmbedding:
    """Add fake chords until every level-spanning bounded face is a triangle.

    `variant` picks which end of a strip face anchors the fan ("zigzag":
    the higher-id shallow endpoint; "zigzag_alt": the lower).  Results
    differ edge-by-edge but must never change any solver value, which the
    test suite exploits.
    """
    if variant not in TRIANGULATIONS:
        raise BadArgument(f"unknown triangulation variant {variant!r}")
    plane = le.plane
    x, y = le.components[0].walk[0]
    outer = set(plane.orbit((y, x)))      # the unbounded face gets no chord
    todo = [orbit for orbit in plane.faces
            if orbit[0] not in outer and len(orbit) > 3
            and len({le.level[h[0]] for h in orbit}) > 1]
    for orbit in todo:
        levs = {le.level[h[0]] for h in orbit}
        if max(levs) - min(levs) != 1:
            raise InternalError(f"a face spans levels {sorted(levs)}")
        chords = _strip_chords(orbit, le.level, variant)
        if chords is not None:
            try:
                plane.insert_chords(orbit, chords)
            except EmbeddingInconsistent:   # refused before any change
                chords = None
        if chords is None:
            chords = _fallback_chords(plane, orbit, le.level)
            plane.insert_chords(orbit, chords)
        for a, b in chords:
            e = frozenset((orbit[a][0], orbit[b][0]))
            if abs(le.level[orbit[a][0]] - le.level[orbit[b][0]]) > 1:
                raise InternalError(f"chord {sorted(e)} skips a level")
            le.fake_edges.add(e)
    for orbit in plane.faces:
        if orbit[0] not in outer and len({le.level[h[0]] for h in orbit}) > 1:
            if len(orbit) != 3:
                raise TriangulationIncomplete(
                    "level-spanning face left untriangulated")
    return le


def _strip_chords(orbit: Orbit, level: list[int],
                  variant: str) -> list[tuple[int, int]] | None:
    """Fan chords for a clean annulus strip: one shallow run, one deep run."""
    m = len(orbit)
    verts = [h[0] for h in orbit]
    hi = max(level[v] for v in verts)
    deep = [level[v] == hi for v in verts]
    flips = [i for i in range(m) if deep[i] != deep[i - 1]]
    if len(flips) != 2:
        return None
    s0 = flips[0] if not deep[flips[0]] else flips[1]
    shallow = []
    i = s0
    while not deep[i]:
        shallow.append(i)
        i = (i + 1) % m
    deeprun = []
    while deep[i]:
        deeprun.append(i)
        i = (i + 1) % m
    a, dn = len(shallow), len(deeprun)
    want_high = variant == "zigzag"
    if (verts[shallow[-1]] > verts[shallow[0]]) == want_high:
        anchor, other_cap = shallow[-1], deeprun[-1]
        fan = deeprun[1:] if a > 1 else deeprun[1:-1]
    else:
        anchor, other_cap = shallow[0], deeprun[0]
        fan = deeprun[:-1] if a > 1 else deeprun[1:-1]
    chords = [(anchor, j) for j in fan]
    chords += [(other_cap, j) for j in shallow[1:-1]]
    if len(chords) != a + dn - 3:
        raise TriangulationIncomplete(f"strip chords {chords} do not "
                                      f"triangulate a {a + dn}-gon")
    return chords


def _fallback_chords(plane: PlaneGraph, orbit: Orbit,
                     level: list[int]) -> list[tuple[int, int]]:
    """Polygon triangulation for pinched or reentrant faces.

    A pinched face visits a cut vertex more than once, so a chord may
    not loop a position onto itself, duplicate an edge the plane graph
    already has, or repeat a vertex pair another chosen chord uses.
    Those constraints are global, hence a backtracking ear split with a
    shared used-pair set; candidates are tried cheapest first so chords
    between levels win over chords within one.  Faces needing this path
    are small in practice, but a step budget keeps the worst case
    honest — exhausting it reports the face as untriangulable rather
    than stalling.
    """
    m = len(orbit)
    verts = [h[0] for h in orbit]
    used: set[frozenset] = set()
    chords: list[tuple[int, int]] = []
    budget = [50_000]

    def chord_pair(i: int, j: int):
        u, w = verts[i], verts[j]
        if u == w or plane.has_edge(u, w):
            return None
        return frozenset((u, w))

    def solve(i: int, j: int) -> bool:
        if j - i < 2:
            return True
        if budget[0] <= 0:
            return False
        budget[0] -= 1
        cands = []
        for t in range(i + 1, j):
            need, cost, ok = [], 0, True
            for p, q in ((i, t), (t, j)):
                if q - p == 1 or (p, q) == (0, m - 1):
                    continue
                pr = chord_pair(p, q)
                if pr is None or pr in used:
                    ok = False
                    break
                need.append(((p, q), pr))
                cost += 1 if level[verts[p]] != level[verts[q]] else 8
            if not ok or (len(need) == 2 and need[0][1] == need[1][1]):
                continue
            cands.append((cost, t, need))
        cands.sort(key=lambda c: (c[0], c[1]))
        for _, t, need in cands:
            mark = len(chords)
            for pos, pr in need:
                used.add(pr)
                chords.append(pos)
            if solve(i, t) and solve(t, j):
                return True
            while len(chords) > mark:
                p, q = chords.pop()
                used.discard(frozenset((verts[p], verts[q])))
        return False

    if solve(0, m - 1):
        return chords
    raise TriangulationIncomplete(
        f"face of size {m} admits no simple triangulation")


def embed_and_level(g: Graph, variant: str = "zigzag",
                    blocks: Blocks | None = None) -> LeveledEmbedding:
    plane, outer = planar_embed(g, blocks)
    le = compute_levels(g, plane, outer)
    return triangulate(le, variant)
