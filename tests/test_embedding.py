import math

import networkx as nx
import pytest

from dks.dp_outerplanar import is_outerplanar
from dks.embedding import compute_levels, embed_and_level, planar_embed
from dks.errors import EmbeddingInconsistent, NotPlanar
from dks.generators import GenSpec, gen_outerplanar
from dks.graph import Graph
from dks.oracle import brute_force_all_k
from dks.plane import PlaneGraph, rotations_from_coordinates
from dks.solve import solve_bouterplanar, solve_outerplanar

from helpers import FIG_ID, figure_graph, hex_two_pendants, nm, wheel


def fz(a, b):
    return frozenset((a, b))


def test_figure_levels_follow_rings():
    le = embed_and_level(figure_graph())
    by_level = {}
    for name, vid in FIG_ID.items():
        by_level.setdefault(le.level[vid], set()).add(name)
    assert by_level == {1: {"A", "B", "C", "D", "E"},
                        2: {"a", "b", "c", "d"},
                        3: {"1"}}
    assert le.depth == 3
    assert le.connector_edges == set()


def test_figure_components_and_walks():
    g = figure_graph()
    plane, outer = planar_embed(g)
    le = compute_levels(g, plane, outer)
    assert [c.level for c in le.components] == [1, 2, 3]
    c0, c1, c2 = le.components
    assert c0.walk == [(FIG_ID[u], FIG_ID[v]) for u, v in
                       [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"),
                        ("E", "A")]]
    assert c1.walk == [(FIG_ID[u], FIG_ID[v]) for u, v in
                       [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]]
    assert c1.vertices == sorted(nm("a", "b", "c", "d"))
    assert c2.vertices == [FIG_ID["1"]] and c2.walk == []

    # outermost component: a four-face and the chorded-off triangle
    assert [sorted({u for u, _ in f}) for f in c0.sub_faces] == \
        [sorted(nm("A", "B", "C", "E")), sorted(nm("C", "D", "E"))]
    assert c0.enclosures == {0: 1}
    assert [sorted({u for u, _ in f}) for f in c1.sub_faces] == \
        [sorted(nm("a", "b", "d")), sorted(nm("b", "c", "d"))]
    assert c1.enclosures == {1: 2}
    assert c1.parent == (0, 0) and c2.parent == (1, 1)


def test_figure_triangulation_variants():
    le = embed_and_level(figure_graph(), variant="zigzag")
    assert le.fake_edges == {fz(*nm("B", "a")), fz(*nm("E", "a")),
                             fz(*nm("1", "c"))}
    assert le.plane.edge_count() == 19 + 3

    alt = embed_and_level(figure_graph(), variant="zigzag_alt")
    assert alt.fake_edges == {fz(*nm("A", "b")), fz(*nm("A", "d")),
                              fz(*nm("1", "c"))}


def test_wheel_needs_no_fakes():
    le = embed_and_level(wheel(5))
    hub = 5
    assert le.level == [1, 1, 1, 1, 1, 2]
    assert le.fake_edges == set() and le.connector_edges == set()
    assert le.components[1].vertices == [hub]
    assert le.components[1].walk == []


def test_faces_are_traced_once_before_and_once_after_triangulation(
        monkeypatch):
    # every face-set trace goes through PlaneGraph.orbits: the drawing's
    # faces once, then each level component's own faces once.  The wheel's
    # hub needs no connector and is a singleton with no faces, and its
    # triangulation adds no chord, so its faces are never traced again.
    # The figure's triangulation adds chords, which traces them once more.
    calls = []
    real = PlaneGraph.orbits
    monkeypatch.setattr(PlaneGraph, "orbits",
                        lambda self, *a: calls.append(1) or real(self, *a))
    for variant in ("zigzag", "zigzag_alt"):
        calls.clear()
        le = embed_and_level(wheel(5), variant=variant)
        assert le.connector_edges == set() and len(calls) == 2
        calls.clear()
        le = embed_and_level(figure_graph(), variant=variant)
        assert le.connector_edges == set() and le.fake_edges
        assert len(calls) == 1 + 2 + 1


def test_two_pendants_get_connected():
    le = embed_and_level(hex_two_pendants())
    assert le.level == [1, 1, 1, 1, 1, 1, 2, 2]
    assert le.connector_edges == {fz(6, 7)}
    c1 = le.components[1]
    assert c1.vertices == [6, 7]
    assert len(c1.walk) == 2    # single tree edge, walked twice
    # the stitched hexagon splits into two six-faces, three fill chords each
    assert len(le.fake_edges) == 6
    assert fz(1, 6) in le.fake_edges and fz(2, 6) in le.fake_edges
    for e in le.fake_edges:
        u, v = sorted(e)
        assert abs(le.level[u] - le.level[v]) <= 1
    assert le.plane.edge_count() == 8 + 1 + 6


def polygon_with_pendants(sides: int, pendants: int) -> Graph:
    """A convex polygon whose one bounded face holds `pendants` separate
    one-vertex pendants, hung off evenly spread polygon corners."""
    at = [sides * i // pendants for i in range(pendants)]
    ring = [(2 * math.cos(2 * math.pi * i / sides),
             2 * math.sin(2 * math.pi * i / sides)) for i in range(sides)]
    coords = ring + [(x / 2, y / 2) for x, y in (ring[i] for i in at)]
    edges = [(i, (i + 1) % sides) for i in range(sides)]
    edges += [(i, sides + j) for j, i in enumerate(at)]
    return Graph(len(coords), edges,
                 rotation=rotations_from_coordinates(coords, edges),
                 outer_face=list(range(sides)))


def test_pendants_of_one_face_are_stitched_in_one_pass(monkeypatch):
    # c pieces in one face need c - 1 connectors, and they all come from
    # one trace of the faces round the pieces, whatever c is
    calls = []
    real = PlaneGraph.orbits
    monkeypatch.setattr(PlaneGraph, "orbits",
                        lambda self, *a: calls.append(1) or real(self, *a))
    traces = set()
    for c in (2, 4, 8):
        g = polygon_with_pendants(8, c)
        calls.clear()
        le = embed_and_level(g)
        traces.add(len(calls))
        assert len(le.connector_edges) == c - 1
        assert le.level == [1] * 8 + [2] * c
        assert [len(x.vertices) for x in le.components] == [8, c]
        want = brute_force_all_k(g)
        for variant in ("zigzag", "zigzag_alt"):
            assert solve_bouterplanar(g, g.n,
                                      triangulation=variant).values == want
    assert len(traces) == 1


def fan_of_triangles(rim: int) -> Graph:
    """A hub joined to a path of `rim` vertices, with one vertex inside
    each of the rim - 1 triangles, joined to its three corners."""
    coords = [(0.0, 0.0)] + [(math.cos(a), math.sin(a)) for a in
                             (math.pi * i / rim for i in range(rim))]
    edges = [(0, i) for i in range(1, rim + 1)]
    edges += [(i, i + 1) for i in range(1, rim)]
    for i in range(1, rim):
        v = len(coords)
        coords.append(((coords[i][0] + coords[i + 1][0]) / 3,
                       (coords[i][1] + coords[i + 1][1]) / 3))
        edges += [(v, 0), (v, i), (v, i + 1)]
    return Graph(len(coords), edges,
                 rotation=rotations_from_coordinates(coords, edges))


def test_fan_gives_each_inner_vertex_its_own_face():
    N = 50
    le = embed_and_level(fan_of_triangles(N))
    assert le.connector_edges == set()
    top, *deep = le.components
    assert top.vertices == list(range(N + 1))
    assert len(deep) == N - 1
    assert all(c.level == 2 and len(c.vertices) == 1 and c.walk == []
               for c in deep)
    faces = [c.parent[1] for c in deep]
    assert len(set(faces)) == N - 1 and all(c.parent[0] == 0 for c in deep)
    assert sorted(top.enclosures) == sorted(faces)


def test_tree_walk_doubles_every_edge():
    g = Graph(3, [(0, 1), (1, 2)])
    plane, outer = planar_embed(g, is_outerplanar(g))
    le = compute_levels(g, plane, outer)
    assert le.level == [1, 1, 1]
    (c,) = le.components
    assert len(c.walk) == 4 and c.sub_faces == []


def test_figure_without_rotation_still_levels():
    # free embedding: ring structure may differ, invariants may not
    le = embed_and_level(figure_graph(with_rotation=False))
    assert all(lv >= 1 for lv in le.level)
    for u, v in le.graph.edges:
        assert abs(le.level[u] - le.level[v]) <= 1
    for e in le.fake_edges | le.connector_edges:
        assert not le.graph.has_edge(*sorted(e))


def test_bogus_outer_face_rejected():
    g = figure_graph()
    g.outer_face = [FIG_ID["A"], FIG_ID["B"], FIG_ID["C"]]
    with pytest.raises(EmbeddingInconsistent):
        planar_embed(g)


def test_nonplanar_rejected():
    k5 = Graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    with pytest.raises(NotPlanar):
        planar_embed(k5)



def _rotationless_outerplanar():
    for s in range(120):
        g = gen_outerplanar(GenSpec(n=4 + s % 9, rho=(s % 5) / 4, seed=s))
        yield Graph(g.n, g.edges)
    for n in range(2, 9):
        yield Graph(n, [(i, i + 1) for i in range(n - 1)])        # path
        yield Graph(n, [(0, i) for i in range(1, n)])             # star
        if n >= 3:
            yield Graph(n, [(i, (i + 1) % n) for i in range(n)])  # cycle
    yield Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])  # bowtie
    # named outer face: networkx draws these chords so that the rim is no
    # face, while the blocks' convex drawing keeps it one
    yield Graph(6, [(i, (i + 1) % 6) for i in range(6)]
                + [(0, 2), (0, 3), (3, 5)], outer_face=list(range(6)))


def test_outerplanar_input_embeds_on_one_level():
    # the flat recognizer's blocks give an embedding with every vertex on
    # the outer face, so the leveled solver sees one level and no fakes
    for g in _rotationless_outerplanar():
        flat = solve_outerplanar(g, g.n).values
        for variant in ("zigzag", "zigzag_alt"):
            le = embed_and_level(g, variant, blocks=is_outerplanar(g))
            assert le.depth == 1, g.edges
            assert not le.fake_edges and not le.connector_edges, g.edges
            got = solve_bouterplanar(g, g.n, triangulation=variant).values
            assert got == flat, (variant, g.edges)


def test_embedding_recognises_nothing(monkeypatch):
    # recognition is solve()'s: a rotation-less graph is drawn from the
    # blocks it is handed, or else by networkx
    calls = []
    real = Graph.blocks_and_cutpoints
    monkeypatch.setattr(Graph, "blocks_and_cutpoints",
                        lambda self: calls.append(self.n) or real(self))
    hexagon = Graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
    assert embed_and_level(hexagon).depth == 1
    assert calls == []


def test_planarity_test_runs_only_off_outerplanar_inputs(monkeypatch):
    calls = []
    real = nx.check_planarity
    monkeypatch.setattr(nx, "check_planarity",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3),
                  (0, 4)])
    planar_embed(g, is_outerplanar(g))
    assert len(calls) == 0
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    planar_embed(k4)
    assert len(calls) == 1
