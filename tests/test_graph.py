import math
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest

from dks.errors import FormatError
from dks.generators import (GenSpec, gen_bouterplanar, gen_outerplanar,
                            gen_planar)
from dks.graph import (Graph, component_subgraphs, dump_json, induced_subgraph,
                       parse_edge_list, parse_json)
from dks.plane import rotations_from_coordinates

from helpers import (degree, induced_edge_count, shaped_outerplanar,
                     triangle_chain)


def test_dedup_and_adjacency():
    g = Graph(n=3, edges=[(0, 1), (1, 0), (1, 2)])
    assert g.m == 2
    assert g.has_edge(0, 1) and g.has_edge(1, 2) and not g.has_edge(0, 2)
    assert degree(g, 1) == 2


def test_rejects_self_loop_and_range():
    with pytest.raises(FormatError):
        Graph(n=2, edges=[(0, 0)])
    with pytest.raises(FormatError):
        Graph(n=2, edges=[(0, 5)])


def test_parse_edge_list_names_in_first_appearance_order():
    g = parse_edge_list("c b\nb a\n# comment\na e\n")
    assert g.names == ["c", "b", "a", "e"]
    assert g.m == 3
    assert g.has_edge(0, 1)  # c-b


def test_parse_edge_list_isolated_vertex():
    g = parse_edge_list("a b\nz\n")
    assert g.n == 3
    assert degree(g, 2) == 0


def test_parse_json_roundtrip():
    g = parse_edge_list("a b\nb c\n")
    g2 = parse_json(dump_json(g))
    assert g2.names == g.names
    assert sorted(g2.edges) == sorted(g.edges)


def test_parse_json_rotation_and_outer_face():
    text = '{"vertices": ["a","b","c"], "edges": [["a","b"],["b","c"],["c","a"]],' \
           ' "rotation": {"a": ["b","c"], "b": ["c","a"], "c": ["a","b"]},' \
           ' "outer_face": ["a","b","c"]}'
    g = parse_json(text)
    assert g.rotation == [[1, 2], [2, 0], [0, 1]]
    assert g.outer_face == [0, 1, 2]


@pytest.mark.parametrize("fields", [
    '"vertices": 5, "edges": []',
    '"vertices": [0, 1], "edges": 5',
    '"vertices": [0, 1], "edges": [5]',
    '"vertices": [0, 1], "edges": [[0, 1, 1]]',
    '"vertices": [0, 1], "edges": ["01"]',
    '"vertices": [0, 1], "edges": [[0, 1]], "rotation": [1]',
    '"vertices": [0, 1], "edges": [[0, 1]], "rotation": {"0": 1}',
    '"vertices": [0, 1], "edges": [[0, 1]], "outer_face": 0',
    '"vertices": [0, 1], "edges": [[0, 2]]',
], ids=["vertices-int", "edges-int", "edge-int", "edge-of-3", "edge-str",
        "rotation-list", "rotation-entry-int", "outer-face-int",
        "unknown-vertex"])
def test_parse_json_refuses_malformed_graphs(fields):
    with pytest.raises(FormatError):
        parse_json("{" + fields + "}")


def test_induced_edge_count_and_masks():
    g = Graph(n=4, edges=[(0, 1), (1, 2), (2, 3), (3, 0)])
    assert induced_edge_count(g, 0b0011) == 1
    assert induced_edge_count(g, 0b1111) == 4
    masks = g.adj_masks()
    assert masks[0] == 0b1010


def test_connected_components():
    g = Graph(n=5, edges=[(0, 1), (2, 3)])
    assert g.connected_components() == [[0, 1], [2, 3], [4]]
    assert len(g.connected_components()) == 3
    # a connected graph's one component is the identity map, no list
    assert Graph(n=3, edges=[(0, 1), (1, 2)]).connected_components() == [
        range(3)]
    assert Graph(n=0, edges=[]).connected_components() == []


def _union(graphs, names=False, outer=None):
    """Disjoint union with rotation hints, edges interleaved across parts."""
    edges, rotation, off = [], [], 0
    for g in graphs:
        edges.append([(u + off, v + off) for u, v in g.edges])
        rotation += [[w + off for w in ws] for ws in g.rotation]
        off += g.n
    mixed = [e for i in range(max(map(len, edges))) for part in edges
             for e in part[i:i + 1]]
    return Graph(off, mixed, rotation=rotation,
                 names=[f"v{i}" for i in range(off)] if names else None,
                 outer_face=outer)


@pytest.mark.parametrize("seed", range(4))
def test_component_subgraphs_match_induced_subgraph(seed):
    parts = [gen_outerplanar(GenSpec(n=7, rho=0.6, seed=seed)),
             Graph(1, [], rotation=[[]]),
             gen_bouterplanar(GenSpec(n=9, b=2, rho=0.6, seed=seed)),
             Graph(2, [(0, 1)], rotation=[[1], [0]])]
    first = parts[0].outer_face
    for g in (_union(parts), _union(parts, names=True, outer=first),
              _union(parts, outer=[]), _union(parts, outer=[0, 7, 8])):
        comps = g.connected_components()
        cut = component_subgraphs(g, comps)
        for c in reversed(range(len(comps))):       # in any order
            sub, want = cut(c), induced_subgraph(g, comps[c])
            assert (sub.n, sub.edges, sub.names, sub.rotation,
                    sub.outer_face) == (want.n, want.edges, want.names,
                                        want.rotation, want.outer_face)


def _hexagon(outer):
    """Hexagon 0..5 drawn on a circle, with the chord 1-4."""
    coords = [(math.cos(math.pi * i / 3), math.sin(math.pi * i / 3))
              for i in range(6)]
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(1, 4)]
    return Graph(6, edges, rotation=rotations_from_coordinates(coords, edges),
                 outer_face=outer)


def _fields(sub):
    return sub.n, sub.edges, sub.names, sub.rotation, sub.outer_face


def test_component_subgraphs_drop_unlisted_vertices_and_cross_edges():
    # vertex 3 is in no part; the first part is listed out of order, and
    # the outer face, which holds vertex 3, survives in neither part
    g = _hexagon(outer=[0, 1, 2, 3, 4, 5])
    cut = component_subgraphs(g, [[4, 5, 0], [1, 2]])
    assert [_fields(cut(c)) for c in (0, 1)] == [
        (3, [(0, 1), (1, 2)], ["4", "5", "0"], [[1], [2, 0], [1]], None),
        (2, [(0, 1)], ["1", "2"], [[1], [0]], None)]


def test_component_subgraphs_keep_the_outer_face_in_its_one_part():
    # the quadrilateral face 1-2-3-4 lies wholly in the second part
    g = _hexagon(outer=[1, 2, 3, 4])
    cut = component_subgraphs(g, [[0, 5], [1, 2, 3, 4]])
    assert [_fields(cut(c)) for c in (0, 1)] == [
        (2, [(0, 1)], ["0", "5"], [[1], [0]], None),
        (4, [(0, 1), (1, 2), (2, 3), (0, 3)], ["1", "2", "3", "4"],
         [[3, 1], [2, 0], [3, 1], [0, 2]], [0, 1, 2, 3])]


def test_component_subgraphs_hand_back_only_a_range_part_uncopied():
    # [range(n)] is what connected_components() returns for a connected
    # graph; any other whole-graph part is a copy
    g = _hexagon(outer=[0, 1, 2, 3, 4, 5])
    same = component_subgraphs(g, [range(g.n)])(0)
    copy = component_subgraphs(g, [list(range(g.n))])(0)
    assert same is g
    assert copy is not g
    assert _fields(copy) == (g.n, g.edges, [str(v) for v in range(g.n)],
                             g.rotation, g.outer_face)
    assert induced_subgraph(g, list(range(g.n))) is not g


def _cut_vertices(blocks: list[list[int]]) -> set[int]:
    """The vertices in two or more blocks."""
    count = Counter(v for b in blocks for v in b)
    return {v for v, c in count.items() if c >= 2}


def test_blocks_and_cutpoints_on_two_triangles_sharing_a_vertex():
    # bowtie: triangles 0-1-2 and 2-3-4 share vertex 2
    g = Graph(n=5, edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    blocks, tops = g.blocks_and_cutpoints()
    assert _cut_vertices(blocks) == {2}
    assert blocks == [[2, 3, 4], [0, 1, 2]] and tops == [2, 0]
    # searched from 3, the search closes 0-1-2 first, below cutpoint 2
    assert g.blocks_and_cutpoints(root=3) == ([[0, 1, 2], [2, 3, 4]], [2, 3])


def test_blocks_on_path_are_single_edges():
    g = Graph(n=4, edges=[(0, 1), (1, 2), (2, 3)])
    blocks, tops = g.blocks_and_cutpoints()
    assert _cut_vertices(blocks) == {1, 2}
    assert blocks == [[2, 3], [1, 2], [0, 1]] and tops == [2, 1, 0]
    # from an inner vertex, each side is closed towards it, the larger
    # neighbour's side last
    assert g.blocks_and_cutpoints(root=1) == ([[0, 1], [2, 3], [1, 2]],
                                              [1, 2, 1])


def test_blocks_on_long_path_iterative():
    n = 30000
    g = Graph(n=n, edges=[(i, i + 1) for i in range(n - 1)])
    for root in (None, n // 2):
        blocks, tops = g.blocks_and_cutpoints(root=root)
        assert len(blocks) == n - 1 and all(len(b) == 2 for b in blocks)
        assert len(_cut_vertices(blocks)) == n - 2
        assert tops[-1] == (root or 0)


def _recognition_corpus():
    for s in range(6):
        yield gen_outerplanar(GenSpec(n=4 + 9 * s, rho=s / 5, seed=s))
        yield gen_bouterplanar(GenSpec(n=12 + 6 * s, b=2 + s % 3,
                                       rho=0.2 * s, seed=s))
        yield gen_planar(GenSpec(n=10 + 12 * s, rho=0.15 * (s + 1), seed=s))
    for n in (3, 4, 7, 30):
        yield from shaped_outerplanar(n)
    yield Graph(2, [(0, 1)])
    yield triangle_chain(2)                                    # bowtie
    yield Graph(9, triangle_chain(2).edges + [(6, 7)])         # isolated 5, 8


@pytest.mark.parametrize("g", list(_recognition_corpus()),
                         ids=lambda g: f"n{g.n}m{g.m}")
def test_blocks_and_cutpoints_match_networkx(g):
    # the CSR Hopcroft-Tarjan pass against networkx: the same blocks, as
    # ascending vertex lists, and the same cut vertices.  The edges g
    # induces inside the blocks are g's edges, each once (what the
    # readers of g.adj rely on); each block's top is one of its
    # vertices, and every vertex is a non-top member of at most one
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges)
    for root in (None, g.n - 1):
        blocks, tops = g.blocks_and_cutpoints(root=root)
        assert all(b == sorted(set(b)) and len(b) >= 2 for b in blocks)
        assert ({frozenset(b) for b in blocks}
                == {frozenset(c) for c in nx.biconnected_components(ref)})
        inside = [frozenset((u, v)) for b in blocks
                  for u, v in combinations(b, 2) if g.has_edge(u, v)]
        assert sorted(map(sorted, inside)) == sorted(map(list, g.edges))
        assert _cut_vertices(blocks) == set(nx.articulation_points(ref))
        assert len(tops) == len(blocks)
        assert all(t in b for b, t in zip(blocks, tops))
        below = [v for b, t in zip(blocks, tops) for v in b if v != t]
        assert len(below) == len(set(below))
        # a connected graph's last block closes at the search's start
        if nx.is_connected(ref):
            assert tops[-1] == (root or 0)
