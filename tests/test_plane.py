"""Rotation-system conventions, face tracing, and corner-chord insertion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dks.errors import EmbeddingInconsistent
from dks.generators import GenSpec, gen_bouterplanar
from dks.plane import PlaneGraph, rotations_from_coordinates

from helpers import succ


def orient(orbit):
    """Vertex cycle of an orbit."""
    return [u for u, _ in orbit]


def is_rotation(a, b):
    return len(a) == len(b) and any(
        a == b[i:] + b[:i] for i in range(len(b)))


# Unit square 0..3 ccw with center vertex 4 joined to all corners.
SQUARE_COORDS = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
SQUARE_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]


def square_plane():
    return PlaneGraph(rotations_from_coordinates(SQUARE_COORDS, SQUARE_EDGES))


def test_interior_faces_trace_ccw():
    p = square_plane()
    assert len(p.faces) == 5
    p.euler_check()
    tri = p.orbit((0, 1))
    assert tri[0] == (0, 1) and tri in p.faces
    assert is_rotation(orient(tri), [0, 1, 4])


def test_outer_face_traces_cw():
    p = square_plane()
    assert is_rotation(orient(p.orbit((1, 0))), [1, 0, 3, 2])


def test_succ_pred_are_ccw_neighbors():
    p = square_plane()
    # around the center, corners appear in ccw geometric order 0,1,2,3
    assert succ(p, 4, 0) == 1
    # left-face rule: after (1, 4) comes (4, w), w just before 1 around 4
    assert p.orbit((1, 4))[1] == (4, 0)


def test_pendant_edge_bounces():
    p = PlaneGraph([[1], [0]])
    assert p.orbit((0, 1)) == ((0, 1), (1, 0))
    assert len(p.faces) == 1


def test_twinless_half_edge_rejected():
    with pytest.raises(EmbeddingInconsistent):
        PlaneGraph([[1], []])


def test_pentagon_fan_insertion_order():
    import math
    coords = [(math.cos(2 * math.pi * t / 5), math.sin(2 * math.pi * t / 5))
              for t in range(5)]
    edges = [(t, (t + 1) % 5) for t in range(5)]
    p = PlaneGraph(rotations_from_coordinates(coords, edges))
    orbit = next(f for f in p.faces if (0, 1) in f)
    assert is_rotation(orient(orbit), [0, 1, 2, 3, 4])
    start = orbit.index((0, 1))
    # chords 0-2 and 0-3 as corner pairs of the interior face
    c = lambda v: (start + v) % 5  # corner of vertex v in this orbit
    p.insert_chords(orbit, [(c(0), c(2)), (c(0), c(3))])
    # ccw around vertex 0 the wedge must read 1, 2, 3, 4
    i = p.rot[0].index(1)
    got = [p.rot[0][(i + j) % 4] for j in range(4)]
    assert got == [1, 2, 3, 4]
    p.euler_check()              # the faces follow the chords unasked
    assert len(p.faces) == 4
    for f in p.faces:
        if (1, 0) not in f:
            assert len(f) == 3


def test_duplicate_chord_rejected():
    p = square_plane()
    outer = p.orbit((1, 0))
    with pytest.raises(EmbeddingInconsistent):
        # outer corners of 1 and 2: edge (1,2) already exists
        a = next(i for i, h in enumerate(outer) if h[0] == 1)
        b = next(i for i, h in enumerate(outer) if h[0] == 2)
        p.insert_chords(outer, [(a, b)])


def test_subgraph_faces_skip_removed_vertices():
    p = square_plane()
    orbits = p.orbits(range(4), lambda v: v != 4)
    assert sorted(len(o) for o in orbits) == [4, 4]
    cycles = [orient(o) for o in orbits]
    assert any(is_rotation(c, [0, 1, 2, 3]) for c in cycles)
    assert any(is_rotation(c, [1, 0, 3, 2]) for c in cycles)


def test_subgraph_faces_walk_a_bridge_twice():
    # path 0-1-2 drawn on a line: single orbit of length 4
    p = PlaneGraph(rotations_from_coordinates(
        [(0, 0), (1, 0), (2, 0)], [(0, 1), (1, 2)]))
    assert len(p.faces) == 1 and len(p.faces[0]) == 4
    assert p.orbit((1, 2), lambda v: v != 0) == ((1, 2), (2, 1))


@given(n=st.integers(7, 24), b=st.integers(1, 3), seed=st.integers(0, 999),
       picks=st.lists(st.integers(0, 10**6), max_size=8))
@settings(max_examples=40, deadline=None)
def test_faces_follow_chord_insertions(n, b, seed, picks):
    # after any run of corner chords the faces equal a fresh trace of the
    # rotation, with no call made to bring them up to date
    p = PlaneGraph(gen_bouterplanar(GenSpec(n=n, b=b, seed=seed)).rotation)
    for pick in picks:
        chords = [(f, i, j) for f in p.faces for i in range(len(f))
                  for j in range(i + 2, len(f))
                  if f[i][0] != f[j][0] and not p.has_edge(f[i][0], f[j][0])]
        if not chords:
            break
        f, i, j = chords[pick % len(chords)]
        p.insert_chords(f, [(i, j)])
        assert p.faces == PlaneGraph(p.rot).faces
    p.euler_check()
