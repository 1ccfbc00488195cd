"""Decomposition trees for level components of a plane graph.

Each level component gets a tree whose leaves are exactly the half-edges of
its ccw outer walk, in walk order.  Internal nodes are the bounded faces of
the component's own plane subgraph, entered either by crossing a chord
(face child) or by stepping into a face that hangs off a cut vertex while
the walk detours (region child); maximal detours over bridges become
bridge nodes whose two leaf children are the two traversals.  Labels chain:
a node (x, y) covers a contiguous stretch of the walk from x to y, and the
children of any node chain x -> ... -> y left to right.

Trees of nested components are linked through faces: a face that encloses
a deeper component keeps a pointer to it, and every node of a deeper tree
carries *window numbers* (lbn, rbn) locating its walk stretch between two
of the enclosing face node's children, plus *boundary vectors* (lbound,
rbound) listing one vertex per level from itself outward.  Window numbers
come from one sweep around the triangulated ladder between the walk and
the enclosing face node's children: each triangle advances either the
window slot or the walk position, so the sweep reads off which stretch of
slots every walk visit is drawn against.  The fill triangulation exists
precisely to make that ladder complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from dks.embedding import LevelComponent, LeveledEmbedding
from dks.errors import (BadArgument, BoundaryMismatch, InternalError,
                        NoDividingPoint, TriangulationIncomplete)
from dks.plane import CCW, HalfEdge


@dataclass
class TreeNode:
    x: int
    y: int
    comp: int
    kind: str                     # leaf | face | region | bridge | root | single
    face: int | None = None       # index into the component's sub_faces
    children: list["TreeNode"] = field(default_factory=list)
    countable: bool = True        # leaves: does this traversal count the edge?
    uid: int = -1
    lbn: int = 0                  # window numbers (levels >= 2 only)
    rbn: int = 0
    pivot: int = 0                # handover slot for childless nodes
    lbound: tuple[int, ...] = ()
    rbound: tuple[int, ...] = ()

    def __repr__(self):  # keep hypothesis/pytest output readable
        return (f"TreeNode#{self.uid}({self.x},{self.y},{self.kind},"
                f"c{self.comp},w[{self.lbn},{self.rbn}))")


@dataclass
class ComponentTree:
    comp: int
    root: TreeNode
    nodes: list[TreeNode]
    leaves: list[TreeNode]                 # walk order
    face_to_node: dict[int, TreeNode]
    parent_node: TreeNode | None = None    # enclosing face node, levels >= 2
    zlabels: list[int | None] | None = None  # 1-indexed window vertex labels


@dataclass
class Forest:
    le: LeveledEmbedding
    trees: list[ComponentTree]
    nodes: list[TreeNode]                  # uid-indexed, across components

    def enclosed_component(self, node: TreeNode) -> int | None:
        if node.face is None:
            return None
        return self.le.components[node.comp].enclosures.get(node.face)


def build_forest(le: LeveledEmbedding, root: int | None = None) -> Forest:
    uid_gen = count()
    trees: list[ComponentTree] = []
    all_nodes: list[TreeNode] = []
    for comp in le.components:
        if comp.level == 1:
            tree = _build_tree(comp, _orient_outermost(comp, root), None,
                               uid_gen)
            for leaf in tree.leaves:
                if not le.graph.has_edge(leaf.x, leaf.y):
                    raise InternalError(f"outermost walk edge ({leaf.x},"
                                        f"{leaf.y}) is not in the graph")
            for node in tree.nodes:
                node.lbound, node.rbound = (node.x,), (node.y,)
        else:
            pcid, pface = comp.parent
            vf = trees[pcid].face_to_node[pface]
            tree = _build_tree(comp, _orient_deeper(le, comp, vf), vf,
                               uid_gen)
            _assign_windows(le, tree)
            _assign_boundaries(le, tree)
        trees.append(tree)
        all_nodes.extend(tree.nodes)
    return Forest(le, trees, all_nodes)


# -- walk orientation ------------------------------------------------------


def _orient_outermost(comp: LevelComponent, root: int | None) -> list[HalfEdge]:
    if not comp.walk:
        return []
    sources = {h[0] for h in comp.walk}
    if root is None:
        z = min(sources)
    elif root in sources:
        z = root
    else:
        raise BadArgument(f"root vertex {root} is not on the outermost boundary")
    occ = min((v, i) for i, (u, v) in enumerate(comp.walk) if u == z)[1]
    return comp.walk[occ:] + comp.walk[:occ]


def _deep_root_vertex(le: LeveledEmbedding, comp: LevelComponent,
                      vf: TreeNode) -> int:
    cset = set(comp.vertices)
    if len(cset) == 1:
        return comp.vertices[0]
    plane, x, y = le.plane, vf.x, vf.y
    if x == y:
        cands = [w for w in plane.rot[x] if w in cset]
        if not cands:
            raise TriangulationIncomplete(
                f"no inner vertex attached at corner {x}")
        return min(cands)
    # the enclosing face lies left of (y, x); after filling, that side is a
    # triangle whose third corner is the canonical deeper root
    third = {u for u, _ in plane.orbit((y, x))} - {x, y}
    if len(third) == 1 and (z := third.pop()) in cset:
        return z
    cands = [w for w in cset if plane.has_edge(w, x) and plane.has_edge(w, y)]
    if not cands:
        raise TriangulationIncomplete(
            f"no inner vertex spans the closing edge ({x},{y})")
    return min(cands)


def _orient_deeper(le: LeveledEmbedding, comp: LevelComponent,
                   vf: TreeNode) -> list[HalfEdge]:
    if not comp.walk:
        return []
    z = _deep_root_vertex(le, comp, vf)
    sources = {h[0] for h in comp.walk}
    if z not in sources:
        raise InternalError(f"deeper root {z} fell off its component's walk")
    wedge = set(comp.walk)
    u = le.plane.first(z, vf.x, CCW, lambda w: (z, w) in wedge)
    if u is None:
        raise InternalError(f"deeper root {z} has no walk edge out")
    occ = comp.walk.index((z, u))
    return comp.walk[occ:] + comp.walk[:occ]


# -- walk parsing ----------------------------------------------------------


def _build_tree(comp: LevelComponent, walk: list[HalfEdge],
                vf: TreeNode | None, uid_gen) -> ComponentTree:
    side_face = {h: i for i, orbit in enumerate(comp.sub_faces) for h in orbit}
    nodes: list[TreeNode] = []
    leaves: list[TreeNode] = []
    face_to_node: dict[int, TreeNode] = {}
    seen_pairs: set[frozenset] = set()
    cursor = 0

    def new_node(x: int, y: int, kind: str, face: int | None = None) -> TreeNode:
        node = TreeNode(x=x, y=y, comp=comp.cid, kind=kind, face=face,
                        uid=next(uid_gen))
        nodes.append(node)
        if face is not None:
            if face in face_to_node:
                raise InternalError(f"face {face} parsed twice")
            face_to_node[face] = node
        return node

    def take_leaf(exp: HalfEdge) -> TreeNode:
        nonlocal cursor
        if walk[cursor] != exp:
            raise InternalError(f"walk desynced: {walk[cursor]} where the "
                                f"parser expects {exp}")
        cursor += 1
        leaf = new_node(exp[0], exp[1], "leaf")
        pair = frozenset(exp)
        leaf.countable = pair not in seen_pairs
        seen_pairs.add(pair)
        leaves.append(leaf)
        return leaf

    # fill and parse_hang are generators that yield the subtasks they would
    # recurse into; `_drive` runs them off an explicit stack, so walk length
    # never meets the interpreter's recursion limit.
    def fill(sides, out: list[TreeNode]):
        for s in sides:
            back = (s[1], s[0])
            if back in side_face:
                child = new_node(s[0], s[1], "face", face=side_face[back])
                out.append(child)
                orbit = comp.sub_faces[side_face[back]]
                k = orbit.index(back)
                yield fill(orbit[k + 1:] + orbit[:k], child.children)
            else:
                while walk[cursor] != s:
                    yield parse_hang(s[0], out)
                out.append(take_leaf(s))

    def parse_hang(v: int, out: list[TreeNode]):
        h = walk[cursor]
        if h[0] != v:
            raise InternalError("walk detour does not start at the "
                                "expected corner")
        if h in side_face:
            node = new_node(v, v, "region", face=side_face[h])
            out.append(node)
            orbit = comp.sub_faces[side_face[h]]
            k = orbit.index(h)
            yield fill(orbit[k:] + orbit[:k], node.children)
            return
        node = new_node(v, v, "bridge")
        out.append(node)
        node.children.append(take_leaf(h))
        w = h[1]
        while walk[cursor] != (w, v):
            yield parse_hang(w, node.children)
        node.children.append(take_leaf((w, v)))

    if not walk:
        root = new_node(comp.vertices[0], comp.vertices[0], "single")
    else:
        z = walk[0][0]
        kids: list[TreeNode] = []
        while cursor < len(walk):
            _drive(parse_hang(z, kids))
        if len(kids) == 1:
            root = kids[0]
        else:
            root = new_node(z, z, "root")
            root.children = kids
    # fill and parse_hang reach each other through their closures; drop
    # that cycle now so the nodes die with the forest, not at the next
    # garbage collection
    del fill, parse_hang
    if cursor != len(walk) or [(lf.x, lf.y) for lf in leaves] != walk:
        raise InternalError("parser leaves do not follow the walk")
    if len(face_to_node) != len(comp.sub_faces):
        raise InternalError("parser failed to reach every bounded face")
    return ComponentTree(comp.cid, root, nodes, leaves, face_to_node,
                         parent_node=vf)


def _drive(task) -> None:
    """Run a generator task whose yields are subtasks, depth-first."""
    stack = [task]
    while stack:
        sub = next(stack[-1], None)
        if sub is None:
            stack.pop()
        else:
            stack.append(sub)


# -- window numbers --------------------------------------------------------


def _strip_arcs(le: LeveledEmbedding, tree: ComponentTree
                ) -> list[tuple[int, int]]:
    """Window-index arc [a_i, b_i] of each walk visit's fan of labels.

    The triangulated region between the component's walk and the parent
    windows is a ladder: every triangle advances either the outer label
    index or the inner walk position, so one sweep around it recovers, for
    each visit of the walk, which stretch of window slots that vertex is
    actually drawn against.  Working by slot index is the whole point --
    the same label vertex can legally occupy several slots (pinched parent
    walks, and the wrap at the cut), so testing adjacency by vertex name
    may resolve to the wrong occurrence and strand real edges outside any
    stretch.

    Three non-ladder shapes appear in the wild and are folded into the
    sweep.  Zero-extent stub windows (a hang of the parent walk pinched
    between two slots with the same label) advance the index for free.
    A same-level filler chord cuts a pocket off the region: the inner
    boundary shortcuts across it, and the walk visits shielded behind the
    chord get empty arcs (they touch no window; their real walk edges are
    still scored by the leaf columns).  A shallow filler chord likewise
    pockets a run of window slots away from the component; the fan scan
    swallows those slots into the current stretch, which is sound because
    a shielded label has no drawn -- hence no real -- edge into this level.
    """
    vf = tree.parent_node
    u, zl = vf.children, tree.zlabels
    s = len(u)
    plane, lev = le.plane, le.level
    any_vertex = lambda w: True             # noqa: E731
    walk = [tree.root.x] + [lf.y for lf in tree.leaves]
    after = walk[1:] + walk[1:2]            # the closed walk goes on at 1
    v = zl[1]
    if not plane.has_edge(walk[0], v):
        raise NoDividingPoint(
            f"root {walk[0]} is not drawn against its anchor label {v}")
    arcs: list[tuple[int, int]] = [(0, 0)] * len(walk)
    i, a, r = 0, 1, 1
    while True:
        if r <= s and u[r - 1].x == u[r - 1].y:
            r += 1                        # stub window, nothing to cross
            continue
        if i == len(walk) - 1 and r == s + 1:
            arcs[i] = (a, r)
            break
        w = walk[i]
        nxt = plane.first(w, v, CCW, any_vertex)
        if lev[nxt] == lev[w] - 1:
            rr = next((q for q in range(r + 1, s + 2) if zl[q] == nxt), None)
            if rr is None:
                raise NoDividingPoint(
                    f"window strip desynced at vertex {w}: drawn against "
                    f"{nxt}, which labels no remaining window slot")
            r, v = rr, nxt
            continue
        # the ladder goes on at the later visit of nxt whose corner, the
        # ccw wedge from the walk's previous to its next vertex, holds w
        j = next((q for q in range(i + 1, len(walk)) if walk[q] == nxt
                  and plane.in_wedge(nxt, walk[q - 1], after[q], w)), None)
        if j is None or not plane.has_edge(nxt, v):
            raise NoDividingPoint(
                f"window strip desynced at vertex {w}: the region side "
                f"continues into {nxt}, which is not a later walk visit")
        arcs[i] = (a, r)
        for q in range(i + 1, j):
            arcs[q] = (r, r)              # shielded behind a pocket chord
        i, a = j, r
    return arcs


def _assign_windows(le: LeveledEmbedding, tree: ComponentTree) -> None:
    vf = tree.parent_node
    u = vf.children
    s = len(u)
    if not u:
        raise NoDividingPoint("enclosing face node has no children")
    tree.zlabels = [None] + [c.x for c in u] + [u[-1].y]
    zl = tree.zlabels
    leaves = tree.leaves
    arcs = _strip_arcs(le, tree)
    if leaves:
        for i, leaf in enumerate(leaves):
            leaf.lbn, leaf.pivot = arcs[i]
            leaf.rbn = arcs[i + 1][0] if i + 1 < len(leaves) else s + 1
    else:
        tree.root.pivot = arcs[0][1]

    order = [tree.root]                   # breadth-first: parents first
    for node in order:
        order.extend(node.children)
    for node in reversed(order):
        if node.children:
            node.lbn = node.children[0].lbn
            node.rbn = node.children[-1].rbn
    if not tree.root.children:
        tree.root.lbn, tree.root.rbn = 1, s + 1
    if (tree.root.lbn, tree.root.rbn) != (1, s + 1):
        raise NoDividingPoint(f"component {tree.comp} spans windows "
                              f"[{tree.root.lbn},{tree.root.rbn}), "
                              f"not [1,{s + 1})")
    for node in tree.nodes:
        if not (1 <= node.lbn <= node.rbn <= s + 1) or (
                not node.children
                and not node.lbn <= node.pivot <= node.rbn):
            raise NoDividingPoint(f"{node!r} has window numbers or a "
                                  f"pivot ({node.pivot}) out of order")


# -- boundary vectors ------------------------------------------------------


def window_path(vf: TreeNode, p: int) -> tuple[int, ...]:
    """The boundary path at window slot p of the enclosing face node vf:
    its p-th child's left path, or the last child's right path at the
    closing slot len(vf.children) + 1."""
    u = vf.children
    return u[p - 1].lbound if p <= len(u) else u[-1].rbound


def _assign_boundaries(le: LeveledEmbedding, tree: ComponentTree) -> None:
    vf = tree.parent_node
    u = vf.children
    lev = le.components[tree.comp].level
    for node in tree.nodes:
        left = window_path(vf, node.lbn)
        right = u[node.rbn - 2].rbound if node.rbn >= 2 else u[0].lbound
        node.lbound = (node.x,) + left
        node.rbound = (node.y,) + right
        if not len(node.lbound) == len(node.rbound) == lev:
            raise BoundaryMismatch(f"{node!r} has boundaries of lengths "
                                   f"{len(node.lbound)}, {len(node.rbound)} "
                                   f"at level {lev}")
    for a, b in zip(tree.leaves, tree.leaves[1:]):
        if a.rbound != b.lbound:
            raise BoundaryMismatch(f"adjacent windows disagree on a seam: "
                                   f"{a.rbound} vs {b.lbound}")
    if (tree.root.lbound != (tree.root.x,) + vf.lbound
            or tree.root.rbound != (tree.root.y,) + vf.rbound):
        raise BoundaryMismatch(f"component {tree.comp}'s root boundaries "
                               "do not extend its enclosing face's")
