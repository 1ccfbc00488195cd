"""Simple undirected graphs with dense integer ids.

The solvers never mutate a Graph after construction; all heavy lifting
happens on embedding-side structures.  Vertices are 0..n-1 internally,
with optional human-readable names kept for I/O round-trips.  Every
subgraph is cut by one routine, `component_subgraphs`.  Blocks are
vertex lists (`Graph.blocks_and_cutpoints`): a block's edges are the
ones `adj` holds between its vertices, so none is copied.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from dks.errors import FormatError


@dataclass
class Graph:
    n: int
    edges: list[tuple[int, int]] = field(default_factory=list)
    names: list[str] | None = None
    # Optional embedding hints carried through from JSON input: rotation is
    # the full ccw neighbor order per vertex, indexed by vertex id.
    rotation: list[list[int]] | None = None
    outer_face: list[int] | None = None

    def __post_init__(self) -> None:
        self.adj: list[set[int]] = [set() for _ in range(self.n)]
        seen: set[tuple[int, int]] = set()
        dedup: list[tuple[int, int]] = []
        for u, v in self.edges:
            if u == v:
                raise FormatError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise FormatError(f"edge ({u},{v}) out of range for n={self.n}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            dedup.append(key)
            self.adj[u].add(v)
            self.adj[v].add(u)
        self.edges = dedup

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def name_of(self, v: int) -> str:
        if self.names is not None:
            return self.names[v]
        return str(v)

    # ---------------------------------------------------------- bitmasks

    def adj_masks(self) -> list[int]:
        """Adjacency as bitmasks; used by the exponential oracles."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    # -------------------------------------------------------- components

    def connected_components(self) -> list[Sequence[int]]:
        """Ascending vertices per component, in order of smallest vertex
        (isolated vertices included), from one labelling pass: a list per
        component, or range(n) alone for a connected graph."""
        label = [-1] * self.n
        count = 0
        for s in range(self.n):
            if label[s] >= 0:
                continue
            label[s] = count
            stack = [s]
            while stack:
                v = stack.pop()
                for w in self.adj[v]:
                    if label[w] < 0:
                        label[w] = count
                        stack.append(w)
            count += 1
        if count == 1:
            return [range(self.n)]
        comps: list[list[int]] = [[] for _ in range(count)]
        for v in range(self.n):
            comps[label[v]].append(v)
        return comps

    # ------------------------------------------------ blocks / cutpoints

    def blocks_and_cutpoints(self, part: Sequence[int] | None = None
                             ) -> tuple[list[list[int]], list[int], set[int]]:
        """(blocks, tops, cutpoints) of g, or of `part`, ascending
        vertices that no edge leaves: each biconnected component as its
        ascending vertex list, the vertex each block shares towards the
        depth-first search's root (its top), and the cut vertices.

        Every edge of g between two vertices of a block is one of its
        edges, so g.adj holds each block's edges; and every vertex is a
        non-top member of at most one block, so a reader that scans only
        those vertices' adjacency reads each one at most once.

        Iterative Hopcroft–Tarjan on a vertex stack, visiting neighbours
        in ascending order; safe on 10^5-vertex paths.  The adjacency is
        read from one CSR list, every vertex's sorted neighbours followed
        by -1, through one read cursor per vertex, so a DFS frame is just
        its vertex (its parent is the frame below it).  Per-vertex arrays
        are dicts over a part smaller than g.
        """
        verts = range(self.n) if part is None else part
        whole = len(verts) == self.n
        nbr: list[int] = []
        cur: list | dict = []
        for v in verts:
            cur.append(len(nbr))
            nbr += sorted(self.adj[v])
            nbr.append(-1)
        if not whole:
            cur = dict(zip(verts, cur))
        disc = [-1] * self.n if whole else dict.fromkeys(verts, -1)
        low = [0] * self.n if whole else dict.fromkeys(verts, 0)
        cutpoints: set[int] = set()
        blocks: list[list[int]] = []
        tops: list[int] = []
        below: list[int] = []       # visited vertices not yet in a block
        timer = 0

        for root in verts:
            if disc[root] != -1:
                continue
            root_children = 0
            stack = [-1, root]          # -1: the root's parent
            disc[root] = low[root] = timer
            timer += 1
            while len(stack) > 1:
                v, up = stack[-1], stack[-2]
                i = cur[v]
                w = nbr[i]
                while w >= 0:
                    i += 1
                    dw = disc[w]
                    if dw == -1:
                        break
                    if dw < low[v] and w != up:
                        low[v] = dw
                    w = nbr[i]
                cur[v] = i
                if w >= 0:                      # descend the tree edge v-w
                    disc[w] = low[w] = timer
                    timer += 1
                    if up < 0:
                        root_children += 1
                    stack.append(w)
                    below.append(w)
                    continue
                stack.pop()
                if up >= 0:
                    if low[v] < low[up]:
                        low[up] = low[v]
                    if low[v] >= disc[up]:
                        # up separates v's subtree: up, v and the
                        # vertices found after v form one block
                        block = [up]
                        while block[-1] != v:
                            block.append(below.pop())
                        block.sort()
                        blocks.append(block)
                        tops.append(up)
                        if up != root or root_children > 1:
                            cutpoints.add(up)
        return blocks, tops, cutpoints


def induced_subgraph(g: Graph, keep: Sequence[int]) -> Graph:
    """Induced subgraph on `keep`: component_subgraphs' one-part call."""
    return component_subgraphs(g, [keep])(0)


def component_subgraphs(g: Graph, parts: list[Sequence[int]]
                        ) -> Callable[[int], Graph]:
    """sub, where sub(c) is the subgraph g induces on parts[c], for
    disjoint vertex lists `parts`, each part densely relabelled in list
    order.

    A vertex in no part is dropped with its edges, and so is every edge
    between two parts.  `[range(g.n)]`, g.connected_components() of a
    connected g, gives g itself, with no copy.  Otherwise the edges are
    grouped by part here, in one stable sort, so each subgraph keeps g's
    edge order, and sub(c) builds part c alone: a caller that cuts only
    some parts builds no Graph for the others.  Embedding hints survive
    when they still make sense: a rotation system restricts cleanly to
    any part, the outer face only to the part that holds all of its
    vertices.
    """
    if parts == [range(g.n)]:
        return lambda c: g
    label = [len(parts)] * g.n      # a vertex in no part sorts last
    local = [0] * g.n
    for c, part in enumerate(parts):
        for i, v in enumerate(part):
            label[v] = c
            local[v] = i

    def part_of(e: tuple[int, int]) -> int:
        return label[e[0]]

    edges = sorted(g.edges, key=part_of)
    owners = None if g.outer_face is None else {label[v] for v in g.outer_face}

    def sub(c: int) -> Graph:
        part = parts[c]
        lo = bisect_left(edges, c, key=part_of)
        hi = bisect_left(edges, c + 1, lo, key=part_of)
        rot = None
        if g.rotation is not None:
            rot = [[local[w] for w in g.rotation[v] if label[w] == c]
                   for v in part]
        outer = None
        if owners is not None and owners <= {c}:
            outer = [local[v] for v in g.outer_face]
        return Graph(n=len(part),
                     edges=[(local[u], local[v])
                            for u, v in edges[lo:hi] if label[v] == c],
                     names=[g.name_of(v) for v in part],
                     rotation=rot, outer_face=outer)

    return sub


# ------------------------------------------------------------------ I/O


def parse_edge_list(text: str) -> Graph:
    """Whitespace edge list, one "u v" pair per line, '#' comments.

    Vertex names are arbitrary tokens; ids are assigned in order of first
    appearance, which keeps fixtures deterministic.
    """
    names: list[str] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []

    def vid(tok: str) -> int:
        if tok not in index:
            index[tok] = len(names)
            names.append(tok)
        return index[tok]

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            vid(parts[0])  # isolated vertex declaration
            continue
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        u, v = vid(parts[0]), vid(parts[1])
        if u == v:
            raise FormatError(f"line {lineno}: self-loop {parts[0]!r}")
        edges.append((u, v))
    return Graph(n=len(names), edges=edges, names=names)


def parse_json(text: str) -> Graph:
    """JSON graph: {"vertices": [...], "edges": [[u,v],...],
    "rotation"?: {...}, "outer_face"?: [...]}.

    Vertices may be names or ints; edges refer to them.  Rotation maps a
    vertex to the cyclic order of its neighbours (counterclockwise).  Any
    other shape raises FormatError.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad JSON: {exc}") from exc
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise FormatError("JSON graph needs 'vertices' and 'edges' keys")

    def listed(val, what: str, size: int | None = None) -> list:
        if not isinstance(val, list) or size not in (None, len(val)):
            raise FormatError(f"bad {what} {val!r}")
        return val

    names = [str(v) for v in listed(data["vertices"], "vertex list")]
    if len(set(names)) != len(names):
        raise FormatError("duplicate vertex names")
    index = {nm: i for i, nm in enumerate(names)}

    def vids(toks: list) -> list[int]:
        try:
            return [index[str(t)] for t in toks]
        except KeyError as exc:
            raise FormatError(f"unknown vertex {exc.args[0]!r}") from None

    edges = [tuple(vids(listed(e, "edge", 2)))
             for e in listed(data["edges"], "edge list")]
    rotation = None
    rot = data.get("rotation")
    if rot is not None:
        if not isinstance(rot, dict):
            raise FormatError(f"bad rotation {rot!r}")
        rotation = [[] for _ in names]
        for key, ws in rot.items():
            rotation[vids([key])[0]] = vids(listed(ws, "rotation entry"))
    outer = data.get("outer_face")
    if outer is not None:
        outer = vids(listed(outer, "outer face"))
    return Graph(n=len(names), edges=edges, names=names,
                 rotation=rotation, outer_face=outer)


def load_graph(path: str) -> Graph:
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_json(text)
    return parse_edge_list(text)


def dump_json(g: Graph) -> str:
    data: dict = {
        "vertices": [g.name_of(v) for v in range(g.n)],
        "edges": [[g.name_of(u), g.name_of(v)] for u, v in g.edges],
    }
    if g.rotation is not None:
        data["rotation"] = {g.name_of(v): [g.name_of(w) for w in ws]
                            for v, ws in enumerate(g.rotation)}
    if g.outer_face is not None:
        data["outer_face"] = [g.name_of(v) for v in g.outer_face]
    return json.dumps(data, indent=1)
