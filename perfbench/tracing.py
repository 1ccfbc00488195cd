"""Spans around the public functions of each `dks` module, from outside.

Each hook replaces a function at the name its caller looks it up by (a
module global or a class attribute) with a wrapper that records one span
per call: name, start, end, parent span and the benchmark operation it
belongs to.  Spans stay in memory, in flat arrays, until the run writes
them out.  Nothing in the package is edited; `Tracer.hooked()` restores
every original on exit.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

# (module patched, attribute looked up by the caller, span name)
HOOKS = (
    ("dks.solve", "solve", "solve.solve"),
    ("dks.graph", "Graph.connected_components", "graph.connected_components"),
    ("dks.graph", "Graph.blocks_and_cutpoints", "graph.blocks_and_cutpoints"),
    ("dks.solve", "induced_subgraph", "graph.induced_subgraph"),
    ("dks.solve", "is_outerplanar", "dp_outerplanar.is_outerplanar"),
    ("dks.dp_outerplanar", "block_outer_cycle", "dp_outerplanar.block_outer_cycle"),
    ("dks.dp_outerplanar", "merge_tables", "dp_outerplanar.merge_tables"),
    ("dks.solve", "solve_outerplanar_values", "dp_outerplanar.solve_outerplanar_values"),
    ("dks.solve", "solve_bouterplanar_values", "dp_bouterplanar.solve_bouterplanar_values"),
    ("dks.dp_bouterplanar", "embed_and_level", "embedding.embed_and_level"),
    ("dks.embedding", "planar_embed", "embedding.planar_embed"),
    ("dks.embedding", "compute_levels", "embedding.compute_levels"),
    ("dks.embedding", "triangulate", "embedding.triangulate"),
    ("dks.dp_bouterplanar", "build_forest", "trees.build_forest"),
    ("dks.dp_bouterplanar", "evaluate_tables", "dp_bouterplanar.evaluate_tables"),
    ("dks.dp_bouterplanar", "merge_tables", "dp_bouterplanar.merge_tables"),
    ("dks.dp_bouterplanar", "extend", "dp_bouterplanar.extend"),
    ("dks.solve", "convolve_max_plus", "tables.convolve_max_plus"),
    ("dks.dp_outerplanar", "convolve_max_plus", "tables.convolve_max_plus"),
    ("dks.generators", "gen_outerplanar", "generators.gen_outerplanar"),
    ("dks.generators", "gen_bouterplanar", "generators.gen_bouterplanar"),
)

# per-layer metric -> ("total" | "self" | "calls", span name)
LAYER_SPANS = {
    "solve.split_s": ("self", "solve.solve"),
    "graph.components_s": ("total", "graph.connected_components"),
    "graph.induced_s": ("total", "graph.induced_subgraph"),
    "graph.induced_calls": ("calls", "graph.induced_subgraph"),
    "graph.blockcut_s": ("total", "graph.blocks_and_cutpoints"),
    "graph.blockcut_calls": ("calls", "graph.blocks_and_cutpoints"),
    "dp_outerplanar.recognize_s": ("self", "dp_outerplanar.is_outerplanar"),
    "dp_outerplanar.cycle_s": ("total", "dp_outerplanar.block_outer_cycle"),
    "dp_outerplanar.cycle_calls": ("calls", "dp_outerplanar.block_outer_cycle"),
    "dp_outerplanar.merge_s": ("total", "dp_outerplanar.merge_tables"),
    "dp_outerplanar.merge_calls": ("calls", "dp_outerplanar.merge_tables"),
    "dp_outerplanar.fold_s": ("self", "dp_outerplanar.solve_outerplanar_values"),
    "embedding.embed_s": ("total", "embedding.planar_embed"),
    "embedding.level_s": ("total", "embedding.compute_levels"),
    "embedding.triangulate_s": ("total", "embedding.triangulate"),
    "trees.forest_s": ("total", "trees.build_forest"),
    "dp_bouterplanar.merge_s": ("total", "dp_bouterplanar.merge_tables"),
    "dp_bouterplanar.merge_calls": ("calls", "dp_bouterplanar.merge_tables"),
    "dp_bouterplanar.extend_s": ("total", "dp_bouterplanar.extend"),
    "dp_bouterplanar.tables_s": ("self", "dp_bouterplanar.evaluate_tables"),
    "tables.convolve_s": ("total", "tables.convolve_max_plus"),
    "tables.convolve_calls": ("calls", "tables.convolve_max_plus"),
}


class Tracer:
    """Span store plus the hooks that feed it; single-threaded by design."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self._stack = [-1]
        self.missing: list[str] = []

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, span: str) -> int:
        nid = self._name_id.get(span)
        if nid is None:
            nid = self._name_id[span] = len(self.names)
            self.names.append(span)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def _wrap(self, span: str, fn):
        nid = self._id(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one whole pass."""
        i = self._open(self._id(name))
        try:
            yield i
        finally:
            self._close(i)

    @contextmanager
    def hooked(self):
        """Install every hook whose target exists; restore them all after."""
        undo = []
        try:
            for modname, attr, span in HOOKS:
                owner = importlib.import_module(modname)
                *path, last = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                orig = vars(owner).get(last) if owner is not None else None
                if orig is None:
                    where = f"{modname}.{attr}"
                    if where not in self.missing:
                        self.missing.append(where)
                        print(f"trace: no hook point {where}; its layer "
                              f"reads 0", file=sys.stderr)
                    continue
                setattr(owner, last, self._wrap(span, orig))
                undo.append((owner, last, orig))
            yield self
        finally:
            for owner, last, orig in reversed(undo):
                setattr(owner, last, orig)

    # ------------------------------------------------------- aggregation

    def summarize(self, lo: int, hi: int) -> dict[str, list]:
        """Per span name over spans lo..hi-1: [calls, total_s, self_s]."""
        child = [0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(lo, hi):
            dur = self.end[i] - self.start[i]
            row = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur / 1e9
            row[2] += (dur - child[i - lo]) / 1e9
        return out

    def top_level_seconds(self, lo: int, hi: int, prefix: str) -> float:
        """Time in spans named `prefix...` that no such span encloses."""
        def inside(i):
            return i >= 0 and self.names[self.name[i]].startswith(prefix)
        return sum(self.end[i] - self.start[i] for i in range(lo, hi)
                   if inside(i) and not inside(self.parent[i])) / 1e9

    def write(self, path) -> None:
        """One CSV line per span: name,start_ns,end_ns,parent,op."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]},"
                         f"{self.end[i]},{self.parent[i]},{self.op[i]}\n")


def layer_metrics(summary: dict[str, list]) -> dict[str, float]:
    col = {"calls": 0, "total": 1, "self": 2}
    return {metric: summary.get(span, [0, 0.0, 0.0])[col[kind]]
            for metric, (kind, span) in LAYER_SPANS.items()}
