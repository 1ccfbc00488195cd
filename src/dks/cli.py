"""Command-line front end.

Exit codes are the failure channel: 0 success, 2 the requested solver
cannot handle the input's graph class, 3 k exceeds the vertex count,
4 an internal invariant failed (a bug, not a bad input), 1 anything
else deliberate, usage errors included.  Diagnostics go to
stderr; stdout carries only the documented output formats.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from dks.dp_outerplanar import EdgeTable
from dks.errors import (DksError, InternalError, KTooLarge, NotOuterplanar,
                        NotPlanar)
from dks.generators import GenSpec, gen_bouterplanar, gen_outerplanar, gen_planar
from dks.graph import Graph, dump_json, load_graph
from dks.oracle import brute_force_all_k, brute_force_densest_k
from dks.ptas_probe import PROBE_COLUMNS, ProbeReport, probe
from dks.report import SolveReport
from dks.solve import solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_SOLVABLE = 2
EXIT_K_TOO_LARGE = 3
EXIT_INTERNAL = 4

ABSENT_MARK = "∅"          # ∅, as in the worked tables


@dataclass
class RunConfig:
    """One parsed invocation; exactly one subcommand, k never negative."""

    subcommand: str
    graph: str | None = None
    corpus: str | None = None
    k: int | None = None
    all_k: bool = False
    force_solver: str = "auto"
    triangulation: str = "zigzag"
    witness: bool = False
    trace: bool = False
    dump_tables: bool = False
    root: str | None = None
    family: str | None = None
    n: int | None = None
    b: int = 1
    rho: float = 0.5
    seed: int | None = None
    out: str | None = None
    epsilon: float | None = None
    classic: bool = False
    dump_worst: str | None = None

    def __post_init__(self) -> None:
        if self.k is not None and self.k < 0:
            raise DksError(f"k must be nonnegative, got {self.k}")

    def resolved_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        return int(os.environ.get("DKS_SEED", "0"))


def _resolve_root(g: Graph, token: str | None) -> int | None:
    if token is None:
        return None
    if g.names and token in g.names:
        return g.names.index(token)
    try:
        v = int(token)
    except ValueError:
        raise DksError(f"unknown vertex {token!r}") from None
    if not 0 <= v < g.n:
        raise DksError(f"vertex id {v} out of range for n={g.n}")
    return v


def _density(k: int, m: int) -> str:
    return "0" if k == 0 else f"{m / k:.4f}"


def _print_values(values: list[int], lo: int, out) -> None:
    for kp in range(lo, len(values)):
        print(f"{kp} {values[kp]} {_density(kp, values[kp])}", file=out)


# --------------------------------------------------------------- solve


def _solve_traced(g: Graph, cfg: RunConfig, k: int, dump: bool,
                  out) -> SolveReport:
    """One solve() call; each of its table events goes to `out` as a TSV
    block when `dump` is set, and to stderr as one line with --trace."""
    events: list | None = [] if dump or cfg.trace else None
    rep = solve(g, k, force_solver=cfg.force_solver,
                triangulation=cfg.triangulation,
                root=_resolve_root(g, cfg.root),
                witness=cfg.witness, trace=events)
    if dump:
        for ev in events:
            _print_table(ev, out)
    if cfg.trace:
        for ev in events:
            pv = "-" if ev["pivot"] is None else ev["pivot"]
            print(f"trace {ev['branch']} {_ends(ev)} pivot={pv}",
                  file=sys.stderr)
    return rep


def cmd_solve(cfg: RunConfig, out=None) -> int:
    out = sys.stdout if out is None else out
    g = load_graph(cfg.graph)
    k = g.n if cfg.all_k else cfg.k
    rep = _solve_traced(g, cfg, k, cfg.dump_tables, out)
    _print_values(rep.values, 0 if cfg.all_k else k, out)
    if cfg.witness:
        names = " ".join(g.name_of(v) for v in sorted(rep.witness))
        print(f"# witness: {names}", file=out)
    return EXIT_OK


# --------------------------------------------------------------- oracle


def cmd_oracle(cfg: RunConfig, out=None) -> int:
    out = sys.stdout if out is None else out
    g = load_graph(cfg.graph)
    if cfg.all_k:
        _print_values(brute_force_all_k(g), 0, out)
    else:
        if cfg.k > g.n:
            raise KTooLarge(f"k={cfg.k} but the graph has {g.n} vertices")
        m, _ = brute_force_densest_k(g, cfg.k)
        print(f"{cfg.k} {m} {_density(cfg.k, m)}", file=out)
    return EXIT_OK


# ------------------------------------------------------------------ gen


def cmd_gen(cfg: RunConfig, out=None) -> int:
    out = sys.stdout if out is None else out
    spec = GenSpec(n=cfg.n, b=cfg.b, rho=cfg.rho, seed=cfg.resolved_seed())
    g = {"outerplanar": gen_outerplanar,
         "bouterplanar": gen_bouterplanar,
         "planar": gen_planar}[cfg.family](spec)
    text = dump_json(g)
    if cfg.out:
        Path(cfg.out).write_text(text + "\n")
    else:
        print(text, file=out)
    return EXIT_OK


# ----------------------------------------------------------- probe-ptas


def _probe_one(path: str, k: int, epsilon: float, classic: bool,
               root: str | None):
    g = load_graph(path)
    return path, probe(g, min(k, g.n), epsilon,
                       root=_resolve_root(g, root) or 0, classic=classic)


def cmd_probe(cfg: RunConfig, out=None) -> int:
    out = sys.stdout if out is None else out
    if cfg.graph:
        files = [cfg.graph]
    else:
        files = sorted(str(p) for p in Path(cfg.corpus).iterdir()
                       if p.is_file())
    results = [_probe_one(f, cfg.k, cfg.epsilon, cfg.classic, cfg.root)
               for f in files]

    print(",".join(("file",) + PROBE_COLUMNS), file=out)
    report = ProbeReport()
    for path, entry in results:
        report.entries.append(entry)
        row = entry.to_dict()
        row["ratio"] = f"{entry.ratio:.6f}"
        print(",".join([path] + [str(row[c]) for c in PROBE_COLUMNS]),
              file=out)
    if len(results) > 1:
        worst_path, worst = min(results, key=lambda pe: pe[1].ratio)
        hist = ",".join(str(c) for c in report.histogram())
        print(f"# histogram {hist}", file=out)
        print(f"# worst {worst_path} ratio={worst.ratio:.6f}", file=out)
        if cfg.dump_worst:
            Path(cfg.dump_worst).write_text(
                dump_json(load_graph(worst_path)) + "\n")
    return EXIT_OK


# --------------------------------------------------------- dump-tables


def _fmt(cell) -> str:
    return ABSENT_MARK if cell is None else str(cell)


def _ends(ev: dict) -> str:
    """The event's table endpoints, in the input's vertex names."""
    g, t = ev["graph"], ev["table"]
    x, y = (t.x, t.y) if isinstance(t, EdgeTable) else (t.L[0], t.R[0])
    return f"({g.name_of(x)},{g.name_of(y)})"


def _print_table(ev: dict, out) -> None:
    """One table event as a TSV block: bx/by rows for a flat table,
    boundary-subset rows for a leveled one."""
    g, t = ev["graph"], ev["table"]
    if isinstance(t, EdgeTable):
        print(f"# {ev['branch']} {_ends(ev)}", file=out)
        print("\t".join(["bx", "by"] + [f"k={i}"
                                        for i in range(len(t.rows[0]))]),
              file=out)
        for bits in range(4):
            cells = [_fmt(c) for c in t.rows[bits]]
            print("\t".join([str(bits >> 1), str(bits & 1)] + cells),
                  file=out)
    else:
        print(f"# {ev['branch']} {_ends(ev)} "
              f"boundary L={[g.name_of(u) for u in t.L]} "
              f"R={[g.name_of(u) for u in t.R]}", file=out)
        print("\t".join(["subset"] + [f"k={i}" for i in range(t.K + 1)]),
              file=out)
        rows = t.rows
        for key in sorted(rows, key=lambda a: (len(a), sorted(a))):
            name = "{" + ",".join(g.name_of(v) for v in sorted(key)) + "}"
            cells = [_fmt(c) for c in rows[key]]
            print("\t".join([name] + cells), file=out)
    print(file=out)


def cmd_dump_tables(cfg: RunConfig, out=None) -> int:
    out = sys.stdout if out is None else out
    g = load_graph(cfg.graph)
    _solve_traced(g, cfg, g.n if cfg.k is None else cfg.k, True, out)
    return EXIT_OK


# ----------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dks",
        description="Exact densest-k-subgraph solvers for outerplanar "
                    "and b-outerplanar graphs, plus generators and an "
                    "approximation-scheme probe.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add_k(p, required=True):
        grp = p.add_mutually_exclusive_group(required=required)
        grp.add_argument("--k", type=int)
        grp.add_argument("--all-k", action="store_true")

    p = sub.add_parser("solve", help="exact optimum via the right DP")
    p.add_argument("--graph", required=True)
    add_k(p)
    p.add_argument("--force-solver", default="auto",
                   choices=["auto", "outerplanar", "bouterplanar"])
    p.add_argument("--triangulation", default="zigzag",
                   choices=["zigzag", "zigzag_alt"])
    p.add_argument("--witness", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--dump-tables", action="store_true")
    p.add_argument("--root")

    p = sub.add_parser("oracle", help="brute-force reference answer")
    p.add_argument("--graph", required=True)
    add_k(p)

    p = sub.add_parser("gen", help="seeded instance generator")
    p.add_argument("family", choices=["outerplanar", "bouterplanar", "planar"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=None,
                   help="default: $DKS_SEED, else 0")
    p.add_argument("--out")

    p = sub.add_parser("probe-ptas",
                       help="score the layering heuristic against exact")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph")
    src.add_argument("--corpus")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--classic", action="store_true",
                   help="delete congruent levels instead of keeping them")
    p.add_argument("--root")
    p.add_argument("--dump-worst", help="write the worst instance here")

    p = sub.add_parser("dump-tables",
                       help="print every intermediate DP table as TSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--force-solver", default="auto",
                   choices=["auto", "outerplanar", "bouterplanar"])
    p.add_argument("--triangulation", default="zigzag",
                   choices=["zigzag", "zigzag_alt"])
    p.add_argument("--root")
    return ap


_COMMANDS = {
    "solve": cmd_solve,
    "oracle": cmd_oracle,
    "gen": cmd_gen,
    "probe-ptas": cmd_probe,
    "dump-tables": cmd_dump_tables,
}


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:     # argparse exits 2 on usage errors
        return EXIT_ERROR if exc.code else EXIT_OK
    fields = {f for f in RunConfig.__dataclass_fields__}
    try:
        cfg = RunConfig(**{k: v for k, v in vars(ns).items() if k in fields})
        return _COMMANDS[cfg.subcommand](cfg)
    except KTooLarge as exc:
        print(f"K_TOO_LARGE: {exc}", file=sys.stderr)
        return EXIT_K_TOO_LARGE
    except (NotPlanar, NotOuterplanar) as exc:
        print(f"NOT_SOLVABLE: {exc}", file=sys.stderr)
        return EXIT_NOT_SOLVABLE
    except InternalError as exc:
        print(f"INTERNAL: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (DksError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
