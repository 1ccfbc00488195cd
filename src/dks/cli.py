"""Command-line front end.

Exit codes are the failure channel: 0 success, 2 the requested solver
cannot handle the input's graph class, 3 k exceeds the vertex count,
4 an internal invariant failed (a bug, not a bad input), 1 anything
else deliberate, usage errors included.  Diagnostics go to
stderr; stdout carries only the documented output formats.  A reader
that closes stdout early (`| head`) ends the run with exit 0 and
nothing on stderr: the output it did not read is dropped.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from dks.dp_outerplanar import EdgeTable
from dks.embedding import TRIANGULATIONS
from dks.errors import (DksError, InternalError, KTooLarge, NotOuterplanar,
                        NotPlanar)
from dks.generators import GenSpec, gen_bouterplanar, gen_outerplanar, gen_planar
from dks.graph import Graph, dump_json, load_graph
from dks.oracle import brute_force_all_k, brute_force_densest_k
from dks.ptas_probe import PROBE_COLUMNS, ProbeReport, probe
from dks.report import SolveReport
from dks.solve import SOLVERS, solve

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_SOLVABLE = 2
EXIT_K_TOO_LARGE = 3
EXIT_INTERNAL = 4

ABSENT_MARK = "∅"          # ∅, as in the worked tables


def _resolve_root(g: Graph, token: str | None) -> int | None:
    if token is not None and token not in g.names:  # loaded graphs are named
        raise DksError(f"unknown vertex {token!r}")
    return None if token is None else g.names.index(token)


def _density(k: int, m: int) -> str:
    return "0" if k == 0 else f"{m / k:.4f}"


def _print_values(values: list[int], lo: int, out) -> None:
    for kp in range(lo, len(values)):
        print(f"{kp} {values[kp]} {_density(kp, values[kp])}", file=out)


# --------------------------------------------------------------- solve


def _solve_traced(g: Graph, ns: argparse.Namespace, k: int, dump: bool,
                  out, witness: bool = False,
                  trace: bool = False) -> SolveReport:
    """One solve() call; each of its table events goes to `out` as a TSV
    block when `dump` is set, and to stderr as one line with `trace`."""
    events: list | None = [] if dump or trace else None
    rep = solve(g, k, force_solver=ns.force_solver,
                triangulation=ns.triangulation,
                root=_resolve_root(g, ns.root), witness=witness,
                trace=events)
    if dump:
        for ev in events:
            _print_table(ev, out)
    if trace:
        for ev in events:
            pv = "-" if ev["pivot"] is None else ev["pivot"]
            print(f"trace {ev['branch']} {_ends(ev)} pivot={pv}",
                  file=sys.stderr)
    return rep


def cmd_solve(ns: argparse.Namespace) -> int:
    out = sys.stdout
    g = load_graph(ns.graph)
    k = g.n if ns.all_k else ns.k
    rep = _solve_traced(g, ns, k, ns.dump_tables, out, ns.witness, ns.trace)
    _print_values(rep.values, 0 if ns.all_k else k, out)
    if ns.witness:
        names = " ".join(g.name_of(v) for v in sorted(rep.witness))
        print(f"# witness: {names}", file=out)
    return EXIT_OK


# --------------------------------------------------------------- oracle


def cmd_oracle(ns: argparse.Namespace) -> int:
    out = sys.stdout
    g = load_graph(ns.graph)
    if ns.all_k:
        _print_values(brute_force_all_k(g), 0, out)
    else:
        m, _ = brute_force_densest_k(g, ns.k)
        print(f"{ns.k} {m} {_density(ns.k, m)}", file=out)
    return EXIT_OK


# ------------------------------------------------------------------ gen


def cmd_gen(ns: argparse.Namespace) -> int:
    out = sys.stdout
    spec = GenSpec(n=ns.n, b=ns.b, rho=ns.rho, seed=ns.seed)
    g = {"outerplanar": gen_outerplanar,
         "bouterplanar": gen_bouterplanar,
         "planar": gen_planar}[ns.family](spec)
    text = dump_json(g)
    if ns.out:
        Path(ns.out).write_text(text + "\n")
    else:
        print(text, file=out)
    return EXIT_OK


# ----------------------------------------------------------- probe-ptas


def cmd_probe(ns: argparse.Namespace) -> int:
    out = sys.stdout
    if ns.graph:
        files = [ns.graph]
    else:
        files = sorted(str(p) for p in Path(ns.corpus).iterdir()
                       if p.is_file())
    results = []
    for path in files:
        g = load_graph(path)
        results.append((path, probe(g, min(ns.k, g.n), ns.epsilon,
                                    root=_resolve_root(g, ns.root) or 0,
                                    classic=ns.classic)))

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
        if ns.dump_worst:
            Path(ns.dump_worst).write_text(
                dump_json(load_graph(worst_path)) + "\n")
    return EXIT_OK


# --------------------------------------------------------- dump-tables


def _fmt(cell: int) -> str:
    return ABSENT_MARK if cell < 0 else str(cell)


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


def cmd_dump_tables(ns: argparse.Namespace) -> int:
    out = sys.stdout
    g = load_graph(ns.graph)
    _solve_traced(g, ns, g.n if ns.k is None else ns.k, True, out)
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

    # the options that solve and dump-tables share
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--graph", required=True)
    solver.add_argument("--force-solver", default="auto", choices=SOLVERS)
    solver.add_argument("--triangulation", default="zigzag",
                        choices=TRIANGULATIONS)
    solver.add_argument("--root")

    p = sub.add_parser("solve", parents=[solver],
                       help="exact optimum via the right DP")
    add_k(p)
    p.add_argument("--witness", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--dump-tables", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="brute-force reference answer")
    p.add_argument("--graph", required=True)
    add_k(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="seeded instance generator")
    p.add_argument("family", choices=["outerplanar", "bouterplanar", "planar"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--rho", type=float, default=0.5)
    # a string default goes through `type`, so a bad $DKS_SEED is a usage error
    p.add_argument("--seed", type=int, default=os.environ.get("DKS_SEED", "0"),
                   help="default: $DKS_SEED, else 0")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

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
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("dump-tables", parents=[solver],
                       help="print every intermediate DP table as TSV")
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_dump_tables)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:     # argparse exits 2 on usage errors
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return ns.func(ns)
    except KTooLarge as exc:
        print(f"K_TOO_LARGE: {exc}", file=sys.stderr)
        return EXIT_K_TOO_LARGE
    except (NotPlanar, NotOuterplanar) as exc:
        print(f"NOT_SOLVABLE: {exc}", file=sys.stderr)
        return EXIT_NOT_SOLVABLE
    except InternalError as exc:
        print(f"INTERNAL: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BrokenPipeError:
        # the reader is gone; point stdout at the null device so that the
        # flush at shutdown has somewhere to write what is still buffered
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (DksError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
