#!/usr/bin/env python3
"""Build a planar corpus and measure how much the leveling heuristic loses.

Generates `--count` seeded planar instances, writes each one as a JSON
graph file under `--corpus-dir` (so the same directory can be re-probed
or benchmarked later via the command line), then runs the probe on every
file and prints the per-instance CSV, a ratio histogram, and the
worst-case instance.  Small n keeps the reference optimum exact.

The interesting output is the low end of the histogram: a ratio near 1
means the best level-congruence class kept almost the whole optimum, a
ratio near 0 means the decomposition threw the optimum's edges away.
Star-like inputs (try --rho low, or the acceptance suite's explicit
star) pin the keep-variant to 0.
"""

import argparse
import sys
from pathlib import Path

from dks.generators import GenSpec, gen_planar
from dks.graph import dump_json, load_graph
from dks.ptas_probe import PROBE_COLUMNS, ProbeReport, probe


def build_corpus(directory: Path, count: int, n_lo: int, n_hi: int,
                 rho: float, seed0: int) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        spec = GenSpec(n=n_lo + i % (n_hi - n_lo + 1), rho=rho, seed=seed0 + i)
        p = directory / f"planar_n{spec.n}_s{spec.seed}.json"
        p.write_text(dump_json(gen_planar(spec)))
        paths.append(p)
    return paths


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--corpus-dir", default="probe_corpus",
                    help="where the generated JSON graphs go")
    ap.add_argument("--count", type=int, default=80)
    ap.add_argument("--n-lo", type=int, default=8)
    ap.add_argument("--n-hi", type=int, default=16)
    ap.add_argument("--rho", type=float, default=0.75,
                    help="per-edge keep probability of the triangulation")
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--epsilon", type=float, default=0.4)
    ap.add_argument("--classic", action="store_true",
                    help="delete a congruence class instead of keeping one")
    ap.add_argument("--seed", type=int, default=0)
    ns = ap.parse_args(argv)

    paths = build_corpus(Path(ns.corpus_dir), ns.count, ns.n_lo, ns.n_hi,
                         ns.rho, ns.seed)
    report = ProbeReport()
    print(",".join(("file",) + PROBE_COLUMNS))
    for p in paths:
        g = load_graph(str(p))
        entry = probe(g, min(ns.k, g.n), ns.epsilon, classic=ns.classic)
        report.entries.append(entry)
        row = entry.to_dict()
        row["ratio"] = f"{entry.ratio:.6f}"
        print(",".join([p.name] + [str(row[c]) for c in PROBE_COLUMNS]))

    print(f"# histogram {','.join(str(c) for c in report.histogram())}")
    worst = report.worst()
    worst_path = paths[report.entries.index(worst)]
    print(f"# worst {worst_path.name} ratio={worst.ratio:.6f} "
          f"(s={worst.s}, opt={worst.opt}, b={worst.b}, {worst.variant})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
