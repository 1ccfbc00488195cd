"""Benchmark of the exact densest-k-subgraph solvers.

    python3 perfbench/run.py --workload flat --seed 1 --seconds 20 --trace 0

A run builds the workload's instances from the seed (`workloads.py`), checks
the solver on them outside any timed region, then repeats the workload's
three passes -- `solve` (fixed k), `allk` (k = n) and `witness` -- in turn,
closed loop, one thread, until `--seconds` have passed, and reports the
median pass times, scaled to a fixed machine speed (`Clock`).  One further
`solve` pass runs under `tracemalloc` for the peak-memory figure.  Every
metric is printed by name with its unit; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

`--trace 1` reports the per-layer metrics instead: untraced `solve` passes
alternate with traced rounds of all three passes, whose spans come from
hooks around the public functions of each `dks` module (`tracing.py`).
Spans and per-pass counters are written under `perfbench/out/`.

An operation fails when it raises, when its values differ from the
reference or from an earlier repetition, or when its witness fails the
certificate (size k, induced edges equal to the optimum).  References: the
brute-force oracle on n <= 16 instances of the workload's families, the
leveled solver forced onto every instance made only of outerplanar graphs,
and the other triangulation variant on every other instance.  A workload's
probe instances (a known solver defect) are solved once and reported apart.
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from tracing import LAYER_SPANS, Tracer, layer_metrics
from workloads import (PASSES, build, describe, fingerprint, instances,
                       workloads)

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

E2E_UNITS = {"setup_s": "s", "solve_s": "s", "allk_s": "s",
             "witness_s": "s", "peak_mem_mib": "MiB"}
STATS = ("cells", "max_rows", "merges", "pieces", "levels", "fake_edges")
LAYER_UNITS = {
    **{m: ("count" if m.endswith("_calls") else "s") for m in LAYER_SPANS},
    "generators.gen_s": "s",
    "solve.witness_resolves": "count",
    "solve.witness_hit_ratio": "1",
    **{f"stats.{s}": "count" for s in STATS},
    "trace.overhead_ratio": "1",
}
SETUP_REPS = 3      # set-up is repeated and its median reported
MIN_ROUNDS = 3      # at least this many samples per pass, however short the run
REF_K = 10          # the all-k pass is checked against a reference up to here
REF_S = 0.005       # nominal seconds of one reference_seconds() loop
SEGMENT_S = 0.1     # a pass is scaled in segments of at least this much wall
PROBE_LIMIT_S = 20  # a probe still running after this is reported unfinished
PROBE_MEM = 2 ** 30  # ... and so is one that needs this much more memory

_REF_ROWS = [[(7 * i + 13 * j) % 97 for j in range(24)] for i in range(60)]


def reference_seconds() -> float:
    """Wall seconds that a fixed pure-Python loop takes right now: max-plus
    folds and dict inserts, the kind of work the solver does.  The loop
    never changes, so its time measures the machine's current speed."""
    t0 = time.perf_counter()
    for _ in range(3):
        acc, seen = [0] * 24, {}
        for row in _REF_ROWS:
            new = [-1] * 24
            for i, a in enumerate(acc):
                for j in range(24 - i):
                    v = a + row[j]
                    if v > new[i + j]:
                        new[i + j] = v
            acc = new
            seen[len(seen)] = tuple(acc)
    return time.perf_counter() - t0


class Clock:
    """Wall time scaled to a fixed machine speed.

    On a shared virtual machine the speed of one unchanged loop drifts by up
    to 1.8x within a minute, and CPU time drifts with it.  Each timed region
    therefore sits between two runs of `reference_seconds`, and its time is
    reported as wall seconds x REF_S / (mean of the two): the seconds it
    would take on a machine where the reference loop takes REF_S.  Regions
    are kept short (a set-up round, or a segment of a pass) because the
    speed can change within a second.
    """

    def __init__(self) -> None:
        self.last = reference_seconds()

    def scaled(self, wall: float) -> float:
        before, self.last = self.last, reference_seconds()
        return wall * 2 * REF_S / (before + self.last)


@functools.cache
def import_dks():
    """(dks.solve module, scaled seconds the import took), importing the
    package from this checkout's `src`, never an installed copy."""
    clock = Clock()
    t0 = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dks  # noqa: F401
        from dks import generators, oracle  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import dks from {src}: {exc}")
    where = Path(sys.modules["dks"].__file__).resolve().parent
    if where != (src / "dks").resolve():
        sys.exit(f"perfbench: imported dks from {where}, not from {src}")
    return (importlib.import_module("dks.solve"),
            clock.scaled(time.perf_counter() - t0))


def certificate(g, k: int, witness, target: int) -> str | None:
    """Why the witness does not prove values[k], or None when it does."""
    if witness is None or len(witness) != k or len(set(witness)) != k \
            or not all(0 <= v < g.n for v in witness):
        return f"witness {witness!r} is not a set of {k} vertices"
    sel = set(witness)
    got = sum(1 for u, v in g.edges if u in sel and v in sel)
    if got != target:
        return f"witness induces {got} edges, the optimum is {target}"
    return None


def k_of(inst, g) -> int:
    return g.n if inst.k is None else inst.k


class Run:
    """One workload at one seed: instances, references and op accounting."""

    def __init__(self, workload: str, seed: int, small: bool = False,
                 corrupt: bool = False) -> None:
        self.solve_mod, self.import_s = import_dks()
        self.corrupt = corrupt
        self.name = workload
        self.wl = workloads(small)[workload]
        self.seed = seed
        self.graphs: dict = {}
        self.fingerprints: dict = {}
        self.ref: dict = {}       # (pass, instance) -> expected values prefix
        self.seen: dict = {}      # op label -> values of its first repetition
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.probes: list[str] = []  # outcome of each probe instance
        self.probe_failed = 0
        self.samples: dict[str, list[float]] = {}   # pass -> scaled seconds
        self.wall: dict[str, list[float]] = {}      # pass -> wall seconds
        self.per_pass: dict[str, dict] = {}          # traced runs only
        self.tracer: Tracer | None = None            # traced runs only

    # ------------------------------------------------------------- checks

    def _fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {why}")

    def verify(self, label: str, g, k: int, res, ref=None,
               witness: bool = False) -> None:
        self.attempted += 1
        if isinstance(res, Exception):
            self._fail(label, f"raised {type(res).__name__}: {res}")
            return
        vals = res.values
        first = self.seen.setdefault(label, vals)
        if len(vals) != k + 1:
            why = f"{len(vals)} values for k={k}"
        elif ref is not None and vals[:len(ref)] != ref:
            why = f"values {vals[:len(ref)]} differ from reference {ref}"
        elif vals != first:
            why = "values differ from an earlier repetition"
        elif witness:
            why = certificate(g, k, res.witness, vals[k])
        else:
            why = None
        if why:
            self._fail(label, why)

    def verify_pass(self, p: str, results: list) -> None:
        for inst, res in zip(self.wl.passes[p], results):
            g = self.graphs[inst.name]
            self.verify(f"{p}/{inst.name}", g, k_of(inst, g), res,
                        self.ref.get((p, inst.name)), witness=p == "witness")

    # -------------------------------------------------------------- stages

    def setup(self, tracer: Tracer | None = None) -> tuple[float, float]:
        """(setup_s, generator seconds): imports plus the median of
        SETUP_REPS rounds of instance generation and warm-up, scaled."""
        times, gens = [], []
        clock = Clock()
        for rep in range(SETUP_REPS):
            lo = len(tracer) if tracer is not None else 0
            t0 = time.perf_counter()
            graphs = {n: build(i, self.seed)
                      for n, i in instances(self.wl).items()}
            for p in PASSES:
                inst = min(self.wl.passes[p], key=lambda i: graphs[i.name].n)
                g = graphs[inst.name]
                self.solve_mod.solve(g, min(k_of(inst, g), REF_K))
            times.append(clock.scaled(time.perf_counter() - t0))
            if tracer is not None:
                gens.append(tracer.top_level_seconds(lo, len(tracer),
                                                     "generators."))
            prints = {n: fingerprint(g) for n, g in graphs.items()}
            if rep == 0:
                self.graphs, self.fingerprints = graphs, prints
            else:
                self.attempted += 1
                if prints != self.fingerprints:
                    self._fail("setup", "the same seed built different graphs")
        return (self.import_s + statistics.median(times),
                statistics.median(gens) if gens else 0.0)

    def gate(self) -> None:
        """Reference values and oracle checks, all outside timed passes."""
        from dks.oracle import brute_force_all_k

        solve = self.solve_mod.solve
        for inst in self.wl.oracle:
            g = build(inst, self.seed)
            expect = brute_force_all_k(g)
            k = min(8, g.n)
            for kk, wit in ((g.n, False), (k, True)):
                try:
                    res = solve(g, kk, witness=wit)
                except Exception as exc:  # counted as a failed op
                    res = exc
                self.verify(f"oracle/{inst.name}/k{kk}", g, kk, res,
                            expect[:kk + 1], witness=wit)
        # A second solver path per instance: the leveled program forced onto
        # flat instances (up to REF_K, as it is slow there), the other
        # triangulation, hence another forest, on the rest.
        cache: dict = {}
        for p in PASSES:
            for inst in self.wl.passes[p]:
                g = self.graphs[inst.name]
                if inst.flat:
                    k = min(g.n, REF_K) if inst.k is None else inst.k
                    how = {"force_solver": "bouterplanar"}
                else:
                    k, how = k_of(inst, g), {"triangulation": "zigzag_alt"}
                key = (inst.name, k)
                if key not in cache:
                    try:
                        res = solve(g, k, **how)
                    except Exception as exc:  # counted as a failed op
                        res = exc
                    self.verify(f"reference/{inst.name}/k{k}", g, k, res)
                    cache[key] = None if isinstance(res, Exception) \
                        else list(res.values)
                self.ref[(p, inst.name)] = cache[key]
        for inst in self.wl.probe:
            self.run_probe(inst)
        if self.corrupt:
            key = next(k for k, v in self.ref.items() if v)
            self.ref[key] = self.ref[key][:-1] + [self.ref[key][-1] + 1]

    def run_probe(self, inst) -> None:
        """Solve a probe instance once, with limits on time and memory, and
        record the outcome apart from the workload's own operations."""
        g = build(inst, self.seed)

        def expire(signum, frame):
            raise TimeoutError

        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
        limits = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (size + PROBE_MEM, limits[1]))
        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(PROBE_LIMIT_S)
        try:
            res = self.solve_mod.solve(g, inst.k)
            why = None if len(res.values) == inst.k + 1 \
                else f"{len(res.values)} values for k={inst.k}"
            outcome = why or "passed"
        except TimeoutError:
            why, outcome = None, f"unfinished after {PROBE_LIMIT_S} s"
        except MemoryError:
            why, outcome = None, (f"stopped after {PROBE_MEM >> 20} MiB "
                                  f"more memory")
        except Exception as exc:  # the known defect
            why = outcome = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
            resource.setrlimit(resource.RLIMIT_AS, limits)
        self.probe_failed += why is not None
        self.probes.append(f"{describe(inst)} seed {self.seed}: {outcome}")

    def run_pass(self, p: str, tracer: Tracer | None = None,
                 clock: Clock | None = None):
        """(wall seconds, scaled seconds, results) of one pass; results are
        checked after.  With a clock, the reference loop runs between two
        instances whenever SEGMENT_S of solving has passed since it last
        ran, and at the end; each segment is scaled by the loops around it.
        Without one, the scaled seconds are the wall seconds."""
        solve = self.solve_mod.solve
        insts = self.wl.passes[p]
        graphs = [self.graphs[i.name] for i in insts]
        ks = [k_of(i, g) for i, g in zip(insts, graphs)]
        witness = p == "witness"
        out = []
        wall = scaled = seg = 0.0
        for g, k in zip(graphs, ks):
            if tracer is not None:
                tracer.current_op += 1
            t0 = time.perf_counter()
            try:
                out.append(solve(g, k, witness=witness))
            except Exception as exc:  # counted as a failed op
                if not any(isinstance(r, Exception) for r in out):
                    traceback.print_exc(file=sys.stderr)
                out.append(exc)
            seg += time.perf_counter() - t0
            if clock is not None and seg >= SEGMENT_S:
                wall, scaled, seg = wall + seg, scaled + clock.scaled(seg), 0.0
        if seg:
            wall += seg
            scaled += clock.scaled(seg) if clock is not None else seg
        return wall, scaled, out

    def peak_pass(self) -> float:
        """tracemalloc peak of one solve pass, in MiB."""
        tracemalloc.start()
        try:
            _, _, res = self.run_pass("solve")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.verify_pass("solve", res)
        return peak / 2 ** 20

    # ---------------------------------------------------------------- runs

    def measure(self, seconds: float) -> dict:
        """End-to-end metrics, tracing off."""
        setup_s, _ = self.setup()
        self.gate()
        # The instances and references are the harness's, not the solver's:
        # keep the collector from re-scanning them inside timed passes.
        gc.freeze()
        samples: dict[str, list[float]] = {p: [] for p in PASSES}
        self.wall = {p: [] for p in PASSES}
        clock = Clock()
        deadline = time.perf_counter() + seconds
        while len(samples["solve"]) < MIN_ROUNDS \
                or time.perf_counter() < deadline:
            for p in PASSES:
                dt, scaled, res = self.run_pass(p, clock=clock)
                samples[p].append(scaled)
                self.wall[p].append(dt)
                self.verify_pass(p, res)
        peak = self.peak_pass()
        self.samples = samples
        return {"setup_s": setup_s,
                **{f"{p}_s": statistics.median(samples[p]) for p in PASSES},
                "peak_mem_mib": peak}

    def measure_traced(self, seconds: float) -> dict:
        """Per-layer metrics: untraced solve passes interleaved with traced
        rounds of all three passes."""
        self.tracer = tracer = Tracer()
        with tracer.hooked():
            _, gen_s = self.setup(tracer)
        self.gate()
        gc.freeze()
        plain: list[float] = []
        traced: dict[str, list] = {p: [] for p in PASSES}
        clock = Clock()
        deadline = time.perf_counter() + seconds
        while len(plain) < MIN_ROUNDS or time.perf_counter() < deadline:
            _, scaled, res = self.run_pass("solve", clock=clock)
            plain.append(scaled)
            self.verify_pass("solve", res)
            with tracer.hooked():
                for p in PASSES:
                    lo = len(tracer)
                    with tracer.span(f"pass.{p}"):
                        _, scaled, res = self.run_pass(p, tracer, clock)
                    traced[p].append((scaled, tracer.summarize(lo, len(tracer)),
                                      res))
                    self.verify_pass(p, res)
        self.samples = {"solve (untraced)": plain,
                        **{p: [t[0] for t in traced[p]] for p in PASSES}}
        self.per_pass = {p: pass_record(traced[p]) for p in PASSES}

        out = layer_metrics(self.per_pass["solve"]["spans"])
        out["generators.gen_s"] = gen_s
        wit = self.per_pass["witness"]
        resolves = wit["spans"].get("graph.connected_components",
                                    [0, 0, 0])[0] - len(self.wl.passes["witness"])
        removals = sum(self.graphs[i.name].n - i.k
                       for i in self.wl.passes["witness"])
        out["solve.witness_resolves"] = resolves
        out["solve.witness_hit_ratio"] = removals / resolves if resolves > 0 else 0.0
        for s in STATS:
            out[f"stats.{s}"] = self.per_pass["solve"]["stats"][s]
        out["trace.overhead_ratio"] = (statistics.median(self.samples["solve"])
                                       / statistics.median(plain))
        return out


def pass_record(rows: list) -> dict:
    """Per span name, the medians of [calls, total_s, self_s] over the
    traced repetitions of one pass; and its SolveReport.stats, summed."""
    names = sorted({n for _, s, _ in rows for n in s})
    spans = {n: [statistics.median(s.get(n, [0, 0.0, 0.0])[c]
                                   for _, s, _ in rows) for c in range(3)]
             for n in names}
    stats = dict.fromkeys(STATS, 0)
    for res in rows[-1][2]:
        if isinstance(res, Exception):
            continue
        for s in STATS:
            v = res.stats.get(s, 0)
            stats[s] = max(stats[s], v) if s == "max_rows" else stats[s] + v
    return {"spans": spans, "stats": stats}


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool = False, corrupt: bool = False) -> tuple[Run, dict]:
    r = Run(workload, seed, small, corrupt)
    metrics = r.measure_traced(seconds) if trace else r.measure(seconds)
    return r, metrics


def report(r: Run, metrics: dict, trace: bool) -> dict:
    """Print every metric by name with its unit; return the result object."""
    units = LAYER_UNITS if trace else E2E_UNITS
    print(f"workload {r.name}  seed {r.seed}  trace {int(trace)}")
    for name, fp in r.fingerprints.items():
        print(f"instance {name:<12} {fp}")
    for p, xs in r.samples.items():
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        wall = (f"  wall median {statistics.median(r.wall[p]):.6f} s"
                if p in r.wall else "")
        print(f"pass {p:<17} {len(xs)} samples  median {q2:.6f} s  "
              f"q1 {q1:.6f}  q3 {q3:.6f}{wall}")
    if trace:
        for p, rec in r.per_pass.items():
            calls = "  ".join(f"{n}={v[0]:g}" for n, v in rec["spans"].items())
            print(f"calls {p}: {calls}")
            print(f"stats {p}: " + "  ".join(f"{k}={v}"
                                            for k, v in rec["stats"].items()))
    for name, unit in units.items():
        print(f"metric {name:<30} {metrics[name]:>16.6f} {unit}")
    failed = r.failed + r.probe_failed
    attempted = r.attempted + len(r.probes)
    ratio = failed / attempted if attempted else 1.0
    print(f"metric {'failure_ratio':<30} {ratio:>16.6f} 1  "
          f"({failed} of {attempted} ops; {r.probe_failed} of {len(r.probes)}"
          f" on the probe, left out of the result line)")
    for line in r.failures:
        print(f"FAILED {line}")
    for line in r.probes:
        print(f"PROBE {line}")
    return {"correct": r.failed == 0 and r.attempted > 0,
            "attempted": r.attempted, "failed": r.failed,
            "metrics": {n: {"value": metrics[n], "unit": u}
                        for n, u in units.items()}}


def save(r: Run, result: dict, trace: bool) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{r.name}-seed{r.seed}-trace{int(trace)}"
    record = {"workload": r.name, "seed": r.seed, "result": result,
              "fingerprints": r.fingerprints, "samples": r.samples,
              "wall": r.wall, "failures": r.failures, "probes": r.probes}
    if trace:
        record["passes"] = r.per_pass
        record["missing_hooks"] = r.tracer.missing
        r.tracer.write(OUT / f"{stem}-spans.csv.gz")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads()))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    r, metrics = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(r, metrics, bool(args.trace))
    save(r, result, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
