"""Byte-for-byte golden output of `dks dump-tables` and of
`dks solve --trace --witness`, for inputs whose every table is pinned.

Unlike the parsed-table checks of test_acceptance, these also pin the
order in which tables are built and printed, repeated headers (the
flower's two `merge (2,2)` tables), the trace lines on stderr and the
witness.

`witness_every_k.txt` pins the witness `dks solve --k k --witness`
prints at every k = 0..n of a few inputs.  A witness at k = n is every
vertex, so only the smaller ones pin the traceback's tie-breaks: which
term, middle subset, boundary row or component split it takes first
when several reach a cell.

The files under tests/golden/ were written by running this module as a
script, `PYTHONPATH=src python tests/test_golden.py`, which rewrites
them from the code in the checkout; do that only when an output change
is intended, and say why in the change's notes.
"""

from __future__ import annotations

import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from dks.cli import main
from dks.graph import load_graph

GOLDEN = Path(__file__).parent / "golden"

FIG7 = "c b\nb a\na e\ne f\nf g\ng d\nd c\nb e\nb g\nc g\n"
W5 = "".join(f"{i} {(i + 1) % 5}\n{i} 5\n" for i in range(5))
# three triangles at vertex 2, plus a pendant edge at the same vertex
FLOWER = "0 1\n1 2\n0 2\n2 3\n3 4\n2 4\n2 5\n5 6\n2 6\n2 7\n"
# the edges of gen_bouterplanar(GenSpec(n=20, b=3, seed=1)), without its
# rotation: three levels under either triangulation, tables of up to 6
# boundary vertices
B3 = "".join(f"{e}\n" for e in (
    "0 1", "0 7", "0 10", "1 2", "1 11", "2 3", "2 12", "3 4", "3 13",
    "4 5", "4 14", "5 6", "5 15", "6 7", "6 8", "6 16", "7 9", "8 9",
    "8 16", "9 10", "10 11", "10 19", "11 12", "12 13", "13 14",
    "13 17", "14 15", "15 16", "16 18", "17 18", "17 19", "18 19"))

LEVELED = ("--force-solver", "bouterplanar")

# the CI's mixed.json: a triangle, an edge, a K4 and an isolated vertex
MIXED = ('{"vertices": ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"], '
         '"edges": [["a", "b"], ["b", "c"], ["c", "a"], ["d", "e"], '
         '["f", "g"], ["f", "h"], ["f", "i"], ["g", "h"], ["g", "i"], '
         '["h", "i"]]}')

# name -> (graph text, options shared by both commands, k options of
# dump-tables, k options of solve)
CASES = {
    "fig7_k7": (FIG7, (), ("--k", "7"), ("--k", "7")),
    "fig7_all_k": (FIG7, (), (), ("--all-k",)),
    "fig7_root_c": (FIG7, ("--root", "c"), ("--k", "7"), ("--k", "7")),
    "fig7_leveled_zigzag": (FIG7, LEVELED + ("--triangulation", "zigzag"),
                            (), ("--all-k",)),
    "fig7_leveled_zigzag_alt": (FIG7, LEVELED + ("--triangulation",
                                                 "zigzag_alt"),
                                (), ("--all-k",)),
    "w5_zigzag": (W5, ("--triangulation", "zigzag"), (), ("--all-k",)),
    "w5_zigzag_alt": (W5, ("--triangulation", "zigzag_alt"), (),
                      ("--all-k",)),
    "flower": (FLOWER, (), (), ("--all-k",)),
    "b3_zigzag": (B3, LEVELED + ("--triangulation", "zigzag"), (),
                  ("--all-k",)),
    "b3_zigzag_alt": (B3, LEVELED + ("--triangulation", "zigzag_alt"), (),
                      ("--all-k",)),
}

# name -> (graph text, solve options) of the witness at every k
WITNESS_CASES = {
    "fig7": (FIG7, ()),
    "fig7_root_c": (FIG7, ("--root", "c")),
    "fig7_leveled_zigzag": (FIG7, LEVELED + ("--triangulation", "zigzag")),
    "fig7_leveled_zigzag_alt": (FIG7, LEVELED + ("--triangulation",
                                                 "zigzag_alt")),
    "w5_zigzag": (W5, ("--triangulation", "zigzag")),
    "w5_zigzag_alt": (W5, ("--triangulation", "zigzag_alt")),
    "flower": (FLOWER, ()),
    "b3_zigzag": (B3, LEVELED + ("--triangulation", "zigzag")),
    "b3_zigzag_alt": (B3, LEVELED + ("--triangulation", "zigzag_alt")),
    "mixed": (MIXED, ()),
}


def _run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def render(name: str) -> str:
    """Both commands' output for one case, as one text with a header per
    stream."""
    text, common, dump_k, solve_k = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / f"{name}.edges")
        Path(path).write_text(text)
        dump = _run("dump-tables", "--graph", path, *common, *dump_k)
        solved = _run("solve", "--graph", path, *common, *solve_k,
                      "--trace", "--witness")
    parts = []
    for cmd, (code, out, err) in (("dump-tables", dump), ("solve", solved)):
        parts += [f"== {cmd} exit {code}\n", f"== {cmd} stdout\n", out,
                  f"== {cmd} stderr\n", err]
    return "".join(parts)


def render_witnesses() -> str:
    """One line per case and k: `case k: ` and the witness's names, from
    one `dks solve --k k --witness` each."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, (text, opts) in WITNESS_CASES.items():
            path = Path(tmp) / f"{name}.graph"
            path.write_text(text)
            for kp in range(load_graph(str(path)).n + 1):
                code, out, _ = _run("solve", "--graph", str(path), *opts,
                                    "--k", str(kp), "--witness")
                picked = [ln for ln in out.splitlines()
                          if ln.startswith("# witness:")]
                lines.append(f"{name} {kp} exit {code}:"
                             f"{''.join(ln[10:] for ln in picked)}\n")
    return "".join(lines)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_byte_for_byte(name):
    want = (GOLDEN / f"{name}.txt").read_text()
    assert render(name) == want


def test_witness_at_every_k_matches_golden():
    want = (GOLDEN / "witness_every_k.txt").read_text()
    assert render_witnesses() == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{case}.txt").write_text(render(case))
    (GOLDEN / "witness_every_k.txt").write_text(render_witnesses())
    print(f"wrote {len(CASES) + 1} files to {GOLDEN}", file=sys.stderr)
