"""Byte-for-byte golden output of `dks dump-tables` and of
`dks solve --trace --witness`, for inputs whose every table is pinned.

Unlike the parsed-table checks of test_acceptance, these also pin the
order in which tables are built and printed, repeated headers (the
flower's two `merge (2,2)` tables), the trace lines on stderr and the
witness.

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_byte_for_byte(name):
    want = (GOLDEN / f"{name}.txt").read_text()
    assert render(name) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{case}.txt").write_text(render(case))
    print(f"wrote {len(CASES)} files to {GOLDEN}", file=sys.stderr)
