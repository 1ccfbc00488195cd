"""The CLI: golden output lines, exit codes, file round-trips."""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import dks.cli
from dks import dp_outerplanar
from dks.errors import BoundaryMismatch, InternalError, NoDividingPoint
from dks.graph import parse_json
from helpers import parse_tables, run_cli as run

FIXTURE = "c b\nb a\na e\ne f\nf g\ng d\nd c\nb e\nb g\nc g\n"


@pytest.fixture
def fig(tmp_path):
    p = tmp_path / "fig.edges"
    p.write_text(FIXTURE)
    return str(p)


def test_solve_golden_line(fig, capsys):
    code, out, _ = run(capsys, "solve", "--graph", fig, "--k", "7")
    assert code == 0
    assert out == "7 10 1.4286\n"


def test_solve_k_zero_convention(fig, capsys):
    code, out, _ = run(capsys, "solve", "--graph", fig, "--k", "0")
    assert (code, out) == (0, "0 0 0\n")


def test_solve_all_k_and_witness(fig, capsys):
    code, out, _ = run(capsys, "solve", "--graph", fig, "--all-k",
                       "--witness")
    lines = out.strip().splitlines()
    assert lines[0] == "0 0 0" and lines[7] == "7 10 1.4286"
    assert lines[8].startswith("# witness: ") and len(lines) == 9


def test_k4_is_planar_and_solved(tmp_path, capsys):
    p = tmp_path / "k4.edges"
    p.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run(capsys, "solve", "--graph", str(p), "--k", "4")
    assert (code, out) == (0, "4 6 1.5000\n")


def test_nonplanar_exits_2(tmp_path, capsys):
    p = tmp_path / "k5.edges"
    p.write_text("".join(f"{i} {j}\n" for i in range(5) for j in range(i)))
    code, _, err = run(capsys, "solve", "--graph", str(p), "--k", "3")
    assert code == 2 and "NOT_SOLVABLE" in err


def test_forced_flat_solver_rejects_wheel(tmp_path, capsys):
    p = tmp_path / "w4.edges"
    p.write_text("0 1\n1 2\n2 3\n3 0\n0 4\n1 4\n2 4\n3 4\n")
    code, _, err = run(capsys, "solve", "--graph", str(p), "--k", "3",
                       "--force-solver", "outerplanar")
    assert code == 2 and "NOT_SOLVABLE" in err


def test_k_too_large_exits_3(fig, capsys):
    code, _, err = run(capsys, "solve", "--graph", fig, "--k", "9")
    assert code == 3 and "K_TOO_LARGE" in err


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "solve", "--graph", "/nope.edges", "--k", "2")
    assert code == 1 and "error:" in err


# FIG stands for a real graph file, BAD for a malformed JSON graph and
# NAMED for an edge list whose vertex names are not their ids, so that
# each case fails on its own refusal, not on a missing file
@pytest.mark.parametrize("argv", [
    ["solve", "--k", "3"],                       # no --graph
    ["solve", "--graph", "g.edges", "--k", "x"],
    ["solve", "--graph", "FIG", "--k", "-1"],
    ["bench", "--corpus", "."],                  # no such subcommand
    [],
    ["dump-tables", "--graph", "FIG", "--k", "-1"],
    ["oracle", "--graph", "FIG", "--k", "-1"],
    ["probe-ptas", "--graph", "FIG", "--k", "-1", "--epsilon", "0.5"],
    ["probe-ptas", "--graph", "FIG", "--k", "3", "--epsilon", "0"],
    ["probe-ptas", "--graph", "FIG", "--k", "3", "--epsilon", "-1"],
    ["probe-ptas", "--graph", "FIG", "--k", "3", "--epsilon", "nan"],
    ["solve", "--graph", "FIG", "--k", "3", "--root", "99"],
    ["solve", "--graph", "BAD", "--k", "3"],
    ["probe-ptas", "--graph", "FIG", "--k", "3", "--epsilon", "1e-320"],
    ["solve", "--graph", "NAMED", "--k", "2", "--root", "1", "--witness"],
])
def test_usage_errors_exit_1(fig, tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": 5, "edges": []}')
    named = tmp_path / "named.edges"
    named.write_text("10 20\n20 30\n30 10\n30 40\n")
    files = {"FIG": fig, "BAD": str(bad), "NAMED": str(named)}
    code, out, err = run(capsys, *(files.get(a, a) for a in argv))
    assert code == 1 and out == "" and "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("exc", [InternalError, NoDividingPoint,
                                 BoundaryMismatch])
def test_internal_errors_exit_4(fig, capsys, monkeypatch, exc):
    def broken(*args, **kwargs):
        raise exc("window strip desynced")
    monkeypatch.setattr(import_module("dks.solve"),
                        "solve_outerplanar_values", broken)
    code, out, err = run(capsys, "solve", "--graph", fig, "--k", "3")
    assert (code, out) == (4, "")
    assert err == "INTERNAL: window strip desynced\n"


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "solve", "--help")
    assert code == 0 and "--graph" in out


def test_oracle_agrees_with_solve(fig, capsys):
    _, got, _ = run(capsys, "oracle", "--graph", fig, "--all-k")
    _, want, _ = run(capsys, "solve", "--graph", fig, "--all-k")
    assert got == want


def test_oracle_k_refuses_above_the_cap(tmp_path, capsys):
    p = tmp_path / "p21.edges"
    p.write_text("".join(f"{i} {i + 1}\n" for i in range(20)))
    code, out, err = run(capsys, "oracle", "--graph", str(p), "--k", "8")
    assert (code, out) == (1, "") and "error:" in err and "cap" in err


def test_oracle_k_above_n_exits_3_before_the_cap(tmp_path, capsys):
    p = tmp_path / "p25.edges"
    p.write_text("".join(f"{i} {i + 1}\n" for i in range(24)))
    code, out, err = run(capsys, "oracle", "--graph", str(p), "--k", "30")
    assert (code, out) == (3, "") and "K_TOO_LARGE" in err


def test_closed_stdout_is_not_an_error(tmp_path, capsys):
    # a 2,000-vertex outerplanar dump is some 380 KB, far past the 64 KiB
    # a pipe buffers, so closing the reader after one line breaks the
    # pipe while the writer still has output to send
    g = tmp_path / "g.json"
    assert run(capsys, "gen", "outerplanar", "--n", "2000", "--seed", "1",
               "--out", str(g))[0] == 0
    argv = [sys.executable, "-m", "dks.cli", "dump-tables", "--graph",
            str(g), "--k", "3"]
    src = Path(dks.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    full = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    assert full.returncode == 0 and len(full.stdout) > 64 * 1024
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.readline() == full.stdout.splitlines(True)[0]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")


def test_gen_deterministic_and_solvable(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for path in (a, b):
        code, _, _ = run(capsys, "gen", "bouterplanar", "--n", "12",
                         "--b", "2", "--rho", "0.7", "--seed", "5",
                         "--out", path)
        assert code == 0
    assert open(a).read() == open(b).read()
    g = parse_json(open(a).read())
    assert g.rotation is not None and g.outer_face is not None
    code, out, _ = run(capsys, "solve", "--graph", a, "--k", "6")
    assert code == 0 and out.startswith("6 ")


def test_gen_seed_from_environment(tmp_path, capsys, monkeypatch):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(capsys, "gen", "outerplanar", "--n", "9", "--seed", "31",
        "--out", a)
    monkeypatch.setenv("DKS_SEED", "31")
    run(capsys, "gen", "outerplanar", "--n", "9", "--out", b)
    assert open(a).read() == open(b).read()


def test_gen_bad_seed_from_environment_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("DKS_SEED", "abc")
    code, out, err = run(capsys, "gen", "outerplanar", "--n", "5")
    assert (code, out) == (1, "") and "--seed" in err
    # an explicit --seed does not read the environment
    code, out, _ = run(capsys, "gen", "outerplanar", "--n", "5", "--seed", "2")
    assert code == 0 and json.loads(out)["vertices"]


def test_gen_to_stdout_is_json(capsys):
    code, out, _ = run(capsys, "gen", "outerplanar", "--n", "6",
                       "--seed", "1")
    assert code == 0
    assert json.loads(out)["vertices"]


def test_probe_single_csv_row(tmp_path, capsys):
    p = tmp_path / "star.edges"
    p.write_text("h a\nh b\nh c\nh d\nh e\nh f\n")
    code, out, _ = run(capsys, "probe-ptas", "--graph", str(p),
                       "--k", "4", "--epsilon", "0.5")
    header, row = out.strip().splitlines()
    assert code == 0
    assert header.startswith("file,n,m,k,")
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["ratio"] == "0.000000" and cells["variant"] == "keep"
    assert cells["opt"] == "3" and cells["s"] == "0"


def test_probe_corpus_reports_worst(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for s in (1, 2, 3):
        run(capsys, "gen", "planar", "--n", "11", "--rho", "0.9",
            "--seed", str(s), "--out", str(corpus / f"p{s}.json"))
    worst = tmp_path / "worst.json"
    code, out, _ = run(capsys, "probe-ptas", "--corpus", str(corpus),
                       "--k", "5", "--epsilon", "0.5",
                       "--dump-worst", str(worst))
    assert code == 0
    lines = out.strip().splitlines()
    assert len([ln for ln in lines if not ln.startswith(("file,", "#"))]) == 3
    assert any(ln.startswith("# worst ") for ln in lines)
    assert parse_json(worst.read_text()).n == 11


def test_dump_tables_flat_layout(fig, capsys):
    code, out, _ = run(capsys, "dump-tables", "--graph", fig, "--k", "7")
    assert code == 0
    tables = parse_tables(out)
    leaf = tables["leaf (c,b)"]
    assert leaf["0 0"] == [0, None, None]
    assert leaf["1 1"] == [None, None, 1]
    final = tables["merge (c,c)"]
    assert final["1 1"] == [None, 0, 1, 3, 5, 6, 8, 10]
    assert final["0 1"] == [None] * 8


def test_dump_tables_leveled_has_subset_rows(tmp_path, capsys):
    p = tmp_path / "w5.edges"
    p.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n"
                 "0 5\n1 5\n2 5\n3 5\n4 5\n")
    code, out, _ = run(capsys, "dump-tables", "--graph", str(p), "--k", "6")
    assert code == 0
    assert "# S4 " in out and "subset\t" in out and "{}" in out
    # the S2 root table's best k=6 cell must equal the full wheel
    tables = parse_tables(out)
    root = next(t for h, t in tables.items() if h.startswith("# S2")
                or h.startswith("S2"))
    best = max(cells[6] for cells in root.values() if cells[6] is not None)
    assert best == 10


def test_dump_tables_covers_every_component(tmp_path, capsys):
    # two triangles plus a path (flat solver), and K4 + K4 (leveled)
    cases = {"0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n6 7\n7 8\n": (9, 12),
             "".join(f"{u + o} {v + o}\n" for o in (0, 4)
                     for u, v in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                  (2, 3))): (8, 10)}
    for text, (n, blocks) in cases.items():
        p = tmp_path / "g.edges"
        p.write_text(text)
        code, out, _ = run(capsys, "dump-tables", "--graph", str(p))
        assert code == 0
        heads = [ln for ln in out.splitlines() if ln.startswith("# ")]
        assert len(heads) == blocks
        named = {v for h in heads
                 for v in h.split()[2].strip("()").split(",")}
        assert named == {str(v) for v in range(n)}


def test_solve_dump_tables_solves_once(fig, capsys, monkeypatch):
    calls = {"solve": 0, "fold": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dks.cli, "solve", counted("solve", dks.cli.solve))
    fold = counted("fold", dp_outerplanar.solve_outerplanar_values)
    monkeypatch.setattr(dp_outerplanar, "solve_outerplanar_values", fold)
    monkeypatch.setattr(import_module("dks.solve"), "solve_outerplanar_values",
                        fold)
    code, out, err = run(capsys, "solve", "--graph", fig, "--k", "7",
                         "--dump-tables", "--trace")
    assert code == 0 and out.endswith("7 10 1.4286\n")
    assert sum(ln.startswith("# ") for ln in out.splitlines()) == 13
    assert err.count("trace ") == 13
    assert calls == {"solve": 1, "fold": 1}


def test_trace_goes_to_stderr(fig, capsys):
    code, out, err = run(capsys, "solve", "--graph", fig, "--k", "3",
                         "--trace")
    assert code == 0 and out == "3 3 1.0000\n"
    assert "trace leaf" in err or "trace merge" in err


def test_trace_names_each_component_apart(tmp_path, capsys):
    # two disjoint triangles: each split component numbers its vertices
    # 0, 1, 2, so the trace has to name them through the input graph
    p = tmp_path / "two.edges"
    p.write_text("0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n")
    code, _, err = run(capsys, "solve", "--graph", str(p), "--all-k",
                       "--trace")
    assert code == 0
    lines = [ln for ln in err.splitlines() if ln.startswith("trace ")]
    assert len(lines) == 10 and len(set(lines)) == 10
    named = {v for ln in lines for v in ln.split()[2].strip("()").split(",")}
    assert named == {str(v) for v in range(6)}

