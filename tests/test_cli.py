import hashlib
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from aqgv import cli, errors
from aqgv.bounds import CssBoundQuery, css_gv_lhs
from aqgv.cli import run
from aqgv.codesearch import css_distances, load_code_file, write_code_file


def run_json(capsys, argv):
    result = run(argv)
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 1, f"--json must emit exactly one line, got: {out!r}"
    return result, json.loads(lines[0])


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def test_bound_css_json(capsys):
    result, payload = run_json(
        capsys,
        ["bound", "css", "--q", "2", "--n", "12", "--k1", "7", "--k2", "5",
         "--dx", "2", "--dz", "2", "--json"],
    )
    assert result.status == "ok" and result.exit_code == 0
    assert Fraction(payload["lhs"]) == Fraction(2304, 4095)
    assert payload["lhs_decimal"] == "0.562637"
    assert payload["feasible"] is True
    assert sum(Fraction(t) for t in payload["terms"]) == Fraction(payload["lhs"])


def test_bound_css_trivial_json(capsys):
    _, payload = run_json(
        capsys,
        ["bound", "css", "--q", "2", "--n", "12", "--k1", "7", "--k2", "5",
         "--dx", "1", "--dz", "1", "--json"],
    )
    assert payload["lhs"] == "0/1"
    assert payload["feasible"] is True


def test_bound_verdict_roundtrips_through_printed_rational(capsys):
    queries = [
        ["bound", "css", "--q", "2", "--n", "12", "--k1", "7", "--k2", "5", "--dx", "2", "--dz", "2"],
        ["bound", "css", "--q", "2", "--n", "7", "--k1", "4", "--k2", "1", "--dx", "2", "--dz", "2"],
        ["bound", "stab", "--q", "2", "--n", "10", "--k", "3", "--dx", "2", "--dz", "2"],
        ["bound", "stab", "--q", "2", "--n", "10", "--k", "4", "--dx", "2", "--dz", "2"],
        ["bound", "stab", "--q", "9", "--n", "20", "--k", "2", "--dx", "3", "--dz", "4"],
    ]
    for argv in queries:
        _, payload = run_json(capsys, argv + ["--json"])
        # independent re-evaluation of the printed exact rational
        assert (Fraction(payload["lhs"]) < 1) == payload["feasible"]


def test_bound_stab_table(capsys):
    result = run(["bound", "stab", "--q", "2", "--n", "10", "--k", "3", "--dx", "2", "--dz", "2"])
    out = capsys.readouterr().out
    assert result.status == "ok"
    assert "10752/13981" in out
    assert "0.769044" in out
    assert "feasible" in out and "yes" in out


def test_bound_infeasible_status_and_exit(capsys):
    argv = ["bound", "css", "--q", "2", "--n", "7", "--k1", "4", "--k2", "1", "--dx", "2", "--dz", "2"]
    result = run(argv)
    capsys.readouterr()
    assert result.status == "infeasible" and result.exit_code == 0
    result = run(argv + ["--assert-feasible"])
    capsys.readouterr()
    assert result.status == "infeasible" and result.exit_code == 2


def test_bound_digits_flag(capsys):
    _, payload = run_json(
        capsys,
        ["bound", "css", "--q", "2", "--n", "12", "--k1", "7", "--k2", "5",
         "--dx", "2", "--dz", "2", "--digits", "9", "--json"],
    )
    assert payload["lhs_decimal"] == "0.562637363"


# ---------------------------------------------------------------------------
# maxk / best
# ---------------------------------------------------------------------------

def test_maxk_stab_json(capsys):
    result, payload = run_json(capsys, ["maxk", "stab", "--q", "2", "--n", "10", "--dx", "2", "--dz", "2", "--json"])
    assert result.status == "ok"
    assert payload["k_max"] == 3


def test_maxk_stab_not_found(capsys):
    result, payload = run_json(capsys, ["maxk", "stab", "--q", "2", "--n", "4", "--dx", "3", "--dz", "3", "--json"])
    assert result.status == "not_found" and result.exit_code == 0
    assert payload["k_max"] is None


def test_best_css_json(capsys):
    result, payload = run_json(capsys, ["best", "css", "--q", "2", "--n", "12", "--dx", "2", "--dz", "2", "--json"])
    assert result.status == "ok"
    assert (payload["k1"], payload["k2"], payload["net_k"]) == (7, 4, 3)


def test_best_css_not_found(capsys):
    result, payload = run_json(capsys, ["best", "css", "--q", "2", "--n", "4", "--dx", "3", "--dz", "3", "--json"])
    assert result.status == "not_found"
    assert payload["k1"] is None


# ---------------------------------------------------------------------------
# lemma
# ---------------------------------------------------------------------------

def test_lemma_json(capsys):
    result, payload = run_json(capsys, ["lemma", "--q", "2", "--n", "3", "--k1", "2", "--k2", "1", "--json"])
    assert result.status == "ok" and result.exit_code == 0
    assert payload["total_pairs"] == 21
    assert payload["lemma_ok"] is True
    assert payload["per_error_x"] == 6 and payload["per_error_z"] == 6
    assert payload["nonzero_errors"] == 7


def test_lemma_table(capsys):
    run(["lemma", "--q", "2", "--n", "3", "--k1", "2", "--k2", "1"])
    out = capsys.readouterr().out
    assert "PASS" in out and "21" in out


# ---------------------------------------------------------------------------
# search and distances
# ---------------------------------------------------------------------------

def test_search_css_writes_verifiable_witness(tmp_path, capsys):
    out_file = tmp_path / "witness.json"
    result, payload = run_json(
        capsys,
        ["search", "css", "--q", "2", "--n", "12", "--k1", "7", "--k2", "5",
         "--dx", "2", "--dz", "2", "--trials", "100", "--seed", "1",
         "--out", str(out_file), "--json"],
    )
    assert result.status == "ok"
    assert payload["found"] is True
    assert payload["seed"] == 1
    assert isinstance(payload["trial_index"], int)
    pair = load_code_file(out_file)
    assert css_distances(pair).meets(2, 2)

    result2, payload2 = run_json(
        capsys,
        ["distances", "--in", str(out_file), "--json"],
    )
    assert result2.status == "ok"
    assert payload2["type"] == "css"
    assert payload2["dx"] >= 2 and payload2["dz"] >= 2


def test_search_not_found(capsys):
    result, payload = run_json(
        capsys,
        ["search", "css", "--q", "2", "--n", "4", "--k1", "4", "--k2", "0",
         "--dx", "3", "--dz", "3", "--trials", "20", "--seed", "3",
         "--json"],
    )
    assert result.status == "not_found" and result.exit_code == 0
    assert payload["found"] is False
    assert payload["trial_index"] is None


def test_search_stab_and_profile_distances(tmp_path, capsys):
    out_file = tmp_path / "stab.json"
    result, payload = run_json(
        capsys,
        ["search", "stab", "--q", "2", "--n", "6", "--k", "1", "--dx", "2",
         "--dz", "2", "--trials", "200", "--seed", "11",
         "--out", str(out_file), "--json"],
    )
    assert result.status == "ok" and payload["found"] is True
    assert payload["dx"] == 2 and payload["dz"] == 2
    result2, payload2 = run_json(capsys, ["distances", "--in", str(out_file), "--json"])
    assert payload2["type"] == "stab"
    matrix = payload2["profile"]
    assert matrix[1][1] is True  # dx=2, dz=2 verified by the search


def test_search_stab_over_many_blocks_answers(capsys):
    # q = 41 packs 2 rows per block, so the distance walk joins 1050 blocks
    result = run("search stab --q 41 --n 2100 --k 2100 --dx 1 --dz 2 --trials 1 --seed 1".split())
    captured = capsys.readouterr()
    assert result.exit_code == 0
    assert (captured.out, captured.err) == ("found   no\ntrials  1\n", "")


def test_search_kind_flag_mismatch_is_usage_error(capsys):
    result = run(["search", "css", "--q", "2", "--n", "6", "--k", "2",
                  "--dx", "2", "--dz", "2", "--trials", "5", "--seed", "0"])
    err = capsys.readouterr().err
    assert result.exit_code == 1 and result.status == "error"
    assert "k1" in err


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------

def test_frontier_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "frontier.csv"
    result = run(["frontier", "--q", "2", "--r", "0.25", "--points", "32", "--out", str(out_file)])
    capsys.readouterr()
    assert result.status == "ok" and result.exit_code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "delta_x,delta_z_max,R,q"
    assert len(lines) == result.payload["points"] + 1
    for line in lines[1:]:
        dx, dz, r, q = line.split(",")
        assert float(dz) >= 0 and float(r) == 0.25 and q == "2"


@pytest.mark.parametrize("argv, points, sha256", [
    # README's command first; the digests are those of the plain bisection's frontiers
    ("--q 2 --r 0.5 --points 64", 14, "36f2b3fd34d937b6ac08fe13dc00df69323d44213524716473fd3897a5263cf5"),
    ("--q 3 --r 0.3 --points 97", 39, "ee1fd0085320217a79c8dd52ca016cdf62ceec590277c323d1383af80fa2c339"),
    ("--q 9 --r 0.05 --points 97", 78, "084d201aa4b0fd7f393903792fec873c4d54312ee1170db1964b45a4721f9996"),
])
def test_frontier_csv_bytes_are_pinned(argv, points, sha256, tmp_path, capsys):
    out_file = tmp_path / "frontier.csv"
    result = run(["frontier", *argv.split(), "--out", str(out_file)])
    assert capsys.readouterr().out == f"wrote {points} frontier points to {out_file}\n"
    assert result.exit_code == 0
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == sha256


# ---------------------------------------------------------------------------
# exact tables: every command and branch, stdout and exit code byte for byte
# ---------------------------------------------------------------------------

class StdoutDigest:
    """A table too long to pin verbatim (thousands of digits of lhs): it
    equals the one output with this start, end and SHA-256."""

    def __init__(self, head: str, tail: str, sha256: str):
        self.head, self.tail, self.sha256 = head, tail, sha256

    def __eq__(self, out):
        return (isinstance(out, str) and out.startswith(self.head) and out.endswith(self.tail)
                and hashlib.sha256(out.encode()).hexdigest() == self.sha256)

    def __repr__(self):
        return f"StdoutDigest({self.head!r}, {self.tail!r}, {self.sha256!r})"


PINNED_TABLES = [
    ("bound stab --q 2 --n 10 --k 3 --dx 2 --dz 2", 0,
     "query        bound stab q=2 n=10 k=3 dx=2 dz=2\n"
     "lhs          10752/13981\n"
     "lhs_decimal  0.769044\n"
     "terms        2688/349525 * 10/1 * 10/1\n"
     "feasible     yes\n"),
    ("bound css --q 2 --n 7 --k1 4 --k2 1 --dx 2 --dz 2 --assert-feasible", 2,
     "query        bound css q=2 n=7 k1=4 k2=1 dx=2 dz=2\n"
     "lhs          490/127\n"
     "lhs_decimal  3.858268\n"
     "terms        98/127 + 392/127\n"
     "feasible     no\n"),
    ("maxk stab --q 2 --n 10 --dx 2 --dz 2", 0,
     "k_max  3\n"
     "lhs    10752/13981 = 0.769044\n"),
    ("maxk stab --q 2 --n 4 --dx 3 --dz 3", 0,
     "k_max  none\n"),
    ("best css --q 2 --n 12 --dx 2 --dz 2", 0,
     "k1     7\n"
     "k2     4\n"
     "net_k  3\n"
     "lhs    64/65 = 0.984615\n"),
    ("best css --q 2 --n 4 --dx 3 --dz 3", 0,
     "result  none feasible\n"),
    ("best css --q 2 --n 400 --dx 20 --dz 20", 0,
     "k1     292\n"
     "k2     108\n"
     "net_k  184\n"
     "lhs    384462642326020567601488158507346289887148759592660575989511546542101862664237512599166449666353623141888816196878336"
     "/405058804405789582691124576000472450875247967502623296130299506908336881884994697196807114240021620617396575995725097 = 0.949153\n"),
    ("maxk stab --q 2 --n 6400 --dx 320 --dz 320", 0,
     StdoutDigest("k_max  2753\nlhs    ", " = 0.779147\n",
                  "4a8360d21fa2127bcb2758260b9e875a971c79187490b1a36807a3ccd3fe2e5f")),
    ("lemma --q 2 --n 3 --k1 2 --k2 1", 0,
     "total_pairs     21\n"
     "nonzero_errors  7\n"
     "per_error_x     [6] (expected 6)\n"
     "per_error_z     [6] (expected 6)\n"
     "identities      PASS\n"),
    ("search css --q 2 --n 12 --k1 7 --k2 5 --dx 2 --dz 2 --trials 100 --seed 1 --out witness.json", 0,
     "found        yes\n"
     "trial_index  1\n"
     "dx           2\n"
     "dz           2\n"
     "out          witness.json\n"),
    ("search css --q 2 --n 4 --k1 4 --k2 0 --dx 3 --dz 3 --trials 20 --seed 3", 0,
     "found   no\n"
     "trials  20\n"),
    ("distances --in steane.json", 0,
     "type  css\n"
     "dx    3\n"
     "dz    3\n"),
    ("distances --in five.json", 0,
     "type  stab\n"
     "n     5\n"
     "k     1\n"
     "dx=1  dz_max=5\n"
     "dx=2  dz_max=2\n"
     "dx=3  dz_max=1\n"
     "dx=4  dz_max=1\n"
     "dx=5  dz_max=1\n"
     "dx=6  dz_max=none\n"),
    ("frontier --q 2 --r 0.5 --points 8 --out frontier.csv", 0,
     "wrote 2 frontier points to frontier.csv\n"),
    # the last grid point is dmax itself, not 0.8000000000000002
    ("frontier --q 5 --r 0.5 --points 4 --out f.csv", 0,
     "wrote 1 frontier points to f.csv\n"),
]


@pytest.mark.parametrize("argv, exit_code, stdout", PINNED_TABLES, ids=[a for a, _, _ in PINNED_TABLES])
def test_table_output_is_pinned(argv, exit_code, stdout, tmp_path, monkeypatch, capsys, steane_pair, five_qubit):
    monkeypatch.chdir(tmp_path)
    write_code_file(steane_pair, "steane.json")
    write_code_file(five_qubit, "five.json")
    result = run(argv.split())
    captured = capsys.readouterr()
    assert (result.exit_code, captured.out, captured.err) == (exit_code, stdout, "")


PINNED_JSON = [
    ("bound css --q 2 --n 12 --k1 7 --k2 5 --dx 2 --dz 2",
     '{"dx": 2, "dz": 2, "feasible": true, "k1": 7, "k2": 5, "lhs": "256/455", "lhs_decimal": "0.562637", '
     '"n": 12, "q": 2, "terms": ["128/455", "128/455"]}'),
    ("bound css --q 2 --n 7 --k1 4 --k2 1 --dx 2 --dz 2",
     '{"dx": 2, "dz": 2, "feasible": false, "k1": 4, "k2": 1, "lhs": "490/127", "lhs_decimal": "3.858268", '
     '"n": 7, "q": 2, "terms": ["98/127", "392/127"]}'),
    ("bound stab --q 2 --n 10 --k 3 --dx 2 --dz 2",
     '{"dx": 2, "dz": 2, "feasible": true, "k": 3, "lhs": "10752/13981", "lhs_decimal": "0.769044", '
     '"n": 10, "q": 2, "terms": ["2688/349525", "10/1", "10/1"]}'),
    ("maxk stab --q 2 --n 10 --dx 2 --dz 2",
     '{"dx": 2, "dz": 2, "k_max": 3, "lhs": "10752/13981", "lhs_decimal": "0.769044", "n": 10, "q": 2}'),
    ("maxk stab --q 2 --n 4 --dx 3 --dz 3",
     '{"dx": 3, "dz": 3, "k_max": null, "n": 4, "q": 2}'),
    ("best css --q 2 --n 12 --dx 2 --dz 2",
     '{"dx": 2, "dz": 2, "k1": 7, "k2": 4, "lhs": "64/65", "lhs_decimal": "0.984615", "n": 12, "net_k": 3, "q": 2}'),
    ("best css --q 2 --n 4 --dx 3 --dz 3",
     '{"dx": 3, "dz": 3, "k1": null, "k2": null, "n": 4, "net_k": null, "q": 2}'),
    ("lemma --q 2 --n 3 --k1 2 --k2 1",
     '{"k1": 2, "k2": 1, "lemma_ok": true, "n": 3, "nonzero_errors": 7, "per_error_x": 6, "per_error_z": 6, '
     '"q": 2, "total_pairs": 21}'),
    ("search css --q 2 --n 12 --k1 7 --k2 5 --dx 2 --dz 2 --trials 100 --seed 1 --out witness.json",
     '{"dx": 2, "dz": 2, "found": true, "k1": 7, "k2": 5, "kind": "css", "n": 12, "q": 2, "seed": 1, '
     '"trial_index": 1, "trials": 100}'),
    ("search css --q 2 --n 4 --k1 4 --k2 0 --dx 3 --dz 3 --trials 20 --seed 3",
     '{"dx": null, "dz": null, "found": false, "k1": 4, "k2": 0, "kind": "css", "n": 4, "q": 2, "seed": 3, '
     '"trial_index": null, "trials": 20}'),
    ("search stab --q 2 --n 6 --k 1 --dx 2 --dz 2 --trials 200 --seed 11",
     '{"dx": 2, "dz": 2, "found": true, "k": 1, "kind": "stab", "n": 6, "q": 2, "seed": 11, '
     '"trial_index": 19, "trials": 200}'),
    ("distances --in steane.json",
     '{"dx": 3, "dz": 3, "n": 7, "q": 2, "type": "css"}'),
    ("distances --in five.json",
     '{"k": 1, "n": 5, "profile": [[true, true, true, true, true, false], [true, true, false, false, false, false], '
     '[true, false, false, false, false, false], [true, false, false, false, false, false], '
     '[true, false, false, false, false, false], [false, false, false, false, false, false]], "q": 2, "type": "stab"}'),
]


@pytest.mark.parametrize("argv, line", PINNED_JSON, ids=[a for a, _ in PINNED_JSON])
def test_json_line_is_pinned(argv, line, tmp_path, monkeypatch, capsys, steane_pair, five_qubit):
    monkeypatch.chdir(tmp_path)
    write_code_file(steane_pair, "steane.json")
    write_code_file(five_qubit, "five.json")
    result = run([*argv.split(), "--json"])
    captured = capsys.readouterr()
    assert (result.exit_code, captured.out, captured.err) == (0, line + "\n", "")
    assert ("--out" in argv) == (tmp_path / "witness.json").exists()


# ---------------------------------------------------------------------------
# usage lines: each leaf's flags, their order and which are required
# ---------------------------------------------------------------------------

LEAF_USAGES = {
    "bound css": "usage: aqgv bound css [-h] --q Q --n N --k1 K1 --k2 K2 --dx DX --dz DZ\n"
                 "                      [--json] [--digits DIGITS] [--assert-feasible]\n",
    "bound stab": "usage: aqgv bound stab [-h] --q Q --n N --k K --dx DX --dz DZ [--json]\n"
                  "                       [--digits DIGITS] [--assert-feasible]\n",
    "maxk stab": "usage: aqgv maxk stab [-h] --q Q --n N --dx DX --dz DZ [--json]\n",
    "best css": "usage: aqgv best css [-h] --q Q --n N --dx DX --dz DZ [--json]\n",
    "frontier": "usage: aqgv frontier [-h] --q Q --r R --points POINTS --out OUT\n",
    "lemma": "usage: aqgv lemma [-h] --q Q --n N --k1 K1 --k2 K2 [--json]\n",
    "search css": "usage: aqgv search css [-h] --q Q --n N --k1 K1 --k2 K2 --dx DX --dz DZ\n"
                  "                       --trials TRIALS --seed SEED [--out OUT] [--json]\n",
    "search stab": "usage: aqgv search stab [-h] --q Q --n N --k K --dx DX --dz DZ --trials TRIALS\n"
                   "                        --seed SEED [--out OUT] [--json]\n",
    "distances": "usage: aqgv distances [-h] --in INFILE [--json]\n",
}


@pytest.mark.parametrize("leaf", LEAF_USAGES)
def test_leaf_usage_is_pinned(leaf, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
    with pytest.raises(SystemExit) as exit_info:
        run([*leaf.split(), "--help"])
    captured = capsys.readouterr()
    assert exit_info.value.code == 0 and captured.err == ""
    assert captured.out.split("\n\n")[0] + "\n" == LEAF_USAGES[leaf]


TOP_HELP = """\
usage: aqgv [-h] {bound,maxk,best,frontier,lemma,search,distances} ...

GV-type existence bounds for asymmetric quantum codes

positional arguments:
  {bound,maxk,best,frontier,lemma,search,distances}
    bound               evaluate a finite-length bound exactly
    maxk                largest feasible k
    best                feasible (k1, k2) maximizing k1 - k2
    frontier            trace the asymptotic delta_z frontier to CSV
    lemma               verify the pair-counting identities by enumeration
    search              randomized witness search with verification
    distances           verified distances / profile of a code file

options:
  -h, --help            show this help message and exit
"""


def test_top_level_help_is_pinned(monkeypatch, capsys):
    # the parser adds only the named command's leaves; the top level lists every command
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        run(["--help"])
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.err, captured.out) == (0, "", TOP_HELP)


@pytest.mark.parametrize("argv, err", [
    ("nonsense", "error: argument command: invalid choice: 'nonsense' (choose from 'bound', 'maxk', "
                 "'best', 'frontier', 'lemma', 'search', 'distances')\n"),
    ("bound bogus", "error: argument family: invalid choice: 'bogus' (choose from 'css', 'stab')\n"),
    ("bound", "error: the following arguments are required: family\n"),
    ("", "error: the following arguments are required: command\n"),
])
def test_top_level_errors_are_pinned(argv, err, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    result = run(argv.split())
    assert (result.exit_code, capsys.readouterr().err) == (1, err)


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------

def test_usage_errors_exit_1(capsys):
    bad = [
        ["nonsense"],
        ["bound"],
        ["bound", "css", "--q", "2"],
        ["bound", "css", "--q", "two", "--n", "12", "--k1", "7", "--k2", "5", "--dx", "2", "--dz", "2"],
        ["lemma", "--q", "2", "--n", "3", "--k1", "2"],
        ["search", "css", "--q", "2", "--n", "12", "--k1", "7", "--k2", "5", "--dx", "2", "--dz", "2",
         "--trials", "100", "--seed", "1", "--threads", "2"],
        ["search", "stab", "--q", "2", "--n", "8", "--dx", "2", "--dz", "2",
         "--trials", "5", "--seed", "1", "--k", "1", "--k1", "2"],
    ]
    for argv in bad:
        result = run(argv)
        captured = capsys.readouterr()
        assert result.exit_code == 1 and result.status == "error"
        assert len(captured.err.strip().splitlines()) == 1, argv
    # a prefix of a flag is not the flag
    abbreviated = {
        "bound css --q 2 --n 12 --k1 7 --k2 5 --dx 2 --dz 2 --dig 2":
            "error: unrecognized arguments: --dig 2\n",
        "search css --q 2 --n 12 --k1 7 --k2 5 --dx 2 --dz 2 --tr 5 --se 1":
            "error: the following arguments are required: --trials, --seed\n",
    }
    for argv, err in abbreviated.items():
        assert run(argv.split()).exit_code == 1, argv
        assert capsys.readouterr().err == err, argv


def test_every_input_error_is_one_stderr_line(monkeypatch, capsys):
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, Exception)]
    assert len(classes) > 1 and all(issubclass(c, errors.AqgvError) for c in classes)

    def refuse(args, flags):
        raise errors.AqgvError("refused")

    monkeypatch.setattr(cli, "_cmd_maxk", refuse)
    result = run("maxk stab --q 2 --n 10 --dx 2 --dz 2".split())
    assert (result.exit_code, result.status) == (1, "error")
    assert capsys.readouterr().err == "error: refused\n"


def test_input_errors_exit_1(tmp_path, capsys):
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"type": "css", "q": 2, "n": 3, "c1": 5, "c2": []}))
    # A huge prime q is refused by the field's range check before any
    # trial division (which would run for minutes).
    huge_q = str(2**61 - 1)
    huge_file = tmp_path / "huge_q.json"
    huge_file.write_text(json.dumps({"type": "stab", "q": 2**61 - 1, "n": 1, "generators": [[1, 0]]}))
    # undecodable files: bytes that are not UTF-8, an int past the digit
    # limit, and arrays nested past the recursion limit
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'\xff\xfe{"type": "css"}')
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"type": "stab", "q": ' + "9" * 5000 + "}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 10**5 + "]" * 10**5)
    bad = [
        ["bound", "css", "--q", "6", "--n", "12", "--k1", "7", "--k2", "5", "--dx", "2", "--dz", "2"],
        ["bound", "css", "--q", "2", "--n", "12", "--k1", "5", "--k2", "7", "--dx", "2", "--dz", "2"],
        # a probable prime beyond the range where Miller-Rabin is certified
        ["bound", "css", "--q", str(2**127 - 1), "--n", "12", "--k1", "7", "--k2", "5", "--dx", "2", "--dz", "2"],
        ["lemma", "--q", "4", "--n", "3", "--k1", "2", "--k2", "1"],
        ["lemma", "--q", "2", "--n", "30", "--k1", "15", "--k2", "5"],
        ["lemma", "--q", huge_q, "--n", "3", "--k1", "2", "--k2", "1"],
        ["search", "css", "--q", huge_q, "--n", "12", "--k1", "7", "--k2", "5",
         "--dx", "2", "--dz", "2", "--trials", "5", "--seed", "1"],
        ["frontier", "--q", "2", "--r", "1.5", "--points", "8", "--out", "/tmp/x.csv"],
        # GF(6) does not exist, so no frontier is written for it
        ["frontier", "--q", "6", "--r", "0.3", "--points", "5", "--out", str(tmp_path / "f6.csv")],
        # too long for the prime-power test, which would run for about 24 s
        ["frontier", "--q", str(10**4000 + 1), "--r", "0.3", "--points", "5", "--out", str(tmp_path / "f6.csv")],
        ["distances", "--in", "/nonexistent/code.json"],
        ["distances", "--in", str(huge_file)],
        ["distances", "--in", str(not_utf8)],
        ["distances", "--in", str(long_int)],
        ["distances", "--in", str(deep)],
        # n past sys.maxsize, where range(1, n + 1) cannot be built, is far past the scan guard
        ["maxk", "stab", "--q", "2", "--n", "12157665459056928801", "--dx", "3", "--dz", "3"],
        # a Decimal context cannot hold that many digits
        ["bound", "css", "--q", "2", "--n", "12", "--k1", "7", "--k2", "5", "--dx", "2", "--dz", "2",
         "--digits", "10000000000000000000"],
        ["distances", "--in", str(malformed)],
    ]
    for argv in bad:
        result = run(argv)
        captured = capsys.readouterr()
        assert result.exit_code == 1 and result.status == "error", argv
        assert captured.err.strip() and captured.err.count("\n") == 1, argv
    assert captured.err == 'error: css code file needs "c1" as a list of integer rows\n'
    assert not (tmp_path / "f6.csv").exists()
    # k past n: the stabilizer query's own line, before any code is drawn
    for argv in ("bound stab --q 2 --n 5 --k 6 --dx 2 --dz 2",
                 "search stab --q 2 --n 5 --k 6 --dx 2 --dz 2 --trials 3 --seed 1"):
        assert run(argv.split()).exit_code == 1, argv
        assert capsys.readouterr().err == "error: need 0 <= k <= n, got k=6, n=5\n", argv
    # without the refusal these build q**n and never finish, so they run in a child under a timeout
    for argv in (
        "bound css --q 2 --n 12157665459056928801 --k1 7 --k2 5 --dx 3 --dz 3",
        "best css --q 2 --n 12157665459056928801 --dx 3 --dz 3",
        # n^2 times the bits of q is past the scan guard: hours of exact comparisons
        "best css --q 2 --n 1000000 --dx 3 --dz 3",
        # the same guard on one evaluation: 10 to 30 s of exact arithmetic each
        "bound css --q 2 --n 1000000 --k1 500000 --k2 100000 --dx 3 --dz 3",
        "bound stab --q 2 --n 1000000 --k 100000 --dx 3 --dz 3",
        "maxk stab --q 2 --n 1000000 --dx 3 --dz 3",
    ):
        proc = run_python("-m", "aqgv.cli", *argv.split(), timeout=20)
        assert proc.returncode == 1, argv
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr
    # a 4001-digit q with no prime factor below 1000 is refused by its length,
    # not run through the prime-power test (about 24 s), in a line that does not echo q
    start = time.perf_counter()
    proc = run_python("-m", "aqgv.cli", "bound", "css", "--q", str(10**4000 + 1),
                      "--n", "2", "--k1", "1", "--k2", "0", "--dx", "1", "--dz", "1", timeout=20)
    assert proc.returncode == 1 and time.perf_counter() - start < 2
    assert len(proc.stderr.splitlines()) == 1 and len(proc.stderr) < 200, proc.stderr[:200]
    # a [[480, 1]] draw makes 479 updates of (2n)^2 row entries, about a minute, past the draw guard
    start = time.perf_counter()
    proc = run_python("-m", "aqgv.cli", *"search stab --q 2 --n 480 --k 1 --dx 1 --dz 1 --trials 1 --seed 1".split(),
                      timeout=20)
    assert proc.returncode == 1 and time.perf_counter() - start < 2
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr


def test_bounds_answer_up_to_the_scan_guard(capsys):
    # n^2 * q.bit_length() first passes the guard of 2^30 at n = 23171 for q = 2
    commands = ("bound css --q 2 --n {} --k1 11585 --k2 2317 --dx 3 --dz 3",
                "bound stab --q 2 --n {} --k 2317 --dx 3 --dz 3",
                "maxk stab --q 2 --n {} --dx 3 --dz 3",
                "best css --q 2 --n {} --dx 3 --dz 3")
    for command in commands:
        assert run(command.format(23170).split()).exit_code == 0, command
        assert capsys.readouterr().err == ""
        assert run(command.format(23171).split()).exit_code == 1, command
        assert capsys.readouterr().err == (
            f"error: {23171**2 * 2} scan bit operations exceed the guard of {2**30}\n"
        )


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_json_outputs_are_reproducible(capsys):
    argv = ["search", "css", "--q", "2", "--n", "10", "--k1", "6", "--k2", "4",
            "--dx", "2", "--dz", "2", "--trials", "30", "--seed", "5", "--json"]
    outputs = []
    for _ in range(3):
        run(argv)
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# module entry and import cost
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*args, timeout=None, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout, cwd=cwd)


def test_python_m_aqgv_cli_runs_the_command():
    proc = run_python("-m", "aqgv.cli", "bound", "css", "--q", "2", "--n", "12", "--k1", "7",
                      "--k2", "5", "--dx", "2", "--dz", "2")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == (
        "query        bound css q=2 n=12 k1=7 k2=5 dx=2 dz=2\n"
        "lhs          256/455\n"
        "lhs_decimal  0.562637\n"
        "terms        128/455 + 128/455\n"
        "feasible     yes\n"
    )


def test_written_files_name_their_encoding(tmp_path):
    # the code file and the frontier CSV are written as UTF-8, as load_code_file reads
    # them, not in the locale's encoding: no EncodingWarning, even as an error
    for argv in ("search css --q 2 --n 12 --k1 7 --k2 5 --dx 2 --dz 2 --trials 5 --seed 1 --out w.json",
                 "frontier --q 2 --r 0.5 --points 5 --out frontier.csv"):
        proc = run_python("-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                          "-m", "aqgv.cli", *argv.split(), timeout=60, cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (0, ""), argv


def test_cli_import_starts_no_process_machinery():
    proc = run_python("-c", "import sys, aqgv.cli; "
                            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


SEARCH_MODULES = ("aqgv.codesearch", "aqgv.fields")
FRACTION_MODULES = ("decimal", "fractions")   # only a command that prints a fraction loads these


@pytest.mark.parametrize("argv, loaded, unloaded", [
    ("bound css --q 2 --n 12 --k1 7 --k2 5 --dx 2 --dz 2", ("aqgv.bounds",), (*SEARCH_MODULES, "aqgv.asymptotic")),
    ("bound stab --q 2 --n 10 --k 3 --dx 2 --dz 2 --json", ("aqgv.bounds",), (*SEARCH_MODULES, "aqgv.asymptotic")),
    ("maxk stab --q 2 --n 30 --dx 3 --dz 3", ("aqgv.bounds",), (*SEARCH_MODULES, "aqgv.asymptotic")),
    ("best css --q 2 --n 30 --dx 3 --dz 3 --json", ("aqgv.bounds",), (*SEARCH_MODULES, "aqgv.asymptotic")),
    ("frontier --q 2 --r 0.5 --points 5 --out frontier.csv", ("aqgv.asymptotic",), SEARCH_MODULES),
    ("lemma --q 2 --n 3 --k1 2 --k2 1", SEARCH_MODULES, FRACTION_MODULES),
    ("search css --q 2 --n 12 --k1 7 --k2 5 --dx 2 --dz 2 --trials 5 --seed 1", SEARCH_MODULES, FRACTION_MODULES),
    ("search stab --q 2 --n 8 --k 1 --dx 2 --dz 2 --trials 5 --seed 1", SEARCH_MODULES, FRACTION_MODULES),
    ("distances --in steane.json", SEARCH_MODULES, ("aqgv.bounds", *FRACTION_MODULES)),
    ("distances --in five.json --json", SEARCH_MODULES, ("aqgv.bounds", *FRACTION_MODULES)),
])
def test_a_cold_command_loads_only_the_modules_its_handler_calls(argv, loaded, unloaded, tmp_path,
                                                                 steane_pair, five_qubit):
    # a fresh interpreter with no bytecode written, as a first run of the console script;
    # the modules counted are those the command loads, not those site loaded at start-up.
    # No command loads dataclasses, whose import takes inspect, ast and dis with it, and
    # distances, which evaluates no bound, compiles no bound code.
    write_code_file(steane_pair, tmp_path / "steane.json")
    write_code_file(five_qubit, tmp_path / "five.json")
    script = ("import json, sys; before = set(sys.modules); import aqgv.cli; "
              "code = aqgv.cli.run(sys.argv[1:]).exit_code; "
              "print(json.dumps([m for m in sys.modules if m not in before])); sys.exit(code)")
    proc = run_python("-B", "-c", script, *argv.split(), timeout=60, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout.splitlines()[-1])
    assert [m for m in loaded if m not in modules] == []
    assert [m for m in (*unloaded, "dataclasses", "inspect") if m in modules] == []


def test_bound_queries_with_a_huge_prime_q_answer_at_once():
    # A prime this large is past trial division; Miller-Rabin certifies it.
    q = str(2**61 - 1)
    for argv in (
        ["bound", "css", "--q", q, "--n", "12", "--k1", "7", "--k2", "5", "--dx", "2", "--dz", "2"],
        ["maxk", "stab", "--q", q, "--n", "12", "--dx", "2", "--dz", "2"],
        ["best", "css", "--q", q, "--n", "12", "--dx", "2", "--dz", "2"],
    ):
        proc = run_python("-m", "aqgv.cli", *argv, timeout=20)
        assert (proc.returncode, proc.stderr) == (0, ""), argv


@pytest.mark.parametrize("argv, code_file", [
    ("lemma --q 2 --n 15000 --k1 1 --k2 0", None),
    ("lemma --q 3 --n 12 --k1 1 --k2 0", None),
    ("lemma --q 2 --n 100000000 --k1 1 --k2 0", None),
    ("lemma --q 3 --n 100000000 --k1 100000000 --k2 1", None),
    ("distances --in {}", {"type": "css", "q": 3, "n": 1000000, "c1": [], "c2": []}),
    ("distances --in {}", {"type": "css", "q": 3, "n": 100000000, "c1": [], "c2": []}),
    ("search css --q 2 --n 1000 --k1 500 --k2 0 --dx 2 --dz 2 --trials 1 --seed 1", None),
], ids=["lemma-n15000", "lemma-walk-q3-n12", "lemma-n1e8", "lemma-k1-n1e8", "distances-n1e6", "distances-n1e8", "search-n1000"])
def test_oversize_inputs_fail_at_once_with_one_line(tmp_path, argv, code_file):
    # each size guard decides before it builds its cost or draws a code
    if code_file is not None:
        path = tmp_path / "code.json"
        path.write_text(json.dumps(code_file))
        argv = argv.format(path)
    proc = run_python("-m", "aqgv.cli", *argv.split(), timeout=20)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr
    assert "exceeds the guard of" in proc.stderr


def test_stab_search_at_k_equal_n_builds_no_dual():
    # k = n draws no generator, so the sampler must not build the
    # (2n)^2 identity it would start a dual from; 1 GiB caps the child only.
    argv = "search stab --q 2 --n 10000 --k 10000 --dx 1 --dz 1 --trials 1 --seed 1".split()
    capped = ("import resource, runpy, sys; "
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              f"sys.argv = ['aqgv', *{argv!r}]; "
              "runpy.run_module('aqgv.cli', run_name='__main__')")
    proc = run_python("-c", capped, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("found        yes\n")


def test_stab_profile_check_at_k_equal_n_refuses_its_unit_rows_at_once():
    # each packing's n unit rows would hold n (2n - k) entries, about
    # n^2 / 2 bits: past 1 GiB at this n, so the guard must come first
    argv = "search stab --q 2 --n 100000 --k 100000 --dx 2 --dz 2 --trials 1 --seed 1".split()
    capped = ("import resource, runpy, sys; "
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              f"sys.argv = ['aqgv', *{argv!r}]; "
              "runpy.run_module('aqgv.cli', run_name='__main__')")
    proc = run_python("-c", capped, timeout=30)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {10**10} unit-row entries exceeds the guard of 10000000\n"


def test_bound_with_a_ball_of_radius_near_n_answers_at_once():
    argv = "bound css --q 2 --n 20000 --k1 20000 --k2 0 --dx 20000 --dz 2".split()
    proc = run_python("-m", "aqgv.cli", *argv, timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_bound_prints_an_lhs_past_the_int_digit_limit():
    argv = "bound css --q 2 --n 20000 --k1 7 --k2 5 --dx 2 --dz 2 --json".split()
    proc = run_python("-m", "aqgv.cli", *argv, timeout=20)
    assert (proc.returncode, proc.stderr) == (0, "")
    lhs = css_gv_lhs(CssBoundQuery(q=2, n=20000, k1=7, k2=5, dx=2, dz=2)).lhs
    assert lhs.denominator > 10**4300   # str(int) would refuse it
    # Decimal parses a digit string of any length; Fraction and int do not
    numerator, denominator = (int(Decimal(part)) for part in json.loads(proc.stdout)["lhs"].split("/"))
    assert Fraction(numerator, denominator) == lhs and denominator == lhs.denominator
