import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

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
]


@pytest.mark.parametrize("argv, exit_code, stdout", PINNED_TABLES, ids=[a for a, _, _ in PINNED_TABLES])
def test_table_output_is_pinned(argv, exit_code, stdout, tmp_path, monkeypatch, capsys, steane_pair, five_qubit):
    monkeypatch.chdir(tmp_path)
    write_code_file(steane_pair, "steane.json")
    write_code_file(five_qubit, "five.json")
    result = run(argv.split())
    captured = capsys.readouterr()
    assert (result.exit_code, captured.out, captured.err) == (exit_code, stdout, "")


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
    ]
    for argv in bad:
        result = run(argv)
        captured = capsys.readouterr()
        assert result.exit_code == 1 and result.status == "error"
        assert len(captured.err.strip().splitlines()) == 1, argv


def test_input_errors_exit_1(tmp_path, capsys):
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps({"type": "css", "q": 2, "n": 3, "c1": 5, "c2": []}))
    # A huge prime q is refused by the field's range check before any
    # trial division (which would run for minutes).
    huge_q = str(2**61 - 1)
    huge_file = tmp_path / "huge_q.json"
    huge_file.write_text(json.dumps({"type": "stab", "q": 2**61 - 1, "n": 1, "generators": [[1, 0]]}))
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
        ["distances", "--in", "/nonexistent/code.json"],
        ["distances", "--in", str(huge_file)],
        ["distances", "--in", str(malformed)],
    ]
    for argv in bad:
        result = run(argv)
        captured = capsys.readouterr()
        assert result.exit_code == 1 and result.status == "error", argv
        assert captured.err.strip() and captured.err.count("\n") == 1, argv
    assert captured.err == 'error: css code file needs "c1" as a list of integer rows\n'


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


def run_python(*args, timeout=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout)


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


def test_cli_import_starts_no_process_machinery():
    proc = run_python("-c", "import sys, aqgv.cli; "
                            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
