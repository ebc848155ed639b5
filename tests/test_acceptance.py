"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the lines directly.
"""

import json
import math
import time
from fractions import Fraction

from aqgv.asymptotic import (
    css_asymptotic_feasible,
    css_rate1_interval,
    entropy_hq,
    stab_asymptotic_feasible,
)
from aqgv.bounds import (
    CssBoundQuery,
    StabBoundQuery,
    ball_sum,
    css_gv_lhs,
    max_k_stab,
    stab_gv_lhs,
)
from aqgv.cli import run
from aqgv.codesearch import (
    css_distances,
    derive_trial_seed,
    enumerate_nested_pairs,
    load_code_file,
    random_nested_pair,
    stab_detects_profile,
)

import random


def _criterion(cid: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {cid:2d}: {description}")
    assert ok, f"criterion {cid}: {description}"


def _run_json(capsys, argv):
    result = run(argv)
    out = capsys.readouterr().out.strip()
    return result, json.loads(out)


def test_criterion_01_lemma_exactness(capsys):
    start = time.perf_counter()
    result, payload = _run_json(capsys, ["lemma", "--q", "2", "--n", "3", "--k1", "2", "--k2", "1", "--json"])
    first_elapsed = time.perf_counter() - start
    ok = (
        result.exit_code == 0
        and payload["total_pairs"] == 21
        and payload["lemma_ok"] is True
        and payload["per_error_x"] == 6
        and payload["per_error_z"] == 6
        and payload["nonzero_errors"] == 7
        and first_elapsed < 1.0
    )
    for q, n, k1, k2 in ((2, 4, 2, 1), (2, 4, 3, 1), (3, 3, 2, 1)):
        start = time.perf_counter()
        report = enumerate_nested_pairs(n, q, k1, k2)
        elapsed = time.perf_counter() - start
        x, z = report.expected_counts()
        ok = ok and report.identities_hold
        ok = ok and set(report.per_error_x.values()) == {x}
        ok = ok and set(report.per_error_z.values()) == {z}
        ok = ok and len(report.per_error_x) == q**n - 1
        ok = ok and elapsed < 60.0
    _criterion(1, "pair-counting identities verified exactly by enumeration", ok)


def test_criterion_02_css_bound_values():
    r1 = css_gv_lhs(CssBoundQuery(q=2, n=12, k1=7, k2=5, dx=2, dz=2))
    r2 = css_gv_lhs(CssBoundQuery(q=2, n=7, k1=4, k2=1, dx=2, dz=2))
    ok = (
        r1.lhs == Fraction(2304, 4095)
        and r1.feasible
        and r2.lhs == Fraction(490, 127)
        and not r2.feasible
    )
    _criterion(2, "CSS bound evaluates to the exact frozen rationals", ok)


def test_criterion_03_stab_bound_values():
    lo = stab_gv_lhs(StabBoundQuery(q=2, n=10, k=3, dx=2, dz=2)).lhs
    hi = stab_gv_lhs(StabBoundQuery(q=2, n=10, k=4, dx=2, dz=2)).lhs
    ok = lo < 1 < hi and max_k_stab(10, 2, 2, 2) == 3
    _criterion(3, "stabilizer bound brackets 1 between k=3 and k=4; max k = 3", ok)


def test_criterion_04_error_product_is_n_squared():
    ok = all(ball_sum(n, 2, 1) * ball_sum(n, 2, 1) == n * n for n in range(2, 101))
    _criterion(4, "binary dx=dz=2 error product equals n^2 for n in [2,100]", ok)


def test_criterion_05_ball_sum_entropy_inequality():
    start = time.perf_counter()
    ok = True
    for q in (2, 3, 4, 5):
        top = math.floor(100 * (1 - 1 / q))
        for i in range(1, top + 1):
            delta = i / 100
            bound_factor = entropy_hq(delta, q) * math.log(q)
            for n in range(1, 65):
                s = ball_sum(n, q, n * i // 100)
                if s > 0 and math.log(s) > n * bound_factor + 1e-6:
                    ok = False
    ok = ok and (time.perf_counter() - start) < 10.0
    _criterion(5, "ln(ball_sum) <= n*h_q(delta)*ln(q) + 1e-6 on the full grid", ok)


def test_criterion_06_css_implies_stab_region():
    start = time.perf_counter()
    rng = random.Random(2025)
    ok = True
    implications = 0
    equivalences = 0
    for _ in range(10**5):
        q = rng.choice((2, 3, 4, 5))
        dmax = 1 - 1 / q
        r2 = rng.random()
        r1 = rng.uniform(r2, 1.0)
        dx = rng.uniform(0, dmax)
        dz = rng.uniform(0, dmax)
        if css_asymptotic_feasible(q, r1, r2, dx, dz):
            implications += 1
            if not stab_asymptotic_feasible(q, r1 - r2, dx, dz):
                ok = False
        r = r1 - r2
        margin = entropy_hq(dx, q) + entropy_hq(dz, q) - (1 - r)
        if abs(margin) > 1e-6:
            equivalences += 1
            if (css_rate1_interval(q, r, dx, dz) is not None) != stab_asymptotic_feasible(q, r, dx, dz):
                ok = False
    ok = ok and implications > 1000 and equivalences > 10**4
    ok = ok and (time.perf_counter() - start) < 10.0
    _criterion(6, "CSS region implies stabilizer region; interval form is equivalent", ok)


def test_criterion_07_five_qubit_profiles(five_qubit):
    start = time.perf_counter()
    ok = (
        five_qubit.c.symplectic_dual().contains_space(five_qubit.c)
        and stab_detects_profile(five_qubit, 5, 1)
        and stab_detects_profile(five_qubit, 1, 5)
        and not stab_detects_profile(five_qubit, 6, 1)
    )
    ok = ok and (time.perf_counter() - start) < 1.0
    _criterion(7, "five-qubit code is simultaneously (5,1) and (1,5) but not (6,1)", ok)


def test_criterion_08_steane_ingredient(steane_pair):
    start = time.perf_counter()
    dist = css_distances(steane_pair)
    ok = (dist.dx, dist.dz) == (3, 3) and (time.perf_counter() - start) < 1.0
    _criterion(8, "Hamming [7,4] over its dual has asymmetric distances (3,3)", ok)


def test_criterion_09_constructive_witness(capsys, tmp_path):
    start = time.perf_counter()
    out_file = tmp_path / "witness.json"
    result, payload = _run_json(
        capsys,
        ["search", "css", "--q", "2", "--n", "12", "--k1", "7", "--k2", "5",
         "--dx", "2", "--dz", "2", "--trials", "100", "--seed", "1",
         "--out", str(out_file), "--json"],
    )
    ok = result.exit_code == 0 and payload["found"] is True
    witness = load_code_file(out_file)
    ok = ok and css_distances(witness).meets(2, 2)

    # empirical per-trial success over 10^3 independent draws
    p0 = 1 - float(css_gv_lhs(CssBoundQuery(q=2, n=12, k1=7, k2=5, dx=2, dz=2)).lhs)
    wins = sum(
        css_distances(random_nested_pair(12, 2, 7, 5, derive_trial_seed(314, t))).meets(2, 2)
        for t in range(1, 1001)
    )
    sigma = math.sqrt(p0 * (1 - p0) / 1000)
    ok = ok and (wins / 1000) >= 0.437 - 3 * sigma
    ok = ok and (time.perf_counter() - start) < 120.0
    _criterion(9, "randomized search finds a verified witness at the bound's rate", ok)


def test_criterion_10_determinism(capsys):
    search_argv = ["search", "css", "--q", "2", "--n", "12", "--k1", "7", "--k2", "5",
                   "--dx", "2", "--dz", "2", "--trials", "50", "--seed", "1", "--json"]
    outputs = []
    for _ in range(3):
        run(search_argv)
        outputs.append(capsys.readouterr().out)
    bound_argv = ["bound", "stab", "--q", "2", "--n", "10", "--k", "3", "--dx", "2", "--dz", "2", "--json"]
    run(bound_argv)
    bound_first = capsys.readouterr().out
    run(bound_argv)
    bound_second = capsys.readouterr().out
    ok = outputs[0] == outputs[1] == outputs[2] and bound_first == bound_second
    _criterion(10, "identical seeds and flags give byte-identical JSON output", ok)
