"""The four benchmark workloads.

A workload turns ``--seed`` into rounds of operations.  Round r is drawn
from its own generator, seeded from (seed, r), so a run replays the same
operations whatever its length.  ``run`` is the timed operation, and it
calls aqgv only through its submodules (``aq.codesearch.css_distances``,
not ``aq.css_distances``) so that the tracer's wrappers see every call.
``check`` compares the output with ``reference`` and returns an error
message, or None when the output is right.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from random import Random

import reference as ref

MISS_PROBABILITY = 1e-12   # chance, under the bound, that one search finds no witness
PROMISE_TAIL = 1e-6        # one-sided tail at which an observed hit rate refutes 1 - lhs
FRONTIER_TOLERANCE = 1e-9  # |h(dx) + h(dz) - (1 - R)| allowed for a frontier point


def round_rng(seed: int, r: int) -> Random:
    return Random(seed * 1_000_003 + r)


def trials_for(lhs: float) -> int:
    """Trials after which a miss has probability MISS_PROBABILITY if every
    trial succeeds with probability 1 - lhs."""
    if not 0.0 < lhs < 1.0:
        raise ValueError(f"bound lhs {lhs} promises no witness")
    return math.ceil(math.log(MISS_PROBABILITY) / math.log(lhs))


# --- witness -------------------------------------------------------------

# (kind, q, n, k1 or k, k2 or None, dx, dz); every set has lhs < 1.  The
# CSS set at q=3, n=12, k1=8 costs nearly the same on every seed (its first
# trial hit on every seed tried, and its coset walk has a fixed size) and
# sits in the middle of the cost range, with four sets below and four above
# it.  Three searches of it per round put the median operation inside it,
# whatever the trial counts of the other searches.
WITNESS_SETS = [
    ("css", 2, 20, 10, 9, 3, 3),
    ("css", 2, 22, 11, 10, 3, 3),
    ("css", 2, 24, 13, 11, 3, 3),
    ("css", 3, 11, 7, 6, 2, 3),
    ("css", 3, 12, 7, 6, 2, 3),
    ("css", 3, 12, 8, 7, 2, 3),
    ("css", 3, 12, 8, 7, 2, 3),
    ("css", 3, 12, 8, 7, 2, 3),
    ("css", 3, 13, 7, 6, 3, 3),
    ("stab", 2, 10, 1, None, 2, 3),
    ("stab", 2, 11, 1, None, 3, 2),
]


@dataclass(frozen=True)
class WitnessOp:
    params: tuple
    seed: int
    trials: int
    lhs: float


def witness_op(params, seed):
    lhs = params_lhs(params)
    return WitnessOp(params, seed, trials_for(lhs), lhs)


class Witness:
    """One operation: gv_witness_search with workers=1 to its first hit,
    then the full distance report of that hit."""

    name = "witness"

    def __init__(self, aq, seed: int, tmp: Path):
        self.aq = aq
        self.seed = seed
        self.css_trials = {}  # checked CSS op -> trial index of its hit

    def warmup(self) -> WitnessOp:
        return witness_op(WITNESS_SETS[0], 0)

    def round(self, r: int) -> list[WitnessOp]:
        rng = round_rng(self.seed, r)
        return [witness_op(params, rng.randrange(1 << 32)) for params in WITNESS_SETS]

    def run(self, op: WitnessOp):
        cs = self.aq.codesearch
        hit = library_search(self.aq, op.params, op.seed, op.trials)
        report = cs.css_distances if op.params[0] == "css" else cs.stab_profile_matrix
        return hit, report(hit.code)

    def check(self, op: WitnessOp, out):
        hit, report = out
        kind, q, n, a, b, dx, dz = op.params
        if not 1 <= hit.trial_index <= op.trials:
            return f"trial index {hit.trial_index} out of range"
        if kind == "css":
            err = check_css_code(hit.code, q, n, a, b)
            if err:
                return err
            dist = ref.css_distances(hit.code.c1.basis, hit.code.c2.basis, n, q)
            if not meets(dist, dx, dz):
                return f"distances {dist} miss the design ({dx}, {dz})"
            got = (hit.distances.dx, hit.distances.dz)
            if got != dist or (report.dx, report.dz) != dist:
                return f"reported distances {got} / {report} differ from {dist}"
            self.css_trials[op] = hit.trial_index
            return None
        err = check_stab_code(hit.code, q, n, a)
        if err:
            return err
        profile = ref.stab_profile(list(hit.code.c.basis), n, q)
        if not profile[dx - 1][dz - 1]:
            return f"code misses the profile ({dx}, {dz})"
        if report != profile:
            return "profile matrix differs from the reference"
        return None

    def tally(self):
        """{css params: [searches, trials, lhs]} over the distinct CSS
        searches checked so far."""
        out = {}
        for op, trial in self.css_trials.items():
            t = out.setdefault(op.params, [0, 0, op.lhs])
            t[0] += 1
            t[1] += trial
        return out

    def promise_error(self):
        """The CSS sampler is uniform, so each trial succeeds with
        probability at least 1 - lhs.  Refute that only beyond PROMISE_TAIL."""
        for params, (searches, trials, lhs) in self.tally().items():
            # P(at least `trials` trials for `searches` hits) = P(Bin(trials-1, p) <= searches-1)
            tail = ref.binom_cdf(searches - 1, trials - 1, 1.0 - lhs)
            if tail < PROMISE_TAIL:
                return (f"{params}: {searches} hits in {trials} trials is below "
                        f"1 - lhs = {1 - lhs:.4f} (tail {tail:.2e})")
        return None

    def hit_rates(self):
        """(pooled CSS hits per trial, the pooled rate 1 - lhs promises)."""
        tally = self.tally().values()
        searches = sum(t[0] for t in tally)
        trials = sum(t[1] for t in tally)
        promised_trials = sum(t[0] / (1.0 - t[2]) for t in tally)
        return searches / trials, searches / promised_trials


def meets(dist, dx, dz):
    return all(d is None or d >= want for d, want in zip(dist, (dx, dz)))


def check_css_code(pair, q, n, k1, k2):
    c1, c2 = pair.c1.basis, pair.c2.basis
    if pair.q != q or pair.n != n or any(len(r) != n for r in c1 + c2):
        return "code has the wrong field or length"
    if ref.rank(c1, q) != k1 or ref.rank(c2, q) != k2:
        return f"dims ({ref.rank(c1, q)}, {ref.rank(c2, q)}) differ from ({k1}, {k2})"
    span1 = ref.rref(c1, q)
    if not all(ref.in_span(span1, row, q) for row in c2):
        return "C2 is not inside C1"
    return None


def check_stab_code(code, q, n, k):
    gens = code.c.basis
    if code.q != q or code.n != n or any(len(r) != 2 * n for r in gens):
        return "code has the wrong field or length"
    if ref.rank(gens, q) != n - k:
        return f"stabilizer rank {ref.rank(gens, q)} differs from n - k = {n - k}"
    if not ref.is_isotropic(gens, n, q):
        return "generators are not symplectic self-orthogonal"
    return None


# --- lemma ---------------------------------------------------------------

# (q, n, k1, k2); each enumerates every nested pair, so the set is fixed
# and the seed only orders it.
LEMMA_SETS = [
    (2, 4, 2, 1), (2, 4, 3, 1), (2, 5, 2, 1), (2, 5, 3, 1), (2, 6, 1, 0), (2, 8, 1, 0),
    (3, 3, 2, 1), (3, 4, 1, 0), (3, 4, 2, 1), (3, 5, 1, 0), (5, 3, 2, 1),
]


class Lemma:
    """One operation: enumerate_nested_pairs at one small (q, n, k1, k2)."""

    name = "lemma"

    def __init__(self, aq, seed: int, tmp: Path):
        self.aq = aq
        self.seed = seed

    def warmup(self) -> tuple:
        return LEMMA_SETS[0]

    def round(self, r: int) -> list[tuple]:
        ops = list(LEMMA_SETS)
        round_rng(self.seed, r).shuffle(ops)
        return ops

    def run(self, op):
        q, n, k1, k2 = op
        return self.aq.codesearch.enumerate_nested_pairs(n, q, k1, k2)

    def check(self, op, report):
        q, n, k1, k2 = op
        pairs, x, z = ref.lemma_counts(q, n, k1, k2)
        if report.total_pairs != pairs:
            return f"total_pairs {report.total_pairs} != {pairs}"
        for name, tally, want in (("x", report.per_error_x, x), ("z", report.per_error_z, z)):
            if len(tally) != q**n - 1:
                return f"per_error_{name} has {len(tally)} errors, not {q**n - 1}"
            if not all(len(e) == n and any(e) and all(0 <= v < q for v in e) for e in tally):
                return f"per_error_{name} has a key that is not a nonzero vector"
            bad = [c for c in tally.values() if c != want]
            if bad:
                return f"per_error_{name} holds {bad[0]}, the identity says {want}"
        return None


# --- tables --------------------------------------------------------------

TABLE_CENTERS = range(40, 201, 20)
# Relative distances (dx/n, dz/n) of a row's cells.  The seed moves n by up
# to 2 and scales each distance by up to 15%, so that the cost of a row,
# which grows about as n^2, depends little on the seed.
TABLE_DELTAS = ((0.025, 0.025), (0.02, 0.06), (0.06, 0.02))
FRONTIER_EVERY = 3        # rows 0, 3, 6 also hold a frontier
FRONTIER_POINTS = 33


@dataclass(frozen=True)
class Row:
    q: int
    n: int
    pairs: tuple
    frontier_r: float | None
    grid: tuple


def make_row(q, n, deltas, frontier_r=None):
    pairs = tuple((max(2, round(a * n)), max(2, round(b * n))) for a, b in deltas)
    grid = ()
    if frontier_r is not None:
        dmax = 1.0 - 1.0 / q
        grid = tuple(dmax * j / (FRONTIER_POINTS - 1) for j in range(FRONTIER_POINTS))
    return Row(q, n, pairs, frontier_r, grid)


class Tables:
    """One operation: one row of a parameter table at a single n."""

    name = "tables"

    def __init__(self, aq, seed: int, tmp: Path):
        self.aq = aq
        self.seed = seed

    def warmup(self) -> Row:
        return make_row(2, TABLE_CENTERS[0], TABLE_DELTAS, 0.3)

    def round(self, r: int) -> list[Row]:
        rng = round_rng(self.seed, r)
        rows = []
        for i, center in enumerate(TABLE_CENTERS):
            n = min(200, max(40, center + rng.randint(-2, 2)))
            deltas = [(a * rng.uniform(0.85, 1.15), b * rng.uniform(0.85, 1.15)) for a, b in TABLE_DELTAS]
            frontier_r = rng.uniform(0.05, 0.6) if i % FRONTIER_EVERY == 0 else None
            rows.append(make_row(2 + i % 2, n, deltas, frontier_r))
        return rows

    def run(self, row: Row):
        b, a = self.aq.bounds, self.aq.asymptotic
        cells = [(b.best_css_params(row.n, row.q, dx, dz), b.max_k_stab(row.n, row.q, dx, dz))
                 for dx, dz in row.pairs]
        frontier = a.stab_frontier(row.q, row.frontier_r, row.grid) if row.grid else None
        return cells, frontier

    def check(self, row: Row, out):
        cells, frontier = out
        for (dx, dz), (best, kmax) in zip(row.pairs, cells):
            err = check_best_css(row.q, row.n, dx, dz, best) or check_max_k(row.q, row.n, dx, dz, kmax)
            if err:
                return f"n={row.n} q={row.q} (dx, dz)=({dx}, {dz}): {err}"
        if row.grid:
            return check_frontier(row.q, row.frontier_r, row.grid,
                                  [(p.delta_x, p.delta_z_max, p.r) for p in frontier])
        return None


def check_best_css(q, n, dx, dz, best):
    """best is feasible, no pair with a larger k1 - k2 is, and no pair with
    the same k1 - k2 and a smaller (k1, k2) is (the documented tie-break)."""
    if best is not None:
        k1, k2 = best
        if not 0 <= k2 < k1 <= n or not ref.css_feasible(q, n, k1, k2, dx, dz):
            return f"best css {best} is not feasible"
        net = k1 - k2
    else:
        net = 0
    for c1 in range(1, n + 1):
        for c2 in range(c1):
            if c1 - c2 > net or (best is not None and c1 - c2 == net and c1 < best[0]):
                if ref.css_feasible(q, n, c1, c2, dx, dz):
                    return f"best css {best} but ({c1}, {c2}) is feasible"
    return None


def check_max_k(q, n, dx, dz, kmax):
    if kmax is not None and not (1 <= kmax <= n and ref.stab_feasible(q, n, kmax, dx, dz)):
        return f"max k {kmax} is not feasible"
    for k in range((kmax or 0) + 1, n + 1):
        if ref.stab_feasible(q, n, k, dx, dz):
            return f"max k {kmax} but k={k} is feasible"
    return None


def check_frontier(q, r, grid, points):
    """Every grid delta_x with h(delta_x) < 1 - R appears, and each point has
    h(delta_x) + h(delta_z) = 1 - R within FRONTIER_TOLERANCE."""
    dmax = 1.0 - 1.0 / q
    want = [d for d in grid if ref.entropy(d, q) < 1.0 - r - FRONTIER_TOLERANCE]
    got = [p[0] for p in points]
    if not set(want) <= set(got) or not set(got) <= set(grid):
        return f"frontier has delta_x {got}, expected {want}"
    for dx, dz, pr in points:
        if pr != r or not 0.0 <= dz <= dmax:
            return f"frontier point {(dx, dz, pr)} is out of range"
        gap = ref.entropy(dx, q) + ref.entropy(dz, q) - (1.0 - r)
        if abs(gap) > FRONTIER_TOLERANCE:
            return f"frontier point {(dx, dz)} misses h(dx) + h(dz) = 1 - R by {gap:.3g}"
    return None


# --- cli -----------------------------------------------------------------

CLI_ENTRY = "import aqgv.cli; aqgv.cli.main()"   # what the `aqgv` console script runs
CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"
CLI_CSS_FILE = ("css", 2, 18, 9, 8, 3, 3)
CLI_STAB_FILE = ("stab", 2, 8, 1, None, 2, 2)
CLI_LEMMAS = [(2, 3, 2, 1), (2, 4, 2, 1), (3, 3, 2, 1)]
CLI_SEARCHES = [
    ("css", 2, 12, 7, 5, 2, 2),
    ("css", 2, 17, 9, 8, 3, 3),
    ("css", 3, 9, 5, 4, 2, 2),
    ("stab", 2, 8, 1, None, 2, 2),
    ("stab", 2, 9, 1, None, 2, 2),
    ("stab", 2, 10, 2, None, 2, 2),
]


@dataclass(frozen=True)
class Command:
    argv: tuple
    what: str      # which check applies to the JSON output
    want: object   # what that check compares it with


class Cli:
    """One operation: one cold `aqgv` command in a fresh interpreter."""

    name = "cli"

    def __init__(self, aq, seed: int, tmp: Path):
        self.aq = aq
        self.seed = seed
        self.tmp = tmp
        self.span_file = None  # set by the tracer: run cli_child.py, which writes spans here
        src = Path(aq.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(tmp))
        self.files = {}
        self.expected_files = {}
        rng = Random(seed)
        for params in (CLI_CSS_FILE, CLI_STAB_FILE):
            hit = library_search(aq, params, rng.randrange(1 << 32))
            path = tmp / f"{params[0]}.json"
            aq.codesearch.write_code_file(hit.code, path)
            self.files[params[0]] = (path, params)

    def warmup(self) -> Command:
        return self.round(0)[0]

    def round(self, r: int) -> list[Command]:
        rng = round_rng(self.seed, r)
        cmds = []
        q = rng.choice((2, 3))
        n = rng.randint(8, 40)
        k1 = rng.randint(1, n)
        k2 = rng.randint(0, k1 - 1)
        dx, dz = rng.randint(1, 4), rng.randint(1, 4)
        cmds.append(Command(("bound", "css", *flags(q=q, n=n, k1=k1, k2=k2, dx=dx, dz=dz), "--json"),
                            "lhs", ref.css_lhs(q, n, k1, k2, dx, dz)))
        n = rng.randint(8, 40)
        k, dx, dz = rng.randint(0, n), rng.randint(1, 4), rng.randint(1, 4)
        cmds.append(Command(("bound", "stab", *flags(q=q, n=n, k=k, dx=dx, dz=dz), "--json"),
                            "lhs", ref.stab_lhs(q, n, k, dx, dz)))
        n, dx, dz = rng.randint(10, 80), rng.randint(2, 6), rng.randint(2, 6)
        cmds.append(Command(("maxk", "stab", *flags(q=2, n=n, dx=dx, dz=dz), "--json"),
                            "maxk", (2, n, dx, dz)))
        n, dx, dz = rng.randint(10, 60), rng.randint(2, 5), rng.randint(2, 5)
        cmds.append(Command(("best", "css", *flags(q=2, n=n, dx=dx, dz=dz), "--json"),
                            "best", (2, n, dx, dz)))
        q, n, k1, k2 = rng.choice(CLI_LEMMAS)
        cmds.append(Command(("lemma", *flags(q=q, n=n, k1=k1, k2=k2), "--json"),
                            "lemma", (q, n, k1, k2)))
        for kind in ("css", "stab"):
            params = rng.choice([p for p in CLI_SEARCHES if p[0] == kind])
            seed = rng.randrange(1 << 32)
            _, q, n, a, b, dx, dz = params
            dims = dict(k1=a, k2=b) if kind == "css" else dict(k=a)
            trials = trials_for(params_lhs(params))
            out = self.tmp / f"search-{r}-{kind}.json"
            cmds.append(Command(("search", kind, *flags(q=q, n=n, **dims, dx=dx, dz=dz, trials=trials, seed=seed),
                                 "--out", str(out), "--json"),
                                "search", (params, seed, trials, out)))
        for kind in ("css", "stab"):
            path, params = self.files[kind]
            cmds.append(Command(("distances", "--in", str(path), "--json"), "distances", kind))
        return cmds

    def run(self, cmd: Command):
        if self.span_file is None:
            return subprocess.run([sys.executable, "-c", CLI_ENTRY, *cmd.argv],
                                  env=self.env, capture_output=True, text=True)
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(CLI_CHILD), str(self.span_file), *cmd.argv],
                              env=self.env, capture_output=True, text=True)
        proc.span = json.loads(self.span_file.read_text())
        proc.span["wall_s"] = time.perf_counter() - start
        self.span_file.unlink()
        return proc

    def check(self, cmd: Command, proc):
        if proc.returncode != 0 or proc.stderr:
            return f"exit {proc.returncode}: {proc.stderr.strip()[:200]}"
        try:
            out = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return f"stdout is not one JSON object: {proc.stdout[:200]!r}"
        what, want = cmd.what, cmd.want
        if what == "lhs":
            if out["lhs"] != "%d/%d" % want or out["feasible"] != (want[0] < want[1]):
                return f"lhs {out['lhs']} feasible={out['feasible']}, expected {want[0]}/{want[1]}"
        elif what == "maxk":
            return check_max_k(*want, out["k_max"])
        elif what == "best":
            best = None if out["k1"] is None else (out["k1"], out["k2"])
            return check_best_css(*want, best)
        elif what == "lemma":
            pairs, x, z = ref.lemma_counts(*want)
            got = (out["total_pairs"], out["per_error_x"], out["per_error_z"], out["lemma_ok"])
            if got != (pairs, x, z, True):
                return f"lemma reports {got}, expected {(pairs, x, z, True)}"
        elif what == "search":
            return self.check_search(out, *want)
        elif what == "distances":
            return self.check_distances(out, want)
        return None

    def check_search(self, out, params, seed, trials, path):
        """Same trial index as a sequential library search with that seed,
        and the written code is valid and meets the design."""
        kind, q, n, a, b, dx, dz = params
        hit = library_search(self.aq, params, seed, trials)
        if not out["found"] or out["trial_index"] != hit.trial_index:
            return f"cli found trial {out['trial_index']}, the library found {hit.trial_index}"
        code = self.aq.codesearch.load_code_file(path)
        if kind == "css":
            err = check_css_code(code, q, n, a, b)
            dist = ref.css_distances(code.c1.basis, code.c2.basis, n, q)
            shown = tuple(None if d == "inf" else d for d in (out["dx"], out["dz"]))
            if not err and (not meets(dist, dx, dz) or shown != dist):
                err = f"cli shows distances {shown}, the reference says {dist}"
            return err
        err = check_stab_code(code, q, n, a)
        if not err and not ref.stab_profile(list(code.c.basis), n, q)[dx - 1][dz - 1]:
            err = f"written code misses the profile ({dx}, {dz})"
        return err

    def check_distances(self, out, kind):
        path, params = self.files[kind]
        if kind not in self.expected_files:
            code = self.aq.codesearch.load_code_file(path)
            n, q = params[2], params[1]
            if kind == "css":
                d = ref.css_distances(code.c1.basis, code.c2.basis, n, q)
                self.expected_files[kind] = tuple("inf" if v is None else v for v in d)
            else:
                self.expected_files[kind] = ref.stab_profile(list(code.c.basis), n, q)
        want = self.expected_files[kind]
        got = (out["dx"], out["dz"]) if kind == "css" else out["profile"]
        if got != want:
            return f"distances of the {kind} file read {got}, the reference says {want}"
        return None


def flags(**values):
    out = []
    for key, value in values.items():
        out += [f"--{key}", str(value)]
    return out


def params_lhs(params):
    kind, q, n, a, b, dx, dz = params
    num, den = ref.css_lhs(q, n, a, b, dx, dz) if kind == "css" else ref.stab_lhs(q, n, a, dx, dz)
    return num / den


def library_search(aq, params, seed, trials=None):
    """gv_witness_search with workers=1; a search that finds nothing raises."""
    kind, q, n, a, b, dx, dz = params
    trials = trials or trials_for(params_lhs(params))
    dims = dict(k1=a, k2=b) if kind == "css" else dict(k=a)
    hit = aq.codesearch.gv_witness_search(kind, q=q, n=n, dx=dx, dz=dz, trials=trials,
                                          seed=seed, workers=1, **dims)
    if hit is None:
        raise RuntimeError(f"library search {params} seed {seed} found no witness")
    return hit


WORKLOADS = {w.name: w for w in (Witness, Lemma, Tables, Cli)}
