"""The four benchmark workloads, each run through the package's public
entry points with `--jobs 1` in one process.

A run is a fixed number of rounds for its --seconds, so the same bench seed
always does the same work.  In `mc-minor` and `mc-rank` round r draws its own
seed from (bench seed, r), so rounds never share a sample; `class-sweep` and
`exact-oracle` run fixed lists whose order the bench seed permutes (see their
plan functions).  Every round returns canonical result fields (counts only),
which are digested and checked; the checks here need no recorded digest and
hold for any seed.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from fqminors import cli, formulas, oracle, sampler
from fqminors.gf import field
from fqminors.matroid import catalog
from fqminors.minor import GRAPHIC_EXCLUDED
from fqminors.sweep import bounds_for

# nominal length of a round, and the nominal oracle rate, on the reference
# host; they turn --seconds into a fixed amount of work
ROUND_S = 0.5
CLASS_ROUND_S = 4.5
ORACLE_MATRICES_PER_S = 200_000
# z for the statistical checks against exact values: a false alarm is a
# ~1e-6 event per comparison
CHECK_Z = 5.0

MINOR_TRIALS = 100   # per n, n = 12, 20, 28, 36
CLASS_TRIALS = 100   # per n, n = 8, 16, 24
CLASS_SEED = 20260810  # acceptance criterion 8's seed
RANK_TRIALS = {2: 1200, 3: 80}  # about equal time in each field


@dataclass(frozen=True)
class Round:
    key: str                       # digest key: round index or shape
    units: int                     # trials, or matrices enumerated
    run: Callable[[], object]      # returns the canonical result fields


def round_seed(seed: int, r) -> int:
    """A 56-bit seed for round r; any integer bench seed is accepted and
    the derived seed stays below 2^63, where Philox keys are exact."""
    digest = hashlib.sha256(f"{seed}:{r}".encode()).digest()
    return int.from_bytes(digest[:7], "big")


def digest(canonical) -> str:
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def rounds_for(seconds: int, round_s: float = ROUND_S) -> int:
    return max(1, round(seconds / round_s))


def _permuted(seed: int, rounds: list[Round]) -> list[Round]:
    return sorted(rounds, key=lambda rnd: round_seed(seed, rnd.key))


def _cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"fqminors {' '.join(argv)} exited {rc}")
    return out.getvalue()


# ----------------------------------------------------------------------
# mc-minor: simulate, U:1,2 over GF(2), the witness-verifying hit path
# ----------------------------------------------------------------------

MINOR_NS = (12, 20, 28, 36)


def _minor_argv(seed: int, trials: int) -> list[str]:
    return ["simulate", "--q", "2", "--target", "name:U:1,2",
            "--n-start", "12", "--n-stop", "36", "--n-step", "8",
            "--m-rule", "n-minus:8", "--budget", "20000",
            "--trials", str(trials), "--seed", str(seed), "--jobs", "1", "--json"]


def _minor_round(seed: int, trials: int):
    rows = json.loads(_cli(_minor_argv(seed, trials)))
    return [[r["n"], r["m"], r["estimate"]["trials"], r["estimate"]["successes"],
             r["estimate"]["unknowns"]] for r in rows]


def _minor_plan(seed: int, seconds: int, smoke: bool) -> list[Round]:
    trials = 2 if smoke else MINOR_TRIALS
    count = 1 if smoke else rounds_for(seconds)
    return [Round(str(r), trials * len(MINOR_NS),
                  lambda s=round_seed(seed, r): _minor_round(s, trials))
            for r in range(count)]


def _minor_check(results) -> list[str]:
    problems = []
    pooled: dict = {}
    for _, rows in results:
        if [row[0] for row in rows] != list(MINOR_NS):
            problems.append(f"unexpected sweep rows {rows}")
            continue
        for n, m, trials, successes, unknowns in rows:
            if m != n - 8 or successes + unknowns > trials:
                problems.append(f"inconsistent row {(n, m, trials, successes, unknowns)}")
            acc = pooled.setdefault(n, [0, 0])
            acc[0] += trials
            acc[1] += successes
    target = catalog("U:1,2")
    for n, (trials, successes) in pooled.items():
        lower, upper = bounds_for(target, 2, n - 8, n)
        lo, hi = sampler.wilson_interval(successes, trials, z=CHECK_Z)
        if lower is not None and hi < float(lower):
            problems.append(f"n={n}: {successes}/{trials} below the exact lower bound")
        if upper is not None and lo > float(upper):
            problems.append(f"n={n}: {successes}/{trials} above the exact upper bound")
    return problems


# ----------------------------------------------------------------------
# class-sweep: class --sweep over GF(2), excluded-minor misses
# ----------------------------------------------------------------------

CLASS_NS = (8, 16, 24)


def _class_argv(seed: int, trials: int) -> list[str]:
    return ["class", "--sweep", "--q", "2", "--n-start", "8", "--n-stop", "24",
            "--n-step", "8", "--m-rule", "n-minus:8", "--budget", "20000",
            "--trials", str(trials), "--seed", str(seed)]


def _class_round(seed: int, trials: int):
    lines = [ln for ln in _cli(_class_argv(seed, trials)).splitlines()
             if not ln.startswith("#")]
    return [[int(r["n"]), int(r["m"]), int(r["trials"]), int(r["nongraphic_found"]),
             int(r["unknown"])] for r in csv.DictReader(lines)]


def _class_plan(seed: int, seconds: int, smoke: bool) -> list[Round]:
    """A fixed sample: round r is the sweep at seed CLASS_SEED + r.  Its cost
    is dominated by the ~1% of n=16 trials whose searches run out of budget
    on every target (over 80% of the time), so a sample drawn from the bench
    seed would make run time a Poisson count of such trials.  The bench seed
    only permutes the order of the rounds."""
    trials = 1 if smoke else CLASS_TRIALS
    count = 1 if smoke else rounds_for(seconds, CLASS_ROUND_S)
    return _permuted(seed, [Round(str(r), trials * len(CLASS_NS),
                                  lambda s=CLASS_SEED + r: _class_round(s, trials))
                            for r in range(count)])


def _class_check(results) -> list[str]:
    problems = []
    found_24 = trials_24 = 0
    for _, rows in results:
        if [row[0] for row in rows] != list(CLASS_NS):
            problems.append(f"unexpected sweep rows {rows}")
            continue
        for n, m, trials, found, unknown in rows:
            if m != n - 8 or found + unknown > trials:
                problems.append(f"inconsistent row {(n, m, trials, found, unknown)}")
            if n == 24:
                found_24 += found
                trials_24 += trials
    # acceptance criterion 8: at n = 24 over 95% of samples are non-graphic
    _, hi = sampler.wilson_interval(found_24, trials_24, z=CHECK_Z)
    if hi < 0.95:
        problems.append(f"n=24 non-graphic {found_24}/{trials_24} is not above 0.95")
    return problems


# ----------------------------------------------------------------------
# mc-rank: mc_event_prob full-column-rank at 30 x 30, GF(2) and GF(3)
# ----------------------------------------------------------------------

RANK_SHAPE = (30, 30)


def _rank_round(seed: int, trials: dict):
    m, n = RANK_SHAPE
    out = []
    for q, t in trials.items():
        est = sampler.mc_event_prob(q, m, n, "full-column-rank", t, seed)
        out.append([q, est.trials, est.successes, est.unknowns])
    return out


def _rank_plan(seed: int, seconds: int, smoke: bool) -> list[Round]:
    trials = {2: 20, 3: 2} if smoke else RANK_TRIALS
    count = 1 if smoke else rounds_for(seconds)
    return [Round(str(r), sum(trials.values()),
                  lambda s=round_seed(seed, r): _rank_round(s, trials))
            for r in range(count)]


def _rank_check(results) -> list[str]:
    problems = []
    pooled: dict = {}
    for _, rows in results:
        for q, trials, successes, unknowns in rows:
            if unknowns or successes > trials:
                problems.append(f"inconsistent estimate {(q, trials, successes, unknowns)}")
            acc = pooled.setdefault(q, [0, 0])
            acc[0] += trials
            acc[1] += successes
    m, n = RANK_SHAPE
    for q, (trials, successes) in pooled.items():
        exact = float(formulas.prob_full_col_rank(m, n, q))
        lo, hi = sampler.wilson_interval(successes, trials, z=CHECK_Z)
        if not lo <= exact <= hi:
            problems.append(f"q={q}: {successes}/{trials} far from the exact {exact:.6f}")
    return problems


# ----------------------------------------------------------------------
# exact-oracle: rank_histogram and exact_minor_prob(free:r), criterion 1
# ----------------------------------------------------------------------


def _oracle_tasks(smoke: bool) -> tuple[list, list]:
    """(base, large) lists of (kind, q, m, n, r): acceptance criterion 1's
    shapes, then its largest q=3 minor shapes in a fixed order."""
    if smoke:
        return [("hist", 2, 2, 2, None), ("hist", 3, 1, 2, None),
                ("minor", 2, 2, 2, 1)], []
    base = []
    for q in (2, 3):
        for m in range(1, 5):
            for n in range(1, 5):
                if q ** (m * n) > 2**20:
                    continue
                base.append(("hist", q, m, n, None))
                if q ** (m * n) <= 3**9:
                    base += [("minor", q, m, n, r) for r in range(min(m, n) + 1)]
    large = [("minor", 3, m, n, r) for (m, n) in ((3, 4), (4, 3)) for r in (0, 2, 3)]
    return base, large


def _cells(task) -> int:
    _, q, m, n, _ = task
    return q ** (m * n)


def _task_key(task) -> str:
    kind, q, m, n, r = task
    return f"{kind}:{q}:{m}:{n}" + ("" if r is None else f":free{r}")


def _oracle_task(task):
    kind, q, m, n, r = task
    if kind == "hist":
        return list(oracle.rank_histogram(q, m, n))
    res = oracle.exact_minor_prob(q, m, n, catalog(f"free:{r}"))
    return [res.total, res.hits]


def _oracle_plan(seed: int, seconds: int, smoke: bool) -> list[Round]:
    """All of criterion 1's base shapes, then large shapes up to the nominal
    work for `seconds`.  The seed only permutes the order, since the oracle
    takes no random input."""
    chosen, large = _oracle_tasks(smoke)
    total = sum(map(_cells, chosen))
    for task in large:
        if total + _cells(task) > seconds * ORACLE_MATRICES_PER_S:
            break
        chosen.append(task)
        total += _cells(task)
    return _permuted(seed, [Round(_task_key(t), _cells(t), lambda t=t: _oracle_task(t))
                            for t in chosen])


def _oracle_check(results) -> list[str]:
    problems = []
    for rnd, got in results:
        kind, q, m, n, *rest = rnd.key.split(":")
        q, m, n = int(q), int(m), int(n)
        if kind == "hist":
            ok = got == [formulas.count_rank_matrices(m, n, q, k)
                         for k in range(min(m, n) + 1)]
        else:
            r = int(rest[0][len("free"):])
            ok = (got[0] == q ** (m * n)
                  and Fraction(got[1], got[0]) == formulas.prob_free_minor(m, n, q, r))
        if not ok:
            problems.append(f"{rnd.key}: {got} disagrees with the closed form")
    return problems


def oracle_caches_empty() -> bool:
    return not oracle._rank_hist_cache and not oracle._census_cache


# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    fields: tuple[int, ...]
    targets: tuple[str, ...]
    plan: Callable[[int, int, bool], list[Round]]
    check: Callable[[list], list[str]]
    seeded: bool   # inputs drawn from the bench seed; else a fixed list
    layers: tuple[str, ...]     # traced functions each run must call

    def setup(self):
        """What a CLI run pays before its first trial: field tables and the
        catalog targets (the package is already imported)."""
        for q in self.fields:
            field(q)
        for name in self.targets:
            catalog(name)

    def probe_code(self) -> str:
        """Python source for a fresh process (argv: package source) that
        imports the package, does the same set-up and prints the monotonic
        clock."""
        return ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "import fqminors.cli; from fqminors.gf import field; "
                "from fqminors.matroid import catalog; "
                f"[field(q) for q in {self.fields!r}]; "
                f"[catalog(t) for t in {self.targets!r}]; "
                "print(time.monotonic_ns())")


_MINOR_LAYERS = (
    "cli.main", "sampler.sample_entries", "sampler.sample_matrix",
    "minor.find_minor_matrix", "minor.verify_witness_matrix",
    "linalg.BitOps.cols_of", "linalg.BitOps.rank_cols",
    "linalg.BitOps.inverse_rows", "matroid.from_matrix", "matroid.is_isomorphic",
)

WORKLOADS = {
    w.name: w for w in (
        Workload("mc-minor", (2,), ("U:1,2",), _minor_plan, _minor_check, True,
                 _MINOR_LAYERS + ("sweep.run_minor_sweep", "sweep.bounds_for",
                                  "sampler.mc_minor_prob")),
        Workload("class-sweep", (2,), GRAPHIC_EXCLUDED, _class_plan, _class_check, False,
                 _MINOR_LAYERS + ("sweep.run_class_sweep",
                                  "minor.has_excluded_minor_matrix")),
        Workload("mc-rank", (2, 3), (), _rank_plan, _rank_check, True,
                 ("sampler.mc_event_prob", "sampler.sample_entries",
                  "sampler.sample_matrix", "linalg.fast_rank",
                  "linalg.GenOps.cols_of", "linalg.GenOps.rank_cols")),
        Workload("exact-oracle", (2, 3), tuple(f"free:{r}" for r in range(5)),
                 _oracle_plan, _oracle_check, False,
                 ("oracle.rank_histogram", "oracle.exact_minor_prob",
                  "linalg.BitOps.rank_cols", "linalg.GenOps.rank_cols",
                  "matroid.from_matrix", "minor.find_minor", "minor.verify_witness")),
    )
}


def unknowns(name: str, results) -> tuple[int, int]:
    """(undecided trials, trials) read from a Monte Carlo workload's rows."""
    if name not in ("mc-minor", "class-sweep"):
        return 0, 0
    rows = [row for _, rs in results for row in rs]
    return sum(r[4] for r in rows), sum(r[2] for r in rows)
