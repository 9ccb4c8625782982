"""The oracle-vs-formula check suite behind `fqminors validate`.

Each check is a named callable returning (ok, detail).  Its sizes, seeds
and targets are keyword parameters whose defaults are capped so the whole
suite stays deterministic and runs in seconds; the pytest acceptance module
calls the same checks at full size.  Formula functions are looked up
through the module at call time so a corrupted formula is caught by the
check that covers it.
"""

from __future__ import annotations

import itertools
import random

from . import formulas, linalg, minor, oracle, sampler
from .errors import BudgetExceededError
from .gf import field
from .matrix import FqMatrix
from .matroid import Matroid, catalog, from_matrix
from .sweep import SWEEP_BUDGET, run_minor_sweep
from .sampler import wilson_interval

_SMALL_SIZES = {2: [(m, n) for m in range(1, 4) for n in range(1, 4)],
                3: [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]}


def check_field_axioms():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        f = field(q)
        elems = range(q)
        for a in elems:
            if f.add(a, 0) != a or f.mul(a, 1) != a or f.mul(a, 0) != 0:
                return False, f"identity failure in GF({q})"
            if f.add(a, f.neg(a)) != 0:
                return False, f"negation failure in GF({q})"
            if a and f.mul(a, f.inv(a)) != 1:
                return False, f"inverse failure in GF({q})"
        for a in elems:
            for b in elems:
                if f.add(a, b) != f.add(b, a) or f.mul(a, b) != f.mul(b, a):
                    return False, f"commutativity failure in GF({q})"
                for c in elems:
                    if f.add(f.add(a, b), c) != f.add(a, f.add(b, c)):
                        return False, f"add associativity failure in GF({q})"
                    if f.mul(f.mul(a, b), c) != f.mul(a, f.mul(b, c)):
                        return False, f"mul associativity failure in GF({q})"
                    if f.mul(a, f.add(b, c)) != f.add(f.mul(a, b), f.mul(a, c)):
                        return False, f"distributivity failure in GF({q})"
        # the multiplicative group is cyclic: some element has order q-1
        def order(x):
            y, k = x, 1
            while y != 1:
                y = f.mul(y, x)
                k += 1
            return k
        if q > 2 and not any(order(a) == q - 1 for a in range(2, q)):
            return False, f"no generator found in GF({q})"
    return True, "q in {2,3,4,5,7,8,9,11,13,16}"


def check_rank_transpose():
    f2 = field(2)
    for m in range(4):
        for n in range(4):
            for entries in itertools.product(range(2), repeat=m * n):
                A = FqMatrix(f2, m, n, entries)
                if linalg.fast_rank(A) != linalg.fast_rank(A.transpose()):
                    return False, f"rank(A) != rank(A^T) at {entries}"
    return True, "GF(2) exhaustive to 3x3"


def check_rank_counts(sizes=_SMALL_SIZES):
    """`sizes` maps q to the (m, n) shapes to enumerate."""
    for q, shapes in sizes.items():
        for m, n in shapes:
            hist = oracle.rank_histogram(q, m, n)
            if sum(hist) != q ** (m * n):
                return False, f"histogram sum wrong at q={q} {m}x{n}"
            for k, c in enumerate(hist):
                if c != formulas.count_rank_matrices(m, n, q, k):
                    return False, f"count_rank_matrices({m},{n},{q},{k}) != oracle {c}"
                if c != formulas.count_rank_matrices(n, m, q, k):
                    return False, f"transpose symmetry broken at q={q} {m}x{n} k={k}"
    return True, "q in {2,3} small shapes"


def check_colrank_and_free_prob(sizes=_SMALL_SIZES,
                                searched=((2, 2, 3, 2), (2, 3, 2, 1), (3, 2, 2, 1), (3, 2, 3, 2))):
    """`searched` lists (q, m, n, r) whose free:r probability is also
    computed by `oracle.exact_minor_prob`, which decides each host with the
    all-(C, D) reference search."""
    for q, shapes in sizes.items():
        for m, n in shapes:
            hist, total = oracle.rank_histogram(q, m, n), q ** (m * n)
            if m >= n and hist[n] != formulas.prob_full_col_rank(m, n, q) * total:
                return False, f"prob_full_col_rank({m},{n},{q}) mismatch"
            for r in range(min(m, n) + 1):
                if sum(hist[r:]) != formulas.prob_free_minor(m, n, q, r) * total:
                    return False, f"prob_free_minor({m},{n},{q},{r}) mismatch"
    for q, m, n, r in searched:
        got = oracle.exact_minor_prob(q, m, n, catalog(f"free:{r}")).exact
        if got != formulas.prob_free_minor(m, n, q, r):
            return False, f"free:{r} minor search at ({m},{n},{q}) mismatch"
    return True, "q in {2,3} small shapes"


def check_li_bound_strict():
    for q in (2, 3):
        for m in range(1, 7):
            for n in range(1, m + 1):
                if not formulas.li_lower_bound(m, n, q) < formulas.prob_full_col_rank(m, n, q):
                    return False, f"li bound not strict at q={q} m={m} n={n}"
    return True, "q in {2,3}, m <= 6"


def check_psmq_repcount_consistency():
    names = [f"U:{k},{n}" for n in range(1, 5) for k in range(n + 1)]
    for q in (2, 3):
        for m in range(1, 4):
            for name in names:
                st = catalog(name).stats()
                if m < st.r:
                    continue
                p = formulas.p_smq(m, q, st)
                if p * q ** (m * st.e) != formulas.rep_count_lower_bound(m, q, st):
                    return False, f"p_smq inconsistent with repcount at {name} m={m} q={q}"
    return True, "uniform catalog, m <= 3, q in {2,3}"


def check_repcount_vs_exact(names=("U:0,2", "U:1,2", "U:2,2", "U:1,3", "U:2,3"),
                            m_stop=3):
    """Exhaustive counts at m < m_stop dominate the closed-form bound; the
    bound presupposes representability, so a target `formulas.unrepresentable`
    rules out must instead have no representation at all."""
    for q in (2, 3):
        for name in names:
            M = catalog(name)
            st = M.stats()
            for m in range(st.r, m_stop):
                got = oracle.count_representations_exact(M, m, q)
                if formulas.unrepresentable(q, M):
                    if got:
                        return False, f"{name} has {got} representations over GF({q})"
                    continue
                bound = formulas.rep_count_lower_bound(m, q, st)
                if got < bound:
                    return False, f"rep count {got} below bound {bound} at {name} m={m} q={q}"
    exact = oracle.count_representations_exact(catalog("U:2,3"), 2, 2)
    if exact != 6 or formulas.rep_count_lower_bound(2, 2, catalog("U:2,3").stats()) != 6:
        return False, "U_{2,3} m=2 q=2 representation count is not the tight 6"
    return True, "small catalog targets"


def u23_plus_loop() -> Matroid:
    """U_{2,3} with a loop added, over GF(2)."""
    return from_matrix(FqMatrix(field(2), 2, 4, (1, 0, 1, 0, 0, 1, 1, 0)))


def check_bound_sandwich(targets=None, m_stop=3, n_stop=5):
    """Strict lower and upper bounds around the exact probability at q=2,
    m < m_stop, n < n_stop; `targets` defaults to U12, U02 and U23+loop."""
    if targets is None:
        targets = [catalog("U:1,2"), catalog("U:0,2"), u23_plus_loop()]
    for target in targets:
        st = target.stats()
        for m in range(st.r, m_stop):
            for n in range(st.e, n_stop):
                exact = oracle.exact_minor_prob(2, m, n, target).exact
                if min(n - st.e, m - st.r) >= 1:
                    rep = formulas.lower_bound_nonfree(m, n, 2, st)
                    if not rep.value < exact:
                        return False, f"lower bound not strict at {target} m={m} n={n}"
                if m >= n and not exact <= formulas.upper_bound_nonfree(m, n, 2):
                    return False, f"upper bound violated at {target} m={m} n={n}"
    return True, "U12, U02, U23+loop at q=2, m <= 2, n <= 4"


def check_basis_change_bijection():
    for (m, n) in ((2, 1), (2, 2)):
        ok, details = oracle.basis_change_bijective(2, m, n)
        if not ok:
            return False, f"bijection failure at {m}x{n}: {details}"
    return True, "GF(2) 2x1 and 2x2, all invertible P"


def check_reduce_conditional_uniform():
    for (m, n, k) in ((2, 2, 1), (3, 2, 1), (2, 3, 1)):
        if not oracle.reduce_conditional_uniform(2, m, n, k)[0]:
            return False, f"conditional uniformity failure at m={m} n={n} k={k}"
    return True, "GF(2) shapes (2,2), (3,2), (2,3) at k=1"


def _uniform_target(rng, n: int) -> Matroid:
    tn = rng.randint(1, min(4, n))
    tk = rng.randint(0, tn)
    return catalog(f"U:{tk},{tn}")


def check_minor_brute_agreement(instances=12, seed=20240811, m_range=(2, 3),
                                n_range=(2, 6), draw_target=_uniform_target):
    """The searcher the CLI runs, find_minor_matrix, and its verifier
    against the all-(C, D) reference find_minor on random GF(2) hosts; each
    instance draws m, n and the host matrix from one seeded RNG, then
    draw_target(rng, n)."""
    rng = random.Random(seed)
    f2 = field(2)
    for _ in range(instances):
        m = rng.randint(*m_range)
        n = rng.randint(*n_range)
        A = FqMatrix(f2, m, n, tuple(rng.randrange(2) for _ in range(m * n)))
        host = from_matrix(A)
        target = draw_target(rng, n)
        try:
            w = minor.find_minor_matrix(A, target)
        except BudgetExceededError:
            return False, "budget exceeded on a tiny instance"
        if (w is not None) != (minor.find_minor(host, target, budget=None) is not None):
            return False, f"disagreement on host {host} target {target}"
        if w is not None and not minor.verify_witness_matrix(A, target, w):
            return False, f"witness failed verification on {host} vs {target}"
    return True, f"{instances} seeded random instances vs all-(C,D) brute force"


def check_mc_determinism_and_consistency(m=4, n=4, trials=2000, seed=1234, rerun=True):
    """The GF(2) full-column-rank frequency brackets the exact probability
    within 3 Wilson sigma; with `rerun`, a second run must agree exactly."""
    a = sampler.mc_event_prob(2, m, n, "full-column-rank", trials, seed=seed)
    if rerun and sampler.mc_event_prob(2, m, n, "full-column-rank", trials, seed=seed) != a:
        return False, "same seed gave different estimates"
    exact = float(formulas.prob_full_col_rank(m, n, 2))
    lo, hi = wilson_interval(a.successes, a.trials, z=3.0)
    if not lo <= exact <= hi:
        return False, f"exact {exact} outside 3-sigma Wilson [{lo}, {hi}]"
    return True, f"{trials} trials at {m}x{n}, q=2"


def check_sweep_rows_bracket_bounds():
    rows = run_minor_sweep(2, catalog("U:1,2"), (4, 8, 2), "n-minus:2",
                           trials=400, seed=99, budget=SWEEP_BUDGET)
    for r in rows:
        e = r.estimate
        hi_bracket = wilson_interval(e.successes + e.unknowns, e.trials)[1]
        if r.lower is not None and hi_bracket < float(r.lower):
            return False, f"point below lower bound at n={r.n}"
        if r.upper is not None and e.wilson_lo > float(r.upper):
            return False, f"point above upper bound at n={r.n}"
    return True, "U12 sweep, n=4..8, 400 trials"


def check_cq_floor():
    for q in (2, 3, 4):
        approx, _, floor_bound = formulas.cq_constant(q, 1e-9)
        if not approx > float(floor_bound):
            return False, f"C_q approximation at q={q} fell below 1 - 1/q - 1/q^2"
    return True, "q in {2,3,4}"


CHECKS = [
    ("field-axioms", check_field_axioms),
    ("rank-transpose", check_rank_transpose),
    ("rank-counts-vs-oracle", check_rank_counts),
    ("colrank-free-prob-vs-oracle", check_colrank_and_free_prob),
    ("li-bound-strict", check_li_bound_strict),
    ("psmq-repcount-consistency", check_psmq_repcount_consistency),
    ("repcount-vs-exact", check_repcount_vs_exact),
    ("bound-sandwich", check_bound_sandwich),
    ("change-of-basis-bijection", check_basis_change_bijection),
    ("reduce-conditional-uniform", check_reduce_conditional_uniform),
    ("minor-brute-agreement", check_minor_brute_agreement),
    ("mc-determinism", check_mc_determinism_and_consistency),
    ("sweep-bounds-bracket", check_sweep_rows_bracket_bounds),
    ("cq-floor", check_cq_floor),
]


def run_checks():
    """Run every named check; returns a list of (name, ok, detail)."""
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash inside a check is a failure
            ok, detail = False, f"exception: {exc!r}"
        results.append((name, ok, detail))
    return results
