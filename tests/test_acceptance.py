"""Acceptance criteria, one test per criterion.

Every numeric criterion is asserted at its stated tolerance (rational
equality means Fraction comparison, no floats).  Criteria with a twin in
`fqminors validate` call that check at full size.  Each test prints one
summary line; run `pytest -v -s tests/test_acceptance.py` to see them.
"""

from fractions import Fraction

from conftest import from_rows, run_cli
from fqminors import formulas, validate
from fqminors.gf import field
from fqminors.matrix import FqMatrix
from fqminors.matroid import catalog, from_matrix
from fqminors.sampler import mc_event_prob, mc_minor_prob, wilson_interval
from fqminors.sweep import run_class_sweep

F2 = field(2)
SEED = 20260810


def assert_check(check, **sizes) -> str:
    ok, detail = check(**sizes)
    assert ok, detail
    return detail


def test_criterion_1_exact_formula_vs_oracle():
    """Rational equality of the closed forms with brute-force enumeration."""
    sizes = {q: [(m, n) for m in range(1, 5) for n in range(1, 5) if q ** (m * n) <= 2**20]
             for q in (2, 3)}
    searched = [(q, m, n, r) for q, shapes in sizes.items() for m, n in shapes
                if q ** (m * n) <= 3**9 for r in range(min(m, n) + 1)]
    # the largest permitted q=3 shapes, through the all-(C, D) reference search
    searched += [(3, m, n, r) for m, n in ((3, 4), (4, 3)) for r in (0, 2, 3)]
    assert_check(validate.check_rank_counts, sizes=sizes)
    assert_check(validate.check_colrank_and_free_prob, sizes=sizes, searched=searched)
    n_shapes = sum(map(len, sizes.values()))
    print(f"ACCEPTANCE 1 PASS: rank counts and rank probabilities at {n_shapes} shapes, "
          f"{len(searched)} free-minor probabilities through the searcher, zero tolerance")


def test_criterion_2_bound_sandwich():
    """Strict lower bound and upper bound sandwich the exact probability."""
    targets = [catalog("U:1,2"), catalog("U:1,3"), validate.u23_plus_loop(), catalog("U:0,2")]
    assert_check(validate.check_bound_sandwich, targets=targets, m_stop=4, n_stop=6)
    print("ACCEPTANCE 2 PASS: U12, U13, U23+loop, U02 at q=2, m <= 3, n <= 5, "
          "rational arithmetic")


def test_criterion_3_representation_counting():
    """Exhaustive representation counts dominate the closed-form bound.

    The count bound presupposes the target is representable over GF(q); the
    single combo here that `formulas.unrepresentable` rules out, U_{2,4}
    over GF(2), is instead asserted to have no representation at all.
    """
    names = [f"U:{k},{n}" for n in range(1, 5) for k in range(n + 1)]
    assert_check(validate.check_repcount_vs_exact, names=names, m_stop=4)
    print(f"ACCEPTANCE 3 PASS: {len(names)} uniform targets, m <= 3, q in {{2,3}}; "
          f"equality at (U_{{2,3}}, m=2, q=2) = 6; U24/GF(2) has 0 representations")


def test_criterion_4_cq_constant_and_square_mc():
    """C_q evaluation window, pentagonal floor, and the square-matrix MC."""
    approx, terms, floor_bound = formulas.cq_constant(2, 1e-9)
    assert 0.288788095 < approx < 0.288788096
    assert floor_bound == Fraction(1, 4) and approx > 0.25
    detail = assert_check(validate.check_mc_determinism_and_consistency,
                          m=30, n=30, trials=100_000, seed=SEED, rerun=False)
    print(f"ACCEPTANCE 4 PASS: C_2 = {approx:.10f} ({terms} factors) > 1/4; "
          f"MC ({detail}) vs partial product within 3 Wilson sigma")


def test_criterion_5_distribution_invariance():
    """Exhaustive change-of-basis bijections and conditional uniformity."""
    assert_check(validate.check_basis_change_bijection)
    assert_check(validate.check_reduce_conditional_uniform)
    print("ACCEPTANCE 5 PASS: bijection checks at 2x2 and 2x1; "
          "reduce exactly uniform at (2,2), (3,2), (2,3) with k=1")


def test_criterion_6_phase_transition_trends():
    """The finite-n shadow of the phase transition, 10^4 trials per point."""
    u12 = catalog("U:1,2")
    # (a) n - m -> infinity regime: probability climbs to 1
    points_a = []
    for n in (12, 20, 28, 36):
        est = mc_minor_prob(2, n - 8, n, u12, 10_000, seed=SEED, budget=20_000)
        points_a.append(est)
    for prev, nxt in zip(points_a, points_a[1:]):
        prev_lo = wilson_interval(prev.successes, prev.trials, z=3.0)[0]
        nxt_hi = wilson_interval(nxt.successes, nxt.trials, z=3.0)[1]
        assert nxt_hi >= prev_lo, "decreasing beyond 3 sigma"
    assert points_a[-1].point > 0.99
    # (b) m - n -> infinity regime: probability pinned near 0
    points_b = []
    for n in (4, 8, 12, 16):
        est = mc_minor_prob(2, n + 8, n, u12, 10_000, seed=SEED, budget=20_000)
        points_b.append(est)
        assert est.point < 0.02, (n, est.point)
    # (c) and the matroid is outright free almost always
    est_free = mc_event_prob(2, 24, 16, "is-free-matroid", 10_000, seed=SEED)
    assert est_free.point > 0.98
    print("ACCEPTANCE 6 PASS: "
          f"(a) points {[round(e.point, 4) for e in points_a]} non-decreasing, last > 0.99; "
          f"(b) points {[round(e.point, 4) for e in points_b]} all < 0.02; "
          f"(c) free frequency {est_free.point:.4f} > 0.98")


def _random_matrix_target(rng, n):
    tm = rng.randint(1, 2)
    tn = rng.randint(1, 5)
    return from_matrix(FqMatrix(F2, tm, tn, tuple(rng.randrange(2) for _ in range(tm * tn))))


def test_criterion_7_search_soundness_completeness():
    """find_minor_matrix, the searcher the CLI runs, and its verifier against
    the all-(C, D) reference find_minor on 200 random instances."""
    detail = assert_check(validate.check_minor_brute_agreement, instances=200, seed=SEED,
                          m_range=(1, 3), n_range=(1, 7), draw_target=_random_matrix_target)
    print(f"ACCEPTANCE 7 PASS: {detail}, 0 disagreements, every witness verified")


def test_criterion_8_graphic_class_check():
    """Tutte excluded-minor test and the non-graphic frequency sweep."""
    from fqminors.minor import excluded_minors, has_excluded_minor_matrix, membership

    k4_edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    rows = [[1 if v in e else 0 for e in k4_edges] for v in range(4)]
    rep = has_excluded_minor_matrix(from_rows(F2, rows), excluded_minors("graphic"))
    assert membership(rep.outcomes.values()) == "yes"

    u24_rep = from_rows(field(5), [[1, 1, 1, 1], [0, 1, 2, 3]])
    rep = has_excluded_minor_matrix(u24_rep, excluded_minors("graphic"))
    assert membership(rep.outcomes.values()) == "no" and rep.outcomes["U:2,4"] == "found"

    rows = run_class_sweep(2, "graphic", (8, 24, 8), "n-minus:8",
                           trials=1000, seed=SEED, budget=20_000)
    freq = {r.n: r.estimate.point for r in rows}
    assert freq[24] > 0.95, freq
    # the counts themselves, so that any drift in the search's budget
    # accounting fails here: (n, nongraphic_found, unknown) per row
    assert [(r.n, r.estimate.successes, r.estimate.unknowns) for r in rows] == [
        (8, 0, 0), (16, 987, 13), (24, 1000, 0)]
    # and at a held-out seed, whose 17 unknowns move if any charge does
    held_out = run_class_sweep(2, "graphic", (8, 24, 8), "n-minus:8",
                               trials=1000, seed=12345, budget=20_000)
    assert [(r.n, r.estimate.successes, r.estimate.unknowns) for r in held_out] == [
        (8, 0, 0), (16, 983, 17), (24, 1000, 0)]
    print(f"ACCEPTANCE 8 PASS: K4 graphic, U24/GF(5) non-graphic; "
          f"sweep non-graphic frequency {freq}")


def test_criterion_9_determinism():
    """Byte-identical outputs across repeated runs and parallelism settings."""
    a = run_cli(["validate"])
    b = run_cli(["validate"])
    assert a.returncode == 0 and a.stdout == b.stdout and a.stderr == b.stderr

    sim = ["simulate", "--q", "2", "--target", "name:U:1,2",
           "--n-start", "6", "--n-stop", "12", "--n-step", "3",
           "--m-rule", "n-minus:4", "--trials", "500", "--seed", "17"]
    r1 = run_cli(sim)
    r2 = run_cli(sim)
    r_jobs = run_cli(sim + ["--jobs", "2"])
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout == r_jobs.stdout
    assert r1.stdout.startswith("n,m,trials,point,")
    print("ACCEPTANCE 9 PASS: validate and simulate byte-identical across "
          "runs and jobs settings")
