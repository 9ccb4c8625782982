import itertools
from fractions import Fraction

import pytest

from conftest import gf2_rank_bits, modp_rank
from fqminors import formulas, gf, oracle
from fqminors.errors import BadArgumentsError
from fqminors.gf import prime_power
from fqminors.matroid import MatroidStats, catalog


def brute_rank_counts_gf2(m, n):
    """Independent oracle: rank histogram over all 2^(m*n) matrices."""
    counts = {}
    for entries in itertools.product(range(2), repeat=m * n):
        rows = [
            sum(entries[i * n + j] << j for j in range(n)) for i in range(m)
        ]
        r = gf2_rank_bits(rows)
        counts[r] = counts.get(r, 0) + 1
    return counts


def brute_subspace_count(n, k):
    """Independent oracle: k-dim subspaces of GF(2)^n by span enumeration."""
    vectors = list(range(1, 1 << n))
    subspaces = set()
    for combo in itertools.combinations(vectors, k):
        span = {0}
        for v in combo:
            span |= {x ^ v for x in span}
        if len(span) == 1 << k:
            subspaces.add(frozenset(span))
    return len(subspaces)


def test_gaussian_binomial_trivial_and_derived():
    assert formulas.gaussian_binomial(5, 0, 3) == 1
    assert formulas.gaussian_binomial(2, 1, 2) == 3
    # oracle: brute-force count of 2-dim subspaces of GF(2)^4 is 35
    assert brute_subspace_count(4, 2) == 35
    assert formulas.gaussian_binomial(4, 2, 2) == 35
    assert formulas.gaussian_binomial(3, 1, 2) == brute_subspace_count(3, 1) == 7
    with pytest.raises(BadArgumentsError):
        formulas.gaussian_binomial(2, 3, 2)
    with pytest.raises(BadArgumentsError):
        formulas.gaussian_binomial(2, 1, 1)


def _smallest_factor_power(q):
    """Whether q is a power of its smallest prime factor, by trial division."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


def test_every_formula_rejects_a_q_that_is_not_a_prime_power():
    assert [q for q in range(2, 5000) if prime_power(q)] == \
        [q for q in range(2, 5000) if _smallest_factor_power(q)]
    m61 = 2**61 - 1  # prime
    for q, pe in ((m61, (m61, 1)), (m61**3, (m61, 3)), (43**40, (43, 40)), (3**200, (3, 200)),
                  (2**4000, (2, 4000)), (17, (17, 1)), (32, (2, 5)), (47**6, (47, 6))):
        assert prime_power(q) == pe, q
    for q in (6, 10**18, 2**64 + 1, m61 * (2**31 - 1), m61**2 * 43, 43 * 47):
        assert prime_power(q) is None, q
    for run in (lambda: formulas.gaussian_binomial(4, 2, 6),
                lambda: formulas.count_rank_matrices(3, 4, 6, 2),
                lambda: formulas.prob_free_minor(3, 4, 6, 2),
                lambda: formulas.prob_full_col_rank(5, 3, 6),
                lambda: formulas.upper_bound_nonfree(4, 3, 6),
                lambda: formulas.cq_constant(6, 1e-12)):
        with pytest.raises(BadArgumentsError, match="q=6 is not a prime power"):
            run()
    assert formulas.gaussian_binomial(4, 2, 32) == 1083425


def test_iroot_is_the_floor_of_the_root():
    for q in (1, 2, 7, 8, 9, 43**40 - 1, 43**40, 43**40 + 1, 2**4000 - 1, 3**200 + 7):
        for k in (2, 3, 5, 7, 41, 43):
            r = gf._iroot(q, k)
            assert r**k <= q < (r + 1) ** k, (q, k)


def test_q_past_the_bound_is_rejected_before_the_prime_power_test(monkeypatch):
    monkeypatch.setattr(formulas, "prime_power", lambda q: pytest.fail("prime-power test ran"))
    for q in (2**64 + 1, 2**4423 - 1):
        with pytest.raises(BadArgumentsError, match=f"q must be <= 2\\^64, got a {q.bit_length()}-bit q"):
            formulas.cq_constant(q, 1e-12)
    monkeypatch.undo()
    assert formulas.gaussian_binomial(2, 1, 2**64) == 2**64 + 1


def test_count_rank_matrices_against_brute_force():
    # frozen from the brute-force oracle over all 16 GF(2) 2x2 matrices
    assert brute_rank_counts_gf2(2, 2) == {0: 1, 1: 9, 2: 6}
    assert formulas.count_rank_matrices(2, 2, 2, 1) == 9
    assert formulas.count_rank_matrices(2, 2, 2, 2) == 6
    assert formulas.count_rank_matrices(3, 3, 2, 0) == 1
    for m in range(1, 4):
        for n in range(1, 4):
            brute = brute_rank_counts_gf2(m, n)
            for k in range(min(m, n) + 1):
                assert formulas.count_rank_matrices(m, n, 2, k) == brute.get(k, 0)


def test_count_rank_matrices_gf3_spot():
    counts = {}
    m = n = 2
    for entries in itertools.product(range(3), repeat=4):
        r = modp_rank([list(entries[:2]), list(entries[2:])], 3)
        counts[r] = counts.get(r, 0) + 1
    for k in range(3):
        assert formulas.count_rank_matrices(2, 2, 3, k) == counts.get(k, 0)


def test_count_rank_sum_and_symmetry():
    for q in (2, 3, 4, 5):
        for m in range(1, 5):
            for n in range(1, 5):
                total = sum(
                    formulas.count_rank_matrices(m, n, q, k)
                    for k in range(min(m, n) + 1)
                )
                assert total == q ** (m * n)
                for k in range(min(m, n) + 1):
                    assert formulas.count_rank_matrices(m, n, q, k) == \
                        formulas.count_rank_matrices(n, m, q, k)


def test_prob_free_minor():
    assert formulas.prob_free_minor(2, 2, 2, 1) == Fraction(15, 16)
    assert formulas.prob_free_minor(4, 3, 5, 0) == 1
    assert formulas.prob_free_minor(3, 2, 2, 2) == formulas.prob_full_col_rank(3, 2, 2)
    assert formulas.prob_free_minor(3, 2, 2, 2) == Fraction(21, 32)
    # impossible rank returns exact zero rather than raising
    assert formulas.prob_free_minor(2, 2, 2, 3) == 0
    with pytest.raises(BadArgumentsError):
        formulas.prob_free_minor(2, 2, 2, -1)


def test_prob_free_minor_equals_full_col_rank_when_square():
    for q in (2, 3):
        for n in range(4):
            for m in range(n, 5):
                assert formulas.prob_free_minor(m, n, q, n) == \
                    formulas.prob_full_col_rank(m, n, q)


def test_prob_full_col_rank():
    assert formulas.prob_full_col_rank(2, 2, 2) == Fraction(6, 16)
    assert formulas.prob_full_col_rank(5, 0, 3) == 1
    assert formulas.prob_full_col_rank(3, 2, 2) == Fraction(21, 32)
    with pytest.raises(BadArgumentsError):
        formulas.prob_full_col_rank(2, 3, 2)


def test_li_lower_bound():
    assert formulas.li_lower_bound(2, 2, 2) == 0
    assert formulas.li_lower_bound(12, 2, 2) == Fraction(1023, 1024)
    assert formulas.li_lower_bound(3, 2, 2) == Fraction(1, 2)
    for q in (2, 3):
        for m in range(1, 8):
            for n in range(1, m + 1):
                assert formulas.li_lower_bound(m, n, q) < \
                    formulas.prob_full_col_rank(m, n, q)


def test_upper_bound_nonfree():
    assert formulas.upper_bound_nonfree(2, 2, 2) == Fraction(5, 8)
    assert formulas.upper_bound_nonfree(4, 0, 3) == 0
    expected = 1 - (1 - Fraction(1, 2**10)) * (1 - Fraction(1, 2**9)) * (1 - Fraction(1, 2**8))
    assert formulas.upper_bound_nonfree(10, 3, 2) == expected


def test_cq_constant():
    approx, terms, floor_bound = formulas.cq_constant(2, 1e-9)
    assert 0.288788095 < approx < 0.288788096
    assert floor_bound == Fraction(1, 4)
    assert approx > 0.25
    # refined partial product agrees within the requested tolerance
    refined = Fraction(1)
    for k in range(1, 80):
        refined *= 1 - Fraction(1, 2**k)
    assert abs(approx - float(refined)) < 1e-9

    approx16, _, floor16 = formulas.cq_constant(16, 1e-9)
    assert floor16 == 1 - Fraction(1, 16) - Fraction(1, 256)
    assert approx16 > float(Fraction(239, 256))
    for tol in (0.0, float("inf"), float("nan")):
        with pytest.raises(BadArgumentsError):
            formulas.cq_constant(2, tol)


def test_p_smq_oracle_anchored():
    u12 = catalog("U:1,2").stats()
    # oracle: exactly one of the four 1x2 GF(2) matrices represents U_{1,2}
    assert formulas.p_smq(1, 2, u12) == Fraction(1, 4)
    # oracle: 3 of 16 2x2 GF(2) matrices have two equal nonzero columns
    assert formulas.p_smq(2, 2, u12) == Fraction(3, 16)
    loops2 = catalog("U:0,2").stats()
    assert formulas.p_smq(1, 2, loops2) == Fraction(1, 4)
    with pytest.raises(BadArgumentsError):
        formulas.p_smq(0, 2, catalog("U:1,2").stats())  # s < r


def test_p_smq_in_open_interval():
    for q in (2, 3):
        for name in ("U:1,2", "U:1,3", "U:2,3", "U:2,4", "U:0,2", "F7"):
            st = catalog(name).stats()
            for s in range(max(st.r, 1), 5):
                assert 0 < formulas.p_smq(s, q, st) < 1


def test_rep_count_lower_bound():
    assert formulas.rep_count_lower_bound(2, 2, catalog("U:2,3").stats()) == 6
    assert formulas.rep_count_lower_bound(1, 2, catalog("U:1,2").stats()) == 1
    assert formulas.rep_count_lower_bound(3, 5, catalog("U:0,2").stats()) == 1
    with pytest.raises(BadArgumentsError):
        formulas.rep_count_lower_bound(1, 2, catalog("U:2,3").stats())


def test_p_smq_times_qme_equals_repcount():
    for q in (2, 3):
        for n in range(1, 5):
            for k in range(n + 1):
                st = catalog(f"U:{k},{n}").stats()
                for m in range(max(st.r, 1), 4):
                    lhs = formulas.p_smq(m, q, st) * q ** (m * st.e)
                    assert lhs == formulas.rep_count_lower_bound(m, q, st)


def test_lower_bound_block():
    u12 = catalog("U:1,2").stats()
    assert formulas.lower_bound_block(1, 2, 2, u12) == Fraction(1, 4)
    assert formulas.lower_bound_block(1, 4, 2, u12) == Fraction(7, 16)
    with pytest.raises(BadArgumentsError):
        formulas.lower_bound_block(1, 1, 2, u12)


def test_lower_bound_nonfree():
    u12 = catalog("U:1,2").stats()
    rep = formulas.lower_bound_nonfree(2, 4, 2, u12)
    assert rep.value == Fraction(7, 32) and rep.best_k == 1 and rep.to_json()["kind"] == "lower"
    # empty k-range falls back to the block bound, flagged
    rep = formulas.lower_bound_nonfree(1, 2, 2, u12)
    assert rep.note == "k-range empty" and rep.best_k is None
    assert rep.value == Fraction(1, 4)


def test_lower_bound_nonfree_ties_take_smallest_k():
    # recompute all terms independently and check the argmax rule
    for name in ("U:1,2", "U:0,2", "U:2,3"):
        st = catalog(name).stats()
        for q in (2, 3):
            for m in range(st.r, 5):
                for n in range(st.e, 7):
                    kmax = min(n - st.e, m - st.r)
                    if kmax < 1:
                        continue
                    terms = []
                    for k in range(1, kmax + 1):
                        s = m - k
                        p = Fraction(1) if s == 0 else formulas.p_smq(s, q, st)
                        t = (n - k) // st.e
                        terms.append((1 - Fraction(1, q ** (n - k))) * (1 - (1 - p) ** t))
                    best = max(terms)
                    expect_k = 1 + terms.index(best)  # first (smallest) maximizer
                    rep = formulas.lower_bound_nonfree(m, n, q, st)
                    assert rep.value == best and rep.best_k == expect_k


def test_lower_bound_trend_to_one():
    # with m fixed the bound is non-decreasing in n and crosses 0.99 at a
    # finite n*, the finite-n shadow of the probability tending to 1
    st = catalog("U:1,2").stats()
    prev = Fraction(0)
    n_star = None
    for n in range(2, 60):
        value = formulas.lower_bound_nonfree(3, n, 2, st).value
        assert value >= prev, (n, value, prev)
        prev = value
        if n_star is None and value > Fraction(99, 100):
            n_star = n
    assert n_star is not None
    print(f"lower_bound_nonfree(U12, q=2, m=3) exceeds 0.99 from n* = {n_star}")


def test_asymptotic_liminf_bound():
    u12 = catalog("U:1,2").stats()
    assert formulas.asymptotic_liminf_bound(2, u12) == Fraction(3, 16)
    u24 = catalog("U:2,4").stats()
    expected = (1 - Fraction(1, 3**4)) * formulas.p_smq(3, 3, u24)
    assert formulas.asymptotic_liminf_bound(3, u24) == expected
    # one loop: p_0 = 1, as the empty 0 x 1 matrix represents it
    u01 = catalog("U:0,1").stats()
    for q in (2, 3, 4):
        assert formulas.asymptotic_liminf_bound(q, u01) == 1 - Fraction(1, q)
    with pytest.raises(BadArgumentsError):
        formulas.asymptotic_liminf_bound(2, catalog("free:3").stats())


def test_bound_report_json():
    rep = formulas.lower_bound_nonfree(2, 4, 2, catalog("U:1,2").stats())
    d = rep.to_json()
    assert d["kind"] == "lower" and d["num"] == "7" and d["den"] == "32"
    assert d["best_k"] == 1 and isinstance(d["components"], dict)
    assert d["float"] == pytest.approx(7 / 32)


def test_stats_validation():
    with pytest.raises(BadArgumentsError):
        MatroidStats(3, 2, 2)  # more loops than e - r allows


def test_projective_points():
    assert [formulas.projective_points(3, r) for r in range(4)] == [0, 1, 4, 13]
    assert formulas.projective_points(2, 3) == 7  # the Fano plane's points


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_unrepresentable_by_the_point_count(q):
    # PG(1, q) has q + 1 points: U(2, q + 1) fits them, U(2, q + 2) does not
    assert formulas.unrepresentable(q, catalog(f"U:2,{q + 2}"))
    assert not formulas.unrepresentable(q, catalog(f"U:2,{q + 1}"))


def test_unrepresentable_agrees_with_the_census():
    # the exhaustive census of rank-2 representations, at most 6^6 tuples
    for name, q in (("U:2,4", 2), ("U:2,5", 2), ("U:2,5", 3), ("U:2,6", 4)):
        assert formulas.unrepresentable(q, catalog(name))
        assert oracle.count_representations_exact(catalog(name), 2, q) == 0, (name, q)
    for q in (2, 3, 4):
        target = catalog(f"U:2,{q + 1}")
        assert not formulas.unrepresentable(q, target)
        assert oracle.count_representations_exact(target, 2, q) > 0, q
