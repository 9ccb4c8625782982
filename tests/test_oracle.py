import itertools
from fractions import Fraction

import pytest

from fqminors import formulas, linalg, oracle
from fqminors.errors import TooLargeError
from fqminors.gf import field
from fqminors.matrix import FqMatrix
from fqminors.matroid import Matroid, catalog, from_matrix
from fqminors.minor import find_minor

# tiny shapes small enough to enumerate matrix by matrix
TINY_SHAPES = ((2, 2, 3), (2, 3, 2), (2, 2, 4), (3, 2, 2), (3, 2, 3), (3, 3, 2),
               (4, 2, 2), (4, 1, 3))
# element 0 a coloop, element 1 a loop
LOOP_AND_COLOOP = Matroid(2, (0b01,))


def _all_matrices(q, m, n):
    f = field(q)
    return [FqMatrix(f, m, n, e) for e in itertools.product(range(q), repeat=m * n)]


def test_exact_event_examples():
    # 2 x 2 over GF(2): 1 zero matrix, 9 of rank 1, 6 invertible
    assert oracle.rank_histogram(2, 2, 2) == (1, 9, 6)
    assert oracle.rank_histogram(3, 2, 2)[0] == 1


def test_exact_event_matches_formulas():
    for q in (2, 3):
        for m in range(1, 4):
            for n in range(1, 4):
                hist = oracle.rank_histogram(q, m, n)
                assert hist == tuple(formulas.count_rank_matrices(m, n, q, k)
                                     for k in range(min(m, n) + 1))
                if m >= n:
                    got = Fraction(hist[n], q ** (m * n))
                    assert got == formulas.prob_full_col_rank(m, n, q)


def test_exact_minor_examples():
    assert oracle.exact_minor_prob(2, 1, 1, catalog("free:1")).exact == Fraction(1, 2)
    # free:2 needs rank >= 2 (6 of 16 matrices); 15/16 is the rank >= 1
    # probability, i.e. the free:1 target at n = 2; both checked
    assert oracle.exact_minor_prob(2, 2, 2, catalog("free:2")).exact == Fraction(6, 16)
    assert oracle.exact_minor_prob(2, 2, 2, catalog("free:1")).exact == Fraction(15, 16)
    res = oracle.exact_minor_prob(2, 2, 4, catalog("U:1,2"))
    assert res.exact >= Fraction(7, 32)


def test_exact_minor_prob_matches_prob_free_minor():
    for q in (2, 3):
        for (m, n) in ((2, 2), (2, 3), (3, 2)):
            for r in range(min(m, n) + 1):
                got = oracle.exact_minor_prob(q, m, n, catalog(f"free:{r}"))
                assert got.exact == formulas.prob_free_minor(m, n, q, r)


@pytest.mark.parametrize("q,m,n", TINY_SHAPES)
def test_oracle_matches_plain_enumeration(q, m, n):
    matrices = _all_matrices(q, m, n)
    counts = [0] * (min(m, n) + 1)
    for A in matrices:
        counts[linalg.fast_rank(A)] += 1
    assert oracle.rank_histogram(q, m, n) == tuple(counts)
    hosts = [from_matrix(A) for A in matrices]
    for target in (catalog("U:1,2"), catalog("U:2,3"), catalog("U:0,2"), LOOP_AND_COLOOP):
        hits = sum(find_minor(host, target, budget=None) is not None for host in hosts)
        res = oracle.exact_minor_prob(q, m, n, target)
        assert (res.total, res.hits) == (len(matrices), hits)


@pytest.mark.parametrize("q,m,name", ((4, 2, "U:2,3"), (4, 1, "U:1,3"), (3, 2, "U:2,4"),
                                      (2, 2, "LOOP_AND_COLOOP")))
def test_count_representations_matches_plain_enumeration(q, m, name):
    M = LOOP_AND_COLOOP if name == "LOOP_AND_COLOOP" else catalog(name)
    want = sum(from_matrix(A).bases == M.bases
               for A in _all_matrices(q, m, M.ground_size))
    assert oracle.count_representations_exact(M, m, q) == want


def test_oracle_closed_forms_beyond_plain_enumeration():
    # 4^12 = 2^24 matrices: exactly the default cap
    hist = oracle.rank_histogram(4, 3, 4)
    assert hist == tuple(formulas.count_rank_matrices(3, 4, 4, k) for k in range(4))
    for q, m, n in ((4, 3, 3), (5, 2, 3)):
        for r in range(min(m, n) + 1):
            got = oracle.exact_minor_prob(q, m, n, catalog(f"free:{r}"))
            assert got.total == q ** (m * n)
            assert got.exact == formulas.prob_free_minor(m, n, q, r)


def test_count_representations():
    assert oracle.count_representations_exact(catalog("U:2,3"), 2, 2) == 6
    assert oracle.count_representations_exact(catalog("U:1,2"), 1, 2) == 1
    assert oracle.count_representations_exact(catalog("free:2"), 2, 2) == 6
    # zero when no representation exists at all: U_{2,4} over GF(2)
    assert oracle.count_representations_exact(catalog("U:2,4"), 3, 2) == 0


def test_distribution_check_examples():
    ok, details = oracle.basis_change_bijective(2, 2, 1)
    assert ok and details["invertible"] == 6
    ok, details = oracle.reduce_conditional_uniform(2, 2, 2, 1)
    assert ok and details["uniform"]
    ok, details = oracle.reduce_conditional_uniform(2, 3, 2, 1)
    assert ok and details["distinct_outputs"] == 4


@pytest.mark.parametrize("q,m,n,k", [
    (2, 3, 3, 2), (2, 4, 3, 2), (2, 3, 4, 2), (2, 2, 4, 1), (2, 4, 2, 1),
    (3, 2, 2, 1), (3, 2, 3, 1), (3, 3, 2, 1), (3, 2, 3, 2),
])
def test_reduce_conditional_uniform(q, m, n, k):
    # reduce's output is exactly uniform over its shape, given success,
    # on both sides of m = n and with two contracted columns
    ok, details = oracle.reduce_conditional_uniform(q, m, n, k)
    assert ok and details["uniform"], details


def test_too_large_cap():
    with pytest.raises(TooLargeError):
        oracle.rank_histogram(2, 5, 5)
    with pytest.raises(TooLargeError):
        oracle.exact_minor_prob(3, 4, 4, catalog("U:1,2"))
    with pytest.raises(TooLargeError):
        oracle.count_representations_exact(catalog("U:2,4"), 13, 2)
    # powers past Python's 4300-digit int-to-str limit: the cap is decided
    # without forming them
    with pytest.raises(TooLargeError):
        oracle.rank_histogram(2, 150, 150)
    with pytest.raises(TooLargeError):
        oracle.exact_minor_prob(3, 100, 100, catalog("U:1,2"))
    with pytest.raises(TooLargeError):
        oracle.count_representations_exact(catalog("U:1,2"), 9000, 2)
