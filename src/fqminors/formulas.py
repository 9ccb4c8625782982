"""Exact closed forms and bounds for minor containment in random matrices
over GF(q).

Everything is computed with arbitrary-precision integers and exact rationals
(fractions.Fraction); floats appear only when a caller formats output.  The
probability expressions:

* gaussian_binomial(n, k, q): number of k-dim subspaces of F_q^n.
* count_rank_matrices(m, n, q, k): number of m x n matrices of rank k.
* prob_free_minor(m, n, q, r): P{rank >= r} = P{the free matroid on r
  elements is a minor}.
* prob_full_col_rank(m, n, q): P{n uniform columns in dim m independent}
  = prod_{i<n} (1 - q^{i-m}), for m >= n.
* li_lower_bound: the handy weakening 1 - q^{n-m} of the product above.
* upper_bound_nonfree: 1 - prod (no non-free minor unless rank deficient).
* cq_constant: C_q = prod_{k>=1}(1 - q^{-k}) to a requested tolerance,
  with the pentagonal-theorem style floor 1 - 1/q - 1/q^2.
* p_smq / rep_count_lower_bound: per-block representation-count bound for a
  target with stats (|E|, r, loops).
* lower_bound_nonfree: max over contraction depth k of
  (1 - q^-(n-k)) * (1 - (1 - p_{m-k}) ** floor((n-k)/|E|)).
* lower_bound_block: the single-block version (no contraction).
* asymptotic_liminf_bound: (1 - q^-|E|) * p_{|E|-1}.

The target bounds read only a target's stats and presume it has a GF(q)
representation.  `unrepresentable(q, target)` is the one check of that
presumption, by two rules: more parallel classes than PG(r - 1, q) has
points (`projective_points`), or over GF(2) not binary.  Where it holds
the minor is impossible and every bound on the target is 0, which the CLI
and the sweep print in the closed forms' place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import BadArgumentsError, TooLargeError
from .gf import prime_power
from .matroid import Matroid, MatroidStats, is_binary


@dataclass
class BoundReport:
    """A lower bound's value with its provenance (maximizing k, named
    sub-terms)."""

    value: Fraction
    best_k: int | None = None
    components: dict = dc_field(default_factory=dict)
    note: str | None = None

    def to_json(self) -> dict:
        comp = {}
        for key, v in self.components.items():
            if isinstance(v, Fraction):
                comp[key] = {"num": str(v.numerator), "den": str(v.denominator)}
            else:
                comp[key] = v
        out = {
            "kind": "lower",
            "num": str(self.value.numerator),
            "den": str(self.value.denominator),
            "float": float(self.value),
            "best_k": self.best_k,
            "components": comp,
        }
        if self.note:
            out["note"] = self.note
        return out


# the largest q a formula takes: below it the prime-power test is exact and
# takes microseconds
MAX_Q = 2**64


def _check_q(q: int):
    if q < 2:
        raise BadArgumentsError(f"q must be >= 2, got {q}")
    if q > MAX_Q:
        raise BadArgumentsError(f"q must be <= 2^64, got a {q.bit_length()}-bit q")
    if prime_power(q) is None:
        raise BadArgumentsError(f"q={q} is not a prime power")


def projective_points(q: int, r: int) -> int:
    """The number of points of PG(r - 1, q), (q^r - 1)/(q - 1): 0 at r = 0."""
    return (q**r - 1) // (q - 1)


def unrepresentable(q: int, target: Matroid) -> bool:
    """Whether no matrix over GF(q) represents `target`, which is then never
    a minor of one: its parallel classes, distinct points of PG(r - 1, q),
    are too many, or q = 2 and it is not binary (`matroid.is_binary`)."""
    return (len(target.parallel_classes()) > projective_points(q, target.rank)
            or q == 2 and not is_binary(target))


# the most bits a formula's largest power of q may take, so that every value
# `check_size` accepts prints: Python converts ints of up to 4300 digits
# (14284 bits) to text
MAX_BITS = 14000


def check_size(q: int, exponent: int):
    """Check q, then reject a formula whose largest power of q, q^exponent,
    would take more than MAX_BITS bits, before any arithmetic.  Each
    formula's value, numerator and denominator are no larger than that
    power, up to a few bits."""
    _check_q(q)
    bits = exponent * (q - 1).bit_length()
    if bits > MAX_BITS:
        raise TooLargeError(f"q^{exponent} takes {bits} bits, over the {MAX_BITS}-bit bound")


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """[n k]_q = prod_{i<k} (q^{n-i} - 1) / (q^{k-i} - 1), exactly."""
    _check_q(q)
    if not 0 <= k <= n:
        raise BadArgumentsError(f"need 0 <= k <= n, got n={n} k={k}")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def count_rank_matrices(m: int, n: int, q: int, k: int) -> int:
    """Number of m x n matrices over GF(q) with rank exactly k."""
    _check_q(q)
    if k < 0 or k > min(m, n) or m < 0 or n < 0:
        raise BadArgumentsError(f"need 0 <= k <= min(m,n), got m={m} n={n} k={k}")
    lo, hi = min(m, n), max(m, n)
    total = 0
    for i in range(k + 1):
        sign = -1 if (k - i) % 2 else 1
        total += sign * gaussian_binomial(k, i, q) * q ** (hi * i + math.comb(k - i, 2))
    return gaussian_binomial(lo, k, q) * total


def prob_free_minor(m: int, n: int, q: int, r: int) -> Fraction:
    """P{the free matroid on r elements is a minor of M[A]} = P{rank(A) >= r}.

    For r > min(m, n) the minor is impossible and the exact probability 0 is
    returned (rather than raising).
    """
    _check_q(q)
    if r < 0 or m < 0 or n < 0:
        raise BadArgumentsError(f"need nonnegative m, n, r; got m={m} n={n} r={r}")
    if r > min(m, n):
        return Fraction(0)
    hits = sum(count_rank_matrices(m, n, q, k) for k in range(r, min(m, n) + 1))
    return Fraction(hits, q ** (m * n))


def prob_full_col_rank(m: int, n: int, q: int) -> Fraction:
    """P{n uniform columns in F_q^m are linearly independent}, m >= n."""
    _check_q(q)
    if not 0 <= n <= m:
        raise BadArgumentsError(f"need m >= n >= 0, got m={m} n={n}")
    prob = Fraction(1)
    for i in range(n):
        prob *= 1 - Fraction(1, q ** (m - i))
    return prob


def li_lower_bound(m: int, n: int, q: int) -> Fraction:
    """max(0, 1 - q^{n-m}): the cheap lower bound on prob_full_col_rank."""
    _check_q(q)
    if not 0 <= n <= m:
        raise BadArgumentsError(f"need m >= n >= 0, got m={m} n={n}")
    return max(Fraction(0), 1 - Fraction(1, q ** (m - n)))


def upper_bound_nonfree(m: int, n: int, q: int) -> Fraction:
    """For m >= n, no non-free matroid is a minor unless rank is deficient:
    P <= 1 - prod_{i<n}(1 - q^{i-m})."""
    return 1 - prob_full_col_rank(m, n, q)


def cq_constant(q: int, tol: float) -> tuple[float, int, Fraction]:
    """Approximate C_q = prod_{k>=1}(1 - q^{-k}) within tol.

    The tail beyond K multiplies the partial product by something in
    [1 - q^{-K}/(q-1), 1], so truncation stops once q^{-K}/(q-1) < tol.
    Returns (approximation, number of factors used, 1 - 1/q - 1/q^2); the
    approximation is checked against that lower bound.
    """
    _check_q(q)
    if not 0 < tol < math.inf:
        raise BadArgumentsError(f"tolerance must be positive and finite, got {tol}")
    floor_bound = 1 - Fraction(1, q) - Fraction(1, q * q)
    partial = Fraction(1)
    k = 0
    while True:
        k += 1
        partial *= 1 - Fraction(1, q**k)
        if Fraction(1, q**k * (q - 1)) < Fraction(tol):
            break
    if not partial > floor_bound:
        raise AssertionError("partial product fell below 1 - 1/q - 1/q^2")
    return float(partial), k, floor_bound


def p_smq(s: int, q: int, stats: MatroidStats) -> Fraction:
    """Per-block lower bound on P{an s x |E| uniform matrix represents M}:

        C(|E|, l) * (q-1)^{|E|-r-l} / q^{s(|E|-r)} * prod_{i<r}(1 - q^{i-s})

    The value is asserted to lie in (0, 1]; it is exactly 1 when s = 0 or
    |E| = 0, where the empty matrix represents the all-loop target with
    certainty.  Degenerate stats combinations that violate this raise
    rather than silently feeding a vacuous bound downstream.
    """
    _check_q(q)
    if s < stats.r:
        raise BadArgumentsError(f"need s >= r, got s={s} r={stats.r}")
    e, r, l = stats.e, stats.r, stats.l
    value = Fraction(math.comb(e, l) * (q - 1) ** (e - r - l), q ** (s * (e - r)))
    for i in range(r):
        value *= 1 - Fraction(1, q ** (s - i))
    if not 0 < value <= 1:
        raise BadArgumentsError(
            f"p_smq = {value} outside (0,1] for s={s}, q={q}, stats={stats}"
        )
    return value


def rep_count_lower_bound(m: int, q: int, stats: MatroidStats) -> int:
    """At least C(|E|,l) (q-1)^{|E|-r-l} prod_{i=1..r}(q^m - q^{i-1})
    labeled m x |E| representations exist."""
    _check_q(q)
    if m < stats.r:
        raise BadArgumentsError(f"need m >= r, got m={m} r={stats.r}")
    e, r, l = stats.e, stats.r, stats.l
    count = math.comb(e, l) * (q - 1) ** (e - r - l)
    for i in range(1, r + 1):
        count *= q**m - q ** (i - 1)
    return count


def _check_blocks(m: int, n: int, stats: MatroidStats):
    """The lower bounds place disjoint |E|-column blocks in an m x n
    matrix: at least one, and none of them empty."""
    if stats.e == 0:
        raise BadArgumentsError("the lower bounds need a target with |E| >= 1, got |E| = 0")
    if m < stats.r or n < stats.e:
        raise BadArgumentsError(f"need m >= r and n >= |E|, got m={m} n={n} stats={stats}")


def lower_bound_block(m: int, n: int, q: int, stats: MatroidStats) -> Fraction:
    """Single-block bound 1 - (1 - p_{m,q,M})^{floor(n/|E|)}; m >= r, n >= |E|."""
    _check_q(q)
    _check_blocks(m, n, stats)
    p = p_smq(m, q, stats)
    t = n // stats.e
    return 1 - (1 - p) ** t


def lower_bound_nonfree(m: int, n: int, q: int, stats: MatroidStats) -> BoundReport:
    """Maximize (1 - q^-(n-k))(1 - (1 - p_{m-k,q,M})^{floor((n-k)/|E|)}) over
    positive k <= min(n - |E|, m - r); ties break toward the smallest k.

    When the k-range is empty the block bound is returned instead, flagged
    as such (the genuine maximization only ranges over positive k).
    """
    _check_q(q)
    _check_blocks(m, n, stats)
    e = stats.e
    kmax = min(n - e, m - stats.r)
    if kmax < 1:
        value = lower_bound_block(m, n, q, stats)
        return BoundReport(
            value=value,
            best_k=None,
            components={"p_smq": p_smq(m, q, stats), "t": n // e},
            note="k-range empty",
        )
    best = None
    for k in range(1, kmax + 1):
        p = p_smq(m - k, q, stats)
        t = (n - k) // e
        term = (1 - Fraction(1, q ** (n - k))) * (1 - (1 - p) ** t)
        if best is None or term > best[0]:
            best = (term, k, p, t)
    value, k, p, t = best
    return BoundReport(
        value=value,
        best_k=k,
        components={"p_smq": p, "t": t, "k_max": kmax},
    )


def asymptotic_liminf_bound(q: int, stats: MatroidStats) -> Fraction:
    """(1 - q^{-|E|}) * p_{|E|-1,q,M}; needs a non-free target (|E| > r)."""
    _check_q(q)
    if stats.e - 1 < stats.r:
        raise BadArgumentsError("free matroids have no liminf bound of this form")
    return (1 - Fraction(1, q**stats.e)) * p_smq(stats.e - 1, q, stats)
