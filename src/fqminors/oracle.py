"""Brute-force exact probabilities over all q^(m*n) matrices at tiny sizes.

This is the ground truth the formula and bound modules are validated
against.  Every count is exact over all q^(m*n) matrices, but a matrix is
visited only up to column order and nonzero column scaling: rank, the column
matroid and its minors are invariant under both.  A column is reduced to its
projective class (the zero column, or the code whose lowest-row nonzero digit
is 1), and each class combination stands for the number of matrices it
represents.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, sampler
from .errors import BadArgumentsError, TooLargeError
from .gf import field
from .matrix import FqMatrix
from .matroid import Matroid, from_matrix
from .minor import find_minor, verify_witness

DEFAULT_CAP = 2**24


@dataclass(frozen=True)
class OracleResult:
    total: int
    hits: int
    exact: Fraction

    def to_json(self) -> dict:
        return {
            "total": str(self.total),
            "hits": str(self.hits),
            "exact": {"num": str(self.exact.numerator), "den": str(self.exact.denominator)},
        }


def _check_cap(q: int, cells: int):
    # q >= 2, so past cells = DEFAULT_CAP.bit_length() the power is over the
    # cap without being formed
    if cells > DEFAULT_CAP.bit_length() or q**cells > DEFAULT_CAP:
        raise TooLargeError(f"q^{cells} matrices exceed the cap {DEFAULT_CAP}")


def _column_classes(q: int, m: int) -> list[int]:
    """The zero column, then one code per projective point of GF(q)^m: the
    code whose lowest-row nonzero digit is 1.  Scaling a nonzero column by
    each of the q - 1 nonzero scalars hits its class code exactly once."""
    return [0] + [q**i + q ** (i + 1) * k for i in range(m) for k in range(q ** (m - 1 - i))]


def _column_multisets(q: int, m: int, n: int):
    """Yield (codes, weight) once per multiset of n column classes, where
    weight = n!/prod(mult!) * (q-1)^(nonzero columns) is the number of
    m x n matrices whose columns reduce to that multiset."""
    n_fact = math.factorial(n)
    total = 0
    for codes in itertools.combinations_with_replacement(_column_classes(q, m), n):
        weight = n_fact * (q - 1) ** (n - codes.count(0))
        for code in set(codes):
            weight //= math.factorial(codes.count(code))
        total += weight
        yield codes, weight
    if total != q ** (m * n):
        raise RuntimeError(f"multiset weights sum to {total}, not q^(mn) = {q ** (m * n)}")


def _classes(q: int, m: int):
    """(backend, digits, columns) for m-row columns over GF(q): each column
    class's code maps to its base-q digits, row i = digit i (least
    significant first), and to the column the backend builds from them."""
    o = linalg.ops_for(field(q), m)
    digits = {c: tuple(c // q**i % q for i in range(m)) for c in _column_classes(q, m)}
    return o, digits, {c: o.encode(d) for c, d in digits.items()}


_rank_hist_cache: dict = {}


def rank_histogram(q: int, m: int, n: int) -> tuple[int, ...]:
    """counts[k] = number of m x n matrices over GF(q) with rank k."""
    key = (q, m, n)
    if key in _rank_hist_cache:
        return _rank_hist_cache[key]
    _check_cap(q, m * n)
    o, _, col = _classes(q, m)
    counts = [0] * (min(m, n) + 1)
    for codes, weight in _column_multisets(q, m, n):
        counts[o.rank_cols([col[c] for c in codes])] += weight
    result = tuple(counts)
    _rank_hist_cache[key] = result
    return result


def exact_event_prob(q: int, m: int, n: int, event: str) -> OracleResult:
    """Exact probability of a named rank event (see sampler.parse_event)."""
    pred = sampler.parse_event(event)
    counts = rank_histogram(q, m, n)
    hits = sum(c for r, c in enumerate(counts) if pred(r, m, n))
    total = q ** (m * n)
    return OracleResult(total, hits, Fraction(hits, total))


def exact_minor_prob(q: int, m: int, n: int, target: Matroid) -> OracleResult:
    """Exact P{target is a minor of M[A]} by exhausting all matrices.

    Many column multisets give the same labelled host matroid, so each
    distinct host is decided once per call, by the unbudgeted all-(C, D)
    reference `find_minor`, and its witness is re-verified; a verification
    failure would be a soundness bug and raises immediately.
    """
    _check_cap(q, m * n)
    f = field(q)
    _, digits, col = _classes(q, m)
    has_minor: dict[Matroid, bool] = {}
    hits = 0
    for codes, weight in _column_multisets(q, m, n):
        ds = [digits[c] for c in codes]
        entries = tuple([d[i] for i in range(m) for d in ds])
        host = from_matrix(FqMatrix.with_packed(f, m, n, entries, tuple([col[c] for c in codes])))
        hit = has_minor.get(host)
        if hit is None:
            w = find_minor(host, target, budget=None)
            if w is not None and not verify_witness(host, target, w):
                raise RuntimeError(f"unsound witness for codes {codes}")
            hit = has_minor[host] = w is not None
        if hit:
            hits += weight
    total = q ** (m * n)
    return OracleResult(total, hits, Fraction(hits, total))


_census_cache: dict = {}


def _representation_census(q: int, m: int, e: int) -> dict:
    """Counter mapping basis family -> number of m x e matrices having it.

    Columns are labelled here, so every tuple of column classes is visited,
    standing for the (q-1)^(nonzero columns) matrices that scale to it."""
    key = (q, m, e)
    if key in _census_cache:
        return _census_cache[key]
    _check_cap(q, m * e)
    o, _, col = _classes(q, m)
    indep_memo: dict = {}

    def independent(codes) -> bool:
        got = indep_memo.get(codes)
        if got is None:
            got = o.rank_cols([col[c] for c in codes]) == len(codes)
            indep_memo[codes] = got
        return got

    census: Counter = Counter()
    positions = list(range(e))
    for codes in itertools.product(_column_classes(q, m), repeat=e):
        bases = None
        for size in range(min(m, e), -1, -1):
            found = []
            for combo in itertools.combinations(positions, size):
                sub = tuple(sorted(codes[j] for j in combo))
                if independent(sub):
                    mask = 0
                    for j in combo:
                        mask |= 1 << j
                    found.append(mask)
            if found:
                bases = frozenset(found)
                break
        census[bases] += (q - 1) ** (e - codes.count(0))
    _census_cache[key] = census
    return census


def count_representations_exact(M: Matroid, m: int, q: int) -> int:
    """|{A in F_q^{m x |E|} : M[A] = M with the identity labeling}|."""
    census = _representation_census(q, m, M.ground_size)
    return census.get(M.bases, 0)


@dataclass(frozen=True)
class DistributionReport:
    procedure: str
    ok: bool
    details: dict


def distribution_check(procedure: str, q: int, m: int, n: int, k: int = 0) -> DistributionReport:
    """Exhaustively verify the distribution facts behind the reduction.

    change-of-basis: A -> PA is a bijection on F_q^{m x n} for every
    invertible P (hence uniform-preserving).

    reduce-conditional: over all A where reduce(A, k) succeeds, each matrix
    of the reduced shape occurs equally often, and the success fraction
    beats 1 - q^(k - max(m, n)).
    """
    f = field(q)
    if procedure == "change-of-basis":
        _check_cap(q, m * n)
        _check_cap(q, m * m)
        all_a = [
            FqMatrix(f, m, n, entries)
            for entries in itertools.product(range(q), repeat=m * n)
        ]
        invertible = 0
        for p_entries in itertools.product(range(q), repeat=m * m):
            P = FqMatrix(f, m, m, p_entries)
            if linalg.fast_rank(P) != m:
                continue
            invertible += 1
            images = {P.matmul(A).entries for A in all_a}
            if len(images) != len(all_a):
                return DistributionReport(procedure, False, {"bad_p": p_entries})
        return DistributionReport(
            procedure, True, {"invertible": invertible, "matrices": len(all_a)}
        )
    if procedure == "reduce-conditional":
        _check_cap(q, m * n)
        outputs: Counter = Counter()
        successes = 0
        total = q ** (m * n)
        for entries in itertools.product(range(q), repeat=m * n):
            B = sampler.reduce(FqMatrix(f, m, n, entries), k)
            if B is not None:
                successes += 1
                outputs[B.entries] += 1
        want = q ** ((m - k) * (n - k))
        uniform = len(outputs) == want and len(set(outputs.values())) <= 1
        floor = 1 - Fraction(1, q ** (max(m, n) - k))
        frac = Fraction(successes, total)
        return DistributionReport(
            procedure,
            uniform and frac > floor,
            {
                "successes": successes,
                "total": total,
                "distinct_outputs": len(outputs),
                "expected_outputs": want,
                "uniform": uniform,
                "success_fraction": frac,
                "success_floor": floor,
            },
        )
    raise BadArgumentsError(f"unknown procedure {procedure!r}")
