"""Finite-n sweeps over row-growth regimes m(n).

An m_rule maps n to the number of rows: `constant:c`, `n-minus:d`,
`n-plus:d`, or `ratio:r` (m = floor(r * n)).  Both sweeps give one
`SweepRow` per n, whose `Estimate` comes from
`sampler.mc_any_minor_prob`.  A minor sweep estimates the containment
probability of its one target and attaches whatever exact bounds apply;
a class sweep estimates how often the sampled matroid is confirmed
outside the class (an excluded minor found and verified), with no
bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadArgumentsError, TooLargeError
from .formulas import (check_size, lower_bound_nonfree, prob_free_minor, unrepresentable,
                       upper_bound_nonfree)
from .matroid import Matroid
from .minor import DEFAULT_BUDGET, check_budget, excluded_minors
from .sampler import Estimate, check_shape, mc_any_minor_prob, mc_minor_prob

# work units per target search in a `simulate` or `class --sweep` trial
SWEEP_BUDGET = 20_000


def m_for(rule: str, n: int) -> int:
    kind, _, arg = rule.partition(":")
    try:
        if kind == "constant":
            return int(arg)
        if kind == "n-minus":
            return n - int(arg)
        if kind == "n-plus":
            return n + int(arg)
        if kind == "ratio":
            ratio = float(arg)
            if not math.isfinite(ratio):
                raise ValueError(arg)
            # an n or product past the float range overflows
            return math.floor(ratio * n)
    except (ValueError, OverflowError):
        raise BadArgumentsError(f"bad m_rule argument in {rule!r}") from None
    raise BadArgumentsError(f"unknown m_rule {rule!r}")


def n_values(start: int, stop: int, step: int) -> range:
    if step <= 0 or stop < start:
        raise BadArgumentsError(f"empty n range {start}..{stop} step {step}")
    return range(start, stop + 1, step)


def _size(m_rule: str, n: int) -> tuple[int, int]:
    """(n, m) of one sweep row; raises the row's usage error."""
    m = m_for(m_rule, n)
    if m < 0:
        raise BadArgumentsError(f"m_rule {m_rule!r} gives negative m at n={n}")
    check_shape(m, n)
    return n, m


def _is_bad(m_rule: str, n: int) -> bool:
    try:
        _size(m_rule, n)
    except BadArgumentsError:
        return True
    return False


def sweep_sizes(n_range, m_rule: str) -> list[tuple[int, int]]:
    """The (n, m) pairs of a sweep, all checked before any trial runs; the
    first bad row, in n order, raises its error.

    Past a good first row the bad rows form a suffix, because every rule's
    m is monotone in n: a nondecreasing m stays >= 0 and only the entry
    count (or, far out, the float range of a ratio) can fail, and a
    decreasing one (a negative ratio) is negative at every n > 0.  So the
    first bad row is found by bisection, and a huge n range is rejected
    without walking it."""
    ns = n_values(*n_range)
    _size(m_rule, ns[0])
    # len(ns), which len() cannot give past sys.maxsize
    count = (ns.stop - ns.start + ns.step - 1) // ns.step
    lo, hi = 1, count
    while lo < hi:
        mid = (lo + hi) // 2
        if _is_bad(m_rule, ns[mid]):
            hi = mid
        else:
            lo = mid + 1
    if lo < count:
        _size(m_rule, ns[lo])
    return [_size(m_rule, n) for n in ns]


@dataclass(frozen=True)
class SweepRow:
    n: int
    m: int
    estimate: Estimate
    lower: Fraction | None = None
    upper: Fraction | None = None


def bounds_for(target: Matroid, q: int, m: int, n: int):
    """(lower, upper) exact bounds applicable at this size, None when not.
    A size past the bound `formula` applies to them, `check_size(q, m·n)`,
    gets neither, before any arithmetic: they would not print.  A target
    of rank above m, or one `unrepresentable` over GF(q), is never a
    minor: both bounds are 0."""
    try:
        check_size(q, m * n)
    except TooLargeError:
        return None, None
    st = target.stats()
    if m < st.r:
        return Fraction(0), Fraction(0)  # the minor is impossible outright
    if target.is_free():
        exact = prob_free_minor(m, n, q, st.r)
        return exact, exact
    if unrepresentable(q, target):
        return Fraction(0), Fraction(0)
    lower = None
    upper = None
    if n >= st.e:
        lower = lower_bound_nonfree(m, n, q, st).value
    if m >= n:
        upper = upper_bound_nonfree(m, n, q)
    return lower, upper


def run_minor_sweep(q: int, target: Matroid, n_range, m_rule: str, trials: int,
                    seed: int, budget: int | None = DEFAULT_BUDGET,
                    jobs: int = 1) -> list[SweepRow]:
    rows = []
    for n, m in sweep_sizes(n_range, m_rule):
        est = mc_minor_prob(q, m, n, target, trials, seed, budget, jobs)
        lower, upper = bounds_for(target, q, m, n)
        rows.append(SweepRow(n, m, est, lower, upper))
    return rows


def minor_rows_to_csv(rows: list[SweepRow]) -> str:
    out = ["n,m,trials,point,ci_lo,ci_hi,lower_bound,upper_bound"]
    for r in rows:
        e = r.estimate
        lower = "" if r.lower is None else f"{float(r.lower):.12g}"
        upper = "" if r.upper is None else f"{float(r.upper):.12g}"
        out.append(
            f"{r.n},{r.m},{e.trials},{e.point:.12g},"
            f"{e.wilson_lo:.12g},{e.wilson_hi:.12g},{lower},{upper}"
        )
    return "\n".join(out) + "\n"


def run_class_sweep(q: int, class_name: str, n_range, m_rule: str, trials: int,
                    seed: int, budget: int | None = SWEEP_BUDGET,
                    jobs: int = 1) -> list[SweepRow]:
    check_budget(budget)
    # an unknown class fails before any trial
    targets = excluded_minors(class_name)
    return [SweepRow(n, m, mc_any_minor_prob(q, m, n, targets, trials, seed, budget, jobs))
            for n, m in sweep_sizes(n_range, m_rule)]


def class_rows_to_csv(rows: list[SweepRow]) -> str:
    out = ["n,m,trials,nongraphic_found,unknown,frequency"]
    for r in rows:
        e = r.estimate
        out.append(f"{r.n},{r.m},{e.trials},{e.successes},{e.unknowns},{e.point:.12g}")
    return "\n".join(out) + "\n"
