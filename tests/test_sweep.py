from fractions import Fraction

import pytest

from fqminors import formulas, sampler, sweep
from fqminors.errors import BadArgumentsError
from fqminors.matroid import catalog
from fqminors.sweep import bounds_for, m_for, n_values, run_minor_sweep, sweep_sizes


def test_m_rules():
    assert m_for("constant:4", 10) == 4
    assert m_for("n-minus:3", 10) == 7
    assert m_for("n-plus:3", 10) == 13
    assert m_for("ratio:0.5", 11) == 5
    with pytest.raises(BadArgumentsError):
        m_for("times:2", 10)
    for rule in ("constant:x", "ratio:inf", "ratio:1e400", "ratio:-inf"):
        with pytest.raises(BadArgumentsError):
            m_for(rule, 10)


def test_n_values():
    assert list(n_values(4, 10, 3)) == [4, 7, 10]
    with pytest.raises(BadArgumentsError):
        n_values(5, 4, 1)
    with pytest.raises(BadArgumentsError):
        n_values(4, 10, 0)


def test_negative_m_rejected():
    with pytest.raises(BadArgumentsError):
        run_minor_sweep(2, catalog("U:1,2"), (2, 6, 1), "n-minus:4", 10, 0)


def _walk_sizes(n_range, m_rule):
    """Reference: check the rows in n order and stop at the first bad one."""
    ns = n_values(*n_range)
    for n in ns:
        m = m_for(m_rule, n)
        if m < 0:
            raise BadArgumentsError(f"m_rule {m_rule!r} gives negative m at n={n}")
        sampler.check_shape(m, n)
    return [(n, m_for(m_rule, n)) for n in ns]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BadArgumentsError as e:
        return type(e), str(e)


def test_sweep_sizes_matches_walk(monkeypatch):
    # a small entry cap puts oversized rows inside short ranges
    monkeypatch.setattr(sampler, "MAX_ENTRIES", 300)
    rules = ("constant:0", "constant:3", "constant:-1", "n-minus:3", "n-plus:-3",
             "ratio:0.5", "ratio:1", "ratio:7.3", "ratio:-0", "ratio:-0.5", "ratio:1e300")
    for rule in rules:
        for start in (-4, -1, 0, 2, 9):
            # past 10**12 a ratio times n leaves the float range, and past
            # sys.maxsize len() of the n range overflows
            for stop in (start, start + 5, 40, 1000, 10**12, 10**400):
                for step in (1, 2, 7):
                    n_range = (start, stop, step)
                    assert _outcome(sweep_sizes, n_range, rule) == \
                        _outcome(_walk_sizes, n_range, rule), (n_range, rule)


def test_sweep_sizes_rejects_huge_range_without_walking(monkeypatch):
    calls = []
    for name in ("m_for", "check_shape"):
        real = getattr(sweep, name)
        monkeypatch.setattr(sweep, name, lambda *a, real=real: calls.append(a) or real(*a))
    with pytest.raises(BadArgumentsError,
                       match=rf"^shape 0x{sampler.MAX_ENTRIES + 1} exceeds {sampler.MAX_ENTRIES} "):
        sweep_sizes((4, 10**12, 1), "constant:0")
    assert len(calls) < 200


def test_bounds_for_free_target():
    lower, upper = bounds_for(catalog("free:2"), 2, 3, 4)
    assert lower == upper == formulas.prob_free_minor(3, 4, 2, 2)


def test_bounds_for_nonfree_target():
    u12 = catalog("U:1,2")
    lower, upper = bounds_for(u12, 2, 2, 4)
    assert lower == Fraction(7, 32) and upper is None
    lower, upper = bounds_for(u12, 2, 4, 3)
    assert upper == formulas.upper_bound_nonfree(4, 3, 2)
    # impossible: rank of target exceeds m
    lower, upper = bounds_for(catalog("U:2,3"), 2, 1, 3)
    assert lower == upper == 0


def test_sweep_rows_carry_estimates_and_bounds():
    rows = run_minor_sweep(2, catalog("U:1,2"), (4, 6, 2), "n-minus:2",
                           trials=100, seed=5, budget=10000)
    assert [r.n for r in rows] == [4, 6]
    for r in rows:
        assert r.estimate.trials == 100
        assert r.lower is not None
        assert 0 <= r.estimate.point <= 1
