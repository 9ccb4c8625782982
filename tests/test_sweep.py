from fractions import Fraction

import pytest

from fqminors import formulas
from fqminors.errors import BadParametersError
from fqminors.matroid import catalog
from fqminors.sweep import bounds_for, m_for, n_values, run_minor_sweep


def test_m_rules():
    assert m_for("constant:4", 10) == 4
    assert m_for("n-minus:3", 10) == 7
    assert m_for("n-plus:3", 10) == 13
    assert m_for("ratio:0.5", 11) == 5
    with pytest.raises(BadParametersError):
        m_for("times:2", 10)
    for rule in ("constant:x", "ratio:inf", "ratio:1e400", "ratio:-inf"):
        with pytest.raises(BadParametersError):
            m_for(rule, 10)


def test_n_values():
    assert list(n_values(4, 10, 3)) == [4, 7, 10]
    with pytest.raises(BadParametersError):
        n_values(5, 4, 1)
    with pytest.raises(BadParametersError):
        n_values(4, 10, 0)


def test_negative_m_rejected():
    with pytest.raises(BadParametersError):
        run_minor_sweep(2, catalog("U:1,2"), (2, 6, 1), "n-minus:4", 10, 0)


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
