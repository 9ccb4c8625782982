import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from fqminors import formulas, linalg, minor, sampler, sweep
from fqminors.errors import BadArgumentsError
from fqminors.matroid import catalog
from fqminors.minor import ExcludedMinorReport, excluded_minors, has_excluded_minor_matrix
from fqminors.sampler import SeedSpec, run_trials, sample_matrix
from fqminors.sweep import (bounds_for, m_for, n_values, run_class_sweep, run_minor_sweep,
                            sweep_sizes)


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
    # impossible: U(2, 5)'s five points do not fit PG(1, 3)'s four
    assert bounds_for(catalog("U:2,5"), 3, 4, 8) == (0, 0)


def test_sweep_rows_carry_estimates_and_bounds():
    rows = run_minor_sweep(2, catalog("U:1,2"), (4, 6, 2), "n-minus:2",
                           trials=100, seed=5, budget=10000)
    assert [r.n for r in rows] == [4, 6]
    for r in rows:
        assert r.estimate.trials == 100
        assert r.lower is not None
        assert 0 <= r.estimate.point <= 1


# the stacked GF(2) class chunk against the per-trial class test: shapes
# with every membership, past 64 columns and on empty hosts; a budget of
# 60 units leaves some 8 x 16 and 16 x 24 trials unknown
CLASS_SHAPES = [(8, 16), (16, 24), (3, 66), (0, 4), (4, 0)]
CLASS_BUDGET = 60
GRAPHIC = excluded_minors("graphic")


def _reports(m, n, seed, trials):
    return [has_excluded_minor_matrix(sample_matrix(2, m, n, SeedSpec(seed, i)), GRAPHIC,
                                      CLASS_BUDGET, short_circuit=True)
            for i in range(trials)]


def _memberships(m, n, seed, trials):
    return [minor.membership(report.outcomes.values())
            for report in _reports(m, n, seed, trials)]


def _outcome_tuples(m, n, seed, trials):
    """Each trial's per-target outcomes on the per-trial path, as the
    class chunk counts them."""
    return [tuple(report.outcomes.values()) for report in _reports(m, n, seed, trials)]


def _by_membership(outcome_counts):
    """A class chunk's Counter of outcome tuples as a Counter of
    memberships, as `sampler.mc_any_minor_prob` reads it."""
    out = Counter()
    for outcomes, count in outcome_counts.items():
        out[minor.membership(outcomes)] += count
    return out


def _stack_size(m, n):
    return max(1, sampler._RANK_STACK_ENTRIES // max(1, m * n))


@pytest.mark.parametrize("jobs", [1, 2])
def test_stacked_class_counts_equal_per_trial_membership(monkeypatch, jobs):
    # stacks of at most 1000 entries, so a chunk spans several of them
    monkeypatch.setattr(sampler, "_RANK_STACK_ENTRIES", 1000)
    seen = Counter()
    for m, n in CLASS_SHAPES:
        want = Counter(_outcome_tuples(m, n, 13, 40))
        got = run_trials(sampler.search_chunk, (2, m, n, GRAPHIC, CLASS_BUDGET), 40, 13, jobs)
        assert got == want, (m, n)
        seen.update(_by_membership(want))
    assert set(seen) == {"yes", "no", "unknown"}


def test_stacked_class_chunk_samples_once_per_stack(monkeypatch):
    monkeypatch.setattr(sampler, "_RANK_STACK_ENTRIES", 1000)
    searches = [len(has_excluded_minor_matrix(sample_matrix(2, m, n, SeedSpec(13, i)), GRAPHIC,
                                              CLASS_BUDGET, short_circuit=True).outcomes)
                for m, n in CLASS_SHAPES for i in range(3, 40)]
    calls = Counter()
    for module, name in ((sampler, "sample_matrix"), (minor, "verify_witness_matrix")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, real=real, name=name: calls.update([name]) or real(*a))
    # one search per open host and target
    search_stack = minor.search_stack
    monkeypatch.setattr(minor, "search_stack",
                        lambda *a: calls.update(search=len(a[-1])) or search_stack(*a))
    for m, n in CLASS_SHAPES:
        sampler.search_chunk((2, m, n, GRAPHIC, CLASS_BUDGET), 13, 3, 40)
        stacks = math.ceil(37 / _stack_size(m, n))
        # only the spot check draws a host on its own or checks a witness
        # on the per-trial path, at most once per target
        assert calls.pop("sample_matrix") == stacks, (m, n)
        assert calls.pop("verify_witness_matrix", 0) <= stacks * len(minor.GRAPHIC_EXCLUDED)
    # a host leaves at its first verified witness, as the short circuit does
    assert calls["search"] == sum(searches)


def test_stacked_class_chunk_counts_no_only_on_verified_witness(monkeypatch):
    def dependent(words, chosen, keep):
        return np.zeros(len(words), dtype=bool), np.zeros((0, 0, keep.shape[1]), dtype=np.uint8)

    monkeypatch.setattr(linalg, "gf2_contract", dependent)
    rejected = 0
    for m, n in CLASS_SHAPES:
        # the per-trial path checks its witnesses by `linalg.contract`
        truth = Counter(_memberships(m, n, 13, 40))
        yes = truth["yes"]
        got = sampler.search_chunk((2, m, n, GRAPHIC, CLASS_BUDGET), 13, 0, 40)
        assert _by_membership(got) == Counter(yes=yes, unknown=40 - yes), (m, n)
        # the estimate reads the same tuples: no success, and every trial
        # with a witness, each one rejected, counts as unverified; a trial
        # that ran out of budget with no witness is unknown but not that
        est = sampler.mc_any_minor_prob(2, m, n, GRAPHIC, 40, 13, CLASS_BUDGET)
        assert (est.successes, est.unknowns, est.unverified) == (0, 40 - yes, truth["no"]), (m, n)
        rejected += truth["no"]
    assert rejected


def test_failed_class_spot_check_counts_unknown(monkeypatch):
    # the per-trial path, which decides each stack's first trial again,
    # reports one target, absent: no stacked trial decides only that one,
    # so each first trial counts as unknown, and no other trial moves
    monkeypatch.setattr(sampler, "_RANK_STACK_ENTRIES", 1000)
    monkeypatch.setattr(sampler, "has_excluded_minor_matrix",
                        lambda *a, **kw: ExcludedMinorReport({"U:2,4": "absent"}))
    m, n = 8, 16
    truth = _outcome_tuples(m, n, 13, 40)
    firsts = range(0, 40, _stack_size(m, n))
    assert _by_membership(Counter(truth[t] for t in firsts))["no"]
    want = Counter(("unverified",) if t in firsts else v for t, v in enumerate(truth))
    got = sampler.search_chunk((2, m, n, GRAPHIC, CLASS_BUDGET), 13, 0, 40)
    assert got == want
    assert _by_membership(got)["unknown"] >= len(firsts)


def test_class_spot_check_compares_every_target_outcome(monkeypatch):
    # the stacked search calls U:2,4 unknown in the first host of the one
    # stack, where the per-host search finds it absent (no binary host has
    # U:2,4); an excluded minor found later makes that host non-graphic on
    # both paths, but the two paths disagree, so the trial counts as unknown
    search_group = minor._search_group

    def unknown_u24(o, col_words, r_h, group, target, budget):
        got = search_group(o, col_words, r_h, group, target, budget)
        if (target.ground_size, target.rank) == (4, 2) and 0 in got:
            assert got[0][0] == "absent"
            got[0] = ("unknown", None, got[0][2])
        return got

    def counts():
        rows = run_class_sweep(2, "graphic", (16, 16, 1), "n-minus:8", 40, seed=13,
                               budget=20_000)
        return [(r.estimate.successes, r.estimate.unknowns) for r in rows]

    assert _stack_size(8, 16) >= 40
    assert counts() == [(40, 0)]
    monkeypatch.setattr(minor, "_search_group", unknown_u24)
    assert counts() == [(39, 1)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_unknown_class_rejected_before_any_search(monkeypatch, jobs):
    def no_search(*args, **kw):
        raise AssertionError("a host was searched")

    for module, name in ((sampler, "run_trials"), (minor, "search_stack"), (minor, "search")):
        monkeypatch.setattr(module, name, no_search)
    with pytest.raises(BadArgumentsError, match="unknown minor-closed class 'planar'"):
        run_class_sweep(2, "planar", (8, 16, 8), "n-minus:8", 10, seed=0, jobs=jobs)


def test_per_trial_class_path_ranks_each_host_once(monkeypatch):
    # `has_excluded_minor_matrix` ranks its host once for all five
    # searches; the witness check ranks each contracted minor, whose
    # e_t <= 10 columns set it apart from the 8- and 16-column hosts
    ranked = Counter()
    rank_cols = linalg.TriOps.rank_cols

    def counting(self, cols):
        ranked[len(cols)] += 1
        return rank_cols(self, cols)

    monkeypatch.setattr(linalg.TriOps, "rank_cols", counting)
    rows = run_class_sweep(3, "graphic", (8, 16, 8), "n-minus:8", 20, seed=0)
    trials = sum(r.estimate.trials for r in rows)
    assert trials == 40
    assert ranked[8] + ranked[16] <= trials

    # and encodes its columns once for every search: a GF(4) host carries
    # no columns from the sampler (GF(3) samples do), so each trial's
    # 4 x 8 host is encoded from its entries at most once; a contracted
    # minor has at most 3 rows or another column count
    encoded = Counter()
    cols_of = linalg.GenOps.cols_of

    def counting_cols(self, A):
        if A.packed_cols is None:
            encoded[A.m, A.n] += 1
        return cols_of(self, A)

    monkeypatch.setattr(linalg.GenOps, "cols_of", counting_cols)
    rows = run_class_sweep(4, "graphic", (8, 8, 1), "n-minus:4", 20, seed=0)
    est = sampler.mc_minor_prob(4, 4, 8, catalog("U:2,4"), 20, seed=0)
    assert rows[0].estimate.trials == est.trials == 20
    assert 0 < encoded[4, 8] <= 40
