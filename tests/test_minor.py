import gc
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import from_rows
from fqminors import linalg, minor
from fqminors.errors import BadArgumentsError, BudgetExceededError
from fqminors.gf import field
from fqminors.matrix import FqMatrix
from fqminors.matroid import Matroid, catalog, from_matrix, is_isomorphic, uniform
from fqminors.minor import (
    MinorWitness,
    _mask_of,
    decide,
    excluded_minors,
    find_minor,
    find_minor_matrix,
    has_excluded_minor_matrix,
    membership,
    verify_witness,
    verify_witness_matrix,
    verify_witness_stack,
)
from fqminors.oracle import exact_minor_prob
from fqminors.sampler import SeedSpec, sample_matrix

F2 = field(2)
F3 = field(3)


def fano_matrix():
    entries = []
    for i in range(3):
        for c in range(1, 8):
            entries.append((c >> i) & 1)
    return FqMatrix(F2, 3, 7, tuple(entries))


def test_find_minor_examples():
    u24, u23 = catalog("U:2,4"), catalog("U:2,3")
    w = find_minor(u24, u23)
    assert w is not None and not w.contract and len(w.delete) == 1
    assert verify_witness(u24, u23, w)

    assert find_minor(catalog("free:5"), catalog("U:1,2")) is None

    host = from_matrix(fano_matrix())
    w = find_minor(host, catalog("F7"))
    assert w is not None and not w.contract and not w.delete
    assert verify_witness(host, catalog("F7"), w)


def test_verify_witness_rejects_corruption():
    u24, u23 = catalog("U:2,4"), catalog("U:2,3")
    w = find_minor(u24, u23)
    assert verify_witness(u24, u23, w)
    # non-independent contraction set
    bad = MinorWitness(frozenset({0, 1, 2}), frozenset(), (3,))
    assert not verify_witness(u24, catalog("U:1,1"), bad)
    # wrong bijection shape
    survivors = tuple(sorted(set(range(4)) - w.delete))
    assert not verify_witness(u24, u23, MinorWitness(w.contract, w.delete, survivors[:2]))
    # a bijection that is a permutation but onto the wrong elements
    other = tuple(x for x in range(4) if x not in survivors) + survivors[:2]
    assert not verify_witness(u24, u23, MinorWitness(w.contract, w.delete, other))
    # elements outside 0..3: negative in C, negative in D, and equal to n
    for c, d in ((w.contract | {-1}, w.delete), (w.contract, w.delete | {-1}),
                 (w.contract, w.delete | {4})):
        assert not verify_witness(u24, u23, MinorWitness(c, d, w.bijection))


def test_verify_witness_matrix_rejects_corruption():
    A, u23 = fano_matrix(), catalog("U:2,3")
    w = find_minor_matrix(A, u23)
    assert w is not None and verify_witness_matrix(A, u23, w)
    survivors = tuple(sorted(set(range(7)) - w.contract - w.delete))
    dropped = min(w.delete)
    cases = [
        # overlapping contract and delete sets
        MinorWitness(w.contract | {dropped}, w.delete, w.bijection),
        # an index past the last column, in D and in C
        MinorWitness(w.contract, w.delete | {7}, w.bijection),
        MinorWitness(w.contract | {7}, w.delete, w.bijection),
        # a negative index, in C and in D
        MinorWitness(w.contract | {-1}, w.delete, w.bijection),
        MinorWitness(w.contract, w.delete | {-1}, w.bijection),
        # a bijection onto a deleted element instead of a survivor
        MinorWitness(w.contract, w.delete, (dropped,) + survivors[1:]),
        # a bijection onto a contracted element
        MinorWitness(w.contract, w.delete, (min(w.contract),) + w.bijection[1:]),
        # a short bijection, a long one, and one repeating an element
        MinorWitness(w.contract, w.delete, w.bijection[:2]),
        MinorWitness(w.contract, w.delete - {dropped}, w.bijection + (dropped,)),
        MinorWitness(w.contract, w.delete, w.bijection[:1] * 2 + w.bijection[2:]),
    ]
    # one table for all three verifiers: the lone ones here, the reference's
    # on the host's column matroid, and the stacked one at the end
    M = from_matrix(A)
    for bad in cases:
        assert not verify_witness_matrix(A, u23, bad)
        assert not verify_witness(M, u23, bad)
    # the witness is for U:2,3, not for another 3-element matroid
    assert not verify_witness_matrix(A, catalog("U:1,3"), w)
    assert not verify_witness(M, catalog("U:1,3"), w)
    assert verify_witness(M, u23, w)
    # the e_t = 0 witness: U:0,0 on a 0 x 0 host
    empty, none = FqMatrix(F2, 0, 0, ()), MinorWitness(frozenset(), frozenset(), ())
    assert verify_witness_matrix(empty, catalog("U:0,0"), none)
    assert verify_witness(from_matrix(empty), catalog("U:0,0"), none)
    # columns 0, 1, 2 are 001, 010, 011: contracting 0 and 1 leaves 2 a loop
    # and 3..6 one parallel class, but 0, 1, 2 together are dependent
    u14 = catalog("U:1,4")
    good = MinorWitness(frozenset({0, 1}), frozenset({2}), (3, 4, 5, 6))
    assert verify_witness_matrix(A, u14, good) and verify_witness(M, u14, good)
    dependent = MinorWitness(frozenset({0, 1, 2}), frozenset(), (3, 4, 5, 6))
    assert not verify_witness_matrix(A, u14, dependent)
    assert not verify_witness(M, u14, dependent)
    # four contracted columns in a 3-row host, the first three (001, 010,
    # 100) already a basis: a change of basis that stops after m pivots
    # would leave a -1-row minor
    oversize = MinorWitness(frozenset({0, 1, 3, 4}), frozenset(), (2, 5, 6))
    assert not verify_witness_matrix(A, u23, oversize)
    assert not verify_witness(M, u23, oversize)
    # the stacked verifier gives the lone one's verdict on every case above
    stacked = [(A, u23, bad) for bad in cases] + [
        (A, u23, w), (A, catalog("U:1,3"), w), (A, u14, good), (A, u14, dependent),
        (A, u23, oversize), (empty, catalog("U:0,0"), none)]
    assert _stack_agrees(stacked) == [False] * len(cases) + [True, False, True, False, False, True]


def test_decide_classifies_every_outcome(monkeypatch):
    A, f7 = fano_matrix(), catalog("F7")
    assert decide(A, catalog("U:2,4"), None) == ("absent", None, 0)
    outcome, w, spent = decide(A, f7, None)
    assert outcome == "found" and verify_witness_matrix(A, f7, w) and spent > 0
    monkeypatch.setattr(minor, "verify_witness_matrix", lambda host, target, w: False)
    assert decide(A, f7, None) == ("unverified", w, spent)

    def exhausted(host, target, budget, r_h=None):
        budget.tick(9)

    # a charge that runs out reports budget + 1, however large it was
    monkeypatch.setattr(minor, "find_minor_matrix", exhausted)
    assert decide(A, f7, 5) == ("unknown", None, 6)


def test_searches_leave_no_reference_cycles():
    # each call frees what it builds by reference counting, so none leaves
    # garbage for the cyclic collector (a recursive closure would)
    host = sample_matrix(2, 12, 20, SeedSpec(7, 0))
    f7, u12 = catalog("F7"), catalog("U:1,2")
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            assert is_isomorphic(f7, f7) is not None
            w = find_minor_matrix(host, u12)
            assert verify_witness_matrix(host, u12, w)
            from_matrix(fano_matrix())
        exact_minor_prob(2, 2, 3, u12)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ("free:20", "U:19,20"))
def test_large_target_setup_stays_small(name):
    # a 20-element target has up to 2^20 independent sets; the search's
    # setup reads the target's parallel classes from its bases alone, so
    # this miss on a singular 20 x 20 host never builds a set of that size
    tracemalloc.start()
    try:
        got = decide(sample_matrix(2, 20, 20, SeedSpec(0, 0)), catalog(name), 20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got[:2] == ("absent", None)
    assert peak < 8 * 2**20


def _forbid_parallel_class_scan(monkeypatch):
    def no_scan(self):
        raise AssertionError("parallel classes scanned")

    monkeypatch.setattr(Matroid, "parallel_classes", no_scan)


def test_size_checks_rule_out_before_the_parallel_class_scan(monkeypatch):
    # U:10,20 has 184756 bases; e_t - r_t > n - r_h on a singular 20 x 20
    # host decides this miss before the scan over them
    target = catalog("U:10,20")
    _forbid_parallel_class_scan(monkeypatch)
    assert decide(sample_matrix(2, 20, 20, SeedSpec(0, 0)), target, 20000) == ("absent", None, 0)


def test_wrong_bijection_breaks_loopy_target():
    # with a loop in the target the bijection matters: swapping the loop
    # with a non-loop must fail verification
    host = from_matrix(from_rows(F2, [[1, 0, 1, 0], [0, 1, 1, 0]]))
    target = from_matrix(from_rows(F2, [[1, 0, 0], [0, 1, 0]]))
    w = find_minor(host, target)
    assert w is not None and verify_witness(host, target, w)
    b = list(w.bijection)
    b[0], b[2] = b[2], b[0]  # target loop is element 2
    assert not verify_witness(host, target, MinorWitness(w.contract, w.delete, tuple(b)))


def test_budget_exceeded_is_distinct_from_absent():
    # U:2,4 is absent from every binary host, but two units cannot show it
    rng = random.Random(3)
    host = from_matrix(FqMatrix(F2, 3, 7, tuple(rng.randrange(2) for _ in range(21))))
    with pytest.raises(BudgetExceededError):
        find_minor(host, catalog("U:2,4"), budget=2)


def test_find_minor_agrees_with_brute_force_seeded():
    # the matrix searcher against the all-(C, D) reference find_minor
    rng = random.Random(12345)
    targets = [catalog(s) for s in ("U:1,2", "U:0,2", "U:2,3", "U:1,3", "U:2,4")]
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(1, 6)
        A = FqMatrix(F2, m, n, tuple(rng.randrange(2) for _ in range(m * n)))
        target = rng.choice(targets)
        w = find_minor_matrix(A, target)
        assert (w is not None) == (find_minor(from_matrix(A), target, budget=None) is not None)
        if w is not None:
            assert verify_witness_matrix(A, target, w)


def test_find_minor_charges_one_unit_per_pair():
    # U:2,4 is never a minor of a binary host, so every one of the
    # C(5, 4) * 2^1 = 10 pairs (C, D) is tried
    A = FqMatrix(F2, 3, 5, (1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1))
    host, u24 = from_matrix(A), catalog("U:2,4")
    pairs = math.comb(5, 4) * 2 ** (5 - 4)
    assert find_minor(host, u24, budget=pairs) is None
    with pytest.raises(BudgetExceededError):
        find_minor(host, u24, budget=pairs - 1)


def test_find_minor_witnesses_contract_independent_sets():
    # dependent contraction sets are enumerated too, but the first pair that
    # gives the target always has an independent C
    targets = [catalog(s) for s in ("U:1,2", "U:0,2", "U:1,3", "U:2,3")]
    found = 0
    for entries in itertools.product(range(2), repeat=8):
        host = from_matrix(FqMatrix(F2, 2, 4, entries))
        for t in targets:
            w = find_minor(host, t, budget=None)
            if w is not None:
                found += 1
                assert host.is_independent(_mask_of(w.contract))
                assert verify_witness(host, t, w)
    assert found


def test_minor_of_minor_is_minor():
    # U:1,2 <= U:2,4 <= U:3,6, so the composite relation must be found
    u36 = catalog("U:3,6")
    assert find_minor(u36, catalog("U:2,4")) is not None
    assert find_minor(u36, catalog("U:1,2")) is not None


def test_matrix_search_agrees_with_brute_force_exhaustive():
    loopy = from_matrix(from_rows(F2, [[1, 0, 1, 0], [0, 1, 1, 0]]))
    targets = [catalog(s) for s in ("U:1,2", "U:1,3", "U:2,3", "U:0,2", "free:2")]
    targets.append(loopy)
    for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for entries in itertools.product(range(2), repeat=m * n):
            A = FqMatrix(F2, m, n, entries)
            host = from_matrix(A)
            for t in targets:
                wa = find_minor(host, t, budget=None)
                wm = find_minor_matrix(A, t, budget=None)
                assert (wa is None) == (wm is None)
                if wm is not None:
                    assert verify_witness_matrix(A, t, wm)


def test_matrix_search_agrees_with_brute_force_exhaustive_gf3():
    targets = [catalog(s) for s in ("U:1,2", "U:2,3", "U:2,4", "U:0,2")]
    for entries in itertools.product(range(3), repeat=6):
        A = FqMatrix(F3, 2, 3, entries)
        host = from_matrix(A)
        for t in targets:
            wa = find_minor(host, t, budget=None)
            wm = find_minor_matrix(A, t, budget=None)
            assert (wa is None) == (wm is None)
            if wm is not None:
                assert verify_witness_matrix(A, t, wm)


def test_matrix_search_agrees_with_brute_force_gf3():
    rng = random.Random(99)
    targets = [catalog(s) for s in ("U:1,2", "U:2,3", "U:2,4", "U:0,2")]
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(2, 5)
        A = FqMatrix(F3, m, n, tuple(rng.randrange(3) for _ in range(m * n)))
        host = from_matrix(A)
        for t in targets:
            wa = find_minor(host, t, budget=None)
            wm = find_minor_matrix(A, t, budget=None)
            assert (wa is None) == (wm is None), (A.entries, t)
            if wm is not None:
                assert verify_witness_matrix(A, t, wm)


def test_u24_never_in_binary_hosts():
    rng = random.Random(5)
    for _ in range(20):
        A = FqMatrix(F2, 4, 8, tuple(rng.randrange(2) for _ in range(32)))
        assert find_minor_matrix(A, catalog("U:2,4"), budget=1000) is None


def test_has_excluded_minor_examples():
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    incidence = [[1 if v in e else 0 for e in k4] for v in range(4)]
    rep = has_excluded_minor_matrix(from_rows(F2, incidence), excluded_minors("graphic"))
    assert membership(rep.outcomes.values()) == "yes"
    assert set(rep.outcomes.values()) == {"absent"}

    u24 = from_rows(field(5), [[1, 1, 1, 1], [0, 1, 2, 3]])
    rep = has_excluded_minor_matrix(u24, excluded_minors("graphic"))
    assert membership(rep.outcomes.values()) == "no" and rep.outcomes["U:2,4"] == "found"

    rep = has_excluded_minor_matrix(fano_matrix(), excluded_minors("graphic"))
    assert membership(rep.outcomes.values()) == "no" and rep.outcomes["F7"] == "found"


@pytest.mark.parametrize("outcomes,member", [
    (("found",), "no"),
    (("unknown", "found"), "no"),
    ((), "yes"),
    (("absent",), "yes"),
    (("absent",) * 5, "yes"),
    (("unverified",), "unknown"),
    (("absent", "unknown"), "unknown"),
])
def test_membership_reads_outcome_tuples(outcomes, member):
    # a minor trial's 1-tuple and a class trial's tuple are read alike
    assert membership(outcomes) == member


def test_excluded_minor_unknown_on_budget():
    rng = random.Random(17)
    A = FqMatrix(F2, 5, 10, tuple(rng.randrange(2) for _ in range(50)))
    rep = has_excluded_minor_matrix(A, excluded_minors("graphic"), budget=3)
    assert "unknown" in rep.outcomes.values() or membership(rep.outcomes.values()) == "no"


def test_unknown_class_name_rejected():
    with pytest.raises(BadArgumentsError):
        has_excluded_minor_matrix(fano_matrix(), excluded_minors("planar"))


def test_witness_json_roundtrip():
    w = MinorWitness(frozenset({1, 3}), frozenset({0}), (2, 4))
    assert w.to_json() == {"contract": [1, 3], "delete": [0], "bijection": [2, 4]}


def test_free_target_witness_is_leftmost():
    A = from_rows(F2, [[0, 1, 0, 1], [0, 0, 1, 1]])
    w = find_minor_matrix(A, catalog("free:2"))
    assert w.bijection == (1, 2)
    assert verify_witness_matrix(A, catalog("free:2"), w)


# ----------------------------------------------------------------------
# size orders and the incremental survivor scan
# ----------------------------------------------------------------------


@pytest.mark.parametrize("sizes", [[], [1], [1, 1, 1], [2, 1, 1], [3, 2, 2, 1]])
def test_distinct_size_orders_match_permutation_set(sizes):
    expected = sorted(set(itertools.permutations(sizes)))
    assert minor._distinct_size_orders(sizes) == expected
    assert minor._n_distinct_orders(sizes) == len(expected)


def test_many_singleton_classes_cost_no_factorial_setup():
    # U:3,16 has 16 singleton classes: one size order, not 16! permutations
    assert minor._distinct_size_orders([1] * 16) == [(1,) * 16]
    A = sample_matrix(16, 4, 20, SeedSpec(7, 0))
    try:
        w = find_minor_matrix(A, catalog("U:3,16"), budget=10)
    except BudgetExceededError:
        return
    assert w is None or verify_witness_matrix(A, catalog("U:3,16"), w)


def test_size_orders_are_charged_before_they_are_generated(monkeypatch):
    # rank 2 over GF(3), parallel classes of sizes 3, 2, 2, 1:
    # D = 4! / 2! = 12 distinct size orders, so D - 1 = 11 units up front
    rows = [[1, 2, 1, 0, 0, 1, 2, 1], [0, 0, 0, 1, 2, 1, 2, 2]]
    target = from_matrix(from_rows(F3, rows))
    sizes = sorted((c.bit_count() for c in target.parallel_classes()), reverse=True)
    assert sizes == [3, 2, 2, 1]
    A = sample_matrix(3, 3, 12, SeedSpec(5, 0))

    def not_reached(sizes):
        raise AssertionError("size orders generated before the budget was charged")

    monkeypatch.setattr(minor, "_distinct_size_orders", not_reached)
    with pytest.raises(BudgetExceededError):
        find_minor_matrix(A, target, budget=10)


def test_size_order_charge_runs_out_in_the_stack_as_alone():
    # F7 with parallel classes of sizes 1, 1, 2, 2, 3, 3, 4: e_t = 16, so a
    # survivor selection costs C(16, 3) = 560 units and passes the set-up
    # at budget 600, but its 630 size orders charge 629 and run out there
    cols = [v for v, k in zip(range(1, 8), (1, 1, 2, 2, 3, 3, 4)) for _ in range(k)]
    target = from_matrix(FqMatrix(F2, 3, 16, tuple(v >> i & 1 for i in range(3) for v in cols)))
    assert minor._n_distinct_orders([1, 1, 2, 2, 3, 3, 4]) == 630
    hosts = [sample_matrix(2, 4, 20, SeedSpec(7, i)) for i in range(3)]
    want = ("unknown", None, 601)
    assert [minor.search(A, target, 600) for A in hosts] == [want] * 3
    stack = np.array([A.entries for A in hosts], dtype=np.uint8).reshape(3, 4, 20)
    col_words = linalg.pack_words(stack.transpose(0, 2, 1))
    ranks = [linalg.fast_rank(A) for A in hosts]
    assert minor.search_stack(col_words, 4, ranks, target, 600, range(3)) == dict.fromkeys(
        range(3), want)


class _TickLog(minor._Budget):
    """A budget that records the cost of each tick it is charged."""

    def __init__(self, units):
        super().__init__(units)
        self.costs = []

    def tick(self, cost=1):
        self.costs.append(cost)
        super().tick(cost)


def _walked(picks):
    """The picks a walk yields, then 'raised' if its budget ran out."""
    out = []
    try:
        out.extend(picks)
    except BudgetExceededError:
        out.append("raised")
    return out


def _plain_rank_picks(o, vecs, c, r, budget_):
    """Every c-subset of vecs in combinations order, one tick each, and
    those of rank r yielded."""
    for pick in itertools.combinations(range(len(vecs)), c):
        budget_.tick()
        if o.rank_cols([vecs[i] for i in pick]) == r:
            yield pick


def test_pruned_pick_walk_matches_plain_enumeration():
    # the pruned walk must yield the picks of rank r that plain enumeration
    # yields, in its order, with the same units spent and the budget
    # running out at the same point, at every budget from 0 to one past
    # the number of picks; keys include a zero and a repeated vector
    rng = random.Random(8)
    straddled = 0  # budgets that ran out inside a block of several picks
    for f, m in ((F2, 3), (F2, 4), (F3, 3), (field(4), 3)):
        o = linalg.ops_for(f, m)
        for _ in range(3):
            n = 6
            A = FqMatrix(f, m, n, tuple(rng.randrange(f.q) for _ in range(m * n)))
            vecs = o.cols_of(A)
            vecs[2], vecs[5] = o.encode((0,) * m), vecs[0]
            for c in range(n + 2):
                for r in range(5):
                    for limit in range(math.comb(n, c) + 2):
                        got_budget, want_budget = _TickLog(limit), minor._Budget(limit)
                        got = _walked(minor._ranked_picks(o, vecs, c, r, got_budget))
                        want = _walked(_plain_rank_picks(o, vecs, c, r, want_budget))
                        assert got == want, (f.q, vecs, c, r, limit)
                        assert got_budget.spent == want_budget.spent, (f.q, vecs, c, r, limit)
                        costs = got_budget.costs
                        straddled += (want[-1:] == ["raised"] and costs[-1] > 1
                                      and sum(costs[:-1]) < limit)
    assert straddled


def test_prefix_shared_walks_match_plain_enumeration():
    # without a count the walk lists every basis; with one, the plain
    # enumeration's list when it has exactly that many bases, else None
    rng = random.Random(8)
    for f in (F2, F3, field(4)):
        o = linalg.ops_for(f, 3)
        for _ in range(15):
            A = FqMatrix(f, 3, 7, tuple(rng.randrange(f.q) for _ in range(21)))
            vecs = o.cols_of(A)
            for r in range(0, 4):
                indep = [_mask_of(x) for x in itertools.combinations(range(7), r)
                         if o.rank_cols([vecs[i] for i in x]) == r]
                assert linalg.basis_masks(o, vecs, r) == indep
                true = len(indep)
                for count in {0, true - 1, true, true + 1, math.comb(7, r)} - {-1}:
                    want = indep if count == true else None
                    assert linalg.basis_masks(o, vecs, r, count) == want, (f.q, r, count)


def test_counted_walks_stop_at_their_verdict():
    o = linalg.ops_for(F2, 5)
    calls = 0
    reduce_pivot = o.reduce_pivot

    def counted(ech, v):
        nonlocal calls
        calls += 1
        return reduce_pivot(ech, v)

    o.reduce_pivot = counted
    unit = [1 << i for i in range(5)]
    # a repeated vector: the dependent prefix {0, 1} rules out the
    # C(4, 1) = 4 subsets {0, 1, x}, more than the C(6, 3) - C(6, 3) = 0
    # the count leaves, so the walk stops at its second reduction
    vecs = [unit[0], unit[0], *unit[1:]]
    assert linalg.basis_masks(o, vecs, 3, math.comb(6, 3)) is None
    assert calls == 2
    # all C(5, 3) = 10 subsets of five independent vectors are bases: with
    # a count of 4 the walk stops at the fifth, {0, 2, 4}, its eighth
    # reduction ({0}, {0, 1}, three bases {0, 1, x}, {0, 2}, {0, 2, 3},
    # {0, 2, 4}), where the whole walk takes 19
    calls = 0
    assert linalg.basis_masks(o, unit, 3, 4) is None
    assert calls == 8
    calls = 0
    assert len(linalg.basis_masks(o, unit, 3)) == 10
    assert calls == 19


def _reference_distinct_size_orders(sizes):
    """The original size-order set-up: all c! permutations, deduplicated."""
    return sorted(set(itertools.permutations(sizes)))


def _reference_scan_survivor_selections(
    o, target, reps, combo, survivors, zero_surv, dirs, dir_keys,
    l_t, c_t, size_orders, r_t, n_bases_t, budget_,
):
    """The original survivor scan: a fresh echelon for every key pick and
    one rank_cols call per r_t-subset in the basis enumeration."""
    e_t = target.ground_size
    bases_cost = max(1, math.comb(e_t, r_t))
    for loop_pick in itertools.combinations(zero_surv, l_t):
        for key_pick in itertools.combinations(dir_keys, c_t):
            budget_.tick()
            krank = o.rank_cols(key_pick)
            if krank != r_t:
                continue
            for order in size_orders:
                if any(len(dirs[key]) < s for key, s in zip(key_pick, order)):
                    continue
                member_pools = [
                    itertools.combinations(dirs[key], s) for key, s in zip(key_pick, order)
                ]
                for member_pick in itertools.product(*member_pools):
                    budget_.tick(bases_cost)
                    s_list = sorted(loop_pick + tuple(j for grp in member_pick for j in grp))
                    bases = []
                    for x_combo in itertools.combinations(range(e_t), r_t):
                        vecs = [reps[s_list[i]] for i in x_combo]
                        if o.rank_cols(vecs) == r_t:
                            bases.append(_mask_of(x_combo))
                            if len(bases) > n_bases_t:
                                break
                    if len(bases) != n_bases_t:
                        continue
                    minor_m = Matroid(e_t, bases)
                    budget_.tick()
                    bij = is_isomorphic(target, minor_m)
                    if bij is not None:
                        mapping = tuple(s_list[bij[i]] for i in range(e_t))
                        return MinorWitness(
                            frozenset(combo),
                            frozenset(survivors) - frozenset(s_list),
                            mapping,
                        )
    return None


def _survivor_classes(plan, o, combo, reps):
    """(survivors, zero survivors, direction classes, sorted keys) of one
    contraction set, a survivor counted zero when its representative alone
    has rank 0: a test independent of the scorer's own zero test."""
    survivors = [j for j in range(plan.n) if j not in combo]
    zero_surv = [j for j in survivors if o.rank_cols([reps[j]]) == 0]
    dirs: dict = {}
    for j in survivors:
        if j not in zero_surv:
            dirs.setdefault(reps[j], []).append(j)
    return survivors, zero_surv, dirs, sorted(dirs, key=o.order)


def _reference_score(plan, o, budget_, combo, reps):
    """`_Plan.score` by the original survivor scan."""
    survivors, zero_surv, dirs, dir_keys = _survivor_classes(plan, o, combo, reps)
    return _reference_scan_survivor_selections(
        o, plan.target, reps, combo, survivors, zero_surv, dirs, dir_keys, plan.l_t, plan.c_t,
        plan.size_orders, plan.r_t, plan.n_bases_t, budget_)


def _search_outcome(A, target, budget):
    try:
        return find_minor_matrix(A, target, budget)
    except BudgetExceededError:
        return "budget exhausted"


def test_incremental_scan_matches_reference_scan(monkeypatch):
    # status, witness and units spent must be the reference scan's, which
    # ticks one unit per key pick, on every outcome; besides fixed budgets,
    # budgets just short of the reference's units spent and at fractions
    # of it run out part-way through the pick walk
    targets = [catalog(s) for s in ("U:1,2", "U:2,3", "U:2,4", "F7")]
    # U:2,3 plus a loop, and a parallel pair plus a point plus a loop
    # (class sizes 2, 1: two size orders)
    targets.append(from_matrix(from_rows(F2, [[1, 0, 1, 0], [0, 1, 1, 0]])))
    targets.append(from_matrix(from_rows(F2, [[1, 1, 0, 0], [0, 0, 1, 0]])))
    # the graphic class's excluded minors, whose basis walks stop at their
    # verdict, on GF(2) hosts of the rank MK5* needs
    excluded = {name: catalog(name) for name in ("F7*", "MK33*", "MK5*")}
    cases = [(2, [(4, 10), (5, 11)], targets), (3, [(3, 8), (4, 8)], targets),
             (4, [(3, 7), (3, 8)], targets), (2, [(6, 11)], list(excluded.values()))]
    seen = set()
    walk_ran_out = 0
    real_walk = minor._ranked_picks
    cut_walks: Counter = Counter()  # target -> basis walks stopped short of the count
    real_basis_masks = linalg.basis_masks
    # the reference's c! size orders, built once per class-size multiset
    size_orders: dict = {}

    def watched_walk(*args):
        nonlocal walk_ran_out
        try:
            yield from real_walk(*args)
        except BudgetExceededError:
            walk_ran_out += 1
            raise

    def watched_basis_masks(o, vecs, r, count=None):
        bases = real_basis_masks(o, vecs, r, count)
        cut_walks[len(vecs), r] += bases is None
        return bases

    def reference_size_orders(sizes):
        if tuple(sizes) not in size_orders:
            size_orders[tuple(sizes)] = _reference_distinct_size_orders(sizes)
        return size_orders[tuple(sizes)]

    def reference(A, t, budget):
        with monkeypatch.context() as mp:
            mp.setattr(minor._Plan, "score", _reference_score)
            mp.setattr(minor, "_distinct_size_orders", reference_size_orders)
            return minor.search(A, t, budget)

    monkeypatch.setattr(minor, "_ranked_picks", watched_walk)
    monkeypatch.setattr(linalg, "basis_masks", watched_basis_masks)
    for q, qshapes, qtargets in cases:
        for (m, n), seed in itertools.product(qshapes, (2024, 2025)):
            A = sample_matrix(q, m, n, SeedSpec(seed, q))
            for t in qtargets:
                whole = reference(A, t, None)[2]
                budgets = {50, 500, None} | {b for b in (whole - 1, whole // 2, whole // 3) if b > 0}
                for budget in sorted(budgets, key=lambda b: b or math.inf):
                    got, want = minor.search(A, t, budget), reference(A, t, budget)
                    assert got == want, (q, m, n, t, budget)
                    if got[0] == "unknown":
                        # a charge that runs out stops at budget + 1; the
                        # set-up turns down a target whose one selection
                        # costs more than the budget before charging any
                        refused = math.comb(t.ground_size, t.rank) > budget
                        assert got[2] == (0 if refused else budget + 1)
                    seen.add(got[0])
    # every kind of outcome is covered, and some budgets ran out inside
    # the pruned walk
    assert seen == {"witness", "absent", "unknown"}
    assert walk_ran_out
    # every excluded minor's walks were cut at their verdict
    assert all(cut_walks[t.ground_size, t.rank] for t in excluded.values())


def test_witnesses_contract_the_rank_drop():
    # every minor N of M is M / C \ D for an independent C and a
    # coindependent D, and then |C| = r(M) - r(N) (Oxley, Matroid Theory,
    # Lemma 3.3.2); the search visits that size first, so every witness it
    # returns contracts exactly r_h - r_t columns
    names = ("U:1,2", "U:2,3") + minor.GRAPHIC_EXCLUDED
    found = set()
    for q, shapes in ((2, [(4, 10), (6, 12), (8, 16)]), (3, [(3, 8), (4, 10), (6, 12)])):
        for (m, n), stream in itertools.product(shapes, range(4)):
            A = sample_matrix(q, m, n, SeedSpec(23, stream))
            r_h = linalg.fast_rank(A)
            for name in names:
                t = catalog(name)
                w = minor.search(A, t, 20000, r_h)[1]
                if w is not None:
                    assert len(w.contract) == r_h - t.rank, (q, m, n, stream, name)
                    assert verify_witness_matrix(A, t, w)
                    found.add(name)
    # witnesses of every target, each over a field that represents it
    assert found == set(names), found


def test_exhausted_rank_drop_size_is_absent():
    # trials 1 and 17 of the 6 x 12 row of `class --sweep --seed 3 --budget
    # 3000` (test_cli): once the 66 sets of size r_h - r_t = 2 are
    # exhausted F7* is absent, inside the budget; a search that went on to
    # the smaller sizes ran out of it.  The all-(C, D) reference agrees.
    f7_dual = catalog("F7*")
    hosts = [sample_matrix(2, 6, 12, SeedSpec(3, i)) for i in (1, 17)]
    for A in hosts:
        status, w, spent = minor.search(A, f7_dual, 3000)
        assert (status, w) == ("absent", None) and spent <= 3000
        assert find_minor(from_matrix(A), f7_dual, budget=None) is None
    stack = np.array([A.entries for A in hosts], dtype=np.uint8).reshape(2, 6, 12)
    ranks = [linalg.fast_rank(A) for A in hosts]
    col_words = linalg.pack_words(stack.transpose(0, 2, 1))
    got = minor.search_stack(col_words, 6, ranks, f7_dual, 3000, [0, 1])
    assert got == {t: minor.search(A, f7_dual, 3000) for t, A in enumerate(hosts)}


def _graphic_host(v: int, e: int, seed: int) -> FqMatrix:
    """The GF(2) incidence matrix of a seeded random connected graph on v
    vertices with e edges, no loops and no parallel edges: a spanning tree
    and then random new edges."""
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, v)]
    seen = set(edges)
    while len(edges) < e:
        edge = tuple(sorted(rng.sample(range(v), 2)))
        if edge not in seen:
            seen.add(edge)
            edges.append(edge)
    return FqMatrix(F2, v, e, tuple(int(x in edge) for x in range(v) for edge in edges))


def test_unranking_is_bounded_by_the_budget(monkeypatch):
    # F7 in a graphic host runs out of a budget of 36 units; the search
    # may compute at most (spent + 1) * (n + 1) binomials, with no table
    # of them built ahead of the budget
    A = _graphic_host(151, 300, 8)
    r_h = linalg.fast_rank(A)
    assert r_h == 150
    f7 = catalog("F7")
    calls = []
    real_comb = math.comb
    monkeypatch.setattr(math, "comb", lambda *a: calls.append(a) or real_comb(*a))
    status, _, spent = minor.search(A, f7, 36, r_h)
    assert (status, spent) == ("unknown", 37)
    assert len(calls) <= (spent + 1) * (A.n + 1), len(calls)


def test_only_rank_drop_size_is_screened(monkeypatch):
    # every contraction set a search unranks or scores has r_h - r_t
    # elements: on the per-set path over GF(2) and GF(3), and in the
    # rounds of search_stack, on absent and unknown searches alike
    want_k = None
    where: list[str] = []  # the set loops running, outermost first
    unranked, scored = [], set()

    def spied(label, real):
        def run(*args):
            where.append(label)
            try:
                return real(*args)
            finally:
                where.pop()
        return run

    real_score = minor._Plan.score

    def score(plan, o, budget_, combo, reps):
        assert len(combo) == want_k, (combo, want_k)
        scored.add("/".join(where))
        return real_score(plan, o, budget_, combo, reps)

    real_unrank = minor._unrank_combo
    monkeypatch.setattr(minor._Plan, "score", score)
    monkeypatch.setattr(minor, "_search_sets", spied("per-set", minor._search_sets))
    monkeypatch.setattr(minor, "_screen_rounds", spied("rounds", minor._screen_rounds))
    monkeypatch.setattr(minor, "_unrank_combo",
                        lambda idx, n, k: unranked.append(k) or real_unrank(idx, n, k))
    statuses = set()
    names = ("U:2,3", "F7", "F7*", "MK33*")
    for q, (m, n) in ((2, (6, 12)), (2, (8, 16)), (3, (4, 10))):
        hosts = [sample_matrix(q, m, n, SeedSpec(31, i)) for i in range(4)]
        ranks = [linalg.fast_rank(A) for A in hosts]
        col_words = None
        if q == 2:
            stack = np.array([A.entries for A in hosts], dtype=np.uint8).reshape(len(hosts), m, n)
            col_words = linalg.pack_words(stack.transpose(0, 2, 1))
        for name in names:
            t = catalog(name)
            for budget in (60, 400, None):
                for i, A in enumerate(hosts):
                    want_k = ranks[i] - t.rank
                    unranked.clear()
                    status = minor.search(A, t, budget, ranks[i])[0]
                    assert set(unranked) <= {want_k}, (q, m, n, name, budget, i)
                    statuses.add((q, status))
                    if col_words is not None:
                        unranked.clear()
                        minor.search_stack(col_words, m, ranks, t, budget, [i])
                        assert set(unranked) <= {want_k}, (m, n, name, budget, i)
    assert {"absent", "unknown"} <= {s for q, s in statuses if q == 2}
    assert {"absent", "unknown"} <= {s for q, s in statuses if q == 3}
    assert scored == {"per-set", "rounds"}


def _decision_threshold(A, target, run=_search_outcome) -> int:
    """The least budget at which run(A, target, budget), by default
    find_minor_matrix, is not unknown, by doubling and bisection."""
    hi = 1
    while run(A, target, hi) == "budget exhausted":
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if run(A, target, mid) == "budget exhausted":
            lo = mid
        else:
            hi = mid
    return hi


def test_sibling_charges_match_reference_threshold(monkeypatch):
    # the scan scores one selection of each set of equal siblings and
    # charges the rest in one tick; the least budget that decides must be
    # the reference's, which scores every selection
    F4 = field(4)
    triangle_point = from_matrix(from_rows(F2, [[1, 0, 1, 0], [0, 1, 1, 0],
                                                         [0, 0, 0, 1]]))
    # a triangle, a parallel pair and a loop
    triangle_pair_loop = from_matrix(from_rows(
        F2, [[1, 0, 1, 0, 0, 0], [0, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 0]]))
    fano = fano_matrix()
    fano_loop = from_matrix(from_rows(
        F2, [list(fano.entries[7 * i:7 * i + 7]) + [0] for i in range(3)]))
    u37_loop = Matroid(8, catalog("U:3,7").bases)

    def host(f, points, multiples, zeros):
        # the points, then scalar multiples of some (same direction class),
        # then zero columns (loops)
        cols = (list(points) + [tuple(f.mul(c, x) for x in points[i]) for i, c in multiples]
                + [(0,) * len(points[0])] * zeros)
        return from_rows(f, [list(row) for row in zip(*cols)])

    # the GF(2) hosts hold e1, e2, e3 and e1 + e2 + e3 only, so no triangle:
    # every scored selection fails on its basis count
    gf2 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
    gf2_lifted = [(1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0), (1, 1, 1, 1), (0, 0, 0, 1)]
    # F7 is not ternary and U:3,7 not quaternary, so their scans all fail
    gf3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 2, 0)]
    gf4 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 3, 2), (1, 1, 0)]
    cases = [
        (host(F2, gf2, [(0, 1), (1, 1), (3, 1)], 2),
         [triangle_point, triangle_pair_loop, catalog("U:1,2")]),
        (host(F2, gf2_lifted, [(0, 1), (1, 1), (3, 1)], 2),
         [triangle_point, triangle_pair_loop, catalog("U:1,2")]),
        (host(F3, gf3, [(0, 2), (3, 2), (5, 1)], 2), [catalog("F7"), fano_loop]),
        (host(F4, gf4, [(0, 2), (3, 3), (4, 1)], 2), [catalog("U:3,7"), u37_loop]),
    ]
    real_score, real_iso = minor._Plan.score, minor.is_isomorphic
    ran = {"loop siblings": 0, "member siblings": 0, "isomorphism misses": 0}

    def spy_score(plan, o, budget_, combo, reps):
        got = real_score(plan, o, budget_, combo, reps)
        _, zero_surv, dirs, dir_keys = _survivor_classes(plan, o, combo, reps)
        if got is None and len(zero_surv) >= plan.l_t and len(dirs) >= plan.c_t:
            ran["loop siblings"] += math.comb(len(zero_surv), plan.l_t) > 1
            ran["member siblings"] += any(
                o.rank_cols(keys) == plan.r_t
                and math.prod(math.comb(len(dirs[k]), s) for k, s in zip(keys, order)) > 1
                for keys in itertools.combinations(dir_keys, plan.c_t)
                for order in plan.size_orders)
        return got

    def spy_iso(target, m):
        bij = real_iso(target, m)
        ran["isomorphism misses"] += bij is None
        return bij

    for A, targets in cases:
        for t in targets:
            got = _decision_threshold(A, t)
            with monkeypatch.context() as mp:
                mp.setattr(minor._Plan, "score", _reference_score)
                mp.setattr(minor, "_distinct_size_orders", _reference_distinct_size_orders)
                want = _decision_threshold(A, t)
                assert _search_outcome(A, t, want) == _search_outcome(A, t, None)
            assert got == want, (A, t)
            assert _search_outcome(A, t, got) == _search_outcome(A, t, None)
            with monkeypatch.context() as mp:
                mp.setattr(minor._Plan, "score", spy_score)
                mp.setattr(minor, "is_isomorphic", spy_iso)
                _search_outcome(A, t, None)
    # both bulk charges ran in scans that gave no witness, and so did the
    # isomorphism unit they include when a basis count matches
    assert all(ran.values()), ran


def test_unranking_follows_lexicographic_order():
    # a set's rank must name the set of itertools' lexicographic order
    for n in range(11):
        for k in range(n + 1):
            want = list(itertools.combinations(range(n), k))
            assert [minor._unrank_combo(i, n, k) for i in range(len(want))] == want, (n, k)


def test_unranking_computes_one_binomial_per_set(monkeypatch):
    # the binomial is stepped by exact ratios from the one math.comb of each
    # set, and the sets are those of one math.comb per position
    real_comb = math.comb

    def reference(idx, n, k):
        out, x = [], 0
        for i in range(k):
            while idx >= (c := real_comb(n - x - 1, k - i - 1)):
                idx -= c
                x += 1
            out.append(x)
            x += 1
        return tuple(out)

    calls = []
    monkeypatch.setattr(math, "comb", lambda *a: calls.append(a) or real_comb(*a))
    rng = random.Random(26)
    for n, k in ((24, 13), (600, 300), (900, 450), (900, 1), (900, 899), (900, 900)):
        total = real_comb(n, k)
        for idx in {0, total - 1} | {rng.randrange(total) for _ in range(5)}:
            calls.clear()
            got = minor._unrank_combo(idx, n, k)
            assert len(calls) <= 1, (n, k, len(calls))
            assert got == reference(idx, n, k), (n, k, idx)


def test_uniform_target_sizes_match_parallel_classes(monkeypatch):
    # U(r, e) has all C(e, r) bases; its class sizes follow from r and e
    # alone: none at r = 0, one class of e at r = 1, e points at r >= 2
    want = {}
    for e in range(1, 9):
        for r in range(e):  # r = e is free
            t = uniform(r, e)
            want[r, e] = t, sorted(c.bit_count() for c in t.parallel_classes())
    _forbid_parallel_class_scan(monkeypatch)
    for (r, e), (t, sizes) in want.items():
        # GF(7) has room for the 8 points of U(2, 8) in PG(1, 7)
        plan = minor._set_up(7, e, r, t, math.inf)
        assert sorted(plan.sizes) == sizes, (r, e)


def test_uniform_target_reaches_its_first_unit_without_the_scan(monkeypatch):
    # a U:10,20 search at a budget that pays for one survivor selection
    # reaches its first unit without the scan over 184756 bases; the
    # selection's C(20, 10) units then run out at once
    u1020 = catalog("U:10,20")
    _forbid_parallel_class_scan(monkeypatch)
    A = sample_matrix(2, 10, 20, SeedSpec(0, 1))  # 20 distinct columns of rank 10
    first = []
    real_tick = minor._Budget.tick

    def tick(budget_, cost=1):
        if not first:
            first.append(time.perf_counter())
        return real_tick(budget_, cost)

    monkeypatch.setattr(minor._Budget, "tick", tick)
    start = time.perf_counter()
    status, _, spent = minor.search(A, u1020, math.comb(20, 10), 10)
    assert first[0] - start < 0.1, first[0] - start
    assert (status, spent) == ("unknown", math.comb(20, 10) + 1)


# (shape, seed, targets) of seeded GF(2) hosts whose decision thresholds
# stay small; together they give found, absent and unknown outcomes
_SCREEN_CASES = [
    ((6, 12), 0, ("U:2,4", "F7", "MK5*", "MK33*", "U:1,2", "loop")),
    ((6, 12), 1, minor.GRAPHIC_EXCLUDED + ("U:1,2", "loop")),
    ((7, 14), 0, ("F7", "U:1,2", "loop")),
    ((8, 16), 0, ("F7", "F7*", "MK33*", "U:1,2", "loop")),
]


def _stack_search(A, target, budget):
    """search_stack's (status, witness, spent) for target in the GF(2)
    host A, as the only host of its stack."""
    cols = np.array(A.entries, dtype=np.uint8).reshape(A.m, A.n).T
    col_words = linalg.pack_words(cols[None])
    return minor.search_stack(col_words, A.m, [linalg.fast_rank(A)], target, budget, [0])[0]


def _stack_outcome(A, target, budget):
    """`_search_outcome` through `_stack_search`."""
    status, w, _ = _stack_search(A, target, budget)
    return "budget exhausted" if status == "unknown" else w


def test_batched_screen_matches_per_set_threshold(monkeypatch):
    # the GF(2) screening rounds only drop sets the per-set path drops and
    # charge the same units, so search_stack on a lone host must decide at
    # the least budget search decides at, and give its status, witness and
    # units spent at every budget; in rounds of at most 1, 3 and 512
    # pairs, and at the module's own MAX_PAIRS
    looped = from_matrix(from_rows(F2, [[1, 0, 1, 0], [0, 1, 1, 0]]))  # U:2,3 and a loop
    budgets = []
    screened = []

    class SpyBudget(minor._Budget):
        def __init__(self, units):
            super().__init__(units)
            budgets.append(self)

    real = linalg.gf2_coset_reps

    def spy_reps(words, combos):
        left = budgets[-1].limit - budgets[-1].spent
        assert combos.shape[0] <= left + 1, (combos.shape, left)
        screened.append((combos.shape[0], left))
        return real(words, combos)

    def forbidden(*args):
        raise AssertionError("the per-set path ran a screening round")

    monkeypatch.setattr(minor, "_Budget", SpyBudget)
    monkeypatch.setattr(linalg, "gf2_coset_reps", spy_reps)
    seen = set()
    for (m, n), seed, names in _SCREEN_CASES:
        A = sample_matrix(2, m, n, SeedSpec(seed, 20))
        for name in names:
            t = looped if name == "loop" else catalog(name)
            with monkeypatch.context() as mp:
                mp.setattr(linalg, "gf2_coset_reps", forbidden)
                want = _decision_threshold(A, t)
                want_searches = [minor.search(A, t, b) for b in (want - 1, want, 200, None)]
            seen.update(status for status, _, _ in want_searches)
            for max_pairs in (1, 3, 512, minor.MAX_PAIRS):
                with monkeypatch.context() as mp:
                    mp.setattr(minor, "MAX_PAIRS", max_pairs)
                    assert _decision_threshold(A, t, _stack_outcome) == want, \
                        (m, n, seed, name, max_pairs)
                    assert [_stack_search(A, t, b) for b in (want - 1, want, 200, None)] \
                        == want_searches, (m, n, seed, name, max_pairs)
    assert seen == {"witness", "absent", "unknown"}
    # rounds ran, and the units left cut some of them short
    assert screened and any(count == left + 1 < 512 and count > 3 for count, left in screened)


def test_lone_host_search_reduces_set_by_set(monkeypatch):
    # a lone GF(2) host's search reduces every contraction set one at a
    # time, however many it visits, so it shares no reduction kernel with
    # search_stack, which the spot check compares it with; on GF2_GOLDEN's
    # host, F7 is found at the 1134th set, MK33* absent after all 1820 and
    # F7* unknown after 47, each giving search_stack's triple
    A = sample_matrix(2, 8, 16, SeedSpec(2, 0))
    cases = [("F7", minor.DEFAULT_BUDGET, "witness", 1134), ("MK33*", 20000, "absent", 1820),
             ("F7*", 2000, "unknown", 47)]
    unranked = []
    real_unrank = minor._unrank_combo

    def forbidden(*args):
        raise AssertionError("a lone host's search ran a screening round")

    got = {}
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "gf2_coset_reps", forbidden)
        mp.setattr(minor, "_unrank_combo", lambda *a: unranked.append(a) or real_unrank(*a))
        for name, budget, status, sets in cases:
            unranked.clear()
            got[name] = minor.search(A, catalog(name), budget)
            assert (got[name][0], len(unranked)) == (status, sets), name
    for name, budget, _, _ in cases:
        assert _stack_search(A, catalog(name), budget) == got[name], name


def _relabel(M: Matroid, perm) -> Matroid:
    """M with element i renamed perm[i]."""
    return Matroid(M.ground_size, [_mask_of(perm[i] for i in range(M.ground_size) if b >> i & 1)
                                   for b in M.bases])


def test_isomorphism_verdict_ignores_labels():
    # what the scan's sibling charge rests on: selections that differ only
    # in which members of a class they take give one matroid in two
    # labellings, and the verdict must not depend on the labelling
    rng = random.Random(18)
    verdicts = set()
    for f, m, e in ((F2, 3, 6), (F2, 3, 7), (F3, 2, 5), (F3, 3, 6)):
        def draw():
            return from_matrix(FqMatrix(f, m, e, tuple(rng.randrange(f.q) for _ in range(m * e))))

        for _ in range(40):
            M = draw()
            perm = list(range(e))
            rng.shuffle(perm)
            moved = _relabel(M, perm)
            for T in (draw(), _relabel(M, rng.sample(range(e), e))):
                bij = is_isomorphic(T, moved)
                assert (is_isomorphic(T, M) is None) == (bij is None), (T.bases, M.bases, perm)
                if bij is not None:
                    assert _relabel(T, bij).bases == moved.bases
                verdicts.add(bij is None)
    assert verdicts == {True, False}


def _stack_agrees(cases) -> list[bool]:
    """verify_witness_stack verdicts on (host, target, witness) cases, every host
    of one shape and target in one stack, asserted equal to
    verify_witness_matrix case by case; returns the verdicts."""
    groups: dict = {}
    for pos, (A, target, w) in enumerate(cases):
        groups.setdefault((A.m, A.n, target), []).append((pos, A, w))
    verdicts = [None] * len(cases)
    for (m, n, target), group in groups.items():
        stack = np.array([A.entries for _, A, _ in group], dtype=np.uint8).reshape(len(group), m, n)
        words = linalg.pack_words(stack)
        got = verify_witness_stack(words, n, target, {t: w for t, (_, _, w) in enumerate(group)})
        assert sorted(got) == list(range(len(group)))
        for t, (pos, A, w) in enumerate(group):
            assert got[t] == verify_witness_matrix(A, target, w), (A, target, w)
            verdicts[pos] = got[t]
    return verdicts


def _witnesses(n: int, e_t: int):
    """Every witness shape: disjoint C and D with |C| + |D| = n - e_t, C
    dependent or not, and every bijection onto the survivors."""
    for drop in itertools.combinations(range(n), n - e_t):
        survivors = [x for x in range(n) if x not in drop]
        for c_size in range(len(drop) + 1):
            for c in itertools.combinations(drop, c_size):
                for bij in itertools.permutations(survivors):
                    yield MinorWitness(frozenset(c), frozenset(drop) - frozenset(c), bij)


def _corrupted(w: MinorWitness, n: int) -> list[MinorWitness]:
    """The witness with overlapping C and D, an index out of range in C
    and in D, a bijection onto a dropped element, a bijection that repeats
    a survivor, and bijections one element short and one long, the element
    left out of D and C or moved to or from D so that |C| + |D| +
    |bijection| is still n."""
    out = [MinorWitness(w.contract | {n}, w.delete, w.bijection),
           MinorWitness(w.contract, w.delete | {-1}, w.bijection)]
    dropped = w.contract | w.delete
    bij = w.bijection
    if dropped:
        x = min(dropped)
        out.append(MinorWitness(w.contract | {x}, w.delete | {x}, bij))
        out.append(MinorWitness(w.contract, w.delete, bij + (x,)))
        if bij:
            out.append(MinorWitness(w.contract, w.delete, (x,) + bij[1:]))
    if w.delete:
        y = min(w.delete)
        out.append(MinorWitness(w.contract, w.delete - {y}, bij + (y,)))
    if bij:
        out += [MinorWitness(w.contract, w.delete, bij[:-1]),
                MinorWitness(w.contract, w.delete | {bij[-1]}, bij[:-1]),
                MinorWitness(w.contract, w.delete, bij + bij[:1])]
    if len(bij) > 1:
        out.append(MinorWitness(w.contract, w.delete, bij[:-1] + bij[:1]))
    return out


def test_stacked_verifier_agrees_exhaustively():
    # every GF(2) host of each small shape against every witness shape for
    # targets of 1 to 3 elements: dependent C, |C| > m (a 1- or 2-row host
    # and U:1,1), wrong bijections and, on one witness per host,
    # overlapping and out-of-range indices and malformed bijections.  The
    # uniform targets accept every bijection onto the right survivors; a
    # coloop and a loop, and a coloop and a parallel pair, do not
    cases = []
    coloop_loop = from_matrix(FqMatrix(F2, 1, 2, (1, 0)))
    coloop_pair = from_matrix(FqMatrix(F2, 2, 3, (1, 0, 0, 0, 1, 1)))
    assert coloop_pair.bases == {0b011, 0b101}
    small = (*map(catalog, ("U:0,1", "U:1,1", "U:1,2", "U:2,3")), coloop_loop, coloop_pair)
    shapes = {(1, 3): small, (2, 3): small, (3, 3): small, (2, 4): (catalog("U:1,1"),)}
    for (m, n), targets in shapes.items():
        for code in range(2 ** (m * n)):
            A = FqMatrix(F2, m, n, tuple(code >> i & 1 for i in range(m * n)))
            for target in targets:
                if target.ground_size > n:
                    continue
                ws = list(_witnesses(n, target.ground_size))
                cases += [(A, target, w) for w in ws + _corrupted(ws[code % len(ws)], n)]
    verdicts = _stack_agrees(cases)
    assert True in verdicts and False in verdicts
    assert any(len(w.contract) > A.m for A, _, w in cases)
    # some host, C and D pass under one bijection and fail under another
    by_minor: dict = {}
    for (A, target, w), verdict in zip(cases, verdicts):
        by_minor.setdefault((A, id(target), w.contract, w.delete), set()).add(verdict)
    assert {True, False} in by_minor.values()


def test_stacked_verifier_edge_cases():
    cases = []
    # m = 0: every column a loop, and only an empty C is independent
    empty = FqMatrix(F2, 0, 3, ())
    for name in ("U:0,1", "U:0,2", "U:1,2"):
        target = catalog(name)
        cases += [(empty, target, w) for w in _witnesses(3, target.ground_size)]
    # |C| = 0: the witnesses of free targets
    for stream in range(6):
        A = sample_matrix(2, 5, 8, SeedSpec(49, stream))
        for r in range(4):
            w = find_minor_matrix(A, catalog(f"free:{r}"))
            assert w is not None and not w.contract
            cases.append((A, catalog(f"free:{r}"), w))
    # rows of more than one word (n > 64), and more than 64 rows; the last
    # column repeats the one before, so U:1,2 is a minor of every host
    u12 = catalog("U:1,2")
    for m, n in ((70, 80), (20, 130), (100, 40)):
        for stream in range(3):
            B = sample_matrix(2, m, n, SeedSpec(50, stream))
            A = FqMatrix(F2, m, n,
                         tuple(e for i in range(m) for e in B.row(i)[:-1] + B.row(i)[-2:-1]))
            w = find_minor_matrix(A, u12)
            assert w is not None and verify_witness_matrix(A, u12, w)
            moved = min(w.contract)
            cases += [(A, u12, w),
                      (A, u12, MinorWitness(w.contract - {moved}, w.delete | {moved}, w.bijection))]
            cases += [(A, u12, bad) for bad in _corrupted(w, n)]
    verdicts = _stack_agrees(cases)
    assert True in verdicts and False in verdicts


def test_stacked_verifier_checks_each_distinct_minor_once(monkeypatch):
    # copies of one host in one stack.  The target, a coloop 0 and a
    # parallel pair {1, 2}, is asymmetric: witnesses whose contractions
    # have equal entries under different bijections share a verdict, and a
    # bijection that gives a pair element the coloop's part fails.  Each
    # |C| group builds one matroid per distinct contraction
    target = from_matrix(FqMatrix(F2, 2, 3, (1, 0, 0, 0, 1, 1)))
    A = FqMatrix(F2, 2, 4, (1, 0, 0, 1, 0, 1, 1, 1))  # columns e1, e2, e2, e1 + e2
    none, three = frozenset(), frozenset({3})
    ws = [MinorWitness(none, three, (0, 1, 2)),  # the target
          MinorWitness(none, three, (0, 2, 1)),  # the same entries
          MinorWitness(none, three, (1, 0, 2)),  # element 1 plays the coloop
          MinorWitness(none, three, (1, 2, 0)),
          MinorWitness(none, three, (0, 1, 1)),  # not a bijection: nothing built
          MinorWitness(three, none, (0, 1, 2)),  # contracting e1 + e2 leaves [1 1 1]
          MinorWitness(three, none, (2, 1, 0))]
    want = [verify_witness_matrix(A, target, w) for w in ws]
    assert want == [True, True, False, False, False, False, False]
    built = []

    def spy(M):
        built.append((M.m, M.n, M.entries))
        return from_matrix(M)

    monkeypatch.setattr(minor, "from_matrix", spy)
    stack = np.array([A.entries] * len(ws), dtype=np.uint8).reshape(len(ws), A.m, A.n)
    got = verify_witness_stack(linalg.pack_words(stack), A.n, target, dict(enumerate(ws)))
    assert got == dict(enumerate(want))
    assert sorted(built) == [(1, 3, (1, 1, 1)), (2, 3, (0, 0, 1, 1, 1, 0)),
                             (2, 3, (0, 1, 0, 1, 0, 1)), (2, 3, (1, 0, 0, 0, 1, 1))]


def _mixed_stack(m, n, seed, count):
    """(hosts, column words, ranks) of a stack of count GF(2) m x n hosts:
    host t is a sampled matrix with its last 2 * (t % 3) rows zeroed, so
    the stack holds hosts of several ranks."""
    hosts = []
    for t in range(count):
        entries = sample_matrix(2, m, n, SeedSpec(seed, t)).entries
        keep = max(0, m - 2 * (t % 3)) * n
        hosts.append(FqMatrix(F2, m, n, entries[:keep] + (0,) * (m * n - keep)))
    stack = np.array([A.entries for A in hosts], dtype=np.uint8).reshape(count, m, n)
    return hosts, linalg.pack_words(stack.transpose(0, 2, 1)), [linalg.fast_rank(A) for A in hosts]


# m < n, m >= n, m = 0, n = 0, the class sweep's shape, and columns of
# two words (m > 64)
_LOCKSTEP_SHAPES = [(4, 6), (7, 5), (0, 4), (4, 0), (8, 16), (66, 70)]
_LOOPED = from_matrix(from_rows(F2, [[1, 0, 1, 0], [0, 1, 1, 0]]))  # U:2,3 and a loop


def _lockstep_targets():
    names = ("U:1,2", "U:2,3", "loop", "free:2") + minor.GRAPHIC_EXCLUDED
    return [(name, _LOOPED if name == "loop" else catalog(name)) for name in names]


@pytest.mark.parametrize("max_pairs", [1, 3, 512, None])
def test_lockstep_matches_per_host_search(monkeypatch, max_pairs):
    # every host of a stack, screened in rounds of at most max_pairs pairs
    # together with the other hosts of its rank, must give the status,
    # witness and units spent of its own search, the all-per-set
    # reference, whether it ends in the set-up, in the first round or in a
    # later one
    if max_pairs is not None:
        monkeypatch.setattr(minor, "MAX_PAIRS", max_pairs)
    rounds: list = []  # the hosts' column words in each round of a search_stack
    coset_reps = linalg.gf2_coset_reps

    def spy(words, combos):
        sets = len({tuple(row) for row in combos.tolist()})
        rounds.append({words[h].tobytes() for h in range(0, len(combos), sets)})
        return coset_reps(words, combos)

    monkeypatch.setattr(linalg, "gf2_coset_reps", spy)
    seen = set()
    for (m, n), seed in zip(_LOCKSTEP_SHAPES, itertools.count(60)):
        hosts, col_words, ranks = _mixed_stack(m, n, seed, 6)
        if min(m, n) > 0:
            assert len(set(ranks)) > 1, (m, n)
        for name, target in _lockstep_targets():
            for budget in (1, 4, 12, 30, 2000):
                rounds.clear()
                got = minor.search_stack(col_words, m, ranks, target, budget, range(len(hosts)))
                assert list(got) == list(range(len(hosts)))
                for t, A in enumerate(hosts):
                    want = minor.search(A, target, budget, ranks[t])
                    assert got[t] == want, (m, n, name, budget, t)
                    words = col_words[t].tobytes()
                    seen.add((want[0], min(sum(words in live for live in rounds), 2)))
    # hosts ended in the set-up (no round), in the first round and in a
    # later one, at a witness and when the budget ran out, and were found
    # absent after a round
    assert {("witness", 1), ("unknown", 1), ("witness", 2), ("unknown", 2),
            ("absent", 2), ("absent", 0)} <= seen


def test_lockstep_screens_each_set_once(monkeypatch):
    # in each search_stack call, every set is unranked once per rank group
    # and each round makes one gf2_coset_reps call, over at most
    # max(MAX_PAIRS, open hosts) pairs and at most the fewest units left + 1
    # sets per host; with MAX_PAIRS = 3, the four open hosts of a rank are
    # more
    unranked = []
    real_unrank = minor._unrank_combo
    monkeypatch.setattr(minor, "_unrank_combo",
                        lambda *a: unranked.append(a) or real_unrank(*a))
    groups = []  # (column words, host -> budget) of each screened group
    screen_rounds = minor._screen_rounds

    def recording(o, col_words, plan, budgets):
        groups.append((col_words, budgets))
        return screen_rounds(o, col_words, plan, budgets)

    coset_reps = linalg.gf2_coset_reps
    rounds = []  # (open hosts, sets) of each call

    def capped(words, combos):
        sets = len({tuple(row) for row in combos.tolist()})
        hosts = len(combos) // sets
        col_words, budgets = groups[-1]
        live = {words[h * sets].tobytes() for h in range(hosts)}
        left = [b.limit - b.spent for t, b in budgets.items() if col_words[t].tobytes() in live]
        assert len(combos) <= max(minor.MAX_PAIRS, hosts), (len(combos), hosts)
        assert left and sets <= min(left) + 1, (sets, left)
        rounds.append((hosts, sets, sets == min(left) + 1 > 1))
        return coset_reps(words, combos)

    monkeypatch.setattr(minor, "_screen_rounds", recording)
    monkeypatch.setattr(linalg, "gf2_coset_reps", capped)
    wide = cut = 0
    for max_pairs in (3, minor.MAX_PAIRS):
        monkeypatch.setattr(minor, "MAX_PAIRS", max_pairs)
        for (m, n), seed in zip(_LOCKSTEP_SHAPES, itertools.count(60)):
            hosts, col_words, ranks = _mixed_stack(m, n, seed, 12)
            for _, target in _lockstep_targets():
                for budget in (12, 2000):
                    unranked.clear()
                    rounds.clear()
                    minor.search_stack(col_words, m, ranks, target, budget, range(len(hosts)))
                    assert len(set(unranked)) == len(unranked), (m, n, target, budget)
                    assert sum(sets for _, sets, _ in rounds) == len(unranked)
                    wide += any(h > max_pairs for h, _, _ in rounds)
                    cut += any(at_cap for _, _, at_cap in rounds)
    # some rounds held more hosts than MAX_PAIRS, and the units left cut
    # some short
    assert wide and cut


def test_stack_tests_each_matched_family_once(monkeypatch):
    # every host of a rank group scores its sets on the plan the group
    # shares, and each matched basis family is tested for isomorphism once
    # per plan: U:1,2's one family {0b01, 0b10} once for the whole stack,
    # where each host used to test it again.  The plan keeps only matched
    # families, at most one per host that found a witness
    tested = []
    real_iso = minor.is_isomorphic
    monkeypatch.setattr(minor, "is_isomorphic",
                        lambda T, M: tested.append(M.bases) or real_iso(T, M))
    plans = []
    screen_rounds = minor._screen_rounds
    monkeypatch.setattr(minor, "_screen_rounds",
                        lambda o, words, plan, budgets: plans.append(plan)
                        or screen_rounds(o, words, plan, budgets))
    m, n = 6, 12
    hosts = [A for A in (sample_matrix(2, m, n, SeedSpec(29, t)) for t in range(64))
             if linalg.fast_rank(A) == m]
    assert len(hosts) >= 50
    stack = np.array([A.entries for A in hosts], dtype=np.uint8).reshape(len(hosts), m, n)
    col_words = linalg.pack_words(stack.transpose(0, 2, 1))
    for name in ("U:1,2", "U:2,3", "F7"):
        tested.clear()
        plans.clear()
        target = catalog(name)
        got = minor.search_stack(col_words, m, [m] * len(hosts), target, 20000, range(len(hosts)))
        found = sum(status == "witness" for status, _, _ in got.values())
        if name == "U:1,2":
            assert found == len(hosts) and tested == [frozenset({0b01, 0b10})]
        (plan,) = plans
        assert 0 < len(plan.matched) <= found, name
        counts = Counter(tested)
        assert all(counts[frozenset(family)] == 1 for family in plan.matched), name
        for t in (0, len(hosts) - 1):
            assert got[t] == minor.search(hosts[t], target, 20000, m), (name, t)
