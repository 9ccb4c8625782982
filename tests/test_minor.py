import itertools
import math
import random

import pytest

from conftest import brute_has_minor
from fqminors import linalg, minor
from fqminors.errors import BudgetExceededError
from fqminors.gf import field
from fqminors.matrix import FqMatrix
from fqminors.matroid import Matroid, catalog, from_matrix, is_isomorphic, uniform
from fqminors.minor import (
    MinorWitness,
    _mask_of,
    find_minor,
    find_minor_matrix,
    has_excluded_minor,
    has_excluded_minor_matrix,
    verify_witness,
    verify_witness_matrix,
)
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


def test_wrong_bijection_breaks_loopy_target():
    # with a loop in the target the bijection matters: swapping the loop
    # with a non-loop must fail verification
    host = from_matrix(FqMatrix.from_rows(F2, [[1, 0, 1, 0], [0, 1, 1, 0]]))
    target = from_matrix(FqMatrix.from_rows(F2, [[1, 0, 0], [0, 1, 0]]))
    w = find_minor(host, target)
    assert w is not None and verify_witness(host, target, w)
    b = list(w.bijection)
    b[0], b[2] = b[2], b[0]  # target loop is element 2
    assert not verify_witness(host, target, MinorWitness(w.contract, w.delete, tuple(b)))


def test_budget_exceeded_is_distinct_from_absent():
    host = from_matrix(FqMatrix.identity(F2, 6))
    # a free host *with* an impossible non-free target short-circuits, so
    # use a host with structure and a tiny budget
    rng = random.Random(3)
    host = from_matrix(FqMatrix(F2, 3, 7, tuple(rng.randrange(2) for _ in range(21))))
    with pytest.raises(BudgetExceededError):
        find_minor(host, catalog("U:2,4"), budget=2)


def test_find_minor_agrees_with_brute_force_seeded():
    rng = random.Random(12345)
    targets = [catalog(s) for s in ("U:1,2", "U:0,2", "U:2,3", "U:1,3", "U:2,4")]
    for _ in range(40):
        m = rng.randint(1, 3)
        n = rng.randint(1, 6)
        host = from_matrix(FqMatrix(F2, m, n, tuple(rng.randrange(2) for _ in range(m * n))))
        target = rng.choice(targets)
        w = find_minor(host, target)
        assert (w is not None) == brute_has_minor(host, target)
        if w is not None:
            assert verify_witness(host, target, w)


def test_minor_of_minor_is_minor():
    # U:1,2 <= U:2,4 <= U:3,6, so the composite relation must be found
    u36 = catalog("U:3,6")
    assert find_minor(u36, catalog("U:2,4")) is not None
    assert find_minor(u36, catalog("U:1,2")) is not None


def test_matrix_search_agrees_with_abstract_exhaustive():
    loopy = from_matrix(FqMatrix.from_rows(F2, [[1, 0, 1, 0], [0, 1, 1, 0]]))
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


def test_matrix_search_agrees_with_abstract_exhaustive_gf3():
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


def test_matrix_search_agrees_with_abstract_gf3():
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
    from fqminors.matroid import from_graph

    rep = has_excluded_minor(from_graph(k4), "graphic")
    assert rep.membership == "yes"
    assert set(rep.outcomes.values()) == {"absent"}

    rep = has_excluded_minor(catalog("U:2,4"), "graphic")
    assert rep.membership == "no" and rep.outcomes["U:2,4"] == "found"

    rep = has_excluded_minor_matrix(fano_matrix(), "graphic")
    assert rep.membership == "no" and rep.outcomes["F7"] == "found"


def test_excluded_minor_unknown_on_budget():
    rng = random.Random(17)
    A = FqMatrix(F2, 5, 10, tuple(rng.randrange(2) for _ in range(50)))
    rep = has_excluded_minor_matrix(A, "graphic", budget=3)
    assert "unknown" in rep.outcomes.values() or rep.membership == "no"


def test_unknown_class_name_rejected():
    from fqminors.errors import BadParametersError

    with pytest.raises(BadParametersError):
        has_excluded_minor(catalog("U:2,4"), "planar")


def test_witness_json_roundtrip():
    w = MinorWitness(frozenset({1, 3}), frozenset({0}), (2, 4))
    assert MinorWitness.from_json(w.to_json()) == w
    assert w.to_json() == {"contract": [1, 3], "delete": [0], "bijection": [2, 4]}


def test_free_target_witness_is_leftmost():
    host = from_matrix(FqMatrix.from_rows(F2, [[0, 1, 0, 1], [0, 0, 1, 1]]))
    w = find_minor(host, catalog("free:2"))
    assert w.bijection == (1, 2)
    assert verify_witness(host, catalog("free:2"), w)


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
    target = from_matrix(FqMatrix.from_rows(F3, rows))
    sizes = sorted((c.bit_count() for c in target.parallel_classes()), reverse=True)
    assert sizes == [3, 2, 2, 1]
    A = sample_matrix(3, 3, 12, SeedSpec(5, 0))

    def not_reached(sizes):
        raise AssertionError("size orders generated before the budget was charged")

    monkeypatch.setattr(minor, "_distinct_size_orders", not_reached)
    with pytest.raises(BudgetExceededError):
        find_minor_matrix(A, target, budget=10)


def test_prefix_shared_walks_match_plain_enumeration():
    rng = random.Random(8)
    for f in (F2, F3):
        o = linalg.ops_for(f, 3)
        for _ in range(15):
            A = FqMatrix(f, 3, 7, tuple(rng.randrange(f.q) for _ in range(21)))
            vecs = o.cols_of(A)
            for c in range(0, 5):
                want = [(pick, o.rank_cols(pick)) for pick in itertools.combinations(vecs, c)]
                assert list(minor._ranked_picks(o, vecs, c)) == want
            for r in range(0, 4):
                indep = [_mask_of(x) for x in itertools.combinations(range(7), r)
                         if o.rank_cols([vecs[i] for i in x]) == r]
                for stop in (1, 5, len(indep) + 1):
                    assert minor._basis_masks(o, vecs, r, stop) == indep[:stop]


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
            kech: list = []
            krank = 0
            for key in key_pick:
                if o.insert(kech, key):
                    krank += 1
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


def _search_outcome(A, target, budget):
    try:
        return find_minor_matrix(A, target, budget)
    except BudgetExceededError:
        return "budget exhausted"


def test_incremental_scan_matches_reference_scan(monkeypatch):
    targets = [catalog(s) for s in ("U:1,2", "U:2,3", "U:2,4", "F7")]
    # U:2,3 plus a loop, and a parallel pair plus a point plus a loop
    # (class sizes 2, 1: two size orders)
    targets.append(from_matrix(FqMatrix.from_rows(F2, [[1, 0, 1, 0], [0, 1, 1, 0]])))
    targets.append(from_matrix(FqMatrix.from_rows(F2, [[1, 1, 0, 0], [0, 0, 1, 0]])))
    shapes = {2: [(4, 10), (5, 11)], 3: [(3, 8), (4, 8)], 4: [(3, 7), (3, 8)]}
    seen = set()
    for q, qshapes in shapes.items():
        for (m, n), seed in itertools.product(qshapes, (2024, 2025)):
            A = sample_matrix(q, m, n, SeedSpec(seed, q))
            for t in targets:
                for budget in (50, 500, None):
                    got = _search_outcome(A, t, budget)
                    with monkeypatch.context() as mp:
                        mp.setattr(minor, "_scan_survivor_selections",
                                   _reference_scan_survivor_selections)
                        mp.setattr(minor, "_distinct_size_orders",
                                   _reference_distinct_size_orders)
                        want = _search_outcome(A, t, budget)
                    assert got == want, (q, m, n, t, budget)
                    seen.add(type(got).__name__)
    # every kind of outcome is covered: witness, absent and budget exhausted
    assert seen == {"MinorWitness", "NoneType", "str"}
