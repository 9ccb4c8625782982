"""Minor containment with verifiable witnesses.

One searcher and one reference, with the same witness format:

* `find_minor_matrix` is the searcher the `minor`, `class` and `simulate`
  commands run.  It works directly on a representation matrix and
  enumerates contraction sets C restricted to independent sets (standard:
  contracting a dependent set equals contracting a maximal independent
  subset of it and deleting the rest), largest useful |C| first, i.e. from
  min(r(host) - r(target), |host| - |target|) down to 0.  Its budget counts
  work units: one per candidate contraction set, one per direction
  selection, one per isomorphism invocation, and a candidate survivor
  selection costs as many units as the basis enumeration it triggers, so a
  fixed budget bounds actual work even for large targets.  It also charges
  one unit for each distinct order of the target's parallel-class sizes
  after the first, before it generates any of them, so no set-up step runs
  ahead of the budget.
* `find_minor` is the brute-force reference on abstract basis-family
  matroids: every (C, D) pair, dependent C included, then isomorphism, at
  one budget unit per pair.  The exact oracle and the `validate` agreement
  check run it.

A search that runs out of budget raises BudgetExceededError: the outcome is
*unknown*, which callers must never conflate with *absent*.  Each has its
own verifier: `verify_witness_matrix` shares none of the matrix search's
internals, and `verify_witness` checks C's independence and the witness
bijection, which the reference's isomorphism test does not.

`decide` is the one place a search outcome is classified: it runs a
(search, verify) pair and returns `found` (witness verified), `absent`,
`unknown` (budget ran out) or `unverified` (a witness that failed its
independent check, never counted as found).  The `minor` command, the
excluded-minor class test and every Monte Carlo minor trial go through it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field as dc_field

from . import linalg
from .errors import BadArgumentsError, BadParametersError, BudgetExceededError
from .matrix import FqMatrix
from .matroid import Matroid, catalog, from_matrix, is_isomorphic

DEFAULT_BUDGET = 10_000_000

GRAPHIC_EXCLUDED = ("U:2,4", "F7", "F7*", "MK5*", "MK33*")


@dataclass(frozen=True)
class MinorWitness:
    """Certificate that target is isomorphic to (host / contract) \\ delete.

    `bijection[i]` is the surviving host element playing target element i.
    """

    contract: frozenset[int]
    delete: frozenset[int]
    bijection: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "contract": sorted(self.contract),
            "delete": sorted(self.delete),
            "bijection": list(self.bijection),
        }

    @classmethod
    def from_json(cls, d: dict) -> "MinorWitness":
        return cls(frozenset(d["contract"]), frozenset(d["delete"]), tuple(d["bijection"]))


class _Budget:
    __slots__ = ("left",)

    def __init__(self, units):
        self.left = math.inf if units is None else int(units)

    def tick(self, cost: int = 1):
        self.left -= cost
        if self.left < 0:
            raise BudgetExceededError("minor search budget exhausted")


def _unrank_combo(idx: int, n: int, k: int) -> tuple[int, ...]:
    """Lexicographic unranking of k-subsets of range(n)."""
    out = []
    x = 0
    for i in range(k):
        while True:
            c = math.comb(n - x - 1, k - i - 1)
            if idx < c:
                out.append(x)
                x += 1
                break
            idx -= c
            x += 1
    return tuple(out)


def _stride_order(total: int):
    """Visit 0..total-1 exactly once in a decorrelated deterministic order.

    Lexicographic neighbors differ in one element and give nearly identical
    contractions; a golden-ratio stride spreads attempts across the space
    while remaining exhaustive and reproducible.
    """
    if total <= 2:
        yield from range(total)
        return
    step = round(total * 0.6180339887498949)
    step = max(1, step)
    while math.gcd(step, total) != 1:
        step += 1
    idx = 0
    for _ in range(total):
        yield idx
        idx = (idx + step) % total


def _mask_of(elems) -> int:
    m = 0
    for x in elems:
        m |= 1 << x
    return m


# ----------------------------------------------------------------------
# reference search on abstract matroids
# ----------------------------------------------------------------------


def find_minor(host: Matroid, target: Matroid, budget: int | None = DEFAULT_BUDGET):
    """The reference search: every pair (C, D) with |C| + |D| = e_h - e_t,
    dependent C included, by ascending |C| and then D, kept when its minor
    is isomorphic to target.  That is C(e_h, e_t) * 2^(e_h - e_t) pairs,
    one budget unit each.  None means *absent* (certain); running out of
    budget raises BudgetExceededError.

    The witness returned has an independent C, as verify_witness requires:
    a dependent C gives the same minor as a maximal independent subset C'
    of it with C \\ C' added to D, and that pair comes up first.
    """
    e_h, e_t = host.ground_size, target.ground_size
    if e_t > e_h:
        return None
    budget_ = _Budget(budget)
    drop = e_h - e_t
    ground = range(e_h)
    for c_size in range(drop + 1):
        for c_combo in itertools.combinations(ground, c_size):
            c_mask = _mask_of(c_combo)
            rest = [x for x in ground if not (c_mask >> x) & 1]
            for d_combo in itertools.combinations(rest, drop - c_size):
                budget_.tick()
                bij = is_isomorphic(target, host.minor(c_mask, _mask_of(d_combo)))
                if bij is not None:
                    survivors = [x for x in rest if x not in d_combo]
                    return MinorWitness(frozenset(c_combo), frozenset(d_combo),
                                        tuple(survivors[i] for i in bij))
    return None


def _witness_survivors(n: int, target: Matroid, w: MinorWitness) -> list[int] | None:
    """The host elements the witness keeps, in order; None when C and D
    overlap, name an element outside 0..n-1, or the bijection is not onto
    the survivors."""
    if w.contract & w.delete:
        return None
    named = w.contract | w.delete
    if any(not 0 <= x < n for x in named):
        return None
    survivors = [x for x in range(n) if x not in named]
    if len(survivors) != target.ground_size or sorted(w.bijection) != survivors:
        return None
    return survivors


def _is_target(minor_m: Matroid, target: Matroid, survivors: list[int], w: MinorWitness) -> bool:
    """Whether minor_m, whose element i is survivors[i], has the target's
    basis family under the witness bijection."""
    pos = {x: i for i, x in enumerate(survivors)}
    expected = set()
    for b in target.bases:
        mask = 0
        for i in range(target.ground_size):
            if (b >> i) & 1:
                mask |= 1 << pos[w.bijection[i]]
        expected.add(mask)
    return minor_m.bases == frozenset(expected)


def verify_witness(host: Matroid, target: Matroid, w: MinorWitness) -> bool:
    """Recompute the minor named by the witness and compare basis families
    under the witness bijection; C must be independent."""
    survivors = _witness_survivors(host.ground_size, target, w)
    if survivors is None:
        return False
    c_mask = _mask_of(w.contract)
    if not host.is_independent(c_mask):
        return False
    return _is_target(host.minor(c_mask, _mask_of(w.delete)), target, survivors, w)


# ----------------------------------------------------------------------
# the searcher: matrix hosts
# ----------------------------------------------------------------------


def _n_distinct_orders(sizes: list[int]) -> int:
    """Number of distinct permutations of a multiset: c! / prod(mult!)."""
    n = math.factorial(len(sizes))
    for mult in Counter(sizes).values():
        n //= math.factorial(mult)
    return n


def _distinct_size_orders(sizes: list[int]) -> list[tuple[int, ...]]:
    """Distinct permutations of the class-size multiset, in lexicographic
    order: next-permutation from the sorted list, O(c) per order."""
    a = sorted(sizes)
    out = [tuple(a)]
    while True:
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])
        out.append(tuple(a))


def find_minor_matrix(A: FqMatrix, target: Matroid, budget: int | None = DEFAULT_BUDGET):
    """Search for target as a minor of the column matroid of A; None means
    *absent* (certain), BudgetExceededError *unknown*.

    Witness element indices refer to host columns.
    """
    f = A.field
    q = f.q
    n, m = A.n, A.m
    o = linalg.ops_for(f, m)
    cols = o.cols_of(A)
    r_h = o.rank_cols(cols)
    e_t, r_t = target.ground_size, target.rank
    sizes = [c.bit_count() for c in target.parallel_classes()]
    c_t = len(sizes)

    if e_t > n or r_t > r_h or (e_t - r_t) > (n - r_h):
        return None
    # every minor of M[A] embeds in an r_t-dimensional F_q space, so its
    # parallel classes are distinct projective points of PG(r_t - 1, q)
    if r_t >= 1 and c_t > (q**r_t - 1) // (q - 1):
        return None
    if target.is_free():
        chosen = linalg.leftmost_independent(o, cols, e_t)
        return MinorWitness(frozenset(), frozenset(range(n)) - frozenset(chosen), tuple(chosen))
    if r_h == n:
        return None

    budget_ = _Budget(budget)
    l_t = target.loops().bit_count()
    n_orders = _n_distinct_orders(sizes)
    if n_orders > 1:
        budget_.tick(n_orders - 1)
    size_orders = _distinct_size_orders(sizes)
    n_bases_t = len(target.bases)

    points = [0] + [(q**d - 1) // (q - 1) for d in range(1, r_h + 1)]
    kmax = min(r_h - r_t, n - e_t)
    for k in range(kmax, -1, -1):
        if c_t > points[r_h - k]:
            continue  # quotient cannot host that many distinct directions
        total = math.comb(n, k)
        for idx in _stride_order(total):
            combo = _unrank_combo(idx, n, k)
            budget_.tick()
            ech: list = []
            for j in combo:
                row = o.reduce_pivot(ech, cols[j])
                if row is None:
                    break
                ech.append(row)
            if len(ech) < k:
                continue
            in_c = set(combo)
            survivors = [j for j in range(n) if j not in in_c]
            zero_surv = []
            reps = {}
            dirs: dict = {}
            for j in survivors:
                # a direction is keyed by its coset representative scaled to
                # pivot value 1; scaling a column keeps every rank, so the
                # scaled vector also stands for j in the basis enumeration
                row = o.reduce_pivot(ech, cols[j])
                if row is None:
                    zero_surv.append(j)
                    reps[j] = o.reduce(ech, cols[j])
                else:
                    reps[j] = row[1]
                    dirs.setdefault(row[1], []).append(j)
            if len(zero_surv) < l_t or len(dirs) < c_t:
                continue
            # the key order picks the witness: GF(3) plane pairs sort as
            # the tuples of codes the table backend keyed them by
            dir_keys = sorted(dirs, key=o.order)
            # rank of the whole quotient must allow rank r_t
            if len(linalg.leftmost_independent(o, dir_keys, r_t)) < r_t:
                continue
            witness = _scan_survivor_selections(
                o, target, reps, combo, survivors, zero_surv, dirs, dir_keys,
                l_t, c_t, size_orders, r_t, n_bases_t, budget_,
            )
            if witness is not None:
                return witness
    return None


def _scan_survivor_selections(
    o, target, reps, combo, survivors, zero_surv, dirs, dir_keys,
    l_t, c_t, size_orders, r_t, n_bases_t, budget_,
):
    e_t = target.ground_size
    # charge candidates by the basis-family enumeration they trigger, so a
    # fixed budget bounds actual work for large and small targets alike
    bases_cost = max(1, math.comb(e_t, r_t))
    for loop_pick in itertools.combinations(zero_surv, l_t):
        for key_pick, krank in _ranked_picks(o, dir_keys, c_t):
            budget_.tick()
            # the chosen directions must span exactly rank r_t
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
                    bases = linalg.basis_masks(o, [reps[j] for j in s_list], r_t, n_bases_t + 1)
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


def _ranked_picks(o, keys: list, c: int):
    """Yield (pick, rank) for each c-subset of keys, in the order of
    itertools.combinations(keys, c).

    One triangular echelon follows the walk: a key's row is pushed when the
    walk descends to it and popped when it returns, so each pick costs one
    reduction against the echelon its prefix already built.
    """
    n = len(keys)
    if c > n:
        return
    ech: list = []
    pick: list[int] = []
    pushed: list[bool] = []
    i = 0
    while True:
        while len(pick) < c:
            row = o.reduce_pivot(ech, keys[i])
            if row is not None:
                ech.append(row)
            pushed.append(row is not None)
            pick.append(i)
            i += 1
        yield tuple(keys[j] for j in pick), len(ech)
        # backtrack to the deepest position that can still advance
        while pick:
            j = pick.pop()
            if pushed.pop():
                ech.pop()
            if j < n - c + len(pick):
                i = j + 1
                break
        else:
            return


def verify_witness_matrix(A: FqMatrix, target: Matroid, w: MinorWitness) -> bool:
    """Witness check against a matrix host, by explicit change of basis.

    `linalg.contract` sends the contracted columns to unit vectors, drops
    their rows and keeps the survivors; the resulting column matroid is
    compared with the target under the witness bijection.  Independent of
    the quotient-echelon route the searcher uses.
    """
    survivors = _witness_survivors(A.n, target, w)
    if survivors is None:
        return False
    o = linalg.ops_for(A.field, A.m)
    minor_mat = linalg.contract(o, A, sorted(w.contract), survivors)
    return minor_mat is not None and _is_target(from_matrix(minor_mat), target, survivors, w)


def check_budget(budget: int | None):
    """A search budget is None (unlimited) or at least one work unit."""
    if budget is not None and budget < 1:
        raise BadArgumentsError("budget must be >= 1")


def decide(host, target: Matroid, budget, search, verify):
    """(outcome, witness) of searching host for target: ('found', w) when
    verify accepts w, ('unverified', w) when it rejects it, ('absent', None)
    when there is no such minor, ('unknown', None) when the budget ran out."""
    check_budget(budget)
    try:
        w = search(host, target, budget)
    except BudgetExceededError:
        return "unknown", None
    if w is None:
        return "absent", None
    return ("found" if verify(host, target, w) else "unverified"), w


# ----------------------------------------------------------------------
# excluded-minor class membership
# ----------------------------------------------------------------------


@dataclass
class ExcludedMinorReport:
    class_name: str
    outcomes: dict = dc_field(default_factory=dict)  # target name -> decide outcome
    witnesses: dict = dc_field(default_factory=dict)  # verified witnesses only

    @property
    def membership(self) -> str:
        """'yes' / 'no' / 'unknown' membership in the minor-closed class."""
        if any(v == "found" for v in self.outcomes.values()):
            return "no"
        if all(v == "absent" for v in self.outcomes.values()):
            return "yes"
        return "unknown"


def has_excluded_minor_matrix(A: FqMatrix, class_name: str = "graphic",
                              budget: int | None = DEFAULT_BUDGET,
                              short_circuit: bool = False) -> ExcludedMinorReport:
    """Decide each of the class's excluded minors (Tutte's list for
    'graphic') in a matrix host; membership holds iff every one is absent."""
    if class_name != "graphic":
        raise BadParametersError(f"unknown minor-closed class {class_name!r}")
    report = ExcludedMinorReport(class_name)
    for name in GRAPHIC_EXCLUDED:
        outcome, w = decide(A, catalog(name), budget, find_minor_matrix, verify_witness_matrix)
        report.outcomes[name] = outcome
        if outcome == "found":
            report.witnesses[name] = w
            if short_circuit:
                break
    return report
