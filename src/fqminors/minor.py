"""Minor containment with verifiable witnesses.

Two searchers share the same strategy and witness format:

* `find_minor` works on abstract basis-family matroids (hosts up to 20
  elements, exhaustive within budget, guaranteed exhaustive at ground <= 14
  under the default budget).
* `find_minor_matrix` works directly on a representation matrix, which is
  what the Monte Carlo sweeps need when the host has too many columns to
  enumerate bases for.

Both enumerate contraction sets C restricted to independent sets (standard:
contracting a dependent set equals contracting a maximal independent subset
of it and deleting the rest), largest useful |C| first, i.e. from
min(r(host) - r(target), |host| - |target|) down to 0.  A search that runs
out of budget raises BudgetExceededError: the outcome is *unknown*, which
callers must never conflate with *absent*.

The budget is counted in work units: one per candidate contraction set, one
per direction selection, one per isomorphism invocation, and (in the matrix
searcher) a candidate survivor selection costs as many units as the basis
enumeration it triggers, so a fixed budget bounds actual work even for
large targets.  The matrix searcher also charges one unit for each distinct
order of the target's parallel-class sizes after the first, before it
generates any of them, so no set-up step runs ahead of the budget.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field as dc_field

from . import linalg
from .errors import BadParametersError, BudgetExceededError
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


def _free_witness(ground: int, chosen: list[int]) -> MinorWitness:
    rest = frozenset(range(ground)) - frozenset(chosen)
    return MinorWitness(frozenset(), rest, tuple(sorted(chosen)))


# ----------------------------------------------------------------------
# abstract search
# ----------------------------------------------------------------------


def find_minor(host: Matroid, target: Matroid, budget: int | None = DEFAULT_BUDGET):
    """Search for target as a minor of host; None means *absent* (certain).

    Raises BudgetExceededError when the budget runs out first.
    """
    e_h, e_t = host.ground_size, target.ground_size
    r_h, r_t = host.rank, target.rank
    if e_t > e_h or r_t > r_h or (e_t - r_t) > (e_h - r_h):
        return None
    if target.is_free():
        chosen: list[int] = []
        cur = 0
        for x in range(e_h):
            if len(chosen) == e_t:
                break
            if host.is_independent(cur | (1 << x)):
                cur |= 1 << x
                chosen.append(x)
        return _free_witness(e_h, chosen)
    if host.is_free():
        return None

    budget_ = _Budget(budget)
    n_bases_t = len(target.bases)
    kmax = min(r_h - r_t, e_h - e_t)
    for k in range(kmax, -1, -1):
        for combo in itertools.combinations(range(e_h), k):
            c_mask = _mask_of(combo)
            budget_.tick()
            if not host.is_independent(c_mask):
                continue
            survivors = [x for x in range(e_h) if not (c_mask >> x) & 1]
            for s_combo in itertools.combinations(survivors, e_t):
                budget_.tick()
                s_mask = _mask_of(s_combo)
                rr = host.rank_of(s_mask | c_mask) - k
                if rr != r_t:
                    continue
                bases = []
                for x_combo in itertools.combinations(s_combo, rr):
                    x_mask = _mask_of(x_combo)
                    if host.is_independent(x_mask | c_mask):
                        rel = 0
                        for x in x_combo:
                            rel |= 1 << s_combo.index(x)
                        bases.append(rel)
                if len(bases) != n_bases_t:
                    continue
                minor_m = Matroid(e_t, bases)
                budget_.tick()
                bij = is_isomorphic(target, minor_m)
                if bij is not None:
                    mapping = tuple(s_combo[bij[i]] for i in range(e_t))
                    return MinorWitness(
                        frozenset(combo),
                        frozenset(survivors) - frozenset(s_combo),
                        mapping,
                    )
    return None


def verify_witness(host: Matroid, target: Matroid, w: MinorWitness) -> bool:
    """Recompute the minor named by the witness and compare basis families.

    Deliberately reuses none of the search internals: the minor is built by
    the general contraction/deletion operations.
    """
    c_mask = _mask_of(w.contract)
    d_mask = _mask_of(w.delete)
    if w.contract & w.delete:
        return False
    if (c_mask | d_mask) & ~host.full_mask:
        return False
    survivors = [x for x in range(host.ground_size) if not ((c_mask | d_mask) >> x) & 1]
    if len(survivors) != target.ground_size:
        return False
    if sorted(w.bijection) != survivors:
        return False
    if not host.is_independent(c_mask):
        return False
    minor_m = host.minor(c_mask, d_mask)
    pos = {x: i for i, x in enumerate(survivors)}
    expected = set()
    for b in target.bases:
        mask = 0
        for i in range(target.ground_size):
            if (b >> i) & 1:
                mask |= 1 << pos[w.bijection[i]]
        expected.add(mask)
    return minor_m.bases == frozenset(expected)


# ----------------------------------------------------------------------
# matrix-level search
# ----------------------------------------------------------------------


def _target_profile(target: Matroid):
    classes = target.parallel_classes()
    sizes = sorted((c.bit_count() for c in classes), reverse=True)
    return {
        "e": target.ground_size,
        "r": target.rank,
        "loops": target.loops().bit_count(),
        "n_bases": len(target.bases),
        "class_sizes": sizes,
    }


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
    """Like find_minor but the host is given by a representation matrix.

    Witness element indices refer to host columns.
    """
    f = A.field
    q = f.q
    n, m = A.n, A.m
    o = linalg.ops_for(f, m)
    cols = o.cols_of(A)
    r_h = o.rank_cols(cols)
    e_t, r_t = target.ground_size, target.rank
    prof = _target_profile(target)

    if e_t > n or r_t > r_h or (e_t - r_t) > (n - r_h):
        return None
    # every minor of M[A] embeds in an r_t-dimensional F_q space, so its
    # parallel classes are distinct projective points of PG(r_t - 1, q)
    if r_t >= 1 and len(prof["class_sizes"]) > (q**r_t - 1) // (q - 1):
        return None
    if target.is_free():
        chosen = []
        ech: list = []
        for j in range(n):
            if len(chosen) == e_t:
                break
            if o.insert(ech, cols[j]):
                chosen.append(j)
        return _free_witness(n, chosen)
    if r_h == n:
        return None

    budget_ = _Budget(budget)
    l_t = prof["loops"]
    sizes = prof["class_sizes"]
    c_t = len(sizes)
    n_orders = _n_distinct_orders(sizes)
    if n_orders > 1:
        budget_.tick(n_orders - 1)
    size_orders = _distinct_size_orders(sizes)
    n_bases_t = prof["n_bases"]

    points = [0] + [(q**d - 1) // (q - 1) for d in range(1, r_h + 1)]
    kmax = min(r_h - r_t, n - e_t)
    for k in range(kmax, -1, -1):
        if c_t > points[r_h - k]:
            continue  # quotient cannot host that many distinct directions
        total = math.comb(n, k)
        for idx in _stride_order(total):
            combo = _unrank_combo(idx, n, k)
            budget_.tick()
            # a triangular echelon is enough: reducing by it leaves the unique
            # coset representative that is zero at every pivot, the same
            # vector a fully reduced echelon gives
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
            dir_keys = sorted(dirs)
            # rank of the whole quotient must allow rank r_t
            qech: list = []
            for key in dir_keys:
                row = o.reduce_pivot(qech, key)
                if row is not None:
                    qech.append(row)
                    if len(qech) >= r_t:
                        break
            if len(qech) < r_t:
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
                    bases = _basis_masks(o, [reps[j] for j in s_list], r_t, n_bases_t + 1)
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


def _basis_masks(o, vecs: list, r: int, stop: int) -> list[int]:
    """Masks of the independent r-subsets of vecs, in the order of
    itertools.combinations(range(len(vecs)), r), at most `stop` of them.

    Depth-first over one triangular echelon; a dependent prefix is pruned
    with every subset that extends it.
    """
    if r == 0:
        return [0]
    n = len(vecs)
    out: list[int] = []
    ech: list = []

    def walk(start: int, mask: int) -> bool:
        last = len(ech) + 1 == r
        for i in range(start, n - r + len(ech) + 1):
            row = o.reduce_pivot(ech, vecs[i])
            if row is None:
                continue
            if last:
                out.append(mask | 1 << i)
                if len(out) == stop:
                    return True
            else:
                ech.append(row)
                done = walk(i + 1, mask | 1 << i)
                ech.pop()
                if done:
                    return True
        return False

    walk(0, 0)
    return out


def verify_witness_matrix(A: FqMatrix, target: Matroid, w: MinorWitness) -> bool:
    """Witness check against a matrix host, by explicit change of basis.

    Builds P sending the contracted columns to unit vectors, applies it,
    drops the pivot rows, and compares the resulting column matroid with the
    target under the witness bijection.  Independent of the quotient-echelon
    route the searcher uses.
    """
    n, m = A.n, A.m
    if w.contract & w.delete:
        return False
    named = w.contract | w.delete
    if named and (min(named) < 0 or max(named) >= n):
        return False
    survivors = [j for j in range(n) if j not in named]
    if len(survivors) != target.ground_size:
        return False
    if sorted(w.bijection) != survivors:
        return False
    o = linalg.ops_for(A.field, m)
    cols = o.cols_of(A)
    c_list = sorted(w.contract)
    c_cols = [cols[j] for j in c_list]
    if o.rank_cols(c_cols) != len(c_list):
        return False
    k = len(c_list)
    basis = linalg.complete_to_basis(o, c_cols)
    p_rows = o.inverse_rows(basis)
    for pos, j in enumerate(c_list):
        coords = [o.dot(p_rows[i], cols[j]) for i in range(m)]
        if coords != [1 if i == pos else 0 for i in range(m)]:
            return False
    entries = []
    for i in range(k, m):
        for j in survivors:
            entries.append(o.dot(p_rows[i], cols[j]))
    minor_mat = FqMatrix(A.field, m - k, len(survivors), tuple(entries))
    minor_m = from_matrix(minor_mat)
    pos_of = {x: i for i, x in enumerate(survivors)}
    expected = set()
    for b in target.bases:
        mask = 0
        for i in range(target.ground_size):
            if (b >> i) & 1:
                mask |= 1 << pos_of[w.bijection[i]]
        expected.add(mask)
    return minor_m.bases == frozenset(expected)


# ----------------------------------------------------------------------
# excluded-minor class membership
# ----------------------------------------------------------------------


@dataclass
class ExcludedMinorReport:
    class_name: str
    outcomes: dict = dc_field(default_factory=dict)  # target name -> found/absent/unknown
    witnesses: dict = dc_field(default_factory=dict)

    @property
    def membership(self) -> str:
        """'yes' / 'no' / 'unknown' membership in the minor-closed class."""
        if any(v == "found" for v in self.outcomes.values()):
            return "no"
        if all(v == "absent" for v in self.outcomes.values()):
            return "yes"
        return "unknown"


def _excluded_targets(class_name: str) -> tuple[str, ...]:
    if class_name != "graphic":
        raise BadParametersError(f"unknown minor-closed class {class_name!r}")
    return GRAPHIC_EXCLUDED


def has_excluded_minor(host: Matroid, class_name: str = "graphic",
                       budget: int | None = DEFAULT_BUDGET,
                       short_circuit: bool = False) -> ExcludedMinorReport:
    """Run find_minor against the class's excluded minors (Tutte's list for
    'graphic'); membership holds iff none is found."""
    report = ExcludedMinorReport(class_name)
    for name in _excluded_targets(class_name):
        target = catalog(name)
        try:
            w = find_minor(host, target, budget)
        except BudgetExceededError:
            report.outcomes[name] = "unknown"
            continue
        if w is not None and verify_witness(host, target, w):
            report.outcomes[name] = "found"
            report.witnesses[name] = w
            if short_circuit:
                break
        else:
            report.outcomes[name] = "absent" if w is None else "unknown"
    return report


def has_excluded_minor_matrix(A: FqMatrix, class_name: str = "graphic",
                              budget: int | None = DEFAULT_BUDGET,
                              short_circuit: bool = False) -> ExcludedMinorReport:
    """Matrix-host twin of has_excluded_minor for hosts with many columns."""
    report = ExcludedMinorReport(class_name)
    for name in _excluded_targets(class_name):
        target = catalog(name)
        try:
            w = find_minor_matrix(A, target, budget)
        except BudgetExceededError:
            report.outcomes[name] = "unknown"
            continue
        if w is not None and verify_witness_matrix(A, target, w):
            report.outcomes[name] = "found"
            report.witnesses[name] = w
            if short_circuit:
                break
        else:
            report.outcomes[name] = "absent" if w is None else "unknown"
    return report
