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
  fixed budget bounds actual work even for large targets.  Selections that
  differ only in the members they pick from a direction class, or in
  which zero survivors play the target's loops, have the same vectors in
  another order, so each such set is scored once and its other
  selections are charged as before, in one tick.  It also charges
  one unit for each distinct order of the target's parallel-class sizes
  after the first, before it generates any of them, so no set-up step runs
  ahead of the budget.
  Over GF(2) only the first PER_SET contraction sets of each size are
  reduced one at a time; the later ones are screened in numpy batches
  (`_screened_sets`, one `linalg.gf2_coset_reps` per batch) that drop the
  sets that are dependent or leave too few zero or distinct survivors,
  and the sets that pass go through the same per-set checks and scan.
  Most searches end within a few sets, where a batch's fixed cost of
  about |C| numpy calls would dominate.  A batch holds at most the units
  left + 1 sets and each set is still charged one unit, the dropped ones
  in one tick, so every witness, outcome and budget spent is the per-set
  path's.
* `find_minor` is the brute-force reference on abstract basis-family
  matroids: every (C, D) pair, dependent C included, then isomorphism, at
  one budget unit per pair.  The exact oracle and the `validate` agreement
  check run it.

A search that runs out of budget raises BudgetExceededError: the outcome is
*unknown*, which callers must never conflate with *absent*.  So does a
target one of whose survivor selections would cost more than the whole
budget, before its basis family is scanned.  Each searcher has its own
verifier: `verify_witness_matrix` shares none of the matrix search's
internals, and `verify_witness` checks C's independence and the witness
bijection, which the reference's isomorphism test does not.
`verify_witness_stack` gives `verify_witness_matrix`'s verdicts on the
witnesses of a stack of GF(2) hosts, contracting each witness's own host
by one numpy elimination per contraction size (`linalg.gf2_contract`),
which shares no code with the search either.

`search` runs `find_minor_matrix` and `outcome` classifies what it gave,
once the witness is checked: `found` (witness verified), `absent`,
`unknown` (budget ran out) or `unverified` (a witness that failed its
independent check, never counted as found).  `decide` is the two with
`verify_witness_matrix` on one host, for the `minor` and `class` commands
and the Monte Carlo trials over fields other than GF(2); GF(2) trials
check their witnesses by `verify_witness_stack` (`sampler.search_chunk`).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import linalg
from .errors import BadArgumentsError, BudgetExceededError
from .gf import field
from .matrix import FqMatrix
from .matroid import Matroid, catalog, from_matrix, is_isomorphic

DEFAULT_BUDGET = 10_000_000

GRAPHIC_EXCLUDED = ("U:2,4", "F7", "F7*", "MK5*", "MK33*")

# A GF(2) search screens the first PER_SET contraction sets of each size
# one at a time and the rest in numpy batches of FIRST_BATCH sets, doubling
# up to MAX_BATCH: most searches end within a few sets, and a batch costs
# about |C| numpy calls however few of its sets are needed.  Batches of 512
# were no faster than 256 on the class sweep and held about 0.3 MB more.
PER_SET = 16
FIRST_BATCH = 32
MAX_BATCH = 256


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


class _Budget:
    __slots__ = ("spent", "limit")

    def __init__(self, units):
        self.spent = 0
        self.limit = math.inf if units is None else int(units)

    def tick(self, cost: int = 1):
        self.spent += cost
        if self.spent > self.limit:
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


def _combo_table(n: int, k: int) -> list[list[int]]:
    """table[i][x] = C(n - x - 1, k - i - 1): the number of k-subsets of
    range(n) whose element i is x, given the elements before it, that
    `_unrank_with` skips past."""
    return [[math.comb(n - x - 1, k - i - 1) for x in range(n)] for i in range(k)]


def _unrank_with(idx: int, table: list[list[int]]) -> tuple[int, ...]:
    """`_unrank_combo` by lookups in `_combo_table(n, k)`: cheaper per
    set once the table is paid for."""
    out = []
    x = 0
    for skip in table:
        while idx >= skip[x]:
            idx -= skip[x]
            x += 1
        out.append(x)
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


def _is_target(minor_m: Matroid, target: Matroid, survivors: list[int], bijection) -> bool:
    """Whether minor_m, whose element i is survivors[i], has the target's
    basis family under the witness bijection."""
    pos = {x: i for i, x in enumerate(survivors)}
    expected = set()
    for b in target.bases:
        mask = 0
        for i in range(target.ground_size):
            if (b >> i) & 1:
                mask |= 1 << pos[bijection[i]]
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
    return _is_target(host.minor(c_mask, _mask_of(w.delete)), target, survivors, w.bijection)


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


def find_minor_matrix(A: FqMatrix, target: Matroid, budget: int | None = DEFAULT_BUDGET,
                      r_h: int | None = None):
    """Search for target as a minor of the column matroid of A; None means
    *absent* (certain), BudgetExceededError *unknown*.  `r_h`, when given,
    is A's rank, which the search then does not recompute.

    Witness element indices refer to host columns.
    """
    f = A.field
    q = f.q
    n, m = A.n, A.m
    o = linalg.ops_for(f, m)
    cols = o.cols_of(A)
    if r_h is None:
        r_h = o.rank_cols(cols)
    e_t, r_t = target.ground_size, target.rank
    # the size checks first: they read no basis family
    if e_t > n or r_t > r_h or (e_t - r_t) > (n - r_h):
        return None
    if target.is_free():
        chosen = linalg.leftmost_independent(o, cols, e_t)
        return MinorWitness(frozenset(), frozenset(range(n)) - frozenset(chosen), tuple(chosen))
    if r_h == n:
        return None
    budget_ = _Budget(budget)
    # every survivor selection costs C(e_t, r_t) units, so past the whole
    # budget no witness can be paid for: unknown, before the target's
    # basis family is scanned
    if math.comb(e_t, r_t) > budget_.limit:
        raise BudgetExceededError("minor search budget exhausted")
    sizes = [c.bit_count() for c in target.parallel_classes()]
    c_t = len(sizes)
    # every minor of M[A] embeds in an r_t-dimensional F_q space, so its
    # parallel classes are distinct projective points of PG(r_t - 1, q)
    if r_t >= 1 and c_t > (q**r_t - 1) // (q - 1):
        return None

    l_t = target.loops().bit_count()
    n_orders = _n_distinct_orders(sizes)
    if n_orders > 1:
        budget_.tick(n_orders - 1)
    size_orders = _distinct_size_orders(sizes)
    n_bases_t = len(target.bases)

    def consider(combo, survivors, reps, zero_surv, dirs):
        """The first witness contracting combo, given each survivor's
        representative (reps), those that are zero and the direction
        classes of the others, or None."""
        if len(zero_surv) < l_t or len(dirs) < c_t:
            return None
        # the key order picks the witness: GF(3) plane pairs sort as the
        # tuples of codes the table backend keyed them by.  The keys span
        # the quotient by C, of rank r_h - k >= r_t: no rank check needed
        dir_keys = sorted(dirs, key=o.order)
        return _scan_survivor_selections(
            o, target, reps, combo, survivors, zero_surv, dirs, dir_keys,
            l_t, c_t, size_orders, r_t, n_bases_t, budget_,
        )

    points = [0] + [(q**d - 1) // (q - 1) for d in range(1, r_h + 1)]
    zero = o.encode((0,) * m)  # what a survivor in the span of C reduces to
    words = None  # the host's column words, for the batched GF(2) screen
    kmax = min(r_h - r_t, n - e_t)
    for k in range(kmax, -1, -1):
        if c_t > points[r_h - k]:
            continue  # quotient cannot host that many distinct directions
        order = _stride_order(math.comb(n, k))
        for idx in itertools.islice(order, PER_SET if q == 2 else None):
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
                    reps[j] = zero
                else:
                    reps[j] = row[1]
                    dirs.setdefault(row[1], []).append(j)
            witness = consider(combo, survivors, reps, zero_surv, dirs)
            if witness is not None:
                return witness
        if q != 2:
            continue
        if words is None:
            words = linalg.int_words(cols, max(1, -(-m // 64)))
        for screened in _screened_sets(order, words, k, l_t, c_t, budget_):
            witness = consider(*screened)
            if witness is not None:
                return witness
    return None


def _screened_sets(order, words: np.ndarray, k: int, l_t: int, c_t: int, budget_):
    """Yield (combo, survivors, reps, zero_surv, dirs), as the per-set path
    of `find_minor_matrix` builds them, for each k-set of the GF(2) host
    with column words `words` whose ranks come next from `order` and that
    may give a witness: one whose columns are independent and leave at
    least l_t zero survivors and c_t distinct nonzero ones.

    The sets are drawn in batches of FIRST_BATCH, twice that, ... up to
    MAX_BATCH, each at most the units left + 1, so the budget bounds the
    work, and a batch is reduced by one `linalg.gf2_coset_reps`.  Each set
    costs the unit the per-set path charges it: the sets dropped before a
    passing one are charged with it in one tick, the rest at the end of
    the batch, so every witness is found at the same `spent`."""
    n, width = words.shape
    table = _combo_table(n, k)
    size = FIRST_BATCH
    while True:
        ranks = list(itertools.islice(order, min(size, budget_.limit - budget_.spent + 1)))
        if not ranks:
            return
        size = min(2 * size, MAX_BATCH)
        count = len(ranks)
        combos = [_unrank_with(idx, table) for idx in ranks]
        flat = np.fromiter(itertools.chain.from_iterable(combos), np.int64, count * k)
        independent, reps = linalg.gf2_coset_reps(np.broadcast_to(words, (count, n, width)),
                                                  flat.reshape(count, k))
        zeros = n - reps.any(axis=2).sum(axis=1)
        # C's own columns reduce to zero, so the survivors hold zeros - k
        # zeros and every distinct nonzero representative; a column of
        # several words sorts as one key through a void view of them
        keys = reps[:, :, 0] if width == 1 else reps.view(np.dtype((np.void, 8 * width)))[:, :, 0]
        keys = np.sort(keys, axis=1)
        distinct = 1 + (keys[:, 1:] != keys[:, :-1]).sum(axis=1) - (zeros > 0)
        charged = 0
        for b in np.flatnonzero(independent & (zeros - k >= l_t) & (distinct >= c_t)).tolist():
            budget_.tick(b + 1 - charged)
            charged = b + 1
            combo = combos[b]
            survivors = [j for j in range(n) if j not in combo]
            ints = linalg.word_ints(reps[b])
            zero_surv = []
            survivor_reps = {}
            dirs: dict = {}
            for j in survivors:
                survivor_reps[j] = v = ints[j]
                if v:
                    dirs.setdefault(v, []).append(j)
                else:
                    zero_surv.append(j)
            yield combo, survivors, survivor_reps, zero_surv, dirs
        if count > charged:
            budget_.tick(count - charged)


def _scan_survivor_selections(
    o, target, reps, combo, survivors, zero_surv, dirs, dir_keys,
    l_t, c_t, size_orders, r_t, n_bases_t, budget_,
):
    """The first witness among the survivor selections of one contraction:
    l_t zero survivors to play the loops and, for each c_t-subset of the
    directions that spans rank r_t and each size order, that many members
    of each chosen direction's class.

    Every member of a class reduces to the class's key and every zero
    survivor to zero, so two selections that differ only in the members
    or the zero survivors they take give the same vectors in another
    order: the same minor up to relabelling, with the same basis count
    and the same isomorphism verdict.  So only the first of such equal
    siblings, the one itertools would visit first, is scored, and when it
    gives no witness the others are charged in one tick what scoring each
    would have cost.  Charges only grow and no sibling could return a
    witness, so the witness, the outcome and the budget spent are those
    of scoring every selection in turn."""
    e_t = target.ground_size
    # charge candidates by the basis-family enumeration they trigger, so a
    # fixed budget bounds actual work for large and small targets alike
    bases_cost = max(1, math.comb(e_t, r_t))
    loop_pick = tuple(zero_surv[:l_t])
    spent = budget_.spent
    for pick, krank in _ranked_picks(o, dir_keys, c_t):
        budget_.tick()
        # the chosen directions must span exactly rank r_t
        if krank != r_t:
            continue
        classes = [dirs[dir_keys[i]] for i in pick]
        for order in size_orders:
            picks = math.prod(math.comb(len(cls), s) for cls, s in zip(classes, order))
            if picks == 0:
                continue
            budget_.tick(bases_cost)
            s_list = sorted(loop_pick + tuple(j for cls, s in zip(classes, order)
                                              for j in cls[:s]))
            bases = linalg.basis_masks(o, [reps[j] for j in s_list], r_t, n_bases_t + 1)
            cost = bases_cost
            if len(bases) == n_bases_t:
                budget_.tick()
                bij = is_isomorphic(target, Matroid(e_t, bases))
                if bij is not None:
                    return MinorWitness(
                        frozenset(combo),
                        frozenset(survivors) - frozenset(s_list),
                        tuple(s_list[bij[i]] for i in range(e_t)),
                    )
                cost += 1
            if picks > 1:
                budget_.tick((picks - 1) * cost)
    loop_picks = math.comb(len(zero_surv), l_t)
    if loop_picks > 1:
        budget_.tick((loop_picks - 1) * (budget_.spent - spent))
    return None


def _ranked_picks(o, keys: list, c: int):
    """Yield (pick, rank) for each c-subset of keys, as the tuple of its
    indices into keys, in the order of
    itertools.combinations(range(len(keys)), c).

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
        yield tuple(pick), len(ech)
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
    """Witness check against a matrix host, by explicit contraction.

    `linalg.contract` pivots on the contracted columns by one Gauss-Jordan
    pass, drops their rows and keeps the survivors; the resulting column
    matroid is compared with the target under the witness bijection.
    Independent of the quotient-echelon route the searcher uses.
    """
    survivors = _witness_survivors(A.n, target, w)
    if survivors is None:
        return False
    o = linalg.ops_for(A.field, A.m)
    minor_mat = linalg.contract(o, A, sorted(w.contract), survivors)
    return minor_mat is not None and _is_target(from_matrix(minor_mat), target, survivors,
                                                w.bijection)


def verify_witness_stack(words, n: int, target: Matroid, witnesses: dict) -> dict:
    """`verify_witness_matrix`'s verdict on each witnesses[t], found on the
    GF(2) host of n columns whose row words (`linalg.pack_stack`) are
    words[t], as host -> verdict.  A witness that does not name the
    target's survivors fails at once; the others are grouped by |C|, each
    group's hosts are contracted on their own C by one
    `linalg.gf2_contract`, and each contraction is compared with the
    target as `verify_witness_matrix` compares it."""
    f2 = field(2)
    m, e_t = words.shape[1], target.ground_size
    verdicts = {}
    groups: dict = {}  # |C| -> [(host, sorted C, survivors, bijection)]
    for t, w in witnesses.items():
        survivors = _witness_survivors(n, target, w)
        if survivors is None:
            verdicts[t] = False
        else:
            groups.setdefault(len(w.contract), []).append(
                (t, sorted(w.contract), survivors, w.bijection))
    for k, group in groups.items():
        hosts, chosen, keep, _ = zip(*group)
        ok, minors = linalg.gf2_contract(
            words[list(hosts)], np.array(chosen, dtype=np.int64).reshape(len(group), k),
            np.array(keep, dtype=np.int64).reshape(len(group), e_t))
        for t in itertools.compress(hosts, ~ok):
            verdicts[t] = False
        for (t, _, survivors, bijection), bits in zip(itertools.compress(group, ok), minors):
            minor_m = from_matrix(FqMatrix(f2, m - k, e_t, tuple(bits.ravel().tolist())))
            verdicts[t] = _is_target(minor_m, target, survivors, bijection)
    return verdicts


def check_budget(budget: int | None):
    """A search budget is None (unlimited) or at least one work unit."""
    if budget is not None and budget < 1:
        raise BadArgumentsError("budget must be >= 1")


def search(A: FqMatrix, target: Matroid, budget, r_h: int | None = None):
    """(status, witness) of `find_minor_matrix` on the matrix host A:
    ('witness', w) for the witness it found, not yet verified, ('absent',
    None) when there is no such minor, ('unknown', None) when the budget
    ran out.  `r_h`, when given, is A's rank."""
    check_budget(budget)
    try:
        w = find_minor_matrix(A, target, budget, r_h=r_h)
    except BudgetExceededError:
        return "unknown", None
    return ("absent", None) if w is None else ("witness", w)


def outcome(status: str, verified: bool) -> str:
    """The outcome of a search with that `search` status: a witness is
    'found' when its independent check accepted it and 'unverified' when
    not; 'absent' and 'unknown' stay as they are."""
    if status != "witness":
        return status
    return "found" if verified else "unverified"


def decide(A: FqMatrix, target: Matroid, budget):
    """(outcome, witness) of searching the matrix host A for target by
    `find_minor_matrix`: ('found', w) when `verify_witness_matrix` accepts
    w, ('unverified', w) when it rejects it, ('absent', None) when there is
    no such minor, ('unknown', None) when the budget ran out."""
    status, w = search(A, target, budget)
    return outcome(status, w is not None and verify_witness_matrix(A, target, w)), w


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


def excluded_minors(class_name: str) -> tuple[tuple[str, Matroid], ...]:
    """(name, matroid) of each of the class's excluded minors, in the order
    they are decided (Tutte's list for 'graphic'); an unknown class is a
    usage error, raised before any host is searched."""
    if class_name != "graphic":
        raise BadArgumentsError(f"unknown minor-closed class {class_name!r}")
    return tuple((name, catalog(name)) for name in GRAPHIC_EXCLUDED)


def has_excluded_minor_matrix(A: FqMatrix, class_name: str = "graphic",
                              budget: int | None = DEFAULT_BUDGET,
                              short_circuit: bool = False) -> ExcludedMinorReport:
    """Decide each of the class's `excluded_minors` in a matrix host;
    membership holds iff every one is absent."""
    report = ExcludedMinorReport(class_name)
    for name, target in excluded_minors(class_name):
        outcome, w = decide(A, target, budget)
        report.outcomes[name] = outcome
        if outcome == "found":
            report.witnesses[name] = w
            if short_circuit:
                break
    return report
