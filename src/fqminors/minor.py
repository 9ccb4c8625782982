"""Minor containment with verifiable witnesses.

One searcher and one reference, with the same witness format:

* `find_minor_matrix` is the searcher the `minor`, `class` and `simulate`
  commands run.  It works directly on a representation matrix and
  enumerates contraction sets C restricted to independent sets (standard:
  contracting a dependent set equals contracting a maximal independent
  subset of it and deleting the rest) of the one size a witness can
  have, |C| = r(host) - r(target): every minor is M/C\\D with C
  independent and D coindependent (Oxley, Matroid Theory, Lemma 3.3.2),
  so the target is absent once the sets of that size are exhausted.  Its
  budget counts work units: one per candidate contraction set, one per
  direction selection, one per isomorphism test, and a candidate
  survivor selection costs as many units as the basis enumeration it
  triggers, so a fixed budget bounds actual work even for large targets.
  The enumeration itself stops at its verdict (`linalg.basis_masks` with
  the target's basis count), and the selection is still charged its
  units, so the units spent are those of a whole enumeration.
  A basis family that matched the target once is not tested again on the
  same `_Plan` (`_Plan.matched`), but its test is still charged its unit,
  so the units spent are those of testing it every time.
  It also charges one unit for each distinct order of the target's
  parallel-class sizes after the first, before it generates any of them,
  so no set-up step runs ahead of the budget.
  Its set-up, everything before the first contraction set, depends only
  on the target and the host's field, size and rank (`_set_up`, giving a
  `_Plan`); the sets themselves are screened per host (`_search_sets`).
  Every set is scored by one method, `_Plan.score`, from its survivors'
  coset representatives: selections that differ only in the members
  they pick from a direction class, or in which zero survivors play the
  target's loops, are scored once and charged in one tick, and the
  direction selections are walked with one echelon shared along their
  prefixes (`_ranked_picks`), those of a rank other than r_t dropped
  and charged in bulk.  A lone host's sets are reduced one at a time
  (`reduce_pivot`), on every field.
* `search_stack` runs that search on a whole stack of GF(2) hosts, from
  their column words.  Hosts of equal rank share one set-up and visit
  the same sets in the same order, so one function, `_screen_rounds`,
  screens all their sets together.  A round takes the next sets, unranks
  each once and reduces every (host, set) pair by one
  `linalg.gf2_coset_reps`; the pairs whose set is dependent or leaves
  too few zero or distinct survivors are dropped, and each host scores
  the rest by `_Plan.score`, the round reading its passing pairs in one
  pass (one `np.nonzero`, one `linalg.word_ints`).  A round holds at
  most the fewest units left + 1 sets per host and each set is still
  charged one unit, the dropped ones in one tick, so the budget bounds
  the work and every witness, outcome and unit spent is the per-set
  path's.
* `find_minor` is the brute-force reference on abstract basis-family
  matroids: every (C, D) pair, dependent C included, then isomorphism, at
  one budget unit per pair.  The exact oracle and the `validate` agreement
  check run it.

A search that runs out of budget raises BudgetExceededError: the outcome is
*unknown*, which callers must never conflate with *absent*.  So does a
target one of whose survivor selections would cost more than the whole
budget, before its basis family is scanned.  Each searcher has its own
verifier, and all apply one witness rule: C, D and the bijection name
each host element once (`_names_survivors`), C is independent, and the
minor with its survivors in bijection order has the target's bases.
`verify_witness_matrix` contracts by `linalg.contract`, which shares none
of the matrix search's internals; `verify_witness` checks C's
independence and the bijection, which the reference's isomorphism test
does not.  `verify_witness_stack` gives `verify_witness_matrix`'s
verdicts on the witnesses of a stack of GF(2) hosts: it keeps those that
pass `_names_survivors`, groups them by |C|, contracts each witness's own
host by one numpy elimination per group (`linalg.gf2_contract`), which
shares no code with the search either, and builds one matroid per
distinct contraction to compare with the target.

`search` runs `find_minor_matrix` and returns its status, its witness
and the units it spent (`_Budget.spent`: budget + 1 when a charge ran
out, the unit at which charging one unit at a time would have stopped,
however large the charge); `search_stack` returns the same per host.
`outcome` classifies a status once the witness is checked: `found` (witness
verified), `absent`, `unknown` (budget ran out) or `unverified` (a
witness that failed its independent check, never counted as found).
`decide` is the two with `verify_witness_matrix` on one host, for the
`minor` command and, through `has_excluded_minor_matrix`, `class` and
the Monte Carlo trials over other fields than GF(2); `decide_stack` is
its stacked twin for GF(2) trials (`sampler.search_chunk`), through
`search_stack` and `verify_witness_stack` on the words it packs from
the trials' sampled entries.  `membership` reads a host's outcomes for a
class's excluded minors as 'yes', 'no' or 'unknown', for `class` and for
every Monte Carlo estimate (`sampler.mc_any_minor_prob`), a minor being
the one excluded minor of its class.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import linalg
from .errors import BadArgumentsError, BudgetExceededError
from .formulas import projective_points
from .gf import field
from .matrix import FqMatrix
from .matroid import Matroid, catalog, from_matrix, is_isomorphic, mapped_mask

DEFAULT_BUDGET = 10_000_000

GRAPHIC_EXCLUDED = ("U:2,4", "F7", "F7*", "MK5*", "MK33*")

# A stack's hosts are screened in rounds of at most MAX_PAIRS (host, set)
# pairs, or one set for each open host when they are more (`_screen_rounds`).
MAX_PAIRS = 256


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
        """Charge cost units.  A charge that runs out leaves spent at
        limit + 1, where charging its units one at a time would have
        raised, so a bulk charge reports what unit ticks report."""
        self.spent += cost
        if self.spent > self.limit:
            self.spent = self.limit + 1
            raise BudgetExceededError("minor search budget exhausted")


def _unrank_combo(idx: int, n: int, k: int) -> tuple[int, ...]:
    """Lexicographic unranking of k-subsets of range(n).  C(a, b) of the
    sets left pick x = n - 1 - a next, b being the picks after x: one
    `math.comb` per set, then exact ratio steps, C(a - 1, b) =
    C(a, b) (a - b) / a past x and C(a - 1, b - 1) = C(a, b) b / a after
    picking it."""
    if not k:
        return ()
    out = []
    a, b = n - 1, k - 1
    c = math.comb(a, b)
    while True:
        if idx < c:
            out.append(n - 1 - a)
            if not b:
                return tuple(out)
            c = c * b // a
            b -= 1
        else:
            idx -= c
            c = c * (a - b) // a
        a -= 1


def _stride_order(total: int):
    """Visit 0..total-1 exactly once in a decorrelated deterministic order.

    Lexicographic neighbors differ in one element and give nearly identical
    contractions; a golden-ratio stride spreads attempts across the space
    while remaining exhaustive and reproducible.
    """
    step = max(1, round(total * 0.6180339887498949))
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


def _names_survivors(n: int, e_t: int, w: MinorWitness) -> bool:
    """Whether C, D and the bijection of w name each host element 0..n-1
    once, the bijection e_t of them: the witness rule of every verifier."""
    named = sorted([*w.contract, *w.delete, *w.bijection])
    return len(w.bijection) == e_t and named == list(range(n))


def verify_witness(host: Matroid, target: Matroid, w: MinorWitness) -> bool:
    """Recompute the minor named by the witness and compare basis families
    under the witness bijection, target element i becoming the rank of
    bijection[i] among the survivors; C must be independent."""
    if not _names_survivors(host.ground_size, target.ground_size, w):
        return False
    c_mask = _mask_of(w.contract)
    if not host.is_independent(c_mask):
        return False
    rank = {x: i for i, x in enumerate(sorted(w.bijection))}
    mapping = [rank[x] for x in w.bijection]
    return (host.minor(c_mask, _mask_of(w.delete)).bases
            == frozenset(mapped_mask(b, mapping) for b in target.bases))


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


class _Plan:
    """What `find_minor_matrix` sets up for one target before it screens
    any contraction set, the same for every host of n columns and rank
    r_h over GF(q) (`_set_up`): the target's sizes and parallel-class
    size orders, and the one contraction size `k` the search visits.  A
    host's own search is `_search_sets` on its columns and budget, and
    `score` scores one of its contraction sets.

    `matched` maps each basis family a survivor selection matched the
    target on, as `linalg.basis_masks` lists it, to `is_isomorphic`'s
    bijection for it; a host leaves its search at its first witness, so
    it holds at most one family per host that found one, the hosts of a
    stack's rank group sharing the plan.  Families that did not match are
    not kept: a search may test as many as its budget pays for."""

    def __init__(self, n: int, r_h: int, target: Matroid, sizes: list[int]):
        self.n, self.target = n, target
        self.e_t, self.r_t = target.ground_size, target.rank
        self.l_t = target.loops().bit_count()
        self.sizes = sizes
        self.c_t = len(sizes)
        self.n_orders = _n_distinct_orders(sizes)
        self.size_orders = None  # built by the first `charge`
        self.n_bases_t = len(target.bases)
        # matched basis family -> is_isomorphic's bijection, positives only
        self.matched: dict = {}
        # every witness contracts an independent set of r_h - r_t columns
        # (Oxley, Lemma 3.3.2), the one size searched; `_set_up` checked
        # e_t - r_t <= n - r_h, so k + e_t <= n.  The quotient by C has
        # rank r_t, so it has room for the c_t distinct directions
        # whenever PG(r_t - 1, q) has, which `_set_up` checked too
        self.k = r_h - self.r_t

    def charge(self, budget_: _Budget):
        """Charge a host's search one unit per size order after the first,
        then build the orders, once per plan: no order is generated before
        a budget has paid for it."""
        budget_.tick(self.n_orders - 1)
        if self.size_orders is None:
            self.size_orders = _distinct_size_orders(self.sizes)

    def score(self, o, budget_: _Budget, combo, reps):
        """The first witness contracting the independent set combo, or
        None, given each survivor j's coset representative reps[j] modulo
        the span of combo: the backend's zero vector when j lies in that
        span, else scaled to pivot value 1 (`reduce_pivot`).

        The survivors that reduce to zero can play the target's loops, and
        the others fall into direction classes keyed by their
        representatives.  A survivor selection takes l_t zero survivors
        and, for each c_t-subset of the directions that spans rank r_t and
        each size order, that many members of each chosen direction's
        class.  `_ranked_picks` yields only the subsets of rank r_t and
        charges one unit for every subset it passes, the pruned ones in
        bulk, so each yielded subset is charged at the unit a walk over all
        of them would charge it.

        Every member of a class reduces to the class's key and every zero
        survivor to zero, so two selections that differ only in the members
        or the zero survivors they take give the same vectors in another
        order: the same minor up to relabelling, with the same basis count
        and the same isomorphism verdict.  So only the first of such equal
        siblings, the one itertools would visit first, is scored, and when
        it gives no witness the others are charged in one tick what scoring
        each would have cost.  Charges only grow and no sibling could return
        a witness, so the witness, the outcome and the budget spent are
        those of scoring every selection in turn.

        A selection's basis walk is `linalg.basis_masks` with the
        target's basis count: it stops at its verdict, at one basis too
        many or at too many dependent subsets, and gives None for any
        other count.  Only the verdict moves the scan, and the selection
        is charged its C(e_t, r_t) units however early the walk stopped,
        so the units spent are those of a whole walk.

        The isomorphism test of a selection whose basis family is in
        `matched` reads its bijection from there, after charging the test's
        unit as a fresh test would: the verdict depends only on the family,
        and the witness maps the bijection through this selection's own
        survivors, so the witness and the units spent do not change."""
        in_c = set(combo)
        survivors = [j for j in range(self.n) if j not in in_c]
        zero = o.encode((0,) * o.m)
        zero_surv = []
        dirs: dict = {}
        for j in survivors:
            if reps[j] == zero:
                zero_surv.append(j)
            else:
                dirs.setdefault(reps[j], []).append(j)
        l_t, c_t, r_t, e_t = self.l_t, self.c_t, self.r_t, self.e_t
        if len(zero_surv) < l_t or len(dirs) < c_t:
            return None
        # the key order picks the witness: GF(3) plane pairs sort as the
        # tuples of codes the table backend keyed them by.  The keys span
        # the quotient by C, of rank r_h - k = r_t: no rank check needed
        dir_keys = sorted(dirs, key=o.order)
        # charge candidates by the basis-family enumeration they trigger, so
        # a fixed budget bounds actual work for large and small targets alike
        bases_cost = math.comb(e_t, r_t)
        loop_pick = tuple(zero_surv[:l_t])
        spent = budget_.spent
        for pick in _ranked_picks(o, dir_keys, c_t, r_t, budget_):
            classes = [dirs[dir_keys[i]] for i in pick]
            for order in self.size_orders:
                picks = math.prod(math.comb(len(cls), s) for cls, s in zip(classes, order))
                if picks == 0:
                    continue
                budget_.tick(bases_cost)
                s_list = sorted(loop_pick + tuple(j for cls, s in zip(classes, order)
                                                  for j in cls[:s]))
                bases = linalg.basis_masks(o, [reps[j] for j in s_list], r_t, self.n_bases_t)
                cost = bases_cost
                if bases is not None:
                    budget_.tick()
                    key = tuple(bases)
                    bij = self.matched.get(key)
                    if bij is None:
                        bij = is_isomorphic(self.target, Matroid(e_t, bases))
                    if bij is not None:
                        self.matched[key] = bij
                        return MinorWitness(frozenset(combo),
                                            frozenset(survivors) - frozenset(s_list),
                                            tuple(s_list[bij[i]] for i in range(e_t)))
                    cost += 1
                budget_.tick((picks - 1) * cost)
        loop_picks = math.comb(len(zero_surv), l_t)
        budget_.tick((loop_picks - 1) * (budget_.spent - spent))
        return None


_FREE = "free"  # `_set_up`'s answer for a free target that fits


def _set_up(q: int, n: int, r_h: int, target: Matroid, limit):
    """`find_minor_matrix`'s set-up for target in a host of n columns and
    rank r_h over GF(q): None when the sizes alone rule target out
    (absent), _FREE for a free target that fits, else the search's
    `_Plan`.  Raises BudgetExceededError, before the target's basis
    family is scanned, when one survivor selection would cost more than
    `limit` units."""
    e_t, r_t = target.ground_size, target.rank
    # the size checks first: they read no basis family
    if e_t > n or r_t > r_h or (e_t - r_t) > (n - r_h):
        return None
    if target.is_free():
        return _FREE
    # every survivor selection costs C(e_t, r_t) units, so past the whole
    # budget no witness can be paid for: unknown, before the target's
    # basis family is scanned
    if math.comb(e_t, r_t) > limit:
        raise BudgetExceededError("minor search budget exhausted")
    if len(target.bases) == math.comb(e_t, r_t):
        # U(r_t, e_t): all loops, one parallel class, or e_t points
        sizes = [] if r_t == 0 else [e_t] if r_t == 1 else [1] * e_t
    else:
        sizes = [c.bit_count() for c in target.parallel_classes()]
    # every minor of M[A] embeds in an r_t-dimensional F_q space, so its
    # parallel classes are distinct projective points of PG(r_t - 1, q)
    if len(sizes) > projective_points(q, r_t):
        return None
    return _Plan(n, r_h, target, sizes)


def _free_witness(o, cols: list, e_t: int) -> MinorWitness:
    """A free target's witness: the first e_t independent columns, left
    to right, with the rest deleted."""
    chosen = linalg.leftmost_independent(o, cols, e_t)
    return MinorWitness(frozenset(), frozenset(range(len(cols))) - frozenset(chosen),
                        tuple(chosen))


def find_minor_matrix(A: FqMatrix, target: Matroid, budget: int | _Budget | None = DEFAULT_BUDGET,
                      r_h: int | None = None):
    """Search for target as a minor of the column matroid of A; None means
    *absent* (certain), BudgetExceededError *unknown*.  `budget` is a
    number of units, None for no limit, or a `_Budget`, which then holds
    the units the search spent (`search`).  `r_h`, when given, is A's
    rank, which the search then does not recompute.

    Witness element indices refer to host columns.
    """
    o = linalg.ops_for(A.field, A.m)
    cols = o.cols_of(A)
    if r_h is None:
        r_h = o.rank_cols(cols)
    budget_ = budget if isinstance(budget, _Budget) else _Budget(budget)
    plan = _set_up(A.field.q, A.n, r_h, target, budget_.limit)
    if plan is None:
        return None
    if plan is _FREE:
        return _free_witness(o, cols, target.ground_size)
    plan.charge(budget_)
    return _search_sets(o, cols, plan, budget_)


def _search_sets(o, cols: list, plan: _Plan, budget_: _Budget):
    """The first witness, or None, among the plan.k-sets of the host with
    columns `cols`, in `_stride_order`, each charged one unit and reduced
    one at a time by `reduce_pivot`, on every field."""
    n, k = plan.n, plan.k
    zero = o.encode((0,) * o.m)  # what a survivor in the span of C reduces to
    for idx in _stride_order(math.comb(n, k)):
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
        # a direction is keyed by its coset representative scaled to pivot
        # value 1; scaling a column keeps every rank, so the scaled vector
        # also stands for j in the basis enumeration
        in_c = set(combo)
        reps = [zero] * n
        for j in range(n):
            if j not in in_c and (row := o.reduce_pivot(ech, cols[j])) is not None:
                reps[j] = row[1]
        witness = plan.score(o, budget_, combo, reps)
        if witness is not None:
            return witness
    return None


def _screen_rounds(o, col_words: np.ndarray, plan: _Plan, budgets: dict) -> dict:
    """The GF(2) search of each host t of `budgets`, with column words
    col_words[t] and budget budgets[t], through the plan.k-sets in
    `_stride_order`, as t -> ('witness', w), ('absent', None) or
    ('unknown', None) when its budget ran out.

    The open hosts are screened in rounds.  A round takes the next sets
    of the order: as many as were screened before it (at least 1), at
    most MAX_PAIRS // open hosts (at least 1) and at most the fewest units
    left + 1, so the budget bounds the work.  Each set is unranked once
    and one `linalg.gf2_coset_reps` reduces every (host, set) pair of the
    round.  A pair may give a witness only when its set's columns are
    independent and leave at least l_t zero survivors and c_t distinct
    nonzero ones.  The round reads those passing pairs in one pass: one
    `np.nonzero` over its (host, set) matrix, in host order, and one
    `linalg.word_ints` for all their representatives.  Each host scores
    its pairs in order by `_Plan.score` and leaves at its witness or when
    its budget runs out.  Each set costs the unit the per-set path charges
    it: the sets dropped before a passing one are charged with it in one
    tick, the rest at the end of the round, so every witness is found at
    the same `spent`."""
    n, width = col_words.shape[1:]
    k = plan.k
    order = _stride_order(math.comb(n, k))
    screened = 0
    out: dict = {}
    open_ = dict(budgets)
    while open_:
        live = list(open_)
        size = min(max(screened, 1), max(MAX_PAIRS // len(live), 1),
                   min(b.limit - b.spent for b in open_.values()) + 1)
        combos = [_unrank_combo(idx, n, k) for idx in itertools.islice(order, size)]
        if not combos:
            out.update(dict.fromkeys(live, ("absent", None)))
            break
        count = len(combos)
        screened += count
        sets = np.array(combos, dtype=np.int64).reshape(count, k)
        ranks, reps = linalg.gf2_coset_reps(np.repeat(col_words[live], count, axis=0),
                                            np.tile(sets, (len(live), 1)))
        zeros = n - reps.any(axis=2).sum(axis=1)
        # C's own columns reduce to zero, so the survivors hold zeros - k
        # zeros and every distinct nonzero representative; a column of
        # several words sorts as one key through a void view of them
        keys = reps[:, :, 0] if width == 1 else reps.view(np.dtype((np.void, 8 * width)))[:, :, 0]
        keys = np.sort(keys, axis=1)
        distinct = 1 + (keys[:, 1:] != keys[:, :-1]).sum(axis=1) - (zeros > 0)
        passing = (ranks == k) & (zeros - k >= plan.l_t) & (distinct >= plan.c_t)
        # the passing (host, set) pairs in host order, pair p's
        # representatives at pair_reps[p * n:(p + 1) * n], and host h's
        # pairs at bounds[h]:bounds[h + 1]
        hosts, sets = np.nonzero(passing.reshape(len(live), count))
        pair_reps = linalg.word_ints(reps[hosts * count + sets].reshape(-1, width))
        bounds = np.searchsorted(hosts, np.arange(len(live) + 1)).tolist()
        sets = sets.tolist()
        for h, t in enumerate(live):
            budget_ = open_[t]
            charged = 0
            try:
                for p in range(bounds[h], bounds[h + 1]):
                    b = sets[p]
                    budget_.tick(b + 1 - charged)
                    charged = b + 1
                    w = plan.score(o, budget_, combos[b], pair_reps[p * n:(p + 1) * n])
                    if w is not None:
                        out[t] = ("witness", w)
                        del open_[t]
                        break
                else:
                    budget_.tick(count - charged)
            except BudgetExceededError:
                out[t] = ("unknown", None)
                del open_[t]
    return out


def _ranked_picks(o, keys: list, c: int, r: int, budget_: _Budget):
    """Yield each c-subset of keys that spans rank exactly r, as the tuple
    of its indices into keys, in the order of
    itertools.combinations(range(len(keys)), c), charging budget_ one unit
    for every c-subset the walk passes, yielded or not.

    One triangular echelon follows the walk: a key's row is pushed when the
    walk descends to it and popped when it returns, so each prefix costs one
    reduction against the echelon its own prefix built.  A prefix is
    dropped as soon as its rank passes r, or falls short of r even if every
    key still to come adds one, and the C(len(keys) - i, c - depth) picks
    under it, i being the index after its last key, are charged in one
    tick.  A pick is charged just before it is yielded, after every pick
    before it, so the budget runs out, and a witness is found, at the
    `spent` of one tick per pick.
    """
    if c == 0:
        budget_.tick()
        if r == 0:
            yield ()
        return
    yield from _walk_picks(o, keys, c, r, budget_.tick, [], (), 0)


def _walk_picks(o, keys: list, c: int, r: int, tick, ech: list, pick: tuple, start: int):
    """`_ranked_picks` under the prefix `pick`, whose rows are on `ech`,
    extended by each index from `start` on that leaves room for a c-subset
    (a module function, as `linalg._walk_bases` is)."""
    n, depth = len(keys), len(pick) + 1
    for i in range(start, n - c + depth):
        row = o.reduce_pivot(ech, keys[i])
        rank = len(ech) + (row is not None)
        if rank > r or rank + c - depth < r:
            tick(math.comb(n - i - 1, c - depth))
        elif depth == c:
            tick()
            yield (*pick, i)
        else:
            if row is not None:
                ech.append(row)
            yield from _walk_picks(o, keys, c, r, tick, ech, (*pick, i), i + 1)
            if row is not None:
                ech.pop()


def verify_witness_matrix(A: FqMatrix, target: Matroid, w: MinorWitness) -> bool:
    """Witness check against a matrix host, by explicit contraction.

    `linalg.contract` pivots on the contracted columns by one Gauss-Jordan
    pass, drops their rows and keeps the survivors in bijection order, so
    column i of the minor plays target element i: the witness holds when
    it names the survivors (`_names_survivors`) and the minor's column
    matroid has the target's bases.  Independent of the quotient-echelon
    route the searcher uses.
    """
    if not _names_survivors(A.n, target.ground_size, w):
        return False
    o = linalg.ops_for(A.field, A.m)
    minor_mat = linalg.contract(o, A, sorted(w.contract), list(w.bijection))
    return minor_mat is not None and from_matrix(minor_mat).bases == target.bases


def verify_witness_stack(words, n: int, target: Matroid, witnesses: dict) -> dict:
    """`verify_witness_matrix`'s verdict on each witnesses[t], found on the
    GF(2) host of n columns whose row words (`linalg.pack_words`) are
    words[t], as host -> verdict.

    The witnesses that name the survivors (`_names_survivors`) are grouped
    by |C| and contracted on their own C by one `linalg.gf2_contract` per
    group, which keeps the survivors in bijection order: column i of a
    contraction is the host element that plays target element i, so the
    contraction is the target exactly when its column matroid has the
    target's bases.  That is decided once per distinct contraction of the
    group, and hosts whose contractions have equal entries share the
    verdict."""
    f2 = field(2)
    m, e_t = words.shape[1], target.ground_size
    verdicts = dict.fromkeys(witnesses, False)
    groups: dict = {}  # |C| -> [(host, witness)]
    for t, w in witnesses.items():
        if _names_survivors(n, e_t, w):
            groups.setdefault(len(w.contract), []).append((t, w))
    for k, group in groups.items():
        hosts = [t for t, _ in group]
        chosen = np.array([sorted(w.contract) for _, w in group], dtype=np.int64)
        keep = np.array([w.bijection for _, w in group], dtype=np.int64)
        ok, minors = linalg.gf2_contract(words[hosts], chosen, keep)
        is_target: dict = {}  # a contraction's entries -> verdict
        for t, bits in zip(itertools.compress(hosts, ok), minors):
            key = bits.tobytes()
            if key not in is_target:
                minor_m = from_matrix(FqMatrix(f2, m - k, e_t, tuple(bits.ravel().tolist())))
                is_target[key] = minor_m.bases == target.bases
            verdicts[t] = is_target[key]
    return verdicts


def check_budget(budget: int | None):
    """A search budget is None (unlimited) or at least one work unit."""
    if budget is not None and budget < 1:
        raise BadArgumentsError("budget must be >= 1")


def search(A: FqMatrix, target: Matroid, budget, r_h: int | None = None):
    """(status, witness, spent) of `find_minor_matrix` on the matrix host
    A: ('witness', w) for the witness it found, not yet verified,
    ('absent', None) when there is no such minor, ('unknown', None) when
    the budget ran out; spent is the units it charged (`_Budget.spent`),
    budget + 1 when a charge ran out (0 when the set-up found one
    survivor selection dearer than the whole budget and charged
    nothing).  `r_h`, when given, is A's rank."""
    check_budget(budget)
    budget_ = _Budget(budget)
    try:
        w = find_minor_matrix(A, target, budget_, r_h=r_h)
    except BudgetExceededError:
        return "unknown", None, budget_.spent
    return ("absent" if w is None else "witness"), w, budget_.spent


def outcome(status: str, verified: bool) -> str:
    """The outcome of a search with that `search` status: a witness is
    'found' when its independent check accepted it and 'unverified' when
    not; 'absent' and 'unknown' stay as they are."""
    if status != "witness":
        return status
    return "found" if verified else "unverified"


def decide(A: FqMatrix, target: Matroid, budget, r_h: int | None = None):
    """(outcome, witness, spent) of searching the matrix host A for target
    by `search`: ('found', w) when `verify_witness_matrix` accepts w,
    ('unverified', w) when it rejects it, ('absent', None) when there is
    no such minor, ('unknown', None) when the budget ran out, with the
    units the search spent.  `r_h`, when given, is A's rank."""
    status, w, spent = search(A, target, budget, r_h)
    return outcome(status, w is not None and verify_witness_matrix(A, target, w)), w, spent


def search_stack(col_words: np.ndarray, m: int, ranks, target: Matroid, budget,
                 hosts) -> dict:
    """`search`'s (status, witness, spent) for target in each GF(2) host t
    of `hosts`, as t -> triple: host t has m rows, rank ranks[t] and the
    column words col_words[t] (`linalg.pack_words`).

    Hosts of equal rank share one `_set_up`, so they visit the same
    contraction sets in the same order, and `_screen_rounds` screens them
    together from their first set, each host on its own budget, so every
    witness, outcome and unit spent is the per-host search's."""
    check_budget(budget)
    o = linalg.ops_for(field(2), m)
    groups: dict = {}
    for t in hosts:
        groups.setdefault(ranks[t], []).append(t)
    out: dict = {}
    for r_h, group in groups.items():
        out.update(_search_group(o, col_words, r_h, group, target, budget))
    return {t: out[t] for t in hosts}


def _search_group(o, col_words: np.ndarray, r_h: int, group: list, target: Matroid,
                  budget) -> dict:
    """`search_stack` on the hosts of `group`, all of rank r_h."""
    n = col_words.shape[1]
    try:
        plan = _set_up(2, n, r_h, target, _Budget(budget).limit)
    except BudgetExceededError:
        return {t: ("unknown", None, 0) for t in group}
    if plan is None:
        return {t: ("absent", None, 0) for t in group}
    if plan is _FREE:
        e_t = target.ground_size
        return {t: ("witness", _free_witness(o, linalg.word_ints(col_words[t]), e_t), 0)
                for t in group}
    budgets = {t: _Budget(budget) for t in group}
    try:
        for budget_ in budgets.values():
            plan.charge(budget_)  # the same charge for every host
    except BudgetExceededError:
        return {t: ("unknown", None, budget_.spent) for t in group}
    return {t: (status, w, budgets[t].spent)
            for t, (status, w) in _screen_rounds(o, col_words, plan, budgets).items()}


def decide_stack(bits: np.ndarray, targets, budget) -> list[tuple[str, ...]]:
    """`decide`'s outcomes for `targets`, (name, matroid) pairs, in each
    GF(2) host of a stack of 0/1 matrices of shape (T, m, n), host t with
    entries bits[t], as one tuple per host in target order.  The stack's rows and its columns are
    packed once each (`linalg.pack_words`), and it is ranked once, by one
    `linalg.gf2_ranks` on the side with fewer vectors.  Target by target,
    one `search_stack` searches every host still open from its column
    words and one `verify_witness_stack` checks their witnesses from their
    row words; a host leaves at its first verified witness, as in
    `has_excluded_minor_matrix`'s short circuit."""
    m, n = bits.shape[1:]
    words, col_words = linalg.pack_words(bits), linalg.pack_words(bits.transpose(0, 2, 1))
    ranks = linalg.gf2_ranks(words if m <= n else col_words).tolist()
    outcomes: list[tuple[str, ...]] = [()] * len(ranks)
    still_open = range(len(ranks))
    for _, target in targets:
        searched = search_stack(col_words, m, ranks, target, budget, still_open)
        verified = verify_witness_stack(
            words, n, target, {t: w for t, (_, w, _) in searched.items() if w is not None})
        for t, (status, _, _) in searched.items():
            outcomes[t] += (outcome(status, verified.get(t, False)),)
        still_open = [t for t in still_open if outcomes[t][-1] != "found"]
    return outcomes


# ----------------------------------------------------------------------
# excluded-minor class membership
# ----------------------------------------------------------------------


@dataclass
class ExcludedMinorReport:
    outcomes: dict = dc_field(default_factory=dict)  # target name -> decide outcome
    witnesses: dict = dc_field(default_factory=dict)  # verified witnesses only


def membership(outcomes) -> str:
    """'yes' / 'no' / 'unknown' membership in a minor-closed class of a
    host whose excluded minors had these `decide` outcomes: 'no' at a
    verified witness, 'yes' when every one is absent."""
    if "found" in outcomes:
        return "no"
    if all(v == "absent" for v in outcomes):
        return "yes"
    return "unknown"


def excluded_minors(class_name: str) -> tuple[tuple[str, Matroid], ...]:
    """(name, matroid) of each of the class's excluded minors, in the order
    they are decided (Tutte's list for 'graphic'); an unknown class is a
    usage error, raised before any host is searched."""
    if class_name != "graphic":
        raise BadArgumentsError(f"unknown minor-closed class {class_name!r}")
    return tuple((name, catalog(name)) for name in GRAPHIC_EXCLUDED)


def has_excluded_minor_matrix(A: FqMatrix, targets, budget: int | None = DEFAULT_BUDGET,
                              short_circuit: bool = False) -> ExcludedMinorReport:
    """Decide each of `targets`, (name, matroid) pairs, in a matrix host,
    in order, up to the first found with `short_circuit`; membership
    holds iff every one is absent.  The host's columns are encoded and
    ranked once, for every target."""
    report = ExcludedMinorReport()
    A = replace(A, packed_cols=tuple(linalg.ops_for(A.field, A.m).cols_of(A)))
    r_h = linalg.fast_rank(A)
    for name, target in targets:
        outcome, w, _ = decide(A, target, budget, r_h)
        report.outcomes[name] = outcome
        if outcome == "found":
            report.witnesses[name] = w
            if short_circuit:
                break
    return report
