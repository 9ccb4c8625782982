import itertools
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import from_rows, identity, rref
from fqminors import formulas, linalg, minor, sampler
from fqminors.errors import BadArgumentsError
from fqminors.gf import field
from fqminors.matrix import FqMatrix
from fqminors.matroid import catalog, from_matrix
from fqminors.sampler import (SeedSpec, mc_event_prob, mc_minor_prob, reduce, sample_entries,
                              sample_matrix)
from fqminors.sweep import run_class_sweep

F2 = field(2)
F3 = field(3)


def test_sampling_is_deterministic():
    a = sample_matrix(3, 4, 5, SeedSpec(123, 7))
    b = sample_matrix(3, 4, 5, SeedSpec(123, 7))
    assert a == b
    c = sample_matrix(3, 4, 5, SeedSpec(123, 8))
    assert a != c


def test_sampling_regression_pin():
    # pins the word-to-entry contract; Philox output is stable across
    # platforms, so these entries must never change
    got = sample_matrix(2, 2, 2, SeedSpec(1, 0)).entries
    assert got == tuple(w % 2 for w in _raw_words(1, 0, 4))


def test_philox_key_is_exact_mod_2_64():
    import warnings

    mask = (1 << 64) - 1
    cases = ((0, 0), (1, 7), (-1, 0), (-2, 3), (2**63 + 1, 2**63 + 1000), (2**64 + 5, -1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, stream in cases:
            key = sampler._philox(SeedSpec(seed, stream)).state["state"]["key"]
            assert key.tolist() == [seed & mask, stream & mask]


def test_distinct_negative_seeds_give_distinct_streams():
    draws = {tuple(sampler.sample_entries(2, 64, SeedSpec(seed, 0))) for seed in (-1, -2, -5, -6)}
    assert len(draws) == 4
    assert np.array_equal(sampler.sample_entries(2, 64, SeedSpec(-1, 0)),
                          sampler.sample_entries(2, 64, SeedSpec(2**64 - 1, 0)))


def _raw_words(seed, stream, count):
    return np.random.Philox(key=[seed, stream]).random_raw(count).tolist()


def _fresh(seed, stream):
    mask = (1 << 64) - 1
    return np.random.Philox(key=np.array([seed & mask, stream & mask], dtype=np.uint64))


def _reference_entries(q, count, seed, stream, rejected=()):
    """The RNG contract on a newly built generator, with the words at the
    `rejected` positions of the first block read as 2^64 - 1."""
    bg = _fresh(seed, stream)
    threshold = (2**64 // q) * q
    words = bg.random_raw(count).tolist()
    for i in rejected:
        words[i] = 2**64 - 1
    out = [None] * count
    pending = list(range(count))
    while pending:
        still = []
        for i, w in zip(pending, words):
            if w < threshold:
                out[i] = w % q
            else:
                still.append(i)
        pending = still
        words = bg.random_raw(len(pending)).tolist()
    return out


SEED_CASES = ((0, 0), (1, 7), (-1, 0), (-3, -5), (2**63, 2**63 + 5), (2**64 - 1, 2**63 + 1),
              (2**63 + 5, -2), (2**70 + 9, 3))


def test_rekeyed_generator_matches_a_fresh_one():
    # one generator is rekeyed per stream; its state and words must be a
    # newly built generator's, whatever the previous stream left behind
    for seed, stream in SEED_CASES:
        g = sampler._philox(SeedSpec(seed, stream))
        assert repr(g.state) == repr(_fresh(seed, stream).state)
        assert g.random_raw(37).tolist() == _fresh(seed, stream).random_raw(37).tolist()
        # leave a buffered word and a buffered 32-bit half behind
        g.random_raw(3)
        np.random.Generator(g).integers(0, 2**32, size=3, dtype=np.uint32)
        assert g.state["has_uint32"] == 1 and g.state["buffer_pos"] < 4


def test_sampled_words_do_not_leak_between_streams():
    a, b = SeedSpec(2**63 + 5, 11), SeedSpec(-3, 2**64 - 1)
    first = sampler.sample_entries(3, 50, a)
    sampler._philox(a).random_raw(3)  # a partly used buffer
    other = sampler.sample_entries(5, 70, b)
    again = sampler.sample_entries(3, 50, a)
    assert first.tolist() == again.tolist() == _reference_entries(3, 50, a.seed, a.stream)
    assert other.tolist() == _reference_entries(5, 70, b.seed, b.stream)
    for q in (2, 4, 9):
        assert sampler.sample_entries(q, 30, b).tolist() == _reference_entries(q, 30, b.seed, b.stream)


def test_power_of_two_codes_are_the_words_mod_q():
    # a power-of-two q keeps the words' low bits: the codes of `% q`, for
    # an empty draw and for one of more than 2^16 words
    for q, seed, count in itertools.product((2, 4, 8, 16), (0, 7, -3, 2**63 + 1),
                                            (0, 1, 900, 2**16 + 3)):
        spec = SeedSpec(seed, q)
        want = _fresh(spec.seed, spec.stream).random_raw(count) % np.uint64(q)
        got = sample_entries(q, count, spec)
        assert got.dtype == np.int64 and got.tolist() == want.tolist(), (q, seed, count)


def test_redraws_continue_the_rekeyed_stream(monkeypatch):
    # a word >= q * (2^64 // q) is a 2^-64 event for q = 3 and 5, so force
    # some: the refills must be the stream's next words, in position order
    rekey = sampler._philox
    forced = [0, 4, 5, 31]

    class Rejecting:
        def __init__(self, spec):
            self.bg, self.first = rekey(spec), True

        def random_raw(self, count):
            words = self.bg.random_raw(count)
            if self.first:
                words[forced] = np.uint64(2**64 - 1)
                self.first = False
            return words

    monkeypatch.setattr(sampler, "_philox", Rejecting)
    for q in (3, 5):
        for seed, stream in SEED_CASES:
            got = sampler.sample_entries(q, 40, SeedSpec(seed, stream)).tolist()
            assert got == _reference_entries(q, 40, seed, stream, forced), (q, seed, stream)


def test_importing_the_cli_does_not_load_numpy_random():
    # the generator is built on the first draw, not at import
    src = str(Path(sampler.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fqminors.cli; "
            "assert 'numpy.random' not in sys.modules, 'loaded at import'; "
            "from fqminors import sampler; sampler.sample_entries(2, 4, sampler.SeedSpec(0, 0)); "
            "assert 'numpy.random' in sys.modules")
    subprocess.run([sys.executable, "-c", code, src], check=True)


def test_single_bit_frequency():
    ones = sum(
        sample_matrix(2, 1, 1, SeedSpec(2024, s)).entries[0] for s in range(10000)
    )
    assert abs(ones / 10000 - 0.5) < 0.02


def test_chi_square_uniformity_gf2_2x2():
    from scipy.stats import chi2

    counts = {}
    for s in range(16000):
        key = sample_matrix(2, 2, 2, SeedSpec(5, s)).entries
        counts[key] = counts.get(key, 0) + 1
    expected = 16000 / 16
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    p_value = chi2.sf(stat, df=15)
    assert p_value > 0.001


def test_chi_square_uniformity_gf3_entries():
    from scipy.stats import chi2

    counts = [0, 0, 0]
    for s in range(3000):
        for e in sample_matrix(3, 1, 3, SeedSpec(77, s)).entries:
            counts[e] += 1
    expected = 9000 / 3
    stat = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2.sf(stat, df=2) > 0.001


def test_sampling_extension_field():
    a = sample_matrix(9, 3, 3, SeedSpec(8, 1))
    assert all(0 <= e < 9 for e in a.entries)
    assert a == sample_matrix(9, 3, 3, SeedSpec(8, 1))
    ones = [0] * 9
    for s in range(2000):
        for e in sample_matrix(9, 1, 2, SeedSpec(88, s)).entries:
            ones[e] += 1
    assert min(ones) > 0  # every code reachable


def test_reduce_examples():
    a = from_rows(F2, [[1, 0], [1, 1]])
    assert reduce(a, 0) == a
    i3 = identity(F2, 3)
    assert reduce(i3, 1) == identity(F2, 2)
    # hand execution of the m <= n path
    b = reduce(a, 1)
    assert (b.m, b.n) == (1, 1)
    with pytest.raises(BadArgumentsError):
        reduce(a, 3)
    with pytest.raises(BadArgumentsError):
        reduce(a, -1)


def test_reduce_failure_returns_none():
    tall = from_rows(F2, [[0, 1], [0, 1], [0, 0]])  # m > n, col 0 zero
    assert reduce(tall, 1) is None
    wide = from_rows(F2, [[0, 0, 0], [1, 1, 0]])  # top row zero
    assert reduce(wide, 1) is None


def test_reduce_success_frequency_beats_floor():
    for (m, n, k) in ((2, 2, 1), (3, 2, 1), (2, 3, 1), (3, 3, 2)):
        total = 0
        good = 0
        for entries in itertools.product(range(2), repeat=m * n):
            total += 1
            if reduce(FqMatrix(F2, m, n, entries), k) is not None:
                good += 1
        assert Fraction(good, total) > 1 - Fraction(1, 2 ** (max(m, n) - k))


def test_reduce_preserves_matroid_minor_relation():
    # the output's column matroid is a genuine minor of the input's
    from fqminors.minor import find_minor

    for entries in itertools.product(range(2), repeat=6):
        a = FqMatrix(F2, 2, 3, entries)
        b = reduce(a, 1)
        if b is None:
            continue
        assert find_minor(from_matrix(a), from_matrix(b), budget=None) is not None


def _reference_reduce(A, k):
    """The reduction by the reference elimination: the m <= n pivot set
    from a reduced row echelon form of the top k rows, then rows k..m-1
    of `rref` pivoting on the chosen columns in order, at the other
    columns."""
    m, n = A.m, A.n
    if k == 0:
        return A
    if m > n:
        chosen = list(range(k))
    else:
        top = FqMatrix(A.field, k, n, A.entries[: k * n])
        _, pivots = rref(top)
        if len(pivots) != k:
            return None
        chosen = list(pivots)
    red, pivots = rref(A, chosen)
    if len(pivots) != k:
        return None
    keep = [j for j in range(n) if j not in chosen]
    return FqMatrix(A.field, m - k, n - k,
                    tuple(red.entries[i * n + j] for i in range(k, m) for j in keep))


def test_reduce_matches_rref_reference_exhaustive():
    shapes = [(2, m, n) for m in range(1, 4) for n in range(1, 4)] + [(3, 2, 3)]
    for q, m, n in shapes:
        f = field(q)
        for entries in itertools.product(range(q), repeat=m * n):
            a = FqMatrix(f, m, n, entries)
            for k in range(min(m, n) + 1):
                assert reduce(a, k) == _reference_reduce(a, k), (q, entries, k)


def test_sampled_gf2_packing_matches_python_packing():
    # a GF(2) sample carries no columns: BitOps encodes its columns and
    # rows from the entries, as it does an unattached matrix's, and both
    # match a Python reference across the 64-bit word boundary
    sizes = (0, 1, 8, 63, 64, 65, 70)
    for m, n in itertools.product(sizes, sizes):
        A = sample_matrix(2, m, n, SeedSpec(3, m * 100 + n))
        plain = FqMatrix(F2, m, n, A.entries)
        assert plain.packed_cols is None and A.packed_cols is None
        assert A == plain and hash(A) == hash(plain)
        cols = [sum(e << i for i, e in enumerate(A.col(j))) for j in range(n)]
        rows = [sum(e << j for j, e in enumerate(A.row(i))) for i in range(m)]
        o = linalg.BitOps(F2, m)
        assert o.cols_of(A) == o.cols_of(plain) == cols
        assert o.rows_of(A) == o.rows_of(plain) == rows
        assert plain.packed_cols is None
    # the table backend's fields carry nothing
    assert sample_matrix(4, 2, 2, SeedSpec(3, 0)).packed_cols is None


def test_sampled_gf3_planes_match_python_packing():
    # the bit-plane pairs the sampler attaches over GF(3), and TriOps'
    # encoding of an unattached matrix with the same entries, against a
    # Python reference, across the 64-bit word boundary; the entries are
    # the ones drawn before planes were attached
    def planes(vec):
        return (sum(1 << i for i, e in enumerate(vec) if e == 1),
                sum(1 << i for i, e in enumerate(vec) if e == 2))

    sizes = (0, 1, 8, 63, 64, 65, 70)
    for m, n in itertools.product(sizes, sizes):
        spec = SeedSpec(3, m * 100 + n)
        A = sample_matrix(3, m, n, spec)
        assert A.entries == tuple(sample_entries(3, m * n, spec).tolist())
        plain = FqMatrix(F3, m, n, A.entries)
        o = linalg.TriOps(F3, m)
        assert o.cols_of(A) == o.cols_of(plain) == [planes(A.col(j)) for j in range(n)]
        assert o.rows_of(A) == o.rows_of(plain) == [planes(A.row(i)) for i in range(m)]
        assert plain.packed_cols is None


def test_gf2_trial_rank_matches_column_rank():
    # the batched GF(2) rank trials against the per-matrix column rank,
    # past 64 columns and on empty shapes; a range that is not a multiple
    # of the stack size ends in a partial stack
    for m, n in ((0, 4), (4, 0), (0, 0), (1, 1), (5, 3), (30, 30), (4, 70), (70, 66), (65, 130)):
        size = max(1, sampler._RANK_STACK_ENTRIES // max(1, m * n))
        lo, hi = 3, 3 + (size + 5 if size < 1000 else 7)
        want = [linalg.fast_rank(sample_matrix(2, m, n, SeedSpec(7, i))) for i in range(lo, hi)]
        stack = np.array([sampler.sample_entries(2, m * n, SeedSpec(7, i)) for i in range(lo, hi)],
                         dtype=np.uint8).reshape(hi - lo, m, n)
        assert linalg.gf2_ranks(linalg.pack_words(stack)).tolist() == want, (m, n)
        assert sampler._rank_chunk((2, m, n), 7, lo, hi) == Counter(want), (m, n)


def test_mc_event_examples():
    est = mc_event_prob(2, 3, 2, "rank-at-least:0", 500, seed=1)
    assert est.point == 1.0 and est.unknowns == 0

    est = mc_event_prob(2, 3, 2, "full-column-rank", 20000, seed=11)
    lo, hi = sampler.wilson_interval(est.successes, est.trials, z=3.0)
    assert lo <= float(Fraction(21, 32)) <= hi

    est = mc_event_prob(2, 20, 2, "is-free-matroid", 4000, seed=12)
    assert est.point > 1 - 2**-18 - 3 * 0.01

    with pytest.raises(BadArgumentsError):
        mc_event_prob(2, 2, 2, "no-such-event", 10, seed=0)
    with pytest.raises(BadArgumentsError):
        mc_event_prob(2, 2, 2, "rank-at-least:x", 10, seed=0)
    with pytest.raises(BadArgumentsError):
        mc_event_prob(2, 2, 2, "full-column-rank", 0, seed=0)


def test_mc_event_gf3_path():
    est = mc_event_prob(3, 3, 2, "full-column-rank", 4000, seed=21)
    exact = float(formulas.prob_full_col_rank(3, 2, 3))
    lo, hi = sampler.wilson_interval(est.successes, est.trials, z=3.5)
    assert lo <= exact <= hi


def test_mc_event_rejects_negative_shape_on_every_field():
    # the GF(2) trial never builds an FqMatrix, so the shape is checked up front
    for q, m, n in ((2, -1, -1), (2, -2, 3), (3, -1, -1)):
        with pytest.raises(BadArgumentsError, match="negative shape"):
            mc_event_prob(q, m, n, "full-column-rank", 5, seed=1)
    assert mc_event_prob(2, 0, 3, "full-column-rank", 5, seed=1).point == 0.0
    assert mc_event_prob(2, 3, 0, "full-column-rank", 5, seed=1).point == 1.0


def test_check_shape_bound():
    # an empty dimension counts as 1, so a 0 x n host is bounded by n too
    for m, n in ((2048, 2048), (sampler.MAX_ENTRIES, 0), (0, 0)):
        sampler.check_shape(m, n)
    for m, n in ((2048, 2049), (0, sampler.MAX_ENTRIES + 1), (-1, 3)):
        with pytest.raises(BadArgumentsError):
            sampler.check_shape(m, n)
    with pytest.raises(BadArgumentsError, match="exceeds"):
        mc_event_prob(2, 4096, 4096, "full-column-rank", 5, seed=1)


def test_mc_minor_examples():
    # free targets: exact values 15/16 (free:1, rank >= 1) and 6/16 (free:2)
    est = mc_minor_prob(2, 2, 2, catalog("free:1"), 20000, seed=3)
    lo, hi = sampler.wilson_interval(est.successes, est.trials, z=3.0)
    assert lo <= 15 / 16 <= hi
    est = mc_minor_prob(2, 2, 2, catalog("free:2"), 20000, seed=4)
    lo, hi = sampler.wilson_interval(est.successes, est.trials, z=3.0)
    assert lo <= 6 / 16 <= hi

    est = mc_minor_prob(2, 12, 2, catalog("U:1,2"), 5000, seed=5)
    upper = float(formulas.upper_bound_nonfree(12, 2, 2))
    assert est.point <= upper + 3 * 0.01
    assert est.unknowns == 0

    with pytest.raises(BadArgumentsError):
        mc_minor_prob(2, 2, 2, catalog("U:1,2"), 0, seed=0)


def test_mc_minor_matches_exact_small():
    from fqminors.oracle import exact_minor_prob

    target = catalog("U:1,2")
    est = mc_minor_prob(2, 2, 4, target, 20000, seed=6)
    exact = float(exact_minor_prob(2, 2, 4, target).exact)
    lo, hi = sampler.wilson_interval(est.successes, est.trials, z=3.0)
    assert lo <= exact <= hi


def test_mc_determinism_and_jobs_invariance():
    t = catalog("U:1,2")
    a = mc_minor_prob(2, 3, 5, t, 400, seed=9)
    b = mc_minor_prob(2, 3, 5, t, 400, seed=9)
    assert a == b
    c = mc_minor_prob(2, 3, 5, t, 400, seed=9, jobs=2)
    assert a == c


def test_mc_minor_jobs_validated_and_clamped(monkeypatch):
    seen = []

    class SerialPool:
        """Records the requested worker count and runs the chunks in-process."""

        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(sampler, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 4)
    t = catalog("U:1,2")
    serial = mc_minor_prob(2, 3, 5, t, 40, seed=9)
    assert mc_minor_prob(2, 3, 5, t, 40, seed=9, jobs=1000) == serial
    assert mc_minor_prob(2, 3, 5, t, 3, seed=9, jobs=8) == mc_minor_prob(2, 3, 5, t, 3, seed=9)
    assert mc_minor_prob(2, 3, 5, t, 40, seed=9, jobs=2) == serial
    assert seen == [4, 3, 2]
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: None)
    assert mc_minor_prob(2, 3, 5, t, 40, seed=9, jobs=8) == serial
    assert seen == [4, 3, 2]  # one usable CPU: no pool at all
    for jobs in (0, -1):
        with pytest.raises(BadArgumentsError):
            mc_minor_prob(2, 3, 5, t, 40, seed=9, jobs=jobs)


def test_rank_chunk_counts_jobs_invariant(monkeypatch):
    class SerialPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(sampler, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 4)
    # 30 x 30 stacks hold 291 trials: the job splits of 700 trials (350;
    # 175, 350, 525) fall inside stacks, and each job ends in a partial one
    for q in (2, 3):
        trials = 700 if q == 2 else 30
        ranks = sampler.run_trials(sampler._rank_chunk, (q, 30, 30), trials, 5)
        assert sum(ranks.values()) == trials and len(ranks) > 1
        for jobs in (2, 1000):
            assert sampler.run_trials(sampler._rank_chunk, (q, 30, 30), trials, 5, jobs) == ranks
    with pytest.raises(BadArgumentsError):
        sampler.run_trials(sampler._rank_chunk, (2, 3, 3), 10, 0, jobs=0)


@pytest.mark.parametrize("run", [
    lambda: mc_event_prob(2, 2, 2, "full-column-rank", 0, seed=0),
    lambda: mc_minor_prob(2, 2, 2, catalog("U:1,2"), 0, seed=0),
    lambda: run_class_sweep(2, "graphic", (4, 4, 1), "constant:3", 0, seed=0),
], ids=["mc_event_prob", "mc_minor_prob", "run_class_sweep"])
def test_every_mc_path_rejects_zero_trials(run):
    with pytest.raises(BadArgumentsError, match="trials must be >= 1"):
        run()


def test_nonpositive_budget_rejected_before_any_trial(monkeypatch):
    def no_trials(*args, **kw):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(sampler, "run_trials", no_trials)
    for budget in (0, -5):
        with pytest.raises(BadArgumentsError, match="budget must be >= 1"):
            mc_minor_prob(2, 3, 5, catalog("U:1,2"), 10, seed=0, budget=budget)


def test_failed_verification_is_counted_as_unverified(monkeypatch):
    # a GF(2) chunk checks its witnesses by the stacked contraction
    def dependent(words, chosen, keep):
        return np.zeros(len(words), dtype=bool), np.zeros((0, 0, keep.shape[1]), dtype=np.uint8)

    monkeypatch.setattr(linalg, "gf2_contract", dependent)
    est = mc_minor_prob(2, 4, 6, catalog("U:1,2"), 50, seed=1)
    assert est.successes == 0
    assert est.unverified == est.unknowns == 49
    assert est.to_json()["unverified"] == 49


def _host(m: int, cols) -> FqMatrix:
    """The GF(2) matrix of m rows with the given int columns."""
    return FqMatrix(F2, m, len(cols), tuple(c >> i & 1 for i in range(m) for c in cols))


def _recording_search(monkeypatch, corrupt=None):
    """Patch the stacked search a GF(2) chunk runs (`minor.decide_stack`'s
    `search_stack`) to record (columns, r_h, status, witness) per host, the
    columns as ints and the witness passed through `corrupt` when given."""
    seen = []
    search_stack = minor.search_stack

    def recording(col_words, m, ranks, target, budget, hosts):
        got = search_stack(col_words, m, ranks, target, budget, hosts)
        for t, (status, w, spent) in got.items():
            cols = tuple(linalg.word_ints(col_words[t]))
            if corrupt is not None and w is not None:
                w = corrupt(len(seen), _host(m, cols), w)
                got[t] = (status, w, spent)
            seen.append((cols, ranks[t], status, w))
        return got

    monkeypatch.setattr(minor, "search_stack", recording)
    return seen


@pytest.mark.parametrize("bad", [0, 7])
def test_one_failing_witness_in_a_stack_is_unverified(monkeypatch, bad):
    # trial `bad`'s witness also contracts a deleted element, which leaves
    # its survivors loops (or C dependent); the stacked check rejects it
    # alone, whether or not it is the trial the per-trial check also sees
    target = catalog("U:1,2")

    def corrupt(t, A, w):
        if t != bad:
            return w
        x = min(w.delete)
        w = minor.MinorWitness(w.contract | {x}, w.delete - {x}, w.bijection)
        assert not minor.verify_witness_matrix(A, target, w)
        return w

    seen = _recording_search(monkeypatch, corrupt)
    got = sampler.search_chunk((2, 4, 6, (("target", target),), 20000), 1, 0, 50)
    statuses = Counter(status for _, _, status, _ in seen)
    assert len(seen) == 50 and statuses == {"witness": 49, "absent": 1}
    assert seen[bad][2] == "witness"
    assert got == {("found",): 48, ("unverified",): 1, ("absent",): 1}
    seen.clear()
    est = mc_minor_prob(2, 4, 6, target, 50, seed=1)
    assert est.unverified == 1 and est.successes == 48


@pytest.mark.parametrize("m, n", [(4, 6), (7, 5), (3, 66), (0, 4), (4, 0)])
def test_stacked_minor_hosts_equal_sample_matrix(monkeypatch, m, n):
    # stacks of at most 40 entries, so a chunk spans several of them
    monkeypatch.setattr(sampler, "_RANK_STACK_ENTRIES", 40)
    seen = _recording_search(monkeypatch)
    rows = []  # each host's row words, as the stacked witness check gets them
    verify = minor.verify_witness_stack

    def recording_verify(words, n, target, witnesses):
        rows.extend(tuple(linalg.word_ints(w)) for w in words)
        return verify(words, n, target, witnesses)

    monkeypatch.setattr(minor, "verify_witness_stack", recording_verify)
    sampler.search_chunk((2, m, n, (("target", catalog("U:1,2")),), 20000), 5, 3, 20)
    assert len(seen) == len(rows) == 17
    for i, (cols, r_h, _, _), host_rows in zip(range(3, 20), seen, rows):
        B = sample_matrix(2, m, n, SeedSpec(5, i))
        assert _host(m, cols) == B and list(cols) == linalg.BitOps(F2, m).cols_of(B)
        assert list(host_rows) == linalg.BitOps(F2, m).rows_of(B)
        assert r_h == linalg.fast_rank(B)


@pytest.mark.parametrize("jobs", [1, 2])
def test_stacked_minor_counts_equal_per_trial_decide(jobs):
    cases = [(4, 6, "U:1,2", 20000), (7, 5, "U:1,2", 20000), (4, 7, "U:2,3", 20000),
             (5, 10, "F7", 100), (3, 66, "U:1,2", 20000)]
    for m, n, name, budget in cases:
        target = catalog(name)
        want = Counter(minor.decide(sample_matrix(2, m, n, SeedSpec(11, i)), target, budget)[0]
                       for i in range(60))
        est = mc_minor_prob(2, m, n, target, 60, seed=11, budget=budget, jobs=jobs)
        assert (est.successes, est.unknowns, est.unverified) == (
            want["found"], want["unknown"] + want["unverified"], want["unverified"]), (m, n, name)


def test_one_target_trial_is_decide():
    # a minor trial is a class trial with one target: over every field and
    # budget its count is the Counter of `decide` outcomes, serial or pooled
    seen = Counter()
    for name in ("U:1,2", "U:2,4", "F7"):
        target = catalog(name)
        for q, m, n in ((2, 4, 10), (2, 6, 12), (3, 3, 8), (4, 3, 7)):
            for budget in (50, 20000):
                args = (q, m, n, (("t", target),), budget)
                want = Counter((minor.decide(sample_matrix(q, m, n, SeedSpec(7, i)), target,
                                             budget)[0],) for i in range(40))
                assert sampler.search_chunk(args, 7, 0, 40) == want, (name, q, m, n, budget)
                for jobs in (1, 2):
                    assert sampler.run_trials(sampler.search_chunk, args, 40, 7, jobs) == want
                seen.update(want)
    assert {("found",), ("absent",), ("unknown",)} <= set(seen)


def test_estimate_json_schema():
    est = mc_event_prob(2, 2, 2, "full-column-rank", 100, seed=42)
    d = est.to_json()
    assert set(d) == {"trials", "successes", "unknowns", "unverified", "point", "ci",
                      "seed", "method"}
    assert d["method"] == "wilson95"
    assert d["ci"][0] <= d["point"] <= d["ci"][1]
    assert est.successes + est.unknowns <= est.trials


def test_wilson_interval_properties():
    for s, t in ((0, 10), (10, 10), (3, 17), (999, 1000)):
        lo, hi = sampler.wilson_interval(s, t)
        assert 0.0 <= lo <= s / t <= hi <= 1.0
