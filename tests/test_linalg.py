"""The three backends implement the same operations: the GF(2) bit backend
and the GF(3) plane backend must agree exactly with the generic table
backend run over the same field, and with the `tests/conftest.py`
reference elimination."""

import itertools
import random
from collections import Counter

import numpy as np

from conftest import from_rows, int_words, rank, rref
from fqminors import linalg, sampler
from fqminors.gf import field
from fqminors.linalg import (BitOps, GenOps, TriOps, contract, fast_rank, gf2_contract,
                             gf2_coset_reps, gf2_ranks, leftmost_independent, ops_for, pack_words,
                             word_ints)
from fqminors.matrix import FqMatrix
from fqminors.sampler import SeedSpec, sample_matrix

F2 = field(2)
F4 = field(4)
F3 = field(3)
F9 = field(9)


def codes(o, v, width: int) -> list[int]:
    """The first `width` entries of a vector in backend o's form."""
    if isinstance(o, BitOps):
        return [(v >> i) & 1 for i in range(width)]
    if isinstance(o, TriOps):
        return [(v[0] >> i & 1) | (v[1] >> i & 1) << 1 for i in range(width)]
    return list(v[:width])


def pivot_row(o, p) -> int:
    """The row index of an echelon pivot: the bit backends keep its mask."""
    return p.bit_length() - 1 if isinstance(o, (BitOps, TriOps)) else p


def gf3_matrices(max_cells: int = 6):
    """Every GF(3) matrix with 1 <= m, n and m * n <= max_cells."""
    for m in range(1, max_cells + 1):
        for n in range(1, max_cells // m + 1):
            for entries in itertools.product(range(3), repeat=m * n):
                yield FqMatrix(F3, m, n, entries)


def test_backends_agree_on_rank_exhaustive():
    bit, gen = BitOps(F2, 2), GenOps(F2, 2)
    for entries in itertools.product(range(2), repeat=6):
        A = FqMatrix(F2, 2, 3, entries)
        assert bit.rank_cols(bit.cols_of(A)) == gen.rank_cols(gen.cols_of(A)) == rank(A)
    for A in gf3_matrices():
        tri, gen = TriOps(F3, A.m), GenOps(F3, A.m)
        assert tri.rank_cols(tri.cols_of(A)) == gen.rank_cols(gen.cols_of(A)) == rank(A)


def _agree_on_quotient(fast, gen, A, split: int):
    """Push the first `split` columns of A on both backends' echelons, then
    reduce the rest: same pivots, same pushed rows, same representatives,
    each zero at every pivot and differing from its column by a vector in
    the span (the reference rank does not grow)."""
    m = A.m
    fcols, gcols = fast.cols_of(A), gen.cols_of(A)
    assert [codes(fast, c, m) for c in fcols] == [list(c) for c in gcols]
    fech, gech = [], []
    for j in range(split):
        frow = fast.reduce_pivot(fech, fcols[j])
        grow = gen.reduce_pivot(gech, gcols[j])
        assert (frow is None) == (grow is None)
        if frow is not None:
            assert pivot_row(fast, frow[0]) == grow[0]
            assert codes(fast, frow[1], m) == list(grow[1])
            fech.append(frow)
            gech.append(grow)
    span = [gcols[j] for j in range(split)]
    f = A.field
    for j in range(split, A.n):
        fr = codes(fast, fast.reduce(fech, fcols[j]), m)
        assert fr == list(gen.reduce(gech, gcols[j]))
        assert all(fr[p] == 0 for p, _ in gech)
        diff = tuple(f.add_table[a][f.neg_table[b]] for a, b in zip(gcols[j], fr))
        vecs = span + [diff]
        assert rank(FqMatrix(f, m, len(vecs), tuple(v[i] for i in range(m) for v in vecs))) \
            == rank(FqMatrix(f, m, split, tuple(v[i] for i in range(m) for v in span)))


def test_backends_agree_on_quotient_reduction():
    rng = random.Random(41)
    for _ in range(50):
        A = FqMatrix(F2, 4, 6, tuple(rng.randrange(2) for _ in range(24)))
        _agree_on_quotient(BitOps(F2, 4), GenOps(F2, 4), A, 3)
    for A in gf3_matrices():
        _agree_on_quotient(TriOps(F3, A.m), GenOps(F3, A.m), A, A.n // 2)


def test_backends_expose_the_same_methods():
    def public(cls):
        return {name for name in dir(cls) if not name.startswith("_")}

    assert public(BitOps) == public(GenOps) == public(TriOps)


def _agree_on_inverse(fast, gen, A, chosen) -> bool:
    """One Gauss-Jordan pass on the chosen columns by both backends: they
    agree entry by entry with the reference, `rref` pivoting on the chosen
    columns in the given order; returns whether the chosen set was
    dependent."""
    frows = fast.inverse_rows(fast.rows_of(A), chosen)
    grows = gen.inverse_rows(gen.rows_of(A), chosen)
    red, pivots = rref(A, chosen)
    assert (frows is None) == (grows is None) == (len(pivots) < len(chosen))
    if grows is None:
        return True
    assert [codes(fast, r, A.n) for r in frows] == [list(r) for r in grows] == \
        [list(red.row(i)) for i in range(A.m)]
    return False


def test_backends_agree_on_inverse():
    # random 4x6 GF(2) hosts with chosen sets of up to m+1 columns, and
    # every GF(3) host with m·n <= 6 under every chosen set of up to
    # min(n, m+1) columns, in decreasing order (the pass takes them as
    # given, so the order is not the sorted one a caller would pass)
    rng = random.Random(42)
    m, n = 4, 6
    outcomes = set()
    for _ in range(80):
        A = FqMatrix(F2, m, n, tuple(rng.randrange(2) for _ in range(m * n)))
        chosen = rng.sample(range(n), rng.randrange(0, m + 2))
        outcomes.add(_agree_on_inverse(BitOps(F2, m), GenOps(F2, m), A, chosen))
    assert outcomes == {True, False}
    outcomes = set()
    for A in gf3_matrices():
        tri, gen = TriOps(F3, A.m), GenOps(F3, A.m)
        for k in range(min(A.n, A.m + 1) + 1):
            for chosen in itertools.combinations(range(A.n), k):
                outcomes.add(_agree_on_inverse(tri, gen, A, list(chosen[::-1])))
    assert outcomes == {True, False}


def test_plane_keys_sort_as_code_tuples():
    # find_minor_matrix sorts its direction keys, and that order picks the
    # witness: GF(3) plane pairs under TriOps.order sort as the tuples of
    # codes GenOps keys them by, for every vector of m <= 5 rows
    for m in range(6):
        tri = TriOps(F3, m)
        vecs = [tuple(v) for v in itertools.product(range(3), repeat=m)]
        rng = random.Random(m)
        rng.shuffle(vecs)
        planes = sorted((tri.encode(v) for v in vecs), key=tri.order)
        assert [tuple(codes(tri, p, m)) for p in planes] == sorted(vecs)


def _reference_contract(A, chosen, keep):
    """Rows k..m-1 of `rref` pivoting on the chosen columns in order, at
    the keep columns (k = len(chosen)); None when the chosen columns are
    dependent."""
    red, pivots = rref(A, chosen)
    if len(pivots) < len(chosen):
        return None
    k, n = len(chosen), A.n
    assert [red.col(j) for j in chosen] == [tuple(int(i == pos) for i in range(A.m))
                                            for pos in range(k)]
    return FqMatrix(A.field, A.m - k, len(keep),
                    tuple(red.entries[i * n + j] for i in range(k, A.m) for j in keep))


def test_contract_matches_reference_product():
    # contract against rows k..m-1 of the reference Gauss-Jordan pass on
    # the chosen columns, on sampled GF(2) hosts (packed form attached),
    # their unattached copies, and GF(3) and GF(4) hosts; a dependent
    # chosen set (one column the sum of two others) and one with more
    # columns than rows give None
    rng = random.Random(45)
    m, n = 20, 30
    for q, stream in itertools.product((2, 3, 4), range(3)):
        sampled = sample_matrix(q, m, n, SeedSpec(45, stream))
        f = sampled.field
        hosts = [sampled, FqMatrix(f, m, n, sampled.entries)]
        o = ops_for(f, m)
        cols = o.cols_of(sampled)
        for k in (0, 1, 5, 12, 19):
            order = rng.sample(range(n), n)
            chosen = [order[i] for i in leftmost_independent(o, [cols[j] for j in order], k)]
            assert len(chosen) == k
            keep = sorted(rng.sample([j for j in range(n) if j not in chosen], 6))
            want = _reference_contract(sampled, chosen, keep)
            for A in hosts:
                assert contract(o, A, chosen, keep) == want, (q, stream, k)
        rows = [sampled.row(i) for i in range(m)]
        dep = from_rows(f, [r[:-1] + (f.add_table[r[0]][r[1]],) for r in rows])
        for chosen in ([0, 5, n - 1, 1], list(range(m + 1))):
            assert _reference_contract(dep, chosen, [2, 3]) is None
            assert contract(o, dep, chosen, [2, 3]) is None, (q, stream, chosen)


def test_contract_matches_reference_exhaustive():
    # every matrix of each tiny shape, on each backend, under every ordered
    # chosen set of up to min(n, m + 1) columns, keeping the other columns
    shapes = [(2, 2, 3), (2, 3, 3), (2, 3, 2), (3, 2, 3), (3, 3, 2), (4, 2, 2), (5, 2, 2)]
    backends = set()
    for q, m, n in shapes:
        f = field(q)
        o = ops_for(f, m)
        backends.add(type(o))
        for entries in itertools.product(range(q), repeat=m * n):
            A = FqMatrix(f, m, n, entries)
            for k in range(min(n, m + 1) + 1):
                for chosen in itertools.permutations(range(n), k):
                    keep = [j for j in range(n) if j not in chosen]
                    assert contract(o, A, list(chosen), keep) == \
                        _reference_contract(A, list(chosen), keep), (q, entries, chosen)
    assert backends == {BitOps, TriOps, GenOps}


def test_contract_shares_no_elimination_with_the_search(monkeypatch):
    # the verifier's change of basis must not run the search's echelon
    # step: with reduce and reduce_pivot raising, contract gives the same
    # output on every backend, for sampled and unattached hosts
    rng = random.Random(46)
    m, n = 6, 10
    cases = []
    for q in (2, 3, 5):
        sampled = sample_matrix(q, m, n, SeedSpec(46, q))
        o = ops_for(sampled.field, m)
        cols = o.cols_of(sampled)
        for k in (0, 2, 4, 6, 7):
            order = rng.sample(range(n), n)
            picks = (leftmost_independent(o, [cols[j] for j in order], k), range(k))
            for chosen in ([order[i] for i in p] for p in picks):
                keep = [j for j in range(n) if j not in chosen]
                for A in (sampled, FqMatrix(sampled.field, m, n, sampled.entries)):
                    cases.append((o, A, chosen, keep, contract(o, A, chosen, keep)))
    assert {type(o) for o, *_, want in cases if want is not None} == {BitOps, TriOps, GenOps}

    def forbidden(*args):
        raise AssertionError("contract ran the search's elimination")

    for cls in (BitOps, GenOps, TriOps):
        monkeypatch.setattr(cls, "reduce", forbidden)
        monkeypatch.setattr(cls, "reduce_pivot", forbidden)
    for o, A, chosen, keep, want in cases:
        assert contract(o, A, chosen, keep) == want, (type(o), chosen)


def test_stacked_contraction_shares_no_elimination_with_the_search(monkeypatch):
    # the stacked verifier's contraction must run neither the search's
    # echelon step nor `contract`'s pivot step: with reduce, reduce_pivot
    # and BitOps.eliminate raising, it gives the same output, and it
    # leaves the words it was given as they were
    rng = random.Random(48)
    m, n, T = 6, 10, 8
    stack = np.array([sample_matrix(2, m, n, SeedSpec(48, t)).entries for t in range(T)],
                     dtype=np.uint8).reshape(T, m, n)
    words = pack_words(stack)
    cases = []
    for k in (0, 2, 4, 6, 7):
        picks = [rng.sample(range(n), n) for _ in range(T)]
        chosen = np.array([p[:k] for p in picks], dtype=np.int64).reshape(T, k)
        keep = np.array([sorted(p[k:])[:3] for p in picks], dtype=np.int64)
        cases.append((chosen, keep, gf2_contract(words, chosen, keep)))
    oks = np.concatenate([ok for *_, (ok, _) in cases])
    assert oks.any() and not oks.all()

    def forbidden(*args):
        raise AssertionError("the stacked contraction ran a search or contract step")

    for cls in (BitOps, GenOps, TriOps):
        monkeypatch.setattr(cls, "reduce", forbidden)
        monkeypatch.setattr(cls, "reduce_pivot", forbidden)
    monkeypatch.setattr(BitOps, "eliminate", forbidden)
    monkeypatch.setattr(linalg, "gf2_coset_reps", forbidden)
    before = words.copy()
    for chosen, keep, (ok, minors) in cases:
        got_ok, got = gf2_contract(words, chosen, keep)
        assert np.array_equal(got_ok, ok) and np.array_equal(got, minors)
    assert np.array_equal(words, before)


def _check_coset_reps(m: int, hosts: list, combos: list):
    """gf2_coset_reps on every host with every combo of one size (each
    host a list of column ints with m rows) against the search's echelon:
    every set's rank, `BitOps.rank_cols` of its columns, and for an
    independent set the representative `BitOps.reduce_pivot` gives each
    column (0 where it gives None)."""
    o = BitOps(F2, m)
    n, k = len(hosts[0]), len(combos[0])
    width = max(1, -(-m // 64))
    pairs = [(cols, combo) for cols in hosts for combo in combos]
    words = np.stack([int_words(cols, width) for cols, _ in pairs]).reshape(len(pairs), n, width)
    chosen = np.array([combo for _, combo in pairs], dtype=np.int64).reshape(len(pairs), k)
    before = words.copy()
    ranks, reps = gf2_coset_reps(words, chosen)
    assert np.array_equal(words, before)
    assert reps.shape == words.shape
    for b, (cols, combo) in enumerate(pairs):
        assert ranks[b] == o.rank_cols([cols[j] for j in combo]), (cols, combo)
        if ranks[b] == k:
            ech: list = []
            for j in combo:
                ech.append(o.reduce_pivot(ech, cols[j]))
            want = [0 if row is None else row[1] for row in (o.reduce_pivot(ech, c) for c in cols)]
            assert word_ints(reps[b]) == want, (cols, combo)


def test_coset_reps_match_the_search_echelon_exhaustive():
    # every GF(2) 3x4 and 4x3 matrix, every ordered contraction set of up
    # to three columns, |C| = 0 included
    for m, n in ((3, 4), (4, 3)):
        hosts = [[(code >> (m * j)) & ((1 << m) - 1) for j in range(n)]
                 for code in range(1 << (m * n))]
        for k in range(4):
            _check_coset_reps(m, hosts, list(itertools.permutations(range(n), k)))


def test_coset_reps_match_the_search_echelon_multiword():
    # 70 and 130 rows: two and three words per column, with a dependent
    # column (the sum of columns 1 and 2), a zero column and two columns
    # zero in the first word (pivots past it) in every host
    rng = random.Random(49)
    for m, n in ((70, 80), (130, 20)):
        hosts = []
        for _ in range(3):
            cols = [rng.getrandbits(m) for _ in range(n)]
            cols[0], cols[3] = cols[1] ^ cols[2], 0
            cols[4], cols[5] = (rng.getrandbits(m - 64) << 64 for _ in range(2))
            hosts.append(cols)
        assert word_ints(int_words(hosts[0], 3)) == hosts[0]
        for k in (0, 1, 2, 3, 7, 15):
            combos = [tuple(rng.sample(range(n), k)) for _ in range(12)]
            combos += [tuple(range(k)), tuple(range(4, 4 + k))[::-1]]
            _check_coset_reps(m, hosts, combos)


def test_coset_reps_accept_a_broadcast_host():
    # one host's words broadcast across the batch, as the search passes
    # them, give what the materialised copies give
    rng = random.Random(50)
    cols = [rng.getrandbits(9) for _ in range(14)]
    words = int_words(cols, 1)
    combos = np.array([rng.sample(range(14), 4) for _ in range(40)], dtype=np.int64)
    got = gf2_coset_reps(np.broadcast_to(words, (40, 14, 1)), combos)
    want = gf2_coset_reps(np.repeat(words[None], 40, axis=0), combos)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_words_match_a_per_row_reference():
    # one packbits over the flat, word-padded array against packing each
    # row bit by bit, on stacks, across word boundaries and on empty shapes
    rng = np.random.default_rng(47)
    shapes = [(3, 0), (2, 1), (2, 63), (2, 64), (2, 65), (2, 130), (4, 3, 65), (3, 2, 130),
              (0, 5), (0, 2, 64), (3, 0, 7)]
    for shape in shapes:
        bits = rng.integers(0, 2, shape).astype(np.uint8)
        width = max(1, -(-shape[-1] // 64))
        for x in (bits, bits == 1):
            words = pack_words(x)
            assert words.shape == shape[:-1] + (width,) and words.dtype == np.dtype("<u8")
            for idx in np.ndindex(*shape[:-1]):
                v = sum(int(b) << j for j, b in enumerate(bits[idx]))
                assert words[idx].tolist() == [v >> 64 * t & (2**64 - 1) for t in range(width)]


def test_fast_rank_matches_rref_rank_gf9():
    rng = random.Random(43)
    for _ in range(30):
        A = FqMatrix(F9, 3, 4, tuple(rng.randrange(9) for _ in range(12)))
        assert fast_rank(A) == rank(A)


def test_gf2_ranks_of_low_rank_stacks(monkeypatch):
    # products L·R of random m x r and r x n matrices have rank <= r, so
    # many columns have no pivot; shapes cross the 64-bit word boundary
    rng = np.random.default_rng(45)
    for m, n, r in ((3, 5, 1), (8, 8, 4), (70, 66, 20), (65, 130, 64), (40, 200, 39), (5, 2, 2)):
        L = rng.integers(0, 2, (9, m, r))
        R = rng.integers(0, 2, (9, r, n))
        bits = (L @ R % 2).astype(np.uint8)
        want = [fast_rank(FqMatrix(F2, m, n, tuple(b.ravel().tolist()))) for b in bits]
        assert max(want) <= r
        # either side's words, rows or columns, give the same ranks, and
        # the words are left as they were
        for words in (pack_words(bits), pack_words(bits.transpose(0, 2, 1))):
            kept = words.copy()
            assert gf2_ranks(words).tolist() == want
            assert np.array_equal(words, kept)
    wide = rng.integers(0, 2, (4, 2, 1000)).astype(np.uint8)
    wide[0] = 0
    wide[1, 1] = wide[1, 0]
    assert gf2_ranks(pack_words(wide)).tolist() == [0, 1, 2, 2]
    assert gf2_ranks(pack_words(wide.transpose(0, 2, 1))).tolist() == [0, 1, 2, 2]
    assert gf2_ranks(pack_words(np.zeros((3, 0, 4), dtype=np.uint8))).tolist() == [0, 0, 0]
    assert gf2_ranks(pack_words(np.ones((2, 4, 0), dtype=np.uint8))).tolist() == [0, 0]
    # a rank chunk packs the side with fewer vectors, by one pack_words
    # per stack: the rows of a wide stack (and of a square one), the
    # columns of a tall one
    packed = []

    def spy(bits):
        packed.append(bits.shape)
        return pack_words(bits)

    monkeypatch.setattr(linalg, "pack_words", spy)
    for m, n in ((2, 1000), (1000, 2), (8, 8), (0, 5), (5, 0)):
        packed.clear()
        got = sampler._rank_chunk((2, m, n), 45, 0, 6)
        assert [shape[1] for shape in packed] == [min(m, n)], (m, n)
        assert got == Counter(fast_rank(sample_matrix(2, m, n, SeedSpec(45, i)))
                              for i in range(6)), (m, n)


def test_triangular_push_pop_tracks_rank():
    # push reduce_pivot rows without back-substitution, pop them again:
    # the echelon's length must stay the rank of the columns on the stack
    rng = random.Random(44)
    for f in (F2, F3, F4):
        m = 4
        o = ops_for(f, m)
        for _ in range(20):
            A = FqMatrix(f, m, 6, tuple(rng.randrange(f.q) for _ in range(m * 6)))
            # a few repeated and scaled columns make dependent pushes common
            pool = o.cols_of(A)
            pool += [pool[0], pool[1]] + o.cols_of(FqMatrix(f, m, 1, (0,) * m))
            ech, stack = [], []
            for _ in range(40):
                if stack and rng.random() < 0.4:
                    _, pushed = stack.pop()
                    if pushed:
                        ech.pop()
                else:
                    v = rng.choice(pool)
                    row = o.reduce_pivot(ech, v)
                    if row is not None:
                        p, w = row
                        assert codes(o, w, m)[pivot_row(o, p)] == 1
                        ech.append(row)
                    stack.append((v, row is not None))
                cols = [v for v, _ in stack]
                assert len(ech) == o.rank_cols(cols)
                for v in pool:
                    in_span = o.reduce_pivot(ech, v) is None
                    assert in_span == (o.rank_cols(cols + [v]) == len(ech))
