"""The three backends implement the same operations: the GF(2) bit backend
and the GF(3) plane backend must agree exactly with the generic table
backend run over the same field, and with the `tests/conftest.py`
reference elimination."""

import itertools
import random

import numpy as np

from conftest import basis_change, complete_to_basis, dot, rank
from fqminors.gf import field
from fqminors.linalg import (BitOps, GenOps, TriOps, contract, fast_rank, gf2_ranks,
                             leftmost_independent, ops_for)
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
    """One Gauss-Jordan pass on [A | I] by both backends: they agree entry
    by entry, the right block times B is I and the left block is P·A, with
    B and P from the reference; returns whether the chosen set was
    dependent."""
    f, m, n = A.field, A.m, A.n
    frows = fast.inverse_rows(fast.rows_of(A), n, chosen)
    grows = gen.inverse_rows(gen.rows_of(A), n, chosen)
    P = basis_change(A, chosen)
    assert (frows is None) == (grows is None) == (P is None)
    if P is None:
        return True
    assert [codes(fast, r, n + m) for r in frows] == [list(r) for r in grows]
    basis = complete_to_basis(f, [A.col(j) for j in chosen], m)
    for i in range(m):
        for j in range(m):
            assert dot(f, grows[i][n:], basis[j]) == int(i == j)
    PA = P.matmul(A)
    assert [list(r[:n]) for r in grows] == [list(PA.row(i)) for i in range(m)]
    assert [list(r[n:]) for r in grows] == [list(P.row(i)) for i in range(m)]
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


def test_contract_matches_reference_product():
    # contract against rows k..m-1 of P·A, P from the reference rref([B | I]),
    # on sampled GF(2) hosts (packed form attached), their unattached
    # copies, and GF(3) and GF(4) hosts; a dependent chosen set (one column
    # the sum of two others) and one with more columns than rows give None
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
            pa = basis_change(sampled, chosen).matmul(sampled)
            assert [pa.col(j) for j in chosen] == \
                [tuple(int(i == pos) for i in range(m)) for pos in range(k)]
            want = FqMatrix(f, m - k, len(keep),
                            tuple(pa.entries[i * n + j] for i in range(k, m) for j in keep))
            for A in hosts:
                assert contract(o, A, chosen, keep) == want, (q, stream, k)
        rows = [sampled.row(i) for i in range(m)]
        dep = FqMatrix.from_rows(f, [r[:-1] + (f.add_table[r[0]][r[1]],) for r in rows])
        for chosen in ([0, 5, n - 1, 1], list(range(m + 1))):
            assert basis_change(dep, chosen) is None
            assert contract(o, dep, chosen, [2, 3]) is None, (q, stream, chosen)


def test_fast_rank_matches_rref_rank_gf9():
    rng = random.Random(43)
    for _ in range(30):
        A = FqMatrix(F9, 3, 4, tuple(rng.randrange(9) for _ in range(12)))
        assert fast_rank(A) == rank(A)


def test_gf2_ranks_of_low_rank_stacks():
    # products L·R of random m x r and r x n matrices have rank <= r, so
    # many columns have no pivot; shapes cross the 64-bit word boundary
    rng = np.random.default_rng(45)
    for m, n, r in ((3, 5, 1), (8, 8, 4), (70, 66, 20), (65, 130, 64), (40, 200, 39), (5, 2, 2)):
        L = rng.integers(0, 2, (9, m, r))
        R = rng.integers(0, 2, (9, r, n))
        bits = (L @ R % 2).astype(np.uint8)
        want = [fast_rank(FqMatrix(F2, m, n, tuple(b.ravel().tolist()))) for b in bits]
        assert gf2_ranks(bits).tolist() == want
        assert max(want) <= r
    # a wide stack is ranked by its transpose
    wide = rng.integers(0, 2, (4, 2, 1000)).astype(np.uint8)
    wide[0] = 0
    wide[1, 1] = wide[1, 0]
    assert gf2_ranks(wide).tolist() == [0, 1, 2, 2]
    assert gf2_ranks(np.zeros((3, 0, 4), dtype=np.uint8)).tolist() == [0, 0, 0]
    assert gf2_ranks(np.ones((2, 4, 0), dtype=np.uint8)).tolist() == [0, 0]


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
