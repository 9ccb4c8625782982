"""The GF(2) bit backend and the generic table backend implement the same
operations; they must agree exactly when both run over GF(2)."""

import itertools
import random

import numpy as np

from conftest import basis_change, complete_to_basis, dot, rank
from fqminors.gf import field
from fqminors.linalg import (BitOps, GenOps, contract, fast_rank, gf2_ranks, leftmost_independent,
                             ops_for)
from fqminors.matrix import FqMatrix
from fqminors.sampler import SeedSpec, sample_matrix

F2 = field(2)
F4 = field(4)
F3 = field(3)
F9 = field(9)


def coords(v, rows) -> list[int]:
    """Entries of a column of either backend (an int over GF(2), else a tuple)."""
    if isinstance(v, int):
        return [(v >> i) & 1 for i in rows]
    return [v[i] for i in rows]


def test_backends_agree_on_rank_exhaustive():
    bit = BitOps(F2, 2)
    gen = GenOps(F2, 2)
    for entries in itertools.product(range(2), repeat=6):
        A = FqMatrix(F2, 2, 3, entries)
        rb = bit.rank_cols(bit.cols_of(A))
        rg = gen.rank_cols(gen.cols_of(A))
        assert rb == rg == rank(A)


def test_backends_agree_on_quotient_reduction():
    rng = random.Random(41)
    bit = BitOps(F2, 4)
    gen = GenOps(F2, 4)
    for _ in range(50):
        A = FqMatrix(F2, 4, 6, tuple(rng.randrange(2) for _ in range(24)))
        bcols = bit.cols_of(A)
        gcols = gen.cols_of(A)
        bech, gech = [], []
        for j in range(3):
            brow = bit.reduce_pivot(bech, bcols[j])
            grow = gen.reduce_pivot(gech, gcols[j])
            assert (brow is None) == (grow is None)
            if brow is not None:
                assert brow[0] == grow[0]
                assert coords(brow[1], range(4)) == list(grow[1])
                bech.append(brow)
                gech.append(grow)
        for j in range(3, 6):
            br = bit.reduce(bech, bcols[j])
            gr = gen.reduce(gech, gcols[j])
            assert coords(br, range(4)) == list(gr)


def test_backends_expose_the_same_methods():
    def public(cls):
        return {name for name in dir(cls) if not name.startswith("_")}

    assert public(BitOps) == public(GenOps)


def test_backends_agree_on_inverse():
    # the Gauss-Jordan pass on [A | I] over GF(2): both backends agree entry
    # by entry, the right block times B is I and the left block is P·A, with
    # B and P from the reference; chosen sets run up to more than m columns
    rng = random.Random(42)
    m, n = 4, 6
    bit, gen = BitOps(F2, m), GenOps(F2, m)
    outcomes = set()
    for _ in range(80):
        A = FqMatrix(F2, m, n, tuple(rng.randrange(2) for _ in range(m * n)))
        chosen = rng.sample(range(n), rng.randrange(0, m + 2))
        brows = bit.inverse_rows(bit.rows_of(A), n, chosen)
        grows = gen.inverse_rows(gen.rows_of(A), n, chosen)
        P = basis_change(A, chosen)
        outcomes.add(P is None)
        assert (brows is None) == (grows is None) == (P is None)
        if P is None:
            continue
        assert [coords(r, range(n + m)) for r in brows] == [list(r) for r in grows]
        basis = complete_to_basis(F2, [A.col(j) for j in chosen], m)
        B = FqMatrix(F2, m, m, tuple(b[i] for i in range(m) for b in basis))
        bcols, gcols = bit.cols_of(B), gen.cols_of(B)
        for i in range(m):
            for j in range(m):
                assert dot(F2, brows[i] >> n, bcols[j]) == int(i == j)
                assert dot(F2, grows[i][n:], gcols[j]) == int(i == j)
        PA = P.matmul(A)
        assert [list(r[:n]) for r in grows] == [list(PA.row(i)) for i in range(m)]
    assert outcomes == {True, False}


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
                        assert coords(w, [p]) == [1]
                        ech.append(row)
                    stack.append((v, row is not None))
                cols = [v for v, _ in stack]
                assert len(ech) == o.rank_cols(cols)
                for v in pool:
                    in_span = o.reduce_pivot(ech, v) is None
                    assert in_span == (o.rank_cols(cols + [v]) == len(ech))
