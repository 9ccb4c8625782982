"""The GF(2) bit backend and the generic table backend implement the same
operations; they must agree exactly when both run over GF(2)."""

import itertools
import random

from conftest import dot, identity, rank
from fqminors.gf import field
from fqminors.linalg import (BitOps, GenOps, complete_to_basis, contract, fast_rank,
                             leftmost_independent, ops_for)
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


def test_backends_agree_on_inverse():
    rng = random.Random(42)
    bit = BitOps(F2, 4)
    gen = GenOps(F2, 4)
    done = 0
    while done < 20:
        A = FqMatrix(F2, 4, 4, tuple(rng.randrange(2) for _ in range(16)))
        bcols = bit.cols_of(A)
        if bit.rank_cols(bcols) < 4:
            continue
        done += 1
        gcols = gen.cols_of(A)
        brows = bit.inverse_rows(bcols)
        grows = gen.inverse_rows(gcols)
        for i in range(4):
            for j in range(4):
                assert (brows[i] >> j) & 1 == grows[i][j]
        # P really is the inverse: P @ column j of A = e_j
        for j in range(4):
            coords = [dot(F2, brows[i], bcols[j]) for i in range(4)]
            assert coords == [1 if i == j else 0 for i in range(4)]


def test_contract_matches_reference_product():
    # contract's row combinations against P (inverse_rows, as a matrix)
    # times A by matmul, on sampled GF(2) hosts (packed form attached),
    # their unattached copies and GF(3) hosts
    rng = random.Random(45)
    m, n = 20, 30
    for q, stream in itertools.product((2, 3), range(3)):
        sampled = sample_matrix(q, m, n, SeedSpec(45, stream))
        hosts = [sampled, FqMatrix(sampled.field, m, n, sampled.entries)]
        o = ops_for(sampled.field, m)
        cols = o.cols_of(sampled)
        for k in (0, 1, 5, 12, 19):
            order = rng.sample(range(n), n)
            chosen = [order[i] for i in leftmost_independent(o, [cols[j] for j in order], k)]
            assert len(chosen) == k
            keep = sorted(rng.sample([j for j in range(n) if j not in chosen], 6))
            p_rows = o.inverse_rows(complete_to_basis(o, [cols[j] for j in chosen]))
            P = FqMatrix.from_rows(sampled.field, [coords(r, range(m)) for r in p_rows])
            pa = P.matmul(sampled)
            assert [pa.col(j) for j in chosen] == \
                [tuple(int(i == pos) for i in range(m)) for pos in range(k)]
            want = FqMatrix(sampled.field, m - k, len(keep),
                            tuple(pa.entries[i * n + j] for i in range(k, m) for j in keep))
            for A in hosts:
                assert contract(o, A, chosen, keep) == want, (q, stream, k)


def test_complete_to_basis_is_invertible():
    for f, m in ((F2, 3), (F9, 2)):
        o = ops_for(f, m)
        ident = identity(f, m)
        start = [o.cols_of(ident)[0]]
        basis = complete_to_basis(o, start)
        assert len(basis) == m
        assert o.rank_cols(basis) == m


def test_fast_rank_matches_rref_rank_gf9():
    rng = random.Random(43)
    for _ in range(30):
        A = FqMatrix(F9, 3, 4, tuple(rng.randrange(9) for _ in range(12)))
        assert fast_rank(A) == rank(A)


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
