"""Internal column-vector kernels used by the matroid/minor/sampler layers.

Two interchangeable backends over the same interface: a bit-packed one for
GF(2) (columns are Python ints, bit i = row i) and a generic one driven by
the field tables (columns are tuples).  An echelon is a triangular list of
(pivot, row) pairs; each row has pivot value 1 and is zero at the pivots of
the rows before it.  `reduce` works through the rows in list order and
returns the one vector of v's coset modulo the span that is zero at every
pivot: equal representatives mean equal cosets, and zero means v lies in
the span.  An echelon only ever grows by the row `reduce_pivot` returns,
so a search can push and pop rows along its path; every rank, greedy column
pick and coset representative comes from that one step.
`contract` is the one change of basis: it sends chosen independent columns
to unit vectors and drops them with their rows, which is contraction on
the column matroid.  The randomness-preserving reduction and the matrix
witness verifier both call it.  It is one Gauss-Jordan pass on the rows of
[A | I] (`inverse_rows`), which pivots on the chosen columns and then on
the unit columns outside their span; that pass shares no elimination with
the search, so a verifier does not trust the kernel it checks.
`pack_rows` is the one GF(2) packer: the sampler attaches a sample's
packed columns and rows (`pack_matrix`), and `BitOps` packs any other
matrix with it on each call, storing nothing.  `gf2_ranks` ranks a whole
stack of GF(2) matrices at once, on the same 64-bit row words that
`pack_rows` joins into ints, by one numpy elimination across the stack.
"""

from __future__ import annotations

import numpy as np

from .gf import Field
from .matrix import FqMatrix


def _words(bits: np.ndarray) -> np.ndarray:
    """The 0/1 entries along the last axis of `bits` packed into 64-bit
    words, bit j of a row in word j // 64 at position j % 64; a row always
    has at least one word."""
    packed = np.packbits(bits.astype(np.uint8, copy=False), axis=-1, bitorder="little")
    width = packed.shape[-1]
    padded = np.zeros(packed.shape[:-1] + (max(1, -(-width // 8)) * 8,), dtype=np.uint8)
    padded[..., :width] = packed
    return padded.view("<u8")


def pack_rows(bits: np.ndarray) -> list[int]:
    """Each row of a 2-D 0/1 array as an int, bit j = entry j, for any row
    length: the one GF(2) packer.  The 64-bit words of a row are joined
    most significant first."""
    words = _words(bits)
    out = words[:, -1].tolist()
    for k in range(words.shape[1] - 2, -1, -1):
        out = [v << 64 | w for v, w in zip(out, words[:, k].tolist())]
    return out


def gf2_ranks(bits: np.ndarray) -> np.ndarray:
    """Ranks of a stack of 0/1 matrices of shape (T, m, n), as T ints.

    The rows are packed into 64-bit words (`_words`) and eliminated one
    column at a time across the whole stack: in each matrix the first row
    not yet used as a pivot that has a 1 in the column becomes its pivot,
    and is added to every other unused row with a 1 there.  A wide stack
    is ranked by its transpose, so there are min(m, n) column steps."""
    if bits.shape[2] > bits.shape[1]:
        bits = bits.transpose(0, 2, 1)
    T, m, n = bits.shape
    if n == 0:
        return np.zeros(T, dtype=np.int64)
    words = _words(bits)
    free = np.ones((T, m), dtype=bool)
    stack = np.arange(T)
    for j in range(n):
        w = j >> 6
        hit = (words[:, :, w] >> np.uint64(j & 63) & np.uint64(1)).astype(bool) & free
        piv = hit.argmax(axis=1)
        found = hit[stack, piv]
        free[stack, piv] &= ~found
        hit[stack, piv] = False
        pivot_rows = words[stack, piv, w:]
        words[:, :, w:] ^= np.where(hit[:, :, None], pivot_rows[:, None, :], np.uint64(0))
    return m - free.sum(axis=1)


def pack_matrix(bits: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(columns, rows) of an m x n 0/1 array in `BitOps`' packed form, as
    `FqMatrix.packed` holds them."""
    return tuple(pack_rows(bits.T)), tuple(pack_rows(bits))


def _bits(A: FqMatrix) -> np.ndarray:
    return np.array(A.entries, dtype=np.uint8).reshape(A.m, A.n)


class _Ops:
    """What both backends share: everything built from `reduce_pivot`."""

    def __init__(self, f: Field, m: int):
        self.field = f
        self.m = m

    def rank_cols(self, cols) -> int:
        ech: list = []
        for c in cols:
            row = self.reduce_pivot(ech, c)
            if row is not None:
                ech.append(row)
        return len(ech)


class BitOps(_Ops):
    """GF(2) columns as ints; pivot = lowest set bit."""

    def cols_of(self, A: FqMatrix) -> list[int]:
        if A.packed is not None:
            return list(A.packed[0])
        return pack_rows(_bits(A).T)

    def rows_of(self, A: FqMatrix) -> list[int]:
        """Rows as ints, bit j = column j."""
        if A.packed is not None:
            return list(A.packed[1])
        return pack_rows(_bits(A))

    def reduce(self, ech: list, v: int) -> int:
        for p, b in ech:
            if (v >> p) & 1:
                v ^= b
        return v

    def reduce_pivot(self, ech: list, v: int):
        """(pivot, v reduced by ech), or None when v lies in ech's span."""
        v = self.reduce(ech, v)
        if not v:
            return None
        return (v & -v).bit_length() - 1, v

    def inverse_rows(self, rows: list[int], n: int, chosen: list[int]) -> list[int] | None:
        """Rows of [B^{-1}A | B^{-1}] (bit j < n is column j of B^{-1}A,
        bit n+i column i of B^{-1}) for A with the given rows and n columns,
        where B is the chosen columns of A completed to a basis by unit
        vectors in index order; None when the chosen columns are dependent.

        One Gauss-Jordan pass on [A | I]: it pivots on the chosen columns,
        in order, then on each column of I outside their span."""
        m, k = self.m, len(chosen)
        aug = [row | 1 << (n + i) for i, row in enumerate(rows)]
        r = 0
        for t, c in enumerate(chosen + [n + i for i in range(m)]):
            if r == m:
                return None if t < k else aug
            for piv in range(r, m):
                if aug[piv] >> c & 1:
                    break
            else:
                if t < k:
                    return None
                continue
            aug[r], aug[piv] = aug[piv], aug[r]
            p = aug[r]
            aug = [a ^ p if a >> c & 1 and i != r else a for i, a in enumerate(aug)]
            r += 1
        return aug

    def pick(self, rows: list, idx: list[int]) -> list[int]:
        """Entries at columns idx of the given rows, row-major."""
        return [(r >> j) & 1 for r in rows for j in idx]


class GenOps(_Ops):
    """Generic field-table columns as tuples; pivot = first nonzero index."""

    def cols_of(self, A: FqMatrix) -> list[tuple[int, ...]]:
        return [A.col(j) for j in range(A.n)]

    def rows_of(self, A: FqMatrix) -> list[tuple[int, ...]]:
        return [A.row(i) for i in range(A.m)]

    def _axpy(self, v, coeff_neg, b):
        # v + coeff_neg * b componentwise; a list comprehension over one
        # row of the multiplication table is the fastest form measured
        add, scale = self.field.add_table, self.field.mul_table[coeff_neg]
        return tuple([add[x][scale[y]] for x, y in zip(v, b)])

    def reduce(self, ech: list, v):
        neg = self.field.neg_table
        for p, b in ech:
            c = v[p]
            if c:
                v = self._axpy(v, neg[c], b)
        return v

    def reduce_pivot(self, ech: list, v):
        """(pivot, v reduced by ech and scaled to pivot value 1), or None
        when v lies in ech's span."""
        v = self.reduce(ech, v)
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return None
        s = self.field.inv_table[v[p]]
        if s != 1:
            scale = self.field.mul_table[s]
            v = tuple(scale[x] for x in v)
        return p, v

    def inverse_rows(self, rows: list, n: int, chosen: list[int]) -> list[tuple[int, ...]] | None:
        """`BitOps.inverse_rows` over the field tables: rows of
        [B^{-1}A | B^{-1}] as tuples of length n+m, or None."""
        m, k = self.m, len(chosen)
        neg, inv, mul = self.field.neg_table, self.field.inv_table, self.field.mul_table
        aug = [tuple(row) + (0,) * i + (1,) + (0,) * (m - 1 - i) for i, row in enumerate(rows)]
        r = 0
        for t, c in enumerate(chosen + [n + i for i in range(m)]):
            if r == m:
                return None if t < k else aug
            for piv in range(r, m):
                if aug[piv][c]:
                    break
            else:
                if t < k:
                    return None
                continue
            aug[r], aug[piv] = aug[piv], aug[r]
            p = aug[r]
            s = inv[p[c]]
            if s != 1:
                scale = mul[s]
                p = tuple([scale[x] for x in p])
            aug[r] = p
            for i, a in enumerate(aug):
                if a[c] and i != r:
                    aug[i] = self._axpy(a, neg[a[c]], p)
            r += 1
        return aug

    def pick(self, rows: list, idx: list[int]) -> list[int]:
        """Entries at columns idx of the given rows, row-major."""
        return [r[j] for r in rows for j in idx]


def ops_for(f: Field, m: int):
    return BitOps(f, m) if f.q == 2 else GenOps(f, m)


def fast_rank(A: FqMatrix) -> int:
    """Column rank; bit-packed for GF(2), table-driven otherwise."""
    o = ops_for(A.field, A.m)
    return o.rank_cols(o.cols_of(A))


def leftmost_independent(o, cols, limit: int) -> list[int]:
    """Indices of the greedy independent columns, left to right, stopping
    at `limit` of them."""
    ech: list = []
    out: list[int] = []
    for j, c in enumerate(cols):
        if len(out) == limit:
            break
        row = o.reduce_pivot(ech, c)
        if row is not None:
            ech.append(row)
            out.append(j)
    return out


def basis_masks(o, vecs: list, r: int, stop: int | None = None) -> list[int]:
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


def contract(o, A: FqMatrix, chosen: list[int], keep: list[int]) -> FqMatrix | None:
    """The `keep` columns of A after contracting the `chosen` ones, as rows
    k..m-1 of P·A at those columns (k = len(chosen)), where P = B^{-1} from
    `inverse_rows` sends column chosen[pos] to unit vector pos; None when
    the chosen columns are dependent (or more than m)."""
    rows = o.inverse_rows(o.rows_of(A), A.n, chosen)
    if rows is None:
        return None
    k = len(chosen)
    return FqMatrix(o.field, A.m - k, len(keep), tuple(o.pick(rows[k:], keep)))
