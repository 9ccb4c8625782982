"""Internal column-vector kernels used by the matroid/minor/sampler layers.

Three interchangeable backends over one interface, one per column form:

* `BitOps`, GF(2): a column is a Python int, bit i = row i.
* `TriOps`, GF(3): a column is a pair of ints, two bit-planes: bit i of
  the first is set where row i holds 1, bit i of the second where it holds
  2.  Adding or subtracting two columns is six OR/XOR operations on the
  planes (the bitsliced circuits of Boothby & Bradshaw, "Bitslicing and
  the method of four Russians over larger finite fields",
  arXiv:0901.1413), and negating one swaps its planes.
* `GenOps`, every other field: a column is a tuple of codes, and each
  entry of an axpy costs two field-table lookups.

`ops_for` picks the backend.  An echelon is a triangular list of (pivot,
row) pairs; each row has pivot value 1 and is zero at the pivots of the
rows before it.  The two bit backends keep a pivot as its one-bit mask,
`GenOps` as its row index; the pivot is always the row's lowest nonzero
row.  `reduce` works through the rows in list order and returns the one
vector of v's coset modulo the span that is zero at every pivot: equal
representatives mean equal cosets, and zero means v lies in the span.  An
echelon only ever grows by the row `reduce_pivot` returns, so a search can
push and pop rows along its path; every rank, greedy column pick and coset
representative comes from that one step.
`contract` is the one change of basis: it sends chosen independent columns
to unit vectors and drops them with their rows, which is contraction on
the column matroid.  The randomness-preserving reduction and the matrix
witness verifier both call it.  It is one Gauss-Jordan pass on the rows of
[A | I] (`inverse_rows`), which pivots on the chosen columns and then on
the unit columns outside their span; that pass shares no elimination with
the search, so a verifier does not trust the kernel it checks.  Its output
carries its columns and rows in the backend's form (`pick`).
A matrix's columns and rows reach a backend in its form (`cols_of`,
`rows_of`): attached to the matrix when the sampler (`pack`, by numpy's
`pack_rows` from the codes), `contract` or the oracle built them, and
otherwise encoded from the entries (`encode`).  `gf2_ranks` ranks a whole
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


# the ASCII digit each code becomes in an int(..., 2) string: "1" where the
# entry is 1 (the ones plane, and a GF(2) column) or 2 (the twos plane)
_ONES = bytes.maketrans(b"\0\1\2", b"010")
_TWOS = bytes.maketrans(b"\0\1\2", b"001")


def _plane(entries, digits: bytes) -> int:
    """The int whose bit i is set where `digits` maps entries[i] to "1"."""
    return int(bytes(entries[::-1]).translate(digits) or b"0", 2)


class _Ops:
    """What every backend shares: a matrix's columns and rows in the
    backend's form, and everything built from `reduce_pivot`."""

    # sort key under which the backend's vectors order as their tuples of
    # codes do, row 0 first; None where the vectors themselves sort so
    # (GenOps' tuples) or where the order is the backend's own (BitOps)
    order = None

    def __init__(self, f: Field, m: int):
        self.field = f
        self.m = m

    def cols_of(self, A: FqMatrix) -> list:
        """A's columns: the attached ones, else encoded from the entries."""
        if A.packed_cols is not None:
            return list(A.packed_cols)
        return [self.encode(A.col(j)) for j in range(A.n)]

    def rows_of(self, A: FqMatrix) -> list:
        """A's rows as vectors over its columns: the attached ones, else
        encoded from the entries."""
        if A.packed_rows is not None:
            return list(A.packed_rows)
        return [self.encode(A.row(i)) for i in range(A.m)]

    def rank_cols(self, cols) -> int:
        ech: list = []
        for c in cols:
            row = self.reduce_pivot(ech, c)
            if row is not None:
                ech.append(row)
        return len(ech)

    def _matrix(self, grid: list, n: int) -> FqMatrix:
        """The matrix with the given rows of n codes each, carrying its
        columns and rows in the backend's form."""
        entries = tuple([x for row in grid for x in row])
        cols = tuple([self.encode(entries[j::n]) for j in range(n)])
        return FqMatrix.with_packed(self.field, len(grid), n, entries, cols,
                                    tuple([self.encode(row) for row in grid]))


class BitOps(_Ops):
    """GF(2) columns as ints; pivot = lowest set bit."""

    def encode(self, entries) -> int:
        """The column with the given entries, entry i = row i."""
        return _plane(entries, _ONES)

    def pack(self, codes: np.ndarray) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(columns, rows) of an m x n array of codes, packed by numpy."""
        return tuple(pack_rows(codes.T)), tuple(pack_rows(codes))

    def reduce(self, ech: list, v: int) -> int:
        for bit, b in ech:
            if v & bit:
                v ^= b
        return v

    def reduce_pivot(self, ech: list, v: int):
        """(pivot bit, v reduced by ech), or None when v lies in ech's span."""
        v = self.reduce(ech, v)
        if not v:
            return None
        return v & -v, v

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
            bit = 1 << c
            for piv in range(r, m):
                if aug[piv] & bit:
                    break
            else:
                if t < k:
                    return None
                continue
            aug[r], aug[piv] = aug[piv], aug[r]
            p = aug[r]
            aug = [a ^ p if a & bit and i != r else a for i, a in enumerate(aug)]
            r += 1
        return aug

    def pick(self, rows: list, idx: list[int]) -> FqMatrix:
        """The matrix of the given rows' entries at columns idx."""
        return self._matrix([[r >> j & 1 for j in idx] for r in rows], len(idx))


class GenOps(_Ops):
    """Generic field-table columns as tuples; pivot = first nonzero index."""

    def encode(self, entries) -> tuple[int, ...]:
        return tuple(entries)

    def pack(self, codes: np.ndarray) -> None:
        """None: a tuple column is read from the entries as cheaply."""
        return None

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

    def pick(self, rows: list, idx: list[int]) -> FqMatrix:
        """The matrix of the given rows' entries at columns idx."""
        return self._matrix([[r[j] for j in idx] for r in rows], len(idx))


class TriOps(GenOps):
    """GF(3) columns as (ones, twos) bit-plane pairs; pivot = lowest set
    bit of ones | twos.

    A GenOps subclass that overrides every column primitive, so the shared
    methods it inherits (`cols_of`, `rows_of`, `rank_cols`) are GenOps'
    own, as the benchmark's per-layer tracer counts them."""

    def encode(self, entries) -> tuple[int, int]:
        """The column with the given entries, entry i = row i."""
        return _plane(entries, _ONES), _plane(entries, _TWOS)

    def pack(self, codes: np.ndarray) -> tuple[tuple, tuple]:
        """(columns, rows) of an m x n array of codes, each plane packed
        by numpy."""
        m, n = codes.shape
        cols = pack_rows(np.concatenate((codes.T == 1, codes.T == 2)))
        rows = pack_rows(np.concatenate((codes == 1, codes == 2)))
        return tuple(zip(cols[:n], cols[n:])), tuple(zip(rows[:m], rows[m:]))

    def order(self, v: tuple[int, int]) -> int:
        """The base-3 number whose digits, most significant first, are v's
        entries from row 0 on: plane pairs sort by it as tuples of codes."""
        p, n = v
        width = f"0{self.m}b"
        return int(format(p, width)[::-1], 3) + 2 * int(format(n, width)[::-1], 3)

    def reduce(self, ech: list, v: tuple[int, int]) -> tuple[int, int]:
        vp, vn = v
        for bit, (bp, bn) in ech:
            if vp & bit:  # v - b
                t = (vp | bp) ^ (vn | bn)
                vp, vn = (vn | bp) ^ t, (vp | bn) ^ t
            elif vn & bit:  # v + b
                t = (vp | bn) ^ (vn | bp)
                vp, vn = (vn | bn) ^ t, (vp | bp) ^ t
        return vp, vn

    def reduce_pivot(self, ech: list, v: tuple[int, int]):
        """(pivot bit, v reduced by ech and scaled to pivot value 1), or
        None when v lies in ech's span."""
        vp, vn = self.reduce(ech, v)
        nz = vp | vn
        if not nz:
            return None
        bit = nz & -nz
        # a 2 at the pivot: scale by 2, which swaps the planes
        return (bit, (vn, vp)) if vn & bit else (bit, (vp, vn))

    def inverse_rows(self, rows: list, n: int, chosen: list[int]) -> list[tuple[int, int]] | None:
        """`BitOps.inverse_rows` on plane pairs: rows of [B^{-1}A | B^{-1}]
        with bit n+i for column i of B^{-1}, or None."""
        m, k = self.m, len(chosen)
        aug = [(p | 1 << (n + i), q) for i, (p, q) in enumerate(rows)]
        r = 0
        for t, c in enumerate(chosen + [n + i for i in range(m)]):
            if r == m:
                return None if t < k else aug
            bit = 1 << c
            for piv in range(r, m):
                if (aug[piv][0] | aug[piv][1]) & bit:
                    break
            else:
                if t < k:
                    return None
                continue
            aug[r], aug[piv] = aug[piv], aug[r]
            bp, bn = aug[r]
            pivot = (bn, bp) if bn & bit else (bp, bn)  # scaled to 1 at c
            # reducing every other row by the one-row echelon clears column c
            ech = [(bit, pivot)]
            aug = [pivot if i == r else self.reduce(ech, a) for i, a in enumerate(aug)]
            r += 1
        return aug

    def pick(self, rows: list, idx: list[int]) -> FqMatrix:
        """The matrix of the given rows' entries at columns idx."""
        return self._matrix([[(p >> j & 1) | (q >> j & 1) << 1 for j in idx] for p, q in rows],
                            len(idx))


def ops_for(f: Field, m: int):
    if f.q == 2:
        return BitOps(f, m)
    return TriOps(f, m) if f.q == 3 else GenOps(f, m)


def fast_rank(A: FqMatrix) -> int:
    """Column rank, in the backend of A's field."""
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
    out: list[int] = []
    _walk_bases(o, vecs, r, stop, [], out, 0, 0)
    return out


def _walk_bases(o, vecs: list, r: int, stop, ech: list, out: list, start: int, mask: int) -> bool:
    """Extend the independent prefix `mask`, whose rows are on `ech`, by
    each index from `start` on, appending the r-subsets to `out`; True once
    `stop` of them are out.  A module function, not a closure: a recursive
    closure is a reference cycle that only the cyclic collector frees, and
    `from_matrix` builds one per call."""
    last = len(ech) + 1 == r
    for i in range(start, len(vecs) - r + len(ech) + 1):
        row = o.reduce_pivot(ech, vecs[i])
        if row is None:
            continue
        if last:
            out.append(mask | 1 << i)
            if len(out) == stop:
                return True
        else:
            ech.append(row)
            done = _walk_bases(o, vecs, r, stop, ech, out, i + 1, mask | 1 << i)
            ech.pop()
            if done:
                return True
    return False


def contract(o, A: FqMatrix, chosen: list[int], keep: list[int]) -> FqMatrix | None:
    """The `keep` columns of A after contracting the `chosen` ones, as rows
    k..m-1 of P·A at those columns (k = len(chosen)), where P = B^{-1} from
    `inverse_rows` sends column chosen[pos] to unit vector pos; None when
    the chosen columns are dependent (or more than m)."""
    rows = o.inverse_rows(o.rows_of(A), A.n, chosen)
    return None if rows is None else o.pick(rows[len(chosen):], keep)
