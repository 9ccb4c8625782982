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
representative a backend gives comes from that one step.  So does
`basis_masks`, the one basis walk: given the count a caller needs, it
stops at its verdict, the (count + 1)-th basis or too many dependent
subsets, and returns None for any other count.
`contract` contracts chosen independent columns by one Gauss-Jordan pass
on A's rows (`inverse_rows`, written once on `_Ops`) that pivots on them
in order: a row operation keeps the column matroid, and the rows left
without a pivot, zero at the chosen columns, represent the contraction.
The randomness-preserving reduction and the matrix witness verifier both
call it.  Each backend supplies one pivot step in its own arithmetic
(`eliminate`), which neither calls `reduce` nor `reduce_pivot`: the pass
shares no elimination with the search, so a verifier does not trust the
kernel it checks.  Its output is a plain matrix of the kept entries
(`pick`).
A matrix's columns and rows reach a backend in its form (`cols_of`,
`rows_of`): its columns attached to a GF(3) sample (`TriOps.pack`, from
the codes by `pack_words`) or to an oracle host, and otherwise, as its
rows always are, encoded from the entries (`encode`).
`pack_words` is the one GF(2) packer: it packs 0/1 entries into 64-bit
words, which `word_ints` joins into ints, and stacks of GF(2) matrices
are worked on such words, packed by one call per side.  Two numpy
elimination loops work on them, one per role, and share no step:
`gf2_coset_reps`, the stacked search's kernel, reduces every column of
each of a batch of (host, contraction set) pairs modulo the set by one
column elimination, giving `reduce`'s coset representatives and each
set's rank: the minor search's screening rounds for a stack's hosts,
and, with all of a matrix's vectors as its one set, the ranks of a whole
stack (`gf2_ranks`).  `gf2_contract` contracts each matrix of a stack on
its own chosen columns by one Gaussian elimination on its row words: the
batched witness verifier's contraction, which shares no step with the
search or with `contract`.
"""

from __future__ import annotations

import math

import numpy as np

from .gf import Field
from .matrix import FqMatrix


def pack_words(bits: np.ndarray) -> np.ndarray:
    """The 0/1 entries along the last axis of `bits` packed into 64-bit
    words, bit j of a row in word j // 64 at position j % 64; a row always
    has at least one word.  Each row is padded with zeros to whole words,
    so one `packbits` over the flat array packs every row: the one GF(2)
    packer, of a matrix's rows or columns or of a whole stack's."""
    *lead, n = bits.shape
    width = max(1, -(-n // 64)) * 64
    padded = np.zeros((*lead, width), dtype=np.uint8)
    padded[..., :n] = bits
    return np.packbits(padded, bitorder="little").view("<u8").reshape(*lead, width // 64)


def word_ints(words: np.ndarray) -> list[int]:
    """Each row of a 2-D array of 64-bit words as an int, its words joined
    most significant first."""
    out = words[:, -1].tolist()
    for k in range(words.shape[1] - 2, -1, -1):
        out = [v << 64 | w for v, w in zip(out, words[:, k].tolist())]
    return out


def gf2_ranks(vec_words: np.ndarray) -> np.ndarray:
    """Ranks of a stack of GF(2) matrices, as T ints, from the words of
    their rows or of their columns, shape (T, v, W): `gf2_coset_reps` with
    all v vectors of each matrix as its one set, so there are v steps and
    the side with fewer vectors ranks fastest."""
    T, v, _ = vec_words.shape
    return gf2_coset_reps(vec_words, np.broadcast_to(np.arange(v), (T, v)))[0]


def gf2_contract(words: np.ndarray, chosen: np.ndarray, keep: np.ndarray):
    """Contractions of a stack of GF(2) matrices, each on its own columns:
    (ok, minors) for the G matrices with row words `words`, shape (G, m, W)
    as `pack_words` packs them, contracting columns chosen[g] of matrix g
    and keeping its columns keep[g] (int arrays of shape (G, k) and (G, e)).
    ok[g] is False where matrix g's chosen columns are dependent (or more
    than m); minors, shape (ok.sum(), m - k, e), holds the contractions of
    the others in stack order.

    One elimination step across the stack per chosen column: in each
    matrix the first free row with a 1 in that column becomes its pivot,
    leaves `free` and is added to every other free row with a 1 there.
    The rows never chosen as pivots then vanish on the chosen columns and
    span the part of the row space that does, so their kept entries
    represent the contraction: a row operation keeps the column matroid,
    and no inverse is needed.  The pass shares no code with the search's
    echelon (`reduce`, `reduce_pivot`, `gf2_coset_reps`) or with
    `contract` (`eliminate`)."""
    G, m, _ = words.shape
    k, e = chosen.shape[1], keep.shape[1]
    if k > m:
        return np.zeros(G, dtype=bool), np.zeros((0, 0, e), dtype=np.uint8)
    words = words.copy()
    free = np.ones((G, m), dtype=bool)
    ok = np.ones(G, dtype=bool)
    stack = np.arange(G)
    for c in chosen.T:
        shift = (c & 63).astype(np.uint64)[:, None]
        hit = (words[stack, :, c >> 6] >> shift & np.uint64(1)).astype(bool) & free
        piv = hit.argmax(axis=1)
        found = hit[stack, piv]
        ok &= found
        free[stack, piv] &= ~found
        hit[stack, piv] = False
        words ^= np.where(hit[:, :, None], words[stack, piv][:, None, :], np.uint64(0))
    count = int(ok.sum())
    rows = words[ok][free[ok]].reshape(count, m - k, words.shape[2])
    keep = keep[ok]
    bits = (rows[np.arange(count)[:, None, None], np.arange(m - k)[None, :, None],
                 (keep >> 6)[:, None, :]] >> (keep & 63).astype(np.uint64)[:, None, :])
    return ok, (bits & np.uint64(1)).astype(np.uint8)


def gf2_coset_reps(col_words: np.ndarray, combos: np.ndarray):
    """(ranks, reps) for a stack of B contraction sets: col_words, shape
    (B, n, W), holds B matrices' column words (`pack_words`; a broadcast
    view of one host is fine) and combos, shape (B, k), the columns each
    contracts.  reps, shape (B, n, W), is every column reduced modulo the
    span of its set's columns; ranks[b] is the rank of set b, k where its
    columns are independent.  The one GF(2) kernel of the stacked search:
    its screening rounds and, with every vector of a matrix as one set,
    the ranks of a stack (`gf2_ranks`).

    Step i takes each set's current column combos[:, i], v, pivots on v's
    lowest set bit and adds v to every column with that bit.  Later
    columns are zero at the earlier pivots, so after k steps every column
    is zero at the span's pivot set {lowbit(u) : u in the span}, which
    depends on the span only: each survivor holds the one vector of its
    coset that is zero there, `BitOps.reduce`'s representative, and each
    column of the set holds zero.  A step with v = 0 changes nothing, and
    the rank counts the steps with v != 0."""
    B, n, W = col_words.shape
    reps = np.array(col_words, order="C")
    ranks = np.zeros(B, dtype=np.int64)
    stack = np.arange(B)
    for c in combos.T:
        v = reps[stack, c]
        nonzero = v != 0
        ranks += nonzero.any(axis=1)
        word = nonzero.argmax(axis=1)
        low = v[stack, word]
        low &= -low
        hit = reps[stack, :, word]
        hit &= low[:, None]
        reps ^= v[:, None, :] * (hit != 0)[:, :, None]
    return ranks, reps


# the ASCII digit each code becomes in an int(..., 2) string: "1" where the
# entry is 1 (the ones plane, and a GF(2) column) or 2 (the twos plane)
_ONES = bytes.maketrans(b"\0\1\2", b"010")
_TWOS = bytes.maketrans(b"\0\1\2", b"001")


def _plane(entries, digits: bytes) -> int:
    """The int whose bit i is set where `digits` maps entries[i] to "1"."""
    return int(bytes(entries[::-1]).translate(digits) or b"0", 2)


class _Ops:
    """What every backend shares: a matrix's columns and rows in the
    backend's form, everything built from `reduce_pivot`, and the
    Gauss-Jordan pass built from `eliminate`."""

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

    def pack(self, codes: np.ndarray) -> None:
        """Nothing: only `TriOps` attaches columns packed from the codes."""
        return None

    def rows_of(self, A: FqMatrix) -> list:
        """A's rows as vectors over its columns, encoded from the
        entries."""
        return [self.encode(A.row(i)) for i in range(A.m)]

    def rank_cols(self, cols) -> int:
        ech: list = []
        for c in cols:
            row = self.reduce_pivot(ech, c)
            if row is not None:
                ech.append(row)
        return len(ech)

    def inverse_rows(self, rows: list, chosen: list[int]) -> list | None:
        """The given rows of A after one Gauss-Jordan pass that pivots on
        the chosen columns, in order: row pos holds 1 at column
        chosen[pos], every other row 0 there.  They are the rows of B^{-1}A,
        B the chosen columns completed to a basis by the unit vectors of
        the rows never used as pivots; None when the chosen columns are
        dependent (or more than m).  The backend's `eliminate(rows, r, c)`
        is one pivot step: it moves the first row from r that is nonzero at
        c to r (reordering the list it is given), scales it to 1 there and
        clears c in every other row, or returns None when there is no such
        row."""
        for r, c in enumerate(chosen):
            rows = self.eliminate(rows, r, c)
            if rows is None:
                return None
        return rows


class BitOps(_Ops):
    """GF(2) columns as ints; pivot = lowest set bit."""

    def encode(self, entries) -> int:
        """The column with the given entries, entry i = row i."""
        return _plane(entries, _ONES)

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

    def eliminate(self, rows: list[int], r: int, c: int) -> list[int] | None:
        bit = 1 << c
        for piv in range(r, len(rows)):
            if rows[piv] & bit:
                break
        else:
            return None
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r]
        return [a ^ p if a & bit and i != r else a for i, a in enumerate(rows)]

    def pick(self, rows: list, idx: list[int]) -> FqMatrix:
        """The matrix of the given rows' entries at columns idx."""
        return FqMatrix(self.field, len(rows), len(idx),
                        tuple([r >> j & 1 for r in rows for j in idx]))


class GenOps(_Ops):
    """Generic field-table columns as tuples; pivot = first nonzero index."""

    def encode(self, entries) -> tuple[int, ...]:
        return tuple(entries)

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

    def eliminate(self, rows: list, r: int, c: int) -> list[tuple[int, ...]] | None:
        for piv in range(r, len(rows)):
            if rows[piv][c]:
                break
        else:
            return None
        rows[r], rows[piv] = rows[piv], rows[r]
        f = self.field
        p = rows[r]
        s = f.inv_table[p[c]]
        if s != 1:
            scale = f.mul_table[s]
            p = tuple([scale[x] for x in p])
        neg = f.neg_table
        return [p if i == r else self._axpy(a, neg[a[c]], p) if a[c] else a
                for i, a in enumerate(rows)]

    def pick(self, rows: list, idx: list[int]) -> FqMatrix:
        """The matrix of the given rows' entries at columns idx."""
        return FqMatrix(self.field, len(rows), len(idx), tuple([r[j] for r in rows for j in idx]))


class TriOps(GenOps):
    """GF(3) columns as (ones, twos) bit-plane pairs; pivot = lowest set
    bit of ones | twos.

    A GenOps subclass that overrides every column primitive, so the shared
    methods it inherits (`cols_of`, `rows_of`, `rank_cols`,
    `inverse_rows`) are GenOps' own, as the benchmark's per-layer tracer
    counts them."""

    def encode(self, entries) -> tuple[int, int]:
        """The column with the given entries, entry i = row i."""
        return _plane(entries, _ONES), _plane(entries, _TWOS)

    def pack(self, codes: np.ndarray) -> tuple:
        """The columns of an m x n array of codes, each plane packed by
        numpy."""
        n = codes.shape[1]
        cols = word_ints(pack_words(np.concatenate((codes.T == 1, codes.T == 2))))
        return tuple(zip(cols[:n], cols[n:]))

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

    def eliminate(self, rows: list, r: int, c: int) -> list[tuple[int, int]] | None:
        """The pivot row, scaled to 1 at c, is subtracted from each row
        holding 1 at c and added to each holding 2 (`reduce`'s circuits)."""
        bit = 1 << c
        for piv in range(r, len(rows)):
            vp, vn = rows[piv]
            if (vp | vn) & bit:
                break
        else:
            return None
        rows[r], rows[piv] = rows[piv], rows[r]
        bp, bn = (vn, vp) if vn & bit else (vp, vn)
        out = []
        for vp, vn in rows:
            if vp & bit:  # v - b
                t = (vp | bp) ^ (vn | bn)
                vp, vn = (vn | bp) ^ t, (vp | bn) ^ t
            elif vn & bit:  # v + b
                t = (vp | bn) ^ (vn | bp)
                vp, vn = (vn | bn) ^ t, (vp | bp) ^ t
            out.append((vp, vn))
        out[r] = bp, bn
        return out

    def pick(self, rows: list, idx: list[int]) -> FqMatrix:
        """The matrix of the given rows' entries at columns idx."""
        return FqMatrix(self.field, len(rows), len(idx),
                        tuple([(p >> j & 1) | (q >> j & 1) << 1 for p, q in rows for j in idx]))


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


def basis_masks(o, vecs: list, r: int, count: int | None = None) -> list[int] | None:
    """Masks of the independent r-subsets of vecs, in the order of
    itertools.combinations(range(len(vecs)), r).  With `count` (>= 0),
    the masks only when there are exactly `count` of them, else None.

    Depth-first over one triangular echelon; a dependent prefix is pruned
    with every subset that extends it.  With `count` the walk also stops
    at its verdict: at the (count + 1)-th basis, or once its dependent
    prefixes have ruled out more than C(e, r) - count of the C(e, r)
    subsets (e = len(vecs)), a dependent candidate i at depth d (with d
    indices before it) ruling out the C(e - i - 1, r - d - 1) subsets that
    extend it.
    """
    if r == 0:
        return [0] if count in (None, 1) else None
    out: list[int] = []
    stop, left = (None, 0) if count is None else (count + 1, math.comb(len(vecs), r) - count)
    # a counted walk that ran to its end ruled out C(e, r) - count subsets
    # and found the other `count`
    return None if _walk_bases(o, vecs, r, stop, left, [], out, 0, 0) < 0 else out


def _walk_bases(o, vecs: list, r: int, stop, left: int, ech: list, out: list, start: int,
                mask: int) -> int:
    """Extend the independent prefix `mask`, whose rows are on `ech`, by
    each index from `start` on, appending the r-subsets to `out`.  With a
    count, `stop` is count + 1 and `left` the subsets the dependent
    prefixes may still rule out; without, `stop` is None and `left` stays
    0.  Returns what is left, negative once the walk is done.  A module
    function, not a closure: a recursive closure is a reference cycle that
    only the cyclic collector frees, and `from_matrix` builds one per
    call."""
    e, depth = len(vecs), len(ech)
    last = depth + 1 == r
    for i in range(start, e - r + depth + 1):
        row = o.reduce_pivot(ech, vecs[i])
        if row is None:
            if stop:
                left -= 1 if last else math.comb(e - i - 1, r - depth - 1)
                if left < 0:
                    return left
            continue
        if last:
            out.append(mask | 1 << i)
            if len(out) == stop:
                return -1
        else:
            ech.append(row)
            left = _walk_bases(o, vecs, r, stop, left, ech, out, i + 1, mask | 1 << i)
            ech.pop()
            if left < 0:
                return left
    return left


def contract(o, A: FqMatrix, chosen: list[int], keep: list[int]) -> FqMatrix | None:
    """The `keep` columns of A after contracting the `chosen` ones, as rows
    k..m-1 of `inverse_rows` at those columns (k = len(chosen)); None when
    the chosen columns are dependent (or more than m)."""
    rows = o.inverse_rows(o.rows_of(A), chosen)
    return None if rows is None else o.pick(rows[len(chosen):], keep)
