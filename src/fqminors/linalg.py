"""Internal column-vector kernels used by the matroid/minor/sampler layers.

Two interchangeable backends over the same interface: a bit-packed one for
GF(2) (columns are Python ints, bit i = row i) and a generic one driven by
the field tables (columns are tuples).  An echelon is a list of
(pivot, row) pairs; each row has pivot value 1 and is zero at the pivots of
the rows before it.  `reduce` works through the rows in list order and
returns the one vector of v's coset modulo the span that is zero at every
pivot: equal representatives mean equal cosets, and zero means v lies in
the span.  `reduce_pivot` gives the row a vector would add, so a search can
push and pop rows along its path; `insert` appends that row and also clears
its pivot from the earlier rows, keeping the echelon fully reduced.

The same operations exist in matrix.py in row-echelon form; the two are
cross-checked in the test suite.
"""

from __future__ import annotations

from .gf import Field
from .matrix import FqMatrix


class BitOps:
    """GF(2) columns as ints; pivot = lowest set bit."""

    def __init__(self, f: Field, m: int):
        self.field = f
        self.m = m

    def cols_of(self, A: FqMatrix) -> list[int]:
        out = []
        for j in range(A.n):
            v = 0
            for i in range(A.m):
                if A.entries[i * A.n + j]:
                    v |= 1 << i
            out.append(v)
        return out

    def unit(self, i: int) -> int:
        return 1 << i

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

    def insert(self, ech: list, v: int) -> bool:
        row = self.reduce_pivot(ech, v)
        if row is None:
            return False
        p, v = row
        for i, (pi, bi) in enumerate(ech):
            if (bi >> p) & 1:
                ech[i] = (pi, bi ^ v)
        ech.append(row)
        return True

    def rank_cols(self, cols) -> int:
        ech: list = []
        r = 0
        for c in cols:
            if self.insert(ech, c):
                r += 1
        return r

    def entries_of(self, v: int, rows) -> list[int]:
        return [(v >> i) & 1 for i in rows]

    def inverse_rows(self, basis_cols: list[int]) -> list[int]:
        """Rows of B^{-1} (as ints, bit j = column j), B = [basis_cols]."""
        m = self.m
        aug = []
        for i in range(m):
            row = 0
            for j, c in enumerate(basis_cols):
                if (c >> i) & 1:
                    row |= 1 << j
            aug.append(row | (1 << (m + i)))
        r = 0
        for c in range(m):
            piv = None
            for i in range(r, m):
                if (aug[i] >> c) & 1:
                    piv = i
                    break
            if piv is None:
                raise ValueError("basis columns are dependent")
            aug[r], aug[piv] = aug[piv], aug[r]
            for i in range(m):
                if i != r and (aug[i] >> c) & 1:
                    aug[i] ^= aug[r]
            r += 1
        return [row >> m for row in aug]

    def dot(self, row: int, col: int) -> int:
        return (row & col).bit_count() & 1


class GenOps:
    """Generic field-table columns as tuples; pivot = first nonzero index."""

    def __init__(self, f: Field, m: int):
        self.field = f
        self.m = m

    def cols_of(self, A: FqMatrix) -> list[tuple[int, ...]]:
        return [A.col(j) for j in range(A.n)]

    def unit(self, i: int):
        return tuple(1 if k == i else 0 for k in range(self.m))

    def _axpy(self, v, coeff_neg, b):
        # v + coeff_neg * b componentwise
        add, mul = self.field.add_table, self.field.mul_table
        return tuple(add[x][mul[coeff_neg][y]] for x, y in zip(v, b))

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

    def insert(self, ech: list, v) -> bool:
        row = self.reduce_pivot(ech, v)
        if row is None:
            return False
        p, v = row
        neg = self.field.neg_table
        for i, (pi, bi) in enumerate(ech):
            c = bi[p]
            if c:
                ech[i] = (pi, self._axpy(bi, neg[c], v))
        ech.append(row)
        return True

    def rank_cols(self, cols) -> int:
        ech: list = []
        r = 0
        for c in cols:
            if self.insert(ech, c):
                r += 1
        return r

    def entries_of(self, v, rows) -> list[int]:
        return [v[i] for i in rows]

    def inverse_rows(self, basis_cols: list) -> list[tuple[int, ...]]:
        m = self.m
        f = self.field
        add, mul, neg, inv = f.add_table, f.mul_table, f.neg_table, f.inv_table
        aug = []
        for i in range(m):
            row = [basis_cols[j][i] for j in range(m)]
            row += [1 if k == i else 0 for k in range(m)]
            aug.append(row)
        r = 0
        for c in range(m):
            piv = None
            for i in range(r, m):
                if aug[i][c]:
                    piv = i
                    break
            if piv is None:
                raise ValueError("basis columns are dependent")
            aug[r], aug[piv] = aug[piv], aug[r]
            s = inv[aug[r][c]]
            if s != 1:
                aug[r] = [mul[s][x] for x in aug[r]]
            for i in range(m):
                if i != r and aug[i][c]:
                    factor = neg[aug[i][c]]
                    ri, rr = aug[i], aug[r]
                    aug[i] = [add[ri[k]][mul[factor][rr[k]]] for k in range(2 * m)]
            r += 1
        return [tuple(row[m:]) for row in aug]

    def dot(self, row, col) -> int:
        f = self.field
        add, mul = f.add_table, f.mul_table
        acc = 0
        for a, b in zip(row, col):
            if a and b:
                acc = add[acc][mul[a][b]]
        return acc


def ops_for(f: Field, m: int):
    return BitOps(f, m) if f.q == 2 else GenOps(f, m)


def fast_rank(A: FqMatrix) -> int:
    """Column rank; bit-packed for GF(2), table-driven otherwise."""
    o = ops_for(A.field, A.m)
    return o.rank_cols(o.cols_of(A))


def complete_to_basis(o, ind_cols: list) -> list:
    """Extend independent columns to a full basis of F^m by greedily
    appending standard basis vectors in index order."""
    ech: list = []
    basis = []
    for c in ind_cols:
        if not o.insert(ech, c):
            raise ValueError("columns to complete are dependent")
        basis.append(c)
    for i in range(o.m):
        if len(basis) == o.m:
            break
        u = o.unit(i)
        if o.insert(ech, u):
            basis.append(u)
    return basis
