"""Dense matrices over GF(q): the immutable container, products and the
text parser.

All arithmetic is exact (field tables), so every operation is
deterministic.  Degenerate shapes (0 rows or 0 columns) are legal
everywhere.  Ranks and eliminations live in linalg.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatchError, ParseError
from .gf import Field, field


@dataclass(frozen=True)
class FqMatrix:
    """Immutable m x n matrix of field element codes, row-major."""

    field: Field
    m: int
    n: int
    entries: tuple[int, ...]
    # the columns and rows in the column form of `linalg.ops_for`'s backend
    # for this field, when `with_packed` attached them: the sampler and
    # `linalg.contract` attach both, the oracle columns only.  Class
    # attributes, not fields: they take no part in equality or hashing, and
    # plain construction does not pay for them.
    packed_cols = None
    packed_rows = None

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise DimensionMismatchError(f"negative shape {self.m}x{self.n}")
        if len(self.entries) != self.m * self.n:
            raise DimensionMismatchError(
                f"{self.m}x{self.n} matrix needs {self.m * self.n} entries, "
                f"got {len(self.entries)}"
            )
        codes = self.field.codes
        # a membership scan in C; min() and max() measure no faster than a
        # Python loop over the entries
        if not codes.issuperset(self.entries):
            e = next(e for e in self.entries if e not in codes)
            raise DimensionMismatchError(f"entry {e} out of range for GF({self.field.q})")

    @classmethod
    def with_packed(cls, f: Field, m: int, n: int, entries: tuple[int, ...],
                    cols: tuple, rows: tuple | None = None) -> "FqMatrix":
        """A matrix carrying its columns, and its rows when given, in its
        field's backend form (`linalg.ops_for`)."""
        A = cls(f, m, n, entries)
        object.__setattr__(A, "packed_cols", cols)
        if rows is not None:
            object.__setattr__(A, "packed_rows", rows)
        return A

    @classmethod
    def from_rows(cls, f: Field, rows) -> "FqMatrix":
        rows = [list(r) for r in rows]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != n:
                raise DimensionMismatchError("ragged rows")
        return cls(f, m, n, tuple(e for r in rows for e in r))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.n : (i + 1) * self.n]

    def col(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.n] if self.n else ()

    def transpose(self) -> "FqMatrix":
        return FqMatrix(
            self.field,
            self.n,
            self.m,
            tuple(self.entries[i * self.n + j] for j in range(self.n) for i in range(self.m)),
        )

    def matmul(self, other: "FqMatrix") -> "FqMatrix":
        if self.field != other.field:
            raise DimensionMismatchError("field mismatch")
        if self.n != other.m:
            raise DimensionMismatchError(f"{self.m}x{self.n} times {other.m}x{other.n}")
        f = self.field
        add, mul = f.add_table, f.mul_table
        out = []
        for i in range(self.m):
            ri = self.row(i)
            for j in range(other.n):
                acc = 0
                for k in range(self.n):
                    a = ri[k]
                    if a:
                        acc = add[acc][mul[a][other.entries[k * other.n + j]]]
                out.append(acc)
        return FqMatrix(f, self.m, other.n, tuple(out))


def parse_matrix(text: str) -> FqMatrix:
    """Parse the matrix text format: `q m n` header then m rows of n codes."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing header", 1, 1)
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError("header must be `q m n`", 1, 1)
    try:
        q, m, n = (int(x) for x in head)
    except ValueError:
        raise ParseError("header values must be integers", 1, 1) from None
    f = field(q)
    if m < 0 or n < 0:
        raise ParseError("negative dimensions", 1, 1)
    entries = []
    for i in range(m):
        lineno = i + 2
        if i + 1 >= len(lines):
            raise ParseError(f"expected {m} rows, found {i}", lineno, 1)
        parts = lines[i + 1].split()
        if len(parts) != n:
            raise ParseError(f"expected {n} entries, found {len(parts)}", lineno, len(parts) + 1)
        for j, tok in enumerate(parts):
            try:
                e = int(tok)
            except ValueError:
                raise ParseError(f"bad entry {tok!r}", lineno, j + 1) from None
            if not 0 <= e < q:
                raise ParseError(f"entry {e} out of range for GF({q})", lineno, j + 1)
            entries.append(e)
    for extra, line in enumerate(lines[m + 1 :]):
        if line.strip():
            raise ParseError("trailing data after matrix rows", m + 2 + extra, 1)
    return FqMatrix(f, m, n, tuple(entries))
