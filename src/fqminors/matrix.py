"""Dense matrices over GF(q): the immutable container, products and the
text parser.

All arithmetic is exact (field tables), so every operation is
deterministic.  Degenerate shapes (0 rows or 0 columns) are legal
everywhere.  Ranks and eliminations live in linalg.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import BadArgumentsError, ParseError
from .gf import Field, field


@dataclass(frozen=True)
class FqMatrix:
    """Immutable m x n matrix of field element codes, row-major."""

    field: Field
    m: int
    n: int
    entries: tuple[int, ...]
    # the columns in the column form of `linalg.ops_for`'s backend for this
    # field, when the builder (the sampler, the oracle) attached them.
    # They take no part in equality, hashing or repr.
    packed_cols: tuple | None = dc_field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise BadArgumentsError(f"negative shape {self.m}x{self.n}")
        if len(self.entries) != self.m * self.n:
            raise BadArgumentsError(
                f"{self.m}x{self.n} matrix needs {self.m * self.n} entries, "
                f"got {len(self.entries)}"
            )
        codes = self.field.codes
        # a membership scan in C; min() and max() measure no faster than a
        # Python loop over the entries
        if not codes.issuperset(self.entries):
            e = next(e for e in self.entries if e not in codes)
            raise BadArgumentsError(f"entry {e} out of range for GF({self.field.q})")

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
            raise BadArgumentsError("field mismatch")
        if self.n != other.m:
            raise BadArgumentsError(f"{self.m}x{self.n} times {other.m}x{other.n}")
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
    try:
        f = field(q)
    except BadArgumentsError as exc:
        raise ParseError(str(exc), 1, 1) from None
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
