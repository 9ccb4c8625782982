"""Shared test helpers: independent oracles kept deliberately separate from
the package implementations they check, the subprocess CLI runner, and the
matrix and matroid builders, column words and text writers that only tests need.  The
all-(C, D) minor reference is the package's own `fqminors.minor.find_minor`,
which `fqminors validate` and the exact oracle run too."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from fqminors.gf import Field
from fqminors.matrix import FqMatrix
from fqminors.matroid import Matroid

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args, **kw):
    """Run `python -m fqminors ARGS` in a child process that imports the
    package from this checkout's src/, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fqminors"] + list(args),
        capture_output=True, text=True, env=env, **kw,
    )


def from_rows(f: Field, rows) -> FqMatrix:
    """The matrix over f with the given rows of codes."""
    rows = [tuple(r) for r in rows]
    n = len(rows[0]) if rows else 0
    assert all(len(r) == n for r in rows), "ragged rows"
    return FqMatrix(f, len(rows), n, sum(rows, ()))


def identity(f: Field, m: int) -> FqMatrix:
    return FqMatrix(f, m, m, tuple(1 if i == j else 0 for i in range(m) for j in range(m)))


def int_words(ints: list[int], width: int) -> np.ndarray:
    """`linalg.word_ints`' inverse: each int as a row of `width` 64-bit
    words, least significant first."""
    return np.array([[v >> s & 0xFFFFFFFFFFFFFFFF for s in range(0, 64 * width, 64)]
                     for v in ints], dtype=np.uint64).reshape(len(ints), width)


def format_matrix(A: FqMatrix) -> str:
    """The matrix text format `parse_matrix` reads."""
    lines = [f"{A.field.q} {A.m} {A.n}"]
    for i in range(A.m):
        lines.append(" ".join(str(e) for e in A.row(i)))
    return "\n".join(lines) + "\n"


def format_matroid(M: Matroid) -> str:
    """The matroid text format `parse_matroid` reads."""
    lines = [f"{M.ground_size} {M.rank}"]
    for b in sorted(M.bases):
        lines.append(" ".join(str(x) for x in range(M.ground_size) if b & (1 << x)))
    return "\n".join(lines) + "\n"


def rref(A: FqMatrix, order=None) -> tuple[FqMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns, by Gauss-Jordan
    elimination over the field tables: the GF(q) reference the package's
    echelon kernels are compared against.  It tries the columns of `order`
    in turn, by default every column left to right (the pivots are then
    strictly increasing); each pivots on the first row from the next pivot
    row that is nonzero there, or is skipped when there is none."""
    f = A.field
    add, mul, neg, inv = f.add_table, f.mul_table, f.neg_table, f.inv_table
    rows = [list(A.row(i)) for i in range(A.m)]
    pivots = []
    r = 0
    for c in range(A.n) if order is None else order:
        pivot_row = None
        for i in range(r, A.m):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        s = inv[rows[r][c]]
        if s != 1:
            rows[r] = [mul[s][x] for x in rows[r]]
        for i in range(A.m):
            if i != r and rows[i][c]:
                factor = neg[rows[i][c]]
                ri, rr = rows[i], rows[r]
                rows[i] = [add[ri[k]][mul[factor][rr[k]]] for k in range(A.n)]
        pivots.append(c)
        r += 1
        if r == A.m:
            break
    return from_rows(f, rows) if A.m else A, tuple(pivots)


def rank(A: FqMatrix) -> int:
    """Rank by the reference elimination."""
    return len(rref(A)[1])


def gf2_rank_bits(rows: list[int]) -> int:
    """GF(2) rank of row bitmasks by plain elimination (test-local oracle)."""
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        pivot = min(rows, key=lambda r: r & -r)
        rows.remove(pivot)
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
        rank += 1
    return rank


def modp_rank(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p), p prime, by fraction-free elimination (test oracle)."""
    rows = [list(r) for r in rows]
    n = len(rows[0]) if rows else 0
    rank = 0
    col = 0
    while rows and col < n:
        piv = next((i for i, r in enumerate(rows) if r[col] % p), None)
        if piv is None:
            col += 1
            continue
        rows[0], rows[piv] = rows[piv], rows[0]
        inv = pow(rows[0][col], p - 2, p)
        prow = [(x * inv) % p for x in rows[0]]
        rows = [
            [(r[j] - r[col] * prow[j]) % p for j in range(n)]
            for r in rows[1:]
        ]
        rank += 1
        col += 1
    return rank


def check_basis_exchange(M: Matroid) -> bool:
    """Exhaustive basis-exchange axiom check."""
    for b1 in M.bases:
        for b2 in M.bases:
            if b1 == b2:
                continue
            only1 = b1 & ~b2
            t = only1
            while t:
                xbit = t & -t
                t ^= xbit
                swapped = False
                u = b2 & ~b1
                while u:
                    ybit = u & -u
                    u ^= ybit
                    if (b1 ^ xbit) | ybit in M.bases:
                        swapped = True
                        break
                if not swapped:
                    return False
    return True
