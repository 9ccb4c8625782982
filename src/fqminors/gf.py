"""Exact arithmetic tables for the Galois field GF(q), prime powers q <= 16.

Elements are coded as integers 0..q-1.  For prime q the code is the residue
itself.  For extension fields GF(p^d) the code is the coefficient vector of
the polynomial residue read as base-p digits (constant term = least
significant digit), reduced modulo a fixed irreducible polynomial:

    GF(4):  x^2 + x + 1
    GF(8):  x^3 + x + 1
    GF(9):  x^2 + 1
    GF(16): x^4 + x + 1

Fixing the polynomials keeps element codes reproducible across runs, which
the matrix text format relies on.

`prime_power` is the package's one prime-power test; `formulas` runs it on
every q up to 2^64.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import BadArgumentsError

MAX_Q = 16

# Irreducible polynomials as coefficient tuples, ascending degree,
# leading coefficient included.
_IRREDUCIBLE = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
}

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the 13 bases in _MR_BASES: exact for every n below
    3.3 * 10^24, a strong probable-prime test above."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(q: int, k: int) -> int:
    """floor(q ** (1/k)) for q >= 1: Newton's method from 2^ceil(bits/k),
    which is at least the root, converges from above to the floor."""
    r = 1 << -(-q.bit_length() // k)
    while (s := ((k - 1) * r + q // r ** (k - 1)) // k) < r:
        r = s
    return r


def prime_power(q: int):
    """(p, e) with q = p^e for a prime p and e >= 1, or None; for q >= 1."""
    for p in _MR_BASES:
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            return (p, e) if q == 1 else None
    # every prime factor of q now exceeds 41, so q = r^k needs 43^k <= q;
    # take exact prime roots while there are any, and q is left as p
    e, k = 1, 2
    while 43**k <= q:
        r = _iroot(q, k)
        if r**k == q:
            q, e = r, e * k
        else:
            k = next(j for j in itertools.count(k + 1) if _is_prime(j))
    return (q, e) if _is_prime(q) else None


class Field:
    """GF(q) with complete add/mul/neg/inv tables over codes 0..q-1.

    Immutable after construction; safe for concurrent reads.
    """

    def __init__(self, q: int):
        if q < 2:
            raise BadArgumentsError(f"q={q} is not a prime power >= 2")
        if q > MAX_Q:
            raise BadArgumentsError(f"q={q} exceeds the table bound {MAX_Q}")
        pp = prime_power(q)
        if pp is None:
            raise BadArgumentsError(f"q={q} is not a prime power")
        self.q = q
        self.codes = frozenset(range(q))  # the element codes, for range checks
        self.p, self.deg = pp
        self.add_table = tuple(tuple(self._poly_add(a, b) for b in range(q)) for a in range(q))
        self.mul_table = tuple(tuple(self._poly_mul(a, b) for b in range(q)) for a in range(q))
        self.neg_table = tuple(self.add_table[a].index(0) for a in range(q))
        inv = [0] * q
        for a in range(1, q):
            inv[a] = self.mul_table[a].index(1)
        self.inv_table = tuple(inv)

    def _digits(self, code: int) -> list[int]:
        out = []
        for _ in range(self.deg):
            out.append(code % self.p)
            code //= self.p
        return out

    def _code(self, digits: list[int]) -> int:
        out = 0
        for d in reversed(digits):
            out = out * self.p + d
        return out

    def _poly_add(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._code([(x + y) % self.p for x, y in zip(da, db)])

    def _poly_mul(self, a: int, b: int) -> int:
        p, deg = self.p, self.deg
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # reduce modulo the irreducible polynomial (monic of degree deg),
        # which a prime field, whose products have degree 0, never reads
        for i in range(len(prod) - 1, deg - 1, -1):
            c = prod[i]
            if c:
                irr = _IRREDUCIBLE[self.q]
                prod[i] = 0
                for j in range(deg):
                    prod[i - deg + j] = (prod[i - deg + j] - c * irr[j]) % p
        return self._code(prod[:deg])

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inv(0) is undefined")
        return self.inv_table[a]

    def __eq__(self, other):
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self):
        return hash(("Field", self.q))

    def __repr__(self):
        return f"Field(q={self.q})"


@lru_cache(maxsize=None)
def field(q: int) -> Field:
    """Cached Field factory; the canonical way to obtain GF(q)."""
    return Field(q)
