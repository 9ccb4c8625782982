"""Matroids on at most 20 elements, stored by their explicit basis family.

Ground sets are 0..E-1 and subsets are bitmasks.  Every query is answered
from the basis family alone: rank is the largest intersection with a basis,
a minor keeps the largest survivor parts of the bases that meet the
contracted set most, and duality is mask complementation.  Construction
from matrices and graphs, the catalog of named matroids used by the
graphic-class test, general contraction/deletion, and isomorphism testing
all live here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import linalg
from .errors import BadArgumentsError, ParseError
from .gf import field
from .matrix import FqMatrix

MAX_GROUND = 20


@dataclass(frozen=True)
class MatroidStats:
    """Ground size, rank and loop count; the bound formulas consume this."""

    e: int
    r: int
    l: int

    def __post_init__(self):
        if not (0 <= self.r <= self.e and 0 <= self.l <= self.e - self.r):
            raise BadArgumentsError(f"inconsistent stats e={self.e} r={self.r} l={self.l}")
        if self.r == 0 and self.l != self.e:
            raise BadArgumentsError("rank 0 forces every element to be a loop")


class Matroid:
    def __init__(self, ground_size: int, bases):
        if ground_size < 0 or ground_size > MAX_GROUND:
            raise BadArgumentsError(f"ground size {ground_size} outside 0..{MAX_GROUND}")
        bases = frozenset(bases)
        if not bases:
            raise BadArgumentsError("basis family must be nonempty")
        full = (1 << ground_size) - 1
        sizes = {b.bit_count() for b in bases}
        if len(sizes) != 1:
            raise BadArgumentsError("bases must share one cardinality")
        for b in bases:
            if b & ~full:
                raise BadArgumentsError("basis uses elements outside the ground set")
        self.ground_size = ground_size
        self.bases = bases
        self.rank = next(iter(sizes))

    # -- basic queries -------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.ground_size) - 1

    def is_independent(self, mask: int) -> bool:
        """Whether the subset lies inside some basis."""
        return any(b & mask == mask for b in self.bases)

    def rank_of(self, mask: int) -> int:
        """Rank of a subset: its largest intersection with a basis."""
        return max((b & mask).bit_count() for b in self.bases)

    def loops(self) -> int:
        union = 0
        for b in self.bases:
            union |= b
        return self.full_mask & ~union

    def is_free(self) -> bool:
        return self.rank == self.ground_size

    def stats(self) -> MatroidStats:
        return MatroidStats(self.ground_size, self.rank, self.loops().bit_count())

    def element_degree(self, x: int) -> int:
        bit = 1 << x
        return sum(1 for b in self.bases if b & bit)

    def parallel_classes(self) -> list[int]:
        """Masks of parallel classes of non-loop elements (loops excluded),
        by smallest element.  Two non-loops are parallel when no basis
        holds both, so x's class is x and the non-loops outside the union
        of the bases holding x."""
        nonloops = self.full_mask & ~self.loops()
        classes: list[int] = []
        seen = 0
        for x in range(self.ground_size):
            bx = 1 << x
            if bx & nonloops & ~seen:
                with_x = 0
                for b in self.bases:
                    if b & bx:
                        with_x |= b
                        if with_x == nonloops:
                            break  # no other element is parallel to x
                cls = bx | nonloops & ~with_x
                classes.append(cls)
                seen |= cls
        return classes

    # -- constructions -------------------------------------------------

    def dual(self) -> "Matroid":
        full = self.full_mask
        return Matroid(self.ground_size, (full ^ b for b in self.bases))

    def minor(self, contract_mask: int, delete_mask: int) -> "Matroid":
        """(M / C) \\ D with survivors relabeled 0.. in original order.

        The bases of M / C are B - C for the bases B meeting C in r(C)
        elements, and those of a deletion are the largest parts of the
        bases on the survivors."""
        if contract_mask & delete_mask:
            raise BadArgumentsError("contract and delete sets overlap")
        if (contract_mask | delete_mask) & ~self.full_mask:
            raise BadArgumentsError("sets use elements outside the ground set")
        surv_mask = self.full_mask & ~(contract_mask | delete_mask)
        r_c = self.rank_of(contract_mask)
        parts = {b & surv_mask for b in self.bases if (b & contract_mask).bit_count() == r_c}
        rr = max(p.bit_count() for p in parts)
        # survivor x becomes the number of survivors below it
        mapping = [(surv_mask & ((1 << x) - 1)).bit_count() for x in range(self.ground_size)]
        return Matroid(surv_mask.bit_count(),
                       (mapped_mask(p, mapping) for p in parts if p.bit_count() == rr))

    # -- dunder --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matroid)
            and other.ground_size == self.ground_size
            and other.bases == self.bases
        )

    def __hash__(self):
        return hash((self.ground_size, self.bases))

    def __repr__(self):
        return f"Matroid(E={self.ground_size}, r={self.rank}, bases={len(self.bases)})"


def from_matrix(A: FqMatrix) -> Matroid:
    """Column-dependence matroid M[A]; element i is column i."""
    if A.n > MAX_GROUND:
        raise BadArgumentsError(f"{A.n} columns exceed the {MAX_GROUND}-element bound")
    o = linalg.ops_for(A.field, A.m)
    cols = o.cols_of(A)
    return Matroid(A.n, linalg.basis_masks(o, cols, o.rank_cols(cols)))


def is_binary(M: Matroid) -> bool:
    """Whether M has a GF(2) representation.  Over GF(2), [I | X] with
    respect to a basis B is forced (Brylawski & Lucas 1976; Oxley, Matroid
    Theory, ch. 6): the column of x outside B has a 1 in row b exactly when
    B - b + x is a basis, b lying on x's fundamental circuit.  So M is
    binary iff that one matrix gives M's basis family."""
    e, r = M.ground_size, M.rank
    basis = min(M.bases)
    rows = [b for b in range(e) if (basis >> b) & 1]
    entries = tuple(int(x == b if (basis >> x) & 1 else basis ^ (1 << b | 1 << x) in M.bases)
                    for b in rows for x in range(e))
    return from_matrix(FqMatrix(field(2), r, e, entries)).bases == M.bases


def from_graph(edges) -> Matroid:
    """Graphic matroid: bases are the maximum-size spanning forests, read
    as the column matroid of the GF(2) vertex-edge incidence matrix (a
    self-loop is a zero column, parallel edges are equal columns)."""
    edges = [tuple(e) for e in edges]
    if len(edges) > MAX_GROUND:
        raise BadArgumentsError(f"{len(edges)} edges exceed the {MAX_GROUND}-element bound")
    verts = sorted({v for e in edges for v in e})
    entries = tuple(int(u != w and v in (u, w)) for v in verts for u, w in edges)
    return from_matrix(FqMatrix(field(2), len(verts), len(edges), entries))


def uniform(k: int, n: int) -> Matroid:
    if not (0 <= k <= n <= MAX_GROUND):
        raise BadArgumentsError(f"uniform matroid needs 0 <= k <= n <= {MAX_GROUND}")
    bases = []
    for combo in itertools.combinations(range(n), k):
        mask = 0
        for x in combo:
            mask |= 1 << x
        bases.append(mask)
    return Matroid(n, bases)


def _fano() -> Matroid:
    # columns are the nonzero vectors of GF(2)^3 in ascending code order,
    # bit i of the code = row i
    f2 = field(2)
    entries = []
    for i in range(3):
        for c in range(1, 8):
            entries.append((c >> i) & 1)
    return from_matrix(FqMatrix(f2, 3, 7, tuple(entries)))


_K5_EDGES = tuple((u, v) for u in range(5) for v in range(u + 1, 5))
_K33_EDGES = tuple((u, v) for u in range(3) for v in range(3, 6))


@lru_cache(maxsize=None)
def _named(name: str) -> Matroid:
    if name == "F7":
        return _fano()
    if name == "F7*":
        return _fano().dual()
    if name == "MK5*":
        return from_graph(_K5_EDGES).dual()
    if name == "MK33*":
        return from_graph(_K33_EDGES).dual()


def catalog(name: str) -> Matroid:
    """Named matroids: U:k,n and free:n families, F7, F7*, MK5*, MK33*."""
    if name.startswith("U:"):
        parts = name[2:].split(",")
        if len(parts) != 2:
            raise BadArgumentsError(f"expected U:k,n, got {name!r}")
        try:
            k, n = int(parts[0]), int(parts[1])
        except ValueError:
            raise BadArgumentsError(f"expected U:k,n, got {name!r}") from None
        return uniform(k, n)
    if name.startswith("free:"):
        try:
            n = int(name[5:])
        except ValueError:
            raise BadArgumentsError(f"expected free:n, got {name!r}") from None
        return uniform(n, n)
    if name in ("F7", "F7*", "MK5*", "MK33*"):
        return _named(name)
    raise BadArgumentsError(f"unknown catalog name {name!r}")


# -- isomorphism -------------------------------------------------------


def _invariants(M: Matroid):
    loops = M.loops()
    degs = tuple(M.element_degree(x) for x in range(M.ground_size))
    classes = M.parallel_classes()
    class_of = {}
    for cls in classes:
        size = cls.bit_count()
        t = cls
        while t:
            bit = t & -t
            class_of[bit.bit_length() - 1] = size
            t ^= bit
    profile = tuple(
        (degs[x], (1 << x) & loops != 0, class_of.get(x, 0)) for x in range(M.ground_size)
    )
    return profile, sorted(profile), sorted(cls.bit_count() for cls in classes)


def is_isomorphic(M1: Matroid, M2: Matroid):
    """A ground-set bijection mapping bases onto bases, or None.

    The returned tuple maps element i of M1 to element tuple[i] of M2.
    """
    if M1.ground_size != M2.ground_size or M1.rank != M2.rank:
        return None
    if len(M1.bases) != len(M2.bases):
        return None
    prof1, sorted1, csizes1 = _invariants(M1)
    prof2, sorted2, csizes2 = _invariants(M2)
    if sorted1 != sorted2 or csizes1 != csizes2:
        return None
    e = M1.ground_size
    # bases of M1 grouped by their highest element, for incremental pruning
    by_max: list[list[int]] = [[] for _ in range(e)]
    for b in M1.bases:
        if b:
            by_max[b.bit_length() - 1].append(b)
    candidates = [
        [y for y in range(e) if prof2[y] == prof1[x]] for x in range(e)
    ]
    mapping = [-1] * e
    if _assign(0, candidates, by_max, M2.bases, mapping, [False] * e):
        return tuple(mapping)
    return None


def mapped_mask(mask: int, mapping: list[int]) -> int:
    """The image of the element set `mask` under `mapping`."""
    out = 0
    t = mask
    while t:
        bit = t & -t
        out |= 1 << mapping[bit.bit_length() - 1]
        t ^= bit
    return out


def _assign(x: int, candidates: list, by_max: list, bases2, mapping: list[int],
            used: list[bool]) -> bool:
    """Extend `mapping` from elements 0..x-1 to all, trying x's unused
    candidates in order; True once complete.  A module function: a
    recursive closure is a cycle that only the cyclic collector frees."""
    if x == len(mapping):
        return True
    for y in candidates[x]:
        if used[y]:
            continue
        mapping[x] = y
        used[y] = True
        if (all(mapped_mask(b, mapping) in bases2 for b in by_max[x])
                and _assign(x + 1, candidates, by_max, bases2, mapping, used)):
            return True
        mapping[x] = -1
        used[y] = False
    return False


# -- text format -------------------------------------------------------


def _exchange_failure(e: int, r: int, bases) -> tuple[int, int] | None:
    """The first (B, x) of the rank-r family `bases` (masks, in order), x
    in B, at which the basis exchange axiom fails: some basis avoids x,
    yet none of its elements y makes B - x + y a basis; None when the
    axiom holds.

    With S the elements y outside B that make B - x + y a basis, it fails
    at (B, x) exactly when a basis lies inside E - x - S.  A set of fewer
    than r elements holds none, and each set is tested once."""
    family = frozenset(bases)
    full = (1 << e) - 1
    holds_basis: dict = {}  # a set -> whether a basis lies inside it
    for b in bases:
        outside = [1 << y for y in range(e) if not b >> y & 1]
        for x in range(e):
            if not b >> x & 1:
                continue
            rest = b ^ 1 << x
            room = full ^ 1 << x
            for bit in outside:
                if rest | bit in family:
                    room ^= bit
            if room.bit_count() < r:
                continue
            if room not in holds_basis:
                holds_basis[room] = any(c & room == c for c in family)
            if holds_basis[room]:
                return b, x
    return None


def parse_matroid(text: str) -> Matroid:
    """Parse `E r` header followed by one basis per line.  A family that
    breaks the basis exchange axiom is a ParseError at the line of the
    first basis where it fails."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing header", 1, 1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header must be `E r`", 1, 1)
    try:
        e, r = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header values must be integers", 1, 1) from None
    if not (0 <= r <= e <= MAX_GROUND):
        raise ParseError(f"need 0 <= r <= E <= {MAX_GROUND}", 1, 1)
    line_of: dict = {}  # basis mask -> the line that first lists it
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        mask = 0
        parts = line.split()
        if len(parts) != r:
            raise ParseError(f"basis must list {r} elements", i, 1)
        for j, tok in enumerate(parts):
            try:
                x = int(tok)
            except ValueError:
                raise ParseError(f"bad element {tok!r}", i, j + 1) from None
            if not 0 <= x < e:
                raise ParseError(f"element {x} outside 0..{e - 1}", i, j + 1)
            if mask & (1 << x):
                raise ParseError(f"repeated element {x}", i, j + 1)
            mask |= 1 << x
        line_of.setdefault(mask, i)
    if not line_of:
        if r == 0:
            return Matroid(e, [0])
        raise ParseError("no bases listed", 2, 1)
    bad = _exchange_failure(e, r, list(line_of))
    if bad is not None:
        b, x = bad
        elems = " ".join(str(y) for y in range(e) if b >> y & 1)
        raise ParseError(f"basis {{{elems}}} breaks the exchange axiom at element {x}",
                         line_of[b], 1)
    return Matroid(e, line_of)
