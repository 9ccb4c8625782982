import itertools

import pytest

from conftest import format_matrix, from_rows, gf2_rank_bits, identity, rank, rref
from fqminors.errors import BadArgumentsError, ParseError
from fqminors.gf import field
from fqminors.linalg import contract, fast_rank, leftmost_independent, ops_for
from fqminors.matrix import FqMatrix, parse_matrix
from fqminors.matroid import from_matrix, parse_matroid

F2 = field(2)
F3 = field(3)


def bits_of(A):
    return [sum(e << j for j, e in enumerate(A.row(i))) for i in range(A.m)]


def test_rank_examples():
    assert fast_rank(identity(F2, 2)) == 2
    assert fast_rank(FqMatrix(F3, 3, 4, (0,) * 12)) == 0
    assert fast_rank(from_rows(F2, [[1, 1], [1, 1]])) == 1


def test_rank_degenerate_shapes():
    assert fast_rank(FqMatrix(F2, 0, 3, ())) == 0
    assert fast_rank(FqMatrix(F2, 3, 0, ())) == 0
    assert fast_rank(FqMatrix(F3, 0, 3, ())) == 0
    r, piv = rref(FqMatrix(F2, 0, 3, ()))
    assert r.entries == () and piv == ()


def test_rref_examples():
    # the test-side reference elimination the kernels are compared against
    ident = identity(F3, 3)
    r, piv = rref(ident)
    assert r == ident and piv == (0, 1, 2)
    a = from_rows(F2, [[0, 1], [0, 1]])
    r, piv = rref(a)
    assert r == from_rows(F2, [[0, 1], [0, 0]]) and piv == (1,)


def test_rref_pivot_columns_are_unit():
    o = ops_for(F3, 2)
    for entries in itertools.product(range(3), repeat=6):
        a = FqMatrix(F3, 2, 3, entries)
        r, piv = rref(a)
        assert list(piv) == sorted(piv)
        for lead, c in enumerate(piv):
            col = r.col(c)
            assert col[lead] == 1 and all(x == 0 for i, x in enumerate(col) if i != lead)
        assert len(piv) == fast_rank(a)
        # greedy pushes of reduce_pivot rows pick exactly the pivot columns
        assert leftmost_independent(o, o.cols_of(a), a.m) == list(piv)


def test_rank_equals_transpose_rank_exhaustive_gf2():
    for m in range(4):
        for n in range(4):
            for entries in itertools.product(range(2), repeat=m * n):
                a = FqMatrix(F2, m, n, entries)
                assert fast_rank(a) == fast_rank(a.transpose())
                assert fast_rank(a) == gf2_rank_bits(bits_of(a)) == rank(a)


def test_change_of_basis_examples():
    a = from_rows(F2, [[1], [1]])
    assert identity(F2, 2).matmul(a) == a
    p = from_rows(F2, [[1, 1], [0, 1]])
    assert p.matmul(a) == from_rows(F2, [[0], [1]])
    with pytest.raises(BadArgumentsError):
        identity(F2, 3).matmul(a)


def test_change_of_basis_preserves_rank():
    invertible = [
        FqMatrix(F2, 2, 2, e)
        for e in itertools.product(range(2), repeat=4)
        if fast_rank(FqMatrix(F2, 2, 2, e)) == 2
    ]
    assert len(invertible) == 6
    for p in invertible:
        for e in itertools.product(range(2), repeat=6):
            a = FqMatrix(F2, 2, 3, e)
            assert fast_rank(p.matmul(a)) == fast_rank(a)


def _columns(a, js):
    return FqMatrix(a.field, a.m, len(js), tuple(a.row(i)[j] for i in range(a.m) for j in js))


def test_contract_matches_abstract_contraction():
    # contracting independent columns by a change of basis must agree with
    # abstract matroid contraction on the kept columns, in column order; a
    # dependent chosen set has no such change of basis
    o3 = ops_for(F2, 3)
    assert contract(o3, identity(F2, 3), [0], [1, 2]) == identity(F2, 2)
    for f, m, n in ((F2, 2, 3), (F2, 3, 3), (F3, 2, 3)):
        o = ops_for(f, m)
        for entries in itertools.product(range(f.q), repeat=m * n):
            a = FqMatrix(f, m, n, entries)
            host = from_matrix(a)
            for k in (1, 2):
                for chosen in itertools.combinations(range(n), k):
                    keep = [j for j in range(n) if j not in chosen]
                    out = contract(o, a, list(chosen), keep)
                    c_mask = sum(1 << j for j in chosen)
                    if not host.is_independent(c_mask):
                        assert out is None
                        continue
                    assert (out.m, out.n) == (m - k, n - k)
                    assert from_matrix(out) == host.minor(c_mask, 0)
            # the basis-family queries against column ranks: rank and
            # independence of every subset, parallel pairs, and every
            # minor (M / C) \ D, dependent C included, as the contraction
            # of a maximal independent subset of C with the rest dropped
            ranks = [fast_rank(_columns(a, [j for j in range(n) if s >> j & 1]))
                     for s in range(1 << n)]
            assert [host.rank_of(s) for s in range(1 << n)] == ranks
            assert [host.is_independent(s) for s in range(1 << n)] == \
                [r == s.bit_count() for s, r in enumerate(ranks)]
            nonloops = [x for x in range(n) if ranks[1 << x] == 1]
            classes = []
            for x in nonloops:
                if not any(c >> x & 1 for c in classes):
                    classes.append(sum(1 << y for y in nonloops if ranks[1 << x | 1 << y] == 1))
            assert host.parallel_classes() == classes
            for label in itertools.product(range(3), repeat=n):
                c_mask = sum(1 << j for j in range(n) if label[j] == 1)
                d_mask = sum(1 << j for j in range(n) if label[j] == 2)
                basis = 0
                for j in range(n):
                    if c_mask >> j & 1 and ranks[basis | 1 << j] > ranks[basis]:
                        basis |= 1 << j
                out = contract(o, a, [j for j in range(n) if basis >> j & 1],
                               [j for j in range(n) if label[j] == 0])
                assert from_matrix(out) == host.minor(c_mask, d_mask)


def test_matmul_associative_spot():
    a = from_rows(F3, [[1, 2], [0, 1], [2, 2]])
    b = from_rows(F3, [[2, 1, 0], [1, 1, 2]])
    c = from_rows(F3, [[1], [0], [2]])
    assert a.matmul(b.matmul(c)) == a.matmul(b).matmul(c)


def test_entry_validation():
    # the message names the first entry out of range, in row-major order
    for f, entries, bad in ((F2, (0, 1, 2, 0), 2), (F3, (0, 3, -1, 2), 3),
                            (F3, (2, -1, 0, 7), -1)):
        with pytest.raises(BadArgumentsError,
                           match=rf"^entry {bad} out of range for GF\({f.q}\)$"):
            FqMatrix(f, 2, 2, entries)
    with pytest.raises(BadArgumentsError):
        FqMatrix(F2, 2, 2, (0, 1, 0))


def test_text_format_roundtrip():
    a = from_rows(F3, [[0, 1, 2], [2, 1, 0]])
    assert parse_matrix(format_matrix(a)) == a
    empty = FqMatrix(F2, 0, 4, ())
    assert parse_matrix(format_matrix(empty)) == empty


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as ei:
        parse_matrix("2 2\n")
    assert ei.value.line == 1
    with pytest.raises(ParseError) as ei:
        parse_matrix("2 2 2\n1 0\n1\n")
    assert ei.value.line == 3
    with pytest.raises(ParseError) as ei:
        parse_matrix("2 2 2\n1 0\n1 5\n")
    assert (ei.value.line, ei.value.column) == (3, 2)
    with pytest.raises(ParseError):
        parse_matrix("2 1 2\n1 x\n")


@pytest.mark.parametrize("parse,text,line,message", [
    (parse_matrix, "", 1, "missing header"),
    (parse_matrix, "2 x 2", 1, "header values must be integers"),
    (parse_matrix, "2 -1 2", 1, "negative dimensions"),
    (parse_matrix, "2 2 2\n0 1\n", 3, "expected 2 rows, found 1"),
    (parse_matrix, "2 2 2\n0 1\n1 0\nextra\n", 4, "trailing data after matrix rows"),
    (parse_matroid, "x 2", 1, "header values must be integers"),
    (parse_matroid, "3 4", 1, "need 0 <= r <= E <= 20"),
    (parse_matroid, "3 1\nz\n", 2, "bad element 'z'"),
    (parse_matroid, "3 1\n", 2, "no bases listed"),
    (parse_matroid, "4 2\n0 1\n2 3\n", 2, "basis {0 1} breaks the exchange axiom at element 0"),
])
def test_parse_error_table(parse, text, line, message):
    # every fault of both text formats is a ParseError at its line, column 1
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert (ei.value.line, ei.value.column) == (line, 1)
    assert str(ei.value) == f"line {line}, column 1: {message}"


def test_parse_unsupported_q_carries_position():
    # a header q the field tables do not cover is a fault of the file, at
    # line 1, column 1, with the field's own message
    for q, message in ((6, "q=6 is not a prime power"), (17, "q=17 exceeds the table bound 16")):
        with pytest.raises(ParseError, match=f"^line 1, column 1: {message}$") as ei:
            parse_matrix(f"{q} 1 1\n0\n")
        assert (ei.value.line, ei.value.column) == (1, 1)
