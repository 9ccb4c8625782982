import itertools
import random
from collections import Counter

import pytest

from conftest import check_basis_exchange, format_matroid, from_rows, identity, rank
from fqminors import matroid, oracle
from fqminors.errors import BadArgumentsError, ParseError
from fqminors.gf import field
from fqminors.linalg import fast_rank
from fqminors.matrix import FqMatrix
from fqminors.minor import find_minor
from fqminors.matroid import (
    Matroid,
    catalog,
    from_graph,
    from_matrix,
    is_binary,
    is_isomorphic,
    parse_matroid,
    uniform,
)

F2 = field(2)
F3 = field(3)


def test_from_matrix_examples():
    assert from_matrix(identity(F2, 2)) == uniform(2, 2)
    m = from_matrix(from_rows(F2, [[1, 1]]))
    assert m == uniform(1, 2)
    with_loop = from_matrix(from_rows(F2, [[1, 0], [0, 0]]))
    assert with_loop.loops() == 0b10


def test_from_matrix_ground_too_large():
    with pytest.raises(BadArgumentsError):
        from_matrix(FqMatrix(F2, 1, 21, (0,) * 21))


def test_dual_examples():
    assert uniform(1, 3).dual() == uniform(2, 3)
    assert uniform(4, 4).dual() == uniform(0, 4)
    f7d = catalog("F7").dual()
    assert f7d.rank == 4 and f7d.ground_size == 7
    assert f7d.bases == frozenset((1 << 7) - 1 ^ b for b in catalog("F7").bases)
    for name in ("U:2,4", "F7", "MK33*"):
        m = catalog(name)
        assert m.dual().dual() == m


def test_from_graph_examples():
    triangle = from_graph([(0, 1), (1, 2), (0, 2)])
    assert triangle == uniform(2, 3)
    self_loop = from_graph([(0, 0)])
    assert self_loop.rank == 0 and self_loop.ground_size == 1
    k4 = from_graph([(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert k4.rank == 3 and k4.ground_size == 6
    assert len(k4.bases) == 16  # Cayley: 4^2 spanning trees of K4
    with pytest.raises(BadArgumentsError):
        from_graph([(0, i + 1) for i in range(21)])


def _forest_bases(edges) -> set[int]:
    """Bases of the graphic matroid by union-find: the edge subsets of the
    largest size whose greedy spanning forest keeps every edge."""
    verts = sorted({v for e in edges for v in e})
    index = {v: i for i, v in enumerate(verts)}

    def forest_rank(subset) -> int:
        parent = list(range(len(verts)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        r = 0
        for u, v in subset:
            ru, rv = find(index[u]), find(index[v])
            if ru != rv:  # a self-loop or a cycle edge adds nothing
                parent[ru] = rv
                r += 1
        return r

    r = forest_rank(edges)
    return {sum(1 << j for j in combo) for combo in itertools.combinations(range(len(edges)), r)
            if forest_rank([edges[j] for j in combo]) == r}


def test_from_graph_matches_union_find_reference():
    # seeded random multigraphs with self-loops and parallel edges, K5, K33
    rng = random.Random(46)
    graphs = [[(u, v) for u in range(5) for v in range(u + 1, 5)],
              [(u, v) for u in range(3) for v in range(3, 6)], []]
    for _ in range(300):
        nv = rng.randrange(1, 7)
        graphs.append([(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randrange(11))])
    for edges in graphs:
        assert from_graph(edges).bases == _forest_bases(edges), edges


def test_parallel_edges_become_parallel_elements():
    m = from_graph([(0, 1), (0, 1), (1, 2)])
    assert not m.is_independent(0b011)
    assert m.is_independent(0b101)


def test_catalog_examples():
    u24 = catalog("U:2,4")
    assert u24.rank == 2 and u24.ground_size == 4 and len(u24.bases) == 6
    assert catalog("free:3") == uniform(3, 3)
    f7 = catalog("F7")
    assert f7.rank == 3 and f7.ground_size == 7 and len(f7.bases) == 28
    assert catalog("MK5*").ground_size == 10 and catalog("MK5*").rank == 6
    assert catalog("MK33*").ground_size == 9 and catalog("MK33*").rank == 4
    with pytest.raises(BadArgumentsError):
        catalog("nope")
    with pytest.raises(BadArgumentsError):
        catalog("U:5,3")
    with pytest.raises(BadArgumentsError):
        catalog("U:2,21")


def test_is_isomorphic_examples():
    f7 = catalog("F7")
    assert is_isomorphic(f7, f7) is not None
    assert is_isomorphic(uniform(1, 2), uniform(2, 2)) is None
    m = from_matrix(from_rows(F2, [[1, 0, 1], [0, 1, 1]]))
    bij = is_isomorphic(m, uniform(2, 3))
    assert bij is not None and sorted(bij) == [0, 1, 2]
    assert is_isomorphic(f7, catalog("F7*")) is None


def test_is_isomorphic_fails_after_equal_invariants():
    # two rank-3 paving matroids on 8 elements, given by their 3-point
    # lines, whose invariants agree, so only the assignment search can
    # tell them apart; a brute force over all 8! relabellings maps no
    # dependent 3-set family, and so no basis family, onto the other
    triples = [sum(1 << x for x in b) for b in itertools.combinations(range(8), 3)]

    def paving(lines):
        return Matroid(8, [b for b in triples if b not in lines])

    m1 = paving({0b00101001, 0b10000101, 0b01001010, 0b01010100})
    m2 = paving({0b10000101, 0b01001100, 0b00110010, 0b00101001})
    assert matroid._invariants(m1)[1:] == matroid._invariants(m2)[1:]
    dependent1, dependent2 = ({b for b in triples if b not in M.bases} for M in (m1, m2))
    assert not any({matroid.mapped_mask(b, p) for b in dependent1} == dependent2
                   for p in itertools.permutations(range(8)))
    assert is_isomorphic(m1, m2) is None and is_isomorphic(m2, m1) is None


def test_isomorphism_respects_structure_not_labels():
    # permuted fano columns stay isomorphic to F7
    f7 = catalog("F7")
    entries = []
    perm = [3, 0, 6, 1, 5, 2, 4]
    for i in range(3):
        for c in perm:
            entries.append(((c + 1) >> i) & 1)
    shuffled = from_matrix(FqMatrix(F2, 3, 7, tuple(entries)))
    bij = is_isomorphic(f7, shuffled)
    assert bij is not None
    mapped = {sum(1 << bij[i] for i in range(7) if b & (1 << i)) for b in f7.bases}
    assert mapped == shuffled.bases


def test_stats_and_is_free():
    assert uniform(3, 3).is_free()
    assert not uniform(2, 3).is_free()
    st = from_matrix(from_rows(F2, [[1, 0, 1, 0], [0, 1, 1, 0]])).stats()
    assert (st.e, st.r, st.l) == (4, 2, 1)
    with pytest.raises(BadArgumentsError):
        from fqminors.matroid import MatroidStats

        MatroidStats(3, 0, 1)  # rank 0 forces all loops


def test_minor_operations():
    u24 = catalog("U:2,4")
    assert u24.minor(0, 1 << 3) == uniform(2, 3)
    assert u24.minor(1 << 0, 0) == uniform(1, 3)
    with pytest.raises(BadArgumentsError):
        u24.minor(0b0011, 0b0010)


def test_minor_with_dependent_contraction():
    # contracting a dependent set equals contracting a maximal independent
    # subset and deleting the rest
    m = from_matrix(from_rows(F2, [[1, 1, 0, 1], [0, 0, 1, 1]]))
    c = 0b0011  # two parallel elements, rank 1
    contracted = m.minor(c, 0)
    assert contracted.rank == m.rank - 1


def test_dual_contract_delete_duality():
    for name in ("U:2,4", "U:1,3", "F7"):
        m = catalog(name)
        for x in range(m.ground_size):
            mask = 1 << x
            assert m.minor(mask, 0).dual() == m.dual().minor(0, mask)


def test_basis_exchange_axiom():
    rng = random.Random(7)
    matroids = [catalog(n) for n in ("U:2,4", "U:0,3", "F7", "F7*", "MK33*", "MK5*")]
    for _ in range(10):
        entries = tuple(rng.randrange(2) for _ in range(3 * 6))
        matroids.append(from_matrix(FqMatrix(F2, 3, 6, entries)))
    for m in matroids:
        assert check_basis_exchange(m)


def test_from_matrix_basis_change_invariant():
    invertible = [
        FqMatrix(F2, 2, 2, e)
        for e in itertools.product(range(2), repeat=4)
        if fast_rank(FqMatrix(F2, 2, 2, e)) == 2
    ]
    for e in itertools.product(range(2), repeat=6):
        a = FqMatrix(F2, 2, 3, e)
        ma = from_matrix(a)
        for p in invertible:
            assert from_matrix(p.matmul(a)) == ma


def test_from_matrix_matches_reference_subset_ranks():
    # every r-subset of columns, ranked by the test-side reference
    # elimination: a basis is a subset of full rank r
    rng = random.Random(12)
    for f in (F3, field(4)):
        for m, n in ((2, 4), (3, 5), (3, 6), (4, 6)):
            for _ in range(8):
                a = FqMatrix(f, m, n, tuple(rng.randrange(f.q) for _ in range(m * n)))
                if rng.random() < 0.5:  # a repeated column and a zero column
                    cols = [a.col(j) for j in range(n - 2)] + [a.col(0), (0,) * m]
                    a = from_rows(f, [[c[i] for c in cols] for i in range(m)])
                r = rank(a)
                want = [
                    sum(1 << j for j in combo)
                    for combo in itertools.combinations(range(n), r)
                    if rank(from_rows(f, [[a.row(i)[j] for j in combo]
                                                   for i in range(m)])) == r
                ]
                ma = from_matrix(a)
                assert ma.rank == r
                assert ma.bases == frozenset(want)


def test_loops_equal_zero_columns():
    for e in itertools.product(range(3), repeat=6):
        a = FqMatrix(F3, 2, 3, e)
        zero_cols = sum(1 << j for j in range(3) if all(x == 0 for x in a.col(j)))
        assert from_matrix(a).loops() == zero_cols


def test_rank_of_and_independence():
    f7 = catalog("F7")
    assert f7.rank_of(f7.full_mask) == 3
    assert f7.rank_of(0) == 0
    # three collinear fano points are dependent: columns 1,2,3 (codes) satisfy 1^2=3
    assert f7.rank_of(0b111) == 2


def test_text_format_roundtrip():
    # every catalog matroid passes the exchange check `parse_matroid` makes
    for name in ("U:2,4", "F7", "F7*", "MK5*", "MK33*", "U:0,2", "U:5,10", "free:3", "free:0"):
        m = catalog(name)
        assert parse_matroid(format_matroid(m)) == m


def test_parse_matroid_exchange_check_matches_pairwise_check():
    rng = random.Random(20261020)
    verdicts = Counter()
    for _ in range(600):
        e = rng.randint(1, 6)
        r = rng.randint(0, e)
        sets = [sum(1 << x for x in c) for c in itertools.combinations(range(e), r)]
        family = Matroid(e, rng.sample(sets, rng.randint(1, len(sets))))
        text = format_matroid(family)
        holds = check_basis_exchange(family)
        verdicts[holds] += 1
        if holds:
            assert parse_matroid(text) == family
        else:
            with pytest.raises(ParseError, match="breaks the exchange axiom"):
                parse_matroid(text)
    assert verdicts[True] and verdicts[False]


def test_parse_matroid_errors():
    with pytest.raises(ParseError):
        parse_matroid("")
    with pytest.raises(ParseError):
        parse_matroid("3\n0 1\n")
    with pytest.raises(ParseError):
        parse_matroid("3 2\n0 5\n")
    with pytest.raises(ParseError):
        parse_matroid("3 2\n0 0\n")
    with pytest.raises(ParseError):
        parse_matroid("3 2\n0\n")


def test_matroid_validation():
    with pytest.raises(BadArgumentsError):
        Matroid(3, [])
    with pytest.raises(BadArgumentsError):
        Matroid(3, [0b1, 0b11])
    with pytest.raises(BadArgumentsError):
        Matroid(21, [0b1])


# the census behind count_representations_exact visits 2^(r·|E|) column
# tuples over GF(2): up to 2^14 here keeps each under half a second
_CENSUS_BITS = 14


def _small_matroids():
    """(name, matroid) of every catalog target, every U:k,n with n <= 7,
    and the column matroids of seeded GF(3) and GF(4) matrices of 2 x 6,
    3 x 4 and 3 x 6, which have loops, parallel classes and, often, no
    GF(2) representation."""
    out = [(name, catalog(name)) for name in ("F7", "F7*", "MK5*", "MK33*")]
    out += [(f"U:{k},{n}", catalog(f"U:{k},{n}")) for n in range(8) for k in range(n + 1)]
    rng = random.Random(20261019)
    for q in (3, 4):
        for m, n in ((2, 6), (3, 4), (3, 6)):
            for i in range(6):
                A = FqMatrix(field(q), m, n, tuple(rng.randrange(q) for _ in range(m * n)))
                out.append((f"GF({q}) {m}x{n} #{i}", from_matrix(A)))
    return out


def test_binary_decision_matches_the_representation_census():
    # a matroid is binary iff some r x |E| GF(2) matrix represents it, which
    # the census counts outright wherever it is small enough to run
    checked = {True: 0, False: 0}
    for name, M in _small_matroids():
        if M.rank * M.ground_size > _CENSUS_BITS:
            continue
        want = oracle.count_representations_exact(M, M.rank, 2) > 0
        assert is_binary(M) == want, name
        checked[want] += 1
    assert min(checked.values()) >= 5, checked


def test_binary_decision_matches_tuttes_excluded_minor():
    # Tutte (1958): a matroid is binary iff it has no U:2,4 minor, decided
    # here by the all-(C, D) reference search, for every matroid of
    # `_small_matroids`, the named catalog targets past the census included
    u24 = catalog("U:2,4")
    verdicts = set()
    for name, M in _small_matroids():
        want = find_minor(M, u24, budget=None) is None
        assert is_binary(M) == want == is_binary(M.dual()), name
        verdicts.add(want)
    assert verdicts == {True, False}
