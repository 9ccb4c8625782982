import pytest

from fqminors.errors import BadArgumentsError
from fqminors.gf import Field, field

SUPPORTED = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


@pytest.mark.parametrize("q", SUPPORTED)
def test_field_axioms_exhaustive(q):
    f = field(q)
    elems = list(range(f.q))
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert 0 <= f.add(a, b) < q
            assert 0 <= f.mul(a, b) < q
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SUPPORTED)
def test_multiplicative_group_cyclic(q):
    f = field(q)

    def order(x):
        y, k = x, 1
        while y != 1:
            y = f.mul(y, x)
            k += 1
        return k

    assert any(order(a) == q - 1 for a in range(1, q))


def test_gf2_is_xor_and():
    f = field(2)
    for a in (0, 1):
        for b in (0, 1):
            assert f.add(a, b) == a ^ b
            assert f.mul(a, b) == a & b


@pytest.mark.parametrize("q", (2, 3, 5, 7, 11, 13))
def test_prime_field_tables_are_arithmetic_mod_q(q):
    # a prime field's tables come from the same polynomial arithmetic as
    # an extension field's, at degree 0, with no reduction step
    f = Field(q)
    assert f.p == q and f.deg == 1
    assert f.add_table == tuple(tuple((a + b) % q for b in range(q)) for a in range(q))
    assert f.mul_table == tuple(tuple((a * b) % q for b in range(q)) for a in range(q))


def test_gf4_characteristic_two():
    f = field(4)
    assert f.p == 2 and f.deg == 2
    for a in range(f.q):
        assert f.add(a, a) == 0


def test_gf9_characteristic_three():
    f = field(9)
    assert f.p == 3 and f.deg == 2
    for a in range(f.q):
        assert f.add(f.add(a, a), a) == 0


def test_small_value_examples():
    assert field(3).add(2, 2) == 1
    assert field(5).inv(2) == 3


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        field(2).inv(0)


def test_not_prime_power():
    for q in (6, 10, 12, 14, 15):
        with pytest.raises(BadArgumentsError):
            Field(q)
    with pytest.raises(BadArgumentsError):
        Field(1)


def test_unsupported_above_bound():
    for q in (17, 25, 32):
        with pytest.raises(BadArgumentsError):
            Field(q)


def test_factory_caches():
    assert field(7) is field(7)
    assert field(7) == Field(7)
