import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopoid_lab.errors import DivisionByZero
from loopoid_lab.octonion import (
    MUL_INDEX,
    MUL_SIGN,
    Octonion,
    format_expression,
    oct_inner,
    oct_inverse,
    oct_mul,
    oct_mul_batch,
    parse_expression,
    random_octonions,
    random_unit_octonions,
)

# frozen basis products: BASIS_TABLE[i][j] = signed index s*(k+1) meaning
# e_i e_j = sign(s) e_k; 64 entries
BASIS_TABLE = [
    [+1, +2, +3, +4, +5, +6, +7, +8],
    [+2, -1, +4, -3, +6, -5, -8, +7],
    [+3, -4, -1, +2, +7, +8, -5, -6],
    [+4, +3, -2, -1, +8, -7, +6, -5],
    [+5, -6, -7, -8, -1, +2, +3, +4],
    [+6, +5, -8, +7, -2, -1, -4, +3],
    [+7, +8, +5, -6, -3, +4, -1, -2],
    [+8, -7, +6, +5, -4, -3, +2, -1],
]


def test_all_64_basis_products_match_frozen_table():
    e = [Octonion.basis(i) for i in range(8)]
    for i in range(8):
        for j in range(8):
            signed = BASIS_TABLE[i][j]
            k = abs(signed) - 1
            sign = 1.0 if signed > 0 else -1.0
            expected = np.zeros(8)
            expected[k] = sign
            assert np.array_equal((e[i] * e[j]).coeffs, expected), (i, j)
            assert MUL_INDEX[i, j] == k and MUL_SIGN[i, j] == sign


def test_specific_products():
    e = [Octonion.basis(i) for i in range(8)]
    assert np.array_equal((e[1] * e[2]).coeffs, e[3].coeffs)
    assert np.array_equal((e[3] * e[5]).coeffs, (-e[6]).coeffs)


def test_unit_element(rng):
    g = Octonion(rng.normal(size=8))
    assert np.array_equal((Octonion.one() * g).coeffs, g.coeffs)
    assert np.array_equal((g * Octonion.one()).coeffs, g.coeffs)


def test_norm_multiplicative_on_seeded_batch():
    rng = np.random.default_rng(0)
    a = random_octonions(rng, 10000)
    b = random_octonions(rng, 10000)
    prod = oct_mul_batch(a, b)
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    rel = np.abs(np.linalg.norm(prod, axis=1) - na * nb) / (na * nb)
    assert float(rel.max()) < 1e-12


def test_batch_matches_table_loop(rng):
    a = random_octonions(rng, 512)
    b = random_octonions(rng, 512)
    expect = np.zeros((512, 8))
    for s in range(512):
        for i in range(8):
            for j in range(8):
                expect[s, MUL_INDEX[i, j]] += a[s, i] * b[s, j] * MUL_SIGN[i, j]
    # einsum sums the same products in another order
    assert np.allclose(oct_mul_batch(a, b), expect, rtol=0, atol=1e-13)


def test_moufang_identity_on_unit_octonions():
    rng = np.random.default_rng(1)
    a = random_unit_octonions(rng, 1000)
    x = random_unit_octonions(rng, 1000)
    y = random_unit_octonions(rng, 1000)
    lhs = oct_mul_batch(oct_mul_batch(oct_mul_batch(a, x), a), y)
    rhs = oct_mul_batch(a, oct_mul_batch(x, oct_mul_batch(a, y)))
    assert float(np.abs(lhs - rhs).max()) < 1e-9


def test_inverse_values():
    e1 = Octonion.basis(1)
    assert np.array_equal(oct_inverse(e1).coeffs, (-e1).coeffs)
    assert np.array_equal(oct_inverse(Octonion.one()).coeffs, Octonion.one().coeffs)
    g = Octonion.one() + Octonion.basis(1)  # norm^2 = 2
    inv = oct_inverse(g)
    assert np.allclose(inv.coeffs, (Octonion.one() - Octonion.basis(1)).coeffs / 2.0)


def test_inverse_property_and_identities(rng):
    g = Octonion(rng.normal(size=8))
    h = Octonion(rng.normal(size=8))
    gi = oct_inverse(g)
    one = Octonion.one().coeffs
    assert np.allclose((g * gi).coeffs, one, atol=1e-12)
    assert np.allclose((gi * g).coeffs, one, atol=1e-12)
    assert np.allclose((gi * (g * h)).coeffs, h.coeffs, atol=1e-12)
    assert np.allclose(((h * g) * gi).coeffs, h.coeffs, atol=1e-12)


def test_inverse_refuses_zero():
    with pytest.raises(DivisionByZero):
        oct_inverse(Octonion.zero())


def test_associator_values(rng):
    def associator(a, b, c):
        return ((a * b) * c - a * (b * c)).coeffs

    e = [Octonion.basis(i) for i in range(8)]
    assert np.allclose(associator(e[1], e[2], e[1]), 0.0, atol=1e-12)
    # (e1 e2) e4 = e3 e4 = e7 while e1 (e2 e4) = e1 e6 = -e7
    assert np.allclose(associator(e[1], e[2], e[4]), 2.0 * e[7].coeffs)
    g = Octonion(rng.normal(size=8))
    h = Octonion(rng.normal(size=8))
    assert np.allclose(associator(Octonion.one(), g, h), 0.0, atol=1e-12)
    assert np.allclose(associator(g, Octonion.one(), h), 0.0, atol=1e-12)
    # alternativity on random arguments
    assert np.allclose(associator(g, h, g), 0.0, atol=1e-11)


def test_conjugation_antihomomorphism(rng):
    for _ in range(50):
        g = Octonion(rng.normal(size=8))
        h = Octonion(rng.normal(size=8))
        assert np.allclose((g * h).conj().coeffs, (h.conj() * g.conj()).coeffs, atol=1e-12)


def test_inner_product_scaling(rng):
    # the bilinear product scales the pairing by the squared norm of the
    # left factor: <ag, ah> = |a|^2 <g, h>
    for _ in range(50):
        a = Octonion(rng.normal(size=8))
        g = Octonion(rng.normal(size=8))
        h = Octonion(rng.normal(size=8))
        lhs = oct_inner(a * g, a * h)
        rhs = a.norm_sq() * oct_inner(g, h)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


def test_inner_product_matches_conjugation_formula(rng):
    g = Octonion(rng.normal(size=8))
    h = Octonion(rng.normal(size=8))
    via_conj = 0.5 * ((g * h.conj()).coeffs[0] + (h * g.conj()).coeffs[0])
    assert abs(oct_inner(g, h) - via_conj) < 1e-12


def test_parse_expression_forms():
    g = parse_expression("e1+2e3")
    assert np.array_equal(g.coeffs, [0, 1, 0, 2, 0, 0, 0, 0])
    h = parse_expression("-0.5 + 1.5e7")
    assert np.array_equal(h.coeffs, [-0.5, 0, 0, 0, 0, 0, 0, 1.5])
    with pytest.raises(ValueError):
        parse_expression("e9")
    with pytest.raises(ValueError):
        parse_expression("")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=8, max_size=8))
def test_format_parse_round_trip(coeffs):
    g = Octonion(np.array(coeffs, dtype=float))
    text = format_expression(g)
    assert np.allclose(parse_expression(text).coeffs, g.coeffs)
