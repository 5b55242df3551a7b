import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_traced_bytes
from loopoid_lab import _kernels
from loopoid_lab.cli import main
from loopoid_lab.errors import DivisionByZero
from loopoid_lab.octonion import (
    MUL_INDEX,
    MUL_SIGN,
    format_expression,
    moufang_defect,
    norm_defect,
    oct_conj,
    oct_inverse,
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

# the basis e0..e7 as coefficient rows
E = np.eye(8)

# structure tensor (e_i e_j)_k for the einsum oracle of the gather kernel
MUL_TENSOR = np.zeros((8, 8, 8))
MUL_TENSOR[np.arange(8)[:, None], np.arange(8), MUL_INDEX] = MUL_SIGN


def einsum_product(a, b, *gather_tables):
    """``oct_mul_many`` as one three-operand einsum; ignores the gather tables."""
    return np.einsum("si,sj,ijk->sk", a, b, MUL_TENSOR)


def _bits(x):
    return x.dtype, x.shape, x.tobytes()


def test_all_64_basis_products_match_frozen_table():
    for i in range(8):
        for j in range(8):
            signed = BASIS_TABLE[i][j]
            k = abs(signed) - 1
            sign = 1.0 if signed > 0 else -1.0
            expected = np.zeros(8)
            expected[k] = sign
            assert np.array_equal(oct_mul_batch(E[i], E[j]), expected), (i, j)
            assert MUL_INDEX[i, j] == k and MUL_SIGN[i, j] == sign


def test_specific_products():
    assert np.array_equal(oct_mul_batch(E[1], E[2]), E[3])
    assert np.array_equal(oct_mul_batch(E[3], E[5]), -E[6])


def test_unit_element(rng):
    g = rng.normal(size=8)
    assert np.array_equal(oct_mul_batch(E[0], g), g)
    assert np.array_equal(oct_mul_batch(g, E[0]), g)


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
    # the product sums each coefficient's terms over i in order, as this loop does
    assert np.array_equal(oct_mul_batch(a, b), expect)


def test_gather_product_matches_einsum_on_basis_products():
    i, j = np.divmod(np.arange(64), 8)
    assert _bits(oct_mul_batch(E[i], E[j])) == _bits(einsum_product(E[i], E[j]))
    for i in range(8):
        for j in range(8):
            assert _bits(oct_mul_batch(E[i], E[j])) == _bits(einsum_product(E[i : i + 1], E[j : j + 1])[0]), (i, j)


def _stack(rng, n, complex_part):
    """Seeded coefficients with exact zeros of both signs among them."""
    x = rng.normal(size=(n, 8))
    x[rng.random((n, 8)) < 0.2] = 0.0
    x[rng.random((n, 8)) < 0.1] = -0.0
    if complex_part:
        y = rng.normal(size=(n, 8)) * 1e-20  # a complex step's scale
        y[rng.random((n, 8)) < 0.3] = -0.0
        x = x + 1j * y
    return x


CHUNK = _kernels.OCT_CHUNK


# one and two rows, as chart maps send them, and stacks on either side of
# one, two and several whole chunks
@pytest.mark.parametrize("n", [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1, 5000])
@pytest.mark.parametrize("kinds", [(False, False), (True, True), (False, True), (True, False)], ids=["float", "complex", "float_complex", "complex_float"])
def test_gather_product_matches_einsum_bit_for_bit(n, kinds):
    rng = np.random.default_rng(1000 + n)
    a = _stack(rng, n, kinds[0])
    b = _stack(rng, n, kinds[1])
    assert _bits(oct_mul_batch(a, b)) == _bits(einsum_product(a, b))


def test_zero_sums_are_positive_zeros():
    # (ab)_0 = a_0 b_0 - sum_{i>0} a_i b_i: here every term is -0, and the
    # einsum's accumulator, which starts at +0, gives +0
    a = np.zeros((1, 8))
    a[0, 0] = -0.0
    b = np.ones((1, 8))
    for x, y in ((a, b), (a + 0j, b + 0j)):
        prod = oct_mul_batch(x, y)
        assert _bits(prod) == _bits(einsum_product(x, y))
        assert not np.signbit(prod.view(np.float64)).any()


def test_octonion_report_unchanged_under_einsum_product(monkeypatch, tmp_path):
    args = ["octonion", "--samples", "5000", "--seed", "0", "--mul", "e1+2e3", "e4", "--out"]
    runner = CliRunner()
    gather = runner.invoke(main, args + [str(tmp_path / "gather.json")])
    monkeypatch.setattr(_kernels, "oct_mul_many", einsum_product)
    oracle = runner.invoke(main, args + [str(tmp_path / "einsum.json")])
    assert gather.exit_code == oracle.exit_code == 0
    assert (tmp_path / "gather.json").read_bytes() == (tmp_path / "einsum.json").read_bytes()


def _whole_array_norm_defect(a, b):
    """``norm_defect`` as whole-array ``np.linalg.norm`` calls, its reference."""
    norm_ab = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    return float((np.abs(np.linalg.norm(oct_mul_batch(a, b), axis=1) - norm_ab) / norm_ab).max())


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 5000])
def test_norm_defect_matches_whole_array_norms_bit_for_bit(n):
    rng = np.random.default_rng(2000 + n)
    a, b = random_octonions(rng, n), random_octonions(rng, n)
    assert norm_defect(a, b).hex() == _whole_array_norm_defect(a, b).hex()


def test_norm_defect_memory_is_bounded_by_its_blocks():
    # the whole-array formula peaks at 3.0 MB here, and at 30 MB on 2e5 rows
    rng = np.random.default_rng(5)
    a, b = random_octonions(rng, 20_000), random_octonions(rng, 20_000)
    assert peak_traced_bytes(norm_defect, a, b) < 1_500_000


def test_moufang_identity_on_unit_octonions():
    rng = np.random.default_rng(1)
    a = random_unit_octonions(rng, 1000)
    x = random_unit_octonions(rng, 1000)
    y = random_unit_octonions(rng, 1000)
    lhs = oct_mul_batch(oct_mul_batch(oct_mul_batch(a, x), a), y)
    rhs = oct_mul_batch(a, oct_mul_batch(x, oct_mul_batch(a, y)))
    assert float(np.abs(lhs - rhs).max()) < 1e-9


def _whole_array_moufang_defect(u1, u2, u3):
    """``moufang_defect`` as six whole-length products, its reference."""
    lhs = oct_mul_batch(oct_mul_batch(oct_mul_batch(u1, u2), u1), u3)
    rhs = oct_mul_batch(u1, oct_mul_batch(u2, oct_mul_batch(u1, u3)))
    return float(np.abs(lhs - rhs).max())


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 5000])
def test_moufang_defect_matches_whole_array_products_bit_for_bit(n):
    rng = np.random.default_rng(3000 + n)
    units = [random_unit_octonions(rng, n) for _ in range(3)]
    assert moufang_defect(*units).hex() == _whole_array_moufang_defect(*units).hex()


def test_moufang_defect_memory_is_bounded_by_its_blocks():
    # the six whole-length products peak at 5.1 MB here, the blocks at 0.9 MB
    rng = np.random.default_rng(6)
    units = [random_unit_octonions(rng, 20_000) for _ in range(3)]
    assert peak_traced_bytes(moufang_defect, *units) < 1_500_000


def test_inverse_values():
    assert np.array_equal(oct_inverse(E[1]), -E[1])
    assert np.array_equal(oct_inverse(E[0]), E[0])
    g = E[0] + E[1]  # norm^2 = 2
    inv = oct_inverse(g)
    assert np.allclose(inv, (E[0] - E[1]) / 2.0)


def test_inverse_property_and_identities(rng):
    g = rng.normal(size=8)
    h = rng.normal(size=8)
    gi = oct_inverse(g)
    assert np.allclose(oct_mul_batch(g, gi), E[0], atol=1e-12)
    assert np.allclose(oct_mul_batch(gi, g), E[0], atol=1e-12)
    assert np.allclose(oct_mul_batch(gi, oct_mul_batch(g, h)), h, atol=1e-12)
    assert np.allclose(oct_mul_batch(oct_mul_batch(h, g), gi), h, atol=1e-12)


def test_inverse_refuses_zero():
    with pytest.raises(DivisionByZero):
        oct_inverse(np.zeros(8))


def test_associator_values(rng):
    def associator(a, b, c):
        return oct_mul_batch(oct_mul_batch(a, b), c) - oct_mul_batch(a, oct_mul_batch(b, c))

    assert np.allclose(associator(E[1], E[2], E[1]), 0.0, atol=1e-12)
    # (e1 e2) e4 = e3 e4 = e7 while e1 (e2 e4) = e1 e6 = -e7
    assert np.allclose(associator(E[1], E[2], E[4]), 2.0 * E[7])
    g = rng.normal(size=8)
    h = rng.normal(size=8)
    assert np.allclose(associator(E[0], g, h), 0.0, atol=1e-12)
    assert np.allclose(associator(g, E[0], h), 0.0, atol=1e-12)
    # alternativity on random arguments
    assert np.allclose(associator(g, h, g), 0.0, atol=1e-11)


def test_conjugation_antihomomorphism(rng):
    for _ in range(50):
        g = rng.normal(size=8)
        h = rng.normal(size=8)
        assert np.allclose(oct_conj(oct_mul_batch(g, h)), oct_mul_batch(oct_conj(h), oct_conj(g)), atol=1e-12)


def test_inner_product_scaling(rng):
    # the bilinear product scales the pairing by the squared norm of the
    # left factor: <ag, ah> = |a|^2 <g, h>
    for _ in range(50):
        a = rng.normal(size=8)
        g = rng.normal(size=8)
        h = rng.normal(size=8)
        lhs = oct_mul_batch(a, g) @ oct_mul_batch(a, h)
        rhs = (a @ a) * (g @ h)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


def test_inner_product_matches_conjugation_formula(rng):
    g = rng.normal(size=8)
    h = rng.normal(size=8)
    via_conj = 0.5 * (oct_mul_batch(g, oct_conj(h))[0] + oct_mul_batch(h, oct_conj(g))[0])
    assert abs(g @ h - via_conj) < 1e-12


def test_parse_expression_forms():
    g = parse_expression("e1+2e3")
    assert np.array_equal(g, [0, 1, 0, 2, 0, 0, 0, 0])
    h = parse_expression("-0.5 + 1.5e7")
    assert np.array_equal(h, [-0.5, 0, 0, 0, 0, 0, 0, 1.5])
    with pytest.raises(ValueError):
        parse_expression("e9")
    with pytest.raises(ValueError):
        parse_expression("")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=8, max_size=8))
def test_format_parse_round_trip(coeffs):
    g = np.array(coeffs, dtype=float)
    text = format_expression(g)
    assert np.allclose(parse_expression(text), g)
