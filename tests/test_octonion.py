import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_traced_bytes
from loopoid_lab import _kernels, octonion
from loopoid_lab.cli import main
from loopoid_lab.errors import DivisionByZero
from loopoid_lab.octonion import (
    MUL_INDEX,
    MUL_SIGN,
    ORIENTED_TRIPLES,
    format_expression,
    identity_residuals,
    kernel_batch_defect,
    oct_conj,
    oct_inverse,
    oct_mul_batch,
    parse_expression,
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


def random_octonions(rng, n):
    return rng.normal(size=(n, 8))


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


def _flip_gather_sign(monkeypatch):
    """The kernel's gather table with the sign of e1 e2 flipped; the basis table stays."""
    sign = MUL_SIGN.copy()
    sign[1, 2] = -sign[1, 2]
    monkeypatch.setattr(octonion, "GATHER_SIGN", np.take_along_axis(sign, octonion.GATHER_INDEX, axis=1))


def _whole_array_kernel_defect(seed, n):
    """``kernel_batch_defect`` as one product and whole-array norms over
    the same chunk-by-chunk draws, its reference."""
    rng = np.random.default_rng(seed)
    draws = [rng.integers(-1024, 1024, size=(2, min(CHUNK, n - lo), 8), dtype=np.int16) for lo in range(0, n, CHUNK)]
    a, b = np.concatenate(draws, axis=1) * 2.0**-5
    norm = lambda x: np.einsum("ij,ij->i", x, x)
    return float(np.abs(norm(oct_mul_batch(a, b)) - norm(a) * norm(b)).max())


def test_kernel_batch_is_exactly_zero():
    assert kernel_batch_defect(np.random.default_rng(0), 20_000) == 0.0
    assert _whole_array_kernel_defect(0, 20_000) == 0.0


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 5000])
def test_kernel_batch_matches_whole_array_bit_for_bit(n, monkeypatch):
    # under a flipped kernel sign the defect is large and rounds, so the
    # chunked maximum must still equal the whole-array one bit for bit
    _flip_gather_sign(monkeypatch)
    got = kernel_batch_defect(np.random.default_rng(2000 + n), n)
    assert got > 0.0
    assert got.hex() == _whole_array_kernel_defect(2000 + n, n).hex()


def test_kernel_batch_fails_a_kernel_that_drops_its_last_partial_chunk(monkeypatch):
    kernel = _kernels.oct_mul_many

    def drops_partial(a, b, index, sign):
        out = np.zeros(a.shape)
        whole = len(a) - len(a) % CHUNK
        out[:whole] = kernel(a[:whole], b[:whole], index, sign)
        return out

    n = 3 * CHUNK + 17
    assert kernel_batch_defect(np.random.default_rng(4), n) == 0.0
    monkeypatch.setattr(_kernels, "oct_mul_many", drops_partial)
    assert kernel_batch_defect(np.random.default_rng(4), n) > 0.0


def test_kernel_batch_memory_is_bounded_by_its_chunks():
    # drawn chunk by chunk, so the peak (0.86 MB measured) does not grow
    # with the count; 2e5 Gaussian pairs drawn at once took 25.6 MB
    assert peak_traced_bytes(kernel_batch_defect, np.random.default_rng(5), 20_000) < 1_500_000


def test_identity_residuals_are_exact_zeros():
    assert identity_residuals() == (0, 0, 0, 0)
    assert all(type(r) is int for r in identity_residuals())


def _table_mutants():
    """The 64 single sign flips of the basis table, by cell, and the 7
    reversals of one oriented triple, by triple: each a new MUL_SIGN."""
    for i in range(8):
        for j in range(8):
            sign = MUL_SIGN.copy()
            sign[i, j] = -sign[i, j]
            yield (i, j), sign
    for triple in ORIENTED_TRIPLES:
        sign = MUL_SIGN.copy()
        for a, b in zip(triple, triple[1:] + triple[:1]):
            sign[a, b], sign[b, a] = -sign[a, b], -sign[b, a]
        yield triple, sign


def test_every_table_mutant_fails_norm_moufang_and_inverse(monkeypatch):
    conjugation_fails = set()
    for name, sign in _table_mutants():
        monkeypatch.setattr(octonion, "MUL_SIGN", sign)
        norm, moufang, conj, inverse = identity_residuals()
        assert norm and moufang and inverse, name
        if conj:
            conjugation_fails.add(name)
    # a flipped square e_i e_i stays its own conjugate's square, and a
    # reversed triple is still an anti-homomorphic table; every other flip
    # breaks conj(xy) = y-bar x-bar
    assert conjugation_fails == {(i, j) for i in range(8) for j in range(8) if i != j}
    assert len(conjugation_fails) == 56


def test_octonion_identity_checks_ignore_seed_and_samples():
    runner = CliRunner()
    values = set()
    for seed, samples in (("0", "100"), ("7", "100"), ("0", "2000"), ("7", "2000")):
        result = runner.invoke(main, ["octonion", "--seed", seed, "--samples", samples])
        assert result.exit_code == 0
        checks = json.loads(result.output)["checks"]
        values.add(tuple((c["ref"], c["value"]) for c in checks if c["ref"] != "octonion.kernel_batch"))
    assert values == {(
        ("octonion.norm_product", 0),
        ("octonion.moufang_identity", 0),
        ("octonion.conjugation", 0),
        ("octonion.inverse_property", 0),
    )}


def test_moufang_identity_on_unit_octonions():
    rng = np.random.default_rng(1)
    a, x, y = (g / np.linalg.norm(g, axis=1, keepdims=True) for g in random_octonions(rng, 3000).reshape(3, 1000, 8))
    lhs = oct_mul_batch(oct_mul_batch(oct_mul_batch(a, x), a), y)
    rhs = oct_mul_batch(a, oct_mul_batch(x, oct_mul_batch(a, y)))
    assert float(np.abs(lhs - rhs).max()) < 1e-9


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
