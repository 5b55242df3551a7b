import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cross_product_constants, cubic_line_chart, planar_feedback_chart
from loopoid_lab.errors import NotAntisymmetric, NumericalNoise
from loopoid_lab.loops import (
    SmoothLoopChart,
    bracket_loop,
    extract_structure_constants,
    octonion_chart,
    polynomial_chart,
)
from loopoid_lab.newton import newton_solve
from loopoid_lab.numdiff import jacobian, smallest_singular_value
from loopoid_lab.octonion import oct_inverse, oct_mul_batch


def divide(chart, side, a, b):
    """Solve a * x = b (side="left") or x * a = b (side="right") by Newton
    from the additive guess b - a, which near the unit is inside the basin."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # the residual takes single points and the Jacobian's stencil stacks
    fixed = lambda x: np.broadcast_to(a, np.shape(x)).copy()
    if side == "left":
        residual = lambda x: chart.mul(fixed(x), x) - b
    else:
        residual = lambda x: chart.mul(x, fixed(x)) - b
    return newton_solve(residual, b - a + chart.unit)[0]


def test_cross_product_bracket_loop_values(rng):
    chart = bracket_loop(3, cross_product_constants())
    a = rng.normal(size=3)
    b = rng.normal(size=3)
    assert np.allclose(chart.mul(a, b), a + b + 0.5 * np.cross(a, b))
    # mixed split arguments reduce to the same formula
    a0 = np.array([a[0], a[1], 0.0])
    b0 = np.array([0.0, 0.0, b[2]])
    assert np.allclose(chart.mul(a0, b0), a0 + b0 + 0.5 * np.cross(a0, b0))


def test_bracket_loop_left_inverse_defect(rng):
    # (-x) * (x * y) = y - [x, [x, y]] / 4: the loop has no inverse property
    chart = bracket_loop(3, cross_product_constants())
    x = rng.normal(size=3)
    y = rng.normal(size=3)
    lhs = chart.mul(-x, chart.mul(x, y))
    rhs = y - 0.25 * np.cross(x, np.cross(x, y))
    assert np.allclose(lhs, rhs, atol=1e-13)


def test_unit_laws(rng):
    for chart in (cubic_line_chart(), planar_feedback_chart(), octonion_chart()):
        p = chart.sample(rng, 1)[0]
        assert np.allclose(chart.mul(chart.unit, p), p, atol=1e-12)
        assert np.allclose(chart.mul(p, chart.unit), p, atol=1e-12)


def test_cubic_line_evaluation():
    chart = cubic_line_chart()
    assert abs(chart.mul(np.array([2.0]), np.array([1.0]))[0] - 7.0) < 1e-14


def test_divide_closed_form():
    chart = cubic_line_chart()
    # left division: a * x = b with a=2, b=7 has x = (b - a) / (1 + a^2) = 1
    assert abs(divide(chart, "left", [2.0], [7.0])[0] - 1.0) < 1e-10
    # right division: y * a = b solves y + a + y^2 a = b
    y = divide(chart, "right", [0.5], [2.0])[0]
    assert abs(y + 0.5 + y * y * 0.5 - 2.0) < 1e-10


def test_divide_by_unit_is_identity(rng):
    chart = planar_feedback_chart()
    b = chart.sample(rng, 1)[0]
    assert np.allclose(divide(chart, "left", chart.unit, b), b, atol=1e-10)


def test_divide_octonion_matches_inverse_oracle(rng):
    chart = octonion_chart()
    g = chart.sample(rng, 1)[0]
    h = chart.sample(rng, 1)[0]
    gh = chart.mul(g, h)
    x = divide(chart, "left", g, gh)
    oracle = oct_mul_batch(oct_inverse(g), gh)
    assert np.allclose(x, h, atol=1e-9)
    assert np.allclose(x, oracle, atol=1e-9)


def test_divide_inverts_multiplication(rng):
    chart = planar_feedback_chart()
    for _ in range(20):
        a = chart.sample(rng, 1)[0]
        x = chart.sample(rng, 1)[0]
        b = chart.mul(a, x)
        assert np.allclose(divide(chart, "left", a, b), x, atol=1e-8)


def test_structure_constants_planar_feedback():
    c, skew = extract_structure_constants(planar_feedback_chart())
    expected_c = np.zeros((2, 2, 2))
    expected_c[0, 0, 1] = 1.0
    expected_c[1, 1, 0] = 1.0
    assert np.allclose(c, expected_c, atol=1e-7)
    br = np.einsum("kij,i,j->k", skew.constants, [1.0, 0.0], [0.0, 1.0])
    assert np.allclose(br, [1.0, -1.0], atol=1e-6)


def test_structure_constants_abelian_zero():
    chart = SmoothLoopChart(dim=3, mul=lambda x, y: x + y)
    c, skew = extract_structure_constants(chart)
    assert np.allclose(c, 0.0, atol=1e-9)
    assert np.allclose(skew.constants, 0.0)


def test_structure_constants_bracket_loop_doubling():
    # mul = x + y + [x, y]/2 means c = C/2 and the antisymmetrization
    # restores C exactly
    C = cross_product_constants()
    c, skew = extract_structure_constants(bracket_loop(3, C))
    assert np.allclose(c, 0.5 * C, atol=1e-7)
    assert np.allclose(skew.constants, C, atol=1e-6)


def test_skew_constants_exactly_antisymmetric(rng):
    _, skew = extract_structure_constants(octonion_chart())
    assert np.array_equal(skew.constants, -np.swapaxes(skew.constants, 1, 2))


def test_bracket_loop_rejects_symmetric_part():
    bad = np.zeros((2, 2, 2))
    bad[0, 0, 1] = 1.0  # no matching -1 at (0, 1, 0)
    with pytest.raises(NotAntisymmetric):
        bracket_loop(2, bad)
    with pytest.raises(NotAntisymmetric):
        bracket_loop(3, np.zeros((2, 2, 2)))


def test_extraction_flags_nonsmooth_products():
    # y |y|^{1/2} coupling has a step-size-dependent mixed second derivative
    def mul(x, y):
        coupling = x[..., 0] * y[..., 1] * np.abs(y[..., 1]) ** 0.5
        return x + y + 50.0 * np.stack([coupling, np.zeros_like(coupling)], axis=-1)

    with pytest.raises(NumericalNoise):
        extract_structure_constants(SmoothLoopChart(dim=2, mul=mul))


def _random_antisymmetric(rng, dim):
    c = rng.uniform(-1.0, 1.0, size=(dim, dim, dim))
    return c - np.swapaxes(c, 1, 2)


def test_round_trip_random_tensors(rng):
    for dim in (2, 3, 4, 5):
        for _ in range(5):
            C = _random_antisymmetric(rng, dim)
            _, skew = extract_structure_constants(bracket_loop(dim, C))
            assert np.abs(skew.constants - C).max() < 1e-6


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_round_trip_property(dim, seed):
    C = _random_antisymmetric(np.random.default_rng(seed), dim)
    _, skew = extract_structure_constants(bracket_loop(dim, C))
    assert np.abs(skew.constants - C).max() < 1e-6


def test_validate_chart_reports(rng):
    # unit laws and invertible translations at the unit, on samples
    chart = octonion_chart()
    for p in chart.sample(rng, 20):
        assert np.max(np.abs(chart.mul(chart.unit, p) - p)) < 1e-9
        assert np.max(np.abs(chart.mul(p, chart.unit) - p)) < 1e-9
        # the Jacobian's stencil stack pairs with the fixed factor repeated
        jl = jacobian(lambda y: chart.mul(np.broadcast_to(p, y.shape).copy(), y), chart.unit, 1e-5)
        jr = jacobian(lambda x: chart.mul(x, np.broadcast_to(chart.unit, x.shape).copy()), chart.unit, 1e-5)
        assert min(smallest_singular_value(jl), smallest_singular_value(jr)) > 0.1


def test_polynomial_chart_matches_closed_form(rng):
    chart = polynomial_chart(
        1, [[(1.0, (1,), (0,)), (1.0, (0,), (1,)), (1.0, (2,), (1,))]], name="cubic"
    )
    x, y = rng.normal(size=2)
    assert abs(chart.mul(np.array([x]), np.array([y]))[0] - (x + y + x * x * y)) < 1e-14
