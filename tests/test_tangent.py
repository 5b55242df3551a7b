import numpy as np
import pytest

import loopoid_lab.tangent as tangent_module
from conftest import cubic_line_chart, planar_feedback_chart
from loopoid_lab.algebroid import make_frame_field
from loopoid_lab.errors import IncompatibleVelocities, NotComposable
from loopoid_lab.loopoids import (
    loop_as_loopoid,
    pair_groupoid,
    product_loopoid,
    sample_composable_pairs,
)
from loopoid_lab.loops import octonion_chart
from loopoid_lab.tangent import (
    TangentElement,
    check_tangent_loopoid,
    cotangent_fibration,
    tangent_multiply,
)


@pytest.fixture(scope="module")
def cubic_loopoid():
    return loop_as_loopoid(cubic_line_chart())


def test_tangent_product_cubic_line_closed_form(cubic_loopoid, rng):
    for _ in range(30):
        x, y = rng.normal(scale=0.5, size=2)
        vx, vy = rng.normal(size=2)
        out = tangent_multiply(
            cubic_loopoid, TangentElement([x], [vx]), TangentElement([y], [vy])
        )
        assert abs(out.base[0] - (x + y + x * x * y)) < 1e-12
        assert abs(out.vector[0] - (vx * (1 + 2 * x * y) + vy * (1 + x * x))) < 1e-8


def test_tangent_units_act_trivially(rng):
    q = product_loopoid(planar_feedback_chart(), 2)
    from loopoid_lab.numdiff import jacobian

    g, h = sample_composable_pairs(q, rng, 1)[0]
    vh = rng.normal(size=6)
    u = np.asarray(q.alpha(h))
    w = jacobian(q.alpha, h, 1e-5) @ vh
    unit_el = TangentElement(q.unit_embed(u), jacobian(q.unit_embed, u, 1e-5) @ w)
    yh = TangentElement(h, vh)
    out = tangent_multiply(q, unit_el, yh)
    assert np.allclose(out.base, h, atol=1e-10)
    assert np.allclose(out.vector, vh, atol=1e-8)


def test_tangent_product_componentwise_on_product_instance(rng):
    loop = planar_feedback_chart()
    q = product_loopoid(loop, 2)
    ql = loop_as_loopoid(loop)
    for _ in range(10):
        g, h = sample_composable_pairs(q, rng, 1)[0]
        vg = rng.normal(size=6)
        vh = rng.normal(size=6)
        vh[2:4] = vg[4:6]  # matching base velocity
        out = tangent_multiply(q, TangentElement(g, vg), TangentElement(h, vh))
        loop_part = tangent_multiply(
            ql, TangentElement(g[:2], vg[:2]), TangentElement(h[:2], vh[:2])
        )
        assert np.allclose(out.vector[:2], loop_part.vector, atol=1e-6)
        assert np.allclose(out.vector[2:4], vg[2:4], atol=1e-8)
        assert np.allclose(out.vector[4:6], vh[4:6], atol=1e-8)


def test_tangent_rejects_bad_pairs(rng):
    q = product_loopoid(planar_feedback_chart(), 2)
    g = q.sample_g(rng, 1)[0]
    h = q.sample_g(rng, 1)[0]  # generically not composable
    with pytest.raises(NotComposable):
        tangent_multiply(q, TangentElement(g, np.zeros(6)), TangentElement(h, np.zeros(6)))
    g2, h2 = sample_composable_pairs(q, rng, 1)[0]
    vg = rng.normal(size=6)
    vh = rng.normal(size=6)
    vh[2:4] = vg[4:6] + 5.0  # incompatible base velocities
    with pytest.raises(IncompatibleVelocities):
        tangent_multiply(q, TangentElement(g2, vg), TangentElement(h2, vh))


def test_check_tangent_loopoid_product_h():
    q = product_loopoid(planar_feedback_chart(), 2)
    rep = check_tangent_loopoid(q, n_samples=5, seed=1)
    assert rep["ok"]
    assert rep["section_choice_residual"] < 1e-6
    assert rep["tangent_translation_min_sv"] > 1e-7


def test_check_tangent_loopoid_pair_groupoid():
    rep = check_tangent_loopoid(pair_groupoid(2), n_samples=5, seed=2)
    assert rep["ok"]
    assert rep["anchor_residual"] < 1e-9


def test_tangent_inverse_on_ip_instance():
    q = product_loopoid(octonion_chart(), 1)
    rep = check_tangent_loopoid(q, n_samples=3, seed=3)
    assert rep["ok"]
    assert rep["tangent_inverse_residual"] < 1e-6


def test_curve_oracle_agreement(rng):
    # differentiate matched curves through the factors directly and compare
    loop = planar_feedback_chart()
    q = product_loopoid(loop, 2)
    worst = 0.0
    for _ in range(10):
        g, h = sample_composable_pairs(q, rng, 1)[0]
        vg = rng.normal(size=6)
        vh = rng.normal(size=6)
        vh[2:4] = vg[4:6]
        prod = tangent_multiply(q, TangentElement(g, vg), TangentElement(h, vh))

        def curve(t):
            gc = g + t * vg
            hc = h + t * vh
            hc = hc.copy()
            hc[2:4] = gc[4:6]  # glue the middle legs exactly
            return q.mul(gc, hc)

        step = 1e-6
        oracle = (curve(step) - curve(-step)) / (2.0 * step)
        worst = max(worst, float(np.abs(prod.vector - oracle).max()))
    assert worst < 1e-6


def test_cotangent_fibrations_cubic_line(cubic_loopoid, rng):
    ff = make_frame_field(cubic_loopoid)
    for _ in range(15):
        x, p = rng.normal(scale=0.6, size=2)
        beta_val = cotangent_fibration(cubic_loopoid, "beta", np.array([x]), np.array([p]), ff)
        alpha_val = cotangent_fibration(cubic_loopoid, "alpha", np.array([x]), np.array([p]), ff)
        assert abs(beta_val[0] - p * (1 + x * x)) < 1e-7
        assert abs(alpha_val[0] - p) < 1e-7


def test_cotangent_at_unit_restricts_to_vertical_basis(rng):
    q = product_loopoid(planar_feedback_chart(), 2)
    ff = make_frame_field(q)
    u = rng.normal(size=2)
    e = q.unit_embed(u)
    mu = rng.normal(size=6)
    got = cotangent_fibration(q, "beta", e, mu, ff)
    fr = ff(u)
    assert np.allclose(got, fr.alpha_vertical @ mu, atol=1e-8)


def test_cotangent_componentwise_on_product(rng):
    loop = cubic_line_chart()
    q = product_loopoid(loop, 1)
    ql = loop_as_loopoid(loop)
    ff = make_frame_field(q)
    ffl = make_frame_field(ql)
    g = q.sample_g(rng, 1)[0]
    mu = rng.normal(size=3)
    got = cotangent_fibration(q, "beta", g, mu, ff)
    loop_part = cotangent_fibration(ql, "beta", g[:1], mu[:1], ffl)
    assert abs(got[0] - loop_part[0]) < 1e-7
    assert abs(got[1] - mu[2]) < 1e-8  # beta-leg slot of the covector


def test_no_cotangent_multiplication_is_exposed():
    # the double fibration is the whole cotangent interface: there is no
    # well-defined covector product to offer
    exported = [name for name in dir(tangent_module) if "mul" in name.lower()]
    assert "tangent_multiply" in exported
    assert not any("cotangent" in name.lower() and "mul" in name.lower() for name in exported)
