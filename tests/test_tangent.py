import dataclasses

import numpy as np
import pytest

import loopoid_lab.loopoids as loopoids_module
import loopoid_lab.tangent as tangent_module
from conftest import build_spec, cubic_line_chart, example, linear_system, planar_feedback_chart
from loopoid_lab.errors import IncompatibleVelocities, NotComposable
from loopoid_lab.loopoids import (
    loop_as_loopoid,
    pair_groupoid,
    phi_quasiloopoid,
    product_loopoid,
    sample_composable_pairs,
)
from loopoid_lab.loops import octonion_chart
from loopoid_lab.mechanics import legendre
from loopoid_lab.numdiff import complex_jacobian
from loopoid_lab.tangent import check_tangent_loopoid, tangent_product


@pytest.fixture(scope="module")
def cubic_loopoid():
    return loop_as_loopoid(cubic_line_chart())


def test_tangent_product_cubic_line_closed_form(cubic_loopoid, rng):
    for _ in range(30):
        x, y = rng.normal(scale=0.5, size=2)
        vx, vy = rng.normal(size=2)
        vector = tangent_product(cubic_loopoid, np.array([x]), np.array([vx]), np.array([y]), np.array([vy]))
        assert abs(cubic_loopoid.mul(np.array([x]), np.array([y]))[0] - (x + y + x * x * y)) < 1e-12
        assert abs(vector[0] - (vx * (1 + 2 * x * y) + vy * (1 + x * x))) < 1e-8


def test_tangent_units_act_trivially(rng):
    q = product_loopoid(planar_feedback_chart(), 2)
    from loopoid_lab.numdiff import jacobian

    g, h = sample_composable_pairs(q, rng, 1)[0]
    vh = rng.normal(size=6)
    u = np.asarray(q.alpha(h))
    w = jacobian(q.alpha, h, 1e-5) @ vh
    vector = tangent_product(q, q.unit_embed(u), jacobian(q.unit_embed, u, 1e-5) @ w, h, vh)
    assert np.allclose(q.mul(q.unit_embed(u), h), h, atol=1e-10)
    assert np.allclose(vector, vh, atol=1e-8)


def test_tangent_product_componentwise_on_product_instance(rng):
    loop = planar_feedback_chart()
    q = product_loopoid(loop, 2)
    ql = loop_as_loopoid(loop)
    for _ in range(10):
        g, h = sample_composable_pairs(q, rng, 1)[0]
        vg = rng.normal(size=6)
        vh = rng.normal(size=6)
        vh[2:4] = vg[4:6]  # matching base velocity
        vector = tangent_product(q, g, vg, h, vh)
        loop_part = tangent_product(ql, g[:2], vg[:2], h[:2], vh[:2])
        assert np.allclose(vector[:2], loop_part, atol=1e-6)
        assert np.allclose(vector[2:4], vg[2:4], atol=1e-8)
        assert np.allclose(vector[4:6], vh[4:6], atol=1e-8)


def test_tangent_rejects_bad_pairs(rng):
    q = product_loopoid(planar_feedback_chart(), 2)
    g = q.sample_g(rng, 1)[0]
    h = q.sample_g(rng, 1)[0]  # generically not composable
    with pytest.raises(NotComposable):
        tangent_product(q, g, np.zeros(6), h, np.zeros(6))
    g2, h2 = sample_composable_pairs(q, rng, 1)[0]
    vg = rng.normal(size=6)
    vh = rng.normal(size=6)
    vh[2:4] = vg[4:6] + 5.0  # incompatible base velocities
    with pytest.raises(IncompatibleVelocities):
        tangent_product(q, g2, vg, h2, vh)


@pytest.mark.parametrize("error", [NotComposable, IncompatibleVelocities])
def test_a_bad_row_of_a_stack_is_named(rng, error):
    q = product_loopoid(planar_feedback_chart(), 2)
    pairs = sample_composable_pairs(q, rng, 3)
    g, h = pairs[:, 0], pairs[:, 1].copy()
    vg, vh = rng.normal(size=(2, 3, 6))
    vh[:, 2:4] = vg[:, 4:6]  # matching base velocities
    if error is NotComposable:
        h[1, 2:4] += 0.5  # alpha(h) is the middle leg: the gap is |(0.5, 0.5)|
        message = "tangent factors not composable at row 1: gap 7.07e-01"
    else:
        vh[1, 2:4] += 5.0
        message = "base velocities differ at row 1 by 7.07e+00"
    with pytest.raises(error) as caught:
        tangent_product(q, g, vg, h, vh)
    assert str(caught.value) == message


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


def test_tangent_inverse_residual_is_none_for_a_left_inverse():
    # phi carries a left inverse only: no tangent inverse property to audit
    q = phi_quasiloopoid(lambda x: x**3 + x, "cubic")
    assert q.inverse is not None and q.inverse_side == "left"
    assert check_tangent_loopoid(q, n_samples=2, seed=0)["tangent_inverse_residual"] is None


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
        prod = tangent_product(q, g, vg, h, vh)

        def curve(t):
            gc = g + t * vg
            hc = h + t * vh
            hc = hc.copy()
            hc[2:4] = gc[4:6]  # glue the middle legs exactly
            return q.mul(gc, hc)

        step = 1e-6
        oracle = (curve(step) - curve(-step)) / (2.0 * step)
        worst = max(worst, float(np.abs(prod - oracle).max()))
    assert worst < 1e-6


# the cotangent fibrations beta~ and alpha~ of a covector mu are the plus and
# minus Legendre transforms of the linear Lagrangian mu . g


def test_cotangent_fibrations_cubic_line(cubic_loopoid, rng):
    for _ in range(15):
        x, p = rng.normal(scale=0.6, size=2)
        system = linear_system(cubic_loopoid, np.array([p]))
        beta_val = legendre(system, "plus", np.array([x]))
        alpha_val = legendre(system, "minus", np.array([x]))
        assert abs(beta_val[0] - p * (1 + x * x)) < 1e-7
        assert abs(alpha_val[0] - p) < 1e-7


def test_cotangent_at_unit_restricts_to_vertical_basis(rng):
    q = product_loopoid(planar_feedback_chart(), 2)
    u = rng.normal(size=2)
    e = q.unit_embed(u)
    mu = rng.normal(size=6)
    system = linear_system(q, mu)
    got = legendre(system, "plus", e)
    assert np.allclose(got, system.frames(u).alpha_vertical @ mu, atol=1e-8)


def test_cotangent_componentwise_on_product(rng):
    loop = cubic_line_chart()
    q = product_loopoid(loop, 1)
    ql = loop_as_loopoid(loop)
    g = q.sample_g(rng, 1)[0]
    mu = rng.normal(size=3)
    got = legendre(linear_system(q, mu), "plus", g)
    loop_part = legendre(linear_system(ql, mu[:1]), "plus", g[:1])
    assert abs(got[0] - loop_part[0]) < 1e-7
    assert abs(got[1] - mu[2]) < 1e-8  # beta-leg slot of the covector


def test_no_cotangent_multiplication_is_exposed():
    # the double fibration is the whole cotangent interface: there is no
    # well-defined covector product to offer
    exported = [name.lower() for name in dir(tangent_module) if "mul" in name.lower() or "product" in name.lower()]
    assert "tangent_product" in exported
    assert not any("cotangent" in name for name in exported)


def count_calls(monkeypatch, module, name):
    """Record each call of ``module.name`` in the returned list."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or fn(*a, **k))
    return calls


@pytest.mark.parametrize(
    "q, n_samples, seed",
    [
        (product_loopoid(planar_feedback_chart(), 2), 5, 1),
        (product_loopoid(octonion_chart(), 1), 3, 3),
    ],
    ids=["product_h", "octonion_pair1"],
)
def test_tangent_audit_builds_sections_only_for_the_witness(monkeypatch, q, n_samples, seed):
    # the product is a complex step of mul; only section_product, once per
    # sample, builds a beta-section through g and an alpha-section through h
    builds = count_calls(monkeypatch, tangent_module, "build_local_section")
    assert check_tangent_loopoid(q, n_samples=n_samples, seed=seed)["ok"]
    assert [side for _, side, _ in builds] == ["beta", "alpha"] * n_samples



@pytest.mark.parametrize(
    "name",
    [
        "readme_product_loopoid",
        "octonion_pair1_loopoid",
        "prolonged_planar_loopoid",
        "phi_loopoid",
        "bracket3_point_loopoid",
    ],
)
def test_tangent_audit_matches_base_velocities(name, monkeypatch):
    # after the stacked pinv correction each v_h's base velocity equals its
    # v_g's to rounding, also over a point (dim_m = 0)
    q = build_spec(example(name))
    calls = count_calls(monkeypatch, tangent_module, "tangent_product")
    check_tangent_loopoid(q, n_samples=6, seed=2)
    _, gs, vgs, hs, vhs = calls[0]
    gap = complex_jacobian(q.alpha, hs) @ vhs[..., None] - complex_jacobian(q.beta, gs) @ vgs[..., None]
    scale = np.maximum(1.0, np.linalg.norm(np.concatenate([vgs, vhs], axis=-1), axis=-1))
    assert np.all(np.linalg.norm(gap[..., 0], axis=-1) <= 1e-12 * scale)


def test_tangent_product_solves_nothing(rng, monkeypatch):
    q = product_loopoid(planar_feedback_chart(), 2)
    g, h = sample_composable_pairs(q, rng, 1)[0]
    vg = rng.normal(size=6)
    vh = rng.normal(size=6)
    vh[2:4] = vg[4:6]
    solves = count_calls(monkeypatch, loopoids_module, "newton_solve")
    assert np.all(np.isfinite(tangent_product(q, g, vg, h, vh)))
    assert solves == []


def dilate(q, lam, mu):
    """q conjugated by g -> lam g on G and u -> mu u on M: an isomorphic
    quasiloopoid whose samples are lam times q's."""
    inverse = None if q.inverse is None else (lambda g: lam * q.inverse(g / lam))
    return dataclasses.replace(
        q,
        alpha=lambda g: mu * q.alpha(g / lam),
        beta=lambda g: mu * q.beta(g / lam),
        unit_embed=lambda u: lam * q.unit_embed(u / mu),
        mul=lambda g, h: lam * q.mul(g / lam, h / lam),
        sampler=lambda rng, k: lam * q.sampler(rng, k),
        inverse=inverse,
    )


@pytest.mark.parametrize(
    "name", ["phi_loopoid", "readme_product_loopoid", "octonion_pair1_loopoid", "prolonged_planar_loopoid"]
)
@pytest.mark.parametrize("lam, mu", [(1e-3, 1.0), (1e3, 1.0), (1.0, 1e-3), (1.0, 1e3)])
def test_tangent_verdict_survives_dilations(name, lam, mu):
    # a dilation is an isomorphism of quasiloopoids, so neither the verdict
    # nor the agreement of the section formula with the product may move
    q = build_spec(example(name))
    rep = check_tangent_loopoid(dilate(q, lam, mu), n_samples=5, seed=0)
    assert rep["ok"] == check_tangent_loopoid(q, n_samples=5, seed=0)["ok"]
    assert rep["section_choice_residual"] < 1e-8


def test_velocity_mismatch_raises_before_section_work(rng, monkeypatch):
    q = product_loopoid(planar_feedback_chart(), 2)
    g, h = sample_composable_pairs(q, rng, 1)[0]
    vg = rng.normal(size=6)
    vh = rng.normal(size=6)
    vh[2:4] = vg[4:6] + 5.0
    builds = count_calls(monkeypatch, tangent_module, "build_local_section")
    solves = count_calls(monkeypatch, loopoids_module, "newton_solve")
    with pytest.raises(IncompatibleVelocities):
        tangent_product(q, g, vg, h, vh)
    assert builds == [] and solves == []
