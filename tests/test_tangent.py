import dataclasses

import numpy as np
import pytest

import loopoid_lab.loopoids as loopoids_module
import loopoid_lab.tangent as tangent_module
from conftest import build_spec, cubic_line_chart, example, linear_system, planar_feedback_chart
from loopoid_lab.loopoids import (
    composable,
    loop_as_loopoid,
    pair_groupoid,
    phi_quasiloopoid,
    product_loopoid,
    sample_composable_pairs,
)
from loopoid_lab.loops import octonion_chart
from loopoid_lab.mechanics import legendre
from loopoid_lab.tangent import check_tangent_loopoid, tangent_loopoid


@pytest.fixture(scope="module")
def cubic_loopoid():
    return loop_as_loopoid(cubic_line_chart())


def test_tangent_product_cubic_line_closed_form(cubic_loopoid, rng):
    tq = tangent_loopoid(cubic_loopoid)
    for _ in range(30):
        x, y = rng.normal(scale=0.5, size=2)
        vx, vy = rng.normal(size=2)
        product, vector = tq.mul(np.array([x, vx]), np.array([y, vy]))
        assert abs(product - (x + y + x * x * y)) < 1e-12
        assert abs(vector - (vx * (1 + 2 * x * y) + vy * (1 + x * x))) < 1e-8


def test_tangent_units_act_trivially(rng):
    tq = tangent_loopoid(product_loopoid(planar_feedback_chart(), 2))
    _, y = sample_composable_pairs(tq, rng, 1)[0]
    assert np.allclose(tq.mul(tq.unit_embed(tq.alpha(y)), y), y, atol=1e-10)


def test_tangent_product_componentwise_on_product_instance(rng):
    loop = planar_feedback_chart()
    tq = tangent_loopoid(product_loopoid(loop, 2))
    tql = tangent_loopoid(loop_as_loopoid(loop))
    for x, y in sample_composable_pairs(tq, rng, 10):
        (g, vg), (h, vh), vector = np.split(x, 2), np.split(y, 2), tq.mul(x, y)[6:]
        loop_part = np.split(tql.mul(np.concatenate([g[:2], vg[:2]]), np.concatenate([h[:2], vh[:2]])), 2)[1]
        assert np.allclose(vector[:2], loop_part, atol=1e-6)
        assert np.allclose(vector[2:4], vg[2:4], atol=1e-8)
        assert np.allclose(vector[4:6], vh[4:6], atol=1e-8)


def test_tangent_rejects_bad_pairs(rng):
    # a base gap and a base-velocity mismatch are both composability gaps of TG
    tq = tangent_loopoid(product_loopoid(planar_feedback_chart(), 2))
    x, y = sample_composable_pairs(tq, rng, 1)[0]
    assert composable(tq, x, y)
    base_gap, velocity_gap = y.copy(), y.copy()
    base_gap[2:4] += 0.5  # alpha(h) is h's middle leg
    velocity_gap[8:10] += 5.0  # T alpha(v_h) is v_h's middle leg
    assert not composable(tq, x, base_gap)
    assert not composable(tq, x, velocity_gap)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tangent_of_the_pair_groupoid_is_the_pair_groupoid_of_tm(n):
    # T pair(n) is pair(2n) on TM in the coordinate order (s, t, v_s, v_t)
    # against ((s, v_s), (t, v_t)): exact in the points, and in the
    # velocities up to the one rounding of (h v) / h at the complex step h
    tq, big = tangent_loopoid(pair_groupoid(n)), pair_groupoid(2 * n)
    perm = np.concatenate([np.arange(n), np.arange(2 * n, 3 * n), np.arange(n, 2 * n), np.arange(3 * n, 4 * n)])
    back = np.argsort(perm)
    pairs = sample_composable_pairs(big, np.random.default_rng(n), 5)
    xs, ys = pairs[:, 0][:, back], pairs[:, 1][:, back]
    us = np.random.default_rng(10 + n).normal(size=(5, 2 * n))
    for got, want in (
        (tq.mul(xs, ys), big.mul(*pairs.swapaxes(0, 1))[:, back]),
        (tq.inverse(xs), big.inverse(pairs[:, 0])[:, back]),
        (tq.unit_embed(us), big.unit_embed(us)[:, back]),
        (tq.alpha(xs), big.alpha(pairs[:, 0])),
        (tq.beta(xs), big.beta(pairs[:, 0])),
    ):
        half = got.shape[1] // 2
        assert np.array_equal(got[:, :half], want[:, :half])
        assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
    assert all(composable(tq, x, y) for x, y in zip(xs, ys))


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
    tq = tangent_loopoid(q)
    worst = 0.0
    for x, y in sample_composable_pairs(tq, rng, 10):
        (g, vg), (h, vh) = np.split(x, 2), np.split(y, 2)
        prod = tq.mul(x, y)[6:]

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
    # well-defined covector product to offer, and no cotangent loopoid
    exported = [name.lower() for name in dir(tangent_module) if not name.startswith("_")]
    assert "tangent_loopoid" in exported
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
    # the audit's pairs come from TG's one fiber projection, so each Y's
    # base point and base velocity equal X's to rounding, also over a point
    # (dim_m = 0)
    q = build_spec(example(name))
    drawn = []
    sample = tangent_module.sample_composable_pairs
    monkeypatch.setattr(tangent_module, "sample_composable_pairs", lambda *a: drawn.append(sample(*a)) or drawn[-1])
    check_tangent_loopoid(q, n_samples=6, seed=2)
    tq = tangent_loopoid(q)
    xs, ys = drawn[0][:, 0], drawn[0][:, 1]
    scale = np.maximum(1.0, np.linalg.norm(np.concatenate([xs, ys], axis=-1), axis=-1))
    assert np.all(np.linalg.norm(tq.alpha(ys) - tq.beta(xs), axis=-1) <= 1e-12 * scale)


def test_tangent_product_solves_nothing(rng, monkeypatch):
    tq = tangent_loopoid(product_loopoid(planar_feedback_chart(), 2))
    x, y = sample_composable_pairs(tq, rng, 1)[0]
    solves = count_calls(monkeypatch, loopoids_module, "newton_solve")
    assert np.all(np.isfinite(tq.mul(x, y)))
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

