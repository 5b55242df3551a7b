import numpy as np
import pytest

from conftest import planar_feedback_chart
from loopoid_lab.errors import NotMonotone, NotOdd
from loopoid_lab.loopoids import (
    SplitFibration,
    build_local_section,
    check_axioms,
    composable,
    loop_as_loopoid,
    pair_groupoid,
    phi_quasiloopoid,
    product_loopoid,
    prolongation_loopoid,
    sample_composable_pairs,
    snap_to_alpha_fiber,
)
from loopoid_lab.loops import SmoothLoopChart, octonion_chart
from loopoid_lab.newton import newton_solve

PHI = lambda x: x**3 + x


def _phi_embed(g):
    """Chart point (a1, b1, b2) -> constrained pair ((a1,b1),(a2,b2))."""
    return np.array([g[0], g[1], g[0] - PHI(g[1] - g[2]), g[2]])


def test_composable_product_loopoid(rng):
    q = product_loopoid(planar_feedback_chart(), 2)
    x = rng.normal(size=2)
    y = rng.normal(size=2)
    s, t, r = rng.normal(size=(3, 2))
    assert composable(q, np.concatenate([x, s, t]), np.concatenate([y, t, r]))
    assert not composable(q, np.concatenate([x, s, t]), np.concatenate([y, t + 0.5, r]))
    g = np.concatenate([x, s, t])
    assert composable(q, g, q.unit_embed(q.beta(g)))


def test_multiply_unit_laws(rng):
    q = product_loopoid(planar_feedback_chart(), 2)
    g = q.sample_g(rng, 1)[0]
    assert np.allclose(q.mul(q.unit_embed(q.alpha(g)), g), g, atol=1e-12)
    assert np.allclose(q.mul(g, q.unit_embed(q.beta(g))), g, atol=1e-12)


def test_product_loopoid_multiplication_componentwise(rng):
    loop = octonion_chart()
    q = product_loopoid(loop, 1)
    g = q.sample_g(rng, 1)[0]
    h0 = q.sample_g(rng, 1)[0]
    h = snap_to_alpha_fiber(q, h0, q.beta(g))
    prod = q.mul(g, h)
    assert np.allclose(prod[:8], loop.mul(g[:8], h[:8]), atol=1e-12)
    assert prod[8] == g[8] and prod[9] == h[9]


def test_phi_multiplication_matches_embedded_formula(rng):
    q = phi_quasiloopoid(PHI, "cubic")
    for g, h in sample_composable_pairs(q, rng, 10):
        prod = q.mul(g, h)
        a1, b1 = _phi_embed(g)[:2]
        b3 = _phi_embed(h)[3]
        expected = np.array([a1, b1, a1 + PHI(b3 - b1), b3])
        assert np.allclose(_phi_embed(prod), expected, atol=1e-12)


def test_axioms_product_loopoid():
    q = product_loopoid(planar_feedback_chart(), 2)
    rep = check_axioms(q, n_samples=15, seed=3)
    assert rep.is_loopoid
    assert rep.alpha_anchor_residual < 1e-8 and rep.beta_anchor_residual < 1e-8
    assert rep.unities_associativity_residual < 1e-8
    assert rep.unities_definedness_mismatches == 0
    assert rep.global_injectivity == "not checked"


def test_axioms_pair_groupoid_exact():
    rep = check_axioms(pair_groupoid(2), n_samples=15, seed=1, tol=1e-12)
    assert rep.is_loopoid and rep.is_ip
    assert rep.unities_associativity_residual < 1e-12


def test_axioms_phi_quasiloopoid_detects_beta_failure():
    q = phi_quasiloopoid(PHI, "cubic")
    rep = check_axioms(q, n_samples=15, seed=5)
    assert not rep.is_loopoid
    assert rep.beta_anchor_residual > 1e-3
    assert rep.alpha_anchor_residual < 1e-10
    assert rep.left_ip_residual < 1e-8
    assert rep.right_ip_residual > 1e-3
    # the unities-associativity failure shows as definedness mismatches
    assert rep.unities_definedness_mismatches > 0


def test_phi_identity_map_behaves_like_sub_pair_groupoid():
    rep = check_axioms(phi_quasiloopoid(lambda x: x, "id"), n_samples=12, seed=2)
    assert rep.is_loopoid
    assert rep.beta_anchor_residual < 1e-9


def test_phi_left_inverse_identity(rng):
    q = phi_quasiloopoid(PHI, "cubic")
    for g, h in sample_composable_pairs(q, rng, 8):
        gi = q.inverse(g)
        assert np.linalg.norm(q.mul(gi, q.mul(g, h)) - h) < 1e-9


def test_phi_rejects_bad_shapes():
    with pytest.raises(NotOdd):
        phi_quasiloopoid(lambda x: x * x, "square")
    with pytest.raises(NotMonotone):
        phi_quasiloopoid(lambda x: x**3, "flat_cubic")  # slope vanishes at 0


def test_product_over_octonions_has_inverse_property():
    q = product_loopoid(octonion_chart(), 1)
    rep = check_axioms(q, n_samples=8, seed=4)
    assert rep.is_loopoid and rep.is_ip
    assert rep.ip_identity_residual < 1e-8


def test_product_with_zero_dim_loop_is_pair_groupoid(rng):
    trivial = SmoothLoopChart(dim=0, mul=lambda x, y: np.zeros(np.shape(x)[:-1] + (0,)))
    q = product_loopoid(trivial, 2)
    p = pair_groupoid(2)
    g = rng.normal(size=4)
    h = np.concatenate([g[2:], rng.normal(size=2)])
    assert np.allclose(q.mul(g, h), p.mul(g, h))
    assert check_axioms(q, n_samples=8, seed=0).is_loopoid


def test_prolongation_identity_fibration_is_isomorphic():
    q = product_loopoid(planar_feedback_chart(), 2)
    qi = prolongation_loopoid(q, SplitFibration(2, 2))
    assert qi.dim_g == q.dim_g and qi.dim_m == q.dim_m
    assert check_axioms(qi, n_samples=8, seed=1).is_loopoid


def test_prolongation_of_loopoid_is_loopoid_with_inverse():
    q = product_loopoid(octonion_chart(), 1)
    pro = prolongation_loopoid(q, SplitFibration(2, 1))
    rep = check_axioms(pro, n_samples=6, seed=2)
    assert rep.is_loopoid
    assert rep.is_ip
    assert rep.left_ip_residual < 1e-8 and rep.right_ip_residual < 1e-8


def test_prolongation_of_phi_quasiloopoid_stays_quasiloopoid():
    # the beta-anchor defect of the base survives prolongation: the result
    # is a quasiloopoid with units and submersions but not a loopoid
    q = phi_quasiloopoid(PHI, "cubic")
    pro = prolongation_loopoid(q, SplitFibration(3, 2))
    rep = check_axioms(pro, n_samples=10, seed=3)
    assert rep.submersions_ok
    assert rep.left_unit_residual < 1e-8 and rep.right_unit_residual < 1e-8
    assert not rep.is_loopoid
    assert rep.beta_anchor_residual > 1e-3


def test_build_local_section_product(rng):
    q = product_loopoid(planar_feedback_chart(), 2)
    g = q.sample_g(rng, 1)[0]
    sec = build_local_section(q, "beta", g)
    q0 = np.asarray(q.beta(g))
    assert np.allclose(sec(q0), g, atol=1e-10)
    for dq in rng.normal(scale=0.15, size=(6, 2)):
        s = sec(q0 + dq)
        assert np.linalg.norm(q.beta(s) - (q0 + dq)) < 1e-9
    # the constant-loop-part map is itself a valid beta-section through g
    manual = lambda qp: np.concatenate([g[:2], g[2:4], qp])
    assert np.allclose(q.beta(manual(q0 + 0.1)), q0 + 0.1)
    assert np.allclose(manual(q0), g)


def test_section_through_unit_point(rng):
    q = product_loopoid(planar_feedback_chart(), 2)
    u = rng.normal(size=2)
    sec = build_local_section(q, "alpha", q.unit_embed(u))
    for dq in rng.normal(scale=0.1, size=(4, 2)):
        s = sec(u + dq)
        assert np.linalg.norm(q.alpha(s) - (u + dq)) < 1e-9
    # the unit embedding solves the same section problem
    assert np.allclose(q.alpha(q.unit_embed(u + 0.05)), u + 0.05)


def test_local_bisection_bundle(rng):
    q = product_loopoid(planar_feedback_chart(), 2)
    g = q.sample_g(rng, 1)[0]
    # an alpha-section tau and a beta-section sigma through the same point
    tau = build_local_section(q, "alpha", g)
    sigma = build_local_section(q, "beta", g)
    qa = np.asarray(q.alpha(g))
    qb = np.asarray(q.beta(g))
    assert np.allclose(tau(qa), g, atol=1e-9)
    assert np.allclose(sigma(qb), g, atol=1e-9)
    # independent alpha and beta offsets on the 0.2 ball
    for da, db in rng.uniform(-0.2, 0.2, size=(12, 2, 2)):
        assert np.linalg.norm(q.alpha(tau(qa + da)) - (qa + da)) < 1e-8
        assert np.linalg.norm(q.beta(sigma(qb + db)) - (qb + db)) < 1e-8


def test_phi_alpha_section(rng):
    q = phi_quasiloopoid(PHI, "cubic")
    g = q.sample_g(rng, 1)[0]
    sec = build_local_section(q, "alpha", g)
    q0 = np.asarray(q.alpha(g))
    for dq in rng.normal(scale=0.1, size=(5, 2)):
        assert np.linalg.norm(q.alpha(sec(q0 + dq)) - (q0 + dq)) < 1e-9


def isotropy(q, u, n, rng):
    """n points of the double fiber alpha = beta = u, by Newton from seeds
    near the unit, and the largest distance of their products and inverses
    from that fiber."""
    fiber = lambda p: np.concatenate([q.alpha(p) - u, q.beta(p) - u], axis=-1)
    e0 = q.unit_embed(u)
    seeds = [e0 + rng.normal(scale=0.2, size=q.dim_g) for _ in range(n)]
    pts = [newton_solve(fiber, seed, tol=1e-11, max_iter=60)[0] for seed in seeds]
    closure = max(np.linalg.norm(fiber(q.mul(a, b))) for a in pts for b in pts)
    closure = max([closure] + [np.linalg.norm(fiber(q.inverse(a))) for a in pts])
    return np.array(pts), closure


def test_isotropy_product_loopoid(rng):
    q = product_loopoid(octonion_chart(), 1)
    points, closure = isotropy(q, np.array([0.4]), 6, rng)
    assert closure < 1e-8
    # isotropy points carry arbitrary loop parts over the fixed pair leg
    for p in points:
        assert abs(p[8] - 0.4) < 1e-9 and abs(p[9] - 0.4) < 1e-9


def test_isotropy_pair_groupoid_trivial(rng):
    p = pair_groupoid(2)
    u = np.array([0.3, -0.7])
    points, _ = isotropy(p, u, 4, rng)
    assert np.abs(points - p.unit_embed(u)[None, :]).max() < 1e-6


def test_isotropy_prolongation(rng):
    q = prolongation_loopoid(product_loopoid(octonion_chart(), 1), SplitFibration(2, 1))
    _, closure = isotropy(q, np.array([0.2, 0.5]), 4, rng)
    assert closure < 1e-8


def test_loop_as_loopoid_over_point(rng):
    q = loop_as_loopoid(octonion_chart())
    assert q.dim_m == 0 and q.rank == 8
    rep = check_axioms(q, n_samples=6, seed=7)
    assert rep.is_loopoid and rep.is_ip
