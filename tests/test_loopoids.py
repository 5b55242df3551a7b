import dataclasses

import numpy as np
import pytest

import loopoid_lab.loopoids as loopoids_module
from conftest import build_spec, example, planar_feedback_chart
from loopoid_lab.algebroid import algebroid_frame
from loopoid_lab.errors import NotMonotone, NotOdd
from loopoid_lab.loopoids import (
    ChartedQuasiloopoid,
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
)
from loopoid_lab.loops import SmoothLoopChart, octonion_chart
from loopoid_lab.newton import newton_solve
from loopoid_lab.numdiff import complex_jacobian, complex_step, null_space, smallest_singular_value

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
    h = build_local_section(q, "alpha", h0)(q.beta(g))
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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_groupoid_maps_are_the_written_out_formulas(n, rng):
    # (u, v)(v, w) = (u, w), iota(u, v) = (v, u) and eps(u) = (u, u)
    p = pair_groupoid(n)
    u, v, w = rng.normal(size=(3, 5, n))
    uv, vw = np.concatenate([u, v], axis=-1), np.concatenate([v, w], axis=-1)
    assert (p.dim_g, p.dim_m, p.name) == (2 * n, n, f"pair_groupoid({n})")
    assert np.array_equal(p.alpha(uv), u) and np.array_equal(p.beta(uv), v)
    assert np.array_equal(p.mul(uv, vw), np.concatenate([u, w], axis=-1))
    assert np.array_equal(p.inverse(uv), np.concatenate([v, u], axis=-1))
    assert np.array_equal(p.unit_embed(u), np.concatenate([u, u], axis=-1))
    assert p.claims_loopoid and p.claims_ip


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_groupoid_samples_are_one_normal_draw(n):
    # the one-point loop factor draws a (k, 0) stack, which leaves the
    # generator as it was
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    assert np.array_equal(pair_groupoid(n).sample_g(rng, 7), ref.normal(scale=0.4, size=(7, 2 * n)))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("name", ["planar_loop", "octonion_loop", "bracket3_loop"])
def test_loop_as_loopoid_multiplies_as_its_loop(name, rng):
    loop = build_spec(example(name))
    q = loop_as_loopoid(loop)
    x, y = rng.normal(scale=0.3, size=(2, 5, loop.dim))
    assert np.array_equal(q.mul(x, y), loop.mul(x, y))
    if loop.inverse is not None:
        assert np.array_equal(q.inverse(x), loop.inverse(x))
    assert np.array_equal(q.unit_embed(np.zeros((5, 0))), np.broadcast_to(loop.unit, (5, loop.dim)))
    # over a point ker T alpha is everything: the preferred basis is the
    # identity, which is also the null space of the empty alpha Jacobian
    fr = algebroid_frame(q, np.zeros(0))
    assert np.array_equal(fr.alpha_vertical, np.eye(loop.dim))
    assert np.array_equal(null_space(np.zeros((0, loop.dim))), np.eye(loop.dim))


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


def ragged_beta_quasiloopoid():
    """A chart whose beta has an analytic component 1e-9 g1 exp(4 g2): its
    Jacobian crosses the null-space rank cut inside the sampled region, so
    the beta-fibers are lines on some samples and planes on others."""

    def beta(g):
        return np.stack([g[..., 0], 1e-9 * g[..., 1] * np.exp(4 * g[..., 2])], axis=-1)

    return ChartedQuasiloopoid(
        dim_g=3,
        dim_m=2,
        alpha=lambda g: g[..., :2],
        beta=beta,
        unit_embed=lambda u: np.concatenate([u, np.zeros_like(u[..., :1])], axis=-1),
        mul=lambda g, h: np.concatenate([g[..., :2], h[..., 2:]], axis=-1),
        sampler=lambda rng, k: rng.normal(scale=0.6, size=(k, 3)),
        name="ragged_beta",
    )


def test_axioms_with_fiber_dimension_varying_between_samples():
    q = ragged_beta_quasiloopoid()
    n, seed = 12, 0
    rep = check_axioms(q, n_samples=n, seed=seed)

    # per-sample oracle: right translation by h on the beta-fiber of g,
    # one sample at a time, drawn as the audit draws them
    rng = np.random.default_rng(seed)
    q.sample_m(rng, n)
    dims, svs, resids = set(), [], []
    for g, h in sample_composable_pairs(q, rng, n):
        fib = null_space(complex_jacobian(q.beta, g))
        dims.add(fib.shape[0])
        img = complex_step(lambda p: q.mul(p, np.repeat(h[None], len(p), axis=0)), g, fib).T
        target = null_space(complex_jacobian(q.beta, q.mul(g, h)))
        coeff, *_ = np.linalg.lstsq(target.T, img, rcond=None)
        svs.append(smallest_singular_value(coeff))
        resids.append(float(np.max(np.abs(target.T @ coeff - img))))
    assert dims == {1, 2}
    assert rep.right_translation_min_sv == min(svs)
    assert rep.translation_fiber_residual == max(resids)  # the alpha side is exact
    assert not rep.translations_ok



@pytest.mark.parametrize(
    "q", [product_loopoid(planar_feedback_chart(), 2), ragged_beta_quasiloopoid()], ids=["product_h", "ragged_beta"]
)
def test_axioms_take_fiber_algebra_on_stacks(q, monkeypatch):
    # one null_space call on each fiber stack (T alpha at h and gh, T beta at
    # g and gh) and one smallest_singular_value call on each submersion stack
    # (T alpha and T beta at g); only the coefficient matrices of the
    # translations, one per sample, take theirs alone
    n = 7
    shapes = {"null_space": [], "smallest_singular_value": []}
    for name, seen in shapes.items():
        fn = getattr(loopoids_module, name)
        monkeypatch.setattr(loopoids_module, name, lambda m, fn=fn, seen=seen: seen.append(np.shape(m)) or fn(m))
    check_axioms(q, n_samples=n, seed=3)
    assert shapes["null_space"] == [(n, q.dim_m, q.dim_g)] * 4
    svs = shapes["smallest_singular_value"]
    assert svs[:2] == [(n, q.dim_m, q.dim_g)] * 2
    assert len(svs) > 2 and all(len(shape) == 2 for shape in svs[2:])


def sheared_pair1():
    """pair(1) with alpha(s, t) = s (1 + 0.3 (s - t)), still the identity on
    units; the section seed h + eps(q') - eps(alpha(h)) keeps s - t, so it
    lies on the alpha-fiber over q' only where s = t."""
    alpha = lambda g: g[..., :1] * (1.0 + 0.3 * (g[..., :1] - g[..., 1:]))
    return dataclasses.replace(pair_groupoid(1), alpha=alpha, inverse=None, preferred_alpha_vertical=None)


def test_composable_samples_on_a_nonlinear_alpha(monkeypatch):
    # the seed is off the fiber, so each section solve steps onto it
    q = sheared_pair1()
    iterations = []

    def recorded(*args, **kwargs):
        x, info = newton_solve(*args, **kwargs)
        iterations.append(info["iterations"])
        return x, info

    monkeypatch.setattr(loopoids_module, "newton_solve", recorded)
    pairs = sample_composable_pairs(q, np.random.default_rng(4), 8)
    assert len(iterations) == 8 and min(iterations) >= 1
    assert all(composable(q, g, h) for g, h in pairs)


def test_axioms_mul_calls_do_not_grow_with_samples():
    q = product_loopoid(planar_feedback_chart(), 2)
    counts = []
    for n in (5, 40):
        calls = []

        def counting_mul(g, h):
            calls.append(len(g))
            return q.mul(g, h)

        check_axioms(dataclasses.replace(q, mul=counting_mul), n_samples=n, seed=3)
        counts.append(len(calls))
    assert counts[0] == counts[1]
