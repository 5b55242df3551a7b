import dataclasses

import numpy as np
import pytest

from conftest import cross_product_constants, planar_feedback_chart
from loopoid_lab.algebroid import (
    ALIGNED,
    STRICT,
    SkewAlgebroidChart,
    algebroid_bracket,
    algebroid_frame,
    check_almost_lie_chart,
    check_almost_lie_loopoid,
    constant_chart,
    leibniz_bracket,
    make_frame_field,
    prolong,
    prolong_algebroid,
    tangent_chart,
)
from loopoid_lab.errors import NotOnFiber, RankDeficient
from loopoid_lab.loopoids import (
    ChartedQuasiloopoid,
    SplitFibration,
    loop_as_loopoid,
    pair_groupoid,
    phi_quasiloopoid,
    product_loopoid,
)
from loopoid_lab.loops import bracket_loop, extract_structure_constants, octonion_chart
from loopoid_lab.numdiff import CHART_STEP, OUTER_STEP, directional, gradient, jacobian, lie_bracket
from loopoid_lab.octonion import MUL_INDEX, MUL_SIGN

PHI = lambda x: x**3 + x


def octonion_commutator_constants():
    """[e_i, e_j] = e_i e_j - e_j e_i on the imaginary units (rank 7)."""
    c = np.zeros((7, 7, 7))
    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                continue
            k = MUL_INDEX[i, j]
            c[k - 1, i - 1, j - 1] = 2.0 * MUL_SIGN[i, j]
    return c


@pytest.fixture(scope="module")
def product_h():
    return product_loopoid(planar_feedback_chart(), 2)


@pytest.fixture(scope="module")
def product_oct():
    return product_loopoid(octonion_chart(), 1)


# ---------------------------------------------------------------------------
# frames
# ---------------------------------------------------------------------------


def test_frame_product_h(product_h):
    fr = algebroid_frame(product_h, np.array([0.3, -0.2]))
    assert np.allclose(fr.alpha_vertical[:2, :2], np.eye(2), atol=1e-9)
    assert np.allclose(fr.alpha_vertical[2:, 4:], np.eye(2), atol=1e-9)
    assert np.allclose(fr.beta_vertical[:2, :2], np.eye(2), atol=1e-7)
    assert np.allclose(fr.beta_vertical[2:, 2:4], -np.eye(2), atol=1e-7)
    assert np.allclose(fr.beta_vertical_aligned[2:, 2:4], np.eye(2), atol=1e-7)
    # same normal class: difference lies in the embedded tangent directions
    for i in range(4):
        diff = fr.alpha_vertical[i] - fr.beta_vertical[i]
        coeff, res, *_ = np.linalg.lstsq(fr.tm_basis.T, diff, rcond=None)
        assert np.linalg.norm(fr.tm_basis.T @ coeff - diff) < 1e-7


def test_frame_smooth_loop_full_tangent():
    fr = algebroid_frame(loop_as_loopoid(octonion_chart()), np.zeros(0))
    assert fr.rank == 8
    assert fr.tm_basis.shape == (0, 8)
    assert np.allclose(fr.alpha_vertical, fr.beta_vertical)


def test_frame_pair_groupoid():
    fr = algebroid_frame(pair_groupoid(1), np.array([0.5]))
    assert np.allclose(fr.alpha_vertical, [[0.0, 1.0]], atol=1e-9)
    assert np.allclose(fr.beta_vertical, [[-1.0, 0.0]], atol=1e-8)
    assert np.allclose(fr.beta_vertical_aligned, [[1.0, 0.0]], atol=1e-8)
    diff = fr.alpha_vertical[0] - fr.beta_vertical[0]
    assert np.allclose(diff, fr.tm_basis[0], atol=1e-8)  # (1, 1) spans TM


def test_frame_rejects_bad_basis(product_h):
    # a preferred basis of the wrong shape, and one that leaves ker T alpha
    for basis in (np.eye(6)[:3], np.eye(6)[:4]):
        bad = dataclasses.replace(product_h, preferred_alpha_vertical=lambda u, b=basis: b)
        with pytest.raises(RankDeficient):
            algebroid_frame(bad, np.zeros(2))


# ---------------------------------------------------------------------------
# prolongations
# ---------------------------------------------------------------------------


def test_prolong_product_h_fields(product_h, rng):
    ff = make_frame_field(product_h)
    for _ in range(10):
        g = product_h.sample_g(rng, 1)[0]
        x1, x2 = g[0], g[1]
        assert np.allclose(prolong(product_h, ff, [1, 0, 0, 0], "left", g), [1, x2, 0, 0, 0, 0], atol=1e-7)
        assert np.allclose(prolong(product_h, ff, [0, 1, 0, 0], "left", g), [x1, 1, 0, 0, 0, 0], atol=1e-7)
        assert np.allclose(prolong(product_h, ff, [0, 0, 1, 0], "left", g), [0, 0, 0, 0, 1, 0], atol=1e-9)
        assert np.allclose(prolong(product_h, ff, [1, 0, 0, 0], "right", g), [1 + x2, 0, 0, 0, 0, 0], atol=1e-7)
        assert np.allclose(prolong(product_h, ff, [0, 1, 0, 0], "right", g), [0, 1 + x1, 0, 0, 0, 0], atol=1e-7)
        assert np.allclose(prolong(product_h, ff, [0, 0, 1, 0], "right", g, STRICT), [0, 0, -1, 0, 0, 0], atol=1e-7)
        assert np.allclose(prolong(product_h, ff, [0, 0, 1, 0], "right", g, ALIGNED), [0, 0, 1, 0, 0, 0], atol=1e-7)


def test_prolong_at_unit_recovers_representative(product_h):
    ff = make_frame_field(product_h)
    u = np.array([0.1, 0.4])
    fr = ff(u)
    e = product_h.unit_embed(u)
    for i in range(4):
        got = prolong(product_h, ff, np.eye(4)[i], "left", e)
        assert np.allclose(got, fr.alpha_vertical[i], atol=1e-9)


def test_prolong_bracket_loop_formula(rng):
    C = cross_product_constants()
    q = loop_as_loopoid(bracket_loop(3, C))
    ff = make_frame_field(q)
    x = rng.normal(scale=0.4, size=3)
    for i in range(3):
        left = prolong(q, ff, np.eye(3)[i], "left", x)
        right = prolong(q, ff, np.eye(3)[i], "right", x)
        correction = 0.5 * np.einsum("kj,j->k", C[:, i, :], x)
        assert np.allclose(left, np.eye(3)[i] - correction, atol=1e-7)
        assert np.allclose(right, np.eye(3)[i] + correction, atol=1e-7)


def test_prolong_slab_guard():
    # alpha curved hard enough that a vertical step drifts out of the slab
    scale = 1e7

    def alpha(g):
        return np.array([g[0] + scale * g[1] ** 2])

    q = ChartedQuasiloopoid(
        dim_g=2,
        dim_m=1,
        alpha=alpha,
        beta=lambda g: np.array([g[0]]),
        unit_embed=lambda u: np.array([u[0], 0.0]),
        mul=lambda g, h: np.array([g[0] + h[0], g[1] + h[1]]),
        sampler=lambda rng, k: rng.normal(size=(k, 2)),
        name="curved",
    )
    ff = make_frame_field(q)
    with pytest.raises(NotOnFiber):
        prolong(q, ff, [1.0], "left", np.array([0.2, 0.0]))


def test_prolong_slab_guard_checks_the_stencil_points():
    # the stencil steps by CHART_STEP * max(1, |base|) = 2e-4 at the base
    # (20, 0), where alpha leaves the slab by 1e3 * (2e-4)^2 = 4e-5; a probe
    # one CHART_STEP out would leave it by only 1e-7
    scale = 1e3
    q = ChartedQuasiloopoid(
        dim_g=2,
        dim_m=1,
        alpha=lambda g: g[..., :1] + scale * g[..., 1:] ** 2,
        beta=lambda g: g[..., :1],
        unit_embed=lambda u: np.array([u[0], 0.0]),
        mul=lambda g, h: g + h,
        sampler=lambda rng, k: rng.normal(size=(k, 2)),
        name="curved",
    )
    ff = make_frame_field(q)
    with pytest.raises(NotOnFiber, match="4.00e-05"):
        prolong(q, ff, [1.0], "left", np.array([20.0, 0.0]))


# ---------------------------------------------------------------------------
# brackets and anchors
# ---------------------------------------------------------------------------


def test_bracket_product_h(product_h):
    ff = make_frame_field(product_h)
    u = np.array([0.2, -0.4])
    bl, tm = algebroid_bracket(product_h, "left", [1, 0, 0, 0], [0, 1, 0, 0], u, ff, return_tm=True)
    br = algebroid_bracket(product_h, "right", [1, 0, 0, 0], [0, 1, 0, 0], u, ff)
    assert np.allclose(bl, [1, -1, 0, 0], atol=1e-6)
    assert np.allclose(br, [-1, 1, 0, 0], atol=1e-6)
    assert np.max(np.abs(tm)) < 1e-6
    for i, j in [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        assert np.max(np.abs(algebroid_bracket(product_h, "left", np.eye(4)[i], np.eye(4)[j], u, ff))) < 1e-6


def test_bracket_antisymmetric_diagonal(product_h, rng):
    ff = make_frame_field(product_h)
    u = rng.normal(size=2)
    x = rng.normal(size=4)
    assert np.max(np.abs(algebroid_bracket(product_h, "left", x, x, u, ff))) < 1e-6


def test_bracket_product_componentwise_oracle(rng):
    # over a product instance the loop block carries the extracted skew
    # algebra and the pair block brackets vanish
    C = cross_product_constants()
    loop = bracket_loop(3, C)
    q = product_loopoid(loop, 1)
    _, skew = extract_structure_constants(loop)
    ff = make_frame_field(q)
    u = np.array([0.3])
    for i in range(3):
        for j in range(3):
            got = algebroid_bracket(q, "left", np.eye(4)[i], np.eye(4)[j], u, ff)
            assert np.allclose(got[:3], skew.constants[:, i, j], atol=1e-5)
            assert abs(got[3]) < 1e-6
    assert np.max(np.abs(algebroid_bracket(q, "left", np.eye(4)[0], np.eye(4)[3], u, ff))) < 1e-6


def test_loop_bracket_matches_structure_constants(rng):
    loop = planar_feedback_chart()
    q = loop_as_loopoid(loop)
    _, skew = extract_structure_constants(loop)
    ff = make_frame_field(q)
    for i in range(2):
        for j in range(2):
            got = algebroid_bracket(q, "left", np.eye(2)[i], np.eye(2)[j], np.zeros(0), ff)
            assert np.allclose(got, skew.constants[:, i, j], atol=1e-5)


def test_left_and_right_fields_commute_at_loop_unit():
    loop = planar_feedback_chart()
    q = loop_as_loopoid(loop)
    ff = make_frame_field(q)
    from loopoid_lab.algebroid import fundamental_field

    fx = fundamental_field(q, ff, [1.0, 0.0], "left")
    fy = fundamental_field(q, ff, [0.0, 1.0], "right")
    assert np.max(np.abs(lie_bracket(fx, fy, loop.unit, 1e-4))) < 1e-6


def test_anchor_values(product_h):
    # left anchors T beta(X^alpha) and right anchors T alpha(X^beta) are opposite
    u = np.array([0.1, 0.2])
    fr = algebroid_frame(product_h, u)
    rho_right = fr.beta_vertical @ jacobian(product_h.alpha, product_h.unit_embed(u), CHART_STEP).T
    assert np.allclose(fr.rho_left[2], [1, 0], atol=1e-8)
    assert np.allclose(rho_right[2], [-1, 0], atol=1e-8)
    assert np.allclose(fr.rho_left[0], [0, 0], atol=1e-8)
    assert np.linalg.norm(rho_right + fr.rho_left) <= 1e-8 * max(1.0, np.linalg.norm(fr.rho_left))
    q0 = loop_as_loopoid(planar_feedback_chart())
    assert algebroid_frame(q0, np.zeros(0)).rho_left.shape == (2, 0)


def test_anchor_phi():
    fr = algebroid_frame(phi_quasiloopoid(PHI, "cubic"), np.array([0.4, 0.1]))
    # generator anchor: slope-at-zero times d/dx plus d/dy
    assert np.allclose(fr.rho_left, [[1.0, 1.0]], atol=1e-6)


# ---------------------------------------------------------------------------
# inverse-property consequences
# ---------------------------------------------------------------------------


def test_inversion_flips_representatives(product_oct):
    from loopoid_lab.numdiff import CHART_STEP, jacobian

    u = np.array([0.25])
    fr = algebroid_frame(product_oct, u)
    e = product_oct.unit_embed(u)
    ji = jacobian(product_oct.inverse, e, CHART_STEP)
    resid = np.max(np.abs((ji @ fr.alpha_vertical.T).T + fr.beta_vertical))
    assert resid < 1e-7


def test_sign_theorem_on_ip_instances(product_oct):
    ff = make_frame_field(product_oct)
    u = np.array([0.25])
    r = product_oct.rank
    for i, j in [(0, 1), (1, 2), (3, 7), (0, 8), (4, 8), (2, 5)]:
        bl = algebroid_bracket(product_oct, "left", np.eye(r)[i], np.eye(r)[j], u, ff)
        br = algebroid_bracket(product_oct, "right", np.eye(r)[i], np.eye(r)[j], u, ff)
        assert np.max(np.abs(bl + br)) < 1e-6


def test_sign_residual_reported_not_asserted_for_non_ip(product_h):
    # evidence collection only: the instance has no inversion, so the
    # left/right opposition is recorded as data, never asserted
    ff = make_frame_field(product_h)
    u = np.zeros(2)
    bl = algebroid_bracket(product_h, "left", [1, 0, 0, 0], [0, 1, 0, 0], u, ff)
    br = algebroid_bracket(product_h, "right", [1, 0, 0, 0], [0, 1, 0, 0], u, ff)
    residual = float(np.max(np.abs(bl + br)))
    assert np.isfinite(residual)


# ---------------------------------------------------------------------------
# almost-Lie checks
# ---------------------------------------------------------------------------


def test_almost_lie_loopoid_instances(product_h):
    us = np.array([[0.1, 0.2], [-0.3, 0.5]])
    assert check_almost_lie_loopoid(product_h, us) < 1e-6
    pro = prolong_algebroid(
        constant_chart(octonion_commutator_constants(), np.zeros((0, 7))),
        SplitFibration(2, 0),
    )
    assert check_almost_lie_chart(pro, np.array([[0.2, -0.1]])) < 1e-9


def test_almost_lie_chart_good_and_broken():
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0
    c[0, 1, 0] = -1.0  # [e1, e2] = e1
    good = SkewAlgebroidChart(
        base_dim=1, rank=2, c_fn=lambda x: c, rho_fn=lambda x: np.array([[1.0, x[0]]])
    )
    assert check_almost_lie_chart(good, np.array([[0.3], [-0.6]])) < 1e-6
    broken = SkewAlgebroidChart(
        base_dim=1, rank=2, c_fn=lambda x: c, rho_fn=lambda x: np.array([[1.0, 2.0 * x[0]]])
    )
    assert check_almost_lie_chart(broken, np.array([[0.4]])) > 0.1


def test_phi_rank_one_algebroid_is_almost_lie():
    q = phi_quasiloopoid(PHI, "cubic")
    us = np.array([[0.1, -0.2], [0.3, 0.4]])
    assert check_almost_lie_loopoid(q, us) < 1e-6


# ---------------------------------------------------------------------------
# Leibniz-rule charts
# ---------------------------------------------------------------------------


def test_leibniz_constant_sections_contract_structure_functions(rng):
    c = np.zeros((3, 3, 3))
    c[2, 0, 1] = 1.0
    c[2, 1, 0] = -1.0
    chart = constant_chart(c, np.zeros((2, 3)))
    x = rng.normal(size=2)
    got = leibniz_bracket(chart, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), x)
    assert np.allclose(got, [0, 0, 1.0], atol=1e-12)


def test_leibniz_rank_one_rho_derivative():
    chart = SkewAlgebroidChart(
        base_dim=2,
        rank=1,
        c_fn=lambda x: np.zeros((1, 1, 1)),
        rho_fn=lambda x: np.array([[1.0], [1.0]]),
    )
    f = lambda x: np.array([x[0] * x[1]])
    x0 = np.array([0.3, -0.2])
    got = leibniz_bracket(chart, np.array([1.0]), f, x0)
    assert np.allclose(got, [(x0[1] + x0[0])], atol=1e-8)


def test_leibniz_tangent_chart_is_vector_field_bracket(rng):
    chart = tangent_chart(2)
    X = lambda x: np.array([x[0] ** 2, 1.0 + x[1]])
    Y = lambda x: np.array([np.sin(x[1]), x[0]])
    x0 = rng.normal(size=2)
    got = leibniz_bracket(chart, X, Y, x0)
    oracle = lie_bracket(X, Y, x0, 1e-6)
    assert np.allclose(got, oracle, atol=1e-7)


def test_leibniz_rule_reverified(rng):
    c = octonion_commutator_constants()
    chart = SkewAlgebroidChart(
        base_dim=2,
        rank=7,
        c_fn=lambda x: c,
        rho_fn=lambda x: np.vstack([np.eye(2), np.zeros((5, 2))]).T,
    )
    x0 = rng.normal(size=2)
    X = np.eye(7)[0]
    Y = np.eye(7)[3]
    f = lambda x: x[0] ** 2 - 0.5 * x[1]
    fY = lambda x: f(x) * Y
    lhs = leibniz_bracket(chart, X, fY, x0)
    rhs = f(x0) * leibniz_bracket(chart, X, Y, x0)
    rho_x_f = chart.rho(x0) @ X  # base vector of X
    grad_f = np.array([2 * x0[0], -0.5])
    rhs = rhs + float(grad_f @ rho_x_f) * Y
    assert np.max(np.abs(lhs - rhs)) < 1e-6


# ---------------------------------------------------------------------------
# algebroid prolongation
# ---------------------------------------------------------------------------


def test_prolong_algebroid_identity_fibration():
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0
    c[0, 1, 0] = -1.0
    base = SkewAlgebroidChart(
        base_dim=1, rank=2, c_fn=lambda x: c, rho_fn=lambda x: np.array([[1.0, x[0]]])
    )
    out = prolong_algebroid(base, SplitFibration(1, 1))
    x = np.array([0.4])
    assert out.rank == 2 and out.base_dim == 1
    assert np.allclose(out.c(x), base.c(x))
    assert np.allclose(out.rho(x), base.rho(x))


def test_prolong_algebroid_over_point_is_product_with_tangent():
    c = octonion_commutator_constants()
    base = constant_chart(c, np.zeros((0, 7)))
    pi = SplitFibration(3, 0)
    out = prolong_algebroid(base, pi)
    assert out.rank == 7 + 3  # rank(E) + dim(P)
    x = np.array([0.1, 0.2, 0.3])
    assert np.allclose(out.c(x)[:7, :7, :7], c)
    assert np.allclose(out.rho(x)[:, 7:], np.eye(3))
    assert np.allclose(out.rho(x)[:, :7], 0.0)


def test_prolong_algebroid_non_jacobi_input_stays_almost_lie(rng):
    c = octonion_commutator_constants()

    def brk(ch, x, a, b):
        return np.einsum("kij,i,j->k", ch.c(x), a, b)

    base = constant_chart(c, np.zeros((0, 7)))
    e = np.eye(7)
    jacobiator = (
        brk(base, np.zeros(0), brk(base, np.zeros(0), e[0], e[1]), e[3])
        + brk(base, np.zeros(0), brk(base, np.zeros(0), e[1], e[3]), e[0])
        + brk(base, np.zeros(0), brk(base, np.zeros(0), e[3], e[0]), e[1])
    )
    assert np.linalg.norm(jacobiator) > 1.0  # genuinely non-Jacobi input
    out = prolong_algebroid(base, SplitFibration(2, 0))
    assert check_almost_lie_chart(out, rng.normal(size=(3, 2))) < 1e-9
    # non-Jacobi survives prolongation
    E = np.eye(out.rank)
    x = np.array([0.1, -0.2])
    j_out = (
        brk(out, x, brk(out, x, E[0], E[1]), E[3])
        + brk(out, x, brk(out, x, E[1], E[3]), E[0])
        + brk(out, x, brk(out, x, E[3], E[0]), E[1])
    )
    assert np.linalg.norm(j_out) > 1.0


def test_prolongation_pair_is_algebroid_morphism(rng):
    base = SkewAlgebroidChart(
        base_dim=1,
        rank=2,
        c_fn=lambda x: np.zeros((2, 2, 2)),
        rho_fn=lambda x: np.array([[1.0, np.cos(x[0])]]),
    )
    pi = SplitFibration(3, 1)
    out = prolong_algebroid(base, pi)
    # the first-factor projection intertwines the anchors: T pi . rho_P = rho
    for p in rng.normal(size=(4, 3)):
        jpi = jacobian(pi.proj, p)
        resid = jpi @ out.rho(p)[:, : base.rank] - base.rho(pi.proj(p))
        assert np.linalg.norm(resid, axis=0).max() < 1e-9


# ---------------------------------------------------------------------------
# contrast metric
# ---------------------------------------------------------------------------


def contrast_metric(q, f, u):
    """g_ij = X_i(X_j(F)) at the embedded unit of u along the left
    prolongations, symmetrized, and the asymmetry of the unsymmetrized one."""
    ff = make_frame_field(q)
    fr = ff(u)
    r = fr.rank
    e0 = q.unit_embed(u)

    def first_derivative(j):
        def phi(g):
            vj = prolong(q, ff, np.eye(r)[j], "left", g)
            return directional(lambda p: np.atleast_1d(f(p)), g, vj, CHART_STEP)[0]

        return phi

    # differenced at c = 0, where c @ frame is exactly h * frame[i]
    along = lambda phi: lambda c: phi(e0 + c @ fr.alpha_vertical)
    g_mat = np.column_stack([gradient(along(first_derivative(j)), np.zeros(r), OUTER_STEP) for j in range(r)])
    return 0.5 * (g_mat + g_mat.T), float(np.max(np.abs(g_mat - g_mat.T)))


def test_contrast_metric_quadratic_distance_gives_identity():
    q = loop_as_loopoid(bracket_loop(3, cross_product_constants()))
    g, asym = contrast_metric(q, lambda p: 0.5 * float(p @ p), np.zeros(0))
    assert np.allclose(g, np.eye(3), atol=1e-5)
    assert asym < 1e-5


def test_contrast_metric_zero_and_scaling():
    q = loop_as_loopoid(planar_feedback_chart())
    g0, _ = contrast_metric(q, lambda p: 0.0, np.zeros(0))
    assert np.allclose(g0, 0.0)
    f = lambda p: 0.5 * float(p @ p)
    g1, _ = contrast_metric(q, f, np.zeros(0))
    g3, _ = contrast_metric(q, lambda p: 3.0 * f(p), np.zeros(0))
    assert np.allclose(g3, 3.0 * g1, atol=1e-4)


def test_contrast_metric_on_loopoid_distance_from_units(product_h):
    # squared distance to the embedded unit over beta: vanishing first jets
    def f(p):
        u = product_h.unit_embed(product_h.beta(p))
        return 0.5 * float((p - u) @ (p - u))

    g, asym = contrast_metric(product_h, f, np.array([0.2, -0.1]))
    assert asym < 1e-4
    assert np.all(np.linalg.eigvalsh(g) > -1e-6)
