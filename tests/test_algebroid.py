import dataclasses
import re

import numpy as np
import pytest

from conftest import (
    aff1_action_groupoid,
    build_spec,
    cross_product_constants,
    example,
    lie_bracket,
    planar_feedback_chart,
    so3_action_algebroid,
)
from loopoid_lab import algebroid
from loopoid_lab.algebroid import (
    ALIGNED,
    STRICT,
    SkewAlgebroidChart,
    algebroid_frame,
    almost_lie_residual,
    bracket_table,
    constant_chart,
    expand_in_frame,
    lie_chart,
    loop_skew_constants,
    make_frame_field,
    prolong,
    prolong_algebroid,
    tangent_chart,
)
from loopoid_lab.errors import RankDeficient
from loopoid_lab.loopoids import (
    ChartedQuasiloopoid,
    SplitFibration,
    loop_as_loopoid,
    pair_groupoid,
    phi_quasiloopoid,
    product_loopoid,
    prolongation_loopoid,
)
from loopoid_lab.loops import bracket_loop, octonion_chart
from loopoid_lab.numdiff import OUTER_STEP, complex_step, directional, jacobian
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
    assert fr.alpha_vertical.shape == (8, 8)
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
        bad = dataclasses.replace(product_h, preferred_alpha_vertical=basis)
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
        left = prolong(product_h, ff, "left", g)
        right = prolong(product_h, ff, "right", g, STRICT)
        assert left.shape == right.shape == (4, 6)
        assert np.allclose(left[0], [1, x2, 0, 0, 0, 0], atol=1e-7)
        assert np.allclose(left[1], [x1, 1, 0, 0, 0, 0], atol=1e-7)
        assert np.allclose(left[2], [0, 0, 0, 0, 1, 0], atol=1e-9)
        assert np.allclose(right[0], [1 + x2, 0, 0, 0, 0, 0], atol=1e-7)
        assert np.allclose(right[1], [0, 1 + x1, 0, 0, 0, 0], atol=1e-7)
        assert np.allclose(right[2], [0, 0, -1, 0, 0, 0], atol=1e-7)
        assert np.allclose(prolong(product_h, ff, "right", g, ALIGNED)[2], [0, 0, 1, 0, 0, 0], atol=1e-7)


def test_prolong_at_unit_recovers_representative(product_h):
    ff = make_frame_field(product_h)
    u = np.array([0.1, 0.4])
    fr = ff(u)
    e = product_h.unit_embed(u)
    assert np.allclose(prolong(product_h, ff, "left", e), fr.alpha_vertical, atol=1e-9)


def test_prolong_bracket_loop_formula(rng):
    C = cross_product_constants()
    q = loop_as_loopoid(bracket_loop(3, C))
    ff = make_frame_field(q)
    x = rng.normal(scale=0.4, size=3)
    left = prolong(q, ff, "left", x)
    right = prolong(q, ff, "right", x)
    for i in range(3):
        correction = 0.5 * np.einsum("kj,j->k", C[:, i, :], x)
        assert np.allclose(left[i], np.eye(3)[i] - correction, atol=1e-7)
        assert np.allclose(right[i], np.eye(3)[i] + correction, atol=1e-7)


def curved_loopoid():
    # alpha curves out of its slab only at second order: at a unit,
    # T alpha = [1, 2 * 1e7 * g1] = [1, 0]
    return ChartedQuasiloopoid(
        dim_g=2,
        dim_m=1,
        alpha=lambda g: g[..., :1] + 1e7 * g[..., 1:] ** 2,
        beta=lambda g: g[..., :1],
        unit_embed=lambda u: np.concatenate([u, np.zeros_like(u)], axis=-1),
        mul=lambda g, h: g + h,
        sampler=lambda rng, k: rng.normal(size=(k, 2)),
        name="curved",
    )


TILTED = np.array([[1e-3, 1.0]])  # 1e-3 off ker T alpha = ker T beta = span (0, 1)


def tilted_past_10(q):
    """q with the preferred alpha-vertical row (0, 1) and T alpha tilted to
    [1, 1e-3] at the units past 10, so that row leaves ker T alpha there."""
    return dataclasses.replace(
        q, alpha=lambda g: q.alpha(g) + 1e-3 * (g[..., :1] > 10) * g[..., 1:], preferred_alpha_vertical=np.eye(2)[1:]
    )


def test_prolong_slab_guard():
    # a complex step's real part stays at the unit, so a chart curving out
    # of the slab at second order prolongs exactly; a frame row off
    # ker T alpha leaves it at first order, which the frame's check names
    q = curved_loopoid()
    g = np.array([0.2, 0.0])
    assert np.array_equal(prolong(q, make_frame_field(q), "left", g), [[0.0, 1.0]])
    tilted = dataclasses.replace(q, preferred_alpha_vertical=TILTED)
    with pytest.raises(RankDeficient, match="ker T alpha at rate 1.00e-03"):
        prolong(tilted, make_frame_field(tilted), "left", g)


def test_prolong_slab_guard_checks_the_stencil_points():
    # each point of a stack prolongs along its own checked frame, on either
    # side: one unit past 10 at which T alpha is tilted off the alpha row,
    # or at which eps is not a first-order section of beta
    # (T beta . T eps = 1.001), stops it
    q = curved_loopoid()
    tilted = tilted_past_10(q)
    off_section = dataclasses.replace(
        q, beta=lambda g: g[..., :1] * (1.0 + 1e-3 * (g[..., :1] > 10)) + g[..., 1:]
    )
    g = np.array([[0.2, 0.0], [20.0, 0.0], [-3.0, 0.0]])
    for chart, right, message in [
        (tilted, [0.0, 1.0], "ker T alpha at rate 1.00e-03"),
        (off_section, [-1.0, 1.0], "ker T beta at rate 1.00e-03"),
    ]:
        ff = make_frame_field(chart)
        for side, want in [("left", [0.0, 1.0]), ("right", right)]:
            assert np.allclose(prolong(chart, ff, side, g[[0, 2]]), [[want]] * 2, rtol=0, atol=1e-9)
            with pytest.raises(RankDeficient, match=message):
                prolong(chart, ff, side, g)


def test_frame_errors_name_the_first_failing_unit_of_a_stack():
    # T alpha = [2 g0 - 2, 0] loses rank at the unit 1; past 10 T alpha is
    # tilted off the alpha row.  A failed request caches nothing, so it
    # fails again with the same message, and its good units are built afresh.
    q = curved_loopoid()
    singular = dataclasses.replace(q, alpha=lambda g: g[..., :1] * (g[..., :1] - 2.0))
    tilted = tilted_past_10(q)
    for chart, units, message in [
        (singular, [[0.5], [1.0], [3.0], [1.0]], "submersion rank at u = [1.]: sigma_min 0.00e+00"),
        (tilted, [[0.5], [20.0], [30.0]], "ker T alpha at rate 1.00e-03 at u = [20.]"),
    ]:
        rows = []
        counted = dataclasses.replace(chart, alpha=lambda g, f=chart.alpha: rows.append(len(g)) or f(g))
        ff = make_frame_field(counted)
        for _ in range(2):
            with pytest.raises(RankDeficient, match=re.escape(message)):
                ff(np.array(units))
        ff(np.array([0.5]))
        # each of the three distinct units is differenced along both axes
        assert rows == [3 * 2, 3 * 2, 2]


def test_frame_rows_are_exact_far_out_on_phi():
    # the frames' Jacobians are complex steps, so their rows lie in ker T
    # alpha and ker T beta to rounding, also at |u| = 200 where a central
    # difference at 1e-5 relative is off by h^2 = 4e-6 (h = 2e-3)
    q = phi_quasiloopoid(PHI)
    for g in (np.array([200.0, 0.2, 0.1]), np.array([1.5, 0.2, 0.1])):
        for u in (q.alpha(g), q.beta(g)):
            fr = algebroid_frame(q, u)
            e = q.unit_embed(u)
            ja = complex_step(q.alpha, e, np.eye(3)).T
            jb = complex_step(q.beta, e, np.eye(3)).T
            assert np.max(np.abs(ja @ fr.alpha_vertical.T)) <= 1e-12
            assert np.max(np.abs(jb @ fr.beta_vertical.T)) <= 1e-12


def test_prolong_far_out_on_phi_follows_its_frame():
    # at |u| = 200 the exact fundamental fields follow the frame's rows.
    # m(g, h) keeps h's last coordinate and m(h, g) h's first two, so off
    # the unit too each side's field is its frame's row.
    q = phi_quasiloopoid(PHI)
    ff = make_frame_field(q)
    for g in [q.unit_embed(np.array([200.0, 0.2])), np.array([200.0, 0.2, 0.1])]:
        left = ff(q.beta(g)).alpha_vertical[0]
        right = ff(q.alpha(g)).beta_vertical[0]
        assert np.allclose(prolong(q, ff, "left", g), [[0.0, 0.0, left[2]]], rtol=0, atol=1e-12)
        assert np.allclose(prolong(q, ff, "right", g), [[right[0], right[1], 0.0]], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# brackets and anchors
# ---------------------------------------------------------------------------


def pair_bracket(q, side, i, j, u, ff):
    """One-pair oracle of the bracket tables: the Lie bracket of the fields
    of the frame sections ``i`` and ``j`` at the unit of u, each differenced
    by its own Jacobian, expanded in the frame as (side coefficients, TM
    coefficients)."""
    fx = lambda g: prolong(q, ff, side, g)[..., i, :]
    fy = lambda g: prolong(q, ff, side, g)[..., j, :]
    return expand_in_frame(ff(u), side, lie_bracket(fx, fy, q.unit_embed(u)))


def test_bracket_product_h(product_h):
    ff = make_frame_field(product_h)
    u = np.array([0.2, -0.4])
    left = bracket_table(product_h, "left", u, ff)
    right = bracket_table(product_h, "right", u, ff)
    assert np.allclose(left[:, 0, 1], [1, -1, 0, 0], atol=1e-6)
    assert np.allclose(right[:, 0, 1], [-1, 1, 0, 0], atol=1e-6)
    # brackets of vertical fields stay vertical
    _, tm = pair_bracket(product_h, "left", 0, 1, u, ff)
    assert np.max(np.abs(tm)) < 1e-6
    for i, j in [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
        assert np.max(np.abs(left[:, i, j])) < 1e-6


def test_bracket_antisymmetric_diagonal(product_h, rng):
    ff = make_frame_field(product_h)
    u = rng.normal(size=2)
    x = rng.normal(size=4)
    table = bracket_table(product_h, "left", u, ff)
    assert np.max(np.abs(np.einsum("kij,i,j->k", table, x, x))) < 1e-6


def test_bracket_product_componentwise_oracle(rng):
    # over a product instance the loop block carries the extracted skew
    # algebra and the pair block brackets vanish
    C = cross_product_constants()
    loop = bracket_loop(3, C)
    q = product_loopoid(loop, 1)
    skew = loop_skew_constants(loop)
    table = bracket_table(q, "left", np.array([0.3]), make_frame_field(q))
    for i in range(3):
        for j in range(3):
            got = table[:, i, j]
            assert np.allclose(got[:3], skew[:, i, j], atol=1e-5)
            assert abs(got[3]) < 1e-6
    assert np.max(np.abs(table[:, 0, 3])) < 1e-6


@pytest.mark.parametrize("name", ["planar_loop", "octonion_loop", "bracket3_loop"])
def test_loop_bracket_matches_structure_constants(name):
    # loop-algebra reports the right table over the point, negated; the left
    # table agrees up to rounding (1.3e-12 at most on these loops)
    loop = build_spec(example(name))
    q = loop_as_loopoid(loop)
    table = bracket_table(q, "left", np.zeros(0), make_frame_field(q))
    assert np.max(np.abs(table - loop_skew_constants(loop))) < 1e-11


def test_left_and_right_fields_commute_at_loop_unit():
    loop = planar_feedback_chart()
    q = loop_as_loopoid(loop)
    ff = make_frame_field(q)
    fx = lambda g: prolong(q, ff, "left", g)[..., 0, :]
    fy = lambda g: prolong(q, ff, "right", g)[..., 1, :]
    assert np.max(np.abs(lie_bracket(fx, fy, loop.unit))) < 1e-6


def test_anchor_values(product_h):
    # left anchors T beta(X^alpha) and right anchors T alpha(X^beta) are opposite
    u = np.array([0.1, 0.2])
    fr = algebroid_frame(product_h, u)
    rho_right = fr.beta_vertical @ jacobian(product_h.alpha, product_h.unit_embed(u), 1e-5).T
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
    u = np.array([0.25])
    fr = algebroid_frame(product_oct, u)
    e = product_oct.unit_embed(u)
    ji = jacobian(product_oct.inverse, e, 1e-5)
    resid = np.max(np.abs((ji @ fr.alpha_vertical.T).T + fr.beta_vertical))
    assert resid < 1e-7


def test_sign_theorem_on_ip_instances(product_oct):
    ff = make_frame_field(product_oct)
    u = np.array([0.25])
    left = bracket_table(product_oct, "left", u, ff)
    right = bracket_table(product_oct, "right", u, ff)
    for i, j in [(0, 1), (1, 2), (3, 7), (0, 8), (4, 8), (2, 5)]:
        assert np.max(np.abs(left[:, i, j] + right[:, i, j])) < 1e-6


def test_sign_residual_reported_not_asserted_for_non_ip(product_h):
    # evidence collection only: the instance has no inversion, so the
    # left/right opposition is recorded as data, never asserted
    ff = make_frame_field(product_h)
    u = np.zeros(2)
    bl = bracket_table(product_h, "left", u, ff)[:, 0, 1]
    br = bracket_table(product_h, "right", u, ff)[:, 0, 1]
    residual = float(np.max(np.abs(bl + br)))
    assert np.isfinite(residual)


# ---------------------------------------------------------------------------
# almost-Lie checks
# ---------------------------------------------------------------------------


def test_bracket_table_holds_each_pairs_bracket(product_h):
    u = np.array([0.1, 0.2])
    ff = make_frame_field(product_h)
    r = product_h.rank
    for side in ("left", "right"):
        table = bracket_table(product_h, side, u, ff)
        assert table.shape == (r, r, r)
        assert np.array_equal(table, -np.swapaxes(table, 1, 2))
        for i in range(r):
            for j in range(i + 1, r):
                coeffs, _ = pair_bracket(product_h, side, i, j, u, ff)
                assert np.array_equal(table[:, i, j], coeffs)


def counted_muls(q):
    """A copy of q whose multiplication records the number of rows of each call."""
    rows = []

    def mul(g, h):
        rows.append(len(h))
        return q.mul(g, h)

    return dataclasses.replace(q, mul=mul), rows


def counted_jacobians(monkeypatch):
    """Record the number of ``jacobian`` calls the algebroid module makes."""
    calls = []

    def counted(f, x, *args):
        calls.append(x)
        return jacobian(f, x, *args)

    monkeypatch.setattr(algebroid, "jacobian", counted)
    return calls


@pytest.mark.parametrize("name", ["product_h", "product_oct"])
def test_bracket_table_multiplies_twice(name, request, monkeypatch):
    # the r fields' values at the unit, then one Jacobian stencil of all of
    # them: 2 multiplications at any rank
    q, rows = counted_muls(request.getfixturevalue(name))
    jacobians = counted_jacobians(monkeypatch)
    u = np.full(q.dim_m, 0.2)
    table = bracket_table(q, "left", u, make_frame_field(q))
    assert table.shape == (q.rank,) * 3
    assert rows == [q.rank, 2 * q.dim_g * q.rank]
    assert len(jacobians) == 1


def test_rank_one_bracket_table_is_zero_without_pair_work():
    q, rows = counted_muls(phi_quasiloopoid(PHI, "cubic"))
    assert q.rank == 1
    for side in ("left", "right"):
        table = bracket_table(q, side, np.array([0.4, 0.1]), make_frame_field(q))
        assert table.shape == (1, 1, 1)
        assert np.array_equal(table, np.zeros((1, 1, 1)))
    assert rows == []


def chart_almost_lie(chart, xs):
    """almost_lie_residual of a chart at ``xs``, its anchors differenced by
    the chart's rule."""
    return almost_lie_residual(chart.c(xs), chart.rho(xs), chart.drho(xs))


def almost_lie(q, us):
    """almost_lie_residual of the Lie chart of ``q`` at the units ``us``."""
    return chart_almost_lie(lie_chart(q, make_frame_field(q)), us)


def stacked(c):
    """A constant structure tensor as a ``c_fn`` that keeps the row contract."""
    return lambda x: np.broadcast_to(c, x.shape[:-1] + c.shape)


def test_almost_lie_loopoid_instances(product_h):
    us = np.array([[0.1, 0.2], [-0.3, 0.5]])
    assert almost_lie(product_h, us) < 1e-6
    pro = prolong_algebroid(
        constant_chart(octonion_commutator_constants(), np.zeros((0, 7))),
        SplitFibration(2, 0),
    )
    assert chart_almost_lie(pro, np.array([[0.2, -0.1]])) < 1e-9


def test_frame_anchors_one_directional_for_all_samples(product_h, monkeypatch):
    # a Lie chart's anchors take complex steps, so its drho is one central
    # difference over the stack
    us = np.array([[0.1, 0.2], [-0.3, 0.5], [0.0, 0.4]])
    tables = lie_chart(product_h, make_frame_field(product_h)).c(us)
    calls = []

    def counted(f, x, *args):
        calls.append(x)
        return directional(f, x, *args)

    builds = []

    def counted_frames(q, u, derived=None):
        builds.append(len(u))
        return algebroid_frame(q, u, derived)

    monkeypatch.setattr(algebroid, "directional", counted)
    monkeypatch.setattr(algebroid, "algebroid_frame", counted_frames)
    lie = lie_chart(product_h, make_frame_field(product_h))
    rho, drho = lie.rho(us), lie.drho(us)
    assert (rho.shape, drho.shape) == ((3, 2, 4), (3, 2, 4, 2))
    assert almost_lie_residual(tables, rho, drho) < 1e-6
    assert len(calls) == 1 and np.array_equal(calls[0], us)
    # on an empty cache: the N samples' frames, then the 2 N dim_m stencil units' at once
    assert builds == [len(us), 2 * len(us) * product_h.dim_m]


def negated_brackets(chart):
    return dataclasses.replace(chart, c_fn=lambda x: -chart.c_fn(x))


def test_almost_lie_where_the_anchors_vary_with_the_unit():
    # the action groupoid of Aff(1) on R: its frame anchors move with the
    # unit, so the anchor brackets D rho_j . rho_i - D rho_i . rho_j the
    # check compares are not zero, and each antisymmetrized term counts;
    # negated brackets break it
    q = aff1_action_groupoid()
    us = np.array([[0.3], [-0.5], [0.8], [0.1]])
    lie = lie_chart(q, make_frame_field(q))
    rho, drho = lie.rho(us), lie.drho(us)
    assert np.ptp(rho, axis=0).max() > 0.1
    assert np.max(np.abs(np.einsum("sajl,sli->saij", drho, rho))) > 0.1
    assert almost_lie_residual(lie.c(us), rho, drho) < 1e-6
    assert chart_almost_lie(negated_brackets(lie), us) > 0.1


def test_both_anchor_rules_where_the_anchors_vary():
    # so(3) acting on R^3: rho(x) e_i = x cross e_i is linear in x, so the
    # complex step differences it exactly and the Lie algebroid's residual
    # is exactly 0; negated brackets break it.  The central rule, which a
    # Lie chart's stepped anchors take, agrees with the complex step.
    chart = so3_action_algebroid()
    xs = np.random.default_rng(28).normal(scale=0.4, size=(3, 3))
    assert np.max(np.abs(np.einsum("sajl,sli->saij", chart.drho(xs), chart.rho(xs)))) > 0.1
    assert chart_almost_lie(chart, xs) == 0.0
    assert chart_almost_lie(negated_brackets(chart), xs) > 0.5
    central = dataclasses.replace(chart, stepped_anchors=True).drho(xs)
    assert np.max(np.abs(central - chart.drho(xs))) < 1e-12


def test_almost_lie_loopoid_over_a_point():
    # dim_m = 0: the anchors' Jacobian has an empty axis and every anchor bracket is 0
    q = loop_as_loopoid(bracket_loop(3, cross_product_constants()))
    assert (q.dim_m, q.rank) == (0, 3)
    assert almost_lie(q, np.zeros((2, 0))) == 0.0


def test_almost_lie_chart_good_and_broken():
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0
    c[0, 1, 0] = -1.0  # [e1, e2] = e1
    good = SkewAlgebroidChart(
        base_dim=1, rank=2, c_fn=stacked(c), rho_fn=lambda x: np.stack([np.ones_like(x), x], axis=-1)
    )
    assert chart_almost_lie(good, np.array([[0.3], [-0.6]])) < 1e-6
    # the prolonged anchor keeps a complex point complex, so its derivative
    # is read from the complex step too
    assert chart_almost_lie(prolong_algebroid(good, SplitFibration(2, 1)), np.array([[0.3, 0.1]])) < 1e-6
    broken = SkewAlgebroidChart(
        base_dim=1, rank=2, c_fn=stacked(c), rho_fn=lambda x: np.stack([np.ones_like(x), 2.0 * x], axis=-1)
    )
    assert chart_almost_lie(broken, np.array([[0.4]])) > 0.1


def test_almost_lie_residual_rank_below_two_is_zero():
    assert almost_lie_residual(np.zeros((2, 1, 1, 1)), np.ones((2, 3, 1)), np.ones((2, 3, 1, 3))) == 0.0


def test_phi_rank_one_algebroid_is_almost_lie():
    q = phi_quasiloopoid(PHI, "cubic")
    us = np.array([[0.1, -0.2], [0.3, 0.4]])
    assert almost_lie(q, us) < 1e-6


# ---------------------------------------------------------------------------
# algebroid prolongation
# ---------------------------------------------------------------------------


def test_prolong_algebroid_identity_fibration():
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0
    c[0, 1, 0] = -1.0
    base = SkewAlgebroidChart(
        base_dim=1, rank=2, c_fn=stacked(c), rho_fn=lambda x: np.stack([np.ones_like(x), x], axis=-1)
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
    assert chart_almost_lie(out, rng.normal(size=(3, 2))) < 1e-9
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
        c_fn=lambda x: np.zeros(x.shape[:-1] + (2, 2, 2)),
        rho_fn=lambda x: np.stack([np.ones_like(x), np.cos(x)], axis=-1),
    )
    pi = SplitFibration(3, 1)
    out = prolong_algebroid(base, pi)
    # the first-factor projection intertwines the anchors: T pi . rho_P = rho
    for p in rng.normal(size=(4, 3)):
        jpi = jacobian(pi.proj, p)
        resid = jpi @ out.rho(p)[:, : base.rank] - base.rho(pi.proj(p))
        assert np.linalg.norm(resid, axis=0).max() < 1e-9


# ---------------------------------------------------------------------------
# naturality of the Lie functor: each construction on loopoids is carried to
# its construction on algebroids
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", ["planar_loop", "octonion_loop", "bracket3_loop"])
def test_lie_of_a_product_is_the_loop_algebra_plus_tangent(name, n):
    # Lie(L x pair(n)) = Lie(L) + T R^n: the loop's skew constants padded
    # with zeros, and the anchors [0 | I] exactly
    loop = build_spec(example(name))
    d = loop.dim
    us = np.random.default_rng(24).normal(scale=0.3, size=(3, n))
    q = product_loopoid(loop, n)
    lie = lie_chart(q, make_frame_field(q))
    want = np.zeros((d + n,) * 3)
    want[:d, :d, :d] = loop_skew_constants(loop)
    assert np.max(np.abs(lie.c(us) - want)) < 1e-9
    anchors = np.zeros((n, d + n))
    anchors[:, d:] = np.eye(n)
    assert np.array_equal(lie.rho(us), np.broadcast_to(anchors, (3, n, d + n)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lie_of_the_pair_groupoid_is_the_tangent_chart(n):
    us = np.random.default_rng(25).normal(scale=0.3, size=(3, n))
    q, tm = pair_groupoid(n), tangent_chart(n)
    lie = lie_chart(q, make_frame_field(q))
    rho, drho = lie.rho(us), lie.drho(us)
    assert np.array_equal(lie.c(us), tm.c(us)) and not tm.c(us).any()
    assert np.array_equal(rho, tm.rho(us)) and np.array_equal(tm.rho(us), np.broadcast_to(np.eye(n), (3, n, n)))
    assert not drho.any()


@pytest.mark.parametrize("fiber", [1, 2])
@pytest.mark.parametrize("name", ["phi_loopoid", "readme_product_loopoid", "octonion_pair1_loopoid"])
def test_lie_of_a_prolongation_is_the_prolonged_algebroid(name, fiber):
    # Lie(pi^!! G) = pi^!! Lie(G): the two routes agree exactly
    q = build_spec(example(name))
    pi = SplitFibration(q.dim_m + fiber, q.dim_m)
    ps = np.random.default_rng(26).normal(scale=0.3, size=(3, pi.dim_total))
    pro = prolongation_loopoid(q, pi)
    lie = lie_chart(pro, make_frame_field(pro))
    pulled = prolong_algebroid(lie_chart(q, make_frame_field(q)), pi)
    assert np.max(np.abs(lie.c(ps) - pulled.c(ps))) < 1e-9
    assert np.max(np.abs(lie.rho(ps) - pulled.rho(ps))) < 1e-9


# ---------------------------------------------------------------------------
# contrast metric
# ---------------------------------------------------------------------------


def contrast_metric(q, f, u):
    """g_ij = X_i(X_j(F)) at the embedded unit of u along the left
    prolongations, symmetrized, and the asymmetry of the unsymmetrized one.

    ``f`` maps a ``(..., dim_g)`` stack to its ``(...)`` values."""
    ff = make_frame_field(q)
    fr = ff(u)
    r = q.rank
    e0 = q.unit_embed(u)

    def first_derivative(j):
        def phi(g):
            # g is the Jacobian's (2r, dim_g) stencil stack
            vj = prolong(q, ff, "left", g)[:, j]
            return directional(f, g, vj[:, None, :], 1e-5)[:, 0]

        return phi

    # differenced at c = 0, where c @ frame is exactly h * frame[i]
    along = lambda phi: lambda c: phi(e0 + c @ fr.alpha_vertical)
    g_mat = np.column_stack([jacobian(along(first_derivative(j)), np.zeros(r), OUTER_STEP) for j in range(r)])
    return 0.5 * (g_mat + g_mat.T), float(np.max(np.abs(g_mat - g_mat.T)))


def test_contrast_metric_quadratic_distance_gives_identity():
    q = loop_as_loopoid(bracket_loop(3, cross_product_constants()))
    g, asym = contrast_metric(q, lambda p: 0.5 * np.sum(p * p, axis=-1), np.zeros(0))
    assert np.allclose(g, np.eye(3), atol=1e-5)
    assert asym < 1e-5


def test_contrast_metric_zero_and_scaling():
    q = loop_as_loopoid(planar_feedback_chart())
    g0, _ = contrast_metric(q, lambda p: np.zeros(p.shape[:-1]), np.zeros(0))
    assert np.allclose(g0, 0.0)
    f = lambda p: 0.5 * np.sum(p * p, axis=-1)
    g1, _ = contrast_metric(q, f, np.zeros(0))
    g3, _ = contrast_metric(q, lambda p: 3.0 * f(p), np.zeros(0))
    assert np.allclose(g3, 3.0 * g1, atol=1e-4)


def test_contrast_metric_on_loopoid_distance_from_units(product_h):
    # squared distance to the embedded unit over beta: vanishing first jets
    def f(p):
        u = product_h.unit_embed(product_h.beta(p))
        return 0.5 * np.sum((p - u) ** 2, axis=-1)

    g, asym = contrast_metric(product_h, f, np.array([0.2, -0.1]))
    assert asym < 1e-4
    assert np.all(np.linalg.eigvalsh(g) > -1e-6)
