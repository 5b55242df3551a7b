import dataclasses

import numpy as np
import pytest

from click.testing import CliRunner
from conftest import EXAMPLES, example, planar_feedback_chart
from loopoid_lab import algebroid, mechanics
from loopoid_lab.algebroid import ALIGNED, STRICT, prolong
from loopoid_lab.cli import main
from loopoid_lab.errors import LoopoidLabError, NoConvergence, NotComposable, NumericalNoise, SingularJacobian
from loopoid_lab.loopoids import COMPOSABLE_TOL, pair_groupoid, phi_quasiloopoid, product_loopoid
from loopoid_lab.mechanics import (
    STEP_TOL,
    DiscreteLagrangianSystem,
    el_residual,
    legendre,
    regularity_check,
    step_solve,
    trajectory,
)
from loopoid_lab.newton import newton_solve
from loopoid_lab.numdiff import complex_step, directional, jacobian
from loopoid_lab.specio import build_system

# the start point of the README system; its steps have closed forms below
README_START = np.array(example("readme_system")["body"]["start"])
SQRT21 = np.sqrt(21.0)
Z1 = (1.0 + SQRT21) / 2.0
W1 = (SQRT21 - 3.0) / 2.0
Z2 = 1.5 - SQRT21 + 0.5 * np.sqrt(125.0 - 16.0 * SQRT21)
W2 = -2.5 + SQRT21 + 0.5 * np.sqrt(125.0 - 16.0 * SQRT21)
# a start whose third step stalled at the noise floor of differenced
# inner derivatives
STALL_START = np.array(
    [
        0.5772927981769481,
        -1.6267712624608635,
        0.02502155161638754,
        -0.9704804997142129,
        0.6657827995491138,
        0.10086352147669461,
    ]
)


def half_sum_squares(g):
    # each row's |g|^2 rounds as g @ g does on that row alone
    return 0.5 * (g[..., None, :] @ g[..., :, None])[..., 0, 0]


def closed_form_step_residual(g, h):
    """The kinetic system's DL(g, h), component by component, in closed form."""
    return np.array(
        [
            g[0] + g[1] ** 2 - (1 + h[1]) * h[0],
            g[0] ** 2 + g[1] - (1 + h[0]) * h[1],
            g[4] - h[2],
            g[5] - h[3],
        ]
    )


@pytest.fixture(scope="module")
def kinetic_system():
    q = product_loopoid(planar_feedback_chart(), 2)
    return DiscreteLagrangianSystem(loopoid=q, lagrangian=half_sum_squares)


def test_el_residual_component_formulas(kinetic_system, rng):
    q = kinetic_system.loopoid
    for _ in range(5):
        g = q.sample_g(rng, 1)[0]
        h = q.sample_g(rng, 1)[0]
        h[2:4] = g[4:6]
        got = el_residual(kinetic_system, g, h)
        assert np.allclose(got, closed_form_step_residual(g, h), atol=1e-7)


def test_el_residual_requires_composability(kinetic_system, rng):
    q = kinetic_system.loopoid
    g = q.sample_g(rng, 1)[0]
    with pytest.raises(NotComposable):
        el_residual(kinetic_system, g, g + 1.0)


def test_el_residual_stationary_at_units(kinetic_system):
    q = kinetic_system.loopoid
    e = q.unit_embed(np.array([0.3, -0.6]))
    assert np.max(np.abs(el_residual(kinetic_system, e, e))) < 1e-8


def test_el_residual_root_pair(kinetic_system):
    g = README_START
    h = np.array([Z1, W1, 0.5, 1.3, 0.5, 1.3])
    assert np.max(np.abs(el_residual(kinetic_system, g, h))) < 1e-9


def test_step_solve_surd_branch(kinetic_system):
    g = README_START
    h, _ = step_solve(kinetic_system, g)
    assert abs(h[0] - Z1) < 1e-8
    assert abs(h[1] - W1) < 1e-8
    # ten printed digits
    assert abs(h[0] - 2.7912878475) < 5e-9
    assert abs(h[1] - 0.7912878475) < 5e-9
    assert np.allclose(h[2:4], [0.5, 1.3], atol=1e-9)
    # the first component solves z^2 - z - 5 = 0
    assert abs(h[0] ** 2 - h[0] - 5.0) < 1e-9


def test_step_solve_closed_form_quadratic_oracle(kinetic_system, rng):
    # the fiber flow from (x, y): z = (-(1+x^2+y-x-y^2) + sqrt(D)) / 2 with
    # D = (1+x^2+y-x-y^2)^2 + 4(x+y^2)
    for _ in range(5):
        x, y = rng.uniform(0.3, 1.5, size=2)
        g = np.concatenate([[x, y], rng.normal(size=4)])
        h, _ = step_solve(kinetic_system, g)
        bterm = 1 + x * x + y - x - y * y
        disc = bterm * bterm + 4 * (x + y * y)
        z = (-bterm + np.sqrt(disc)) / 2.0
        assert abs(h[0] - z) < 1e-8


def test_two_step_trajectory_matches_radicals(kinetic_system):
    g = README_START
    traj = trajectory(kinetic_system, g, 2)
    assert len(traj) == 3
    assert abs(traj.points[1][0] - Z1) < 1e-8
    assert abs(traj.points[2][0] - Z2) < 1e-7
    assert abs(traj.points[2][1] - W2) < 1e-7
    assert traj.residuals.max() < 1e-9
    assert traj.composable_gaps.max() < 1e-9


@pytest.mark.parametrize("start,steps", [("readme", 4), ("stall", 3)])
def test_trajectory_meets_the_closed_form(kinetic_system, start, steps):
    # exact inner derivatives: every step solves its closed form, and the
    # coordinates the equations leave free stay at their start values
    g0 = README_START if start == "readme" else STALL_START
    traj = trajectory(kinetic_system, g0, steps)
    assert len(traj) == steps + 1
    for g, h in zip(traj.points[:-1], traj.points[1:]):
        assert np.max(np.abs(closed_form_step_residual(g, h))) < 1e-8
    assert np.array_equal(traj.points[:, 4:6], np.broadcast_to(g0[4:6], (steps + 1, 2)))


def test_trajectory_constant_at_units(kinetic_system):
    q = kinetic_system.loopoid
    e = q.unit_embed(np.array([0.4, 0.8]))
    traj = trajectory(kinetic_system, e, 3)
    for p in traj.points:
        assert np.allclose(p, e, atol=1e-9)


def test_phi_trajectory_gaps(rng):
    q = phi_quasiloopoid(lambda x: x**3 + x, "cubic")
    lag = lambda g: half_sum_squares(g) + 0.5 * (g[..., 1] * g[..., 2])
    system = DiscreteLagrangianSystem(loopoid=q, lagrangian=lag)
    traj = trajectory(system, np.array([0.3, 0.2, 0.1]), 3)
    assert traj.composable_gaps.max() < 1e-9
    assert traj.residuals.max() < 1e-9


def test_step_residual_is_the_el_residual_at_the_step(kinetic_system, rng):
    # the trajectory's residual column is read off Newton's final residual
    for g in kinetic_system.loopoid.sample_g(rng, 3):
        h, residual = step_solve(kinetic_system, g)
        assert residual == np.linalg.norm(el_residual(kinetic_system, g, h, check=False))


def test_phi_degenerate_lagrangian_has_no_flow():
    q = phi_quasiloopoid(lambda x: x**3 + x, "cubic")
    system = DiscreteLagrangianSystem(loopoid=q, lagrangian=half_sum_squares)
    with pytest.raises(LoopoidLabError):
        step_solve(system, np.array([0.3, 0.2, 0.1]))


def test_legendre_component_formulas(kinetic_system, rng):
    for _ in range(5):
        g = kinetic_system.loopoid.sample_g(rng, 1)[0]
        plus = legendre(kinetic_system, "plus", g)
        minus = legendre(kinetic_system, "minus", g)
        assert np.allclose(
            plus, [g[0] + g[1] ** 2, g[0] ** 2 + g[1], g[4], g[5]], atol=1e-7
        )
        assert np.allclose(
            minus, [g[0] * (1 + g[1]), g[1] * (1 + g[0]), g[2], g[3]], atol=1e-7
        )


def test_legendre_transforms_agree_at_units(kinetic_system):
    e = kinetic_system.loopoid.unit_embed(np.array([0.7, -0.2]))
    plus = legendre(kinetic_system, "plus", e)
    minus = legendre(kinetic_system, "minus", e)
    assert np.allclose(plus, minus, atol=1e-8)
    assert np.allclose(plus, [0.0, 0.0, 0.7, -0.2], atol=1e-8)


def test_regularity_directional_derivatives(kinetic_system):
    rep = regularity_check(kinetic_system, np.array([0.2, -0.5]))
    assert rep["regular"]
    jac = rep["unit_jacobian"]  # rows (beta, dual components), columns chart
    dual = jac[2:, :]
    assert np.allclose(dual[:, 0], [1, 0, 0, 0], atol=1e-6)
    assert np.allclose(dual[:, 1], [0, 1, 0, 0], atol=1e-6)
    assert np.allclose(dual[:, 2], 0.0, atol=1e-6)
    assert np.allclose(dual[:, 3], 0.0, atol=1e-6)
    assert np.allclose(dual[:, 4], [0, 0, 1, 0], atol=1e-6)
    assert np.allclose(dual[:, 5], [0, 0, 0, 1], atol=1e-6)
    assert rep["flow_matches_legendre_residual"] < 1e-7


def test_regularity_differences_each_chart_map_once(readme_system, monkeypatch):
    # the six probe points are one stack of bases x: one directional call for
    # g -> (beta, F+L) and one for g -> (alpha, F-L)
    system = build_system(readme_system["body"], "$.body")
    shapes = []

    def counted(f, x, v, *args):
        shapes.append((np.shape(x), np.shape(v)))
        return directional(f, x, v, *args)

    monkeypatch.setattr(mechanics, "directional", counted)
    regularity_check(system, np.array([0.2, -0.5]))
    n = system.loopoid.dim_g
    assert shapes == [((6, n), (6, n, n))] * 2


def test_regularity_zero_lagrangian_singular(kinetic_system):
    system = DiscreteLagrangianSystem(loopoid=kinetic_system.loopoid, lagrangian=lambda g: np.zeros(g.shape[:-1]))
    rep = regularity_check(system, np.array([0.2, -0.5]))
    assert not rep["regular"]
    assert rep["min_sv_plus_fiberwise"] < 1e-6


def test_pair_groupoid_free_particle_normal_class_orientation():
    # under the normal-class orientation the quadratic-difference Lagrangian
    # produces the discrete free particle h = (v, 2v - u)
    system = DiscreteLagrangianSystem(
        loopoid=pair_groupoid(1),
        lagrangian=lambda g: 0.5 * (g[..., 1] - g[..., 0]) ** 2,
        orientation=STRICT,
    )
    h, _ = step_solve(system, np.array([0.2, 0.9]))
    assert np.allclose(h, [0.9, 1.6], atol=1e-8)
    traj = trajectory(system, np.array([0.0, 1.0]), 4)
    assert np.allclose(traj.points[-1], [4.0, 5.0], atol=1e-6)
    rep = regularity_check(system, np.array([0.3]))
    assert rep["regular"]
    assert rep["min_sv_plus_fiberwise"] > 0.5  # hyperregular on probes


def test_pair_groupoid_aligned_orientation_reflects():
    # the aligned orientation flips the anchored component of the right
    # fields, so the same Lagrangian returns the particle instead
    system = DiscreteLagrangianSystem(
        loopoid=pair_groupoid(1),
        lagrangian=lambda g: 0.5 * (g[..., 1] - g[..., 0]) ** 2,
        orientation=ALIGNED,
    )
    h, _ = step_solve(system, np.array([0.2, 0.9]))
    assert np.allclose(h, [0.9, 0.2], atol=1e-8)


def test_flow_matches_legendre_both_directions(kinetic_system, rng):
    q = kinetic_system.loopoid
    g = q.sample_g(rng, 1)[0]
    h, _ = step_solve(kinetic_system, g)
    assert np.max(np.abs(legendre(kinetic_system, "minus", h) - legendre(kinetic_system, "plus", g))) < 1e-7

    # converse: solve the Legendre matching system directly (independent of
    # el_residual) and check the pair satisfies the field equations
    target = legendre(kinetic_system, "plus", g)
    bg = np.asarray(q.beta(g))

    def match(hh):
        return np.concatenate(
            [np.asarray(q.alpha(hh)) - bg, legendre(kinetic_system, "minus", hh) - target], axis=-1
        )

    seed = q.unit_embed(bg) + 0.1 * np.concatenate([g[:2], np.zeros(4)])
    h2, _ = newton_solve(match, seed, tol=1e-11, max_iter=60, fd_step=1e-5, rcond=1e-4)
    assert np.max(np.abs(el_residual(kinetic_system, g, h2, check=False))) < 1e-7


def test_trajectory_invariants_hold_for_emitted_trajectories(kinetic_system, rng):
    g = kinetic_system.loopoid.sample_g(rng, 1)[0]
    g[:2] = np.abs(g[:2]) + 0.2
    traj = trajectory(kinetic_system, g, 3)
    assert traj.composable_gaps.max() < COMPOSABLE_TOL
    assert traj.residuals.max() < STEP_TOL * 10


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_newton_refuses_a_non_finite_residual_at_the_seed():
    # the residual is checked before any Jacobian is differenced from it
    shapes = []

    def residual(x):
        shapes.append(np.shape(x))
        return np.log(x - 1.0)

    with pytest.raises(NumericalNoise, match=r"^non-finite residual norm nan at the seed$"):
        newton_solve(residual, np.array([0.5]))
    assert shapes == [(1,)]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_newton_refuses_an_overflowing_residual_norm_at_the_seed():
    # every entry is finite, but the norm overflows: no stall is reported
    with pytest.raises(NumericalNoise, match=r"^non-finite residual norm inf at the seed$"):
        newton_solve(lambda x: np.full(2, 1e300) + x, np.zeros(2))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_newton_refuses_a_non_finite_jacobian():
    # log(x - 1) is finite at the seed 1 + 1e-9, but the Jacobian's stencil
    # steps 1e-7 below it, where the log is NaN
    with pytest.raises(NumericalNoise, match=r"^non-finite Jacobian entry at iteration 1, residual 2\.072e\+01$"):
        newton_solve(lambda x: np.log(x - 1.0), np.array([1.0 + 1e-9]))


# ---------------------------------------------------------------------------
# the step map evaluates only what depends on the unknown
# ---------------------------------------------------------------------------


def _free_particle():
    return DiscreteLagrangianSystem(
        loopoid=pair_groupoid(1),
        lagrangian=lambda g: 0.5 * (g[..., 1] - g[..., 0]) ** 2,
        orientation=STRICT,
    )


STEP_CASES = [
    ("kinetic", README_START),
    ("kinetic", np.array([0.3, 0.6, -0.2, 0.8, 0.1, -0.5])),
    ("free_particle", np.array([0.2, 0.9])),
]


@pytest.mark.parametrize("name,g", STEP_CASES)
def test_step_solve_equals_newton_on_el_residual(kinetic_system, monkeypatch, name, g):
    system = kinetic_system if name == "kinetic" else _free_particle()
    q = system.loopoid
    calls = []

    def spy(residual, seed, **kwargs):
        calls.append((seed, kwargs))
        return newton_solve(residual, seed, **kwargs)

    monkeypatch.setattr(mechanics, "newton_solve", spy)
    h, _ = step_solve(system, g)
    (seed, kwargs), = calls
    bg = np.asarray(q.beta(g), dtype=float)

    def full_residual(x):
        return np.concatenate(
            [np.asarray(q.alpha(x), dtype=float) - bg, el_residual(system, g, x, check=False)], axis=-1
        )

    want, _ = newton_solve(full_residual, seed, **kwargs)
    assert np.array_equal(h, want)


def test_step_solve_differentiates_at_g_once(kinetic_system, monkeypatch):
    sides = []
    inner = mechanics._derivative_along

    def counted(system, side, g):
        sides.append(side)
        return inner(system, side, g)

    monkeypatch.setattr(mechanics, "_derivative_along", counted)
    step_solve(kinetic_system, README_START)
    assert sides.count("left") == 1
    assert sides.count("right") > 1


def test_step_solve_multiplies_once_per_prolongation(readme_system):
    # one step on the README system: one left prolongation at g, then one
    # right prolongation per Newton residual call, each a single
    # multiplication on the rank complex-step points of each of its points:
    # one point, or the 2 * dim_g points of the step Jacobian's stencil
    system = build_system(readme_system["body"], "$.body")
    q = system.loopoid
    stencil_rows = []

    def counted(g, h):
        stencil_rows.append(len(h))
        return q.mul(g, h)

    system = dataclasses.replace(system, loopoid=dataclasses.replace(q, mul=counted))
    step_solve(system, README_START)
    assert len(stencil_rows) == 13
    assert stencil_rows.count(2 * q.dim_g * q.rank) == 5
    assert set(stencil_rows) == {q.rank, 2 * q.dim_g * q.rank}


@pytest.mark.parametrize("side,orientation", [("left", STRICT), ("right", STRICT), ("right", ALIGNED)])
def test_prolong_matrix_rows_equal_single_calls(kinetic_system, rng, side, orientation):
    # the whole frame's fields at a stack of points: each point's rows are
    # its own call's, and row i is the complex step along section i alone
    q = kinetic_system.loopoid
    ff = kinetic_system.frames
    r = q.rank
    gs = q.sample_g(rng, 3)
    rows = prolong(q, ff, side, gs, orientation)
    assert rows.shape == (3, r, q.dim_g)
    for g, fields in zip(gs, rows):
        assert np.array_equal(fields, prolong(q, ff, side, g, orientation))
        if side == "left":
            u, translate = q.beta(g), lambda h: q.mul(g, h)
            reps = ff(u).alpha_vertical
        else:
            u, translate = q.alpha(g), lambda h: q.mul(h, g)
            reps = ff(u).beta_reps(orientation)
        singles = [complex_step(translate, q.unit_embed(u), reps[i]) for i in range(r)]
        assert np.array_equal(fields, np.array(singles))


def test_trajectory_keeps_error_type_and_fields(kinetic_system):
    # the README system's fifth step stalls where its free coordinates make
    # the step Jacobian exactly singular
    with pytest.raises(SingularJacobian) as err:
        trajectory(kinetic_system, README_START, 5)
    assert str(err.value) == "step 4: stalled at residual 3.432e+05 with condition inf"
    assert err.value.cond == np.inf


def test_trajectory_lets_other_exceptions_through(kinetic_system):
    def broken(g):
        raise ZeroDivisionError("lagrangian")

    system = DiscreteLagrangianSystem(loopoid=kinetic_system.loopoid, lagrangian=broken)
    with pytest.raises(ZeroDivisionError, match="^lagrangian$"):
        trajectory(system, README_START, 1)


# ---------------------------------------------------------------------------
# the damped line search in blocks accepts what halving step by step accepts
# ---------------------------------------------------------------------------


def sequential_newton(residual, x0, *, tol=1e-10, max_iter=50, fd_step=1e-7, rcond=None):
    """``newton_solve`` with the damping loop that halves the step one
    residual call at a time: the reference the block search must match."""
    x = np.array(x0, dtype=float)
    r = residual(x)
    best = float(np.linalg.norm(r))
    if not np.isfinite(best):
        raise NumericalNoise(f"non-finite residual norm {best:.3e} at the seed")
    for it in range(max_iter):
        if best < tol:
            return x, {"iterations": it, "residual": best, "residual_vector": r}
        j = np.atleast_2d(jacobian(residual, x, fd_step))
        if not np.all(np.isfinite(j)):
            raise NumericalNoise(f"non-finite Jacobian entry at iteration {it + 1}, residual {best:.3e}")
        delta = np.linalg.lstsq(j, -r, rcond=rcond)[0]
        step = 1.0
        for _ in range(30):
            cand = x + step * delta
            rc = residual(cand)
            nc = float(np.linalg.norm(rc))
            if nc < best or nc < tol:
                x, r, best = cand, rc, nc
                break
            step *= 0.5
        else:
            sv = np.linalg.svd(j, compute_uv=False)
            cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
            if cond > 1e12:
                raise SingularJacobian(f"stalled at residual {best:.3e} with condition {cond:.3e}", cond=cond)
            raise NoConvergence(f"no descent at residual {best:.3e} after {it + 1} iterations")
    if best < tol:
        return x, {"iterations": max_iter, "residual": best, "residual_vector": r}
    raise NoConvergence(f"residual {best:.3e} > tol {tol:.1e} after {max_iter} iterations")


def outcome(solve, *args, **kwargs):
    """The bytes of what ``solve`` returns, or the type and message of what it raises."""
    try:
        x, info = solve(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)
    return x.tobytes(), {key: np.asarray(value).tobytes() for key, value in info.items()}


def halving_residual(k, fails=None):
    """r(x) = x - 1 on R, plus 1e6 past |x| = 1.5 2^-k, so that Newton's
    step from 0 (about 1) is accepted after exactly k halvings; a step whose
    length lies in the interval ``fails`` raises.  Records the leading shape
    of each call."""
    shapes = []

    def residual(x):
        shapes.append(np.shape(x)[:-1])
        if fails is not None and np.any((np.abs(x) > fails[0]) & (np.abs(x) < fails[1])):
            raise NotComposable(f"step {np.abs(x).max():.3f}")
        return x - 1.0 + 1e6 * (np.abs(x) > 1.5 * 2.0**-k)

    return residual, shapes


# tol 1 ends the solve at its first accepted step; fd_step 1e-12 keeps the
# Jacobian's stencil inside every reach
LINE_SEARCH = {"tol": 1.0, "fd_step": 1e-12}


@pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 29])
def test_block_line_search_accepts_the_sequential_step(k):
    residual, shapes = halving_residual(k)
    want = outcome(sequential_newton, residual, np.zeros(1), **LINE_SEARCH)
    assert abs(np.frombuffer(want[0])[0] * 2.0**k - 1.0) < 1e-3
    shapes.clear()
    assert outcome(newton_solve, residual, np.zeros(1), **LINE_SEARCH) == want
    # the seed, the stencil and the full step are single points
    assert shapes[:3] == [(), (2,), ()]


def test_block_line_search_without_descent_raises_as_the_sequential_one():
    residual, _ = halving_residual(31)
    want = outcome(sequential_newton, residual, np.zeros(1), **LINE_SEARCH)
    assert want == (NoConvergence, "no descent at residual 1.000e+00 after 1 iterations")
    assert outcome(newton_solve, residual, np.zeros(1), **LINE_SEARCH) == want


@pytest.mark.parametrize(
    "k, fails, raises",
    [
        # the block (1/4, 1/8) raises at 1/8, beyond the accepted 1/4
        (2, (0.1, 0.15), False),
        # the step 1/4 raises before 1/8 is accepted
        (3, (0.2, 0.3), True),
    ],
)
def test_block_line_search_raises_only_where_the_sequential_one_does(k, fails, raises):
    residual, shapes = halving_residual(k, fails)
    want = outcome(sequential_newton, residual, np.zeros(1), **LINE_SEARCH)
    assert want[0] is NotComposable if raises else abs(np.frombuffer(want[0])[0] * 2.0**k - 1.0) < 1e-3
    shapes.clear()
    assert outcome(newton_solve, residual, np.zeros(1), **LINE_SEARCH) == want
    # the block's call raised, and its candidates ran again one at a time
    assert (2,) in shapes[3:] and shapes[-1] == ()


@pytest.mark.parametrize("start,steps", [("readme", 5), ("stall", 3)])
def test_trajectory_with_block_line_search_equals_sequential(readme_system, monkeypatch, start, steps):
    g0 = README_START if start == "readme" else STALL_START

    def run(n_steps):
        system = build_system(readme_system["body"], "$.body")
        try:
            return trajectory(system, g0, n_steps).points.tobytes()
        except LoopoidLabError as exc:
            return type(exc), str(exc)

    got = [run(steps - 1), run(steps)]
    monkeypatch.setattr(mechanics, "newton_solve", sequential_newton)
    assert got == [run(steps - 1), run(steps)]
    if start == "readme":
        assert got[1] == (SingularJacobian, "step 4: stalled at residual 3.432e+05 with condition inf")


# ---------------------------------------------------------------------------
# counts of the step map's work: deterministic, so pinned exactly
# ---------------------------------------------------------------------------


def counted_step_map(monkeypatch):
    """Counts of residual calls per Newton solve of the step map, of
    ``algebroid_frame`` calls, of the ``complex_jacobian`` calls they make
    and of frames derived, filled as CLI runs go."""
    counts = {"residual_calls": [], "frame_builds": 0, "frame_jacobians": 0, "derived": 0}
    solve = mechanics.newton_solve

    def spy(residual, seed, **kwargs):
        counts["residual_calls"].append(0)

        def counted(x):
            counts["residual_calls"][-1] += 1
            return residual(x)

        return solve(counted, seed, **kwargs)

    build, derive, differentiate = algebroid.algebroid_frame, algebroid._derive_frames, algebroid.complex_jacobian

    def counted_build(q, u, derived=None):
        counts["frame_builds"] += 1
        return build(q, u, derived)

    def counted_jacobian(f, x):
        counts["frame_jacobians"] += 1
        return differentiate(f, x)

    def counted_derive(q, units, *rest):
        counts["derived"] += len(units)
        return derive(q, units, *rest)

    monkeypatch.setattr(mechanics, "newton_solve", spy)
    monkeypatch.setattr(algebroid, "algebroid_frame", counted_build)
    monkeypatch.setattr(algebroid, "_derive_frames", counted_derive)
    monkeypatch.setattr(algebroid, "complex_jacobian", counted_jacobian)
    return counts


README_SPEC = str(EXAMPLES / "readme_system.json")


# Each solve of a 2-step simulate and of legendre's three probes takes only
# full steps, one residual call each besides its stencils.  Frames are built
# once per request with a missing unit, each build taking alpha's and beta's
# Jacobians from one complex step and unit_embed's from another, and the
# product's frames share one derivation: building every frame from scratch
# derived 37 and 71.
@pytest.mark.parametrize(
    "args, residual_calls, frame_builds, derived",
    [
        (["simulate", "--spec", README_SPEC, "--steps", "2"], [12, 12], 10, 1),
        (["legendre", "--spec", README_SPEC, "--at", "0.3,-0.8,0.2,1.1,-0.4,0.9"], [7, 7, 9], 10, 1),
    ],
)
def test_step_map_counts(monkeypatch, args, residual_calls, frame_builds, derived):
    counts = counted_step_map(monkeypatch)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert counts == {
        "residual_calls": residual_calls,
        "frame_builds": frame_builds,
        "frame_jacobians": 2 * frame_builds,
        "derived": derived,
    }


def test_stalled_step_counts(monkeypatch):
    # the README system's step 4 halves its ten steps 13, 16, 17, 17, 16,
    # 11, 6, 0 and 0 times, and its last step tries all 30 lengths: 57
    # residual calls in blocks, where halving one at a time made 146
    counts = counted_step_map(monkeypatch)
    result = CliRunner().invoke(main, ["simulate", "--spec", README_SPEC, "--steps", "5"])
    assert result.exit_code == 2
    assert counts["residual_calls"] == [12, 12, 19, 29, 57]
