"""Row contract: chart maps on a stack of points equal the maps on each point.

Stencils evaluate all their points in one call, so every map a spec can
build must give, bit for bit, the rows it gives one point at a time.  The
cases are every loop, loopoid, algebroid and system spec in ``examples/``,
plus the constructions no example reaches.  The maps built on them keep
the contract too: prolongations, derivatives along stacked bases and the
step map's residual; and each differencing routine, ``complex_step``
included, calls its map once.  The chart maps and Lagrangians also keep a
complex input complex, so a ``COMPLEX_STEP * 1j`` step along a direction
carries their derivative in its imaginary part.
"""

import json

import numpy as np
import pytest

from conftest import EXAMPLES, example
from loopoid_lab import mechanics
from loopoid_lab.algebroid import ALIGNED, STRICT, make_frame_field, prolong
from loopoid_lab.loopoids import SplitFibration
from loopoid_lab.newton import newton_solve
from loopoid_lab.numdiff import (
    COMPLEX_STEP,
    complex_step,
    directional,
    jacobian,
    lie_bracket,
    mixed_bilinear,
)
from loopoid_lab.octonion import oct_conj, oct_inverse
from loopoid_lab.specio import build_algebroid, build_loop, build_loopoid, build_system

SPECS = {path.stem: json.loads(path.read_text(encoding="utf-8")) for path in sorted(EXAMPLES.glob("*.json"))}


def bodies(kind):
    return {name: spec["body"] for name, spec in SPECS.items() if spec["kind"] == kind}


LOOPS = bodies("loop")
SYSTEMS = bodies("system")
LOOPOIDS = {
    **{name.removesuffix("_loopoid"): body for name, body in bodies("loopoid").items()},
    **{f"{name}.loopoid": body["loopoid"] for name, body in SYSTEMS.items()},
    "pair2": {"kind": "pair_groupoid", "dim": 2},
    "bracket3_as_loopoid": {"kind": "loop", "loop": example("bracket3_loop")["body"]},
    "octonion_as_loopoid": {"kind": "loop", "loop": example("octonion_loop")["body"]},
    "prolonged_octonion_pair1": {
        "kind": "prolongation",
        "base": example("octonion_pair1_loopoid")["body"],
        "fibration": {"dim_total": 2, "dim_base": 1},
    },
}
ALGEBROIDS = {**bodies("algebroid"), "tangent2": {"kind": "tangent", "dim": 2}}
SHAPES = [(5,), (2, 3)]


def stacks(rng, shape, dim):
    """Two seeded stacks of points, the second a strided view as stencil slices are."""
    g = rng.normal(scale=0.7, size=shape + (dim,))
    h = rng.normal(scale=0.7, size=shape + (dim + 3,))[..., 1 : dim + 1]
    return g, h


def by_rows(fn, *stacks_):
    lead = stacks_[0].shape[:-1]
    flat = [s.reshape(int(np.prod(lead)), s.shape[-1]) for s in stacks_]
    rows = np.stack([fn(*(s[i] for s in flat)) for i in range(len(flat[0]))])
    return rows.reshape(lead + rows.shape[1:])


def assert_rows(fn, *stacks_):
    got = fn(*stacks_)
    assert got.shape[: stacks_[0].ndim - 1] == stacks_[0].shape[:-1]
    assert np.array_equal(got, by_rows(fn, *stacks_))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", sorted(LOOPOIDS))
def test_loopoid_maps_on_rows_equal_single_calls(name, shape):
    q = build_loopoid(LOOPOIDS[name], "$.body")
    rng = np.random.default_rng(7)
    g, h = stacks(rng, shape, q.dim_g)
    assert q.mul(g, h).shape == shape + (q.dim_g,)
    assert_rows(q.mul, g, h)
    for points in (g, h):
        assert_rows(q.alpha, points)
        assert_rows(q.beta, points)
        if q.inverse is not None:
            assert_rows(q.inverse, points)
    for units in stacks(rng, shape, q.dim_m):
        assert q.unit_embed(units).shape == shape + (q.dim_g,)
        assert_rows(q.unit_embed, units)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", sorted(LOOPS))
def test_loop_mul_on_rows_equals_single_calls(name, shape):
    chart = build_loop(LOOPS[name], "$.body")
    x, y = stacks(np.random.default_rng(8), shape, chart.dim)
    assert chart.mul(x, y).shape == shape + (chart.dim,)
    assert_rows(chart.mul, x, y)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_lagrangian_on_rows_equals_single_calls(name, shape):
    system = build_system(SYSTEMS[name], "$.body")
    for points in stacks(np.random.default_rng(11), shape, system.loopoid.dim_g):
        assert system.lagrangian(points).shape == shape
        assert_rows(system.lagrangian, points)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_algebroid_chart_on_rows_equals_single_calls(name, shape):
    chart = build_algebroid(ALGEBROIDS[name], "$.body")
    for x in stacks(np.random.default_rng(16), shape, chart.base_dim):
        assert chart.c(x).shape == shape + (chart.rank,) * 3
        assert chart.rho(x).shape == shape + (chart.base_dim, chart.rank)
        assert_rows(chart.c, x)
        assert_rows(chart.rho, x)


@pytest.mark.parametrize("shape", SHAPES)
def test_octonion_maps_on_rows_equal_single_calls(shape):
    for x in stacks(np.random.default_rng(12), shape, 8):
        assert_rows(oct_inverse, x)
        assert_rows(oct_conj, x)


# ---------------------------------------------------------------------------
# complex steps: the maps keep their caller's dtype
# ---------------------------------------------------------------------------

def assert_complex_step(fn, points, directions):
    """``fn`` at ``points + COMPLEX_STEP * 1j * directions`` is complex,
    and its imaginary part over ``COMPLEX_STEP`` is the derivative along
    ``directions``: a 1e-6 central difference within 1e-8."""
    got = fn(*(p + 1j * COMPLEX_STEP * v for p, v in zip(points, directions)))
    assert np.iscomplexobj(got)
    plus = fn(*(p + 1e-6 * v for p, v in zip(points, directions)))
    minus = fn(*(p - 1e-6 * v for p, v in zip(points, directions)))
    assert np.max(np.abs(got.imag / COMPLEX_STEP - (plus - minus) / 2e-6), initial=0.0) < 1e-8


@pytest.mark.parametrize("name", sorted(LOOPOIDS))
def test_loopoid_maps_carry_a_complex_step(name):
    q = build_loopoid(LOOPOIDS[name], "$.body")
    rng = np.random.default_rng(17)
    g, h = stacks(rng, (5,), q.dim_g)
    vg, vh = rng.normal(size=(2, 5, q.dim_g))
    assert_complex_step(q.mul, (g, h), (vg, vh))
    for fn in (q.alpha, q.beta) + ((q.inverse,) if q.inverse is not None else ()):
        assert_complex_step(fn, (g,), (vg,))
    assert_complex_step(q.unit_embed, (rng.normal(scale=0.3, size=(5, q.dim_m)),), (rng.normal(size=(5, q.dim_m)),))


@pytest.mark.parametrize("name", sorted(LOOPS))
def test_loop_maps_carry_a_complex_step(name):
    chart = build_loop(LOOPS[name], "$.body")
    rng = np.random.default_rng(18)
    x, y = stacks(rng, (5,), chart.dim)
    vx, vy = rng.normal(size=(2, 5, chart.dim))
    assert_complex_step(chart.mul, (x, y), (vx, vy))
    if chart.inverse is not None:
        assert_complex_step(chart.inverse, (x,), (vx,))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_lagrangian_carries_a_complex_step(name):
    system = build_system(SYSTEMS[name], "$.body")
    rng = np.random.default_rng(19)
    g, _ = stacks(rng, (5,), system.loopoid.dim_g)
    assert_complex_step(system.lagrangian, (g,), (rng.normal(size=g.shape),))


def test_coordinate_fibration_on_rows_equals_single_calls():
    pi = SplitFibration(5, 2)
    rng = np.random.default_rng(9)
    for shape in SHAPES:
        p, fib = stacks(rng, shape, 5)
        assert_rows(pi.proj, p)
        assert_rows(lambda x: pi.split(x)[0], p)
        assert_rows(lambda x: pi.split(x)[1], p)
        assert_rows(pi.join, p[..., :2], fib[..., :3])


def test_directional_matrix_equals_single_directions():
    q = build_loopoid(LOOPOIDS["readme_product"], "$.body")
    rng = np.random.default_rng(10)
    g, x = rng.normal(size=(2, q.dim_g))
    directions = rng.normal(size=(4, q.dim_g))
    f = lambda h: q.mul(np.broadcast_to(g, h.shape), h)
    rows = directional(f, x, directions, 1e-5)
    assert rows.shape == (4, q.dim_g)
    for row, v in zip(rows, directions):
        assert np.array_equal(row, directional(f, x, v, 1e-5))


# ---------------------------------------------------------------------------
# differencing on stacks: each routine calls its map once per stencil
# ---------------------------------------------------------------------------

PROLONG_CASES = [("left", STRICT), ("right", STRICT), ("right", ALIGNED)]


@pytest.mark.parametrize("side,orientation", PROLONG_CASES)
@pytest.mark.parametrize("name", ["readme_product", "prolonged_planar", "phi", "bracket3_as_loopoid"])
def test_prolong_on_rows_equals_single_calls(name, side, orientation):
    q = build_loopoid(LOOPOIDS[name], "$.body")
    ff = make_frame_field(q)
    rng = np.random.default_rng(13)
    units = rng.normal(scale=0.3, size=(4, q.dim_m))
    g = q.unit_embed(units) + rng.normal(scale=0.05, size=(4, q.dim_g))
    for coeffs in (np.eye(q.rank)[-1], np.eye(q.rank), rng.normal(size=(2, q.rank))):
        rows = prolong(q, ff, coeffs, side, g, orientation)
        assert rows.shape == (4,) + coeffs.shape[:-1] + (q.dim_g,)
        assert np.array_equal(rows, by_rows(lambda p: prolong(q, ff, coeffs, side, p, orientation), g))


def test_directional_stacked_bases_equal_single_bases():
    system = build_system(SYSTEMS["readme_system"], "$.body")
    rng = np.random.default_rng(14)
    # bases of different sizes, so each row takes its own step
    x = rng.normal(size=(3, system.loopoid.dim_g)) * np.array([[1.0], [0.1], [30.0]])
    v = rng.normal(size=(3, 4, system.loopoid.dim_g))
    rows = directional(system.lagrangian, x, v, 1e-5)
    assert rows.shape == (3, 4)
    for row, base, directions in zip(rows, x, v):
        assert np.array_equal(row, directional(system.lagrangian, base, directions, 1e-5))
    rows = complex_step(system.lagrangian, x, v)
    assert rows.shape == (3, 4)
    for row, base, directions in zip(rows, x, v):
        assert np.array_equal(row, complex_step(system.lagrangian, base, directions))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_step_solve_residual_on_rows_equals_single_calls(name, monkeypatch):
    system = build_system(SYSTEMS[name], "$.body")
    q = system.loopoid
    residuals = []

    def spy(residual, seed, **kwargs):
        residuals.append((residual, seed))
        return newton_solve(residual, seed, **kwargs)

    monkeypatch.setattr(mechanics, "newton_solve", spy)
    mechanics.step_solve(system, np.array(SPECS[name]["body"]["start"]))
    (residual, seed), = residuals
    h = seed + np.random.default_rng(15).normal(scale=0.05, size=(5, q.dim_g))
    assert residual(h).shape == (5, q.dim_m + q.rank)
    assert np.array_equal(residual(h), by_rows(residual, h))


def test_complex_step_takes_an_empty_direction_axis():
    # a loop seen as a loopoid has a 0-dimensional base, where the Jacobian
    # of unit_embed has no columns: n = 0 directions of length 0
    q = build_loopoid(LOOPOIDS["octonion_as_loopoid"], "$.body")
    assert complex_step(q.unit_embed, np.zeros(0), np.eye(0)).shape == (0, q.dim_g)
    assert complex_step(q.unit_embed, np.zeros((3, 0)), np.zeros((3, 0, 0))).shape == (3, 0, q.dim_g)


def counting(f, shapes):
    """f, recording in ``shapes`` the leading shape of each stack it is called on."""

    def counted(*args):
        shapes.append(np.shape(args[0])[:-1])
        return f(*args)

    return counted


def test_differencing_calls_its_map_once_per_stencil():
    q = build_loopoid(LOOPOIDS["readme_product"], "$.body")
    system = build_system(SYSTEMS["readme_system"], "$.body")
    chart = build_loop(LOOPS["planar_loop"], "$.body")
    ff = make_frame_field(q)
    x = q.unit_embed(np.array([0.2, -0.1])) + 0.05
    n = q.dim_g

    shapes = []
    assert jacobian(counting(q.alpha, shapes), x).shape == (q.dim_m, n)
    assert jacobian(counting(system.lagrangian, shapes), x).shape == (n,)
    assert shapes == [(2 * n,), (2 * n,)]

    shapes = []
    bases = x + np.array([[0.0], [0.1], [-0.2]])
    assert complex_step(counting(system.lagrangian, shapes), x, np.eye(n)).shape == (n,)
    assert complex_step(counting(q.alpha, shapes), bases, np.ones((3, 2, n))).shape == (3, 2, q.dim_m)
    assert shapes == [(n,), (3 * 2,)]

    shapes = []
    mixed_bilinear(counting(chart.mul, shapes), chart.unit, chart.unit, 0, 1)
    assert shapes == [(2,)]

    shapes = []
    fields = [counting(lambda g, i=i: prolong(q, ff, np.eye(q.rank)[i], "left", g), shapes) for i in (0, 1)]
    lie_bracket(*fields, x)
    assert sorted(shapes) == [(), (), (2 * n,), (2 * n,)]

    shapes = []
    target = q.alpha(x) + 0.01
    _, info = newton_solve(counting(lambda p: q.alpha(p) - target, shapes), x)
    assert info["iterations"] >= 1
    assert shapes.count((2 * n,)) == info["iterations"]
    assert set(shapes) == {(), (2 * n,)}
