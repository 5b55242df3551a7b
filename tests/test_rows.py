"""Row contract: chart maps on a stack of points equal the maps on each point.

Stencils evaluate all their points in one call, so every map a spec can
build must give, bit for bit, the rows it gives one point at a time.  The
cases are every loop, loopoid, algebroid and system spec in ``examples/``,
plus the constructions no example reaches.  The maps built on them keep
the contract too: prolongations, the maps of a tangent loopoid, the frames
of a stack of units, derivatives along stacked bases and the step map's
residual; and each
differencing routine, ``complex_step`` included, calls its map once, as
the frame field does for each request, deriving the arrays of a frame once
per distinct triple of side Jacobians.  The chart maps and Lagrangians also keep a
complex input complex, so a ``COMPLEX_STEP * 1j`` step along a direction
carries their derivative in its imaginary part; a tangent loopoid's maps
take that step themselves and refuse a complex operand.  On every loopoid
here, the audit of its tangent loopoid gives its own verdicts.
"""

import dataclasses
import functools
import json
import re

import numpy as np
import pytest

from conftest import EXAMPLES, aff1_action_groupoid, example, lie_bracket
from loopoid_lab import algebroid, loopoids, mechanics
from loopoid_lab.algebroid import (
    ALIGNED,
    FRAME_FIELDS,
    STRICT,
    AlgebroidFrame,
    algebroid_frame,
    lie_chart,
    make_frame_field,
    prolong,
)
from loopoid_lab.errors import RankDeficient
from loopoid_lab.loopoids import COMPOSABLE_TOL, SplitFibration, loop_as_loopoid, pair_groupoid, sample_composable_pairs
from loopoid_lab.loops import bracket_loop
from loopoid_lab.newton import newton_solve
from loopoid_lab.numdiff import (
    COMPLEX_STEP,
    complex_step,
    directional,
    jacobian,
    null_space,
    smallest_singular_value,
)
from loopoid_lab.octonion import oct_conj, oct_inverse
from loopoid_lab.specio import build_algebroid, build_loop, build_loopoid, build_system
from loopoid_lab.tangent import tangent_loopoid

SPECS = {path.stem: json.loads(path.read_text(encoding="utf-8")) for path in sorted(EXAMPLES.glob("*.json"))}


def bodies(kind):
    return {name: spec["body"] for name, spec in SPECS.items() if spec["kind"] == kind}


LOOPS = bodies("loop")
SYSTEMS = bodies("system")
SPEC_LOOPOIDS = {
    **{name.removesuffix("_loopoid"): body for name, body in bodies("loopoid").items()},
    **{f"{name}.loopoid": body["loopoid"] for name, body in SYSTEMS.items()},
    "bracket3_as_loopoid": {"kind": "loop", "loop": example("bracket3_loop")["body"]},
    "octonion_as_loopoid": {"kind": "loop", "loop": example("octonion_loop")["body"]},
    "prolonged_octonion_pair1": {
        "kind": "prolongation",
        "base": example("octonion_pair1_loopoid")["body"],
        "fibration": {"dim_total": 2, "dim_base": 1},
    },
}
# each name's loopoid, built: the specs' and the test-side action groupoid,
# whose frames vary from unit to unit
LOOPOIDS = {
    **{name: functools.partial(build_loopoid, body, "$.body") for name, body in SPEC_LOOPOIDS.items()},
    "aff1_action": aff1_action_groupoid,
}
ALGEBROIDS = bodies("algebroid")
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


def assert_chart_rows(q, shape, rng):
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
@pytest.mark.parametrize("name", sorted(LOOPOIDS))
def test_loopoid_maps_on_rows_equal_single_calls(name, shape):
    assert_chart_rows(LOOPOIDS[name](), shape, np.random.default_rng(7))


@pytest.mark.parametrize("name", sorted(LOOPOIDS))
def test_tangent_maps_on_rows_equal_single_calls(name):
    # TG's maps keep the row contract on float stacks; they take a complex
    # step themselves, so each refuses a complex operand
    tq = tangent_loopoid(LOOPOIDS[name]())
    rng = np.random.default_rng(17)
    for shape in SHAPES:
        assert_chart_rows(tq, shape, rng)
    g, h = stacks(rng, (2,), tq.dim_g)
    cases = [(tq.alpha, g), (tq.beta, g), (tq.unit_embed, g[:, : tq.dim_m]), (tq.mul, g, h)]
    if tq.inverse is not None:
        cases.append((tq.inverse, g))
    for f, *operands in cases:
        with pytest.raises(TypeError, match="difference the tangent chart centrally"):
            f(*operands[:-1], operands[-1] + 0j)


@pytest.mark.parametrize("name", sorted(LOOPOIDS))
def test_tangent_loopoid_keeps_the_verdicts(name):
    # the paper's first theorem as an oracle: TG is a loopoid (with the
    # inverse property) exactly when G is, and the audit, differencing TG's
    # stepped maps centrally, reads the same on both
    q = LOOPOIDS[name]()
    tg, g = loopoids.check_axioms(tangent_loopoid(q)), loopoids.check_axioms(q)
    assert (tg.is_loopoid, tg.is_ip) == (g.is_loopoid, g.is_ip)


def stated_ip(body):
    """The inverse-property flag each construction states: always for the
    pair groupoid, when the loop has an inversion for a product or a loop
    over a point, never for phi, and the base's for a prolongation."""
    kind = body["kind"]
    if kind == "prolongation":
        return stated_ip(body["base"])
    if kind in ("product", "loop"):
        return build_loop(body["loop"], "$.body.loop").inverse is not None
    return kind == "pair_groupoid"


@pytest.mark.parametrize("name", sorted(SPEC_LOOPOIDS))
def test_claims_ip_is_the_stated_flag(name):
    assert LOOPOIDS[name]().claims_ip is stated_ip(SPEC_LOOPOIDS[name])


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
    q = LOOPOIDS[name]()
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
    q = LOOPOIDS["readme_product"]()
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
    q = LOOPOIDS[name]()
    ff = make_frame_field(q)
    rng = np.random.default_rng(13)
    units = rng.normal(scale=0.3, size=(4, q.dim_m))
    g = q.unit_embed(units) + rng.normal(scale=0.05, size=(4, q.dim_g))
    rows = prolong(q, ff, side, g, orientation)
    assert rows.shape == (4, q.rank, q.dim_g)
    assert np.array_equal(rows, by_rows(lambda p: prolong(q, ff, side, p, orientation), g))


@pytest.mark.parametrize("name", sorted(LOOPOIDS))
def test_tangent_product_on_rows_equals_single_calls(name):
    # TG's product on a stack of its composable pairs
    tq = tangent_loopoid(LOOPOIDS[name]())
    pairs = sample_composable_pairs(tq, np.random.default_rng(15), 3)
    assert_rows(tq.mul, pairs[:, 0], pairs[:, 1])



@pytest.mark.parametrize("name", sorted(SPEC_LOOPOIDS))
def test_composable_samples_start_on_their_fibers(name, monkeypatch):
    # alpha is linear with alpha o eps = id on every spec chart, so the
    # section through each h is seeded on the alpha-fiber over beta(g) and
    # its solve returns at the seed: no Jacobian, no step
    q = LOOPOIDS[name]()
    iterations = []
    solve = loopoids.newton_solve

    def recorded(*args, **kwargs):
        x, info = solve(*args, **kwargs)
        iterations.append(info["iterations"])
        return x, info

    monkeypatch.setattr(loopoids, "newton_solve", recorded)
    pairs = sample_composable_pairs(q, np.random.default_rng(23), 6)
    assert iterations == [0] * 6
    assert np.all(np.linalg.norm(q.beta(pairs[:, 0]) - q.alpha(pairs[:, 1]), axis=-1) < COMPOSABLE_TOL)


def test_jacobian_of_a_stack_equals_single_points():
    # one stencil of 2 N n points, each point differenced with its own step
    q = LOOPOIDS["readme_product"]()
    f = lambda g: q.mul(g, g)
    x = np.random.default_rng(21).normal(size=(3, q.dim_g)) * np.array([[1.0], [0.1], [30.0]])
    rows = jacobian(f, x)
    assert rows.shape == (3, q.dim_g, q.dim_g)
    for row, point in zip(rows, x):
        assert np.array_equal(row, jacobian(f, point))


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


@pytest.mark.parametrize("shape", [(3, 4), (0, 4), (2, 0)])
def test_null_space_and_least_singular_value_of_a_stack_equal_single_matrices(shape):
    # the second matrix has a zero row and the third a repeated one, so the
    # ranks, and the null-space sizes, differ along the stack
    mats = np.random.default_rng(15).normal(size=(4,) + shape)
    if shape[0] > 1:
        mats[1, 0] = 0.0
        mats[2, 1] = mats[2, 0]
    spaces = null_space(mats)
    least = smallest_singular_value(mats)
    assert len(spaces) == 4 and least.shape == (4,)
    for mat, space, value in zip(mats, spaces, least):
        assert np.array_equal(space, null_space(mat))
        assert value == smallest_singular_value(mat)
    if shape[0] == 0:
        assert np.array_equal(spaces[0], np.eye(shape[1])) and not least.any()


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
    q = LOOPOIDS["octonion_as_loopoid"]()
    assert complex_step(q.unit_embed, np.zeros(0), np.eye(0)).shape == (0, q.dim_g)
    assert complex_step(q.unit_embed, np.zeros((3, 0)), np.zeros((3, 0, 0))).shape == (3, 0, q.dim_g)


def counting(f, shapes):
    """f, recording in ``shapes`` the leading shape of each stack it is called on."""

    def counted(*args):
        shapes.append(np.shape(args[0])[:-1])
        return f(*args)

    return counted


def test_differencing_calls_its_map_once_per_stencil():
    q = LOOPOIDS["readme_product"]()
    system = build_system(SYSTEMS["readme_system"], "$.body")
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
    fields = [counting(lambda g, i=i: prolong(q, ff, "left", g)[..., i, :], shapes) for i in (0, 1)]
    lie_bracket(*fields, x)
    assert sorted(shapes) == [(), (), (2 * n,), (2 * n,)]

    shapes = []
    stacked = counting(lambda g: prolong(q, ff, "left", g), shapes)
    assert jacobian(stacked, x).shape == (q.rank, n, n)
    assert shapes == [(2 * n,)]

    shapes = []
    target = q.alpha(x) + 0.01
    _, info = newton_solve(counting(lambda p: q.alpha(p) - target, shapes), x)
    assert info["iterations"] >= 1
    assert shapes.count((2 * n,)) == info["iterations"]
    assert set(shapes) == {(), (2 * n,)}


# ---------------------------------------------------------------------------
# frames on stacks: one build per request, each frame as its unit's alone
# ---------------------------------------------------------------------------

# bivertical can change its row count from unit to unit, so it is read at
# single units only
STACKED = [name for name in FRAME_FIELDS if name != "bivertical"]


def assert_built_alone(q, frames, units):
    """Each frame that ``frames`` views, at a unit or an ``(N, dim_m)`` stack
    of ``units``, equals bit for bit the frame built for its unit alone: row
    i of each stacked field, and ``bivertical`` at row i's single view."""
    units = np.atleast_2d(units)
    ids = np.atleast_1d(frames.ids)
    assert ids.shape == (len(units),)
    for i, u in enumerate(units):
        alone = algebroid_frame(q, u)
        assert np.array_equal(AlgebroidFrame(frames.store, ids[i]).bivertical, alone.bivertical)
        for name in STACKED:
            stack = getattr(frames, name) if np.ndim(frames.ids) else getattr(frames, name)[None]
            assert stack.shape == (len(units),) + getattr(alone, name).shape
            assert np.array_equal(stack[i], getattr(alone, name))


@pytest.mark.parametrize("name", sorted(LOOPOIDS) + ["skewed_pair1"])
def test_frames_of_a_stack_equal_single_builds(name):
    # a loop seen as a loopoid gives an (N, 0) stack of units; the stack
    # repeats two of its units
    q = skewed_pair1() if name == "skewed_pair1" else LOOPOIDS[name]()
    units = np.random.default_rng(20).normal(scale=0.3, size=(5, q.dim_m))
    if name == "phi":
        units[0] = [200.0, 0.2]
    units = units[[0, 1, 2, 1, 3, 4, 0]]
    frames = algebroid_frame(q, units)
    assert len(FRAME_FIELDS) == 6
    assert_built_alone(q, frames, units)


def counted_frame_maps(q):
    """A copy of q whose alpha, beta and unit_embed record the leading shape
    of each call, by map."""
    calls = {"alpha": [], "beta": [], "unit_embed": []}
    return dataclasses.replace(q, **{m: counting(getattr(q, m), shapes) for m, shapes in calls.items()}), calls


@pytest.mark.parametrize("shape", [(), (1,), (5,)])
def test_frame_field_builds_a_request_in_one_call(shape):
    q, calls = counted_frame_maps(LOOPOIDS["readme_product"]())
    ff = make_frame_field(q)
    units = np.random.default_rng(21).normal(scale=0.3, size=shape + (q.dim_m,))
    n = int(np.prod(shape))
    frames = ff(units)
    assert isinstance(frames, AlgebroidFrame) and np.shape(frames.ids) == shape
    assert frames.rho_left.shape == shape + (q.rank, q.dim_m)
    # alpha and beta are differenced together, on the embedded units; then
    # unit_embed along the units
    assert calls == {
        "alpha": [(n * q.dim_g,)],
        "beta": [(n * q.dim_g,)],
        "unit_embed": [(n,), (n * q.dim_m,)],
    }
    for shapes in calls.values():
        shapes.clear()
    again = ff(units)
    assert calls == {"alpha": [], "beta": [], "unit_embed": []}
    assert again.store is frames.store and np.array_equal(again.ids, frames.ids)


def test_frame_field_builds_a_repeated_unit_once():
    q, calls = counted_frame_maps(LOOPOIDS["readme_product"]())
    ff = make_frame_field(q)
    units = np.array([[0.1, 0.2], [0.3, -0.1], [0.1, 0.2]])
    frames = ff(units)
    assert calls["alpha"] == [(2 * q.dim_g,)]
    # the product's units share one derived frame, stored once
    assert frames.ids.tolist() == [0, 0, 0] and len(frames.store.arrays["bivertical"]) == 1
    skewed = make_frame_field(skewed_pair1())
    assert skewed(np.array([[0.1], [0.3], [0.1], [0.3]])).ids.tolist() == [0, 1, 0, 1]


def test_an_empty_frame_request_returns_empty_fields():
    # a store knows its field shapes before it derives a frame, so a request
    # for no units reads empty fields, as a central drho's empty stencil does
    q = loop_as_loopoid(bracket_loop(3, np.zeros((3, 3, 3))))
    assert lie_chart(q, make_frame_field(q)).drho(np.zeros((2, 0))).shape == (2, 0, 3, 0)
    assert make_frame_field(q)(np.zeros((0, 0))).alpha_vertical.shape == (0, 3, 3)
    q = LOOPOIDS["readme_product"]()
    r, g, m = q.rank, q.dim_g, q.dim_m
    shapes = dict(zip(FRAME_FIELDS, [(0, r, g), (0, r, g), (0, r, g), (0, m, g), (0, r, m)]))
    for frames in (make_frame_field(q)(np.zeros((0, m))), algebroid_frame(q, np.zeros((0, m)))):
        assert {name: getattr(frames, name).shape for name in shapes} == shapes


def test_empty_frame_request_calls_no_chart_map():
    q, calls = counted_frame_maps(LOOPOIDS["readme_product"]())
    units = np.zeros((0, q.dim_m))
    assert make_frame_field(q)(units).ids.shape == (0,)
    assert algebroid_frame(q, units).ids.shape == (0,)
    assert calls == {"alpha": [], "beta": [], "unit_embed": []}


def counted_derivations(monkeypatch):
    """The number of frames each ``_derive_frames`` call derives, in call order."""
    rows = []
    derive = algebroid._derive_frames
    monkeypatch.setattr(algebroid, "_derive_frames", lambda q, units, *rest: rows.append(len(units)) or derive(q, units, *rest))
    return rows


def skewed_pair1():
    """The pair groupoid of R in the coordinates (s, w) with t = s + w (1 + s):
    T beta = [1, 1 + s] at the unit (s, 0), so each unit has its own triple
    of side Jacobians."""
    beta = lambda g: g[..., :1] + g[..., 1:] * (1.0 + g[..., :1])
    return dataclasses.replace(
        pair_groupoid(1),
        beta=beta,
        unit_embed=lambda u: np.concatenate([u, 0.0 * u], axis=-1),
        mul=lambda g, h: np.concatenate([g[..., :1], (beta(h) - g[..., :1]) / (1.0 + g[..., :1])], axis=-1),
        inverse=None,
        preferred_alpha_vertical=None,
    )


@pytest.mark.parametrize("name", sorted(LOOPOIDS) + ["skewed_pair1"])
def test_lie_chart_on_a_stack_equals_single_units(name):
    # the structure tensors, anchors and anchor derivatives of a stack of
    # units equal, bit for bit, each unit's alone, read from a second chart
    # whose field derives every frame afresh
    q = skewed_pair1() if name == "skewed_pair1" else LOOPOIDS[name]()
    units = np.random.default_rng(29).normal(scale=0.3, size=(3, q.dim_m))
    stacked, single = (lie_chart(q, make_frame_field(q)) for _ in range(2))
    for part in ("c", "rho", "drho"):
        rows = getattr(stacked, part)(units)
        assert rows.shape[:2] == (3, {"c": q.rank}.get(part, q.dim_m))
        assert np.array_equal(rows, np.stack([getattr(single, part)(u) for u in units]))


# every spec chart's side Jacobians at its units are constant (linear maps,
# or phi's constraint through phi'(0) alone), so one derivation serves all
# its units; the skewed chart and the action groupoid derive each of their
# eight distinct units
DERIVED = {"skewed_pair1": [4, 3, 1], "aff1_action": [4, 3, 1]}


@pytest.mark.parametrize("name", sorted(LOOPOIDS) + ["skewed_pair1"])
def test_frame_field_serves_each_unit_its_own_frame(name, monkeypatch):
    # the store hands a unit the row derived for an earlier unit with the
    # same side Jacobians and basis, in the same request or a later one: it
    # is the unit's own frame, bit for bit
    q = skewed_pair1() if name == "skewed_pair1" else LOOPOIDS[name]()
    rng = np.random.default_rng(22)
    first = rng.normal(scale=0.3, size=(4, q.dim_m))
    second = np.concatenate([first[[2, 0]], rng.normal(scale=0.3, size=(3, q.dim_m))])
    last = second[-1] + 0.25
    ff = make_frame_field(q)
    rows = counted_derivations(monkeypatch)
    served = [ff(first), ff(second), ff(last)]
    assert rows == DERIVED.get(name, [1])
    for frames, units in zip(served, (first, second, last)):
        assert_built_alone(q, frames, units)


def test_a_plain_callable_field_serves_the_frame_layers(monkeypatch):
    # a tracer wraps the field in a function: prolong, a Lie chart's anchors
    # and the step map read frames through a call alone, so they give the
    # same bytes
    q = aff1_action_groupoid()
    field = make_frame_field(q)
    wrapped = lambda u: field(u)
    rng = np.random.default_rng(27)
    us = rng.normal(scale=0.3, size=(3, q.dim_m))
    g = q.unit_embed(us) + rng.normal(scale=0.05, size=(3, q.dim_g))
    for side, orientation in PROLONG_CASES:
        got = prolong(q, wrapped, side, g, orientation)
        assert np.array_equal(got, prolong(q, make_frame_field(q), side, g, orientation))
    charts = lie_chart(q, wrapped), lie_chart(q, field)
    for anchors in ("rho", "drho"):
        assert np.array_equal(*(getattr(chart, anchors)(us) for chart in charts))

    def simulate():
        system = build_system(SYSTEMS["readme_system"], "$.body")
        return mechanics.trajectory(system, np.array([0.3, -0.8, 0.2, 1.1, -0.4, 0.9]), 2).points

    want = simulate()
    build = mechanics.make_frame_field
    monkeypatch.setattr(mechanics, "make_frame_field", lambda q: (lambda f: lambda u: f(u))(build(q)))
    assert np.array_equal(simulate(), want)


def test_a_failed_frame_derivation_stores_nothing(monkeypatch):
    # past u_1 = 10 alpha_1 takes up 1e-3 of the first loop coordinate, so the
    # product's preferred alpha-vertical rows (loop directions first) leave
    # ker T alpha at rate 1e-3: the units 20 and 30 share a triple, and the
    # error names the first of them.  A failed request stores no derivation,
    # so it fails again, and its good unit is derived afresh, once.
    q = LOOPOIDS["readme_product"]()
    s = q.dim_g - 2 * q.dim_m  # the first alpha-leg coordinate
    tilt = 1e-3 * np.eye(q.dim_m)[0]
    tilted = dataclasses.replace(q, alpha=lambda g: q.alpha(g) + tilt * g[..., :1] * (g[..., s : s + 1] > 10))
    ff = make_frame_field(tilted)
    rows = counted_derivations(monkeypatch)
    message = f"alpha-vertical basis leaves ker T alpha at rate 1.00e-03 at u = {np.array([20.0, 0.0])}"
    for _ in range(2):
        with pytest.raises(RankDeficient, match=re.escape(message)):
            ff(np.array([[0.5, 0.0], [20.0, 0.0], [30.0, 0.0]]))
    ff(np.array([[0.5, 0.0], [0.7, -0.1]]))
    ff(np.array([0.2, 0.3]))
    assert rows == [2, 2, 1]
