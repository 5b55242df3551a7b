"""Row contract: chart maps on a stack of points equal the maps on each point.

Stencils evaluate all their points in one call, so every map a spec can
build must give, bit for bit, the rows it gives one point at a time.  The
cases are every loop, loopoid and system spec in ``examples/``, plus the
constructions no example reaches.
"""

import json

import numpy as np
import pytest

from conftest import EXAMPLES, example
from loopoid_lab.loopoids import SplitFibration
from loopoid_lab.numdiff import CHART_STEP, directional
from loopoid_lab.octonion import oct_conj, oct_inverse
from loopoid_lab.specio import build_loop, build_loopoid, build_system

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
def test_octonion_maps_on_rows_equal_single_calls(shape):
    for x in stacks(np.random.default_rng(12), shape, 8):
        assert_rows(oct_inverse, x)
        assert_rows(oct_conj, x)


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
    rows = directional(f, x, directions, CHART_STEP)
    assert rows.shape == (4, q.dim_g)
    for row, v in zip(rows, directions):
        assert np.array_equal(row, directional(f, x, v, CHART_STEP))
