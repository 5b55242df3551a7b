"""Row contract: chart maps on a stack of points equal the maps on each point.

Stencils evaluate all their points in one call, so every map a spec can
build must give, bit for bit, the rows it gives one point at a time.
"""

import numpy as np
import pytest

from conftest import example
from loopoid_lab.loopoids import SplitFibration
from loopoid_lab.numdiff import CHART_STEP, directional
from loopoid_lab.specio import build_loop, build_loopoid


LOOPOIDS = {
    "readme_product": example("readme_product_loopoid")["body"],
    "octonion_pair1": example("octonion_pair1_loopoid")["body"],
    "prolonged_planar": example("prolonged_planar_loopoid")["body"],
    "phi": example("phi_loopoid")["body"],
    "pair2": {"kind": "pair_groupoid", "dim": 2},
    "bracket3_as_loopoid": {"kind": "loop", "loop": example("bracket3_loop")["body"]},
}
LOOPS = ("planar_loop", "octonion_loop", "bracket3_loop")


def stacks(rng, shape, dim):
    """Two seeded stacks of points, the second a strided view as stencil slices are."""
    g = rng.normal(scale=0.7, size=shape + (dim,))
    h = rng.normal(scale=0.7, size=shape + (dim + 3,))[..., 1 : dim + 1]
    return g, h


def by_rows(fn, *stacks_):
    flat = [s.reshape(-1, s.shape[-1]) for s in stacks_]
    rows = np.stack([fn(*(s[i] for s in flat)) for i in range(len(flat[0]))])
    return rows.reshape(stacks_[0].shape[:-1] + rows.shape[1:])


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
@pytest.mark.parametrize("name", sorted(LOOPOIDS))
def test_loopoid_maps_on_rows_equal_single_calls(name, shape):
    q = build_loopoid(LOOPOIDS[name])
    g, h = stacks(np.random.default_rng(7), shape, q.dim_g)
    assert q.mul(g, h).shape == shape + (q.dim_g,)
    assert np.array_equal(q.mul(g, h), by_rows(q.mul, g, h))
    assert np.array_equal(q.alpha(g), by_rows(q.alpha, g))
    assert np.array_equal(q.beta(h), by_rows(q.beta, h))


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
@pytest.mark.parametrize("name", LOOPS)
def test_loop_mul_on_rows_equals_single_calls(name, shape):
    chart = build_loop(example(name)["body"])
    x, y = stacks(np.random.default_rng(8), shape, chart.dim)
    assert chart.mul(x, y).shape == shape + (chart.dim,)
    assert np.array_equal(chart.mul(x, y), by_rows(chart.mul, x, y))


def test_coordinate_fibration_on_rows_equals_single_calls():
    pi = SplitFibration(5, 2)
    p, fib = stacks(np.random.default_rng(9), (4,), 5)
    assert np.array_equal(pi.proj(p), by_rows(pi.proj, p))
    assert np.array_equal(pi.join(p[:, :2], fib[:, :3]), by_rows(pi.join, p[:, :2], fib[:, :3]))


def test_directional_matrix_equals_single_directions():
    q = build_loopoid(LOOPOIDS["readme_product"])
    rng = np.random.default_rng(10)
    g, x = rng.normal(size=(2, q.dim_g))
    directions = rng.normal(size=(4, q.dim_g))
    f = lambda h: q.mul(np.broadcast_to(g, h.shape), h)
    rows = directional(f, x, directions, CHART_STEP)
    assert rows.shape == (4, q.dim_g)
    for row, v in zip(rows, directions):
        assert np.array_equal(row, directional(f, x, v, CHART_STEP))
