"""Central finite differences for chart maps.

All derivatives in the package come through here: Jacobians, gradients,
directional derivatives, the 4-point mixed stencil used for structure
constants, and the two-step Lie bracket of vector fields.  Steps are
relative: ``h = rel * max(1, |x|_inf)``, so charts centered at the origin
get the raw relative step.

Three steps, each the default of its entry points, serve the package:
``STEP`` (``jacobian``, ``gradient``, ``directional``) for fibration maps,
the Legendre chart maps of the regularity check and the slope probe of an
odd map; ``CHART_STEP`` (``mixed_bilinear``) for every derivative of a chart
map, a Lagrangian or an anchor; ``OUTER_STEP`` (``lie_bracket``) for
differences of quantities themselves differenced at ``CHART_STEP``.
Newton's step Jacobian takes its step from ``mechanics.NewtonConfig``.

Row contract: ``directional`` with a single direction evaluates ``f`` on
1-D points, so ``f`` may be any map of one point.  With a ``(k, n)``
matrix of directions it calls ``f`` once on the ``(2k, n)`` stack of its
stencil points, so ``f`` must map each row of a ``(..., n)`` array the way
it maps that row alone; the chart maps of ``loops`` and ``loopoids`` and
the Lagrangians ``specio`` builds do.
"""

import numpy as np

STEP = 1e-6
CHART_STEP = 1e-5
OUTER_STEP = 1e-4


def step_for(x, rel):
    x = np.asarray(x, dtype=float)
    scale = 1.0 if x.size == 0 else max(1.0, float(np.max(np.abs(x))))
    return rel * scale


def jacobian(f, x, rel_step=STEP):
    """Jacobian of f at x, one central difference per input coordinate."""
    x = np.asarray(x, dtype=float)
    h = step_for(x, rel_step)
    n = x.size
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        cols.append((np.asarray(f(x + e), dtype=float) - np.asarray(f(x - e), dtype=float)) / (2.0 * h))
    if not cols:
        return np.zeros((np.asarray(f(x)).size, 0))
    return np.stack(cols, axis=-1)


def gradient(f, x, rel_step=STEP):
    """Gradient of a scalar f at x."""
    return jacobian(lambda p: np.atleast_1d(f(p)), x, rel_step)[0]


def directional(f, x, v, rel_step=STEP):
    """Central difference of f along the (unnormalized) direction v.

    A ``(k, n)`` matrix ``v`` gives the ``(k, ...)`` derivatives along its
    rows from one call of ``f`` on the stacked points ``x + h v`` over
    ``x - h v``.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    h = step_for(x, rel_step)
    if v.ndim < 2:
        return (np.asarray(f(x + h * v), dtype=float) - np.asarray(f(x - h * v), dtype=float)) / (2.0 * h)
    values = np.asarray(f(np.concatenate([x + h * v, x - h * v])), dtype=float)
    return (values[: len(v)] - values[len(v) :]) / (2.0 * h)


def mixed_bilinear(f, x0, y0, i, j, rel_step=CHART_STEP):
    """d^2 f / dx_i dy_j at (x0, y0) via the 4-point stencil.

    ``f`` maps a pair of vectors to a vector; the stencil is
    (f(+h,+h) - f(+h,-h) - f(-h,+h) + f(-h,-h)) / (4 h^2).
    """
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    h = max(step_for(x0, rel_step), step_for(y0, rel_step))
    ei = np.zeros(x0.size)
    ei[i] = h
    ej = np.zeros(y0.size)
    ej[j] = h
    fpp = np.asarray(f(x0 + ei, y0 + ej), dtype=float)
    fpm = np.asarray(f(x0 + ei, y0 - ej), dtype=float)
    fmp = np.asarray(f(x0 - ei, y0 + ej), dtype=float)
    fmm = np.asarray(f(x0 - ei, y0 - ej), dtype=float)
    return (fpp - fpm - fmp + fmm) / (4.0 * h * h)


def lie_bracket(field_v, field_w, x, rel_step=OUTER_STEP):
    """[V, W](x) = DW(x) V(x) - DV(x) W(x) for vector fields on a chart."""
    x = np.asarray(x, dtype=float)
    vx = np.asarray(field_v(x), dtype=float)
    wx = np.asarray(field_w(x), dtype=float)
    dw = jacobian(field_w, x, rel_step)
    dv = jacobian(field_v, x, rel_step)
    return dw @ vx - dv @ wx


def null_space(mat):
    """Orthonormal rows spanning the null space of ``mat``.

    Singular values at or below 1e-8 * sigma_max count as zero.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1])
    u, s, vt = np.linalg.svd(mat)
    cut = s[0] * 1e-8 if s.size else 0.0
    rank = int(np.sum(s > cut))
    return vt[rank:]


def smallest_singular_value(mat):
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0:
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False)[-1])
