"""Finite differences and complex steps for chart maps.

All derivatives in the package come through here: Jacobians (the gradient
of a scalar map), directional derivatives, complex-step derivatives, the
4-point mixed stencil used for structure constants, and the two-step Lie
bracket of vector fields.  Difference steps are relative:
``h = rel * max(1, |x|_inf)``, so charts centered at the origin get the raw
relative step.

``complex_step`` takes the first derivative of an analytic map from
``Im f(x + i h v) / h`` at ``COMPLEX_STEP = 1e-30``: one evaluation per
direction and no cancellation, so it is exact to rounding.  It serves the
inner derivatives: the fundamental fields (``algebroid.prolong``), the
Legendre transforms, the step map's residual and the Lagrangian's gradient.

Three difference steps, each the default of its entry points, serve the
rest: ``STEP`` (``jacobian``, ``directional``) for fibration maps, the
Legendre chart maps of the regularity check and the slope probe of an odd
map; ``CHART_STEP`` (``mixed_bilinear``) for every other derivative of a
chart map or an anchor: the frames' and fibrations' Jacobians, the tangent
maps, the axiom audits and the structure constants; ``OUTER_STEP``
(``lie_bracket``) for differences of quantities that are themselves
derivatives, such as the fundamental fields.  Newton's step Jacobian takes
its step from ``mechanics.NewtonConfig``.

Row contract: every map these routines difference is called once, on the
stack of all its stencil points, and must map each row of a ``(..., n)``
array the way it maps that row alone.  That holds for every ``f`` given to
``jacobian``, ``complex_step``, ``mixed_bilinear``, ``lie_bracket`` (whose
fields are also called at the bare point) and ``newton_solve`` (whose
residual is differenced by ``jacobian``), and for ``directional`` with a
matrix or stack of directions; the chart maps of ``loops`` and
``loopoids``, the Lagrangians ``specio`` builds and the fundamental fields
of ``algebroid`` keep it.  A map that is one-point by nature loops over the
rows itself.  Only ``directional`` with a single direction evaluates ``f``
on 1-D points, so there ``f`` may be any map of one point.

Nothing here casts what ``f`` returns.  ``directional`` and
``complex_step`` cast their base point and direction to float, because the
slope probe of an odd map passes Python scalars and a complex step needs a
real base; the other routines take ndarrays as they come.
"""

import math

import numpy as np

STEP = 1e-6
CHART_STEP = 1e-5
OUTER_STEP = 1e-4
COMPLEX_STEP = 1e-30


def step_for(x, rel):
    """``rel * max(1, |x|_inf)`` of a point, or of each row of a stack."""
    return rel * np.maximum(1.0, np.abs(x).max(axis=-1, initial=0.0))


def jacobian(f, x, rel_step=STEP):
    """Jacobian of f at x from one call of f on the ``(2n, n)`` stencil stack."""
    d = directional(f, x, np.eye(np.size(x)), rel_step)
    # the input axis goes last, as np.moveaxis(d, 0, -1) puts it
    return d.transpose(tuple(range(1, d.ndim)) + (0,))


def directional(f, x, v, rel_step=STEP):
    """Central difference of f along the (unnormalized) direction v.

    A ``(k, n)`` matrix ``v`` gives the ``(k, ...)`` derivatives along its
    rows; an ``(N, n)`` stack of bases ``x`` with ``(N, k, n)`` directions
    gives the ``(N, k, ...)`` derivatives, each base with its own step.
    Either way ``f`` is called once, on the stack of stencil points: the
    steps ``x + h v`` over ``x - h v``, each half ordered by base, then
    direction, so ``2 N k`` rows of length ``n`` (``N = 1`` for one base).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    h = step_for(x, rel_step)
    if v.ndim < 2:
        return (f(x + h * v) - f(x - h * v)) / (2.0 * h)
    steps = h[..., None, None] * v
    points = np.concatenate([x[..., None, :] + steps, x[..., None, :] - steps])
    values = f(points.reshape(2 * math.prod(v.shape[:-1]), v.shape[-1]))
    values = values.reshape((2,) + v.shape[:-1] + values.shape[1:])
    return (values[0] - values[1]) / (2.0 * h).reshape(h.shape + (1,) * (values.ndim - 1 - h.ndim))


def complex_step(f, x, v):
    """Complex-step derivative ``Im f(x + i h v) / h`` of f along v.

    Stacked like ``directional``: a ``(k, n)`` matrix ``v`` at one base, or
    ``(N, k, n)`` directions at an ``(N, n)`` stack of bases, give the
    ``(k, ...)`` or ``(N, k, ...)`` derivatives from one call of ``f`` on the
    ``N k`` points ``x + i h v``.  No difference is taken, so the result is
    exact to rounding for any step; ``f`` must be real-analytic and keep
    its caller's complex dtype.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    points = x[..., None, :] + (1j * COMPLEX_STEP) * v
    values = f(points.reshape(-1, v.shape[-1]))
    return values.imag.reshape(v.shape[:-1] + values.shape[1:]) / COMPLEX_STEP


def mixed_bilinear(f, x0, y0, i, j, rel_step=CHART_STEP):
    """d^2 f / dx_i dy_j at (x0, y0) via the 4-point stencil.

    ``f`` maps a pair of vectors to a vector; the stencil is
    (f(+h,+h) - f(+h,-h) - f(-h,+h) + f(-h,-h)) / (4 h^2), from one call
    of ``f`` on the four stacked ``(x, y)`` rows.
    """
    h = max(step_for(x0, rel_step), step_for(y0, rel_step))
    ei = np.zeros(x0.size)
    ei[i] = h
    ej = np.zeros(y0.size)
    ej[j] = h
    xs = np.stack([x0 + ei, x0 + ei, x0 - ei, x0 - ei])
    ys = np.stack([y0 + ej, y0 - ej, y0 + ej, y0 - ej])
    fpp, fpm, fmp, fmm = f(xs, ys)
    return (fpp - fpm - fmp + fmm) / (4.0 * h * h)


def lie_bracket(field_v, field_w, x, rel_step=OUTER_STEP):
    """[V, W](x) = DW(x) V(x) - DV(x) W(x) for vector fields on a chart.

    Each field is called twice: at x, and on its Jacobian's stencil stack.
    """
    vx = field_v(x)
    wx = field_w(x)
    dw = jacobian(field_w, x, rel_step)
    dv = jacobian(field_v, x, rel_step)
    return dw @ vx - dv @ wx


def null_space(mat):
    """Orthonormal rows spanning the null space of ``mat``.

    Singular values at or below 1e-8 * sigma_max count as zero.
    """
    mat = np.atleast_2d(mat)
    if mat.shape[0] == 0:
        return np.eye(mat.shape[1])
    u, s, vt = np.linalg.svd(mat)
    cut = s[0] * 1e-8 if s.size else 0.0
    rank = int(np.sum(s > cut))
    return vt[rank:]


def smallest_singular_value(mat):
    mat = np.atleast_2d(mat)
    if mat.size == 0:
        return 0.0
    return float(np.linalg.svd(mat, compute_uv=False)[-1])
