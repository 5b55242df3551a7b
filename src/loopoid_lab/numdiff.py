"""Complex steps and finite differences for chart maps.

All derivatives in the package come through here, by one of two rules:

- a map that is plain arithmetic (the chart maps and the translations built
  from them, ``phi``, the Lagrangians, the anchors of an algebroid chart)
  takes its first derivative by ``complex_step``, ``Im f(x + i h v) / h`` at
  ``COMPLEX_STEP = 1e-30``: one evaluation per direction and no
  cancellation, so it is exact to rounding;
- a map that itself takes a complex step or runs a Newton solve (the
  fundamental fields and anchors of a loopoid, the Legendre chart maps, the
  sectioned tangent translations) is differenced centrally by ``jacobian``,
  ``directional`` or ``lie_bracket`` at the relative step ``OUTER_STEP``,
  ``h = rel * max(1, |x|_inf)``.  Newton's step Jacobian takes its step
  from ``mechanics.NewtonConfig``, and ``mixed_bilinear`` is a complex step
  in ``x`` differenced centrally in ``y``.

Row contract: every map these routines difference is called once, on the
stack of all its stencil points, and must map each row of a ``(..., n)``
array the way it maps that row alone.  That holds for every ``f`` given to
``jacobian``, ``complex_step``, ``mixed_bilinear``, ``lie_bracket`` (whose
fields are also called at the bare point) and ``newton_solve`` (whose
residual is differenced by ``jacobian``), and for ``directional`` with a
matrix or stack of directions; the chart maps of ``loops`` and
``loopoids``, the Lagrangians ``specio`` builds and the fundamental fields
of ``algebroid`` keep it.  A map that is one-point by nature loops over the
rows itself.  Only ``directional`` and ``complex_step`` with a single
direction evaluate ``f`` at ``x`` stepped as it is given, so there ``f``
may be any map of ``x``.

Nothing here casts what ``f`` returns.  ``complex_step`` casts its base
point and direction to float, because a complex step needs a real base;
the other routines take ndarrays as they come.
"""

import math

import numpy as np

OUTER_STEP = 1e-4
COMPLEX_STEP = 1e-30


def step_for(x, rel):
    """``rel * max(1, |x|_inf)`` of a point, or of each row of a stack."""
    return rel * np.maximum(1.0, np.abs(x).max(axis=-1, initial=0.0))


def complex_step(f, x, v):
    """Complex-step derivative ``Im f(x + i h v) / h`` of f along v.

    Stacked like ``directional``: a ``(k, n)`` matrix ``v`` at one base, or
    ``(N, k, n)`` directions at an ``(N, n)`` stack of bases, give the
    ``(k, ...)`` or ``(N, k, ...)`` derivatives from one call of ``f`` on the
    ``N k`` points ``x + i h v``; a single direction evaluates ``f`` once at
    ``x + i h v``.  No difference is taken, so the result is exact to
    rounding for any step; ``f`` must be real-analytic and keep its caller's
    complex dtype.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if v.ndim < 2:
        return f(x + (1j * COMPLEX_STEP) * v).imag / COMPLEX_STEP
    points = x[..., None, :] + (1j * COMPLEX_STEP) * v
    values = f(points.reshape(math.prod(v.shape[:-1]), v.shape[-1]))
    return values.imag.reshape(v.shape[:-1] + values.shape[1:]) / COMPLEX_STEP


def complex_jacobian(f, x):
    """Jacobian of f at x from one ``complex_step`` along the coordinate axes."""
    return np.moveaxis(complex_step(f, x, np.eye(np.size(x))), 0, -1)


def jacobian(f, x, rel_step=OUTER_STEP):
    """Central-difference Jacobian of f at x from one call of f on the
    ``(2n, n)`` stencil stack."""
    return np.moveaxis(directional(f, x, np.eye(np.size(x)), rel_step), 0, -1)


def directional(f, x, v, rel_step=OUTER_STEP):
    """Central difference of f along the (unnormalized) direction v.

    A ``(k, n)`` matrix ``v`` gives the ``(k, ...)`` derivatives along its
    rows; an ``(N, n)`` stack of bases ``x`` with ``(N, k, n)`` directions
    gives the ``(N, k, ...)`` derivatives, each base with its own step.
    Either way ``f`` is called once, on the stack of stencil points: the
    steps ``x + h v`` over ``x - h v``, each half ordered by base, then
    direction, so ``2 N k`` rows of length ``n`` (``N = 1`` for one base).
    """
    h = step_for(x, rel_step)
    if v.ndim < 2:
        return (f(x + h * v) - f(x - h * v)) / (2.0 * h)
    steps = h[..., None, None] * v
    points = np.concatenate([x[..., None, :] + steps, x[..., None, :] - steps])
    values = f(points.reshape(2 * math.prod(v.shape[:-1]), v.shape[-1]))
    values = values.reshape((2,) + v.shape[:-1] + values.shape[1:])
    return (values[0] - values[1]) / (2.0 * h).reshape(h.shape + (1,) * (values.ndim - 1 - h.ndim))


def mixed_bilinear(f, x0, y0, i, j, rel_step=OUTER_STEP):
    """d^2 f / dx_i dy_j at (x0, y0): a complex step in x_i, differenced
    centrally in y_j.

    ``f`` maps a pair of vectors to a vector; the result is
    (Im f(x0 + i c e_i, y0 + h e_j) - Im f(x0 + i c e_i, y0 - h e_j)) / (2 c h)
    with c = ``COMPLEX_STEP``, from one call of ``f`` on two stacked
    ``(x, y)`` rows.
    """
    h = max(step_for(x0, rel_step), step_for(y0, rel_step))
    ej = np.zeros(y0.size)
    ej[j] = h
    ys = np.stack([y0 + ej, y0 - ej])
    fp, fm = complex_step(lambda xs: f(xs, ys), np.stack([x0, x0]), np.eye(x0.size)[i])
    return (fp - fm) / (2.0 * h)


def lie_bracket(field_v, field_w, x):
    """[V, W](x) = DW(x) V(x) - DV(x) W(x) for vector fields on a chart.

    Each field is called twice: at x, and on its Jacobian's stencil stack.
    """
    vx = field_v(x)
    wx = field_w(x)
    dw = jacobian(field_w, x)
    dv = jacobian(field_v, x)
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
