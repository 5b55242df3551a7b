"""Complex steps and finite differences for chart maps.

All derivatives in the package come through here, by one of two rules:

- a map that is plain arithmetic (the chart maps and the translations built
  from them, ``phi``, the Lagrangians, the anchors of an algebroid spec)
  takes its first derivative by ``complex_step``, ``Im f(x + i h v) / h``
  at ``COMPLEX_STEP = 1e-30``: one evaluation per direction and no
  cancellation, so it is exact to rounding.  A tangent loopoid's maps are
  both parts, (f, T f . v), of that step of a chart map;
- a map that itself takes a complex step or runs a Newton solve (the
  fundamental fields of a loopoid and the anchors of its Lie chart, the
  Legendre chart maps, the maps of a tangent loopoid, which refuse a
  complex operand, the sectioned translations of
  ``tangent.section_product``) is differenced centrally by ``jacobian`` or
  ``directional`` at the relative step ``OUTER_STEP``,
  ``h = rel * max(1, |x|_inf)``.  A chart whose maps or anchors take this
  rule says so (``ChartedQuasiloopoid.stepped_maps``,
  ``SkewAlgebroidChart.stepped_anchors``), and ``first_derivatives`` gives
  ``check_axioms`` and ``drho`` the pair for it: the anchors of a Lie chart
  at N sampled units are one field differenced by one stacked ``jacobian``,
  as are the r fundamental fields of a bracket table and the Legendre chart
  maps at the probe points of a regularity check.  A loop's skew algebra is
  the bracket table over a point, taken at ``OUTER_STEP`` and at half of it
  to bound its drift.  ``newton_solve`` differences its residual
  at the relative step ``fd_step``: ``mechanics.step_solve`` passes 1e-5,
  and the sections of ``loopoids`` keep the default 1e-7.

Row contract: every map these routines difference is called once, on the
stack of all its stencil points, and must map each row of a ``(..., n)``
array the way it maps that row alone.  That holds for every ``f`` given to
``jacobian``, ``complex_step`` and ``newton_solve`` (whose residual is
differenced by ``jacobian``), and for ``directional`` with a matrix or
stack of directions; the chart maps of ``loops`` and
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
    """Jacobian of f at x, or at each row of an ``(N, n)`` stack, from one
    ``complex_step`` along the coordinate axes."""
    n = np.shape(x)[-1]
    axes = np.broadcast_to(np.eye(n), np.shape(x)[:-1] + (n, n))
    return np.moveaxis(complex_step(f, x, axes), np.ndim(x) - 1, -1)


def jacobian(f, x, rel_step=OUTER_STEP):
    """Central-difference Jacobian of f at x, or at each row of an ``(N, n)``
    stack, from one ``directional`` along the coordinate axes: one call of f
    on the ``2 N n`` stencil points."""
    n = np.shape(x)[-1]
    axes = np.broadcast_to(np.eye(n), np.shape(x)[:-1] + (n, n))
    return np.moveaxis(directional(f, x, axes, rel_step), np.ndim(x) - 1, -1)


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


def first_derivatives(stepped):
    """``(complex_jacobian, complex_step)``, or for a map that takes a complex
    step itself (``stepped``) ``(jacobian, directional)``: two stencil rows a direction."""
    return (jacobian, directional) if stepped else (complex_jacobian, complex_step)


def null_space(mat):
    """Orthonormal rows spanning the null space of ``mat``, or the list of
    those of each matrix of an ``(N, m, n)`` stack, from one SVD call.

    Singular values at or below 1e-8 * sigma_max of their matrix count as
    zero.  numpy runs the same LAPACK call on each matrix of a stack, so each
    space equals its matrix's alone, bit for bit.
    """
    mat = np.atleast_2d(mat)
    _, s, vt = np.linalg.svd(mat)
    ranks = np.sum(s > 1e-8 * s[..., :1], axis=-1)
    return vt[ranks:] if mat.ndim == 2 else [v[k:] for v, k in zip(vt, ranks)]


def smallest_singular_value(mat):
    """Least singular value of ``mat`` (0.0 when it is empty), or the
    ``(N,)`` array of those of an ``(N, m, n)`` stack, from one SVD call."""
    mat = np.atleast_2d(mat)
    s = np.linalg.svd(mat, compute_uv=False)
    least = s[..., -1] if s.shape[-1] else np.zeros(s.shape[:-1])
    return least if mat.ndim > 2 else float(least)
