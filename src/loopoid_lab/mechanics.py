"""Discrete Lagrangian mechanics on charted loopoids.

The discrete Euler-Lagrange operator pairs a scalar Lagrangian with the
fundamental fields:

    DL(g, h)_i = X_i(L)(g) along the left fields at g
               - X_i(L)(h) along the right fields at h,

both frames taken at the shared unit beta(g) = alpha(h).  The two discrete
Legendre transforms are the same directional derivatives taken one-sided:
F+L pairs dL with the left fields (valued at beta(g)), F-L with the right
fields (valued at alpha(g)), so a step map gamma satisfies
F-L(gamma(g)) = F+L(g) identically.  They are the two cotangent fibrations
of T*G over the dual of the normal bundle, beta~ and alpha~, applied to dL;
the package has no fibration apart from them, and no product of covectors,
which is not well defined on a loopoid.

The fundamental fields and the derivatives of L along them are complex
steps (``numdiff.complex_step``), so the Legendre transforms and the step
map's residual are exact to rounding in their inner derivative; only their
outer derivatives, Newton's step Jacobian and the regularity check's, are
central differences.

The right fields depend on the beta-representative orientation (see
``algebroid``).  The default here is "aligned", under which the two
Legendre transforms agree on unit points for leg-symmetric Lagrangians and
the pair-groupoid leg equations coincide with the composability
constraints; the strict "normal_class" orientation instead reproduces the
free-particle step u -> 2v - u on the pair groupoid.  The orientation is a
system-level switch so every operation stays mutually consistent.

Row contract: a system's Lagrangian maps ``(..., dim_g)`` points to
``(...)`` values, each equal bit for bit to its value at that point alone,
so a stencil or a complex step evaluates it once on all its points.  The
derivatives along the frame fields, the Legendre transforms and the step
map's residual keep the same contract on ``(N, dim_g)`` stacks, so Newton's
step Jacobian and the regularity check's chart maps are differenced in one
call each.  A Lagrangian takes ndarrays of any float or complex dtype and
never casts them; the spec Lagrangians return complex values for complex
points.  Points are cast to float only where a trajectory starts.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .algebroid import ALIGNED, make_frame_field, prolong
from .errors import LoopoidLabError, NotComposable, NumericalNoise
from .loopoids import composable
from .newton import newton_solve
from .numdiff import complex_jacobian, complex_step, directional, null_space, smallest_singular_value


# the step map's Newton tolerance on the residual norm
STEP_TOL = 1e-10


@dataclass(frozen=True)
class DiscreteLagrangianSystem:
    loopoid: object
    lagrangian: Callable
    orientation: str = ALIGNED

    @cached_property
    def frames(self):
        return make_frame_field(self.loopoid)


@dataclass(frozen=True)
class Trajectory:
    points: np.ndarray
    residuals: np.ndarray
    composable_gaps: np.ndarray

    def __len__(self):
        return len(self.points)


def _derivative_along(system, side, g):
    """Directional derivatives of L along the side's frame fields at g, a
    point or an ``(N, dim_g)`` stack."""
    fields = prolong(system.loopoid, system.frames, side, g, system.orientation)
    return complex_step(system.lagrangian, g, fields)


def el_residual(system, g, h, *, check=True):
    """DL(g, h) in the dual frame at beta(g)."""
    q = system.loopoid
    if check and not composable(q, g, h):
        gap = np.linalg.norm(q.beta(g) - q.alpha(h))
        raise NotComposable(f"pair gap {gap:.3e}")
    return _derivative_along(system, "left", g) - _derivative_along(system, "right", h)


def legendre(system, side, g):
    """F+L(g) ("plus") or F-L(g) ("minus") as dual-frame components, at a
    point or at each row of an ``(N, dim_g)`` stack.

    A transform that is not finite, as where the Lagrangian overflows,
    raises ``NumericalNoise`` naming the side and the first such point.
    """
    if side not in ("plus", "minus"):
        raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")
    value = _derivative_along(system, "left" if side == "plus" else "right", g)
    bad = ~np.all(np.isfinite(value), axis=-1)
    if np.any(bad):
        point = g[np.argmax(bad)] if bad.ndim else g
        raise NumericalNoise(f"the {side} Legendre transform is not finite at {np.asarray(point).tolist()}")
    return value


def step_solve(system, g):
    """Solve alpha(h) = beta(g) stacked with DL(g, h) = 0 for h; returns h
    and the norm of DL(g, h), the Euler-Lagrange block of Newton's final
    residual.

    g is fixed, so the g-side term of DL (the derivative along the left
    fields at g) is computed once per solve; each residual evaluation
    differentiates only along the right fields at h.  The residual takes a
    point or a stack of them, so Newton's step Jacobian is one residual call
    on its stencil stack.

    The Newton seed is the embedded unit of beta(g) nudged toward g's fiber
    offset, which picks the solution branch continuous from the unit.
    Steps go through lstsq, so leg equations that repeat the composability
    constraint leave their free coordinates pinned to the seed.
    """
    q = system.loopoid
    bg = q.beta(g)
    seed = q.unit_embed(bg)
    # nudge only along the doubly-vertical directions, the bi-vertical rows
    # of the frame at beta(g): enough to leave the unit saddle of the fiber
    # equations, while coordinates the system does not constrain stay pinned
    # at the unit values
    fiber_offset = g - q.unit_embed(q.alpha(g))
    biv = system.frames(bg).bivertical
    if biv.size:
        seed = seed + 0.1 * (biv.T @ (biv @ fiber_offset))

    left = _derivative_along(system, "left", g)

    def residual(h):
        return np.concatenate(
            [
                q.alpha(h) - bg,
                left - _derivative_along(system, "right", h),
            ],
            axis=-1,
        )

    # rcond cuts singular values below rcond * sigma_max when stepping: the
    # step Jacobian is a central difference at fd_step, so directions at its
    # noise floor carry no information
    h, info = newton_solve(residual, seed, tol=STEP_TOL, rcond=1e-4, fd_step=1e-5)
    return h, float(np.linalg.norm(info["residual_vector"][len(bg):]))


def trajectory(system, g0, n_steps):
    """Iterate the step map; records EL residuals and composability gaps."""
    q = system.loopoid
    pts = [np.asarray(g0, dtype=float)]
    residuals = []
    gaps = []
    for k in range(n_steps):
        try:
            h, residual = step_solve(system, pts[-1])
        except LoopoidLabError as exc:
            # prefix the step in place, so the type and fields such as
            # SingularJacobian.cond survive
            exc.args = (f"step {k}: {exc}",)
            raise
        residuals.append(residual)
        gaps.append(
            float(np.linalg.norm(q.beta(pts[-1]) - q.alpha(h)))
        )
        pts.append(h)
    return Trajectory(
        points=np.asarray(pts),
        residuals=np.asarray(residuals),
        composable_gaps=np.asarray(gaps),
    )


def regularity_check(system, u, seed=0):
    """Fiberwise regularity of F+L near the unit of ``u``.

    The chart map g -> (beta(g), F+L(g)) into the dual-bundle chart is
    differentiated at the embedded unit and at five probe points near it,
    all by one ``directional`` call on their stack; F+L moves only along
    alpha-fiber directions, so the smallest singular value is taken of the
    Jacobian restricted to those columns (the fibers of all six points from
    one stacked ``null_space``, their values from one stacked
    ``smallest_singular_value``), and F+L is regular when it exceeds 1e-6.
    Also cross-checks the step map against F-L o gamma = F+L on three
    probe points; a probe whose step solve fails makes the residual
    infinite, and ``probe_failure`` holds its error's type and message
    (None when every probe solves).
    """
    q = system.loopoid
    rng = np.random.default_rng(seed)
    e0 = q.unit_embed(u)

    def chart_map(g):
        return np.concatenate([q.beta(g), legendre(system, "plus", g)], axis=-1)

    def chart_map_minus(g):
        return np.concatenate([q.alpha(g), legendre(system, "minus", g)], axis=-1)

    points = np.stack([e0] + [e0 + rng.normal(scale=0.1, size=q.dim_g) for _ in range(5)])
    axes = np.broadcast_to(np.eye(q.dim_g), points.shape + (q.dim_g,))

    def fiberwise(chart, fibration):
        """The chart's Jacobians at the points, and their least singular value on the fibers."""
        jacs = np.swapaxes(directional(chart, points, axes), 1, 2)
        fibs = np.stack(null_space(complex_jacobian(fibration, points)))
        return jacs, smallest_singular_value(jacs @ np.swapaxes(fibs, 1, 2)).min()

    jacs, min_sv_plus = fiberwise(chart_map, q.alpha)
    _, min_sv_minus = fiberwise(chart_map_minus, q.beta)

    p2 = 0.0
    failure = None
    for _ in range(3):
        g = e0 + rng.normal(scale=0.1, size=q.dim_g)
        try:
            h, _ = step_solve(system, g)
        except LoopoidLabError as exc:
            p2 = np.inf
            failure = {"type": type(exc).__name__, "message": str(exc)}
            break
        # DL(g, h) = F+L(g) - F-L(h), finite since the solve converged
        p2 = max(p2, float(np.max(np.abs(el_residual(system, g, h, check=False)))))

    return {
        "regular": bool(min_sv_plus > 1e-6),
        "min_sv_plus_fiberwise": float(min_sv_plus),
        "min_sv_minus_fiberwise": float(min_sv_minus),
        "unit_jacobian": jacs[0],
        "flow_matches_legendre_residual": p2,
        "probe_failure": failure,
    }
