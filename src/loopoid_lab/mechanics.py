"""Discrete Lagrangian mechanics on charted loopoids.

The discrete Euler-Lagrange operator pairs a scalar Lagrangian with the
fundamental fields:

    DL(g, h)_i = X_i(L)(g) along the left fields at g
               - X_i(L)(h) along the right fields at h,

both frames taken at the shared unit beta(g) = alpha(h).  The two discrete
Legendre transforms are the same directional derivatives taken one-sided:
F+L pairs dL with the left fields (valued at beta(g)), F-L with the right
fields (valued at alpha(g)), so a step map gamma satisfies
F-L(gamma(g)) = F+L(g) identically.

The right fields depend on the beta-representative orientation (see
``algebroid``).  The default here is "aligned", under which the two
Legendre transforms agree on unit points for leg-symmetric Lagrangians and
the pair-groupoid leg equations coincide with the composability
constraints; the strict "normal_class" orientation instead reproduces the
free-particle step u -> 2v - u on the pair groupoid.  The orientation is a
system-level switch so every operation stays mutually consistent.
"""

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .algebroid import ALIGNED, make_frame_field, prolong
from .errors import LoopoidLabError, NotComposable
from .loopoids import composable
from .newton import newton_solve
from .numdiff import CHART_STEP, directional, gradient, jacobian, null_space, smallest_singular_value
from .tangent import CovectorElement, cotangent_fibration


@dataclass(frozen=True)
class NewtonConfig:
    """Keyword arguments of ``newton_solve`` for the step map."""

    # rcond cuts singular values below rcond * sigma_max when stepping: the
    # step Jacobian is differenced from differenced data, so directions at
    # the noise floor carry no information
    max_iter: int = 50
    tol: float = 1e-10
    damping: bool = True
    rcond: float = 1e-4
    fd_step: float = 1e-5


@dataclass(frozen=True)
class DiscreteLagrangianSystem:
    loopoid: object
    lagrangian: Callable
    newton: NewtonConfig = field(default_factory=NewtonConfig)
    orientation: str = ALIGNED
    frame_field: Optional[Callable] = None

    def frames(self):
        if self.frame_field is not None:
            return self.frame_field
        ff = make_frame_field(self.loopoid)
        object.__setattr__(self, "frame_field", ff)
        return ff


@dataclass(frozen=True)
class Trajectory:
    points: np.ndarray
    residuals: np.ndarray
    composable_gaps: np.ndarray

    def __len__(self):
        return len(self.points)


def _derivative_along(system, side, g):
    """Directional derivatives of L along the side's frame fields at g."""
    q = system.loopoid
    g = np.asarray(g, dtype=float)
    fields = prolong(q, system.frames(), np.eye(q.rank), side, g, system.orientation)
    # the Lagrangian takes one point, so it runs row by row on the stencil
    lag = lambda points: np.array([float(system.lagrangian(p)) for p in points])
    return directional(lag, g, fields, CHART_STEP)


def el_residual(system, g, h, *, check=True):
    """DL(g, h) in the dual frame at beta(g)."""
    q = system.loopoid
    if check and not composable(q, g, h):
        gap = np.linalg.norm(np.asarray(q.beta(g)) - np.asarray(q.alpha(h)))
        raise NotComposable(f"pair gap {gap:.3e}")
    return _derivative_along(system, "left", g) - _derivative_along(system, "right", h)


def legendre(system, side, g):
    """F+L(g) ("plus") or F-L(g) ("minus") as dual-frame components."""
    if side == "plus":
        return _derivative_along(system, "left", g)
    if side == "minus":
        return _derivative_along(system, "right", g)
    raise ValueError(f"side must be 'plus' or 'minus', got {side!r}")


def legendre_vs_cotangent(system, g):
    """Residual of F(+/-)L against the cotangent fibrations applied to dL."""
    q = system.loopoid
    ff = system.frames()
    g = np.asarray(g, dtype=float)
    dl = gradient(lambda p: system.lagrangian(p), g, CHART_STEP)
    mu = CovectorElement(g, dl)
    plus = legendre(system, "plus", g)
    minus = legendre(system, "minus", g)
    via_beta = cotangent_fibration(q, "beta", mu, ff)
    via_alpha = cotangent_fibration(q, "alpha", mu, ff, orientation=system.orientation)
    return max(
        float(np.max(np.abs(plus - via_beta))),
        float(np.max(np.abs(minus - via_alpha))),
    )


def step_solve(system, g, branch_seed=None):
    """Solve alpha(h) = beta(g) stacked with DL(g, h) = 0 for h.

    g is fixed, so the g-side term of DL (the derivative along the left
    fields at g) is computed once per solve; each residual evaluation
    differentiates only along the right fields at h.

    The Newton seed is the embedded unit of beta(g) nudged toward g's fiber
    offset, which picks the solution branch continuous from the unit;
    ``branch_seed`` adds a caller-chosen offset on top.  Steps go through
    lstsq, so leg equations that repeat the composability constraint leave
    their free coordinates pinned to the seed.
    """
    q = system.loopoid
    g = np.asarray(g, dtype=float)
    bg = np.asarray(q.beta(g), dtype=float)
    seed = np.asarray(q.unit_embed(bg), dtype=float)
    # nudge only along the doubly-vertical directions: enough to leave the
    # unit saddle of the fiber equations, while coordinates the system does
    # not constrain stay pinned at the unit values
    fiber_offset = g - np.asarray(q.unit_embed(q.alpha(g)), dtype=float)
    biv = null_space(
        np.vstack([jacobian(q.alpha, seed, CHART_STEP), jacobian(q.beta, seed, CHART_STEP)])
    )
    if biv.size:
        seed = seed + 0.1 * (biv.T @ (biv @ fiber_offset))
    if branch_seed is not None:
        seed = seed + np.asarray(branch_seed, dtype=float)

    left = _derivative_along(system, "left", g)

    def residual(h):
        return np.concatenate(
            [
                np.asarray(q.alpha(h), dtype=float) - bg,
                left - _derivative_along(system, "right", h),
            ]
        )

    h, _ = newton_solve(residual, seed, **asdict(system.newton))
    return h


def trajectory(system, g0, n_steps, branch_seed=None):
    """Iterate the step map; records EL residuals and composability gaps."""
    q = system.loopoid
    pts = [np.asarray(g0, dtype=float)]
    residuals = []
    gaps = []
    for k in range(n_steps):
        try:
            h = step_solve(system, pts[-1], branch_seed)
        except LoopoidLabError as exc:
            # prefix the step in place, so the type and fields such as
            # SingularJacobian.cond survive
            exc.args = (f"step {k}: {exc}",)
            raise
        residuals.append(float(np.linalg.norm(el_residual(system, pts[-1], h, check=False))))
        gaps.append(
            float(np.linalg.norm(np.asarray(q.beta(pts[-1])) - np.asarray(q.alpha(h))))
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
    differentiated at the embedded unit and at sampled probe points; the
    plus transform moves only along alpha-fiber directions, so the smallest
    singular value is taken of the Jacobian restricted to those columns,
    and F+L is regular when it exceeds 1e-6.  Also cross-checks the step
    map against F-L o gamma = F+L.
    """
    q = system.loopoid
    rng = np.random.default_rng(seed)
    u = np.asarray(u, dtype=float)
    e0 = np.asarray(q.unit_embed(u), dtype=float)

    def chart_map(g):
        return np.concatenate(
            [np.asarray(q.beta(g), dtype=float), legendre(system, "plus", g)]
        )

    def chart_map_minus(g):
        return np.concatenate(
            [np.asarray(q.alpha(g), dtype=float), legendre(system, "minus", g)]
        )

    points = [e0] + [e0 + rng.normal(scale=0.1, size=q.dim_g) for _ in range(5)]
    min_sv_plus = np.inf
    min_sv_minus = np.inf
    jac_unit = None
    for idx, g in enumerate(points):
        fib = null_space(jacobian(q.alpha, g, CHART_STEP))
        j_full = jacobian(chart_map, g)
        if idx == 0:
            jac_unit = j_full
        min_sv_plus = min(min_sv_plus, smallest_singular_value(j_full @ fib.T))
        fib_b = null_space(jacobian(q.beta, g, CHART_STEP))
        j_minus = jacobian(chart_map_minus, g)
        min_sv_minus = min(min_sv_minus, smallest_singular_value(j_minus @ fib_b.T))

    p2 = 0.0
    for _ in range(3):
        g = e0 + rng.normal(scale=0.1, size=q.dim_g)
        try:
            h = step_solve(system, g)
        except LoopoidLabError:
            p2 = np.inf
            break
        p2 = max(
            p2,
            float(np.max(np.abs(legendre(system, "minus", h) - legendre(system, "plus", g)))),
        )

    return {
        "regular": bool(min_sv_plus > 1e-6),
        "min_sv_plus_fiberwise": float(min_sv_plus),
        "min_sv_minus_fiberwise": float(min_sv_minus),
        "unit_jacobian": jac_unit,
        "flow_matches_legendre_residual": p2,
    }
