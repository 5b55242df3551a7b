"""Infinitesimal structure of charted quasiloopoids.

The normal bundle of the unit manifold is realized by per-point frames: an
alpha-vertical basis (null space of T alpha at the embedded unit), the
beta-vertical representatives of the same normal classes
(X^beta_i = X^alpha_i - T eps . rho_i, which forces opposite left/right
anchors), and a basis of the embedded tangent directions.  Frames also carry
an "anchor-aligned" beta basis: the strict representatives reflected across
the bi-vertical subspace, so their T alpha images equal +rho instead of
-rho.  Discrete mechanics defaults to the aligned orientation (it makes the
two Legendre transforms agree on the unit manifold); brackets, anchors and
the inversion identities use the strict one.

Left/right prolongations are fundamental vector fields obtained by
differencing the partial multiplication along fiber directions; their Lie
brackets at unit points, expanded back in the frame, are the two skew
brackets carried by the normal bundle.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FrameSingular, NotOnFiber, RankDeficient
from .numdiff import CHART_STEP, directional, jacobian, lie_bracket, null_space, smallest_singular_value

STRICT = "normal_class"
ALIGNED = "aligned"


@dataclass(frozen=True)
class AlgebroidFrame:
    """Frame of the normal bundle at one unit point."""

    unit_point: np.ndarray
    rank: int
    alpha_vertical: np.ndarray        # (r, dim_g) rows, ker T alpha
    beta_vertical: np.ndarray         # (r, dim_g) strict same-class reps, ker T beta
    beta_vertical_aligned: np.ndarray  # (r, dim_g) reflected reps, T alpha image = +rho
    tm_basis: np.ndarray              # (dim_m, dim_g) image of T eps
    rho_left: np.ndarray              # (r, dim_m) anchors T beta(alpha-vertical)

    def beta_reps(self, orientation):
        if orientation == STRICT:
            return self.beta_vertical
        if orientation == ALIGNED:
            return self.beta_vertical_aligned
        raise ValueError(f"unknown orientation {orientation!r}")


def algebroid_frame(q, u):
    """Compute the frame at the embedded unit of ``u``.

    The basis of ker T alpha (rows) is the instance's preferred frame when it
    has one, otherwise an SVD null space.
    """
    u = np.asarray(u, dtype=float)
    e = q.unit_embed(u)
    ja = jacobian(q.alpha, e, CHART_STEP)
    jb = jacobian(q.beta, e, CHART_STEP)
    je = jacobian(q.unit_embed, u, CHART_STEP)

    r = q.rank
    if q.dim_m > 0 and (
        min(smallest_singular_value(ja), smallest_singular_value(jb)) < 1e-8
    ):
        raise RankDeficient(f"alpha/beta Jacobian loses submersion rank at u = {u}")
    if q.preferred_alpha_vertical is not None:
        alpha_vertical = q.preferred_alpha_vertical(u)
    else:
        alpha_vertical = null_space(ja)
    a = np.atleast_2d(np.asarray(alpha_vertical, dtype=float))
    if a.shape != (r, q.dim_g):
        raise RankDeficient(f"alpha-vertical basis shape {a.shape} != ({r}, {q.dim_g})")
    if q.dim_m > 0 and float(np.max(np.abs(ja @ a.T))) > 1e-7:
        raise RankDeficient("alpha-vertical basis is not in ker T alpha")

    rho = (jb @ a.T).T                       # (r, m)
    b = a - rho @ je.T                       # strict: subtract T eps . rho
    if q.dim_m > 0 and float(np.max(np.abs(jb @ b.T))) > 1e-7:
        raise RankDeficient("beta-vertical representatives left ker T beta")

    biv = null_space(np.vstack([ja, jb]))    # orthonormal rows
    proj = biv.T @ biv if biv.size else np.zeros((q.dim_g, q.dim_g))
    b_aligned = (2.0 * proj @ b.T - b.T).T

    return AlgebroidFrame(
        unit_point=u,
        rank=r,
        alpha_vertical=a,
        beta_vertical=b,
        beta_vertical_aligned=b_aligned,
        tm_basis=je.T,
        rho_left=rho,
    )


def make_frame_field(q):
    """Cached u -> AlgebroidFrame map for use inside field differencing."""
    cache = {}

    def field(u):
        u = np.asarray(u, dtype=float)
        key = np.round(u, 12).tobytes()
        if key not in cache:
            cache[key] = algebroid_frame(q, u)
        return cache[key]

    return field


def prolong(q, frame_field, coeffs, side, g, orientation=STRICT):
    """Fundamental vector field value at g.

    Left: difference h -> m(g, h) at the unit of beta(g) along the
    alpha-vertical representative of the section.  Right: difference
    h -> m(h, g) at the unit of alpha(g) along the beta representative in
    the requested orientation.  ``coeffs`` of shape (r,) gives one vector;
    a (k, r) matrix gives the (k, dim_g) rows of its k sections.  Either
    way the unit, frame and embedded base are resolved once, and the
    multiplication and the slab check each run once, on all stencil points.
    """
    g = np.asarray(g, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    if side == "left":
        u = q.beta(g)
        reps = frame_field(u).alpha_vertical
        slab = q.alpha
    elif side == "right":
        u = q.alpha(g)
        reps = frame_field(u).beta_reps(orientation)
        slab = q.beta
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    base = q.unit_embed(u)

    def mul(points):
        # the stencil's map: every point it evaluates must stay on the slab
        gap = np.max(np.linalg.norm(slab(points) - u, axis=-1), initial=0.0)
        if gap > 1e-6:
            raise NotOnFiber(f"difference step leaves the slab by {gap:.2e}")
        fixed = np.repeat(g[None, :], len(points), axis=0)
        return q.mul(fixed, points) if side == "left" else q.mul(points, fixed)

    directions = coeffs @ reps
    return directional(mul, base, np.atleast_2d(directions), CHART_STEP).reshape(directions.shape)


def fundamental_field(q, frame_field, coeffs, side, orientation=STRICT):
    """The prolonged field as a plain chart vector field g -> vector."""

    def field(g):
        return prolong(q, frame_field, coeffs, side, g, orientation)

    return field


def expand_in_frame(fr, side, value, orientation=STRICT):
    """Coefficients of a vertical vector in [side basis | TM basis].

    Returns (side_coeffs, tm_coeffs); raises FrameSingular on an
    ill-conditioned frame matrix.
    """
    rows = fr.alpha_vertical if side == "left" else fr.beta_reps(orientation)
    mat = np.vstack([rows, fr.tm_basis]).T
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] < 1e-10 * sv[0]:
        raise FrameSingular(f"frame condition {sv[0] / sv[-1]:.2e}")
    coeffs, *_ = np.linalg.lstsq(mat, np.asarray(value, dtype=float), rcond=None)
    return coeffs[: fr.rank], coeffs[fr.rank :]


def algebroid_bracket(
    q,
    side,
    x_coeffs,
    y_coeffs,
    u,
    frame_field=None,
    orientation=STRICT,
    return_tm=False,
):
    """Skew bracket of two constant-in-frame sections, in frame coefficients.

    The Lie bracket of the prolonged fields is evaluated at the embedded
    unit by nested central differences and expanded back in the frame; the
    TM component of the expansion is reported when ``return_tm`` is set and
    should vanish, since brackets of vertical fields stay vertical.
    """
    if frame_field is None:
        frame_field = make_frame_field(q)
    u = np.asarray(u, dtype=float)
    fx = fundamental_field(q, frame_field, x_coeffs, side, orientation)
    fy = fundamental_field(q, frame_field, y_coeffs, side, orientation)
    e = q.unit_embed(u)
    value = lie_bracket(fx, fy, e)
    fr = frame_field(u)
    coeffs, tm = expand_in_frame(fr, side, value, orientation)
    if return_tm:
        return coeffs, tm
    return coeffs


def check_almost_lie_loopoid(q, u_samples, frame_field=None):
    """max |rho([X,Y]) - [rho X, rho Y]| over frame pairs at sampled units."""
    if frame_field is None:
        frame_field = make_frame_field(q)
    r = q.rank
    worst = 0.0
    for u in np.atleast_2d(np.asarray(u_samples, dtype=float)):
        fr = frame_field(u)
        for i in range(r):
            for j in range(i + 1, r):
                ei = np.eye(r)[i]
                ej = np.eye(r)[j]
                br = algebroid_bracket(q, "left", ei, ej, u, frame_field)
                rho_br = br @ fr.rho_left
                fi = lambda up, k=i: frame_field(up).rho_left[k]
                fj = lambda up, k=j: frame_field(up).rho_left[k]
                vf = lie_bracket(fi, fj, u)
                worst = max(worst, float(np.linalg.norm(rho_br - vf)))
    return worst


# ---------------------------------------------------------------------------
# skew-algebroid charts (structure functions + anchor functions)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SkewAlgebroidChart:
    """Skew algebroid over R^base_dim in a frame of rank ``rank``.

    ``c_fn(x)`` returns the (rank, rank, rank) structure tensor c[k, i, j],
    antisymmetric in (i, j); ``rho_fn(x)`` the (base_dim, rank) anchor
    matrix whose columns are the anchors of the frame sections.
    """

    base_dim: int
    rank: int
    c_fn: Callable
    rho_fn: Callable
    name: str = "skew_algebroid"

    def c(self, x):
        t = np.asarray(self.c_fn(np.asarray(x, dtype=float)), dtype=float)
        return t.reshape(self.rank, self.rank, self.rank)

    def rho(self, x):
        m = np.asarray(self.rho_fn(np.asarray(x, dtype=float)), dtype=float)
        return m.reshape(self.base_dim, self.rank)


def constant_chart(c, rho, name="constant"):
    c = np.asarray(c, dtype=float)
    rho = np.asarray(rho, dtype=float)
    r = c.shape[0]
    m = rho.shape[0]
    return SkewAlgebroidChart(
        base_dim=m,
        rank=r,
        c_fn=lambda x: c,
        rho_fn=lambda x: rho,
        name=name,
    )


def tangent_chart(m):
    """TM as a skew algebroid: zero bracket constants, identity anchor."""
    return SkewAlgebroidChart(
        base_dim=m,
        rank=m,
        c_fn=lambda x: np.zeros((m, m, m)),
        rho_fn=lambda x: np.eye(m),
        name=f"tangent({m})",
    )


def _as_section(section, rank):
    if callable(section):
        return lambda x: np.asarray(section(x), dtype=float).reshape(rank)
    arr = np.asarray(section, dtype=float).reshape(rank)
    return lambda x: arr


def leibniz_bracket(chart, x_section, y_section, x):
    """[f_i e_i, g_j e_j](x) by the Leibniz rule.

    = f_i g_j c_{ij}(x) + (rho(f)(x) . grad) g - (rho(g)(x) . grad) f,
    the derivative terms being central differences of the coefficient
    functions along the anchored base directions.
    """
    x = np.asarray(x, dtype=float)
    fx = _as_section(x_section, chart.rank)
    gy = _as_section(y_section, chart.rank)
    f0 = fx(x)
    g0 = gy(x)
    c = chart.c(x)
    rho = chart.rho(x)
    out = np.einsum("kij,i,j->k", c, f0, g0)
    vf = rho @ f0
    vg = rho @ g0
    out = out + directional(gy, x, vf, CHART_STEP) - directional(fx, x, vg, CHART_STEP)
    return out


def check_almost_lie_chart(chart, x_samples):
    """max |c^k_ij rho_k - [rho_i, rho_j]| over frame pairs at samples."""
    worst = 0.0
    for x in np.atleast_2d(np.asarray(x_samples, dtype=float)):
        c = chart.c(x)
        rho = chart.rho(x)
        for i in range(chart.rank):
            for j in range(i + 1, chart.rank):
                lhs = rho @ c[:, i, j]
                fi = lambda p, k=i: chart.rho(p)[:, k]
                fj = lambda p, k=j: chart.rho(p)[:, k]
                rhs = lie_bracket(fi, fj, x, CHART_STEP)
                worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def prolong_algebroid(chart, pi):
    """Prolongation over a coordinate fibration pi: P -> M.

    Carrier {(X, V): rho(X) = T pi(V)} over P, rank = rank + dim_fiber.  In
    the frame (horizontal lifts of the input frame, vertical fiber
    directions) the structure tensor embeds the input one and the anchor
    stacks rho with the vertical identity.  The anchor of a bracket is the
    bracket of anchors by construction, so the output is almost Lie whenever
    its own bracket closes (in particular for almost-Lie inputs of any
    Jacobi status, and always over a point base).  Since T pi = [I 0] has
    full rank, the carrier has rank + dim_fiber at every point, and the
    first-factor projection intertwines the anchors exactly.  ``pi.dim_base``
    must equal ``chart.base_dim``; the spec reader checks it.
    """
    nf = pi.dim_fiber
    r = chart.rank
    big_r = r + nf

    def c_fn(p):
        base = pi.proj(p)
        out = np.zeros((big_r, big_r, big_r))
        out[:r, :r, :r] = chart.c(base)
        return out

    jb, jf = pi.join_jacobians()  # horizontal and vertical lifts

    def rho_fn(p):
        base = pi.proj(p)
        out = np.zeros((pi.dim_total, big_r))
        out[:, :r] = jb @ chart.rho(base)
        out[:, r:] = jf
        return out

    return SkewAlgebroidChart(
        base_dim=pi.dim_total,
        rank=big_r,
        c_fn=c_fn,
        rho_fn=rho_fn,
        name=f"prolongation({chart.name})",
    )
