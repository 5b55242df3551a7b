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
complex-step derivatives of the partial multiplication along fiber
directions; their Lie brackets at unit points, expanded back in the frame,
are the two skew brackets carried by the normal bundle.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FrameSingular, RankDeficient
from .numdiff import complex_jacobian, complex_step, lie_bracket, null_space, smallest_singular_value

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
    e = q.unit_embed(u)
    ja = complex_jacobian(q.alpha, e)
    jb = complex_jacobian(q.beta, e)
    je = complex_jacobian(q.unit_embed, u)

    r = q.rank
    if q.dim_m > 0 and (
        min(smallest_singular_value(ja), smallest_singular_value(jb)) < 1e-8
    ):
        raise RankDeficient(f"alpha/beta Jacobian loses submersion rank at u = {u}")
    if q.preferred_alpha_vertical is not None:
        alpha_vertical = q.preferred_alpha_vertical(u)
    else:
        alpha_vertical = null_space(ja)
    a = np.atleast_2d(alpha_vertical)
    if a.shape != (r, q.dim_g):
        raise RankDeficient(f"alpha-vertical basis shape {a.shape} != ({r}, {q.dim_g})")
    # The frame's rows are checked once, here, against the Jacobians they
    # were built from; prolong trusts them.
    off = float(np.max(np.abs(ja @ a.T), initial=0.0))
    if off > 1e-7:
        raise RankDeficient(f"alpha-vertical basis leaves ker T alpha at rate {off:.2e}")

    rho = (jb @ a.T).T                       # (r, m)
    b = a - rho @ je.T                       # strict: subtract T eps . rho
    off = float(np.max(np.abs(jb @ b.T), initial=0.0))
    if off > 1e-7:
        raise RankDeficient(f"beta-vertical representatives leave ker T beta at rate {off:.2e}")

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
        key = np.round(u, 12).tobytes()
        if key not in cache:
            cache[key] = algebroid_frame(q, u)
        return cache[key]

    return field


def prolong(q, frame_field, coeffs, side, g, orientation=STRICT):
    """Fundamental vector field values at g, a point or a ``(N, dim_g)`` stack.

    Left: the derivative of h -> m(g, h) at the unit of beta(g) along the
    alpha-vertical representative of the section.  Right: that of
    h -> m(h, g) at the unit of alpha(g) along the beta representative in
    the requested orientation.  ``coeffs`` of shape (r,) gives one vector
    per point; a (k, r) matrix gives the (k, dim_g) rows of its k sections.
    Each point's unit, frame and embedded base are resolved once (one
    cached ``frame_field`` request per point), and the multiplication runs
    once, on all ``N k`` complex-step points.  A complex-step point's real
    part is its unit, so it cannot leave the slab; that its direction is
    tangent to the slab is a property of the frame, which
    ``algebroid_frame`` checks once when it builds it.

    Row contract: each point's values equal, bit for bit, those of the
    point alone, so a fundamental field can be differenced on a stencil
    stack in one call.
    """
    rows = g.reshape(-1, q.dim_g)
    if side == "left":
        u = q.beta(rows)
        reps = np.stack([frame_field(p).alpha_vertical for p in u])
    elif side == "right":
        u = q.alpha(rows)
        reps = np.stack([frame_field(p).beta_reps(orientation) for p in u])
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    directions = np.atleast_2d(coeffs) @ reps  # (N, k, dim_g)
    # complex_step orders its points by point, then direction
    fixed = np.repeat(rows, directions.shape[1], axis=0)

    def mul(points):
        return q.mul(fixed, points) if side == "left" else q.mul(points, fixed)

    values = complex_step(mul, q.unit_embed(u), directions)
    return values.reshape(g.shape[:-1] + np.shape(coeffs)[:-1] + (q.dim_g,))


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
    coeffs, *_ = np.linalg.lstsq(mat, value, rcond=None)
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
    unit by central differences of the complex-step fields and expanded
    back in the frame; the TM component of the expansion is reported when
    ``return_tm`` is set and should vanish, since brackets of vertical
    fields stay vertical.
    """
    if frame_field is None:
        frame_field = make_frame_field(q)
    fx = fundamental_field(q, frame_field, x_coeffs, side, orientation)
    fy = fundamental_field(q, frame_field, y_coeffs, side, orientation)
    e = q.unit_embed(u)
    value = lie_bracket(fx, fy, e)
    fr = frame_field(u)
    coeffs, tm = expand_in_frame(fr, side, value, orientation)
    if return_tm:
        return coeffs, tm
    return coeffs


def bracket_table(q, side, u, frame_field):
    """The side's brackets of the frame sections at u as skew constants:
    ``table[k, i, j]`` is coefficient k of [e_i, e_j], one
    ``algebroid_bracket`` per pair i < j."""
    r = q.rank
    table = np.zeros((r, r, r))
    for i in range(r):
        for j in range(i + 1, r):
            table[:, i, j] = algebroid_bracket(q, side, np.eye(r)[i], np.eye(r)[j], u, frame_field)
            table[:, j, i] = -table[:, i, j]
    return table


def check_almost_lie_loopoid(q, u_samples, left_tables, frame_field):
    """max |rho([X,Y]) - [rho X, rho Y]| over frame pairs at sampled units.

    ``left_tables[s]`` is the left ``bracket_table`` at ``u_samples[s]``.
    """
    r = q.rank

    def anchor(k):
        """u -> the anchor of frame section k, on a unit point or a stack."""

        def field(us):
            return np.reshape([frame_field(p).rho_left[k] for p in np.atleast_2d(us)], us.shape)

        return field

    worst = 0.0
    for u, table in zip(np.atleast_2d(u_samples), left_tables):
        fr = frame_field(u)
        for i in range(r):
            for j in range(i + 1, r):
                rho_br = table[:, i, j] @ fr.rho_left
                vf = lie_bracket(anchor(i), anchor(j), u)
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
    matrix whose columns are the anchors of the frame sections.  Both keep
    the row contract: on a ``(..., base_dim)`` stack they return the
    ``(..., rank, rank, rank)`` and ``(..., base_dim, rank)`` stacks of the
    rows' values.
    """

    base_dim: int
    rank: int
    c_fn: Callable
    rho_fn: Callable
    name: str = "skew_algebroid"

    def c(self, x):
        return np.reshape(self.c_fn(x), x.shape[:-1] + (self.rank, self.rank, self.rank))

    def rho(self, x):
        return np.reshape(self.rho_fn(x), x.shape[:-1] + (self.base_dim, self.rank))


def constant_chart(c, rho, name="constant"):
    c = np.asarray(c, dtype=float)
    rho = np.asarray(rho, dtype=float)
    r = c.shape[0]
    m = rho.shape[0]
    return SkewAlgebroidChart(
        base_dim=m,
        rank=r,
        c_fn=lambda x: np.broadcast_to(c, x.shape[:-1] + c.shape),
        rho_fn=lambda x: np.broadcast_to(rho, x.shape[:-1] + rho.shape),
        name=name,
    )


def tangent_chart(m):
    """TM as a skew algebroid: zero bracket constants, identity anchor."""
    return SkewAlgebroidChart(
        base_dim=m,
        rank=m,
        c_fn=lambda x: np.zeros(x.shape[:-1] + (m, m, m)),
        rho_fn=lambda x: np.broadcast_to(np.eye(m), x.shape[:-1] + (m, m)),
        name=f"tangent({m})",
    )


def _as_section(section, rank):
    if callable(section):
        return lambda x: np.reshape(section(x), np.shape(x)[:-1] + (rank,))
    arr = np.asarray(section, dtype=float).reshape(rank)
    return lambda x: np.broadcast_to(arr, np.shape(x)[:-1] + (rank,))


def leibniz_bracket(chart, x_section, y_section, x):
    """[f_i e_i, g_j e_j](x) by the Leibniz rule.

    = f_i g_j c_{ij}(x) + (rho(f)(x) . grad) g - (rho(g)(x) . grad) f,
    the derivative terms being complex steps of the coefficient functions
    along the anchored base directions.
    """
    fx = _as_section(x_section, chart.rank)
    gy = _as_section(y_section, chart.rank)
    f0 = fx(x)
    g0 = gy(x)
    c = chart.c(x)
    rho = chart.rho(x)
    out = np.einsum("kij,i,j->k", c, f0, g0)
    vf = rho @ f0
    vg = rho @ g0
    return out + complex_step(gy, x, vf) - complex_step(fx, x, vg)


def check_almost_lie_chart(chart, x_samples):
    """max |c^k_ij rho_k - [rho_i, rho_j]| over frame pairs at samples, with
    [rho_i, rho_j] = D rho_j . rho_i - D rho_i . rho_j from one complex step
    of ``rho`` per sample."""
    worst = 0.0
    for x in np.atleast_2d(x_samples):
        rho = chart.rho(x)
        drho = complex_step(chart.rho, x, np.eye(chart.base_dim))  # drho[l] = d rho / d x_l
        along = np.einsum("laj,li->aij", drho, rho)  # [a, i, j]: (D rho_j . rho_i)_a
        gap = np.einsum("ak,kij->aij", rho, chart.c(x)) - (along - np.swapaxes(along, 1, 2))
        norms = np.linalg.norm(gap, axis=0)[np.triu_indices(chart.rank, 1)]
        worst = max(worst, float(np.max(norms, initial=0.0)))
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
        out = np.zeros(base.shape[:-1] + (big_r, big_r, big_r))
        out[..., :r, :r, :r] = chart.c(base)
        return out

    jb, jf = pi.join_jacobians()  # horizontal and vertical lifts

    def rho_fn(p):
        base = pi.proj(p)
        # complex points give a complex anchor, which complex_step reads
        out = np.zeros(base.shape[:-1] + (pi.dim_total, big_r), dtype=np.result_type(p, float))
        out[..., :r] = jb @ chart.rho(base)
        out[..., r:] = jf
        return out

    return SkewAlgebroidChart(
        base_dim=pi.dim_total,
        rank=big_r,
        c_fn=c_fn,
        rho_fn=rho_fn,
        name=f"prolongation({chart.name})",
    )
