"""Charted quasiloopoids and loopoids.

An instance is a chart R^dim_g with two submersions alpha, beta onto an
M-chart R^dim_m, a unit embedding, and a multiplication formula that is
smooth on (a slab around) the composability locus beta(g) = alpha(h).
Numerically the partial product is total on the tolerance slab
||beta(g) - alpha(h)|| < COMPOSABLE_TOL; callers move the right factor onto
the alpha-fiber with the local section through it (``build_local_section``,
the one fiber projection here) before composing.

Constructions: the product of a smooth loop with a pair groupoid, the
odd-diffeomorphism quasiloopoid on a constrained 3-coordinate chart, and
the prolongation over a coordinate fibration.  The pair groupoid M x M is
the product of the one-point loop ``loops.POINT`` with pair(n), and a loop
seen as a loopoid over a point is its product with pair(0).

Row contract: the alpha, beta, unit_embed, mul and inverse of every
construction here, and the proj, split and join of ``SplitFibration``,
take ``(..., d)`` operands with equal leading shapes and return ``(...,
d')``, each row equal bit for bit to the map of that row alone.  The maps
work along the last axis only and never broadcast one point against a
stack, so a caller that pairs a fixed point with a stack of points repeats
it first.  Operands are ndarrays of any float or complex dtype and the maps
never cast them: a complex input gives a complex output, so a ``1e-30j``
step carries a derivative.  Data is cast to float once, where it enters the
program: ``specio`` reads spec numbers and ``cli`` command-line points.
"""

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import NotMonotone, NotOdd
from .loops import POINT
from .newton import newton_solve
from .numdiff import complex_jacobian, complex_step, null_space, smallest_singular_value

COMPOSABLE_TOL = 1e-9  # (g, h) compose when ||beta(g) - alpha(h)|| is below this


@dataclass(frozen=True)
class ChartedQuasiloopoid:
    """Coordinate-chart model of a quasiloopoid G over M."""

    dim_g: int
    dim_m: int
    alpha: Callable
    beta: Callable
    unit_embed: Callable
    mul: Callable
    sampler: Callable  # (rng, n) -> (n, dim_g)
    inverse: Optional[Callable] = None
    inverse_side: str = "both"  # "both" for I.P. (see claims_ip), "left" for a left inverse only
    claims_loopoid: bool = False
    name: str = "quasiloopoid"
    preferred_alpha_vertical: Optional[np.ndarray] = None  # (r, dim_g), the same at every unit

    @property
    def rank(self):
        return self.dim_g - self.dim_m

    @property
    def claims_ip(self):
        """The inverse property is claimed exactly when the inversion is two-sided."""
        return self.inverse is not None and self.inverse_side == "both"

    def sample_g(self, rng, n):
        return self.sampler(rng, n)

    def sample_m(self, rng, n):
        return rng.normal(scale=0.3, size=(n, self.dim_m))


def composable(q, g, h):
    """True when ||beta(g) - alpha(h)|| is inside the tolerance slab."""
    gap = np.linalg.norm(q.beta(g) - q.alpha(h))
    return bool(gap < COMPOSABLE_TOL)


def sample_composable_pairs(q, rng, n):
    """Seeded (g, h) samples on the composability locus, as an ``(n, 2,
    dim_g)`` stack: the local section through each h moves it onto the
    alpha-fiber over beta(g).  Its seed is on that fiber, and its solve
    returns there, wherever alpha is linear and alpha o eps = id."""
    gs = q.sample_g(rng, n)
    hs = q.sample_g(rng, n)
    moved = [build_local_section(q, "alpha", h)(b) for b, h in zip(q.beta(gs), hs)]
    return np.stack([gs, np.reshape(moved, gs.shape)], axis=1)


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


def pair_groupoid(n):
    """M x M with (u, v)(v, w) = (u, w) and iota(u, v) = (v, u): the
    product of the one-point loop with pair(n)."""
    return replace(product_loopoid(POINT, n), name=f"pair_groupoid({n})")


def product_loopoid(loop, n):
    """Loop x pair groupoid: g = (x, s, t), alpha = s, beta = t.

    Product (x, s, t)(y, t, r) = (x * y, s, r).  Inherits the loop's
    inversion as iota(x, s, t) = (x^{-1}, t, s) when present.
    """
    d = loop.dim

    def alpha(g):
        return g[..., d : d + n]

    def beta(g):
        return g[..., d + n :]

    def unit_embed(u):
        out = np.empty(u.shape[:-1] + (d + 2 * n,), dtype=np.result_type(u, float))
        out[..., :d] = loop.unit
        out[..., d : d + n] = u
        out[..., d + n :] = u
        return out

    def mul(g, h):
        return np.concatenate([loop.mul(g[..., :d], h[..., :d]), g[..., d : d + n], h[..., d + n :]], axis=-1)

    inverse = None
    if loop.inverse is not None:
        def inverse(g):
            return np.concatenate([loop.inverse(g[..., :d]), g[..., d + n :], g[..., d : d + n]], axis=-1)

    def sampler(rng, k):
        xs = loop.sample(rng, k)
        legs = rng.normal(scale=0.4, size=(k, 2 * n))
        return np.concatenate([xs, legs], axis=1)

    # loop directions first, then the beta-leg directions
    pav = np.zeros((d + n, d + 2 * n))
    pav[:d, :d] = np.eye(d)
    pav[d:, d + n :] = np.eye(n)

    return ChartedQuasiloopoid(
        dim_g=d + 2 * n,
        dim_m=n,
        alpha=alpha,
        beta=beta,
        unit_embed=unit_embed,
        mul=mul,
        sampler=sampler,
        inverse=inverse,
        claims_loopoid=True,
        name=f"product({loop.name},{n})",
        preferred_alpha_vertical=pav,
    )


def phi_quasiloopoid(phi, phi_name="phi"):
    """Constrained sub-pair-groupoid chart driven by an odd diffeomorphism.

    Points are pairs ((a1, b1), (a2, b2)) of the plane pair groupoid with
    a1 - a2 = phi(b1 - b2); the chart stores the free coordinates
    (a1, b1, b2) and reconstructs a2, which keeps the constraint exact.
    alpha reads (a1, b1); beta reads (a2, b2); the product of
    (a1, b1, b2) and (a2, b2, b3) is (a1, b1, b3).  The stored inverse swaps
    the two pairs and is a left inverse only.
    """
    xs = np.random.default_rng(0).normal(size=25)
    odd_resid = max(abs(phi(-x) + phi(x)) for x in xs)
    if odd_resid > 1e-9:
        raise NotOdd(f"phi(-x) + phi(x) residual {odd_resid:.3e} on samples")
    # phi acts elementwise, so its derivative along the all-ones direction
    # holds the slope at each sample
    points = np.concatenate([xs, [0.0]])
    if np.min(np.abs(complex_step(phi, points, np.ones_like(points)))) < 1e-9:
        raise NotMonotone("phi' vanishes on samples")

    def alpha(g):
        return g[..., :2]

    def beta(g):
        return np.stack([g[..., 0] - phi(g[..., 1] - g[..., 2]), g[..., 2]], axis=-1)

    def unit_embed(u):
        return np.concatenate([u, u[..., 1:]], axis=-1)

    def mul(g, h):
        return np.concatenate([g[..., :2], h[..., 2:]], axis=-1)

    def inverse(g):
        return np.stack([g[..., 0] - phi(g[..., 1] - g[..., 2]), g[..., 2], g[..., 1]], axis=-1)

    return ChartedQuasiloopoid(
        dim_g=3,
        dim_m=2,
        alpha=alpha,
        beta=beta,
        unit_embed=unit_embed,
        mul=mul,
        sampler=lambda rng_, k: rng_.normal(scale=0.4, size=(k, 3)),
        inverse=inverse,
        inverse_side="left",
        claims_loopoid=False,
        name=f"phi_quasiloopoid({phi_name})",
    )


@dataclass(frozen=True)
class SplitFibration:
    """The coordinate fibration R^dim_total -> R^dim_base.

    ``proj`` keeps the first dim_base coordinates, the fiber coordinates are
    the rest, ``split`` returns (base, fiber) and ``join`` concatenates
    them, so the Jacobians of ``join`` are the constant blocks [I; 0] (base)
    and [0; I] (fiber).
    """

    dim_total: int
    dim_base: int

    @property
    def dim_fiber(self):
        return self.dim_total - self.dim_base

    def proj(self, p):
        return p[..., : self.dim_base]

    def split(self, p):
        return p[..., : self.dim_base], p[..., self.dim_base :]

    def join(self, base, fib):
        return np.concatenate([base, fib], axis=-1)

    def join_jacobians(self):
        """(d join / d base, d join / d fiber): (dim_total, dim_base) and (dim_total, dim_fiber)."""
        m, nf = self.dim_base, self.dim_fiber
        return np.vstack([np.eye(m), np.zeros((nf, m))]), np.vstack([np.zeros((m, nf)), np.eye(nf)])


def prolongation_loopoid(q, pi):
    """Prolongation over a coordinate fibration pi: P -> M.

    Carrier {(p, g, p'): pi(p) = alpha(g), beta(g) = pi(p')}, charted by the
    free coordinates (f, g, f') with p = join(alpha(g), f) and
    p' = join(beta(g), f').  Anchors read the embedded legs, units embed as
    (p, eps(pi(p)), p), the product keeps the outer fiber coordinates, and
    the inversion (when q has one) swaps them around g^{-1}.
    """
    nf = pi.dim_fiber
    ng = q.dim_g

    def unpack(z):
        return z[..., :nf], z[..., nf : nf + ng], z[..., nf + ng :]

    def alpha(z):
        f, g, _ = unpack(z)
        return pi.join(q.alpha(g), f)

    def beta(z):
        f, g, f2 = unpack(z)
        return pi.join(q.beta(g), f2)

    def unit_embed(p):
        base, fib = pi.split(p)
        return np.concatenate([fib, q.unit_embed(base), fib], axis=-1)

    def mul(z, w):
        f, g, _ = unpack(z)
        _, h, fw2 = unpack(w)
        return np.concatenate([f, q.mul(g, h), fw2], axis=-1)

    inverse = None
    if q.inverse is not None:
        def inverse(z):
            f, g, f2 = unpack(z)
            return np.concatenate([f2, q.inverse(g), f], axis=-1)

    def sampler(rng, k):
        gs = q.sample_g(rng, k)
        fs = rng.normal(scale=0.4, size=(k, 2 * nf))
        return np.concatenate([fs[:, :nf], gs, fs[:, nf:]], axis=1)

    pav = None
    inner = q.preferred_alpha_vertical
    if inner is not None:
        pav = np.zeros((len(inner) + nf, nf + ng + nf))
        pav[: len(inner), nf : nf + ng] = inner
        pav[len(inner) :, nf + ng :] = np.eye(nf)

    return ChartedQuasiloopoid(
        dim_g=nf + ng + nf,
        dim_m=pi.dim_total,
        alpha=alpha,
        beta=beta,
        unit_embed=unit_embed,
        mul=mul,
        sampler=sampler,
        inverse=inverse,
        inverse_side=q.inverse_side,
        claims_loopoid=q.claims_loopoid,
        name=f"prolongation({q.name})",
        preferred_alpha_vertical=pav,
    )


def loop_as_loopoid(loop):
    """A smooth loop seen as a loopoid over a point: the product with pair(0)."""
    return replace(product_loopoid(loop, 0), name=f"loop({loop.name})")


# ---------------------------------------------------------------------------
# sections, axiom checking
# ---------------------------------------------------------------------------


def build_local_section(q, side, through):
    """A map s with s(q0) = through and side(s(q')) = q' near q0 = side(through).

    Newton projection onto the side fiber from a seed moved along the unit
    embedding.  Raises NoConvergence when the projection stalls.
    """
    if side not in ("alpha", "beta"):
        raise ValueError(f"side must be 'alpha' or 'beta', got {side!r}")
    side_map = q.alpha if side == "alpha" else q.beta
    q0 = side_map(through)
    e0 = q.unit_embed(q0)

    def section(qp):
        res = lambda p: side_map(p) - qp
        p, _ = newton_solve(res, through + (q.unit_embed(qp) - e0), tol=1e-11, max_iter=60)
        return p

    return section


@dataclass(frozen=True)
class AxiomReport:
    n_samples: int
    seed: int
    unit_section_residual: float
    left_unit_residual: float
    right_unit_residual: float
    alpha_min_sv: float
    beta_min_sv: float
    submersions_ok: bool
    unities_associativity_residual: float
    unities_definedness_mismatches: int
    alpha_anchor_residual: float
    beta_anchor_residual: float
    left_translation_min_sv: float
    right_translation_min_sv: float
    translation_fiber_residual: float
    translations_ok: bool
    is_loopoid: bool
    left_ip_residual: Optional[float]
    right_ip_residual: Optional[float]
    ip_identity_residual: Optional[float]
    is_ip: Optional[bool]
    tol: float = 1e-8

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _worst(*stacks):
    """Largest row norm of the stacks; ``max`` skips a NaN row."""
    return max([0.0] + [float(np.linalg.norm(row)) for rows in stacks for row in rows])


def check_axioms(q, n_samples=25, seed=0, tol=1e-8):
    """Sampled axiom audit: units, submersions, unities associativity, the
    anchor-morphism property, translation invertibility on fibers, and
    inversion residuals when an inversion map is present.

    The samples are the rows of one stack: each chart map runs once per
    quantity, the side-map Jacobians are one stacked complex step, their
    null spaces and least singular values one SVD per stack, and only each
    sample's fiber images, expanded in its target fiber, are solved alone.
    A residual is the 1-D norm of one row: an ``axis=`` norm can round
    differently.
    """

    def defined(x, y):
        return np.array([np.linalg.norm(row) for row in q.beta(x) - q.alpha(y)]) < COMPOSABLE_TOL

    def on_fibers(point_jacs, product_jacs, points, translate):
        """(min sv, residual) of ``translate`` between side-map fibers; (inf,
        0) where they are points.  One complex step covers all (sample, fiber
        direction) rows, so fiber dimensions may differ between samples."""
        fibs = null_space(point_jacs)
        rows = [i for i, fib in enumerate(fibs) for _ in fib]
        if not rows:
            return np.inf, 0.0
        imgs = complex_step(lambda p: translate(rows, p), points[rows], np.concatenate(fibs)[:, None])[:, 0]
        svs, resids = [np.inf], [0.0]
        for target, img in zip(null_space(product_jacs), np.split(imgs, np.cumsum([len(fib) for fib in fibs])[:-1])):
            if len(img):
                coeff, *_ = np.linalg.lstsq(target.T, img.T, rcond=None)
                svs.append(smallest_singular_value(coeff))
                resids.append(float(np.max(np.abs(target.T @ coeff - img.T))))
        return min(svs), max(resids)

    rng = np.random.default_rng(seed)
    us = q.sample_m(rng, n_samples)
    es = q.unit_embed(us)
    unit_sec = _worst(q.alpha(es) - us, q.beta(es) - us)

    pairs = sample_composable_pairs(q, rng, n_samples)
    gs, hs = pairs[:, 0], pairs[:, 1]
    ags, bgs, bhs = q.alpha(gs), q.beta(gs), q.beta(hs)
    eas, ebs = q.unit_embed(ags), q.unit_embed(bgs)
    ghs = q.mul(gs, hs)
    right_unit = _worst(q.mul(gs, ebs) - gs)
    left_unit = _worst(q.mul(eas, gs) - gs)

    ja_g, ja_h, ja_gh = np.split(complex_jacobian(q.alpha, np.concatenate([gs, hs, ghs])), 3)
    jb_g, jb_gh = np.split(complex_jacobian(q.beta, np.concatenate([gs, ghs])), 2)
    a_min = smallest_singular_value(ja_g).min(initial=np.inf)
    b_min = smallest_singular_value(jb_g).min(initial=np.inf)

    a_anchor = _worst(q.alpha(ghs) - ags)
    b_anchor = _worst(q.beta(ghs) - bhs)

    # unities associativity with definedness bookkeeping, unit in each slot
    ua_resid, ua_mismatch = 0.0, 0
    for x, y, z in ((eas, gs, hs), (gs, ebs, hs), (gs, hs, q.unit_embed(bhs))):
        xy, yz = q.mul(x, y), q.mul(y, z)
        lhs_def = defined(x, y) & defined(xy, z)
        rhs_def = defined(y, z) & defined(x, yz)
        ua_resid = max(ua_resid, _worst((q.mul(xy, z) - q.mul(x, yz))[lhs_def & rhs_def]))
        ua_mismatch += int(np.sum(lhs_def != rhs_def))

    # translations restricted to fiber directions: left translation by g
    # on the alpha-fiber of h, right translation by h on the beta-fiber of g
    lt_min, lt_resid = on_fibers(ja_h, ja_gh, hs, lambda rows, p: q.mul(gs[rows], p))
    rt_min, rt_resid = on_fibers(jb_g, jb_gh, gs, lambda rows, p: q.mul(p, hs[rows]))
    fiber_resid = max(lt_resid, rt_resid)

    lip = rip = ipid = 0.0
    have_inv = q.inverse is not None
    if have_inv:
        # definedness is part of the property: a composability gap in
        # g^{-1}(gh) or (gh)h^{-1} counts against the residual
        gis, his = q.inverse(gs), q.inverse(hs)
        lip = _worst(q.beta(gis) - q.alpha(ghs), q.mul(gis, ghs) - hs)
        rip = _worst(q.beta(ghs) - q.alpha(his), q.mul(ghs, his) - gs)
        ipid = _worst(q.mul(gs, gis) - eas, q.mul(gis, gs) - ebs, q.inverse(gis) - gs)

    submersions_ok = q.dim_m == 0 or (a_min > 1e-7 and b_min > 1e-7)
    translations_ok = (
        lt_min > 1e-7 and rt_min > 1e-7 and fiber_resid < max(tol, 1e-6)
    )
    anchors_ok = a_anchor < tol and b_anchor < tol
    units_ok = max(left_unit, right_unit, unit_sec) < tol
    is_loopoid = bool(submersions_ok and units_ok and anchors_ok and translations_ok)
    is_ip = None
    if have_inv:
        is_ip = bool(lip < tol and rip < tol and ipid < tol)

    return AxiomReport(
        n_samples=n_samples,
        seed=seed,
        unit_section_residual=unit_sec,
        left_unit_residual=left_unit,
        right_unit_residual=right_unit,
        alpha_min_sv=float(a_min),
        beta_min_sv=float(b_min),
        submersions_ok=bool(submersions_ok),
        unities_associativity_residual=ua_resid,
        unities_definedness_mismatches=ua_mismatch,
        alpha_anchor_residual=a_anchor,
        beta_anchor_residual=b_anchor,
        left_translation_min_sv=float(lt_min),
        right_translation_min_sv=float(rt_min),
        translation_fiber_residual=fiber_resid,
        translations_ok=bool(translations_ok),
        is_loopoid=is_loopoid,
        left_ip_residual=lip if have_inv else None,
        right_ip_residual=rip if have_inv else None,
        ip_identity_residual=ipid if have_inv else None,
        is_ip=is_ip,
        tol=tol,
    )
