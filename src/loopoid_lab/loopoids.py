"""Charted quasiloopoids and loopoids.

An instance is a chart R^dim_g with two submersions alpha, beta onto an
M-chart R^dim_m, a unit embedding, and a multiplication formula that is
smooth on (a slab around) the composability locus beta(g) = alpha(h).
Numerically the partial product is total on the tolerance slab
||beta(g) - alpha(h)|| < COMPOSABLE_TOL; callers snap the right factor onto
the alpha-fiber by Newton projection before composing.

Constructions: the pair groupoid, the product of a smooth loop with a pair
groupoid, the odd-diffeomorphism quasiloopoid on a constrained 3-coordinate
chart, and the prolongation over a coordinate fibration.

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

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NotMonotone, NotOdd
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
    inverse_side: str = "both"  # "both" for I.P., "left" for a left inverse only
    claims_loopoid: bool = False
    claims_ip: bool = False
    name: str = "quasiloopoid"
    preferred_alpha_vertical: Optional[Callable] = None  # u -> (r, dim_g)

    @property
    def rank(self):
        return self.dim_g - self.dim_m

    def sample_g(self, rng, n):
        return self.sampler(rng, n)

    def sample_m(self, rng, n):
        return rng.normal(scale=0.3, size=(n, self.dim_m))


def composable(q, g, h):
    """True when ||beta(g) - alpha(h)|| is inside the tolerance slab."""
    gap = np.linalg.norm(q.beta(g) - q.alpha(h))
    return bool(gap < COMPOSABLE_TOL)


def snap_to_alpha_fiber(q, h, target_m):
    """Newton-project h so that alpha(h) = target_m (minimum-norm update)."""
    res = lambda p: q.alpha(p) - target_m
    h2, _ = newton_solve(res, h, tol=1e-12)
    return h2


def sample_composable_pairs(q, rng, n):
    """Seeded (g, h) samples snapped onto the composability locus."""
    gs = q.sample_g(rng, n)
    hs = q.sample_g(rng, n)
    out = []
    for g, h in zip(gs, hs):
        out.append((g, snap_to_alpha_fiber(q, h, q.beta(g))))
    return out


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------


def pair_groupoid(n):
    """M x M with (u, v)(v, w) = (u, w) and iota(u, v) = (v, u)."""

    def alpha(g):
        return g[..., :n]

    def beta(g):
        return g[..., n:]

    def unit_embed(u):
        return np.concatenate([u, u], axis=-1)

    def mul(g, h):
        return np.concatenate([g[..., :n], h[..., n:]], axis=-1)

    def inverse(g):
        return np.concatenate([g[..., n:], g[..., :n]], axis=-1)

    def pav(u):
        basis = np.zeros((n, 2 * n))
        basis[:, n:] = np.eye(n)
        return basis

    return ChartedQuasiloopoid(
        dim_g=2 * n,
        dim_m=n,
        alpha=alpha,
        beta=beta,
        unit_embed=unit_embed,
        mul=mul,
        sampler=lambda rng, k: rng.normal(scale=0.4, size=(k, 2 * n)),
        inverse=inverse,
        claims_loopoid=True,
        claims_ip=True,
        name=f"pair_groupoid({n})",
        preferred_alpha_vertical=pav,
    )


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

    def pav(u):
        # loop directions first, then the beta-leg directions
        basis = np.zeros((d + n, d + 2 * n))
        basis[:d, :d] = np.eye(d)
        basis[d:, d + n :] = np.eye(n)
        return basis

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
        claims_ip=loop.inverse is not None,
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
        claims_ip=False,
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
    if q.preferred_alpha_vertical is not None:
        def pav(p):
            base, _ = pi.split(p)
            inner = q.preferred_alpha_vertical(base)
            r_in = inner.shape[0]
            basis = np.zeros((r_in + nf, nf + ng + nf))
            basis[:r_in, nf : nf + ng] = inner
            basis[r_in:, nf + ng :] = np.eye(nf)
            return basis

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
        claims_ip=q.claims_ip,
        name=f"prolongation({q.name})",
        preferred_alpha_vertical=pav,
    )


def loop_as_loopoid(loop):
    """A smooth loop seen as a loopoid over a zero-dimensional unit chart."""

    def alpha(g):
        return g[..., :0]

    def unit_embed(u):
        out = np.empty(u.shape[:-1] + (loop.dim,), dtype=np.result_type(u, float))
        out[...] = loop.unit
        return out

    return ChartedQuasiloopoid(
        dim_g=loop.dim,
        dim_m=0,
        alpha=alpha,
        beta=alpha,
        unit_embed=unit_embed,
        mul=loop.mul,
        sampler=loop.sample,
        inverse=loop.inverse,
        claims_loopoid=True,
        claims_ip=loop.inverse is not None,
        name=f"loop({loop.name})",
    )


# ---------------------------------------------------------------------------
# sections, axiom checking
# ---------------------------------------------------------------------------


def build_local_section(q, side, through, *, predictor="unit"):
    """A map s with s(q0) = through and side(s(q')) = q' near q0 = side(through).

    Newton projection onto the side fiber; the default predictor moves the
    seed along the unit embedding, ``predictor="hold"`` projects from the
    fixed point instead (useful to certify section-choice independence).
    Raises NoConvergence when the projection stalls.
    """
    if side not in ("alpha", "beta"):
        raise ValueError(f"side must be 'alpha' or 'beta', got {side!r}")
    side_map = q.alpha if side == "alpha" else q.beta
    q0 = side_map(through)
    e0 = q.unit_embed(q0)

    def section(qp):
        if predictor == "unit":
            seed = through + (q.unit_embed(qp) - e0)
        else:
            seed = through
        res = lambda p: side_map(p) - qp
        p, _ = newton_solve(res, seed, tol=1e-11, max_iter=60)
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
    global_injectivity: str = "not checked"
    tol: float = 1e-8

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def check_axioms(q, n_samples=25, seed=0, tol=1e-8):
    """Sampled axiom audit: units, submersions, unities associativity, the
    anchor-morphism property, translation invertibility on fibers, and
    inversion residuals when an inversion map is present."""

    def repeat(fixed, points):
        """``fixed`` once per row of the stencil stack ``points``."""
        return np.repeat(fixed[None], len(points), axis=0)

    def on_fiber(side_map, translate, point, product):
        """(min sv, residual) of ``translate`` between side_map-fibers; (inf, 0) on points.

        ``translate`` takes the stack of complex-step points, one per fiber
        direction."""
        fib = null_space(complex_jacobian(side_map, point))
        if not fib.shape[0]:
            return np.inf, 0.0
        img = complex_step(translate, point, fib).T
        target = null_space(complex_jacobian(side_map, product))
        coeff, *_ = np.linalg.lstsq(target.T, img, rcond=None)
        return smallest_singular_value(coeff), float(np.max(np.abs(target.T @ coeff - img)))

    rng = np.random.default_rng(seed)
    us = q.sample_m(rng, n_samples)
    unit_sec = 0.0
    for u in us:
        e = q.unit_embed(u)
        unit_sec = max(unit_sec, float(np.linalg.norm(q.alpha(e) - u)))
        unit_sec = max(unit_sec, float(np.linalg.norm(q.beta(e) - u)))

    pairs = sample_composable_pairs(q, rng, n_samples)
    left_unit = right_unit = 0.0
    a_min = b_min = np.inf
    ua_resid = 0.0
    ua_mismatch = 0
    a_anchor = b_anchor = 0.0
    lt_min = rt_min = np.inf
    fiber_resid = 0.0
    lip = rip = ipid = 0.0
    have_inv = q.inverse is not None

    for g, h in pairs:
        ag = q.alpha(g)
        bg = q.beta(g)
        right_unit = max(right_unit, float(np.linalg.norm(q.mul(g, q.unit_embed(bg)) - g)))
        left_unit = max(left_unit, float(np.linalg.norm(q.mul(q.unit_embed(ag), g) - g)))

        ja = complex_jacobian(q.alpha, g)
        jb = complex_jacobian(q.beta, g)
        a_min = min(a_min, smallest_singular_value(ja))
        b_min = min(b_min, smallest_singular_value(jb))

        gh = q.mul(g, h)
        a_anchor = max(a_anchor, float(np.linalg.norm(q.alpha(gh) - ag)))
        b_anchor = max(b_anchor, float(np.linalg.norm(q.beta(gh) - q.beta(h))))

        # unities associativity with definedness bookkeeping, unit in each slot
        for which in ("left", "middle", "right"):
            if which == "left":
                x, y, z = q.unit_embed(ag), g, h
            elif which == "middle":
                x, y, z = g, q.unit_embed(bg), h
            else:
                x, y, z = g, h, q.unit_embed(q.beta(h))
            lhs_def = composable(q, x, y) and composable(q, q.mul(x, y), z)
            rhs_def = composable(q, y, z) and composable(q, x, q.mul(y, z))
            if lhs_def and rhs_def:
                lhs = q.mul(q.mul(x, y), z)
                rhs = q.mul(x, q.mul(y, z))
                ua_resid = max(ua_resid, float(np.linalg.norm(lhs - rhs)))
            elif lhs_def != rhs_def:
                ua_mismatch += 1

        # translations restricted to fiber directions: left translation by g
        # on the alpha-fiber of h, right translation by h on the beta-fiber of g
        sv, resid = on_fiber(q.alpha, lambda p: q.mul(repeat(g, p), p), h, gh)
        lt_min, fiber_resid = min(lt_min, sv), max(fiber_resid, resid)
        sv, resid = on_fiber(q.beta, lambda p: q.mul(p, repeat(h, p)), g, gh)
        rt_min, fiber_resid = min(rt_min, sv), max(fiber_resid, resid)

        if have_inv:
            # definedness is part of the property: a composability gap in
            # g^{-1}(gh) or (gh)h^{-1} counts against the residual
            gi = q.inverse(g)
            lgap = float(np.linalg.norm(q.beta(gi) - q.alpha(gh)))
            lip = max(lip, lgap, float(np.linalg.norm(q.mul(gi, gh) - h)))
            hi = q.inverse(h)
            rgap = float(np.linalg.norm(q.beta(gh) - q.alpha(hi)))
            rip = max(rip, rgap, float(np.linalg.norm(q.mul(gh, hi) - g)))
            ipid = max(ipid, float(np.linalg.norm(q.mul(g, gi) - q.unit_embed(ag))))
            ipid = max(ipid, float(np.linalg.norm(q.mul(gi, g) - q.unit_embed(bg))))
            ipid = max(ipid, float(np.linalg.norm(q.inverse(gi) - g)))

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
