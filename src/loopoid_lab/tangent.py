"""Tangent multiplication and the two cotangent fibrations.

The tangent product of (g, v_g) and (h, v_h) with matching base velocity
v_q = T beta(v_g) = T alpha(v_h) is the derivative of the chart
multiplication along the composable pair, T m(v_g, v_h): one complex step
of ``mul``.  The paper assembles it from local sections through the
factors,

    T r_tau(v_g) + T l_sigma(v_h) - T (l_sigma o r_tau)(v_q),

sigma a beta-section through g and tau an alpha-section through h; by the
chain rule the section terms cancel and leave T m(v_g, v_h) for any choice
of sections.  ``section_product`` keeps that formula as the witness: the
checker compares it with the chain-rule product, which uses no section.

There is no tangent product on covectors; the module only exposes the two
fibrations of T*G over the dual of the normal bundle, obtained by pairing a
covector with the left (respectively right) fundamental fields.
"""

from dataclasses import dataclass

import numpy as np

from .algebroid import ALIGNED, prolong
from .errors import IncompatibleVelocities, NoConvergence, NotComposable, SectionFailure
from .loopoids import build_local_section, composable, sample_composable_pairs
from .numdiff import complex_jacobian, complex_step, directional, null_space, smallest_singular_value

# tangent translations count as injective while their least singular value
# on the alpha-fiber directions exceeds this; tangent-check gates it too
INJECTIVE_SV = 1e-7


@dataclass(frozen=True)
class TangentElement:
    base: np.ndarray
    vector: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.base, dtype=float)
        v = np.asarray(self.vector, dtype=float)
        if b.shape != v.shape:
            raise ValueError(f"base shape {b.shape} != vector shape {v.shape}")
        object.__setattr__(self, "base", b)
        object.__setattr__(self, "vector", v)


def tangent_translation(q, xg, h):
    """The product X_g * (h, v_h) as a map of v_h: ``(g h, times)``.

    ``times`` maps a ``(k, dim_g)`` stack of v_h to the product vectors
    T m(v_g, v_h), by one complex step of ``mul`` at (g, h) along the k
    directions (v_g, v_h).  The base velocity is T beta(v_g); a mismatch
    with T alpha(v_h) beyond 1e-7 raises, a smaller one is absorbed by
    snapping v_h's base component.
    """
    g, vg = xg.base, xg.vector
    if not composable(q, g, h):
        raise NotComposable("tangent factors sit over a non-composable pair")
    ja_h = complex_jacobian(q.alpha, h)
    vq = complex_step(q.beta, g, vg)
    n = q.dim_g

    def snap(vh):
        mismatch = float(np.linalg.norm(ja_h @ vh - vq))
        if mismatch > 1e-7:
            raise IncompatibleVelocities(f"base velocities differ by {mismatch:.2e}")
        if mismatch > 0:
            corr, *_ = np.linalg.lstsq(ja_h, ja_h @ vh - vq, rcond=None)
            vh = vh - corr
        return vh

    def times(vhs):
        dirs = np.array([np.concatenate([vg, snap(vh)]) for vh in vhs])
        return complex_step(lambda gh: q.mul(gh[..., :n], gh[..., n:]), np.concatenate([g, h]), dirs)

    return q.mul(g, h), times


def tangent_multiply(q, xg, yh):
    """Product of tangent elements: one row of ``tangent_translation``."""
    base, times = tangent_translation(q, xg, yh.base)
    return TangentElement(base, times(yh.vector[None])[0])


def section_product(q, g, vg, h, vh):
    """The product vector by the paper's local-section formula, the witness
    of ``tangent_translation``'s chain rule.

    sigma and tau are Newton-projected sections through g and h seeded
    along the unit embedding, so each term is differenced centrally
    (``directional`` at ``OUTER_STEP``).  A stalled projection raises
    ``SectionFailure``.
    """
    sigma = build_local_section(q, "beta", g)
    tau = build_local_section(q, "alpha", h)
    r_tau = lambda x: q.mul(x, tau(q.beta(x)))
    l_sigma = lambda y: q.mul(sigma(q.alpha(y)), y)
    both = lambda qq: q.mul(sigma(qq), tau(qq))
    vq = complex_step(q.beta, g, vg)
    try:
        return directional(r_tau, g, vg) + directional(l_sigma, h, vh) - directional(both, q.beta(g), vq)
    except NoConvergence as exc:
        raise SectionFailure(f"section projection failed inside the product: {exc}") from exc


def check_tangent_loopoid(q, n_samples=8, seed=0, tol=1e-6):
    """Sampled audit of the tangent structure.

    Checks T alpha(X * Y) = T alpha(X), T beta(X * Y) = T beta(Y), the unit
    action of T eps vectors, injectivity of v_h -> X * Y_h on tangent
    fibers, agreement of the product with the local-section formula
    (``section_product``, whose sections the product does not use), and the
    tangent inversion when the instance's inverse is two-sided (else its
    residual is None: a one-sided inverse has no tangent inverse property to
    audit).
    """
    rng = np.random.default_rng(seed)
    pairs = sample_composable_pairs(q, rng, n_samples)
    anchor_resid = 0.0
    unit_resid = 0.0
    section_resid = 0.0
    inv_resid = 0.0 if q.inverse is not None and q.inverse_side == "both" else None
    min_rank_sv = np.inf

    for g, h in pairs:
        ja_h = complex_jacobian(q.alpha, h)
        vg = rng.normal(size=q.dim_g)
        # match v_h's base velocity to v_g's exactly up to lstsq
        vh = rng.normal(size=q.dim_g)
        corr, *_ = np.linalg.lstsq(ja_h, ja_h @ vh - complex_step(q.beta, g, vg), rcond=None)
        vh = vh - corr
        base, times = tangent_translation(q, TangentElement(g, vg), h)
        pv = times(vh[None])[0]

        anchor_resid = max(
            anchor_resid,
            float(np.linalg.norm(complex_step(q.alpha, base, pv) - complex_step(q.alpha, g, vg))),
            float(np.linalg.norm(complex_step(q.beta, base, pv) - complex_step(q.beta, h, vh))),
            float(np.linalg.norm(q.alpha(base) - q.alpha(g))),
            float(np.linalg.norm(q.beta(base) - q.beta(h))),
        )

        # unit action: (eps(u), T eps(w)) with matching velocity leaves Y_h fixed
        u = q.alpha(h)
        unit_el = TangentElement(q.unit_embed(u), complex_step(q.unit_embed, u, ja_h @ vh))
        lhs = tangent_multiply(q, unit_el, TangentElement(h, vh))
        unit_resid = max(unit_resid, float(np.linalg.norm(lhs.vector - vh)))

        # section-choice independence: the section formula against the chain rule
        section_resid = max(section_resid, float(np.linalg.norm(section_product(q, g, vg, h, vh) - pv)))

        # injectivity of v_h -> product vector on the alpha-fiber directions;
        # the product is linear in v_h, so each column is one stacked row less pv
        fib = null_space(ja_h)
        if fib.shape[0]:
            min_rank_sv = min(min_rank_sv, smallest_singular_value(times(vh + fib) - pv))

        if inv_resid is not None:
            inv_el = TangentElement(q.inverse(g), complex_step(q.inverse, g, vg))
            back = tangent_multiply(q, inv_el, TangentElement(base, pv))
            inv_resid = max(inv_resid, float(np.linalg.norm(back.vector - vh)))

    return {
        "anchor_residual": anchor_resid,
        "unit_residual": unit_resid,
        "section_choice_residual": section_resid,
        "tangent_translation_min_sv": float(min_rank_sv),
        "tangent_inverse_residual": inv_resid,
        "ok": bool(
            anchor_resid < tol
            and unit_resid < tol
            and section_resid < tol
            and min_rank_sv > INJECTIVE_SV
            and (inv_resid is None or inv_resid < tol)
        ),
    }


def cotangent_fibration(q, side, g, covector, frame_field, orientation=ALIGNED):
    """Components of beta~ or alpha~ of the covector at g in the dual frame.

    beta~ pairs the covector with the left fundamental fields and lives over
    beta(g); alpha~ pairs with the right fields over alpha(g).  The right
    orientation defaults to the anchor-aligned representatives so the minus
    Legendre transform of mechanics is exactly alpha~ composed with dL.
    """
    if side not in ("alpha", "beta"):
        raise ValueError(f"side must be 'alpha' or 'beta', got {side!r}")
    fields = prolong(
        q, frame_field, np.eye(q.rank), "left" if side == "beta" else "right", g, orientation
    )
    return np.array([covector @ v for v in fields])
