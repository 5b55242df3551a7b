"""Tangent multiplication and the two cotangent fibrations.

The tangent product of (g, v_g) and (h, v_h) with matching base velocity
v_q = T beta(v_g) = T alpha(v_h) is assembled from local sections through
the factors:

    T r_tau(v_g) + T l_sigma(v_h) - T (l_sigma o r_tau)(v_q),

sigma a beta-section through g and tau an alpha-section through h.  Over a
point base this collapses to T r_h(v_g) + T l_g(v_h).  The result does not
depend on the choice of sections, which the checker certifies by building
them twice with different predictors.

There is no tangent product on covectors; the module only exposes the two
fibrations of T*G over the dual of the normal bundle, obtained by pairing a
covector with the left (respectively right) fundamental fields.
"""

from dataclasses import dataclass

import numpy as np

from .algebroid import ALIGNED, prolong
from .errors import IncompatibleVelocities, NoConvergence, NotComposable, SectionFailure
from .loopoids import build_local_section, composable, sample_composable_pairs
from .numdiff import complex_jacobian, complex_step, directional, jacobian, null_space, smallest_singular_value

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


def tangent_translation(q, xg, h, *, predictor="unit"):
    """The product X_g * (h, v_h) as a map of v_h: ``(g h, times)``.

    ``times`` maps a ``(k, dim_g)`` stack of v_h to the product vectors.
    The sections, ``T r_tau(v_g)`` and ``T (l_sigma o r_tau)(v_q)`` are
    built once, on the first call, so each v_h costs only ``T l_sigma(v_h)``.
    The base velocity is T beta(v_g); a mismatch with T alpha(v_h) beyond
    1e-7 raises before any section is built, a smaller one is absorbed by
    snapping v_h's base component.
    """
    g, vg = xg.base, xg.vector
    if not composable(q, g, h):
        raise NotComposable("tangent factors sit over a non-composable pair")
    jb_g = complex_jacobian(q.beta, g)
    ja_h = complex_jacobian(q.alpha, h)
    vq = jb_g @ vg
    fixed = []  # l_sigma, T r_tau(v_g), T (l_sigma o r_tau)(v_q)

    def snap(vh):
        mismatch = float(np.linalg.norm(ja_h @ vh - vq))
        if mismatch > 1e-7:
            raise IncompatibleVelocities(f"base velocities differ by {mismatch:.2e}")
        if mismatch > 0:
            corr, *_ = np.linalg.lstsq(ja_h, ja_h @ vh - vq, rcond=None)
            vh = vh - corr
        return vh

    def times(vhs):
        vhs = [snap(vh) for vh in vhs]
        if q.dim_m == 0:
            # T r_h(v_g) + T l_g(v_h) is the derivative of mul along (v_g, v_h)
            n = q.dim_g
            mul = lambda gh: q.mul(gh[:n], gh[n:])
            return np.array([complex_step(mul, np.concatenate([g, h]), np.concatenate([vg, vh])) for vh in vhs])
        try:
            if not fixed:
                sigma = build_local_section(q, "beta", g, predictor=predictor)
                tau = build_local_section(q, "alpha", h, predictor=predictor)
                r_tau = lambda x: q.mul(x, tau(q.beta(x)))
                l_sigma = lambda y: q.mul(sigma(q.alpha(y)), y)
                both = lambda qq: q.mul(sigma(qq), tau(qq))
                fixed.extend([l_sigma, directional(r_tau, g, vg), directional(both, q.beta(g), vq)])
            l_sigma, t1, t3 = fixed
            return np.array([t1 + directional(l_sigma, h, vh) - t3 for vh in vhs])
        except NoConvergence as exc:
            raise SectionFailure(f"section projection failed inside the product: {exc}") from exc

    return q.mul(g, h), times


def tangent_multiply(q, xg, yh, *, predictor="unit"):
    """Product of tangent elements via the local-section formula: one row of
    ``tangent_translation``."""
    base, times = tangent_translation(q, xg, yh.base, predictor=predictor)
    return TangentElement(base, times(yh.vector[None])[0])


def tangent_alpha(q, el):
    return TangentElement(q.alpha(el.base), complex_step(q.alpha, el.base, el.vector))


def tangent_beta(q, el):
    return TangentElement(q.beta(el.base), complex_step(q.beta, el.base, el.vector))


def check_tangent_loopoid(q, n_samples=8, seed=0, tol=1e-6):
    """Sampled audit of the tangent structure.

    Checks T alpha(X * Y) = T alpha(X), T beta(X * Y) = T beta(Y), the unit
    action of T eps vectors, injectivity of v_h -> X * Y_h on tangent
    fibers, agreement between the two section predictors, and the tangent
    inversion when the instance's inverse is two-sided (else its residual is
    None: a one-sided inverse has no tangent inverse property to audit).
    The injectivity push shares the sample's ``tangent_translation``, so its
    stencil rows difference only the ``l_sigma`` term.
    """
    rng = np.random.default_rng(seed)
    pairs = sample_composable_pairs(q, rng, n_samples)
    anchor_resid = 0.0
    unit_resid = 0.0
    section_resid = 0.0
    inv_resid = 0.0 if q.inverse is not None and q.inverse_side == "both" else None
    min_rank_sv = np.inf

    for g, h in pairs:
        jb_g = complex_jacobian(q.beta, g)
        ja_h = complex_jacobian(q.alpha, h)
        vg = rng.normal(size=q.dim_g)
        # match v_h's base velocity to v_g's exactly up to lstsq
        vh = rng.normal(size=q.dim_g)
        corr, *_ = np.linalg.lstsq(ja_h, ja_h @ vh - jb_g @ vg, rcond=None)
        vh = vh - corr
        xg = TangentElement(g, vg)
        yh = TangentElement(h, vh)
        base, times = tangent_translation(q, xg, h)
        prod = TangentElement(base, times(vh[None])[0])

        ta_p = tangent_alpha(q, prod)
        ta_x = tangent_alpha(q, xg)
        tb_p = tangent_beta(q, prod)
        tb_y = tangent_beta(q, yh)
        anchor_resid = max(
            anchor_resid,
            float(np.linalg.norm(ta_p.vector - ta_x.vector)),
            float(np.linalg.norm(tb_p.vector - tb_y.vector)),
            float(np.linalg.norm(ta_p.base - ta_x.base)),
            float(np.linalg.norm(tb_p.base - tb_y.base)),
        )

        # unit action: (eps(u), T eps(w)) with matching velocity leaves Y_h fixed
        u = q.alpha(h)
        unit_el = TangentElement(q.unit_embed(u), complex_step(q.unit_embed, u, ja_h @ vh))
        lhs = tangent_multiply(q, unit_el, yh)
        unit_resid = max(unit_resid, float(np.linalg.norm(lhs.vector - yh.vector)))

        # section-choice independence
        prod2 = tangent_multiply(q, xg, yh, predictor="hold")
        section_resid = max(section_resid, float(np.linalg.norm(prod.vector - prod2.vector)))

        # injectivity of v_h -> product vector on the alpha-fiber directions,
        # differenced at c = 0, where c @ fib is exactly h * fib[i]; the rows
        # share the sample's product set-up, so only T l_sigma(v_h) is redone
        fib = null_space(ja_h)
        if fib.shape[0]:
            cols = jacobian(lambda cs: times(vh + cs @ fib), np.zeros(fib.shape[0]))
            min_rank_sv = min(min_rank_sv, smallest_singular_value(cols))

        if inv_resid is not None:
            inv_el = TangentElement(q.inverse(g), complex_step(q.inverse, g, vg))
            back = tangent_multiply(q, inv_el, prod)
            inv_resid = max(inv_resid, float(np.linalg.norm(back.vector - yh.vector)))

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
