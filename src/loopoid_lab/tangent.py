"""The tangent loopoid.

The tangent bundle TG of a quasiloopoid G over M is one over TM, and a
loopoid when G is one (the paper's first theorem; for groupoids, the
tangent groupoid).  ``tangent_loopoid(q)`` charts it by (g, v) over (u, w):
each map is (f(x), T f . v), the two parts of one complex step of q's map
at x + i h v, so the product of (g, v_g) and (h, v_h) is
(g h, T m(v_g, v_h)), and a base-velocity mismatch T beta(v_g) !=
T alpha(v_h) is a composability gap of TG.  The maps refuse a complex
operand, through which a nested step would give a wrong derivative
silently: their derivatives are central differences.

The paper's section formula for the product vector,

    T r_tau(v_g) + T l_sigma(v_h) - T (l_sigma o r_tau)(v_q),

with sigma a beta-section through g and tau an alpha-section through h,
reduces to T m(v_g, v_h) by the chain rule for any sections;
``section_product`` keeps it as the witness that the audit compares with
TG's product, which uses no section.
"""

import numpy as np

from .errors import NoConvergence, SectionFailure
from .loopoids import FULL_RANK_SV, ChartedQuasiloopoid, _worst, build_local_section, check_axioms, sample_composable_pairs
from .numdiff import COMPLEX_STEP, complex_step, directional


def _lift(f, k):
    """The tangent map (x, v) -> (f(x), T f . v) of f, on real operands whose
    rows are k point then k velocity coordinates: one complex step of f at
    x + i h v."""

    def lifted(*operands):
        if any(map(np.iscomplexobj, operands)):
            raise TypeError("the tangent chart's maps take a complex step: difference the tangent chart centrally")
        z = f(*[x[..., :k] + (1j * COMPLEX_STEP) * x[..., k:] for x in operands])
        return np.concatenate([z.real, z.imag / COMPLEX_STEP], axis=-1)

    return lifted


def tangent_loopoid(q):
    """TG as a ``ChartedQuasiloopoid`` of dimension 2 dim_g over 2 dim_m,
    whose maps are the tangent maps of q's.  Its sampler draws g from q and
    v from a normal law; it keeps q's inverse side and loopoid claim."""
    return ChartedQuasiloopoid(
        dim_g=2 * q.dim_g,
        dim_m=2 * q.dim_m,
        alpha=_lift(q.alpha, q.dim_g),
        beta=_lift(q.beta, q.dim_g),
        unit_embed=_lift(q.unit_embed, q.dim_m),
        mul=_lift(q.mul, q.dim_g),
        sampler=lambda rng, k: np.concatenate([q.sample_g(rng, k), rng.normal(size=(k, q.dim_g))], axis=1),
        inverse=None if q.inverse is None else _lift(q.inverse, q.dim_g),
        inverse_side=q.inverse_side,
        claims_loopoid=q.claims_loopoid,
        name=f"tangent({q.name})",
        stepped_maps=True,
    )


def section_product(q, g, vg, h, vh):
    """The product vector by the paper's local-section formula, the witness
    of the chain rule that TG's product takes.

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
    """Sampled audit of TG = ``tangent_loopoid(q)``: ``check_axioms`` on TG
    (``axioms``), its anchor, unit, translation and (for a two-sided inverse,
    else None) inverse terms maximized over both sides, and the section
    witness on TG's own draw of pairs (X, Y) against the velocity of X Y."""
    tq = tangent_loopoid(q)
    axioms = check_axioms(tq, n_samples, seed, tol)
    n = q.dim_g
    xs, ys = np.moveaxis(sample_composable_pairs(tq, np.random.default_rng(seed), n_samples), 1, 0)
    witness = [section_product(q, x[:n], x[n:], y[:n], y[n:]) for x, y in zip(xs, ys)]
    section_resid = _worst(witness - tq.mul(xs, ys)[:, n:])

    anchor_resid = max(axioms.alpha_anchor_residual, axioms.beta_anchor_residual)
    unit_resid = max(axioms.left_unit_residual, axioms.right_unit_residual, axioms.unit_section_residual)
    min_sv = min(axioms.left_translation_min_sv, axioms.right_translation_min_sv)
    ips = (axioms.left_ip_residual, axioms.right_ip_residual, axioms.ip_identity_residual)
    inv_resid = max(ips) if q.claims_ip else None

    return {
        "anchor_residual": anchor_resid,
        "unit_residual": unit_resid,
        "section_choice_residual": section_resid,
        "tangent_translation_min_sv": min_sv,
        "tangent_inverse_residual": inv_resid,
        "ok": bool(max(anchor_resid, unit_resid, section_resid, inv_resid or 0.0) < tol and min_sv > FULL_RANK_SV),
        "axioms": axioms.to_dict(),
    }
