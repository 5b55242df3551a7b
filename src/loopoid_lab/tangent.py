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
from .loopoids import ChartedQuasiloopoid, _worst, build_local_section, sample_composable_pairs
from .numdiff import COMPLEX_STEP, complex_jacobian, complex_step, directional, null_space, smallest_singular_value

# tangent translations count as injective while their least singular value
# on the alpha-fiber directions exceeds this; tangent-check gates it too
INJECTIVE_SV = 1e-7


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
    """Sampled audit of TG = ``tangent_loopoid(q)`` on the stack of its
    composable pairs (X, Y), each residual a norm of whole TG rows: the
    anchors alpha(X Y) = alpha(X) and beta(X Y) = beta(Y), the unit action
    eps(alpha(Y)) Y = Y, injectivity of v_h -> X Y on the fiber directions
    of ker T alpha at h, the section witness (per sample) and, when q's
    inverse is two-sided, X^{-1} (X Y) = Y (else None: a one-sided inverse
    has no tangent inverse property to audit).
    """
    tq = tangent_loopoid(q)
    n = q.dim_g
    xs, ys = np.moveaxis(sample_composable_pairs(tq, np.random.default_rng(seed), n_samples), 1, 0)
    xys = tq.mul(xs, ys)

    anchor_resid = _worst(tq.alpha(xys) - tq.alpha(xs), tq.beta(xys) - tq.beta(ys))
    unit_resid = _worst(tq.mul(tq.unit_embed(tq.alpha(ys)), ys) - ys)

    # section-choice independence: the section formula against TG's product
    witness = [section_product(q, x[:n], x[n:], y[:n], y[n:]) for x, y in zip(xs, ys)]
    section_resid = _worst(witness - xys[:, n:])

    # injectivity of v_h -> X Y on the fiber directions of ker T alpha at h;
    # the product is affine in v_h, so each column is one stacked row less X Y
    fibs = null_space(complex_jacobian(q.alpha, ys[:, :n]))
    rows = [i for i, fib in enumerate(fibs) for _ in fib]
    cols = tq.mul(xs[rows], ys[rows] + np.pad(np.concatenate(fibs), ((0, 0), (n, 0)))) - xys[rows]
    blocks = np.split(cols, np.cumsum([len(fib) for fib in fibs])[:-1])
    min_rank_sv = min([np.inf] + [smallest_singular_value(block) for block in blocks])

    inv_resid = None
    if q.claims_ip:
        inv_resid = _worst(tq.mul(tq.inverse(xs), xys) - ys)

    return {
        "anchor_residual": anchor_resid,
        "unit_residual": unit_resid,
        "section_choice_residual": section_resid,
        "tangent_translation_min_sv": float(min_rank_sv),
        "tangent_inverse_residual": inv_resid,
        "ok": bool(max(anchor_resid, unit_resid, section_resid, inv_resid or 0.0) < tol and min_rank_sv > INJECTIVE_SV),
    }
