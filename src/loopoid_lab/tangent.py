"""Tangent multiplication.

The tangent product of (g, v_g) and (h, v_h) with matching base velocity
v_q = T beta(v_g) = T alpha(v_h) sits over g h, and its vector is the
derivative of the chart multiplication along the composable pair,
T m(v_g, v_h).  ``tangent_product`` takes it by one complex step of ``mul``,
on one point or on the rows of ``(N, dim_g)`` stacks, so the audit runs on
the stack of its samples.  The paper assembles the vector from local
sections through the factors,

    T r_tau(v_g) + T l_sigma(v_h) - T (l_sigma o r_tau)(v_q),

sigma a beta-section through g and tau an alpha-section through h; by the
chain rule the section terms cancel and leave T m(v_g, v_h) for any choice
of sections.  ``section_product`` keeps that formula as the witness: the
checker compares it with the chain-rule product, which uses no section.
"""

import numpy as np

from .errors import IncompatibleVelocities, NoConvergence, NotComposable, SectionFailure
from .loopoids import COMPOSABLE_TOL, _worst, build_local_section, sample_composable_pairs
from .numdiff import complex_jacobian, complex_step, directional, null_space, smallest_singular_value

# tangent translations count as injective while their least singular value
# on the alpha-fiber directions exceeds this; tangent-check gates it too
INJECTIVE_SV = 1e-7


def _along(f, x, v):
    """Complex step of f at x along v, or at each row of a stack along its row of v."""
    return complex_step(f, x, v[..., None, :])[..., 0, :]


def _refuse(bad, value, error, message):
    """Raise ``error`` with the ``value`` of the first bad row, naming the row of a stack."""
    if np.any(bad):
        i = int(np.argmax(bad))
        raise error(message.format(row=f" at row {i}" if np.ndim(bad) else "", value=np.ravel(value)[i]))


def tangent_product(q, g, vg, h, vh):
    """The vector T m(v_g, v_h) of the tangent product of (g, v_g) and
    (h, v_h) over ``q.mul(g, h)``, for one point or the rows of ``(N, dim_g)``
    stacks: one complex step of ``mul`` at (g, h) along (v_g, v_h).

    A pair off the composability slab raises ``NotComposable``, a base
    velocity mismatch |T alpha(v_h) - T beta(v_g)| above 1e-7 raises
    ``IncompatibleVelocities``; on a stack both name the first failing row.
    """
    gap = np.linalg.norm(q.beta(g) - q.alpha(h), axis=-1)
    _refuse(~(gap < COMPOSABLE_TOL), gap, NotComposable, "tangent factors not composable{row}: gap {value:.2e}")
    mismatch = np.linalg.norm(_along(q.alpha, h, vh) - _along(q.beta, g, vg), axis=-1)
    _refuse(mismatch > 1e-7, mismatch, IncompatibleVelocities, "base velocities differ{row} by {value:.2e}")
    mul = lambda gh: q.mul(*np.split(gh, 2, axis=-1))
    return _along(mul, np.concatenate([g, h], axis=-1), np.concatenate([vg, vh], axis=-1))


def section_product(q, g, vg, h, vh):
    """The product vector by the paper's local-section formula, the witness
    of ``tangent_product``'s chain rule.

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
    """Sampled audit of the tangent structure on the stack of samples, as in
    ``loopoids.check_axioms``; only the witness runs per sample.  Each v_h
    is matched to its v_g by one stacked ``pinv``: the minimum-norm correction.

    Checks T alpha(X * Y) = T alpha(X), T beta(X * Y) = T beta(Y), the unit
    action of T eps vectors, injectivity of v_h -> X * Y_h on tangent
    fibers, agreement of the product with the local-section formula
    (``section_product``, whose sections the product does not use), and the
    tangent inversion when the instance's inverse is two-sided (else its
    residual is None: a one-sided inverse has no tangent inverse property to
    audit).
    """
    rng = np.random.default_rng(seed)
    gs, hs = np.moveaxis(sample_composable_pairs(q, rng, n_samples), 1, 0)
    vgs, vhs = np.moveaxis(rng.normal(size=(n_samples, 2, q.dim_g)), 1, 0)
    ja_h = complex_jacobian(q.alpha, hs)
    # match v_h's base velocity to v_g's exactly up to rounding
    gap = ja_h @ vhs[..., None] - _along(q.beta, gs, vgs)[..., None]
    vhs = vhs - (np.linalg.pinv(ja_h) @ gap)[..., 0]
    base, pv = q.mul(gs, hs), tangent_product(q, gs, vgs, hs, vhs)

    anchor_resid = _worst(
        _along(q.alpha, base, pv) - _along(q.alpha, gs, vgs),
        _along(q.beta, base, pv) - _along(q.beta, hs, vhs),
        q.alpha(base) - q.alpha(gs),
        q.beta(base) - q.beta(hs),
    )

    # unit action: (eps(u), T eps(w)) with matching velocity leaves Y_h fixed
    us, ws = q.alpha(hs), _along(q.alpha, hs, vhs)
    unit_resid = _worst(tangent_product(q, q.unit_embed(us), _along(q.unit_embed, us, ws), hs, vhs) - vhs)

    # section-choice independence: the section formula against the chain rule
    section_resid = _worst([section_product(q, *sample) for sample in zip(gs, vgs, hs, vhs)] - pv)

    # injectivity of v_h -> product vector on the alpha-fiber directions; the
    # product is linear in v_h, so each column is one stacked row less pv
    fibs = null_space(ja_h)
    rows = [i for i, fib in enumerate(fibs) for _ in fib]
    cols = tangent_product(q, gs[rows], vgs[rows], hs[rows], vhs[rows] + np.concatenate(fibs))
    blocks = np.split(cols - pv[rows], np.cumsum([len(fib) for fib in fibs])[:-1])
    min_rank_sv = min([np.inf] + [smallest_singular_value(block) for block in blocks])

    inv_resid = None
    if q.claims_ip:
        inv_resid = _worst(tangent_product(q, q.inverse(gs), _along(q.inverse, gs, vgs), base, pv) - vhs)

    return {
        "anchor_residual": anchor_resid,
        "unit_residual": unit_resid,
        "section_choice_residual": section_resid,
        "tangent_translation_min_sv": float(min_rank_sv),
        "tangent_inverse_residual": inv_resid,
        "ok": bool(max(anchor_resid, unit_resid, section_resid, inv_resid or 0.0) < tol and min_rank_sv > INJECTIVE_SV),
    }
