"""Damped Newton for small dense systems, least-squares flavored.

One routine covers square solves, overdetermined snaps and underdetermined
fiber projections: steps are computed with ``lstsq``, so a consistent
rank-deficient system converges to the minimum-norm-step solution nearest
the seed (this is what keeps free fiber coordinates pinned to the seed).
``SingularJacobian`` is raised only when the linearization is both
ill-conditioned and unable to reduce the residual, and ``NumericalNoise``
when the residual's norm at the seed is not finite (a non-finite entry, or
finite entries whose norm overflows) or the differenced Jacobian holds a
non-finite entry.

Row contract: the residual is evaluated at single points (the seed, each
full step and its first halving) and on stacks (the further halvings, in
blocks of 2, 4, 8 and 14, and the ``(2n, n)`` stencil of
``numdiff.jacobian`` once per iteration), so it must map each row of a
stack as it maps that row alone.  The
seed is the one value cast to float, into the iterate's own copy; the
residual's values are used as it returns them.
"""

import numpy as np

from .errors import NoConvergence, NumericalNoise, SingularJacobian
from .numdiff import jacobian


def newton_solve(residual, x0, *, tol=1e-10, max_iter=50, fd_step=1e-7, rcond=None):
    """Drive ``residual`` to zero from ``x0``; returns (x, info dict).

    ``info`` holds the iteration count, the final residual norm
    (``residual``) and its vector at x (``residual_vector``).  A search
    without descent takes the step Jacobian's condition number, which parts
    ``SingularJacobian`` (above 1e12) from ``NoConvergence``.

    ``rcond`` truncates singular values below rcond * sigma_max in the step
    computation; use it when the differenced Jacobian has a noise floor, so
    noise-level directions do not blow up the step.
    """
    x = np.array(x0, dtype=float)
    r = residual(x)
    best = float(np.linalg.norm(r))
    if not np.isfinite(best):
        raise NumericalNoise(f"non-finite residual norm {best:.3e} at the seed")
    for it in range(max_iter):
        if best < tol:
            return x, {"iterations": it, "residual": best, "residual_vector": r}
        j = np.atleast_2d(jacobian(residual, x, fd_step))
        if not np.all(np.isfinite(j)):
            raise NumericalNoise(f"non-finite Jacobian entry at iteration {it + 1}, residual {best:.3e}")
        delta = np.linalg.lstsq(j, -r, rcond=rcond)[0]
        # damping: the first of the steps 1, 1/2, ..., 2^-29 whose residual
        # drops; the full step alone, then the halvings in doubling blocks
        for lo, hi in ((0, 1), (1, 2), (2, 4), (4, 8), (8, 16), (16, 30)):
            accepted = _first_descent(residual, x, delta, np.arange(lo, hi), best, tol)
            if accepted is not None:
                x, r, best = accepted
                break
        else:
            sv = np.linalg.svd(j, compute_uv=False)
            cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
            if cond > 1e12:
                raise SingularJacobian(f"stalled at residual {best:.3e} with condition {cond:.3e}", cond=cond)
            raise NoConvergence(f"no descent at residual {best:.3e} after {it + 1} iterations")
    if best < tol:
        return x, {"iterations": max_iter, "residual": best, "residual_vector": r}
    raise NoConvergence(f"residual {best:.3e} > tol {tol:.1e} after {max_iter} iterations")


def _first_descent(residual, x, delta, ks, best, tol):
    """The first candidate ``x + 2^-k delta``, k in ``ks``, whose residual
    norm is below ``best`` or ``tol``: (candidate, residual, norm), or None.
    A block is one residual call on its stack; if that raises, the block is
    re-run one candidate at a time, so an error comes out only where
    halving one step at a time would meet it."""
    cands = x + np.ldexp(1.0, -ks)[:, None] * delta
    try:
        values = residual(cands) if len(cands) > 1 else None
    except Exception:  # raised again below where halving one step at a time meets it
        values = None
    for i, cand in enumerate(cands):
        rc = residual(cand) if values is None else values[i]
        nc = float(np.linalg.norm(rc))
        if nc < best or nc < tol:
            return cand, rc, nc
    return None
