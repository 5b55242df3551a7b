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

Row contract: the residual is evaluated at single points and, once per
iteration, by ``numdiff.jacobian`` on the ``(2n, n)`` stack of its stencil
points, so it must map each row of a stack as it maps that row alone.  The
seed is the one value cast to float, into the iterate's own copy; the
residual's values are used as it returns them.
"""

import numpy as np

from .errors import NoConvergence, NumericalNoise, SingularJacobian
from .numdiff import jacobian


def newton_solve(residual, x0, *, tol=1e-10, max_iter=50, fd_step=1e-7, rcond=None):
    """Drive ``residual`` to zero from ``x0``; returns (x, info dict).

    ``info`` holds the iteration count, the final residual norm
    (``residual``), its vector at x (``residual_vector``) and the last
    step Jacobian's condition number (``cond``).

    ``rcond`` truncates singular values below rcond * sigma_max in the step
    computation; use it when the differenced Jacobian has a noise floor, so
    noise-level directions do not blow up the step.
    """
    x = np.array(x0, dtype=float)
    r = residual(x)
    best = float(np.linalg.norm(r))
    if not np.isfinite(best):
        raise NumericalNoise(f"non-finite residual norm {best:.3e} at the seed")
    cond = None
    for it in range(max_iter):
        if best < tol:
            return x, {"iterations": it, "residual": best, "residual_vector": r, "cond": cond}
        j = np.atleast_2d(jacobian(residual, x, fd_step))
        if not np.all(np.isfinite(j)):
            raise NumericalNoise(f"non-finite Jacobian entry at iteration {it + 1}, residual {best:.3e}")
        sv = np.linalg.svd(j, compute_uv=False)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
        delta = np.linalg.lstsq(j, -r, rcond=rcond)[0]
        step = 1.0
        for _ in range(30):  # damping: halve the step until the residual drops
            cand = x + step * delta
            rc = residual(cand)
            nc = float(np.linalg.norm(rc))
            if nc < best or nc < tol:
                x, r, best = cand, rc, nc
                break
            step *= 0.5
        else:
            if cond > 1e12:
                raise SingularJacobian(f"stalled at residual {best:.3e} with condition {cond:.3e}", cond=cond)
            raise NoConvergence(f"no descent at residual {best:.3e} after {it + 1} iterations")
    if best < tol:
        return x, {"iterations": max_iter, "residual": best, "residual_vector": r, "cond": cond}
    raise NoConvergence(f"residual {best:.3e} > tol {tol:.1e} after {max_iter} iterations")
