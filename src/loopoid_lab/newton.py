"""Damped Newton for small dense systems, least-squares flavored.

One routine covers square solves, overdetermined snaps and underdetermined
fiber projections: steps are computed with ``lstsq``, so a consistent
rank-deficient system converges to the minimum-norm-step solution nearest
the seed (this is what keeps free fiber coordinates pinned to the seed).
``SingularJacobian`` is raised only when the linearization is both
ill-conditioned and unable to reduce the residual.
"""

import numpy as np

from .errors import NoConvergence, SingularJacobian
from .numdiff import jacobian


def newton_solve(
    residual,
    x0,
    *,
    tol=1e-10,
    max_iter=50,
    fd_step=1e-7,
    damping=True,
    rcond=None,
):
    """Drive ``residual`` to zero from ``x0``; returns (x, info dict).

    ``rcond`` truncates singular values below rcond * sigma_max in the step
    computation; use it when the residual itself is finite-difference data,
    so noise-level directions do not blow up the step.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual(x), dtype=float)
    best = float(np.linalg.norm(r))
    cond = None
    for it in range(max_iter):
        if best < tol:
            return x, {"iterations": it, "residual": best, "cond": cond}
        j = np.atleast_2d(jacobian(residual, x, fd_step))
        sv = np.linalg.svd(j, compute_uv=False)
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
        delta = np.linalg.lstsq(j, -r, rcond=rcond)[0]
        step = 1.0
        improved = False
        if damping:
            for _ in range(30):
                cand = x + step * delta
                rc = np.asarray(residual(cand), dtype=float)
                nc = float(np.linalg.norm(rc))
                if nc < best or nc < tol:
                    x, r, best = cand, rc, nc
                    improved = True
                    break
                step *= 0.5
        else:
            x = x + delta
            r = np.asarray(residual(x), dtype=float)
            best = float(np.linalg.norm(r))
            improved = True
        if not improved:
            if cond is not None and cond > 1e12:
                raise SingularJacobian(
                    f"stalled at residual {best:.3e} with condition {cond:.3e}",
                    cond=cond,
                )
            raise NoConvergence(f"no descent at residual {best:.3e} after {it + 1} iterations")
    if best < tol:
        return x, {"iterations": max_iter, "residual": best, "cond": cond}
    raise NoConvergence(f"residual {best:.3e} > tol {tol:.1e} after {max_iter} iterations")
