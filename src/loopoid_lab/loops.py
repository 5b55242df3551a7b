"""Local smooth loops on coordinate charts of R^n.

A chart is evaluation-only: a multiplication map with a two-sided unit,
division by damped Newton from the additive guess x0 = b - a, and Taylor
structure-constant extraction c^k_ij = d^2 (x*y)^k / dx^i dy^j at the unit
via the 4-point mixed stencil.  The antisymmetrization s^k_ij = c^k_ij -
c^k_ji is the skew algebra of the loop.

Multiplications come as polynomial term lists (portable, sandbox-safe),
registered builtins (octonion, bracket), or arbitrary in-process callables.

Row contract: every multiplication built here, and ``eval_mul``, takes two
``(..., dim)`` operands with equal leading shapes and returns ``(...,
dim)``; each row equals, bit for bit, the product of that row alone, so a
difference stencil can evaluate all its points in one call.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NotAntisymmetric, NumericalNoise
from .newton import newton_solve
from .numdiff import CHART_STEP, jacobian, mixed_bilinear, smallest_singular_value
from .octonion import Octonion, oct_inverse, oct_mul_batch


@dataclass(frozen=True)
class SmoothLoopChart:
    """A local loop: smooth mul with two-sided unit, evaluated numerically."""

    dim: int
    mul: Callable
    unit: np.ndarray = None
    domain_radius: float = np.inf
    inverse: Optional[Callable] = None
    name: str = "loop"
    spec: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self):
        u = np.zeros(self.dim) if self.unit is None else np.asarray(self.unit, dtype=float)
        object.__setattr__(self, "unit", u.reshape(self.dim))

    def sample(self, rng, n, scale=0.2):
        return self.unit[None, :] + rng.normal(scale=scale, size=(n, self.dim))


def eval_mul(chart, x, y):
    """x * y, row by row, with a validity-radius guard around the unit."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.isfinite(chart.domain_radius):
        r = chart.domain_radius
        if np.max(np.abs(x - chart.unit)) > r or np.max(np.abs(y - chart.unit)) > r:
            raise DomainError(f"point outside validity radius {r}")
    return np.asarray(chart.mul(x, y), dtype=float).reshape(x.shape)


def divide(chart, side, a, b):
    """Solve a * x = b (side="left") or y * a = b (side="right") by Newton.

    Starts from the additive guess b - a; near the unit the multiplication
    is identity plus higher order, so this sits inside the basin.
    """
    a = np.asarray(a, dtype=float).reshape(chart.dim)
    b = np.asarray(b, dtype=float).reshape(chart.dim)
    if side == "left":
        residual = lambda x: eval_mul(chart, a, x) - b
    elif side == "right":
        residual = lambda y: eval_mul(chart, y, a) - b
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    x0 = b - a + chart.unit
    x, _ = newton_solve(residual, x0)
    return x


def _raw_constants(chart, rel_step):
    n = chart.dim
    c = np.zeros((n, n, n))
    f = lambda x, y: eval_mul(chart, x, y)
    for i in range(n):
        for j in range(n):
            c[:, i, j] = mixed_bilinear(f, chart.unit, chart.unit, i, j, rel_step)
    return c


@dataclass(frozen=True)
class SkewAlgebra:
    """Antisymmetric structure constants s^k_ij stored as constants[k, i, j]."""

    dim: int
    constants: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.constants, dtype=float)
        object.__setattr__(self, "constants", s)

    def bracket(self, x, y):
        return np.einsum("kij,i,j->k", self.constants, x, y)


def extract_structure_constants(chart):
    """Return (c tensor, SkewAlgebra) from second mixed derivatives at the unit.

    Re-extracts at half the step and raises NumericalNoise if the
    antisymmetrized parts disagree beyond 1e-4 (two-step Richardson
    comparison).
    """
    c = _raw_constants(chart, CHART_STEP)
    c2 = _raw_constants(chart, CHART_STEP / 2.0)
    s = c - np.swapaxes(c, 1, 2)
    s2 = c2 - np.swapaxes(c2, 1, 2)
    drift = float(np.max(np.abs(s - s2))) if s.size else 0.0
    if drift > 1e-4:
        raise NumericalNoise(f"antisymmetrized constants drift {drift:.3e} across step sizes")
    return c, SkewAlgebra(dim=chart.dim, constants=s)


def bracket_loop(dim, bracket_constants):
    """Chart with mul = x + y + [x, y]/2 for antisymmetric constants C[k, i, j].

    Structure-constant extraction round-trips C.
    """
    c = np.asarray(bracket_constants, dtype=float)
    if c.shape != (dim, dim, dim):
        raise NotAntisymmetric(f"constants shape {c.shape} != ({dim},)*3")
    if not np.allclose(c, -np.swapaxes(c, 1, 2), atol=1e-12):
        raise NotAntisymmetric("constants are not antisymmetric in the lower indices")

    def mul(x, y):
        return x + y + 0.5 * np.einsum("kij,...i,...j->...k", c, x, y)

    return SmoothLoopChart(
        dim=dim,
        mul=mul,
        name="bracket",
        spec={"kind": "bracket", "dim": dim, "constants": c.tolist()},
    )


def cross_product_constants():
    """The R^3 cross product as a constants tensor."""
    c = np.zeros((3, 3, 3))
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[k, i, j] = 1.0
        c[k, j, i] = -1.0
    return c


def octonion_chart():
    """The invertible octonions as an 8-dim chart with unit e0."""

    def mul(x, y):
        return oct_mul_batch(np.reshape(x, (-1, 8)), np.reshape(y, (-1, 8))).reshape(np.shape(x))

    def inv(x):
        return oct_inverse(Octonion(x)).coeffs

    unit = np.zeros(8)
    unit[0] = 1.0
    return SmoothLoopChart(
        dim=8,
        mul=mul,
        unit=unit,
        inverse=inv,
        name="octonion",
        spec={"kind": "builtin", "name": "octonion"},
    )


def polynomial_mul(dim, terms):
    """Multiplication from per-coordinate term lists.

    ``terms[k]`` is a list of (coeff, x_exponents, y_exponents) tuples;
    coordinate k of x * y is the sum of coeff * prod(x**xe) * prod(y**ye),
    taken in term-list order from 0.0.  All terms are evaluated at once:
    slot ``j`` of coordinate ``k`` holds its ``j``-th term, and the slots a
    coordinate lacks hold the zero term (coefficient 0, exponents 0), which
    adds an exact +0.0.
    """
    if len(terms) != dim:
        raise ValueError(f"need {dim} coordinate term lists, got {len(terms)}")
    slots = max((len(row) for row in terms), default=0)
    coeff = np.zeros((slots, dim))
    x_exp = np.zeros((slots, dim, dim))
    y_exp = np.zeros((slots, dim, dim))
    for k, row in enumerate(terms):
        for j, (c, xe, ye) in enumerate(row):
            coeff[j, k] = float(c)
            x_exp[j, k] = xe
            y_exp[j, k] = ye
    x_exp = x_exp.ravel()
    y_exp = y_exp.ravel()
    # every slot and coordinate reads all dim coordinates of an operand
    cols = np.tile(np.arange(dim), slots * dim)

    def monomials(x, exponents):
        # np.take gives C-ordered rows, so the power runs the contiguous loop
        # a single point gets; on other layouts numpy may pick a loop that
        # rounds some powers differently
        powers = np.take(x, cols, axis=-1) ** exponents
        return np.prod(powers.reshape(np.shape(x)[:-1] + (slots, dim, dim)), axis=-1)

    def mul(x, y):
        terms_xy = coeff * monomials(x, x_exp) * monomials(y, y_exp)
        out = np.zeros(np.shape(x)[:-1] + (dim,))
        for j in range(slots):
            out += terms_xy[..., j, :]
        return out

    return mul


def polynomial_chart(dim, terms, unit=None, name="polynomial"):
    return SmoothLoopChart(
        dim=dim,
        mul=polynomial_mul(dim, terms),
        unit=unit,
        name=name,
        spec={"kind": "polynomial", "dim": dim, "terms": terms},
    )


def planar_feedback_terms():
    """Term list for the 2-dim loop (x1+y1+x1 y2, x2+y2+x2 y1).

    Its skew algebra is [X1, X2] = X1 - X2: each coordinate feeds on the
    other factor's opposite coordinate.
    """
    return [
        [(1.0, (1, 0), (0, 0)), (1.0, (0, 0), (1, 0)), (1.0, (1, 0), (0, 1))],
        [(1.0, (0, 1), (0, 0)), (1.0, (0, 0), (0, 1)), (1.0, (0, 1), (1, 0))],
    ]


def planar_feedback_chart():
    return polynomial_chart(2, planar_feedback_terms(), name="planar_feedback")


def cubic_line_terms():
    """Term list for the 1-dim loop x * y = x + y + x^2 y."""
    return [[(1.0, (1,), (0,)), (1.0, (0,), (1,)), (1.0, (2,), (1,))]]


def cubic_line_chart():
    return polynomial_chart(1, cubic_line_terms(), name="cubic_line")


def validate_chart(chart, rng, n_samples=20, scale=0.2):
    """Unit laws and local invertibility of translations on samples."""
    pts = chart.sample(rng, n_samples, scale=scale)
    unit_resid = 0.0
    min_sv = np.inf
    for p in pts:
        unit_resid = max(unit_resid, float(np.max(np.abs(eval_mul(chart, chart.unit, p) - p))))
        unit_resid = max(unit_resid, float(np.max(np.abs(eval_mul(chart, p, chart.unit) - p))))
        jl = jacobian(lambda y: eval_mul(chart, p, y), chart.unit, CHART_STEP)
        jr = jacobian(lambda x: eval_mul(chart, x, chart.unit), chart.unit, CHART_STEP)
        min_sv = min(min_sv, smallest_singular_value(jl), smallest_singular_value(jr))
    return {"unit_residual": unit_resid, "translation_min_sv": float(min_sv), "unit_ok": unit_resid < 1e-9}
