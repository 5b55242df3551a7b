"""Local smooth loops on coordinate charts of R^n.

A chart is evaluation-only: a multiplication map with a two-sided unit and
Taylor structure-constant extraction c^k_ij = d^2 (x*y)^k / dx^i dy^j at
the unit via the 4-point mixed stencil.  The antisymmetrization
s^k_ij = c^k_ij - c^k_ji is the skew algebra of the loop.

Multiplications come as polynomial term lists (portable, sandbox-safe),
registered builtins (octonion, bracket), or arbitrary in-process callables.

Row contract: every multiplication built here takes two ``(..., dim)``
operands with equal leading shapes and returns ``(..., dim)``, and the
octonion inverse takes ``(..., 8)``; each row equals, bit for bit, the map
of that row alone, so a difference stencil can evaluate all its points in
one call.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NotAntisymmetric, NumericalNoise
from .numdiff import CHART_STEP, mixed_bilinear
from .octonion import oct_inverse, oct_mul_batch


@dataclass(frozen=True)
class SmoothLoopChart:
    """A local loop: smooth mul with two-sided unit, evaluated numerically."""

    dim: int
    mul: Callable
    unit: np.ndarray = None
    inverse: Optional[Callable] = None
    name: str = "loop"

    def __post_init__(self):
        u = np.zeros(self.dim) if self.unit is None else np.asarray(self.unit, dtype=float)
        object.__setattr__(self, "unit", u.reshape(self.dim))

    def sample(self, rng, n):
        return self.unit[None, :] + rng.normal(scale=0.2, size=(n, self.dim))


def _raw_constants(chart, rel_step):
    n = chart.dim
    c = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            c[:, i, j] = mixed_bilinear(chart.mul, chart.unit, chart.unit, i, j, rel_step)
    return c


@dataclass(frozen=True)
class SkewAlgebra:
    """Antisymmetric structure constants s^k_ij stored as constants[k, i, j]."""

    dim: int
    constants: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.constants, dtype=float)
        object.__setattr__(self, "constants", s)


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
    )


def octonion_chart():
    """The invertible octonions as an 8-dim chart with unit e0."""
    unit = np.zeros(8)
    unit[0] = 1.0
    return SmoothLoopChart(
        dim=8,
        mul=oct_mul_batch,
        unit=unit,
        inverse=oct_inverse,
        name="octonion",
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
    )
