"""Local smooth loops on coordinate charts of R^n.

A chart is evaluation-only: a multiplication map with a two-sided unit.
Its skew algebra is the Lie functor of the loop seen as a loopoid over a
point, the product with pair(0) (``loopoids.loop_as_loopoid``,
``algebroid.loop_skew_constants``).

Multiplications come as polynomial term lists (portable, sandbox-safe),
registered builtins (octonion, bracket), or arbitrary in-process callables.

Row contract: every multiplication built here takes two ``(..., dim)``
operands with equal leading shapes and returns ``(..., dim)`` (a
``polynomial_map`` takes its k operands alike), and the octonion inverse
takes ``(..., 8)``; each row equals, bit for bit, the map of that row
alone, so a difference stencil can evaluate all its points in one call.
Operands are ndarrays of any float or complex dtype and are never cast,
so complex operands give a complex product.  Only the constructors cast
what a caller builds: a chart's unit and the bracket constants.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NotAntisymmetric
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


# The one-point loop: its sample is an (n, 0) draw, which leaves the
# generator as it was.  POINT x pair(n) is the pair groupoid.
POINT = SmoothLoopChart(dim=0, mul=lambda x, y: x, inverse=lambda x: x, name="point")


def bracket_loop(dim, bracket_constants):
    """Chart with mul = x + y + [x, y]/2 for antisymmetric constants C[k, i, j].

    Its skew algebra (``algebroid.loop_skew_constants``) round-trips C.
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


def polynomial_map(terms, dims):
    """Polynomial map of k operands of dimensions ``dims`` from per-coordinate
    term lists.

    ``terms[i]`` is a list of (coeff, exponents_1, ..., exponents_k) tuples;
    coordinate i of the map is the sum of coeff * prod(x_1**e_1) * ... *
    prod(x_k**e_k), taken in term-list order from 0.0.  All terms are
    evaluated at once: slot ``j`` of coordinate ``i`` holds its ``j``-th
    term, and the slots a coordinate lacks hold the zero term (coefficient
    0, exponents 0), which adds an exact +0.0.  A polynomial Lagrangian is
    the one-operand, one-coordinate case.
    """
    dim = len(terms)
    slots = max((len(row) for row in terms), default=0)
    coeff = np.zeros((slots, dim))
    exps = [np.zeros((slots, dim, n)) for n in dims]
    for i, row in enumerate(terms):
        for j, (c, *es) in enumerate(row):
            coeff[j, i] = float(c)
            for exp, e in zip(exps, es):
                exp[j, i] = e
    # every slot and coordinate reads all coordinates of an operand
    operands = [(np.tile(np.arange(n), slots * dim), exp.ravel(), exp.shape) for n, exp in zip(dims, exps)]

    def f(*xs):
        terms_x = coeff
        for x, (cols, exponents, shape) in zip(xs, operands):
            # take gives C-ordered rows, so the power runs the contiguous loop
            # a single point gets (other layouts may round some powers
            # otherwise); x.take and multiply.reduce are np.take and np.prod
            # without wrappers
            powers = x.take(cols, axis=-1) ** exponents
            terms_x = terms_x * np.multiply.reduce(powers.reshape(x.shape[:-1] + shape), axis=-1)
        out = np.zeros(np.shape(xs[0])[:-1] + (dim,), dtype=np.result_type(*xs, float))
        for j in range(slots):
            out += terms_x[..., j, :]
        return out

    return f


def polynomial_mul(dim, terms):
    """The two-operand ``polynomial_map``: terms (coeff, x_exps, y_exps)."""
    if len(terms) != dim:
        raise ValueError(f"need {dim} coordinate term lists, got {len(terms)}")
    return polynomial_map(terms, (dim, dim))


def polynomial_chart(dim, terms, unit=None):
    return SmoothLoopChart(dim=dim, mul=polynomial_mul(dim, terms), unit=unit, name="polynomial")
