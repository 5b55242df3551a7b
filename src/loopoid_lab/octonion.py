"""The real octonion division algebra and its loop of invertible elements.

Multiplication is table-driven: the basis products e_i e_j are stored as a
sign array and an index array built from the seven oriented quaternionic
triples

    (1,2,3) (1,4,5) (1,7,6) (2,4,6) (2,5,7) (3,4,7) (3,6,5)

meaning e.g. e1 e2 = e3, e2 e3 = e1, e3 e1 = e2, together with e_i^2 = -1
and e0 = 1.  The induced bilinear product is norm multiplicative, which the
test suite checks on seeded random batches.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DivisionByZero

ORIENTED_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5))


def _build_tables():
    index = np.zeros((8, 8), dtype=np.int64)
    sign = np.zeros((8, 8), dtype=np.float64)
    index[0, :] = np.arange(8)
    sign[0, :] = 1.0
    index[:, 0] = np.arange(8)
    sign[:, 0] = 1.0
    for i in range(1, 8):
        index[i, i] = 0
        sign[i, i] = -1.0
    for (i, j, k) in ORIENTED_TRIPLES:
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            index[a, b] = c
            sign[a, b] = 1.0
            index[b, a] = c
            sign[b, a] = -1.0
    return index, sign


MUL_INDEX, MUL_SIGN = _build_tables()

# structure tensor: (e_i e_j)_k, used by the numpy product lane
MUL_TENSOR = np.zeros((8, 8, 8))
for _i in range(8):
    for _j in range(8):
        MUL_TENSOR[_i, _j, MUL_INDEX[_i, _j]] = MUL_SIGN[_i, _j]

INVERT_EPS = 1e-300


@dataclass(frozen=True)
class Octonion:
    """8 real coefficients over the basis e0..e7, with e0 the identity."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float).reshape(8)
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def basis(i):
        c = np.zeros(8)
        c[i] = 1.0
        return Octonion(c)

    def __add__(self, other):
        return Octonion(self.coeffs + other.coeffs)

    def __sub__(self, other):
        return Octonion(self.coeffs - other.coeffs)

    def __neg__(self):
        return Octonion(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Octonion):
            return oct_mul(self, other)
        return Octonion(self.coeffs * float(other))

    __rmul__ = __mul__

    def conj(self):
        c = self.coeffs.copy()
        c[1:] = -c[1:]
        return Octonion(c)

    def norm_sq(self):
        return float(self.coeffs @ self.coeffs)

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    def __repr__(self):
        return f"Octonion({self.coeffs.tolist()})"


def oct_mul(a, b):
    """Bilinear table-driven product."""
    out = _kernels.oct_mul_many(a.coeffs[None, :], b.coeffs[None, :], MUL_TENSOR)[0]
    return Octonion(out)


def oct_mul_batch(a, b):
    """Product of (N, 8) coefficient batches; hot path of the random checks."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return _kernels.oct_mul_many(a, b, MUL_TENSOR)


def oct_inverse(g):
    """g^{-1} = conj(g) / |g|^2; refuses numerically zero inputs."""
    nsq = g.norm_sq()
    if g.norm() < INVERT_EPS:
        raise DivisionByZero("octonion norm below inversion threshold")
    return Octonion(g.conj().coeffs / nsq)


def oct_inner(g, h):
    """Euclidean pairing of coefficients; equals the e0 part of (g h* + h g*)/2."""
    return float(g.coeffs @ h.coeffs)


def random_octonions(rng, n):
    return rng.normal(size=(n, 8))


def random_unit_octonions(rng, n):
    g = rng.normal(size=(n, 8))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def parse_expression(text):
    """Parse "e1 + 2e3 - 0.5" style basis expressions into an Octonion."""
    import re

    cleaned = text.replace(" ", "")
    if not cleaned:
        raise ValueError("empty octonion expression")
    coeffs = np.zeros(8)
    token = re.compile(r"([+-]?)((?:\d+\.?\d*|\.\d+)?)(?:e([0-7]))?")
    pos = 0
    matched = False
    while pos < len(cleaned):
        m = token.match(cleaned, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse octonion expression at: {cleaned[pos:]!r}")
        sgn, num, idx = m.groups()
        if num == "" and idx is None:
            raise ValueError(f"cannot parse octonion expression at: {cleaned[pos:]!r}")
        value = float(num) if num else 1.0
        if sgn == "-":
            value = -value
        coeffs[int(idx) if idx is not None else 0] += value
        pos = m.end()
        matched = True
    if not matched:
        raise ValueError(f"cannot parse octonion expression: {text!r}")
    return Octonion(coeffs)


def format_expression(g, digits=12):
    parts = []
    for i, c in enumerate(g.coeffs):
        if abs(c) < 10 ** (-digits):
            continue
        coef = f"{c:.{digits}g}"
        parts.append(f"{coef}e{i}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"
