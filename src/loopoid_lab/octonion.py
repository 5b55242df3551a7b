"""The real octonion division algebra and its loop of invertible elements.

Multiplication is table-driven: the basis products e_i e_j are stored as a
sign array and an index array built from the seven oriented quaternionic
triples

    (1,2,3) (1,4,5) (1,7,6) (2,4,6) (2,5,7) (3,4,7) (3,6,5)

meaning e.g. e1 e2 = e3, e2 e3 = e1, e3 e1 = e2, together with e_i^2 = -1
and e0 = 1.  The induced bilinear product is norm multiplicative, which the
test suite checks on seeded random batches.

An octonion is an array of its 8 coefficients over e0..e7; the product,
conjugation and inverse take ``(..., 8)`` stacks and act row by row.
"""

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


def oct_mul_batch(a, b):
    """Product of ``(..., 8)`` coefficient stacks with equal shapes, row by row."""
    return _kernels.oct_mul_many(a.reshape(-1, 8), b.reshape(-1, 8), MUL_TENSOR).reshape(a.shape)


def oct_conj(x):
    """Conjugates of a ``(..., 8)`` stack: the e1..e7 parts negated."""
    out = x.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def oct_inverse(x):
    """x^{-1} = conj(x) / |x|^2 row by row; refuses numerically zero rows."""
    # a row's |x|^2 as a stacked matmul rounds as x @ x does on that row alone
    nsq = (x[..., None, :] @ x[..., :, None])[..., 0]
    if np.any(np.sqrt(nsq) < INVERT_EPS):
        raise DivisionByZero("octonion norm below inversion threshold")
    return oct_conj(x) / nsq


def random_octonions(rng, n):
    return rng.normal(size=(n, 8))


def random_unit_octonions(rng, n):
    g = rng.normal(size=(n, 8))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def parse_expression(text):
    """Parse "e1 + 2e3 - 0.5" style basis expressions into 8 coefficients."""
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
    return coeffs


def format_expression(coeffs):
    """The basis expression of 8 coefficients, each to 12 significant digits."""
    parts = []
    for i, c in enumerate(coeffs):
        if abs(c) < 1e-12:
            continue
        coef = f"{c:.12g}"
        parts.append(f"{coef}e{i}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"
