"""The real octonion division algebra and its loop of invertible elements.

Multiplication is table-driven: the basis products e_i e_j are stored as a
sign array and an index array built from the seven oriented quaternionic
triples

    (1,2,3) (1,4,5) (1,7,6) (2,4,6) (2,5,7) (3,4,7) (3,6,5)

meaning e.g. e1 e2 = e3, e2 e3 = e1, e3 e1 = e2, together with e_i^2 = -1
and e0 = 1.  The batched product reads the table in gather form:
GATHER_INDEX[i, k] = j and GATHER_SIGN[i, k] = s where e_i e_j = s e_k.
The induced bilinear product is norm multiplicative, which the test suite
checks on seeded random batches.

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

# (ab)_k = sum_i a_i b_{GATHER_INDEX[i, k]} GATHER_SIGN[i, k]
GATHER_INDEX = np.argsort(MUL_INDEX, axis=1)
GATHER_SIGN = np.take_along_axis(MUL_SIGN, GATHER_INDEX, axis=1)

INVERT_EPS = 1e-300


def oct_mul_batch(a, b):
    """Product of ``(..., 8)`` coefficient stacks with equal shapes, row by row."""
    return _kernels.oct_mul_many(a.reshape(-1, 8), b.reshape(-1, 8), GATHER_INDEX, GATHER_SIGN).reshape(a.shape)


def _blocks_max(defect, *stacks):
    """The largest ``defect`` of ``_kernels.OCT_CHUNK``-row blocks: the whole-array max, bit for bit."""
    chunk = _kernels.OCT_CHUNK
    return float(np.max([defect(*(s[lo:lo + chunk] for s in stacks)) for lo in range(0, len(stacks[0]), chunk)]))


def norm_defect(a, b):
    """The largest ``| |ab| - |a||b| | / (|a||b|)`` over the rows of two
    ``(N, 8)`` stacks, in blocks of ``_kernels.OCT_CHUNK`` rows.

    A norm is ``sqrt(add.reduce(x * x, axis=1))``, as ``np.linalg.norm``
    computes it, so the value equals the whole-array formula bit for bit.
    """
    def norm(x):
        return np.sqrt(np.add.reduce(x * x, axis=1))

    def defect(x, y):
        norm_xy = norm(x) * norm(y)
        return (np.abs(norm(oct_mul_batch(x, y)) - norm_xy) / norm_xy).max()

    return _blocks_max(defect, a, b)


def moufang_defect(u1, u2, u3):
    """The largest ``|((u1 u2) u1) u3 - u1 (u2 (u1 u3))|`` entry over the rows
    of three ``(N, 8)`` stacks, in blocks of ``_kernels.OCT_CHUNK`` rows."""
    lhs = lambda a, x, y: oct_mul_batch(oct_mul_batch(oct_mul_batch(a, x), a), y)
    rhs = lambda a, x, y: oct_mul_batch(a, oct_mul_batch(x, oct_mul_batch(a, y)))
    return _blocks_max(lambda *block: np.abs(lhs(*block) - rhs(*block)).max(), u1, u2, u3)


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
        if not np.isfinite(value):
            raise ValueError(f"octonion coefficient beyond the float range at: {cleaned[pos:]!r}")
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
