"""The real octonion division algebra and its loop of invertible elements.

Multiplication is table-driven: the basis products e_i e_j are stored as a
sign array and an index array built from the seven oriented quaternionic
triples

    (1,2,3) (1,4,5) (1,7,6) (2,4,6) (2,5,7) (3,4,7) (3,6,5)

meaning e.g. e1 e2 = e3, e2 e3 = e1, e3 e1 = e2, together with e_i^2 = -1
and e0 = 1.  The batched product reads the table in gather form:
GATHER_INDEX[i, k] = j and GATHER_SIGN[i, k] = s where e_i e_j = s e_k.
The norm, Moufang, conjugation and inverse-property identities are decided
exactly, in integers, on the table's structure tensor; the product kernel
is checked on seeded pairs whose norms float64 computes without rounding.

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


def identity_residuals():
    """The largest integer residuals of the norm, Moufang, conjugation and
    inverse-property identities on basis tuples, in that order.

    Each identity has bounded degree, so it holds for all octonions exactly
    when its polarization vanishes on basis tuples: a residual is 0 exactly
    then.  In N(xy) = N(x)N(y), ((xy)x)z = x(y(xz)) and conj(x)(xy) = N(x)y
    the repeated argument is symmetrised over its two slots;
    conj(xy) = conj(y)conj(x) is bilinear.  The structure tensor is built
    from ``MUL_INDEX`` and ``MUL_SIGN`` as they stand at the call.
    """
    g = np.zeros((8, 8, 8), dtype=np.int64)  # gamma[i, j, k], the e_k coefficient of e_i e_j
    g[np.arange(8)[:, None], np.arange(8), MUL_INDEX] = MUL_SIGN
    c = np.where(np.arange(8) == 0, 1, -1)  # conj(e_a) = c_a e_a
    eye = np.eye(8, dtype=np.int64)
    delta2 = 2 * eye[:, :, None, None] * eye  # [a, a', b, b'] = 2 delta_aa' delta_bb'
    s = np.einsum("ijk,abk->iajb", g, g)  # [i, i', j, j'] = sum over k of gamma_ijk gamma_i'j'k
    norm = s + s.swapaxes(2, 3) - delta2
    lhs = np.einsum("acp,pbq,qdr->abcdr", g, g, g, optimize=True)  # ((e_a e_c) e_b) e_d
    rhs = np.einsum("bdp,cpq,aqr->abcdr", g, g, g, optimize=True)  # e_a (e_c (e_b e_d))
    moufang = (lhs - rhs) + (lhs - rhs).swapaxes(0, 1)
    conj = c * g - (c[:, None] * c)[:, :, None] * g.swapaxes(0, 1)
    inverse = c[:, None, None, None] * np.einsum("bdp,apr->abdr", g, g)  # conj(e_a)(e_b e_d)
    inverse = inverse + inverse.swapaxes(0, 1) - delta2
    return tuple(int(np.abs(r).max()) for r in (norm, moufang, conj, inverse))


def kernel_batch_defect(rng, n):
    """The largest ``|N(ab) - N(a)N(b)|`` over ``n`` seeded pairs, drawn and
    multiplied by ``oct_mul_batch`` one ``_kernels.OCT_CHUNK``-row chunk at a time.

    The coefficients are integers in [-1024, 1024) times 2^-5, so every
    product and partial sum of a norm is a multiple of 2^-20 with at most
    49 significant bits: float64 rounds nothing, and the value is exactly 0
    when the kernel multiplies by the table.
    """
    def norm(x):
        return np.einsum("ij,ij->i", x, x)

    worst = 0.0
    for lo in range(0, n, _kernels.OCT_CHUNK):
        size = (2, min(_kernels.OCT_CHUNK, n - lo), 8)
        a, b = rng.integers(-1024, 1024, size=size, dtype=np.int16) * 2.0**-5
        worst = max(worst, float(np.abs(norm(oct_mul_batch(a, b)) - norm(a) * norm(b)).max()))
    return worst


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
