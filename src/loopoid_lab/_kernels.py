"""Hot kernels: Cayley-table identity scans and batched octonion products.

The scans are numpy broadcasts over an ``(n, n)`` int32 table whose entries
index into ``range(n)``, on the full triple range or on sample-index vectors
(through the raveled table at ``x * n + y``).  They return the number of
violated instances, so 0 means the identity holds.  The octonion product is
a gather through the signed basis-product table.
"""

import numpy as np


def associative_scan(t):
    """Count of triples violating (ab)c = a(bc); 0 means associative."""
    n = t.shape[0]
    lhs = t[t]                      # [a, b, c] -> (ab)c
    rhs = t[np.arange(n)[:, None, None], t[None, :, :]]
    return int(np.count_nonzero(lhs != rhs))


def moufang_scan(t, form):
    """Count of violations of the Moufang identity ``form`` (0, 1 or 2)."""
    n = t.shape[0]
    ar = np.arange(n)
    p = t
    if form == 0:
        q = t[p, ar[:, None]]       # q[a, x] = (ax)a
        lhs = t[q]
        s = t[:, p]                 # s[x, a, y] = x(ay)
        rhs = t[ar[:, None, None], np.transpose(s, (1, 0, 2))]
        return int(np.count_nonzero(lhs != rhs))
    if form == 1:
        m2 = t[p]                   # [x, a, y] = (xa)y
        lhs = t[m2, ar[None, :, None]]
        v = t[ar[:, None], p.T]     # v[a, y] = a(ya)
        rhs = t[:, v]               # [x, a, y]
        return int(np.count_nonzero(lhs != rhs))
    lhs = t[p[:, :, None], p.T[:, None, :]]      # [a, x, y] = (ax)(ya)
    w = t[:, p]                                  # w[a, x, y] = a(xy)
    rhs = t[w, ar[:, None, None]]
    return int(np.count_nonzero(lhs != rhs))


def left_bol_scan(t):
    """Count of violations of a(b(ac)) = (a(ba))c."""
    n = t.shape[0]
    ar = np.arange(n)
    i2 = t[:, t]                                 # i2[b, a, c] = b(ac)
    lhs = t[ar[:, None, None], np.transpose(i2, (1, 0, 2))]
    j2 = t[ar[:, None], t.T]                     # j2[a, b] = a(ba)
    rhs = t[j2]
    return int(np.count_nonzero(lhs != rhs))


def right_bol_scan(t):
    """Count of violations of ((ca)b)a = c((ab)a)."""
    n = t.shape[0]
    ar = np.arange(n)
    k2 = t[t]                                    # k2[c, a, b] = (ca)b
    lhs = t[k2, ar[None, :, None]]
    q = t[t, ar[:, None]]                        # q[a, b] = (ab)a
    rhs = t[:, q]                                # [c, a, b]
    return int(np.count_nonzero(lhs != rhs))


def sampled_identity_scan(t, which, aa, bb, cc):
    """Sampled violation count for identity ``which``.

    0 associativity, 1..3 the Moufang forms, 4 left Bol, 5 right Bol.
    """
    n = t.shape[0]
    flat = t.ravel()

    def m(x, y):
        return flat[x * n + y]

    a, b, c = aa, bb, cc
    if which == 0:
        lhs, rhs = m(m(a, b), c), m(a, m(b, c))
    elif which == 1:
        lhs, rhs = m(m(m(a, b), a), c), m(a, m(b, m(a, c)))
    elif which == 2:
        lhs, rhs = m(m(m(b, a), c), a), m(b, m(a, m(c, a)))
    elif which == 3:
        lhs, rhs = m(m(a, b), m(c, a)), m(m(a, m(b, c)), a)
    elif which == 4:
        lhs, rhs = m(a, m(b, m(a, c))), m(m(a, m(b, a)), c)
    else:
        lhs, rhs = m(m(m(c, a), b), a), m(c, m(m(a, b), a))
    return int(np.count_nonzero(lhs != rhs))


def oct_mul_many(a, b, index, sign):
    """Batched octonion product of ``(N, 8)`` coefficient arrays.

    ``index[i, k]`` is the j with e_i e_j = ``sign[i, k]`` e_k.  Each output
    sums its terms over i in order and ``+ 0.0`` makes a zero sum +0, as the
    einsum this replaced did; two complex factors multiply without fused
    multiply-adds.  Chunks of 2048 rows keep the temporaries near 1-2 MB.
    """
    out = np.empty(a.shape, dtype=np.result_type(a, b, sign))
    both_complex = a.dtype.kind == b.dtype.kind == "c"
    for lo in range(0, len(a), 2048):
        x = a[lo:lo + 2048, :, None]
        y = b[lo:lo + 2048].take(index, axis=1) * sign
        o = out[lo:lo + 2048]
        if both_complex:
            o.real = (x.real * y.real - x.imag * y.imag).sum(axis=1) + 0.0
            o.imag = (x.real * y.imag + x.imag * y.real).sum(axis=1) + 0.0
        else:
            o[...] = (x * y).sum(axis=1) + 0.0
    return out
