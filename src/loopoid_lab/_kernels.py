"""Hot kernels: Cayley-table identity scans and batched octonion products.

The scans are numpy broadcasts over a fancy-indexed table and the octonion
product is one ``einsum``.  Scans take an ``(n, n)`` int64 table whose entries index into ``range(n)`` and either the
full triple range or explicit sample-index vectors.  They return the number
of violated instances, so 0 means the identity holds.
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
    a, b, c = aa, bb, cc
    if which == 0:
        lhs, rhs = t[t[a, b], c], t[a, t[b, c]]
    elif which == 1:
        lhs, rhs = t[t[t[a, b], a], c], t[a, t[b, t[a, c]]]
    elif which == 2:
        lhs, rhs = t[t[t[b, a], c], a], t[b, t[a, t[c, a]]]
    elif which == 3:
        lhs, rhs = t[t[a, b], t[c, a]], t[t[a, t[b, c]], a]
    elif which == 4:
        lhs, rhs = t[a, t[b, t[a, c]]], t[t[a, t[b, a]], c]
    else:
        lhs, rhs = t[t[t[c, a], b], a], t[c, t[t[a, b], a]]
    return int(np.count_nonzero(lhs != rhs))


def oct_mul_many(a, b, tensor):
    """Batched octonion product of ``(N, 8)`` coefficient arrays."""
    return np.einsum("si,sj,ijk->sk", a, b, tensor)
