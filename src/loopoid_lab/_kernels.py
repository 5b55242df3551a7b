"""Hot kernels: Cayley-table identity scans and batched octonion products.

The scans are numpy gathers through an ``(n, n)`` integer table whose entries
index into ``range(n)``, on the full triple range or on sample-index vectors
(through the raveled table at ``x * n + y``).  They return the number of
violated instances, so 0 means the identity holds.  The six identities share
their subproducts: ``(ab)c`` and ``a(bc)`` are associativity's two sides, and
with ``a(b(ac))`` and ``((ab)c)b`` they serve the Moufang forms and both Bol
identities too, so the exhaustive scan builds ten ``n^3`` gathers and the
sampled scan 22 flat-index gathers.

The octonion product is a gather through the signed basis-product table,
laid out ``[i, k, row]`` so that each output coefficient sums its 8 terms
over the leading axis, one whole-chunk addition per term.
"""

import numpy as np

# rows per octonion chunk: keeps the [i, k, row] temporaries near 0.5-1 MB
OCT_CHUNK = 1024


def associative_scan(t):
    """Count of triples violating (ab)c = a(bc); 0 means associative."""
    return int(np.count_nonzero(t.take(t, axis=0) != t[:, t]))


def identity_scans(t):
    """Violation counts over all triples of associativity, the three Moufang
    forms, left Bol and right Bol, in that order.

    The forms are ((ab)a)c = a(b(ac)), ((ab)c)b = a(b(cb)) and
    (ab)(ca) = (a(bc))a; left Bol is a(b(ac)) = (a(ba))c and right Bol
    ((ab)c)b = a((bc)b).  Each ``n^3`` array is dropped once its last
    comparison is made, so at most four are alive.
    """
    n = t.shape[0]
    ar = np.arange(n)
    left = t.take(t, axis=0)                     # [a, b, c] = (ab)c
    right = t[:, t]                              # [a, b, c] = a(bc)
    assoc = np.count_nonzero(left != right)
    aba = t[t, ar[:, None]]                      # [a, b] = (ab)a
    aba_r = t[ar[:, None], t.T]                  # [a, b] = a(ba)
    form2 = np.count_nonzero(t[t[:, :, None], t.T[:, None, :]] != t[right, ar[:, None, None]])
    a_b_ac = t[ar[:, None, None], right.transpose(1, 0, 2)]  # [a, b, c] = a(b(ac))
    del right
    form0 = np.count_nonzero(t.take(aba, axis=0) != a_b_ac)
    left_bol = np.count_nonzero(a_b_ac != t.take(aba_r, axis=0))
    del a_b_ac
    ab_c_b = t[left, ar[None, :, None]]          # [a, b, c] = ((ab)c)b
    del left
    form1 = np.count_nonzero(ab_c_b != t[:, aba_r])
    right_bol = np.count_nonzero(ab_c_b != t[:, aba])
    return tuple(int(c) for c in (assoc, form0, form1, form2, left_bol, right_bol))


def sampled_scans(t, a, b, c):
    """``identity_scans``' six counts over the triples ``(a[s], b[s], c[s])``."""
    n = t.shape[0]
    flat = t.ravel()

    def m(x, y):
        return flat[x * n + y]

    def violations(lhs, rhs):
        return int(np.count_nonzero(lhs != rhs))

    ab, bc, ac, ca, ba = m(a, b), m(b, c), m(a, c), m(c, a), m(b, a)
    a_bc, ab_a, a_b_ac = m(a, bc), m(ab, a), m(a, m(b, ac))
    return (
        violations(m(ab, c), a_bc),
        violations(m(ab_a, c), a_b_ac),
        violations(m(m(ba, c), a), m(b, m(a, ca))),
        violations(m(ab, ca), m(a_bc, a)),
        violations(a_b_ac, m(m(a, ba), c)),
        violations(m(m(ca, b), a), m(c, ab_a)),
    )


def oct_mul_many(a, b, index, sign):
    """Batched octonion product of ``(N, 8)`` coefficient arrays.

    ``index[i, k]`` is the j with e_i e_j = ``sign[i, k]`` e_k.  The terms
    are laid out ``[i, k, row]`` and each output sums them over i in order;
    ``+ 0.0`` makes a zero sum +0, as the einsum this replaced did; two
    complex factors multiply without fused multiply-adds.
    """
    out = np.empty(a.shape, dtype=np.result_type(a, b, sign))
    both_complex = a.dtype.kind == b.dtype.kind == "c"
    sign = sign[:, :, None]
    for lo in range(0, len(a), OCT_CHUNK):
        x = a[lo:lo + OCT_CHUNK, None].T
        y = b[lo:lo + OCT_CHUNK].T.take(index, axis=0) * sign
        o = out[lo:lo + OCT_CHUNK].T
        if both_complex:
            o.real = (x.real * y.real - x.imag * y.imag).sum(axis=0) + 0.0
            o.imag = (x.real * y.imag + x.imag * y.real).sum(axis=0) + 0.0
        else:
            o[...] = (x * y).sum(axis=0) + 0.0
    return out
