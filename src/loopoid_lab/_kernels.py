"""Hot kernels: Cayley-table identity verdicts and batched octonion products.

The table kernels gather through an ``(n, n)`` integer table whose entries
index into ``range(n)``.  ``light_associative`` decides associativity
exactly from a generating set, at O(n^2 log n) on a Latin table.  The scans
decide the three Moufang forms and both Bol identities on all triples, or
those five and associativity on sampled index vectors, drawn block by block
(through the raveled table at ``x * n + y``).  A scan runs in chunks of
about ``SCAN_BLOCK`` triples, so its temporaries stay cache-sized; each
identity is dropped at its first violation, and the scan stops once every
identity is decided, before the next block is drawn.
The identities share subproducts such as ``a(b(ac))`` and ``((ab)c)b``,
so a chunk of the exhaustive scan makes ten gathers of its triples and a
block of the sampled scan 22 flat-index gathers while every identity is
open; a subproduct is built only when an open identity needs it.  The sampled scan gathers a product
that is a left factor from the premultiplied table ``t * n``: that product
arrives as its row offset, and its flat index costs one addition.

The octonion product is a gather through the signed basis-product table,
laid out ``[i, k, row]`` so that each output coefficient sums its 8 terms
over the leading axis, one whole-chunk addition per term.  Each chunk's
factors are copied contiguously and the terms multiplied in place.
"""

from functools import cache, partial

import numpy as np

# rows per octonion chunk: keeps the [i, k, row] terms near 0.5 MB
OCT_CHUNK = 1024
# triples per scan chunk or block: each int64 temporary is 128 KB
SCAN_BLOCK = 16_384


def light_associative(t):
    """Whether (xy)z = x(yz) on all triples, by Light's associativity test
    (Clifford & Preston, The Algebraic Theory of Semigroups I, 1961, 1.2).

    The elements a with (xa)y = x(ay) for all x, y are closed under the
    product: for two of them, (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by))
    = x((ab)y).  So the test on a generating set decides the table.  The
    set is built greedily, each new generator the first element outside
    the closure of the earlier ones, and the test stops at the first
    generator that fails.  On a Latin table a proper closed subset holds at
    most half the elements, so there are at most log2(n) + 1 generators and
    the cost is O(n^2 log n); on any table it is at most a direct scan's n^3.
    """
    n = t.shape[0]
    closed = np.zeros(n, dtype=bool)
    members = np.empty(0, dtype=np.intp)
    while not closed.all():
        g = int(np.argmin(closed))
        if not np.array_equal(t[t[:, g]], t[:, t[g]]):  # [x, y] = (xg)y and x(gy)
            return False
        new = np.array([g])
        while new.size:
            closed[new] = True
            members = np.concatenate([members, new])
            reached = np.zeros(n, dtype=bool)
            reached[t[np.ix_(new, members)]] = True
            reached[t[np.ix_(members, new)]] = True
            new = np.flatnonzero(reached & ~closed)
    return True


def identity_scans(t):
    """Verdicts over all triples of the three Moufang forms, left Bol and
    right Bol, in that order: the five identities that associativity
    implies but its failure does not decide.

    The forms are ((ab)a)c = a(b(ac)), ((ab)c)b = a(b(cb)) and
    (ab)(ca) = (a(bc))a; left Bol is a(b(ac)) = (a(ba))c and right Bol
    ((ab)c)b = a((bc)b).  The triples run in chunks of about
    ``SCAN_BLOCK`` by first array index, and each identity is dropped at
    its first violation.
    """
    n = t.shape[0]
    ar = np.arange(n)
    aba = t[t, ar[:, None]]          # [a, b] = (ab)a
    aba_r = t[ar[:, None], t.T]      # [a, b] = a(ba)
    step = max(1, SCAN_BLOCK // max(1, n * n))
    chunks = (partial(_scan_chunk, t, aba, aba_r, ar[lo:lo + step]) for lo in range(0, n, step))
    return _first_violations(5, chunks)


def _scan_chunk(t, aba, aba_r, s, open_):
    """``identity_scans``' verdicts on the triples whose first array index
    lies in ``s``, for the identities ``open_`` marks (True for the rest).
    That index is b in form 0 and left Bol and a in the other three, so
    either way the chunks cover every triple once."""
    ar = np.arange(t.shape[0])
    ts = t[s]                                            # [i, y] = s_i y
    s_yz = cache(lambda: ts[:, t])                       # [i, y, z] = s_i (yz)
    a_s_ac = cache(lambda: t[ar[None, :, None], s_yz()])  # [i, a, c] = a(s_i(ac))
    sb_c_b = cache(lambda: t[t.take(ts, axis=0), ar[None, :, None]])  # [i, b, c] = ((s_i b)c)b
    sides = (
        lambda: (t.take(aba[:, s].T, axis=0), a_s_ac()),
        lambda: (sb_c_b(), ts[:, aba_r]),
        lambda: (t[ts[:, :, None], t.T[s][:, None, :]], t[s_yz(), s[:, None, None]]),
        lambda: (a_s_ac(), t.take(aba_r[:, s].T, axis=0)),
        lambda: (sb_c_b(), ts[:, aba]),
    )
    return _verdicts(sides, open_)


def sampled_scans(t, draw, count):
    """Verdicts of associativity and ``identity_scans``' five identities
    over ``count`` sampled triples, run in blocks of ``SCAN_BLOCK``; each
    identity is dropped at its first violation.  ``draw(m)`` gives the next
    block's ``a, b, c`` index vectors of length m, and is called only when
    that block is scanned."""
    n = t.shape[0]
    flat = t.ravel()
    rows = flat * n
    blocks = (
        partial(_scan_block, flat, rows, n, *draw(min(SCAN_BLOCK, count - lo)))
        for lo in range(0, count, SCAN_BLOCK)
    )
    return _first_violations(6, blocks)


def _scan_block(flat, rows, n, a, b, c, open_):
    """The six verdicts on one block, for the identities ``open_`` marks.
    With ``xn = x * n``, ``flat[xn + y]`` is xy and ``rows[xn + y]`` is
    ``(xy) * n``; a name ending in ``_n`` holds such a multiple, and two
    sides compared as multiples agree as products."""
    an, bn, cn = a * n, b * n, c * n
    ab_n = cache(lambda: rows[an + b])
    ba = cache(lambda: flat[bn + a])
    ca = cache(lambda: flat[cn + a])
    ab_a = cache(lambda: flat[ab_n() + a])
    a_bc_n = cache(lambda: rows[an + flat[bn + c]])
    a_b_ac = cache(lambda: flat[an + flat[bn + flat[an + c]]])
    sides = (
        lambda: (rows[ab_n() + c], a_bc_n()),
        lambda: (flat[ab_a() * n + c], a_b_ac()),
        lambda: (flat[rows[ba() * n + c] + a], flat[bn + flat[an + ca()]]),
        lambda: (flat[ab_n() + ca()], flat[a_bc_n() + a]),
        lambda: (a_b_ac(), flat[rows[an + ba()] + c]),
        lambda: (flat[rows[ca() * n + b] + a], flat[cn + ab_a()]),
    )
    return _verdicts(sides, open_)


def _verdicts(sides, open_):
    """Whether each open identity's two sides agree; a closed one reads True."""
    return [not is_open or np.array_equal(*side()) for is_open, side in zip(open_, sides)]


def _first_violations(count, chunks):
    """The verdicts of ``count`` identities over the chunks, each a callable
    taking the mask of identities still open.  An identity closes at its
    first violation, and the scan stops once all are closed."""
    holds = [True] * count
    for chunk in chunks:
        holds = [h and ok for h, ok in zip(holds, chunk(holds))]
        if not any(holds):
            break
    return tuple(holds)


def oct_mul_many(a, b, index, sign):
    """Batched octonion product of ``(N, 8)`` coefficient arrays.

    ``index[i, k]`` is the j with e_i e_j = ``sign[i, k]`` e_k.  The terms
    are laid out ``[i, k, row]`` and each output sums them over i in order
    from +0, as the einsum this replaced did; two complex factors multiply
    without fused multiply-adds.
    """
    out = np.empty(a.shape, dtype=np.result_type(a, b, sign))
    both_complex = a.dtype.kind == b.dtype.kind == "c"
    sign = sign[:, :, None]
    for lo in range(0, len(a), OCT_CHUNK):
        x = np.ascontiguousarray(a[lo:lo + OCT_CHUNK].T)[:, None]
        y = b[lo:lo + OCT_CHUNK].T.take(index, axis=0)  # take copies the chunk contiguously first
        y *= sign
        o = out[lo:lo + OCT_CHUNK].T
        if both_complex:
            o.real = (x.real * y.real - x.imag * y.imag).sum(axis=0, initial=0.0)
            o.imag = (x.real * y.imag + x.imag * y.real).sum(axis=0, initial=0.0)
        else:
            if y.dtype == out.dtype:
                y *= x
            else:
                y = x * y
            o[...] = y.sum(axis=0, initial=0.0)
    return out
