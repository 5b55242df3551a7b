"""Reference computations made apart from loopoid_lab.

Nothing here imports the program.  Each function derives an expected
output from first principles: the octonion product from the seven oriented
Fano triples, the closed-form discrete flow and Legendre transforms of the
planar-loop x pair(2) system, the planar bracket, bracket-loop constants,
and the identity classification of a Cayley table by a direct scan over
all triples.
"""

import math

import numpy as np

# ---------------------------------------------------------------------------
# octonions
# ---------------------------------------------------------------------------

FANO_TRIPLES = ((1, 2, 3), (1, 4, 5), (1, 7, 6), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 6, 5))


def octonion_basis_products():
    """(8, 8, 8) tensor T with e_i e_j = sum_k T[i, j, k] e_k.

    e0 is the unit, e_i^2 = -1, and each oriented triple (i, j, k) gives
    e_i e_j = e_k with its cyclic shifts; reversing the order flips the sign.
    """
    t = np.zeros((8, 8, 8))
    for i in range(8):
        t[0, i, i] = 1.0
        t[i, 0, i] = 1.0
    for i in range(1, 8):
        t[i, i, 0] = -1.0
    for a, b, c in FANO_TRIPLES:
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            t[i, j, k] = 1.0
            t[j, i, k] = -1.0
    return t


OCT = octonion_basis_products()


def oct_product(a, b):
    """Product of (N, 8) or (8,) coefficient arrays through the basis tensor."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.einsum("...i,...j,ijk->...k", a, b, OCT)


def octonion_commutator_constants():
    """C[k, i, j] = (e_i e_j - e_j e_i)_k over the basis e0..e7."""
    return np.transpose(OCT - np.swapaxes(OCT, 0, 1), (2, 0, 1))


def format_octonion(c):
    """A basis expression such as "+0.500000e0-2.000000e1" of six-decimal coefficients."""
    return "".join(f"{'+' if v >= 0 else '-'}{abs(v):.6f}e{i}" for i, v in enumerate(c))


# ---------------------------------------------------------------------------
# the planar loop x pair(2) system with L = |g|^2 / 2
# ---------------------------------------------------------------------------

PLANAR_TERMS = [
    [[1.0, [1, 0], [0, 0]], [1.0, [0, 0], [1, 0]], [1.0, [1, 0], [0, 1]]],
    [[1.0, [0, 1], [0, 0]], [1.0, [0, 0], [0, 1]], [1.0, [0, 1], [1, 0]]],
]
README_START = (1.0, 2.0, 0.7, -0.4, 0.5, 1.3)
README_AT = (0.3, -0.8, 0.2, 1.1, -0.4, 0.9)

SQRT21 = math.sqrt(21.0)
SURD_STEP1 = ((1.0 + SQRT21) / 2.0, (SQRT21 - 3.0) / 2.0)
SURD_STEP2_X1 = 1.5 - SQRT21 + 0.5 * math.sqrt(125.0 - 16.0 * SQRT21)


def flow_step_residual(g, h):
    """Closed-form discrete Euler-Lagrange equations of one step g -> h.

    h1 (1 + h2) = g1 + g2^2, h2 (1 + h1) = g1^2 + g2 and (h3, h4) = (g5, g6),
    scaled by the size of the right-hand sides; any solution branch passes.
    """
    g1, g2, _, _, g5, g6 = g
    h1, h2, h3, h4 = h[:4]
    a = g1 + g2 * g2
    b = g1 * g1 + g2
    scale = max(1.0, abs(a), abs(b), abs(g5), abs(g6))
    return max(abs(h1 * (1 + h2) - a), abs(h2 * (1 + h1) - b), abs(h3 - g5), abs(h4 - g6)) / scale


def legendre_plus(g):
    return np.array([g[0] + g[1] ** 2, g[0] ** 2 + g[1], g[4], g[5]])


def legendre_minus(g):
    return np.array([g[0] * (1 + g[1]), g[1] * (1 + g[0]), g[2], g[3]])


# skew constants S[k, i, j] of the planar loop: [X1, X2] = X1 - X2
PLANAR_SKEW = np.zeros((2, 2, 2))
PLANAR_SKEW[0, 0, 1], PLANAR_SKEW[0, 1, 0] = 1.0, -1.0
PLANAR_SKEW[1, 0, 1], PLANAR_SKEW[1, 1, 0] = -1.0, 1.0


def embedded_bracket(constants, rank):
    """Bracket tensor B[i, j, k] = C[k, i, j] on the first C.shape[0] sections."""
    c = np.asarray(constants, dtype=float)
    d = c.shape[0]
    b = np.zeros((rank, rank, rank))
    b[:d, :d, :d] = np.transpose(c, (1, 2, 0))
    return b


def random_antisymmetric(rng, dim):
    c = rng.uniform(-1.0, 1.0, size=(dim, dim, dim))
    return c - np.swapaxes(c, 1, 2)


def almost_lie_constant_algebroid(rng, rank, base_dim):
    """Constant (c, rho) with rho c[:, i, j] = 0, so the anchor is a morphism.

    For constant anchors [rho_i, rho_j] = 0, so almost-Lie means every
    bracket lies in ker rho; c is projected onto that kernel.
    """
    rho = rng.normal(size=(base_dim, rank))
    _, s, vt = np.linalg.svd(rho)
    kernel = vt[int(np.sum(s > 1e-12)) :]
    c = np.einsum("ab,bij->aij", kernel.T @ kernel, random_antisymmetric(rng, rank))
    return c, rho


# ---------------------------------------------------------------------------
# finite tables
# ---------------------------------------------------------------------------


def cyclic_table(n):
    return (np.arange(n)[:, None] + np.arange(n)[None, :]) % n


def direct_product(t1, t2):
    """Table of the product; element (a, b) has index a * |t2| + b."""
    n1, n2 = t1.shape[0], t2.shape[0]
    a = np.arange(n1 * n2) // n2
    b = np.arange(n1 * n2) % n2
    return t1[a[:, None], a[None, :]] * n2 + t2[b[:, None], b[None, :]]


def dihedral_table(n):
    """D_n of order 2n: index k is r^k, index n + k is r^k s (s r = r^-1 s)."""
    order = 2 * n
    t = np.zeros((order, order), dtype=np.int64)
    for x in range(order):
        fx, kx = divmod(x, n)
        for y in range(order):
            fy, ky = divmod(y, n)
            k = (kx + (ky if fx == 0 else -ky)) % n
            t[x, y] = ((fx + fy) % 2) * n + k
    return t


def signed_basis_loop():
    """Order-16 Moufang loop of +-e_i; index 2i + s with s = 1 for -e_i."""
    t = np.zeros((16, 16), dtype=np.int64)
    for i in range(8):
        for j in range(8):
            k = int(np.flatnonzero(OCT[i, j])[0])
            sign = OCT[i, j, k]
            for si in range(2):
                for sj in range(2):
                    negative = (sign * (1 - 2 * si) * (1 - 2 * sj)) < 0
                    t[2 * i + si, 2 * j + sj] = 2 * k + int(negative)
    return t


def sign_flip(indices):
    """Permutation of the signed basis loop negating e_i for i in ``indices``."""
    perm = np.arange(16)
    for i in indices:
        perm[2 * i], perm[2 * i + 1] = 2 * i + 1, 2 * i
    return perm


# Negating the four basis elements off a Fano line is an automorphism; the
# flips off lines (1,2,3) and (1,4,5) generate a Klein four-group.
LINE_FLIPS = (sign_flip((4, 5, 6, 7)), sign_flip((2, 3, 6, 7)))


def relabel(table, perm):
    """Isomorphic copy: element x becomes perm[x]."""
    perm = np.asarray(perm)
    out = np.empty_like(table)
    out[perm[:, None], perm[None, :]] = perm[table]
    return out


def semidirect_table(table, autos):
    """(g, A)(h, B) = (g A(h), A B) with (g, A_k) at index g * len(autos) + k."""
    n = table.shape[0]
    key = {tuple(p.tolist()): k for k, p in enumerate(autos)}
    na = len(autos)
    out = np.zeros((n * na, n * na), dtype=np.int64)
    for g in range(n):
        for i, a in enumerate(autos):
            for h in range(n):
                for j, b in enumerate(autos):
                    out[g * na + i, h * na + j] = table[g, a[h]] * na + key[tuple(a[b].tolist())]
    return out


def transversal_table(group, subgroup, transversal):
    """s o s' = p_S(s s') on the sorted transversal, p_S picking the coset rep."""
    h = sorted(subgroup)
    reps = sorted(transversal)
    rep_of = {}
    for s in reps:
        for x in h:
            rep_of[int(group[s, x])] = s
    index = {s: i for i, s in enumerate(reps)}
    m = len(reps)
    out = np.zeros((m, m), dtype=np.int64)
    for i, s in enumerate(reps):
        for j, s2 in enumerate(reps):
            out[i, j] = index[rep_of[int(group[s, s2])]]
    return out


# identities over triples, written as (lhs, rhs) of the table product m
IDENTITIES = {
    "associative": lambda m, a, b, c: (m(m(a, b), c), m(a, m(b, c))),
    "moufang0": lambda m, a, x, y: (m(m(m(a, x), a), y), m(a, m(x, m(a, y)))),
    "moufang1": lambda m, a, x, y: (m(m(m(x, a), y), a), m(x, m(a, m(y, a)))),
    "moufang2": lambda m, a, x, y: (m(m(a, x), m(y, a)), m(m(a, m(x, y)), a)),
    "left_bol": lambda m, a, b, c: (m(a, m(b, m(a, c))), m(m(a, m(b, a)), c)),
    "right_bol": lambda m, a, b, c: (m(m(m(c, a), b), a), m(c, m(m(a, b), a))),
}


def violation_counts(table):
    """Violations of each identity over all n^3 triples, one slab of a at a time."""
    n = table.shape[0]
    m = lambda x, y: table[x, y]
    b, c = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    counts = dict.fromkeys(IDENTITIES, 0)
    for a in range(n):
        av = np.full_like(b, a)
        for name, ident in IDENTITIES.items():
            lhs, rhs = ident(m, av, b, c)
            counts[name] += int(np.count_nonzero(lhs != rhs))
    return counts


def classify(table):
    """The identity report of a table, computed by direct enumeration.

    Field meanings follow the report schema: ``unit`` is the first two-sided
    identity; the inverse fields use the first left inverse x a = e and the
    first right inverse a x = e of each element and are False unless the
    table is a Latin square with a unit.
    """
    n = table.shape[0]
    ar = np.arange(n)
    latin = all(sorted(table[i]) == list(ar) for i in range(n)) and all(
        sorted(table[:, i]) == list(ar) for i in range(n)
    )
    unit = next(
        (u for u in range(n) if list(table[u]) == list(ar) and list(table[:, u]) == list(ar)), None
    )
    counts = violation_counts(table)
    holds = {k: v == 0 for k, v in counts.items()}
    two_sided = lip = rip = False
    if latin and unit is not None:
        left_inv = [next(x for x in range(n) if table[x, a] == unit) for a in range(n)]
        right_inv = [next(x for x in range(n) if table[a, x] == unit) for a in range(n)]
        two_sided = left_inv == right_inv
        lip = all(table[left_inv[a], table[a, b]] == b for a in range(n) for b in range(n))
        rip = all(table[table[a, b], right_inv[b]] == a for a in range(n) for b in range(n))
    forms = [holds["moufang0"], holds["moufang1"], holds["moufang2"]]
    report = {
        "is_latin_square": bool(latin),
        "unit": unit,
        "has_two_sided_inverses": bool(two_sided),
        "inverse_property": bool(two_sided and lip and rip),
        "left_inverse_property": bool(lip),
        "right_inverse_property": bool(rip),
        "moufang": all(forms),
        "moufang_forms": forms,
        "left_bol": holds["left_bol"],
        "right_bol": holds["right_bol"],
        "associative": holds["associative"],
    }
    return report, counts
