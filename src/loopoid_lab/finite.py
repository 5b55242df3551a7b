"""Finite quasigroups and loops as Cayley tables.

Elements are dense indices 0..order-1; external names belong to the I/O
layer.  Identity classification is exhaustive up to a configurable order cap
(default 64, O(n^3) triples) and switches to seeded random sampling beyond
it.  The two loop constructions here are the coset-transversal product
s o s' = p_S(s s') on a left transversal of a subgroup, and the semidirect
product (g, A)(h, B) = (g A(h), A B) of a loop with a set of its
automorphisms.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .errors import MalformedTable, NotAutomorphism, NotSubgroup, NotTransversal

EXHAUSTIVE_ORDER_CAP = 64
SAMPLED_TRIPLES = 200_000


@dataclass(frozen=True)
class CayleyTable:
    """An order x order magma table; ``unit`` is optional and checked lazily."""

    order: int
    table: np.ndarray
    unit: Optional[int] = None

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.int64)
        if t.shape != (self.order, self.order):
            raise MalformedTable(f"table shape {t.shape} != ({self.order}, {self.order})")
        if t.size and (t.min() < 0 or t.max() >= self.order):
            raise MalformedTable("table entries out of range")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)
        if self.unit is not None and not (0 <= self.unit < self.order):
            raise MalformedTable(f"unit index {self.unit} out of range")

    def mul(self, a, b):
        return int(self.table[a, b])


@dataclass(frozen=True)
class IdentityReport:
    is_latin_square: bool
    unit: Optional[int]
    has_two_sided_inverses: bool
    inverse_property: bool
    left_inverse_property: bool
    right_inverse_property: bool
    moufang: bool
    left_bol: bool
    right_bol: bool
    associative: bool
    # the three Moufang forms individually; they provably agree only for
    # quasigroups, so a disagreement on a non-Latin table is surfaced here
    moufang_forms: tuple = field(default=(False, False, False))
    exhaustive: bool = True

    def to_dict(self):
        d = {
            "is_latin_square": self.is_latin_square,
            "unit": self.unit,
            "has_two_sided_inverses": self.has_two_sided_inverses,
            "inverse_property": self.inverse_property,
            "left_inverse_property": self.left_inverse_property,
            "right_inverse_property": self.right_inverse_property,
            "moufang": self.moufang,
            "left_bol": self.left_bol,
            "right_bol": self.right_bol,
            "associative": self.associative,
            "moufang_forms": list(self.moufang_forms),
            "exhaustive": self.exhaustive,
        }
        return d


def _find_unit(t):
    n = t.shape[0]
    ar = np.arange(n)
    for u in range(n):
        if np.array_equal(t[u], ar) and np.array_equal(t[:, u], ar):
            return u
    return None


def _is_latin(t):
    n = t.shape[0]
    ar = np.arange(n)
    rows_ok = all(np.array_equal(np.sort(t[i]), ar) for i in range(n))
    cols_ok = all(np.array_equal(np.sort(t[:, i]), ar) for i in range(n))
    return rows_ok and cols_ok


def validate_latin_square(ct, *, max_exhaustive_order=EXHAUSTIVE_ORDER_CAP, rng=None):
    """Classify a Cayley table: Latin-ness, unit, inverse and Bol/Moufang flags.

    Beyond ``max_exhaustive_order`` the O(n^3) identities are sampled with the
    caller's seeded generator instead of enumerated.
    """
    t = ct.table
    n = ct.order
    latin = _is_latin(t)
    unit = _find_unit(t)

    exhaustive = n <= max_exhaustive_order
    if exhaustive:
        associative = _kernels.associative_scan(t) == 0
        forms = tuple(_kernels.moufang_scan(t, f) == 0 for f in range(3))
        left_bol = _kernels.left_bol_scan(t) == 0
        right_bol = _kernels.right_bol_scan(t) == 0
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        aa = rng.integers(0, n, size=SAMPLED_TRIPLES)
        bb = rng.integers(0, n, size=SAMPLED_TRIPLES)
        cc = rng.integers(0, n, size=SAMPLED_TRIPLES)
        associative = _kernels.sampled_identity_scan(t, 0, aa, bb, cc) == 0
        forms = tuple(_kernels.sampled_identity_scan(t, w, aa, bb, cc) == 0 for w in (1, 2, 3))
        left_bol = _kernels.sampled_identity_scan(t, 4, aa, bb, cc) == 0
        right_bol = _kernels.sampled_identity_scan(t, 5, aa, bb, cc) == 0

    has_two_sided = False
    lip = rip = ip = False
    if latin and unit is not None:
        ar = np.arange(n)
        # left inverse a_l of a solves x a = e; right inverse solves a x = e
        alam = np.argmax(t == unit, axis=0)  # per column a: row index with t[x, a] = e
        arho = np.argmax(t == unit, axis=1)  # per row a: column index with t[a, x] = e
        has_two_sided = bool(np.array_equal(alam, arho))
        lip = bool(np.array_equal(t[alam[:, None], t], ar[None, :].repeat(n, axis=0)))
        rip = bool(np.array_equal(t[t, arho[None, :].repeat(n, axis=0)], ar[:, None].repeat(n, axis=1)))
        ip = has_two_sided and lip and rip

    return IdentityReport(
        is_latin_square=latin,
        unit=unit,
        has_two_sided_inverses=has_two_sided,
        inverse_property=ip,
        left_inverse_property=lip,
        right_inverse_property=rip,
        moufang=all(forms),
        left_bol=left_bol,
        right_bol=right_bol,
        associative=associative,
        moufang_forms=forms,
        exhaustive=exhaustive,
    )


def _check_group(ct):
    t = ct.table
    unit = _find_unit(t)
    if not (_is_latin(t) and unit is not None and _kernels.associative_scan(t) == 0):
        raise NotSubgroup("input table is not a group")
    return unit


def transversal_loop(group, subgroup, transversal):
    """Coset-transversal loop: s o s' = p_S(s s') on a left transversal S.

    ``subgroup`` and ``transversal`` are element sets of the group table.
    The result is indexed by the sorted transversal.  It always has unit e
    and bijective left translations (a o x = b uniquely solvable: rows are
    permutations); the one-element left inverse property additionally needs
    the transversal to be closed under group inversion.
    """
    t = group.table
    e = _check_group(group)
    h_set = sorted(set(int(x) for x in subgroup))
    s_list = sorted(set(int(x) for x in transversal))
    h_mask = np.zeros(group.order, dtype=bool)
    h_mask[h_set] = True
    if e not in h_set:
        raise NotSubgroup("subgroup does not contain the unit")
    for a in h_set:
        for b in h_set:
            if not h_mask[t[a, b]]:
                raise NotSubgroup(f"closure fails at ({a}, {b})")
    if e not in s_list:
        raise NotTransversal("transversal must contain the unit")

    # coset of g: the sorted tuple of gH
    def coset(g):
        return tuple(sorted(int(t[g, h]) for h in h_set))

    seen = {}
    for s in s_list:
        c = coset(s)
        if c in seen:
            raise NotTransversal(f"elements {seen[c]} and {s} lie in the same coset")
        seen[c] = s
    all_cosets = {coset(g) for g in range(group.order)}
    if len(seen) != len(all_cosets):
        raise NotTransversal("transversal misses a coset")

    def project(g):
        return seen[coset(g)]

    index = {s: i for i, s in enumerate(s_list)}
    m = len(s_list)
    out = np.zeros((m, m), dtype=np.int64)
    for i, s in enumerate(s_list):
        for j, s2 in enumerate(s_list):
            out[i, j] = index[project(t[s, s2])]
    return CayleyTable(order=m, table=out, unit=index[e])


def _is_table_automorphism(ct, perm):
    t = ct.table
    p = np.asarray(perm, dtype=np.int64)
    if np.sort(p).tolist() != list(range(ct.order)):
        return False
    return np.array_equal(p[t], t[p[:, None], p[None, :]])


def semidirect_loop(loop, autos):
    """Pairs (g, A) with product (g * A(h), A o B).

    ``autos`` is a list of permutations (index arrays) that must contain the
    identity, be closed under composition, and each be an automorphism of the
    loop table.  Element (g, A_k) maps to index g * len(autos) + k.  If the
    loop has the inverse property, so does the result, with
    (g, A)^{-1} = (A^{-1}(g^{-1}), A^{-1}).
    """
    n = loop.order
    if loop.unit is None:
        raise NotAutomorphism("loop must carry a unit")
    perms = [np.asarray(a, dtype=np.int64) for a in autos]
    key = {tuple(p.tolist()): k for k, p in enumerate(perms)}
    if len(key) != len(perms):
        raise NotAutomorphism("duplicate automorphisms in the list")
    ident = tuple(range(n))
    if ident not in key:
        raise NotAutomorphism("automorphism list lacks the identity map")
    for k, p in enumerate(perms):
        if not _is_table_automorphism(loop, p):
            raise NotAutomorphism(f"map #{k} fails the homomorphism test")
        if p[loop.unit] != loop.unit:
            raise NotAutomorphism(f"map #{k} moves the unit")
    comp = np.zeros((len(perms), len(perms)), dtype=np.int64)
    for i, a in enumerate(perms):
        for j, b in enumerate(perms):
            c = tuple(a[b].tolist())  # (A o B)(x) = A(B(x))
            if c not in key:
                raise NotAutomorphism("automorphism list is not composition-closed")
            comp[i, j] = key[c]

    na = len(perms)
    order = n * na
    t = loop.table
    out = np.zeros((order, order), dtype=np.int64)
    for g in range(n):
        for i in range(na):
            row = g * na + i
            a = perms[i]
            for h in range(n):
                for j in range(na):
                    out[row, h * na + j] = t[g, a[h]] * na + comp[i, j]
    return CayleyTable(order=order, table=out, unit=loop.unit * na + key[ident])
