"""Finite quasigroups and loops as Cayley tables.

Elements are dense indices 0..order-1; external names belong to the I/O
layer.  Associativity is decided exactly by Light's test, and an
associative table satisfies every identity classified here.  The other
identities of a nonassociative table are scanned over all triples up to the
fixed order cap ``EXHAUSTIVE_ORDER_CAP`` = 64, and on seeded random triples
beyond it; a scan stops once each identity has a violation.  The two
loop constructions here are the coset-transversal product
s o s' = p_S(s s') on a left transversal of a subgroup, and the semidirect
product (g, A)(h, B) = (g A(h), A B) of a loop with a set of its
automorphisms.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import MalformedTable, NotAutomorphism, NotSubgroup, NotTransversal

EXHAUSTIVE_ORDER_CAP = 64
SAMPLED_TRIPLES = 200_000
# tables are int32; the sampled scan's flat index x * order + y must fit
MAX_ORDER = 46_340


@dataclass(frozen=True)
class CayleyTable:
    """An order x order magma table; ``unit`` is optional and checked lazily."""

    order: int
    table: np.ndarray
    unit: Optional[int] = None

    def __post_init__(self):
        if self.order > MAX_ORDER:
            raise MalformedTable(f"order {self.order} exceeds {MAX_ORDER}, the largest whose int32 flat index fits")
        t = np.asarray(self.table)
        if t.dtype.kind not in "iu":
            raise MalformedTable(f"table entries must be integers, got dtype {t.dtype}")
        if t.shape != (self.order, self.order):
            raise MalformedTable(f"table shape {t.shape} != ({self.order}, {self.order})")
        if t.size and (t.min() < 0 or t.max() >= self.order):
            raise MalformedTable("table entries out of range")
        t = t.astype(np.int32)
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
    moufang_forms: tuple = (False, False, False)
    exhaustive: bool = True

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def _find_unit(t):
    """The first two-sided unit: the first u whose row and column are both ``arange``."""
    ar = np.arange(t.shape[0])
    hits = np.flatnonzero((t == ar).all(axis=1) & (t == ar[:, None]).all(axis=0))
    return int(hits[0]) if hits.size else None


def _is_latin(t):
    ar = np.arange(t.shape[0])
    return bool((np.sort(t, axis=1) == ar).all() and (np.sort(t, axis=0) == ar[:, None]).all())


def _inverse_flags(t, latin, unit):
    """Two-sided inverses, the left and the right inverse property; all
    False unless the table is Latin with a unit."""
    if not (latin and unit is not None):
        return False, False, False
    n = t.shape[0]
    ar = np.arange(n)
    # left inverse a_l of a solves x a = e; right inverse solves a x = e
    alam = np.argmax(t == unit, axis=0)  # per column a: row index with t[x, a] = e
    arho = np.argmax(t == unit, axis=1)  # per row a: column index with t[a, x] = e
    has_two_sided = bool(np.array_equal(alam, arho))
    lip = bool(np.array_equal(t[alam[:, None], t], ar[None, :].repeat(n, axis=0)))
    rip = bool(np.array_equal(t[t, arho[None, :].repeat(n, axis=0)], ar[:, None].repeat(n, axis=1)))
    return has_two_sided, lip, rip


def inverse_property(ct):
    """``validate_latin_square(ct).inverse_property``, without the identity scans."""
    t = ct.table
    return all(_inverse_flags(t, _is_latin(t), _find_unit(t)))


def validate_latin_square(ct, *, rng=None):
    """Classify a Cayley table: Latin-ness, unit, inverse and Bol/Moufang flags.

    Light's test decides associativity exactly, and both sides of each of
    the six identities bracket one word, so an associative table satisfies
    all six and nothing is scanned.  Otherwise the five other identities
    are scanned up to ``EXHAUSTIVE_ORDER_CAP`` and, beyond it, all six are
    sampled with the caller's seeded generator; each scan stops at the
    first violation of the last identity still open.  Beyond the cap Light's
    test runs on Latin tables only, where it costs O(n^2 log n): on other
    tables it may cost n^3.
    """
    t = ct.table
    n = ct.order
    latin = _is_latin(t)
    unit = _find_unit(t)

    exhaustive = n <= EXHAUSTIVE_ORDER_CAP
    if (latin or exhaustive) and _kernels.light_associative(t):
        verdicts = (True,) * 6
    elif exhaustive:
        verdicts = (False, *_kernels.identity_scans(t))
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        verdicts = _kernels.sampled_scans(t, lambda m: rng.integers(0, n, size=(3, m)), SAMPLED_TRIPLES)
    associative, *forms, left_bol, right_bol = verdicts
    forms = tuple(forms)
    has_two_sided, lip, rip = _inverse_flags(t, latin, unit)

    return IdentityReport(
        is_latin_square=latin,
        unit=unit,
        has_two_sided_inverses=has_two_sided,
        inverse_property=has_two_sided and lip and rip,
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
    if not (_is_latin(t) and unit is not None and _kernels.light_associative(t)):
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
    bad = np.argwhere(~h_mask[t[np.ix_(h_set, h_set)]])
    if bad.size:
        raise NotSubgroup(f"closure fails at ({h_set[bad[0, 0]]}, {h_set[bad[0, 1]]})")
    if e not in s_list:
        raise NotTransversal("transversal must contain the unit")

    cosets = [tuple(c) for c in np.sort(t[:, h_set], axis=1).tolist()]  # coset of g: the sorted gH
    seen = {}
    for s in s_list:
        if cosets[s] in seen:
            raise NotTransversal(f"elements {seen[cosets[s]]} and {s} lie in the same coset")
        seen[cosets[s]] = s
    if len(seen) != len(set(cosets)):
        raise NotTransversal("transversal misses a coset")

    index = {s: i for i, s in enumerate(s_list)}
    projected = np.array([index[seen[c]] for c in cosets])  # g -> index of p_S(g)
    out = projected[t[np.ix_(s_list, s_list)]]
    return CayleyTable(order=len(s_list), table=out, unit=index[e])


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
    na = len(perms)
    products = [tuple(a[b].tolist()) for a in perms for b in perms]  # (A o B)(x) = A(B(x))
    if any(c not in key for c in products):
        raise NotAutomorphism("automorphism list is not composition-closed")
    comp = np.array([key[c] for c in products]).reshape(na, na)
    order = n * na
    # [g, i, h, j] -> (g A_i(h), A_i o A_j) at row g * na + i, column h * na + j
    first = loop.table[np.arange(n)[:, None, None], np.stack(perms)[None, :, :]]
    out = first[:, :, :, None] * na + comp[None, :, None, :]
    return CayleyTable(order=order, table=out.reshape(order, order), unit=loop.unit * na + key[ident])
