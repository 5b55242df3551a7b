import itertools

import numpy as np
import pytest

from conftest import (
    enumerate_loops,
    line_flip_automorphism,
    oracle_associative,
    oracle_inverse_property,
    signed_basis_loop,
    symmetric_group_table,
)
from loopoid_lab import _kernels
from loopoid_lab.errors import MalformedTable, NotAutomorphism, NotSubgroup, NotTransversal
from loopoid_lab.finite import (
    CayleyTable,
    semidirect_loop,
    transversal_loop,
    validate_latin_square,
)


def test_z2_is_a_group():
    rep = validate_latin_square(CayleyTable(2, [[0, 1], [1, 0]]))
    assert rep.is_latin_square
    assert rep.unit == 0
    assert rep.associative
    assert rep.inverse_property


def test_repeated_row_is_not_latin():
    rep = validate_latin_square(CayleyTable(2, [[0, 1], [0, 1]]))
    assert not rep.is_latin_square


def test_malformed_tables_rejected():
    with pytest.raises(MalformedTable):
        CayleyTable(2, [[0, 5], [1, 0]])
    with pytest.raises(MalformedTable):
        CayleyTable(3, [[0, 1], [1, 0]])


def test_no_nonassociative_ip_loop_up_to_order_five():
    """Exhaustive search: every I.P. loop of order <= 5 is associative.

    The enumeration and the property checks here are independent of the
    classifier; the classifier is cross-validated against them on every
    enumerated table.
    """
    counts = {}
    for order in range(1, 6):
        loops = enumerate_loops(order)
        counts[order] = len(loops)
        for ct in loops:
            rep = validate_latin_square(ct)
            assert rep.is_latin_square and rep.unit == 0
            assert rep.associative == oracle_associative(ct.table)
            assert rep.inverse_property == oracle_inverse_property(ct.table, 0)
            # the search target: nonassociative with the inverse property
            assert not (rep.inverse_property and not rep.associative)
    assert counts == {1: 1, 2: 1, 3: 1, 4: 4, 5: 56}


def test_transversal_z4_gives_z2():
    z4 = CayleyTable.cyclic(4)
    out = transversal_loop(z4, {0, 2}, {0, 1})
    # coset decomposition: 2 = 0 * 2 with 2 in the subgroup, so 1 o 1 = 0
    assert out.table.tolist() == [[0, 1], [1, 0]]
    assert out.unit == 0


def test_transversal_trivial_subgroup_returns_group():
    z5 = CayleyTable.cyclic(5)
    out = transversal_loop(z5, {0}, set(range(5)))
    assert np.array_equal(out.table, z5.table)


def test_transversal_symmetric_group_left_inverse_loop():
    s3, perms = symmetric_group_table(3)
    # subgroup generated by one transposition
    swap = tuple([1, 0, 2])
    h = {i for i, p in enumerate(perms) if p in (tuple(range(3)), swap)}
    assert len(h) == 2
    # the even permutations: an inverse-closed left transversal of h
    even = {i for i, p in enumerate(perms) if _parity(p) == 0}
    out = transversal_loop(s3, h, even)
    rep = validate_latin_square(out)
    assert rep.is_latin_square
    assert rep.unit is not None
    assert rep.left_inverse_property


def test_transversal_not_inverse_closed_keeps_left_division_only():
    # a transversal that is not inverse-closed: the construction still
    # yields a unit and bijective left translations (a o x = b uniquely
    # solvable), but the one-element left inverse property genuinely fails
    s3, perms = symmetric_group_table(3)
    swap = tuple([1, 0, 2])
    h = {i for i, p in enumerate(perms) if p in (tuple(range(3)), swap)}
    seen = set()
    s = []
    for g in range(6):
        coset = frozenset(int(s3.table[g, x]) for x in h)
        if coset not in seen:
            seen.add(coset)
            s.append(g)
    out = transversal_loop(s3, h, set(s))
    rep = validate_latin_square(out)
    assert rep.unit is not None
    ar = np.arange(out.order)
    for a in range(out.order):
        assert np.array_equal(np.sort(out.table[a]), ar)
    assert not rep.left_inverse_property


def test_transversal_rejects_bad_inputs():
    z4 = CayleyTable.cyclic(4)
    with pytest.raises(NotSubgroup):
        transversal_loop(z4, {0, 1}, {0, 2})  # {0,1} not closed
    with pytest.raises(NotTransversal):
        transversal_loop(z4, {0, 2}, {0, 2})  # 0 and 2 share a coset
    with pytest.raises(NotTransversal):
        transversal_loop(z4, {0, 2}, {1, 3})  # missing the unit
    nonassoc = enumerate_loops(5)
    bad = next(ct for ct in nonassoc if not oracle_associative(ct.table))
    with pytest.raises(NotSubgroup):
        transversal_loop(bad, {0}, set(range(5)))


def test_semidirect_z3_with_inversion_auto():
    z3 = CayleyTable.cyclic(3)
    doubling = (2 * np.arange(3)) % 3
    out = semidirect_loop(z3, [np.arange(3), doubling])
    assert out.order == 6
    assert out.unit == 0
    rep = validate_latin_square(out)
    assert rep.is_latin_square
    # this is the symmetric group on three letters in disguise
    assert rep.associative and not _is_commutative(out.table)


def test_semidirect_identity_auto_copies_loop():
    z3 = CayleyTable.cyclic(3)
    out = semidirect_loop(z3, [np.arange(3)])
    assert np.array_equal(out.table, z3.table)


def test_semidirect_preserves_inverse_property():
    loop = signed_basis_loop()
    rep_in = validate_latin_square(loop)
    assert rep_in.inverse_property and not rep_in.associative
    out = semidirect_loop(loop, [np.arange(16), line_flip_automorphism()])
    rep = validate_latin_square(out)
    assert out.order == 32
    assert rep.inverse_property
    assert not rep.associative
    assert oracle_inverse_property(out.table, out.unit)


def test_semidirect_rejects_non_automorphisms():
    z4 = CayleyTable.cyclic(4)
    shift = (np.arange(4) + 1) % 4  # moves the unit
    with pytest.raises(NotAutomorphism):
        semidirect_loop(z4, [np.arange(4), shift])
    with pytest.raises(NotAutomorphism):
        semidirect_loop(z4, [(3 * np.arange(4)) % 4])  # lacks the identity


def test_signed_basis_loop_is_moufang_ip_nonassociative():
    rep = validate_latin_square(signed_basis_loop())
    assert rep.is_latin_square and rep.unit == 0
    assert not rep.associative
    assert rep.moufang and rep.left_bol and rep.right_bol
    assert rep.inverse_property
    assert rep.has_two_sided_inverses


@pytest.mark.parametrize(
    "make",
    [
        lambda: CayleyTable.cyclic(6),
        lambda: symmetric_group_table(3)[0],
        signed_basis_loop,
        lambda: transversal_loop(CayleyTable.cyclic(4), {0, 2}, {0, 1}),
        lambda: semidirect_loop(CayleyTable.cyclic(3), [np.arange(3), (2 * np.arange(3)) % 3]),
    ],
)
def test_identity_implication_chain(make):
    rep = validate_latin_square(make())
    if rep.associative:
        assert rep.moufang
    if rep.moufang:
        assert rep.left_bol and rep.right_bol
    if rep.inverse_property:
        assert rep.left_inverse_property and rep.right_inverse_property


def test_unique_division_on_unital_latin_tables():
    for make in (lambda: CayleyTable.cyclic(7), signed_basis_loop):
        ct = make()
        rep = validate_latin_square(ct)
        assert rep.is_latin_square and rep.unit is not None
        ar = np.arange(ct.order)
        for a in range(ct.order):
            assert np.array_equal(np.sort(ct.table[a]), ar)      # a o x = b solvable
            assert np.array_equal(np.sort(ct.table[:, a]), ar)   # y o a = b solvable


def test_sampled_mode_beyond_cap(rng):
    ct = CayleyTable.cyclic(8)
    rep = validate_latin_square(ct, max_exhaustive_order=4, rng=rng)
    assert not rep.exhaustive
    assert rep.associative and rep.moufang


# Loop oracles for the kernel scans, indexed like ``sampled_identity_scan``'s
# ``which``: associativity, the three Moufang forms, left Bol, right Bol.
IDENTITIES = (
    lambda m, a, b, c: m(m(a, b), c) == m(a, m(b, c)),
    lambda m, a, b, c: m(m(m(a, b), a), c) == m(a, m(b, m(a, c))),
    lambda m, a, b, c: m(m(m(b, a), c), a) == m(b, m(a, m(c, a))),
    lambda m, a, b, c: m(m(a, b), m(c, a)) == m(m(a, m(b, c)), a),
    lambda m, a, b, c: m(a, m(b, m(a, c))) == m(m(a, m(b, a)), c),
    lambda m, a, b, c: m(m(m(c, a), b), a) == m(c, m(m(a, b), a)),
)


def _oracle_violations(t, which, triples):
    m = lambda x, y: int(t[x, y])
    return sum(not IDENTITIES[which](m, a, b, c) for a, b, c in triples)


def _full_scans(t):
    return (
        _kernels.associative_scan(t),
        _kernels.moufang_scan(t, 0),
        _kernels.moufang_scan(t, 1),
        _kernels.moufang_scan(t, 2),
        _kernels.left_bol_scan(t),
        _kernels.right_bol_scan(t),
    )


def _oracle_tables():
    # the signed basis loop and a seeded non-Latin table on which every
    # identity has violations
    rng = np.random.default_rng(7)
    return signed_basis_loop().table, rng.integers(0, 9, size=(9, 9), dtype=np.int64)


def test_scans_match_loop_oracle():
    counts = []
    for t in _oracle_tables():
        triples = list(itertools.product(range(t.shape[0]), repeat=3))
        counts.append(tuple(_oracle_violations(t, w, triples) for w in range(len(IDENTITIES))))
        assert _full_scans(t) == counts[-1]
    basis, noise = counts
    # the octonion basis loop is Moufang and Bol but not associative
    assert basis[0] > 0 and basis[1:] == (0,) * 5
    assert min(noise) > 0


def test_sampled_scan_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for t in _oracle_tables():
        aa, bb, cc = rng.integers(0, t.shape[0], size=(3, 400))
        triples = list(zip(aa.tolist(), bb.tolist(), cc.tolist()))
        for which in range(len(IDENTITIES)):
            got = _kernels.sampled_identity_scan(t, which, aa, bb, cc)
            assert got == _oracle_violations(t, which, triples), which


def test_report_text_rendering():
    text = validate_latin_square(CayleyTable.cyclic(3)).to_text()
    assert "associative" in text and "True" in text


def _is_commutative(t):
    return np.array_equal(t, t.T)


def _parity(perm):
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return inv % 2
