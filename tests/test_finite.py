import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cyclic_table,
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
    EXHAUSTIVE_ORDER_CAP,
    MAX_ORDER,
    CayleyTable,
    _find_unit,
    _is_latin,
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


def test_non_integer_tables_rejected():
    # a float table would be truncated to Z2 and a bool table read as indices
    for table in (np.array([[0, 1.7], [1, 0.2]]), np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[False, True], [True, False]])):
        with pytest.raises(MalformedTable, match="integers"):
            CayleyTable(2, table)
    for dtype in (np.int8, np.uint8, np.int64, np.uint64):
        assert validate_latin_square(CayleyTable(2, np.array([[0, 1], [1, 0]], dtype=dtype))).associative


def test_order_limit_keeps_flat_index_in_int32():
    # the largest flat index x * n + y is n^2 - 1
    assert MAX_ORDER**2 - 1 <= np.iinfo(np.int32).max < (MAX_ORDER + 1) ** 2 - 1
    # an overstated order is refused before the table is looked at
    with pytest.raises(MalformedTable, match=str(MAX_ORDER)):
        CayleyTable(MAX_ORDER + 1, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(MalformedTable, match="shape"):
        CayleyTable(MAX_ORDER, np.zeros((2, 2), dtype=np.int64))


def test_table_is_a_read_only_int32_copy():
    src = cyclic_table(5).table.astype(np.int64)
    ct = CayleyTable(5, src)
    assert ct.table.dtype == np.int32 and not ct.table.flags.writeable
    assert src.flags.writeable and np.array_equal(ct.table, src)


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
    z4 = cyclic_table(4)
    out = transversal_loop(z4, {0, 2}, {0, 1})
    # coset decomposition: 2 = 0 * 2 with 2 in the subgroup, so 1 o 1 = 0
    assert out.table.tolist() == [[0, 1], [1, 0]]
    assert out.unit == 0


def test_transversal_trivial_subgroup_returns_group():
    z5 = cyclic_table(5)
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
    z4 = cyclic_table(4)
    with pytest.raises(NotSubgroup, match=r"closure fails at \(1, 1\)"):
        transversal_loop(z4, {0, 1}, {0, 2})  # {0,1} not closed
    with pytest.raises(NotTransversal, match="elements 0 and 2 lie in the same coset"):
        transversal_loop(z4, {0, 2}, {0, 2})  # 0 and 2 share a coset
    with pytest.raises(NotTransversal, match="misses a coset"):
        transversal_loop(z4, {0, 2}, {0})
    with pytest.raises(NotTransversal):
        transversal_loop(z4, {0, 2}, {1, 3})  # missing the unit
    nonassoc = enumerate_loops(5)
    bad = next(ct for ct in nonassoc if not oracle_associative(ct.table))
    with pytest.raises(NotSubgroup):
        transversal_loop(bad, {0}, set(range(5)))


def test_semidirect_z3_with_inversion_auto():
    z3 = cyclic_table(3)
    doubling = (2 * np.arange(3)) % 3
    out = semidirect_loop(z3, [np.arange(3), doubling])
    assert out.order == 6
    assert out.unit == 0
    rep = validate_latin_square(out)
    assert rep.is_latin_square
    # this is the symmetric group on three letters in disguise
    assert rep.associative and not _is_commutative(out.table)


def test_semidirect_identity_auto_copies_loop():
    z3 = cyclic_table(3)
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
    z4 = cyclic_table(4)
    shift = (np.arange(4) + 1) % 4  # moves the unit
    with pytest.raises(NotAutomorphism):
        semidirect_loop(z4, [np.arange(4), shift])
    with pytest.raises(NotAutomorphism):
        semidirect_loop(z4, [(3 * np.arange(4)) % 4])  # lacks the identity
    z5 = cyclic_table(5)
    with pytest.raises(NotAutomorphism, match="composition-closed"):
        semidirect_loop(z5, [np.arange(5), (2 * np.arange(5)) % 5])  # x -> 4x is missing


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
        lambda: cyclic_table(6),
        lambda: symmetric_group_table(3)[0],
        signed_basis_loop,
        lambda: transversal_loop(cyclic_table(4), {0, 2}, {0, 1}),
        lambda: semidirect_loop(cyclic_table(3), [np.arange(3), (2 * np.arange(3)) % 3]),
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
    for make in (lambda: cyclic_table(7), signed_basis_loop):
        ct = make()
        rep = validate_latin_square(ct)
        assert rep.is_latin_square and rep.unit is not None
        ar = np.arange(ct.order)
        for a in range(ct.order):
            assert np.array_equal(np.sort(ct.table[a]), ar)      # a o x = b solvable
            assert np.array_equal(np.sort(ct.table[:, a]), ar)   # y o a = b solvable


def test_sampled_mode_beyond_cap(rng):
    # the cyclic group at the cap (order 64) is scanned exhaustively, one
    # order past it is sampled; both keep the group's verdicts
    for order, exhaustive in ((EXHAUSTIVE_ORDER_CAP, True), (EXHAUSTIVE_ORDER_CAP + 1, False)):
        rep = validate_latin_square(cyclic_table(order), rng=rng)
        assert rep.exhaustive is exhaustive
        assert rep.associative and rep.moufang and rep.left_bol and rep.right_bol


# Loop oracles for the kernel scans, in the order of ``identity_scans``'
# counts: associativity, the three Moufang forms, left Bol, right Bol.
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


def _oracle_counts(t, triples):
    triples = list(triples)
    return tuple(_oracle_violations(t, w, triples) for w in range(len(IDENTITIES)))


def _oracle_tables():
    # the signed basis loop and a seeded non-Latin table on which every
    # identity has violations
    rng = np.random.default_rng(7)
    return signed_basis_loop().table, rng.integers(0, 9, size=(9, 9), dtype=np.int64)


def test_scans_match_loop_oracle():
    counts = []
    for t in _oracle_tables():
        counts.append(_oracle_counts(t, itertools.product(range(t.shape[0]), repeat=3)))
        assert _kernels.identity_scans(t) == counts[-1]
    basis, noise = counts
    # the octonion basis loop is Moufang and Bol but not associative
    assert basis[0] > 0 and basis[1:] == (0,) * 5
    assert min(noise) > 0


def test_sampled_scan_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for t in _oracle_tables():
        aa, bb, cc = rng.integers(0, t.shape[0], size=(3, 400))
        triples = list(zip(aa.tolist(), bb.tolist(), cc.tolist()))
        assert _kernels.sampled_scans(t, aa, bb, cc) == _oracle_counts(t, triples)


def _isotope(rng, t):
    """Rows, columns and symbols permuted independently: a Latin square if t is."""
    n = t.shape[0]
    rows, cols, syms = rng.permutation(n), rng.permutation(n), rng.permutation(n)
    return syms[t[rows][:, cols]]


@st.composite
def _scan_tables(draw):
    """A table of order 1-9, int32 or int64: a random isotope of Z_n (a Latin
    square), or a Latin square with some cells overwritten, or any table."""
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["latin", "perturbed", "random"]))
    if kind == "random":
        t = rng.integers(0, n, size=(n, n))
    else:
        t = _isotope(rng, cyclic_table(n).table)
        if kind == "perturbed":
            cells = rng.integers(0, n, size=(draw(st.integers(1, 3)), 2))
            t[cells[:, 0], cells[:, 1]] = rng.integers(0, n, size=len(cells))
    return t.astype(draw(st.sampled_from([np.int32, np.int64]))), rng


@settings(max_examples=60, deadline=None)
@given(_scan_tables())
def test_scans_match_loop_oracle_on_random_tables(drawn):
    t, rng = drawn
    n = t.shape[0]
    assert _kernels.identity_scans(t) == _oracle_counts(t, itertools.product(range(n), repeat=3))
    aa, bb, cc = rng.integers(0, n, size=(3, 50))
    triples = list(zip(aa.tolist(), bb.tolist(), cc.tolist()))
    assert _kernels.sampled_scans(t, aa, bb, cc) == _oracle_counts(t, triples)


@pytest.mark.parametrize("order", [EXHAUSTIVE_ORDER_CAP, EXHAUSTIVE_ORDER_CAP + 1])
def test_validate_makes_one_scan_call(monkeypatch, order):
    calls = []

    def counted(name, kernel):
        def wrapper(*args):
            calls.append(name)
            return kernel(*args)

        return wrapper

    for name in ("identity_scans", "sampled_scans", "associative_scan"):
        monkeypatch.setattr(_kernels, name, counted(name, getattr(_kernels, name)))
    validate_latin_square(cyclic_table(order))
    assert calls == ["identity_scans" if order <= EXHAUSTIVE_ORDER_CAP else "sampled_scans"]


@pytest.mark.parametrize("order", [16, 70])
def test_int32_tables_scan_like_int64_copies(order):
    rng = np.random.default_rng(order)
    base = signed_basis_loop() if order == 16 else cyclic_table(order)
    ct = CayleyTable(order, _isotope(rng, base.table))
    t64 = ct.table.astype(np.int64)
    assert ct.table.dtype == np.int32
    full = _kernels.identity_scans(ct.table)
    assert full == _kernels.identity_scans(t64) and max(full) > 0
    aa, bb, cc = rng.integers(0, order, size=(3, 20_000))
    assert _kernels.sampled_scans(ct.table, aa, bb, cc) == _kernels.sampled_scans(t64, aa, bb, cc)


def _latin_by_rows(t):
    ar = np.arange(t.shape[0])
    return all(np.array_equal(np.sort(r), ar) for r in t) and all(np.array_equal(np.sort(c), ar) for c in t.T)


def _unit_by_rows(t):
    ar = np.arange(t.shape[0])
    return next((u for u in range(len(t)) if np.array_equal(t[u], ar) and np.array_equal(t[:, u], ar)), None)


def test_latin_and_unit_checks_match_row_loops():
    rng = np.random.default_rng(3)
    z6 = cyclic_table(6).table
    relabeled = np.empty_like(z6)
    perm = rng.permutation(6)
    relabeled[perm[:, None], perm] = perm[z6]  # unit at perm[0]
    left_unit_only = z6.copy()
    left_unit_only[1, 0] = 0  # column 0 no longer the identity; not Latin
    tables = [z6, relabeled, _isotope(rng, z6), left_unit_only, rng.integers(0, 6, size=(6, 6)), signed_basis_loop().table]
    for t in tables:
        t = CayleyTable(len(t), t).table
        assert _is_latin(t) == _latin_by_rows(t)
        assert _find_unit(t) == _unit_by_rows(t)
    assert _find_unit(relabeled) == perm[0]
    assert _find_unit(left_unit_only) is None


def test_semidirect_table_matches_pair_formula():
    loop = signed_basis_loop()
    flip = line_flip_automorphism()
    autos = [np.arange(16), flip]
    out = semidirect_loop(loop, autos)
    na = len(autos)
    comp = [[0, 1], [1, 0]]  # A o B for A, B in {id, flip}
    expect = np.zeros((32, 32), dtype=np.int64)
    for g in range(16):
        for i in range(na):
            for h in range(16):
                for j in range(na):
                    expect[g * na + i, h * na + j] = loop.table[g, autos[i][h]] * na + comp[i][j]
    assert np.array_equal(out.table, expect)


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
