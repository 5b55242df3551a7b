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
    peak_traced_bytes,
    signed_basis_loop,
    symmetric_group_table,
)
from loopoid_lab import _kernels, finite
from loopoid_lab.errors import MalformedTable, NotAutomorphism, NotSubgroup, NotTransversal
from loopoid_lab.finite import (
    EXHAUSTIVE_ORDER_CAP,
    MAX_ORDER,
    CayleyTable,
    _find_unit,
    _is_latin,
    inverse_property,
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


def test_inverse_property_alone_matches_the_report():
    rng = np.random.default_rng(5)
    tables = [
        signed_basis_loop(),
        cyclic_table(6),
        transversal_loop(symmetric_group_table(3)[0], {0, 1}, {0, 2, 4}),
        CayleyTable(6, _isotope(rng, cyclic_table(6).table)),
        CayleyTable(4, rng.integers(0, 4, size=(4, 4))),
    ]
    flags = [validate_latin_square(ct).inverse_property for ct in tables]
    assert [inverse_property(ct) for ct in tables] == flags
    assert flags[:2] == [True, True] and not all(flags)


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


# Loop oracles for the kernel scans, in the order of ``sampled_scans``'
# verdicts: associativity, the three Moufang forms, left Bol, right Bol.
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


def _oracle_verdicts(t, triples=None):
    """Whether each identity holds on ``triples``, by default on all of them."""
    if triples is None:
        triples = itertools.product(range(t.shape[0]), repeat=3)
    return tuple(c == 0 for c in _oracle_counts(t, triples))


def _oracle_tables():
    # the signed basis loop and a seeded non-Latin table on which every
    # identity has violations
    rng = np.random.default_rng(7)
    return signed_basis_loop().table, rng.integers(0, 9, size=(9, 9), dtype=np.int64)


def test_scans_match_loop_oracle():
    verdicts = []
    for t in _oracle_tables():
        verdicts.append(_oracle_verdicts(t))
        assert _kernels.light_associative(t) == verdicts[-1][0]
        assert _kernels.identity_scans(t) == verdicts[-1][1:]
    basis, noise = verdicts
    # the octonion basis loop is Moufang and Bol but not associative
    assert basis == (False,) + (True,) * 5
    assert noise == (False,) * 6


def _left_zero_table(n, last_row=None):
    """x y = x, but row n - 1 is ``last_row`` if given."""
    t = np.repeat(np.arange(n)[:, None], n, axis=1)
    if last_row is not None:
        t[n - 1] = last_row
    return t


def test_light_matches_oracle_on_semigroups_and_a_changed_cell():
    # left-zero semigroup: every subset is closed, so every element becomes
    # a generator, and the test passes through all of them
    t = _left_zero_table(7)
    assert _kernels.light_associative(t) and _oracle_verdicts(t)[0]
    # Z_n with one cell changed is neither a group nor associative
    for n, (x, y, v) in ((5, (0, 0, 1)), (8, (7, 3, 0)), (9, (4, 4, 4))):
        t = cyclic_table(n).table.copy()
        t[x, y] = v
        assert _kernels.light_associative(t) == _oracle_verdicts(t)[0] is False
    # groups that need two and three greedy generators: S_3 and Z_2^3
    for t in (symmetric_group_table(3)[0].table, np.arange(8)[:, None] ^ np.arange(8)[None, :]):
        assert _kernels.light_associative(t) and _oracle_verdicts(t)[0]


def _whole_array_holds(t, a, b, c):
    """The sampled identities per triple as one pass over all triples: the
    formula the blocked scan replaced, kept as its reference.  Row k holds
    identity k's verdict on each triple."""
    n = t.shape[0]
    flat = t.ravel()

    def m(x, y):
        return flat[x * n + y]

    ab, bc, ac, ca, ba = m(a, b), m(b, c), m(a, c), m(c, a), m(b, a)
    a_bc, ab_a, a_b_ac = m(a, bc), m(ab, a), m(a, m(b, ac))
    return np.array([
        m(ab, c) == a_bc,
        m(ab_a, c) == a_b_ac,
        m(m(ba, c), a) == m(b, m(a, ca)),
        m(ab, ca) == m(a_bc, a),
        a_b_ac == m(m(a, ba), c),
        m(m(ca, b), a) == m(c, ab_a),
    ])


def _sampled(t, aa, bb, cc):
    """``sampled_scans`` on the given triples, handed out block by block in order."""
    taken = [0]

    def draw(m):
        lo = taken[0]
        taken[0] += m
        return aa[lo:lo + m], bb[lo:lo + m], cc[lo:lo + m]

    return _kernels.sampled_scans(t, draw, len(aa))


def test_sampled_scan_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for t in _oracle_tables():
        aa, bb, cc = rng.integers(0, t.shape[0], size=(3, 400))
        triples = list(zip(aa.tolist(), bb.tolist(), cc.tolist()))
        assert _sampled(t, aa, bb, cc) == _oracle_verdicts(t, triples)
        assert tuple(_whole_array_holds(t, aa, bb, cc).all(axis=1)) == _oracle_verdicts(t, triples)
    # one triple, and triple counts on either side of one and two whole
    # blocks, against the whole-array formula checked above
    block = _kernels.SCAN_BLOCK
    latin = CayleyTable(66, _isotope(rng, cyclic_table(66).table)).table
    noise = CayleyTable(100, rng.integers(0, 100, size=(100, 100))).table
    for size in (1, block - 1, block, block + 1, 2 * block + 1):
        for t in (latin, noise):
            aa, bb, cc = rng.integers(0, t.shape[0], size=(3, size))
            assert _sampled(t, aa, bb, cc) == tuple(_whole_array_holds(t, aa, bb, cc).all(axis=1))


def test_violation_only_in_the_last_chunk_or_block_reads_false(monkeypatch):
    """A side's value in this magma is its leftmost variable unless that is
    z = n - 1, so every violation has a = z, and the ones of form 0 and left
    Bol b = z too: they all lie in the last chunk of first indices.  Every
    identity fails at (z, z, z) and none at (0, 0, 0), so in a sample of
    those the violations lie in the last triple alone."""
    n = 8
    z = n - 1
    t = _left_zero_table(n, (np.arange(n) + 1) % z)
    assert _oracle_verdicts(t) == (False,) * 6
    # one first index per chunk
    monkeypatch.setattr(_kernels, "SCAN_BLOCK", n * n)
    verdicts = []
    chunk = _kernels._scan_chunk

    def recorded(*args):
        verdicts.append(chunk(*args))
        return verdicts[-1]

    monkeypatch.setattr(_kernels, "_scan_chunk", recorded)
    assert _kernels.identity_scans(t) == (False,) * 5
    assert verdicts == [[True] * 5] * z + [[False] * 5]
    monkeypatch.undo()
    block = _kernels.SCAN_BLOCK
    for size in (1, block, block + 1, 2 * block + 1):
        aa, bb, cc = np.zeros((3, size), dtype=np.int64)
        aa[-1] = bb[-1] = cc[-1] = z
        assert _sampled(t, aa, bb, cc) == (False,) * 6
        assert _sampled(t, aa[:-1], bb[:-1], cc[:-1]) == (True,) * 6


def test_sampled_scan_memory_is_bounded_by_its_blocks():
    # the whole-array formula's temporaries peak at 10.4 MB here, and the
    # 200,000 triples drawn at once took 4.8 MB; a Moufang loop has no
    # violation to stop at, so every block is drawn and scanned
    t = _moufang_loop_64()
    rng = np.random.default_rng(3)
    draw = lambda m: rng.integers(0, 64, size=(3, m))
    assert _kernels.sampled_scans(t, draw, 200_000) == (False,) + (True,) * 5
    assert peak_traced_bytes(_kernels.sampled_scans, t, draw, 200_000) < 3_000_000


def _moufang_loop_64():
    """The signed basis loop times Z_4: a Moufang loop of order 64 that is
    not associative, on which the exhaustive scan runs every chunk."""
    basis = signed_basis_loop().table
    z4 = cyclic_table(4).table
    return CayleyTable(64, (basis[:, None, :, None] * 4 + z4[None, :, None, :]).reshape(64, 64)).table


def test_verdicts_need_memory_of_one_chunk():
    # identity_scans' whole-table gathers peaked at 4.5 MB on order 64
    assert peak_traced_bytes(validate_latin_square, cyclic_table(64)) < 500_000
    t = _moufang_loop_64()
    assert _kernels.identity_scans(t) == (True,) * 5
    assert peak_traced_bytes(_kernels.identity_scans, t) < 1_500_000


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
@given(_scan_tables(), st.integers(1, 40))
def test_scans_match_loop_oracle_on_random_tables(drawn, block):
    # blocks of a few triples, so that the scans cross chunk and block
    # boundaries on these small tables
    t, rng = drawn
    n = t.shape[0]
    aa, bb, cc = rng.integers(0, n, size=(3, 50))
    triples = list(zip(aa.tolist(), bb.tolist(), cc.tolist()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "SCAN_BLOCK", block)
        verdicts = _oracle_verdicts(t)
        assert _kernels.light_associative(t) == verdicts[0]
        assert _kernels.identity_scans(t) == verdicts[1:]
        assert _sampled(t, aa, bb, cc) == _oracle_verdicts(t, triples)


@settings(max_examples=40, deadline=None)
@given(_scan_tables(), st.integers(0, 2**32 - 1))
def test_validate_matches_oracle_in_both_lanes(drawn, seed):
    t, _ = drawn
    n = t.shape[0]
    verdicts = _oracle_verdicts(t)
    rep = validate_latin_square(CayleyTable(n, t))
    assert rep.exhaustive
    assert (rep.associative, *rep.moufang_forms, rep.left_bol, rep.right_bol) == verdicts
    # the sampled lane, on 30 triples drawn as validate_latin_square draws them
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(finite, "EXHAUSTIVE_ORDER_CAP", 0)
        mp.setattr(finite, "SAMPLED_TRIPLES", 30)
        rep = validate_latin_square(CayleyTable(n, t), rng=np.random.default_rng(seed))
    aa, bb, cc = np.random.default_rng(seed).integers(0, n, size=(3, 30))
    sampled = _oracle_verdicts(t, zip(aa.tolist(), bb.tolist(), cc.tolist()))
    assert not rep.exhaustive
    assert (rep.associative, *rep.moufang_forms, rep.left_bol, rep.right_bol) == sampled


@pytest.mark.parametrize("order", [EXHAUSTIVE_ORDER_CAP, EXHAUSTIVE_ORDER_CAP + 2])
def test_validate_scans_until_decided(monkeypatch, order):
    calls = []

    def counted(name, kernel):
        def wrapper(*args):
            calls.append(name)
            return kernel(*args)

        return wrapper

    for name in ("identity_scans", "sampled_scans", "_scan_chunk", "_scan_block"):
        monkeypatch.setattr(_kernels, name, counted(name, getattr(_kernels, name)))
    # associativity decides all six identities, so a group is not scanned
    rep = validate_latin_square(cyclic_table(order))
    assert calls == [] and rep.associative and rep.moufang and rep.left_bol and rep.right_bol
    # an isotope of Z_n violates every identity in its first chunk or block
    t = _isotope(np.random.default_rng(order), cyclic_table(order).table)
    rep = validate_latin_square(CayleyTable(order, t))
    assert not (rep.associative or any(rep.moufang_forms) or rep.left_bol or rep.right_bol)
    if order <= EXHAUSTIVE_ORDER_CAP:
        assert calls == ["identity_scans", "_scan_chunk"]
    else:
        assert calls == ["sampled_scans", "_scan_block"]


class _RecordedDraws:
    """A generator that records the shape of each ``integers`` draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def integers(self, low, high, size):
        self.sizes.append(size)
        return self.rng.integers(low, high, size=size)


def test_sampled_lane_draws_only_the_blocks_it_scans():
    block = _kernels.SCAN_BLOCK
    # an isotope of Z_66 violates every identity in its first block
    t = _isotope(np.random.default_rng(66), cyclic_table(66).table)
    rng = _RecordedDraws(0)
    rep = validate_latin_square(CayleyTable(66, t), rng=rng)
    assert not (rep.exhaustive or rep.associative or rep.moufang or rep.left_bol or rep.right_bol)
    assert rng.sizes == [(3, block)]
    # a Moufang loop of order 80 violates only associativity, so every
    # block is drawn, the last one short
    basis, z5 = signed_basis_loop().table, cyclic_table(5).table
    t = (basis[:, None, :, None] * 5 + z5[None, :, None, :]).reshape(80, 80)
    rng = _RecordedDraws(0)
    rep = validate_latin_square(CayleyTable(80, t), rng=rng)
    assert rep.moufang and rep.left_bol and rep.right_bol and not rep.associative
    full, last = divmod(finite.SAMPLED_TRIPLES, block)
    assert rng.sizes == [(3, block)] * full + [(3, last)]


@pytest.mark.parametrize("order", [16, 70])
def test_int32_tables_scan_like_int64_copies(order):
    rng = np.random.default_rng(order)
    base = signed_basis_loop() if order == 16 else cyclic_table(order)
    ct = CayleyTable(order, _isotope(rng, base.table))
    t64 = ct.table.astype(np.int64)
    assert ct.table.dtype == np.int32
    assert _kernels.light_associative(ct.table) == _kernels.light_associative(t64)
    full = _kernels.identity_scans(ct.table)
    assert full == _kernels.identity_scans(t64) and not all(full)
    aa, bb, cc = rng.integers(0, order, size=(3, 20_000))
    assert _sampled(ct.table, aa, bb, cc) == _sampled(t64, aa, bb, cc)


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
