import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from loopoid_lab.finite import CayleyTable
from loopoid_lab.loops import polynomial_chart
from loopoid_lab.octonion import MUL_INDEX, MUL_SIGN

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def example(name):
    """The spec ``examples/<name>.json`` as a dict."""
    return json.loads((EXAMPLES / f"{name}.json").read_text(encoding="utf-8"))


@pytest.fixture
def readme_system():
    """The README system spec, ``examples/readme_system.json``."""
    return example("readme_system")


def cross_product_constants():
    """The R^3 cross product as a constants tensor."""
    c = np.zeros((3, 3, 3))
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[k, i, j] = 1.0
        c[k, j, i] = -1.0
    return c


def planar_feedback_terms():
    """Term list for the 2-dim loop (x1+y1+x1 y2, x2+y2+x2 y1).

    Its skew algebra is [X1, X2] = X1 - X2: each coordinate feeds on the
    other factor's opposite coordinate.
    """
    return [
        [(1.0, (1, 0), (0, 0)), (1.0, (0, 0), (1, 0)), (1.0, (1, 0), (0, 1))],
        [(1.0, (0, 1), (0, 0)), (1.0, (0, 0), (0, 1)), (1.0, (0, 1), (1, 0))],
    ]


def planar_feedback_chart():
    return polynomial_chart(2, planar_feedback_terms(), name="planar_feedback")


def cubic_line_terms():
    """Term list for the 1-dim loop x * y = x + y + x^2 y."""
    return [[(1.0, (1,), (0,)), (1.0, (0,), (1,)), (1.0, (2,), (1,))]]


def cubic_line_chart():
    return polynomial_chart(1, cubic_line_terms(), name="cubic_line")


def permutation_group_table(perms):
    """Cayley table of a list of permutations under composition."""
    key = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = np.zeros((n, n), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            comp = tuple(p[q[k]] for k in range(len(q)))
            table[i, j] = key[comp]
    unit = key[tuple(range(len(perms[0])))]
    return CayleyTable(order=n, table=table, unit=unit)


def symmetric_group_table(n):
    perms = sorted(itertools.permutations(range(n)))
    return permutation_group_table(perms), perms


def signed_basis_loop():
    """Order-16 loop of signed octonion basis elements: index 2i + s,
    s = 0 for +e_i and 1 for -e_i."""
    t = np.zeros((16, 16), dtype=np.int64)
    for i in range(8):
        for si in range(2):
            for j in range(8):
                for sj in range(2):
                    k = MUL_INDEX[i, j]
                    sg = MUL_SIGN[i, j] * (1 - 2 * si) * (1 - 2 * sj)
                    t[2 * i + si, 2 * j + sj] = 2 * k + (0 if sg > 0 else 1)
    return CayleyTable(order=16, table=t, unit=0)


def line_flip_automorphism():
    """Automorphism of the signed basis loop negating e4..e7 (a Fano-line
    complement sign flip); an involution fixing the unit."""
    perm = np.arange(16)
    for i in (4, 5, 6, 7):
        perm[2 * i], perm[2 * i + 1] = 2 * i + 1, 2 * i
    return perm


def enumerate_loops(order):
    """All Cayley tables of loops of the given order with unit 0.

    Backtracking over the (order-1)^2 free cells of a reduced Latin square.
    Sizes: 1, 1, 1, 4, 56 for orders 1..5.
    """
    n = order
    table = -np.ones((n, n), dtype=np.int64)
    table[0, :] = np.arange(n)
    table[:, 0] = np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    out = []

    def fill(idx):
        if idx == len(cells):
            out.append(CayleyTable(order=n, table=table.copy(), unit=0))
            return
        i, j = cells[idx]
        used = set(table[i]) | set(table[:, j])
        for v in range(n):
            if v in used:
                continue
            table[i, j] = v
            fill(idx + 1)
            table[i, j] = -1

    fill(0)
    return out


def oracle_associative(table):
    n = table.shape[0]
    return all(
        table[table[a, b], c] == table[a, table[b, c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def oracle_inverse_property(table, unit):
    """Pure-python I.P. check: one inverse per element doing both sides."""
    n = table.shape[0]
    for a in range(n):
        candidates = [b for b in range(n) if table[a, b] == unit and table[b, a] == unit]
        if not candidates:
            return False
        inv = candidates[0]
        for b in range(n):
            if table[inv, table[a, b]] != b or table[table[b, a], inv] != b:
                return False
    return True
