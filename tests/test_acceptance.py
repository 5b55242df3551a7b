"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned in the assertions; runtime budgets are
measured after a one-time JIT warmup (cold-start compilation is an install
cost, not steady-state runtime).
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import (
    cubic_line_chart,
    cyclic_table,
    line_flip_automorphism,
    linear_system,
    planar_feedback_chart,
    signed_basis_loop,
    symmetric_group_table,
)
from loopoid_lab import octonion as oct
from loopoid_lab.algebroid import (
    STRICT,
    algebroid_frame,
    almost_lie_residual,
    bracket_table,
    constant_chart,
    lie_chart,
    loop_skew_constants,
    make_frame_field,
    prolong,
    prolong_algebroid,
)
from loopoid_lab.cli import main as cli_main
from loopoid_lab.finite import semidirect_loop, transversal_loop, validate_latin_square
from loopoid_lab.loopoids import (
    SplitFibration,
    loop_as_loopoid,
    pair_groupoid,
    product_loopoid,
    prolongation_loopoid,
    sample_composable_pairs,
)
from loopoid_lab.loops import bracket_loop, octonion_chart
from loopoid_lab.mechanics import (
    DiscreteLagrangianSystem,
    el_residual,
    legendre,
    regularity_check,
    step_solve,
    trajectory,
)
from loopoid_lab.numdiff import jacobian
from loopoid_lab.tangent import tangent_product


def _report(name, detail):
    print(f"[{name}] PASS  {detail}")


# ---------------------------------------------------------------------------


def test_ac1_octonion_suite():
    # reproduce all 64 basis products against the frozen signed table
    from test_octonion import BASIS_TABLE, random_octonions

    # warmup (jit) outside the timed region
    oct.oct_mul_batch(np.zeros((2, 8)), np.zeros((2, 8)))

    t0 = time.perf_counter()
    e = np.eye(8)
    for i in range(8):
        for j in range(8):
            signed = BASIS_TABLE[i][j]
            expected = np.zeros(8)
            expected[abs(signed) - 1] = 1.0 if signed > 0 else -1.0
            assert np.array_equal(oct.oct_mul_batch(e[i], e[j]), expected)

    rng = np.random.default_rng(0)
    a = random_octonions(rng, 10_000)
    b = random_octonions(rng, 10_000)
    prod = oct.oct_mul_batch(a, b)
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    rel = np.abs(np.linalg.norm(prod, axis=1) - na * nb) / (na * nb)
    assert float(rel.max()) < 1e-12

    u1, u2, u3 = (g / np.linalg.norm(g, axis=1, keepdims=True) for g in random_octonions(rng, 3000).reshape(3, 1000, 8))
    lhs = oct.oct_mul_batch(oct.oct_mul_batch(oct.oct_mul_batch(u1, u2), u1), u3)
    rhs = oct.oct_mul_batch(u1, oct.oct_mul_batch(u2, oct.oct_mul_batch(u1, u3)))
    moufang = float(np.abs(lhs - rhs).max())
    assert moufang < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("AC1", f"table exact, norm rel {rel.max():.2e}, moufang {moufang:.2e}, {elapsed:.2f}s")


def test_ac2_structure_constant_extraction():
    t0 = time.perf_counter()
    skew = loop_skew_constants(planar_feedback_chart())
    target = np.zeros((2, 2, 2))
    target[0, 0, 1] = 1.0
    target[0, 1, 0] = -1.0
    target[1, 0, 1] = -1.0
    target[1, 1, 0] = 1.0
    assert np.abs(skew - target).max() < 1e-6  # [X1,X2] = X1 - X2

    rng = np.random.default_rng(1)
    worst = 0.0
    for dim in (2, 3, 4, 5):
        for _ in range(25):
            c = rng.uniform(-1.0, 1.0, size=(dim, dim, dim))
            c = c - np.swapaxes(c, 1, 2)
            worst = max(worst, float(np.abs(loop_skew_constants(bracket_loop(dim, c)) - c).max()))
    assert worst < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report("AC2", f"planar bracket exact, 100-tensor round trip {worst:.2e}, {elapsed:.2f}s")


def test_ac3_lie_functor_product_over_planar_loop():
    q = product_loopoid(planar_feedback_chart(), 2)
    ff = make_frame_field(q)
    rng = np.random.default_rng(2)
    worst_prolong = 0.0
    for g in q.sample_g(rng, 100):
        x1, x2 = g[0], g[1]
        expected = {
            0: np.array([1, x2, 0, 0, 0, 0]),
            1: np.array([x1, 1, 0, 0, 0, 0]),
            2: np.array([0, 0, 0, 0, 1, 0]),
            3: np.array([0, 0, 0, 0, 0, 1]),
        }
        fields = prolong(q, ff, "left", g)
        for i, exp in expected.items():
            got = fields[i]
            worst_prolong = max(worst_prolong, float(np.abs(got - exp).max()))
    assert worst_prolong < 1e-7

    u = np.array([0.2, -0.4])
    left = bracket_table(q, "left", u, ff)
    right = bracket_table(q, "right", u, ff)
    assert np.abs(left[:, 0, 1] - np.array([1, -1, 0, 0])).max() < 1e-6
    assert np.abs(right[:, 0, 1] + np.array([1, -1, 0, 0])).max() < 1e-6
    worst_other = 0.0
    for i in range(4):
        for j in range(i + 1, 4):
            if (i, j) == (0, 1):
                continue
            worst_other = max(worst_other, float(np.abs(left[:, i, j]).max()))
    assert worst_other < 1e-6
    _report("AC3", f"prolongations {worst_prolong:.2e}, brackets exact, others {worst_other:.2e}")


def test_ac4_inverse_property_sign_theorem():
    instances = [
        product_loopoid(octonion_chart(), 1),
        prolongation_loopoid(product_loopoid(octonion_chart(), 1), SplitFibration(2, 1)),
    ]
    worst_sign = 0.0
    worst_lemma = 0.0
    for q in instances:
        ff = make_frame_field(q)
        u = np.full(q.dim_m, 0.25)
        fr = ff(u)
        e = np.asarray(q.unit_embed(u), dtype=float)
        ji = jacobian(q.inverse, e, 1e-5)
        worst_lemma = max(
            worst_lemma, float(np.max(np.abs((ji @ fr.alpha_vertical.T).T + fr.beta_vertical)))
        )
        r = q.rank
        rng = np.random.default_rng(3)
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, r, size=(6, 2)) if a != b]
        left = bracket_table(q, "left", u, ff)
        right = bracket_table(q, "right", u, ff)
        for i, j in pairs:
            worst_sign = max(worst_sign, float(np.max(np.abs(left[:, i, j] + right[:, i, j]))))
    assert worst_sign < 1e-6
    assert worst_lemma < 1e-7
    _report("AC4", f"sign theorem {worst_sign:.2e}, inversion action {worst_lemma:.2e}")


def test_ac5_almost_lie():
    rng = np.random.default_rng(4)
    worst = 0.0
    # loopoid instances
    for q, us in (
        (product_loopoid(planar_feedback_chart(), 2), rng.normal(scale=0.4, size=(2, 2))),
        (product_loopoid(cubic_line_chart(), 1), rng.normal(scale=0.4, size=(2, 1))),
    ):
        lie = lie_chart(q, make_frame_field(q))
        worst = max(worst, almost_lie_residual(lie.c(us), lie.rho(us), lie.drho(us)))
    assert worst < 1e-6

    # every algebroid prolongation output, including a non-Jacobi seed
    c_oct = np.zeros((7, 7, 7))
    for i in range(1, 8):
        for j in range(1, 8):
            if i != j:
                c_oct[oct.MUL_INDEX[i, j] - 1, i - 1, j - 1] = 2.0 * oct.MUL_SIGN[i, j]
    e = np.eye(7)
    brk = lambda a, b: np.einsum("kij,i,j->k", c_oct, a, b)
    jacobiator = brk(brk(e[0], e[1]), e[3]) + brk(brk(e[1], e[3]), e[0]) + brk(brk(e[3], e[0]), e[1])
    assert np.linalg.norm(jacobiator) > 1.0  # the seed is genuinely non-Jacobi

    outs = [
        prolong_algebroid(constant_chart(c_oct, np.zeros((0, 7))), SplitFibration(2, 0)),
        prolong_algebroid(
            constant_chart(np.zeros((1, 1, 1)), np.eye(1)), SplitFibration(3, 1)
        ),
    ]
    worst_chart = 0.0
    for ch in outs:
        xs = rng.normal(size=(3, ch.base_dim))
        worst_chart = max(worst_chart, almost_lie_residual(ch.c(xs), ch.rho(xs), ch.drho(xs)))
    assert worst_chart < 1e-6
    _report("AC5", f"loopoid residual {worst:.2e}, prolonged charts {worst_chart:.2e}")


def test_ac6_tangent_cotangent():
    ql = loop_as_loopoid(cubic_line_chart())
    rng = np.random.default_rng(5)
    worst_tan = 0.0
    worst_cot = 0.0
    for _ in range(100):
        x, y = rng.normal(scale=0.5, size=2)
        vx, vy = rng.normal(size=2)
        vector = tangent_product(ql, np.array([x]), np.array([vx]), np.array([y]), np.array([vy]))
        expected = vx * (1 + 2 * x * y) + vy * (1 + x * x)
        worst_tan = max(worst_tan, abs(vector[0] - expected))
        p = rng.normal()
        # the cotangent fibrations of p dx are the Legendre transforms of p x
        system = linear_system(ql, np.array([p]))
        bt = legendre(system, "plus", np.array([x]))
        at = legendre(system, "minus", np.array([x]))
        worst_cot = max(worst_cot, abs(bt[0] - p * (1 + x * x)), abs(at[0] - p))
    assert worst_tan < 1e-8
    assert worst_cot < 1e-7

    q = product_loopoid(planar_feedback_chart(), 2)
    worst_curve = 0.0
    for _ in range(10):
        g, h = sample_composable_pairs(q, rng, 1)[0]
        vg = rng.normal(size=6)
        vh = rng.normal(size=6)
        vh[2:4] = vg[4:6]
        prod = tangent_product(q, g, vg, h, vh)

        def curve(t):
            gc = g + t * vg
            hc = (h + t * vh).copy()
            hc[2:4] = gc[4:6]
            return q.mul(gc, hc)

        oracle = (curve(1e-6) - curve(-1e-6)) / 2e-6
        worst_curve = max(worst_curve, float(np.abs(prod - oracle).max()))
    assert worst_curve < 1e-6
    _report("AC6", f"tangent {worst_tan:.2e}, fibrations {worst_cot:.2e}, curves {worst_curve:.2e}")


def test_ac7_discrete_mechanics(readme_system):
    t0 = time.perf_counter()
    q = product_loopoid(planar_feedback_chart(), 2)
    system = DiscreteLagrangianSystem(
        loopoid=q, lagrangian=lambda g: 0.5 * (g[..., None, :] @ g[..., :, None])[..., 0, 0]
    )
    g0 = np.array(readme_system["body"]["start"])

    h, _ = step_solve(system, g0)
    assert abs(h[0] - 2.7912878475) < 1e-8
    assert abs(h[1] - 0.7912878475) < 1e-8

    traj = trajectory(system, g0, 2)
    third = 1.5 - np.sqrt(21) + 0.5 * np.sqrt(125 - 16 * np.sqrt(21))
    assert abs(traj.points[2][0] - third) < 1e-7

    gg = np.array([0.3, -0.8, 0.2, 1.1, -0.4, 0.9])
    plus = legendre(system, "plus", gg)
    minus = legendre(system, "minus", gg)
    assert np.abs(plus - [gg[0] + gg[1] ** 2, gg[0] ** 2 + gg[1], gg[4], gg[5]]).max() < 1e-7
    assert np.abs(minus - [gg[0] * (1 + gg[1]), gg[1] * (1 + gg[0]), gg[2], gg[3]]).max() < 1e-7

    rep = regularity_check(system, np.array([0.2, -0.5]))
    assert rep["regular"]
    dual = rep["unit_jacobian"][2:, :]
    assert np.allclose(dual[:, 0], [1, 0, 0, 0], atol=1e-6)
    assert np.allclose(dual[:, 2], 0.0, atol=1e-6)
    assert np.allclose(dual[:, 4], [0, 0, 1, 0], atol=1e-6)

    worst_p2 = 0.0
    for k in range(2):
        worst_p2 = max(
            worst_p2,
            float(
                np.abs(
                    legendre(system, "minus", traj.points[k + 1])
                    - legendre(system, "plus", traj.points[k])
                ).max()
            ),
        )
    assert worst_p2 < 1e-7
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("AC7", f"surd step exact, flow matches transforms {worst_p2:.2e}, {elapsed:.2f}s")


def test_ac8_finite_suite():
    # warm the identity-scan kernels before timing
    validate_latin_square(cyclic_table(3))

    t0 = time.perf_counter()
    z4 = cyclic_table(4)
    out = transversal_loop(z4, {0, 2}, {0, 1})
    assert out.table.tolist() == [[0, 1], [1, 0]]

    s3, perms = symmetric_group_table(3)
    swap = (1, 0, 2)
    h = {i for i, p in enumerate(perms) if p in (tuple(range(3)), swap)}
    even = {0, 3, 4}  # identity and the two 3-cycles in lexicographic order
    tl = transversal_loop(s3, h, even)
    rep = validate_latin_square(tl)
    assert rep.unit is not None and rep.left_inverse_property and rep.exhaustive

    loop = signed_basis_loop()
    assert validate_latin_square(loop).inverse_property
    sd = semidirect_loop(loop, [np.arange(16), line_flip_automorphism()])
    rep_sd = validate_latin_square(sd)
    assert rep_sd.inverse_property and rep_sd.exhaustive and not rep_sd.associative
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report("AC8", f"transversal + semidirect contracts exhaustive, {elapsed:.2f}s")


def test_ac9_cli_determinism(tmp_path, readme_system):
    runner = CliRunner()
    h_terms = [
        [[1.0, [1, 0], [0, 0]], [1.0, [0, 0], [1, 0]], [1.0, [1, 0], [0, 1]]],
        [[1.0, [0, 1], [0, 0]], [1.0, [0, 0], [0, 1]], [1.0, [0, 1], [1, 0]]],
    ]
    loop_body = {"dim": 2, "mul": {"kind": "polynomial", "terms": h_terms}}
    specs = {
        "finite.json": {
            "kind": "finite",
            "seed": 0,
            "body": {
                "kind": "transversal",
                "group": {
                    "order": 4,
                    "unit": 0,
                    "table": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
                },
                "subgroup": [0, 2],
                "transversal": [0, 1],
            },
        },
        "loop.json": {"kind": "loop", "seed": 0, "body": loop_body},
        "loopoid.json": {
            "kind": "loopoid",
            "seed": 0,
            "body": {"kind": "product", "pair_dim": 2, "loop": loop_body},
        },
        "system.json": readme_system,
    }
    for name, payload in specs.items():
        (tmp_path / name).write_text(json.dumps(payload), encoding="utf-8")

    script = [
        ["verify-finite", "--spec", "finite.json", "--seed", "0", "--out", "r1.json"],
        ["octonion", "--samples", "2000", "--seed", "0", "--out", "r2.json"],
        ["loop-algebra", "--spec", "loop.json", "--csv", "sk.csv", "--out", "r3.json"],
        ["loopoid-check", "--spec", "loopoid.json", "--seed", "0", "--samples", "8", "--out", "r4.json"],
        ["lie-functor", "--spec", "loopoid.json", "--seed", "0", "--csv", "br.csv", "--out", "r5.json"],
        ["tangent-check", "--spec", "loopoid.json", "--seed", "0", "--samples", "3", "--out", "r6.json"],
        ["simulate", "--spec", "system.json", "--steps", "2", "--out", "traj.csv", "--report", "r7.json"],
        ["legendre", "--spec", "system.json", "--at", "0.3,-0.8,0.2,1.1,-0.4,0.9", "--out", "r8.json"],
    ]
    artifacts = ["r1.json", "r2.json", "r3.json", "sk.csv", "r4.json", "r5.json", "br.csv", "r6.json", "traj.csv", "r7.json", "r8.json"]

    def run_all(subdir):
        outdir = tmp_path / subdir
        outdir.mkdir()
        for args in script:
            fixed = list(args)
            for i, a in enumerate(fixed):
                if a.endswith(".json") and (tmp_path / a).exists():
                    fixed[i] = str(tmp_path / a)
                elif a.endswith((".csv", ".json")):
                    fixed[i] = str(outdir / a)
            result = runner.invoke(cli_main, fixed)
            assert result.exit_code == 0, (args, result.output)
        return {name: (outdir / name).read_bytes() for name in artifacts}

    first = run_all("run1")
    second = run_all("run2")
    assert first == second
    _report("AC9", f"{len(artifacts)} artifacts byte-identical across runs")
