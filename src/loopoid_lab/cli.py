"""Command-line front end.

Every subcommand reads a structure spec, runs its verification or
simulation, writes a canonical JSON report (and CSV where tabular), and
exits 0 exactly when all asserted residuals sit inside their tolerances.
Reports are byte-identical across runs for a fixed (spec, seed, flags):
all randomness flows through one seeded generator and floats print with 17
significant digits.  A spec command's ``--seed`` falls back to the spec's
``seed``; ``octonion --seed`` defaults to 0.
"""

import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import LoopoidLabError, NumericalNoise, SchemaError
from .specio import (
    build_algebroid,
    build_finite,
    build_loop,
    build_loopoid,
    build_system,
    canonical_json,
    parse_spec,
    write_csv,
)


# sample and step counts: a value below 1 is a usage error (exit 2) naming the option
COUNT = click.IntRange(min=1)


def _emit(report, out):
    text = canonical_json(report)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


def _check(name, ref, value, tol=None, expect=None):
    # a NaN residual says the numerics broke down, not that the claim failed;
    # +inf stays a failed check (a solve that did not converge reports it)
    if value != value:
        raise NumericalNoise(f"check {name}: value is NaN")
    if tol is not None:
        ok = bool(value < tol)
    else:
        ok = bool(value == expect)
    entry = {"name": name, "ref": ref, "value": value, "pass": ok}
    if tol is not None:
        entry["tol"] = tol
    if expect is not None:
        entry["expect"] = expect
    return entry


def _finish(report, out):
    report["ok"] = all(c["pass"] for c in report["checks"])
    _emit(report, out)
    return 0 if report["ok"] else 1


def _load_spec(path, expected_kind):
    spec = parse_spec(Path(path).read_text(encoding="utf-8"))
    if spec.kind != expected_kind:
        raise LoopoidLabError(f"spec kind {spec.kind!r} but command needs {expected_kind!r}")
    return spec


def _point(text, option, spec, system):
    """The point given as ``option`` (comma-separated floats), else ``body.start``.

    Either must have ``loopoid.dim_g`` finite coordinates; a malformed one
    raises SchemaError naming the option or the spec path.
    """
    dim = system.loopoid.dim_g
    if text is not None:
        path = option
        try:
            coords = [float(x) for x in text.split(",")]
            ok = bool(np.all(np.isfinite(coords)))
        except ValueError:
            ok = False
        if not ok:
            raise SchemaError(f"expected {dim} comma-separated numbers, got {text!r}", path)
    elif spec.body.get("start") is not None:
        path, coords = "$.body.start", spec.body["start"]
    else:
        raise LoopoidLabError(f"no start point: set body.start or pass {option}")
    if len(coords) != dim:
        raise SchemaError(f"expected {dim} coordinates (loopoid.dim_g), got {len(coords)}", path)
    return np.asarray(coords, dtype=float)


def _bracket_csv(constants, csv_path):
    """The ``i,j,k,value`` CSV of skew constants ``constants[k, i, j]`` over
    i < j, indices from 1: written to ``csv_path`` and None, or the text."""
    r = constants.shape[0]
    rows = [(i + 1, j + 1, k + 1, constants[k, i, j]) for i in range(r) for j in range(i + 1, r) for k in range(r)]
    csv_text = write_csv(("i", "j", "k", "value"), rows)
    if not csv_path:
        return csv_text
    Path(csv_path).write_text(csv_text, encoding="utf-8")
    return None


def _guarded(fn):
    """Run a subcommand body; emit machine-readable error JSON on failure."""

    def wrapper(*args, **kwargs):
        # the report path: --out, or --report where --out names the CSV
        out = kwargs.get("report_path", kwargs.get("out"))
        try:
            code = fn(*args, **kwargs)
        except LoopoidLabError as exc:
            _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, out)
            sys.exit(2)
        sys.exit(code)

    return wrapper


@click.group()
@click.version_option(version=__version__, prog_name="loopoid-lab")
def main():
    """Charted quasiloopoids, their skew brackets, and discrete mechanics."""


@main.command("verify-finite")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--out", default=None, type=click.Path())
@click.option("--seed", default=None, type=int)
@_guarded
def verify_finite(spec_path, out, seed):
    """Classify a finite table (or construction) and verify its contract."""
    spec = _load_spec(spec_path, "finite")
    from .finite import validate_latin_square

    table = build_finite(spec.body, "$.body")
    rng = np.random.default_rng(seed if seed is not None else spec.seed)
    rep = validate_latin_square(table, rng=rng)
    checks = []
    kind = spec.body["kind"]
    if kind == "transversal":
        checks.append(_check("unit_exists", "finite.transversal_unit", rep.unit, expect=table.unit))
        checks.append(
            _check("left_inverse_property", "finite.transversal_left_inverse", rep.left_inverse_property, expect=True)
        )
    elif kind == "semidirect":
        checks.append(_check("latin", "finite.semidirect_latin", rep.is_latin_square, expect=True))
        checks.append(_check("unit_exists", "finite.semidirect_unit", rep.unit, expect=table.unit))
        inner = build_finite({**spec.body["loop"], "kind": "table"}, "$.body.loop")
        if validate_latin_square(inner).inverse_property:
            checks.append(
                _check("inverse_property", "finite.semidirect_ip", rep.inverse_property, expect=True)
            )
    else:
        checks.append(_check("latin", "finite.table_latin", rep.is_latin_square, expect=True))
    report = {
        "command": "verify-finite",
        "kind": kind,
        "order": table.order,
        "report": rep.to_dict(),
        "checks": checks,
    }
    return _finish(report, out)


@main.command("octonion")
@click.option("--out", default=None, type=click.Path())
@click.option("--seed", default=0, type=int)
@click.option("--samples", default=10000, type=COUNT)
@click.option("--mul", "mul_expr", nargs=2, default=None, type=str)
@_guarded
def octonion_cmd(out, seed, samples, mul_expr):
    """Verify the octonion table and loop identities on seeded samples."""
    from . import octonion as oct

    rng = np.random.default_rng(seed)
    checks = []

    a = oct.random_octonions(rng, samples)
    b = oct.random_octonions(rng, samples)
    prod = oct.oct_mul_batch(a, b)
    rel = np.abs(
        np.linalg.norm(prod, axis=1) - np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    ) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
    checks.append(_check("norm_multiplicative", "octonion.norm_product", float(rel.max()), tol=1e-12))

    n3 = max(1, samples // 10)
    u1 = oct.random_unit_octonions(rng, n3)
    u2 = oct.random_unit_octonions(rng, n3)
    u3 = oct.random_unit_octonions(rng, n3)
    lhs = oct.oct_mul_batch(oct.oct_mul_batch(oct.oct_mul_batch(u1, u2), u1), u3)
    rhs = oct.oct_mul_batch(u1, oct.oct_mul_batch(u2, oct.oct_mul_batch(u1, u3)))
    checks.append(_check("moufang", "octonion.moufang_identity", float(np.abs(lhs - rhs).max()), tol=1e-9))

    g = rng.normal(size=8)
    h = rng.normal(size=8)
    gh = oct.oct_mul_batch(g, h)
    conj_resid = float(np.max(np.abs(oct.oct_conj(gh) - oct.oct_mul_batch(oct.oct_conj(h), oct.oct_conj(g)))))
    checks.append(_check("conjugation_antihom", "octonion.conjugation", conj_resid, tol=1e-12))

    ip_resid = float(np.max(np.abs(oct.oct_mul_batch(oct.oct_inverse(g), gh) - h)))
    checks.append(_check("inverse_property", "octonion.inverse_property", ip_resid, tol=1e-11))

    inner_resid = abs(gh @ gh - (g @ g) * (h @ h)) / max(1.0, abs((g @ g) * (h @ h)))
    checks.append(_check("inner_scaling", "octonion.inner_invariance", float(inner_resid), tol=1e-12))

    report = {
        "command": "octonion",
        "seed": seed,
        "samples": samples,
        "checks": checks,
    }
    if mul_expr:
        x = oct.parse_expression(mul_expr[0])
        y = oct.parse_expression(mul_expr[1])
        xy = oct.oct_mul_batch(x, y)
        report["product"] = {
            "lhs": x.tolist(),
            "rhs": y.tolist(),
            "result": xy.tolist(),
            "result_expression": oct.format_expression(xy),
        }
    return _finish(report, out)


@main.command("loop-algebra")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--out", default=None, type=click.Path())
@click.option("--csv", "csv_path", default=None, type=click.Path())
@_guarded
def loop_algebra(spec_path, out, csv_path):
    """Extract loop structure constants; emit the skew bracket as CSV."""
    spec = _load_spec(spec_path, "loop")
    from .loops import extract_structure_constants

    chart = build_loop(spec.body, "$.body")
    c, skew = extract_structure_constants(chart)
    csv = _bracket_csv(skew.constants, csv_path)
    checks = [
        _check(
            "antisymmetry",
            "loop.skew_constants_antisymmetric",
            float(np.max(np.abs(skew.constants + np.swapaxes(skew.constants, 1, 2)))),
            tol=1e-12,
        )
    ]
    report = {
        "command": "loop-algebra",
        "dim": chart.dim,
        "skew_constants": skew.constants.tolist(),
        "csv": csv,
        "checks": checks,
    }
    return _finish(report, out)


@main.command("loopoid-check")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--out", default=None, type=click.Path())
@click.option("--seed", default=None, type=int)
@click.option("--samples", default=20, type=COUNT)
@click.option("--tol", default=1e-8, type=float)
@_guarded
def loopoid_check(spec_path, out, seed, samples, tol):
    """Audit the quasiloopoid axioms on seeded samples."""
    spec = _load_spec(spec_path, "loopoid")
    from .loopoids import check_axioms

    q = build_loopoid(spec.body, "$.body")
    rep = check_axioms(q, n_samples=samples, seed=seed if seed is not None else spec.seed, tol=tol)
    checks = [
        _check("unit_laws", "loopoid.units", max(rep.left_unit_residual, rep.right_unit_residual), tol=tol),
        _check("unit_section", "loopoid.unit_section", rep.unit_section_residual, tol=tol),
        _check("submersions", "loopoid.submersion_rank", rep.submersions_ok, expect=True),
    ]
    if q.claims_loopoid:
        checks.append(_check("is_loopoid", "loopoid.anchor_morphism", rep.is_loopoid, expect=True))
    if q.claims_ip:
        checks.append(_check("inverse_property", "loopoid.inverse_property", rep.is_ip, expect=True))
    report = {
        "command": "loopoid-check",
        "name": q.name,
        "report": rep.to_dict(),
        "checks": checks,
    }
    return _finish(report, out)


@main.command("lie-functor")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--out", default=None, type=click.Path())
@click.option("--csv", "csv_path", default=None, type=click.Path())
@click.option("--seed", default=None, type=int)
@click.option("--samples", default=3, type=COUNT)
@_guarded
def lie_functor(spec_path, out, csv_path, seed, samples):
    """Brackets, anchors, almost-Lie and sign-theorem residuals.

    Accepts loopoid specs (frames and fundamental-field brackets) or
    algebroid specs (structure/anchor function checks).
    """
    spec = parse_spec(Path(spec_path).read_text(encoding="utf-8"))
    if spec.kind == "algebroid":
        return _lie_functor_chart(spec, out, csv_path, seed, samples)
    if spec.kind != "loopoid":
        raise LoopoidLabError(f"spec kind {spec.kind!r} but command needs loopoid or algebroid")
    from .algebroid import bracket_table, check_almost_lie_loopoid, make_frame_field

    q = build_loopoid(spec.body, "$.body")
    rng = np.random.default_rng(seed if seed is not None else spec.seed)
    ff = make_frame_field(q)
    us = q.sample_m(rng, samples)
    u0 = us[0]
    r = q.rank

    # each sample's left brackets once: the first sample's feed the CSV and
    # the sign check, all of them the almost-Lie check
    left = [bracket_table(q, "left", u, ff) for u in us]
    right = bracket_table(q, "right", u0, ff)
    sign_resid = float(np.max(np.abs(left[0] + right), initial=0.0))
    csv = _bracket_csv(left[0], csv_path)

    almost = check_almost_lie_loopoid(q, us, left, ff)
    checks = [_check("almost_lie", "functor.anchor_bracket_morphism", float(almost), tol=1e-6)]
    lemma = None
    if q.claims_ip:
        from .numdiff import complex_step

        fr = ff(u0)
        # T inverse along each alpha-vertical row should give minus its beta representative
        lemma = float(np.max(np.abs(complex_step(q.inverse, q.unit_embed(u0), fr.alpha_vertical) + fr.beta_vertical)))
        checks.append(_check("inversion_flips_representatives", "functor.inversion_normal_action", lemma, tol=1e-7))
        checks.append(_check("sign_theorem", "functor.left_right_opposite", sign_resid, tol=1e-6))
    report = {
        "command": "lie-functor",
        "name": q.name,
        "rank": r,
        "left_right_sum_residual": sign_resid,
        "almost_lie_residual": float(almost),
        "inversion_residual": lemma,
        "csv": csv,
        "checks": checks,
    }
    return _finish(report, out)


def _lie_functor_chart(spec, out, csv_path, seed, samples):
    from .algebroid import check_almost_lie_chart, leibniz_bracket

    chart = build_algebroid(spec.body, "$.body")
    rng = np.random.default_rng(seed if seed is not None else spec.seed)
    xs = rng.normal(scale=0.4, size=(samples, chart.base_dim))
    almost = check_almost_lie_chart(chart, xs)

    # numeric re-check of the Leibniz rule on a random coefficient function
    x0 = xs[0]
    r = chart.rank
    i, j = (0, 1 % r)
    coeffs = rng.normal(size=chart.base_dim + 1)
    f = lambda x: coeffs[0] + coeffs[1:] @ x
    fy = lambda x: f(x) * np.eye(r)[j]
    lhs = leibniz_bracket(chart, np.eye(r)[i], fy, x0)
    base = f(x0) * leibniz_bracket(chart, np.eye(r)[i], np.eye(r)[j], x0)
    rho_term = float(coeffs[1:] @ (chart.rho(x0) @ np.eye(r)[i]))
    leibniz_resid = float(np.max(np.abs(lhs - base - rho_term * np.eye(r)[j])))

    csv = _bracket_csv(chart.c(x0), csv_path)
    checks = [
        _check("almost_lie", "algebroid.anchor_bracket_morphism", float(almost), tol=1e-6),
        _check("leibniz_rule", "algebroid.leibniz_rule", leibniz_resid, tol=1e-6),
    ]
    report = {
        "command": "lie-functor",
        "name": chart.name,
        "rank": chart.rank,
        "base_dim": chart.base_dim,
        "almost_lie_residual": float(almost),
        "leibniz_residual": leibniz_resid,
        "csv": csv,
        "checks": checks,
    }
    return _finish(report, out)


@main.command("tangent-check")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--out", default=None, type=click.Path())
@click.option("--seed", default=None, type=int)
@click.option("--samples", default=5, type=COUNT)
@click.option("--tol", default=1e-6, type=float)
@_guarded
def tangent_check(spec_path, out, seed, samples, tol):
    """Tangent-structure audit: anchors, units, section independence."""
    spec = _load_spec(spec_path, "loopoid")
    from .tangent import check_tangent_loopoid

    q = build_loopoid(spec.body, "$.body")
    rep = check_tangent_loopoid(q, n_samples=samples, seed=seed if seed is not None else spec.seed, tol=tol)
    checks = [
        _check("tangent_anchors", "tangent.anchor_compatibility", rep["anchor_residual"], tol=tol),
        _check("tangent_units", "tangent.unit_action", rep["unit_residual"], tol=tol),
        _check("section_independence", "tangent.section_choice", rep["section_choice_residual"], tol=tol),
    ]
    report = {"command": "tangent-check", "name": q.name, "report": rep, "checks": checks}
    return _finish(report, out)


@main.command("simulate")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--steps", default=1, type=COUNT)
@click.option("--start", "start_str", default=None, type=str)
@click.option("--out", "csv_path", default=None, type=click.Path())
@click.option("--report", "report_path", default=None, type=click.Path())
@_guarded
def simulate(spec_path, steps, start_str, csv_path, report_path):
    """Run the discrete Euler-Lagrange step map; write the trajectory CSV."""
    spec = _load_spec(spec_path, "system")
    from .loopoids import COMPOSABLE_TOL
    from .mechanics import trajectory

    system = build_system(spec.body, "$.body")
    g0 = _point(start_str, "--start", spec, system)
    # far enough out the Lagrangian or the residual's norm overflows;
    # newton_solve reports the non-finite residual, not numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        traj = trajectory(system, g0, steps)
    header = ["step"] + [f"x{i+1}" for i in range(system.loopoid.dim_g)] + ["residual", "gap"]
    rows = []
    for k, p in enumerate(traj.points):
        resid = traj.residuals[k - 1] if k > 0 else 0.0
        gap = traj.composable_gaps[k - 1] if k > 0 else 0.0
        rows.append([k] + [float(v) for v in p] + [resid, gap])
    csv_text = write_csv(header, rows)
    if csv_path:
        Path(csv_path).write_text(csv_text, encoding="utf-8")
    checks = [
        _check("el_residuals", "mechanics.euler_lagrange", float(traj.residuals.max(initial=0.0)), tol=system.newton.tol * 10),
        _check("composable_gaps", "mechanics.composability", float(traj.composable_gaps.max(initial=0.0)), tol=COMPOSABLE_TOL),
    ]
    report = {
        "command": "simulate",
        "steps": steps,
        "start": g0.tolist(),
        "final": traj.points[-1].tolist(),
        "csv": None if csv_path else csv_text,
        "checks": checks,
    }
    return _finish(report, report_path)


@main.command("legendre")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--at", "at_str", default=None, type=str)
@click.option("--out", default=None, type=click.Path())
@click.option("--seed", default=None, type=int)
@_guarded
def legendre_cmd(spec_path, at_str, out, seed):
    """Evaluate both Legendre transforms and the regularity report."""
    spec = _load_spec(spec_path, "system")
    from .mechanics import legendre, legendre_vs_cotangent, regularity_check

    system = build_system(spec.body, "$.body")
    q = system.loopoid
    g = _point(at_str, "--at", spec, system)
    # far enough out the Lagrangian overflows; the NaN it leaves is
    # reported by _check as a numerical failure, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        plus = legendre(system, "plus", g)
        minus = legendre(system, "minus", g)
        consistency = legendre_vs_cotangent(system, g)
        reg = regularity_check(system, q.beta(g), seed=seed if seed is not None else spec.seed)
        checks = [
            _check("cotangent_consistency", "mechanics.legendre_fibration", float(consistency), tol=1e-7),
            _check("flow_matches_legendre", "mechanics.flow_intertwines", float(reg["flow_matches_legendre_residual"]), tol=1e-7),
        ]
    report = {
        "command": "legendre",
        "at": g.tolist(),
        "plus": plus.tolist(),
        "minus": minus.tolist(),
        "regular": reg["regular"],
        "min_sv_plus_fiberwise": reg["min_sv_plus_fiberwise"],
        "min_sv_minus_fiberwise": reg["min_sv_minus_fiberwise"],
        "checks": checks,
    }
    return _finish(report, out)


if __name__ == "__main__":
    main()
