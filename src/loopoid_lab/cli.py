"""Command-line front end.

Every subcommand reads a structure spec, runs its verification or
simulation, writes a canonical JSON report (and CSV where tabular), and
exits 0 exactly when all asserted residuals sit inside their tolerances.
Reports are byte-identical across runs for a fixed (spec, seed, flags):
all randomness flows through one seeded generator and floats print with 17
significant digits.  A spec command's ``--seed`` falls back to the spec's
``seed``; ``octonion --seed`` defaults to 0.
"""

import math
import sys
from dataclasses import replace
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
# seeds, like a spec's seed: a negative value is a usage error (exit 2)
SEED = click.IntRange(min=0)


class _Tolerance(click.ParamType):
    """A residual tolerance: finite and positive, else a usage error (exit 2).

    No residual is below a bound of 0, a negative one or NaN, and every
    finite residual is below inf, so such a bound decides every check
    whatever the structure.
    """

    name = "float"

    def convert(self, value, param, ctx):
        tol = click.FLOAT.convert(value, param, ctx)
        if not (math.isfinite(tol) and tol > 0):
            self.fail(f"{value!r} is not a finite positive number", param, ctx)
        return tol


TOL = _Tolerance()


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


def _load_spec(path, *kinds, seed=None):
    """The spec at ``path``, of one of ``kinds``, its seed replaced by the
    command's ``seed`` when one is given."""
    spec = parse_spec(Path(path).read_text(encoding="utf-8"))
    if spec.kind not in kinds:
        needs = " or ".join(kinds) if len(kinds) > 1 else repr(kinds[0])
        raise LoopoidLabError(f"spec kind {spec.kind!r} but command needs {needs}")
    return spec if seed is None else replace(spec, seed=seed)


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
    """Run a subcommand body; emit machine-readable error JSON on failure.

    Exit 1 means a failed check and nothing else: every exception exits 2
    with the error report, and one that is not a ``LoopoidLabError`` (a
    bug) also prints its traceback to stderr.
    """

    def wrapper(*args, **kwargs):
        # the report path: --out, or --report where --out names the CSV
        out = kwargs.get("report_path", kwargs.get("out"))
        try:
            code = fn(*args, **kwargs)
        except Exception as exc:
            if not isinstance(exc, LoopoidLabError):
                import traceback

                traceback.print_exc()
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
@click.option("--seed", default=None, type=SEED)
@_guarded
def verify_finite(spec_path, out, seed):
    """Classify a finite table (or construction) and verify its contract."""
    spec = _load_spec(spec_path, "finite", seed=seed)
    from .finite import inverse_property, validate_latin_square

    table = build_finite(spec.body, "$.body")
    rng = np.random.default_rng(spec.seed)
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
        if inverse_property(inner):
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
@click.option("--seed", default=0, type=SEED)
@click.option("--samples", default=10000, type=COUNT)
@click.option("--mul", "mul_expr", nargs=2, default=None, type=str)
@_guarded
def octonion_cmd(out, seed, samples, mul_expr):
    """Decide the octonion identities on the basis table; check the product kernel on seeded pairs."""
    from . import octonion as oct

    if mul_expr:
        try:
            x, y = (oct.parse_expression(text) for text in mul_expr)
        except ValueError as exc:
            raise SchemaError(str(exc), "--mul") from None
    identities = (
        ("norm_multiplicative", "octonion.norm_product"),
        ("moufang", "octonion.moufang_identity"),
        ("conjugation_antihom", "octonion.conjugation"),
        ("inverse_property", "octonion.inverse_property"),
    )
    checks = [_check(name, ref, value, expect=0) for (name, ref), value in zip(identities, oct.identity_residuals())]
    defect = oct.kernel_batch_defect(np.random.default_rng(seed), samples)
    checks.append(_check("kernel_batch", "octonion.kernel_batch", defect, expect=0))

    report = {
        "command": "octonion",
        "seed": seed,
        "samples": samples,
        "checks": checks,
    }
    if mul_expr:
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
    """The loop's skew bracket, its Lie functor over a point; emit it as CSV."""
    spec = _load_spec(spec_path, "loop")
    from .algebroid import loop_skew_constants

    chart = build_loop(spec.body, "$.body")
    skew = loop_skew_constants(chart)
    csv = _bracket_csv(skew, csv_path)
    report = {
        "command": "loop-algebra",
        "dim": chart.dim,
        "skew_constants": skew.tolist(),
        "csv": csv,
        "checks": [],
    }
    return _finish(report, out)


@main.command("loopoid-check")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--out", default=None, type=click.Path())
@click.option("--seed", default=None, type=SEED)
@click.option("--samples", default=20, type=COUNT)
@click.option("--tol", default=1e-8, type=TOL)
@_guarded
def loopoid_check(spec_path, out, seed, samples, tol):
    """Audit the quasiloopoid axioms on seeded samples."""
    spec = _load_spec(spec_path, "loopoid", seed=seed)
    from .loopoids import check_axioms

    q = build_loopoid(spec.body, "$.body")
    rep = check_axioms(q, n_samples=samples, seed=spec.seed, tol=tol)
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
@click.option("--seed", default=None, type=SEED)
@click.option("--samples", default=3, type=COUNT)
@_guarded
def lie_functor(spec_path, out, csv_path, seed, samples):
    """Skew algebroid of a loopoid or algebroid spec: brackets, almost-Lie
    residual, and for loopoids the sign theorem.

    Both kinds are charts: a loopoid's is its Lie chart (``lie_chart``), the
    left bracket tables and frame anchors at sampled units; an algebroid's
    is the spec's, at sampled base points.  Each chart takes its anchors'
    derivative by its own rule, and both go through one almost-Lie check.
    """
    spec = _load_spec(spec_path, "loopoid", "algebroid", seed=seed)
    from .algebroid import almost_lie_residual, bracket_table, lie_chart, make_frame_field
    from .numdiff import complex_step

    rng = np.random.default_rng(spec.seed)
    if spec.kind == "loopoid":
        q = build_loopoid(spec.body, "$.body")
        ff = make_frame_field(q)
        chart = lie_chart(q, ff)
        xs = q.sample_m(rng, samples)
        ref = "functor"
    else:
        chart = build_algebroid(spec.body, "$.body")
        xs = rng.normal(scale=0.4, size=(samples, chart.base_dim))
        ref = "algebroid"
    # each sample's structure tensor once: the first sample's feeds the CSV
    # and the sign check, all of them the almost-Lie check
    c = chart.c(xs)
    # below rank 2 almost_lie_residual reads no anchors, so take none
    rho, drho = (chart.rho(xs), chart.drho(xs)) if chart.rank > 1 else (None, None)
    almost = almost_lie_residual(c, rho, drho)
    checks = [_check("almost_lie", f"{ref}.anchor_bracket_morphism", almost, tol=1e-6)]
    report = {"name": chart.name, "rank": chart.rank}
    if spec.kind == "loopoid":
        sign_resid = float(np.max(np.abs(c[0] + bracket_table(q, "right", xs[0], ff)), initial=0.0))
        report.update(left_right_sum_residual=sign_resid, inversion_residual=None)
        if q.claims_ip:
            fr = ff(xs[0])
            # T inverse along each alpha-vertical row should give minus its beta representative
            flipped = complex_step(q.inverse, q.unit_embed(xs[0]), fr.alpha_vertical)
            lemma = float(np.max(np.abs(flipped + fr.beta_vertical)))
            report["inversion_residual"] = lemma
            checks.append(_check("inversion_flips_representatives", "functor.inversion_normal_action", lemma, tol=1e-7))
            checks.append(_check("sign_theorem", "functor.left_right_opposite", sign_resid, tol=1e-6))
    else:
        report["base_dim"] = chart.base_dim
    report.update(command="lie-functor", almost_lie_residual=almost, csv=_bracket_csv(c[0], csv_path), checks=checks)
    return _finish(report, out)


@main.command("tangent-check")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--out", default=None, type=click.Path())
@click.option("--seed", default=None, type=SEED)
@click.option("--samples", default=5, type=COUNT)
@click.option("--tol", default=1e-6, type=TOL)
@_guarded
def tangent_check(spec_path, out, seed, samples, tol):
    """Tangent-structure audit: anchors, units, section independence,
    injectivity of tangent translations and the tangent inverse property."""
    spec = _load_spec(spec_path, "loopoid", seed=seed)
    from .tangent import INJECTIVE_SV, check_tangent_loopoid

    q = build_loopoid(spec.body, "$.body")
    rep = check_tangent_loopoid(q, n_samples=samples, seed=spec.seed, tol=tol)
    checks = [
        _check("tangent_anchors", "tangent.anchor_compatibility", rep["anchor_residual"], tol=tol),
        _check("tangent_units", "tangent.unit_action", rep["unit_residual"], tol=tol),
        _check("section_independence", "tangent.section_choice", rep["section_choice_residual"], tol=tol),
        _check(
            "tangent_injectivity",
            "tangent.translation_injective",
            rep["tangent_translation_min_sv"] > INJECTIVE_SV,
            expect=True,
        ),
    ]
    if rep["tangent_inverse_residual"] is not None:
        checks.append(_check("tangent_inverse", "tangent.inverse_property", rep["tangent_inverse_residual"], tol=tol))
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
    report = {
        "command": "simulate",
        "steps": steps,
        "start": g0.tolist(),
        "final": traj.points[-1].tolist(),
        "csv": None if csv_path else csv_text,
        "checks": [],
    }
    return _finish(report, report_path)


@main.command("legendre")
@click.option("--spec", "spec_path", required=True, type=click.Path(exists=True))
@click.option("--at", "at_str", default=None, type=str)
@click.option("--out", default=None, type=click.Path())
@click.option("--seed", default=None, type=SEED)
@_guarded
def legendre_cmd(spec_path, at_str, out, seed):
    """Evaluate both Legendre transforms and the regularity report."""
    spec = _load_spec(spec_path, "system", seed=seed)
    from .mechanics import legendre, regularity_check

    system = build_system(spec.body, "$.body")
    q = system.loopoid
    g = _point(at_str, "--at", spec, system)
    # far enough out the Lagrangian overflows; legendre reports the
    # transform it leaves not finite as a numerical failure, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        plus = legendre(system, "plus", g)
        minus = legendre(system, "minus", g)
        reg = regularity_check(system, q.beta(g), seed=spec.seed)
        checks = [
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
    if reg["probe_failure"] is not None:
        report["probe_failure"] = reg["probe_failure"]
    return _finish(report, out)


if __name__ == "__main__":
    main()
