import json

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import EXAMPLES, build_spec, example
from loopoid_lab.cli import main
from loopoid_lab.errors import SchemaError
from loopoid_lab.specio import (
    build_loop,
    build_loopoid,
    build_system,
    canonical_json,
    parse_spec,
    write_csv,
)

# the README system, its product loopoid and its planar loop
SYSTEM_BODY = example("readme_system")["body"]
PRODUCT_BODY = SYSTEM_BODY["loopoid"]
H_LOOP_BODY = PRODUCT_BODY["loop"]
H_TERMS = H_LOOP_BODY["mul"]["terms"]


def spec_text(kind, body, seed=0):
    return json.dumps({"kind": kind, "seed": seed, "body": body})


# ---------------------------------------------------------------------------
# parsing and canonical output
# ---------------------------------------------------------------------------


def test_missing_dim_reports_path():
    body = {"mul": {"kind": "polynomial", "terms": [[]]}}
    with pytest.raises(SchemaError) as err:
        build_spec({"kind": "loop", "body": body})
    assert err.value.path == "$.body.dim"


def test_non_integer_exponent_reports_path():
    body = {"dim": 1, "mul": {"kind": "polynomial", "terms": [[[1.0, [0.5], [1]]]]}}
    with pytest.raises(SchemaError) as err:
        build_spec({"kind": "loop", "body": body})
    assert "exponents" in str(err.value)


OCTONION_LOOP_BODY = {"mul": {"kind": "builtin", "name": "octonion"}}
BRACKET_LOOP_BODY = {"dim": 2, "mul": {"kind": "bracket", "constants": [[[0, 1], [-1, 0]], [[0, 1], [-1, 0]]]}}
S3_TRANSVERSAL_BODY = example("s3_transversal")["body"]
SEMIDIRECT_BODY = example("signed_basis_semidirect")["body"]
Z2_TABLE_BODY = {"kind": "table", "order": 2, "unit": 0, "table": [[0, 1], [1, 0]]}
# a loopoid over M = R^2 prolonged over a fibration whose base is R^1
PAIR2_OVER_3_TO_1 = {
    "kind": "prolongation",
    "base": {"kind": "pair_groupoid", "dim": 2},
    "fibration": {"dim_total": 3, "dim_base": 1},
}


@pytest.mark.parametrize(
    "kind, body, path",
    [
        ("loop", dict(BRACKET_LOOP_BODY, unit=[0.0]), "$.body.unit"),
        ("loop", dict(H_LOOP_BODY, unit=["a", "b"]), "$.body.unit"),
        ("loop", dict(OCTONION_LOOP_BODY, unit=[1.0, 0.0]), "$.body.unit"),
        ("loopoid", dict(PRODUCT_BODY, loop=dict(H_LOOP_BODY, unit=[0.0, 0.0, 0.0])), "$.body.loop.unit"),
        ("loop", {"dim": 2, "mul": {"kind": "polynomial", "terms": H_TERMS[:1]}}, "$.body.mul.terms"),
        (
            "loop",
            {"dim": 2, "mul": {"kind": "bracket", "constants": [[[0, "x"], [-1, 0]], [[0, 1], [-1, 0]]]}},
            "$.body.mul.constants",
        ),
        ("loop", dict(H_LOOP_BODY, fd_step=1e-5), "$.body.fd_step"),
        ("system", dict(SYSTEM_BODY, newton=[1, 2]), "$.body.newton"),
        ("system", dict(SYSTEM_BODY, newton={"tol": "tight"}), "$.body.newton.tol"),
        ("system", dict(SYSTEM_BODY, newton={"max_iter": 0}), "$.body.newton.max_iter"),
        ("system", dict(SYSTEM_BODY, newton={"max_iter": 5.0}), "$.body.newton.max_iter"),
        ("system", dict(SYSTEM_BODY, newton={"rcond": -1e-4}), "$.body.newton.rcond"),
        ("system", dict(SYSTEM_BODY, newton={"fd_step": None}), "$.body.newton.fd_step"),
        ("system", dict(SYSTEM_BODY, newton={"damping": 1}), "$.body.newton.damping"),
        ("system", dict(SYSTEM_BODY, newton={"max_iters": 10}), "$.body.newton.max_iters"),
        (
            "algebroid",
            {
                "kind": "prolongation",
                "base": {"kind": "constant", "base_dim": 2, "rank": 1, "c": [[[0.0]]], "rho": [[1.0], [0.0]]},
                "fibration": {"dim_total": 1, "dim_base": 2},
            },
            "$.body.fibration.dim_base",
        ),
        (
            "algebroid",
            {
                "kind": "prolongation",
                "base": {"kind": "constant", "base_dim": 2, "rank": 1, "c": [[[0.0]]], "rho": [[1.0], [0.0]]},
                "fibration": {"dim_total": 3, "dim_base": 1},
            },
            "$.body.fibration.dim_base",
        ),
        ("loopoid", PAIR2_OVER_3_TO_1, "$.body.fibration.dim_base"),
        ("finite", dict(S3_TRANSVERSAL_BODY, subgroup=[0, 99]), "$.body.subgroup[1]"),
        ("finite", dict(S3_TRANSVERSAL_BODY, subgroup=[0, "a"]), "$.body.subgroup[1]"),
        ("finite", dict(SEMIDIRECT_BODY, autos=[[0, "x"]]), "$.body.autos[0][1]"),
        ("finite", dict(SEMIDIRECT_BODY, autos=[[0, 1.5]]), "$.body.autos[0][1]"),
        ("finite", dict(Z2_TABLE_BODY, unit=5), "$.body.unit"),
        ("finite", dict(Z2_TABLE_BODY, table=[[0, 1], [1, 2]]), "$.body.table[1][1]"),
        ("finite", dict(Z2_TABLE_BODY, table=[[0, 1], [True, 0]]), "$.body.table[1][0]"),
    ],
    ids=[
        "unit_short",
        "unit_not_numbers",
        "octonion_unit_short",
        "product_loop_unit_long",
        "terms_short",
        "constants_not_numbers",
        "loop_fd_step",
        "newton_not_object",
        "newton_tol",
        "newton_max_iter_zero",
        "newton_max_iter_float",
        "newton_rcond",
        "newton_fd_step",
        "newton_damping",
        "newton_unknown_field",
        "algebroid_fibration_base_too_large",
        "algebroid_fibration_base_not_the_base",
        "loopoid_fibration_base_not_the_base",
        "subgroup_index_out_of_range",
        "subgroup_index_not_integer",
        "auto_entry_not_integer",
        "auto_entry_float",
        "table_unit_out_of_range",
        "table_entry_out_of_range",
        "table_entry_bool",
    ],
)
def test_bad_field_is_a_schema_error_at_its_path(kind, body, path):
    with pytest.raises(SchemaError) as err:
        build_spec({"kind": kind, "body": body})
    assert err.value.path == path


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError):
        parse_spec(json.dumps({"kind": "mystery", "body": {}}))
    with pytest.raises(SchemaError):
        parse_spec("not json")
    with pytest.raises(SchemaError) as err:  # the octonion command reads no spec
        parse_spec(json.dumps({"kind": "octonion", "body": {}}))
    assert err.value.path == "$.kind"


def test_canonical_json_is_stable_and_17_digits():
    payload = {"b": 1 / 3, "a": [True, None, 2]}
    text = canonical_json(payload)
    assert text == '{"a":[true,null,2],"b":0.33333333333333331}\n'


def test_write_csv_format():
    text = write_csv(("i", "value"), [(1, 0.5), (2, 1.0 / 3.0)])
    lines = text.split("\n")
    assert lines[0] == "i,value"
    assert lines[1] == "1,0.5"
    assert lines[2] == "2,0.33333333333333331"
    assert text.endswith("\n") and "\r" not in text


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def test_build_loop_polynomial_matches_values(rng):
    chart = build_loop(H_LOOP_BODY, "$.body")
    x = rng.normal(size=2)
    y = rng.normal(size=2)
    expected = np.array(
        [x[0] + y[0] + x[0] * y[1], x[1] + y[1] + x[1] * y[0]]
    )
    assert np.allclose(chart.mul(x, y), expected, atol=1e-14)


def test_build_loopoid_kinds():
    assert build_loopoid(PRODUCT_BODY, "$.body").dim_g == 6
    assert build_loopoid({"kind": "pair_groupoid", "dim": 3}, "$.body").dim_g == 6
    phi = build_loopoid({"kind": "phi", "phi": {"odd_coeffs": [1.0, 1.0]}}, "$.body")
    assert phi.dim_g == 3 and phi.inverse_side == "left"
    pro = build_loopoid(
        {
            "kind": "prolongation",
            "base": PRODUCT_BODY,
            "fibration": {"dim_total": 3, "dim_base": 2},
        },
        "$.body",
    )
    assert pro.dim_g == 6 + 2 and pro.dim_m == 3


def test_build_system_runs_a_step():
    from loopoid_lab.mechanics import step_solve

    system = build_system(SYSTEM_BODY, "$.body")
    h = step_solve(system, np.asarray(SYSTEM_BODY["start"]))
    assert abs(h[0] - (1 + np.sqrt(21)) / 2) < 1e-8


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture
def runner():
    return CliRunner()


def _write(tmp_path, name, kind, body):
    p = tmp_path / name
    p.write_text(spec_text(kind, body), encoding="utf-8")
    return str(p)


def test_cli_verify_finite(runner, tmp_path):
    path = _write(
        tmp_path,
        "z4t.json",
        "finite",
        {
            "kind": "transversal",
            "group": {"order": 4, "unit": 0, "table": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]},
            "subgroup": [0, 2],
            "transversal": [0, 1],
        },
    )
    result = runner.invoke(main, ["verify-finite", "--spec", path])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["ok"]
    assert report["report"]["left_inverse_property"]
    assert all("ref" in c for c in report["checks"])


def test_cli_verify_finite_plain_table_must_be_latin(runner, tmp_path):
    path = _write(tmp_path, "zeros.json", "finite", {"kind": "table", "order": 3, "unit": None, "table": [[0] * 3] * 3})
    result = runner.invoke(main, ["verify-finite", "--spec", path])
    assert result.exit_code == 1, result.output
    report = json.loads(result.output)
    assert not report["ok"]
    assert [c["name"] for c in report["checks"] if not c["pass"]] == ["latin"]


def test_cli_octonion_suite(runner):
    result = runner.invoke(main, ["octonion", "--samples", "500", "--mul", "e1", "e2"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["ok"]
    assert report["product"]["result_expression"] == "1e3"


def test_cli_loop_algebra_csv(runner, tmp_path):
    path = _write(tmp_path, "h.json", "loop", H_LOOP_BODY)
    csv_path = tmp_path / "skew.csv"
    result = runner.invoke(
        main, ["loop-algebra", "--spec", path, "--csv", str(csv_path), "--out", str(tmp_path / "r.json")]
    )
    assert result.exit_code == 0, result.output
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "i,j,k,value"
    rows = {tuple(l.split(",")[:3]): float(l.split(",")[3]) for l in lines[1:]}
    assert abs(rows[("1", "2", "1")] - 1.0) < 1e-6
    assert abs(rows[("1", "2", "2")] + 1.0) < 1e-6


def test_cli_loopoid_check_product_and_phi(runner, tmp_path):
    path = _write(tmp_path, "prod.json", "loopoid", PRODUCT_BODY)
    result = runner.invoke(main, ["loopoid-check", "--spec", path, "--samples", "8"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["report"]["is_loopoid"]

    phi_path = _write(tmp_path, "phi.json", "loopoid", {"kind": "phi", "phi": {"odd_coeffs": [1.0, 1.0]}})
    result = runner.invoke(main, ["loopoid-check", "--spec", phi_path, "--samples", "8"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert not report["report"]["is_loopoid"]
    assert report["report"]["left_ip_residual"] < 1e-8


def test_cli_lie_functor(runner, tmp_path):
    body = {"kind": "product", "pair_dim": 1, "loop": H_LOOP_BODY}
    path = _write(tmp_path, "prod1.json", "loopoid", body)
    csv_path = tmp_path / "brackets.csv"
    result = runner.invoke(main, ["lie-functor", "--spec", path, "--csv", str(csv_path)])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["almost_lie_residual"] < 1e-6
    rows = {}
    for line in csv_path.read_text().strip().split("\n")[1:]:
        i, j, k, v = line.split(",")
        rows[(i, j, k)] = float(v)
    assert abs(rows[("1", "2", "1")] - 1.0) < 1e-6
    assert abs(rows[("1", "2", "2")] + 1.0) < 1e-6


def test_cli_lie_functor_algebroid_chart(runner, tmp_path):
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0
    c[0, 1, 0] = -1.0
    body = {
        "kind": "constant",
        "base_dim": 0,
        "rank": 2,
        "c": c.tolist(),
        "rho": np.zeros((0, 2)).tolist(),
    }
    path = _write(tmp_path, "alg.json", "algebroid", body)
    result = runner.invoke(main, ["lie-functor", "--spec", path])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["ok"]
    assert report["almost_lie_residual"] < 1e-9
    assert report["leibniz_residual"] < 1e-6


def test_cli_tangent_check(runner, tmp_path):
    path = _write(tmp_path, "prod.json", "loopoid", PRODUCT_BODY)
    result = runner.invoke(main, ["tangent-check", "--spec", path, "--samples", "3"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["ok"]


def test_cli_simulate_matches_surd(runner, tmp_path):
    path = _write(tmp_path, "sys.json", "system", SYSTEM_BODY)
    csv_path = tmp_path / "traj.csv"
    result = runner.invoke(
        main,
        ["simulate", "--spec", path, "--steps", "2", "--out", str(csv_path), "--report", str(tmp_path / "r.json")],
    )
    assert result.exit_code == 0, result.output
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("step,x1")
    row1 = [float(v) for v in lines[2].split(",")]
    assert row1[0] == 1
    assert abs(row1[1] - (1 + np.sqrt(21)) / 2) < 1e-7
    assert abs(row1[2] - (np.sqrt(21) - 3) / 2) < 1e-7


def test_cli_simulate_error_goes_to_report(runner, tmp_path):
    path = _write(tmp_path, "sys.json", "system", SYSTEM_BODY)
    report = tmp_path / "r.json"
    result = runner.invoke(main, ["simulate", "--spec", path, "--steps", "5", "--report", str(report)])
    assert result.exit_code == 2
    assert result.output == ""
    err = json.loads(report.read_text())["error"]
    assert err == {
        "type": "SingularJacobian",
        "message": "step 4: stalled at residual 3.432e+05 with condition inf",
    }


def test_cli_legendre_report_is_strict_json(runner, tmp_path):
    body = {
        "loopoid": {"kind": "phi", "phi": {"odd_coeffs": [1.0, 0.5]}},
        "lagrangian": {"kind": "half_sum_squares"},
        "start": [0.1, 0.2, 0.3],
    }
    path = _write(tmp_path, "phi.json", "system", body)
    result = runner.invoke(main, ["legendre", "--spec", path])
    assert result.exit_code == 1, result.output
    checks = {c["name"]: c for c in json.loads(result.output, parse_constant=_reject)["checks"]}
    assert checks["flow_matches_legendre"]["value"] == "Infinity"
    assert not checks["flow_matches_legendre"]["pass"]


def test_cli_legendre_at_a_huge_point_meets_the_closed_form(runner, tmp_path):
    # at |g| ~ 1e100 the Lagrangian's square is still finite, and exact
    # inner derivatives give the closed forms of the transforms there
    path = _write(tmp_path, "sys.json", "system", SYSTEM_BODY)
    result = runner.invoke(main, ["legendre", "--spec", path, "--at", "1e100,2,0.7,-0.4,0.5,1.3"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["plus"] == [1e100, 1e200, 0.5, 1.3]
    want = np.array([3e100, 2e100, 0.7, -0.4])
    assert np.all(np.abs(np.array(report["minus"]) - want) <= 6.4e-12 * np.maximum(1.0, np.abs(want)))


def test_cli_legendre_far_out_on_phi_passes(runner):
    # at |u| = 200 the frames' Jacobians are complex steps, exact to
    # rounding; the fundamental fields are taken along them and both checks
    # pass
    args = ["legendre", "--spec", str(EXAMPLES / "phi_system.json"), "--at", "200,0.2,0.1"]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["ok"]


def test_cli_nan_check_is_a_numerical_failure(runner, tmp_path):
    # at |g| ~ 1e155 the Lagrangian overflows and the cotangent residual is
    # NaN: the numerics failed (exit 2), no check was decided, and numpy's
    # overflow warnings do not reach stderr
    path = _write(tmp_path, "sys.json", "system", SYSTEM_BODY)
    result = runner.invoke(main, ["legendre", "--spec", path, "--at", "1e155,2,0.7,-0.4,0.5,1.3"])
    assert result.exit_code == 2, result.output
    assert result.stderr == ""
    error = json.loads(result.output)["error"]
    assert error == {"type": "NumericalNoise", "message": "check cotangent_consistency: value is NaN"}


def test_cli_non_finite_step_jacobian_is_a_numerical_failure(runner, tmp_path):
    # at |g| ~ 1e150 the step residual's entries are finite (about 1e300)
    # but its norm overflows at Newton's seed: Newton stops before
    # differencing a Jacobian, with no numpy warning on stderr
    report = tmp_path / "r.json"
    start = "1e150,2,0.7,-0.4,0.5,1.3"
    args = ["simulate", "--spec", str(EXAMPLES / "readme_system.json"), "--steps", "2", "--start", start]
    result = runner.invoke(main, args + ["--report", str(report)])
    assert result.exit_code == 2, result.output
    assert result.stderr == ""
    assert json.loads(report.read_text())["error"] == {
        "type": "NumericalNoise",
        "message": "step 0: non-finite residual norm inf at the seed",
    }


def test_cli_overflowing_lagrangian_at_the_seed_is_a_numerical_failure(runner, tmp_path):
    # at |g| ~ 1e155 the Lagrangian itself overflows before Newton starts;
    # the NaN it leaves is reported at the seed, with no warning on stderr
    report = tmp_path / "r.json"
    start = "1e155,2,0.7,-0.4,0.5,1.3"
    args = ["simulate", "--spec", str(EXAMPLES / "readme_system.json"), "--steps", "1", "--start", start]
    result = runner.invoke(main, args + ["--report", str(report)])
    assert result.exit_code == 2, result.output
    assert result.stderr == ""
    assert json.loads(report.read_text())["error"] == {
        "type": "NumericalNoise",
        "message": "step 0: non-finite residual norm nan at the seed",
    }


def _reject(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_canonical_json_encodes_non_finite_floats_as_strings():
    text = canonical_json({"a": float("inf"), "b": -np.inf, "c": np.float64("nan")})
    assert text == '{"a":"Infinity","b":"-Infinity","c":"NaN"}\n'


def test_cli_legendre(runner, tmp_path):
    path = _write(tmp_path, "sys.json", "system", SYSTEM_BODY)
    result = runner.invoke(main, ["legendre", "--spec", path, "--at", "0.3,-0.8,0.2,1.1,-0.4,0.9"])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    assert report["regular"]
    assert np.allclose(report["plus"], [0.94, -0.71, -0.4, 0.9], atol=1e-7)
    assert np.allclose(report["minus"], [0.06, -1.04, 0.2, 1.1], atol=1e-7)


@pytest.mark.parametrize(
    "command, option, report_flag",
    [("simulate", "--start", "--report"), ("legendre", "--at", "--out")],
    ids=["simulate", "legendre"],
)
@pytest.mark.parametrize(
    "value, start, message",
    [
        ("a,b", None, "{option}: expected 6 comma-separated numbers, got 'a,b'"),
        ("1,2,3,inf,5,6", None, "{option}: expected 6 comma-separated numbers, got '1,2,3,inf,5,6'"),
        ("1,2", None, "{option}: expected 6 coordinates (loopoid.dim_g), got 2"),
        (None, [1.0, 2.0], "$.body.start: expected 6 coordinates (loopoid.dim_g), got 2"),
    ],
    ids=["non_numeric", "non_finite", "wrong_length", "spec_wrong_length"],
)
def test_cli_bad_point_is_a_schema_error(runner, tmp_path, command, option, report_flag, value, start, message):
    body = dict(SYSTEM_BODY, start=start)
    path = _write(tmp_path, "sys.json", "system", body)
    report = tmp_path / "r.json"
    args = [command, "--spec", path, report_flag, str(report)]
    if value is not None:
        args += [option, value]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    err = json.loads(report.read_text())["error"]
    assert err == {"type": "SchemaError", "message": message.format(option=option)}


def test_cli_schema_error_is_machine_readable(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(spec_text("loop", {"mul": {"kind": "polynomial", "terms": [[]]}}))
    result = runner.invoke(main, ["loop-algebra", "--spec", str(path)])
    assert result.exit_code == 2
    err = json.loads(result.output)
    assert err["error"]["type"] == "SchemaError"
    assert "$.body.dim" in err["error"]["message"]


@pytest.mark.parametrize("command", ["loopoid-check", "lie-functor", "tangent-check"])
def test_cli_fibration_over_another_base_exits_2(runner, tmp_path, command):
    path = _write(tmp_path, "pro.json", "loopoid", PAIR2_OVER_3_TO_1)
    result = runner.invoke(main, [command, "--spec", path])
    assert result.exit_code == 2, result.output
    err = json.loads(result.output)["error"]
    assert err == {
        "type": "SchemaError",
        "message": "$.body.fibration.dim_base: expected the base's dimension 2, got 1",
    }


def test_cli_negative_spec_seed_exits_2(runner, tmp_path):
    path = tmp_path / "prod.json"
    path.write_text(spec_text("loopoid", PRODUCT_BODY, seed=-1), encoding="utf-8")
    result = runner.invoke(main, ["loopoid-check", "--spec", str(path), "--samples", "2"])
    assert result.exit_code == 2, result.output
    assert json.loads(result.output)["error"] == {"type": "SchemaError", "message": "$.seed: expected >= 0, got -1"}


def test_cli_bad_loop_unit_exits_2(runner, tmp_path):
    path = _write(tmp_path, "loop.json", "loop", dict(BRACKET_LOOP_BODY, unit=[0.0]))
    result = runner.invoke(main, ["loop-algebra", "--spec", path])
    assert result.exit_code == 2
    err = json.loads(result.output)["error"]
    assert err == {"type": "SchemaError", "message": "$.body.unit: expected 2 numbers, got shape (1,)"}


@pytest.mark.parametrize(
    "number,message",
    [
        ("9" * 401, "$.body.mul.terms[0][0][0]: expected a finite number in the float range"),
        ("1e400", "$.body.mul.terms[0][0][0]: expected a finite number in the float range"),
        ("9" * 5000, "$: invalid JSON: Exceeds the limit (4300 digits) for integer string conversion"),
    ],
    ids=["401-digit-integer", "float-literal-beyond-range", "5000-digit-integer"],
)
def test_cli_number_beyond_float_range_exits_2(runner, tmp_path, number, message):
    body = {"dim": 1, "mul": {"kind": "polynomial", "terms": [[[1.0, [1], [0]], [1.0, [0], [1]]]]}}
    text = spec_text("loop", body).replace("[[[1.0,", f"[[[{number},", 1)
    path = tmp_path / "loop.json"
    path.write_text(text, encoding="utf-8")
    result = runner.invoke(main, ["loop-algebra", "--spec", str(path)])
    assert result.exit_code == 2
    err = json.loads(result.output)["error"]
    assert err["type"] == "SchemaError"
    assert err["message"].startswith(message)


def test_cli_deterministic_reports(runner, tmp_path):
    path = _write(tmp_path, "prod.json", "loopoid", PRODUCT_BODY)
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        result = runner.invoke(
            main, ["loopoid-check", "--spec", path, "--samples", "6", "--seed", "11", "--out", str(out)]
        )
        assert result.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "command, spec, option, value",
    [
        ("lie-functor", "readme_product_loopoid", "--samples", "0"),
        ("lie-functor", "cross_product_algebroid", "--samples", "0"),
        ("octonion", None, "--samples", "0"),
        ("loopoid-check", "readme_product_loopoid", "--samples", "0"),
        ("tangent-check", "readme_product_loopoid", "--samples", "0"),
        ("simulate", "readme_system", "--steps", "0"),
        ("simulate", "readme_system", "--steps", "-1"),
    ],
    ids=["lie-functor", "lie-functor-algebroid", "octonion", "loopoid-check", "tangent-check", "steps-0", "steps-neg"],
)
def test_cli_count_below_one_is_a_usage_error(runner, command, spec, option, value):
    args = [command] + (["--spec", str(EXAMPLES / f"{spec}.json")] if spec else []) + [option, value]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.output
