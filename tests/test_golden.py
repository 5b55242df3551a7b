"""Golden reports: CLI runs on the spec corpus in ``examples/``, compared byte for byte.

Each case runs one subcommand in process through ``cli.main`` and compares
every file it writes, its standard output and its exit code with the
committed copies in ``tests/golden/``.  ``MANIFEST.json`` there holds the
exit code, standard output and written files of every case, and the numpy
and Python versions the goldens were written with.

Re-pin after a deliberate change of output (never from the test itself):

    PYTHONPATH=src python tests/test_golden.py --write

See how a rerun differs from the goldens, field by field (prints nothing and
exits 0 when every case matches):

    PYTHONPATH=src python tests/test_golden.py --diff
"""

import contextlib
import csv
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from loopoid_lab import cli

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"
GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "MANIFEST.json"

LOOPOIDS = ("readme_product_loopoid", "octonion_pair1_loopoid", "prolonged_planar_loopoid", "phi_loopoid")
LOOPS = ("planar_loop", "octonion_loop", "bracket3_loop")
SYSTEMS = ("readme_system", "phi_system")
ALGEBROIDS = ("cross_product_algebroid", "prolonged_algebroid")
FINITE = ("z4_table", "s3_transversal", "signed_basis_semidirect")


def _cases():
    """case name -> (command, spec name or None, further arguments).

    Output files are named relative to the run's directory.
    """
    sim = ["--out", "traj.csv", "--report", "report.json"]
    cases = {}
    for system in SYSTEMS:
        cases[f"simulate-{system}"] = ("simulate", system, ["--steps", "2"] + sim)
        cases[f"legendre-{system}"] = ("legendre", system, ["--seed", "0", "--out", "report.json"])
    # a kept failure: Newton stalls at step 4 and the error report goes to --report
    cases["simulate-readme_system-5-steps"] = ("simulate", "readme_system", ["--steps", "5"] + sim)
    for loopoid in LOOPOIDS:
        cases[f"lie-functor-{loopoid}"] = (
            "lie-functor", loopoid, ["--seed", "0", "--out", "report.json", "--csv", "brackets.csv"]
        )
        for command in ("loopoid-check", "tangent-check"):
            cases[f"{command}-{loopoid}"] = (command, loopoid, ["--seed", "0", "--out", "report.json"])
    for algebroid in ALGEBROIDS:
        cases[f"lie-functor-{algebroid}"] = (
            "lie-functor", algebroid, ["--seed", "0", "--out", "report.json", "--csv", "brackets.csv"]
        )
    for loop in LOOPS:
        cases[f"loop-algebra-{loop}"] = ("loop-algebra", loop, ["--out", "report.json", "--csv", "skew.csv"])
    for table in FINITE:
        cases[f"verify-finite-{table}"] = ("verify-finite", table, ["--out", "report.json"])
    cases["octonion"] = (
        "octonion", None, ["--samples", "2000", "--seed", "0", "--mul", "e1+2e3", "e4", "--out", "report.json"]
    )
    return cases


CASES = _cases()
OUTPUT_NAMES = {"report.json", "traj.csv", "brackets.csv", "skew.csv"}


def run_case(name, workdir):
    """Run one case in ``workdir``; returns (exit code, stdout, {file written: bytes})."""
    command, spec, args = CASES[name]
    argv = [command] + (["--spec", str(EXAMPLES / f"{spec}.json")] if spec else [])
    argv += [str(Path(workdir) / a) if a in OUTPUT_NAMES else a for a in args]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            cli.main.main(args=argv, prog_name="loopoid-lab", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code
    written = [Path(workdir) / a for a in args if a in OUTPUT_NAMES]
    files = {path.name: path.read_bytes() for path in written if path.exists()}
    return code, out.getvalue(), files


def golden_path(name, fname):
    return GOLDEN / f"{name}.{fname}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    want = manifest["cases"][name]
    code, stdout, files = run_case(name, tmp_path)
    context = f"goldens written with numpy {manifest['numpy']}, running numpy {np.__version__}"
    assert code == want["exit"], context
    assert stdout == want["stdout"], context
    assert sorted(files) == want["files"], context
    for fname, data in files.items():
        assert data == golden_path(name, fname).read_bytes(), f"{name}: {fname} differs; {context}"


def write_goldens():
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    cases = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as workdir:
            code, stdout, files = run_case(name, workdir)
        for fname, data in files.items():
            golden_path(name, fname).write_bytes(data)
        cases[name] = {"exit": code, "stdout": stdout, "files": sorted(files)}
    manifest = {"numpy": np.__version__, "python": platform.python_version(), "cases": cases}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN}")


def _leaves(obj, path=""):
    """(path, value) of each leaf of a parsed report, in order.  A list entry
    is labelled by its ``name`` when it has one, so the entries of a numeric
    array share one path: the field they belong to."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for value in obj:
            label = value.get("name", "") if isinstance(value, dict) else ""
            yield from _leaves(value, f"{path}[{label}]")
    else:
        yield path, obj


def _csv_leaves(text):
    """(column, value) of each cell below the header, numbers as floats."""
    for row in csv.DictReader(io.StringIO(text)):
        for column, cell in row.items():
            try:
                yield column, float(cell)
            except ValueError:
                yield column, cell


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def field_changes(fname, old, new):
    """Lines naming each field of the file ``fname`` whose values differ
    between the bytes ``old`` and ``new``: the largest absolute and relative
    change of a numeric field, the first old and new value of any other."""
    parse = _csv_leaves if fname.endswith(".csv") else lambda text: _leaves(json.loads(text))
    old, new = list(parse(old.decode("utf-8"))), list(parse(new.decode("utf-8")))
    if [path for path, _ in old] != [path for path, _ in new]:
        return ["fields differ"]
    changes = {}  # path -> line
    largest = {}  # path of a numeric field -> (largest absolute change, largest relative change)
    for (path, a), (_, b) in zip(old, new):
        if a == b or (path in changes and path not in largest):
            continue
        if _is_number(a) and _is_number(b):
            was = largest.get(path, (0.0, 0.0))
            change = abs(b - a)
            largest[path] = (max(was[0], change), max(was[1], change / abs(a) if a else math.inf))
            changes[path] = f"{path}: largest change {largest[path][0]:.3e} absolute, {largest[path][1]:.3e} relative"
        else:
            largest.pop(path, None)
            changes[path] = f"{path}: {a!r} -> {b!r}"
    return [changes[path] for path in sorted(changes)] or ["bytes differ, fields equal"]


def diff_goldens(golden=GOLDEN):
    """Rerun every case of the manifest in ``golden`` and return one line per
    difference from its pinned results; an empty list when all match."""
    manifest = json.loads((golden / "MANIFEST.json").read_text(encoding="utf-8"))
    lines = []
    for name, want in sorted(manifest["cases"].items()):
        with tempfile.TemporaryDirectory() as workdir:
            code, stdout, files = run_case(name, workdir)
        if code != want["exit"]:
            lines.append(f"{name}: exit code {want['exit']} -> {code}")
        if stdout != want["stdout"]:
            lines.append(f"{name}: stdout {want['stdout']!r} -> {stdout!r}")
        if sorted(files) != want["files"]:
            lines.append(f"{name}: files {want['files']} -> {sorted(files)}")
        for fname in sorted(set(files) & set(want["files"])):
            pinned = (golden / f"{name}.{fname}").read_bytes()
            if files[fname] != pinned:
                lines += [f"{name}: {fname} {line}" for line in field_changes(fname, pinned, files[fname])]
    return lines


def test_diff_names_a_float_one_ulp_off(tmp_path):
    name = "loop-algebra-planar_loop"
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    manifest["cases"] = {name: manifest["cases"][name]}
    (tmp_path / "MANIFEST.json").write_text(json.dumps(manifest), encoding="utf-8")
    (tmp_path / f"{name}.skew.csv").write_bytes(golden_path(name, "skew.csv").read_bytes())
    report = json.loads(golden_path(name, "report.json").read_text(encoding="utf-8"))
    value = report["skew_constants"][0][0][1]
    report["skew_constants"][0][0][1] = float(np.nextafter(value, np.inf))
    (tmp_path / f"{name}.report.json").write_text(json.dumps(report), encoding="utf-8")
    ulp = float(np.spacing(value))
    assert diff_goldens(tmp_path) == [
        f"{name}: report.json skew_constants[][][]: largest change {ulp:.3e} absolute, {ulp / value:.3e} relative"
    ]


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write_goldens()
    elif sys.argv[1:] == ["--diff"]:
        changes = diff_goldens()
        for line in changes:
            print(line)
        sys.exit(1 if changes else 0)
    else:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write | --diff")
