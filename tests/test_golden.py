"""Golden reports: CLI runs on the spec corpus in ``examples/``, compared byte for byte.

Each case runs one subcommand in process through ``cli.main`` and compares
every file it writes, its standard output and its exit code with the
committed copies in ``tests/golden/``.  ``MANIFEST.json`` there holds the
exit code, standard output and written files of every case, and the numpy
and Python versions the goldens were written with.

Re-pin after a deliberate change of output (never from the test itself):

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
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
    """case name -> (command, spec name, arguments after ``--spec``).

    Output files are named relative to the run's directory.
    """
    sim = ["--out", "traj.csv", "--report", "report.json"]
    cases = {}
    for system in SYSTEMS:
        cases[f"simulate-{system}"] = ("simulate", system, ["--steps", "2"] + sim)
        cases[f"legendre-{system}"] = ("legendre", system, ["--seed", "0", "--out", "report.json"])
    # a kept failure: Newton stalls at step 3 and the error report goes to --report
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
    return cases


CASES = _cases()
OUTPUT_NAMES = {"report.json", "traj.csv", "brackets.csv", "skew.csv"}


def run_case(name, workdir):
    """Run one case in ``workdir``; returns (exit code, stdout, {file written: bytes})."""
    command, spec, args = CASES[name]
    argv = [command, "--spec", str(EXAMPLES / f"{spec}.json")]
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    write_goldens()
