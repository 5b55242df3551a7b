"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs every operation of the three workloads, built from seed 1, once
against the program and confirms that its check passes, except for the two
kept flow failures, which must still fail.  Then it hands each check
deliberately wrong outputs (a wrong exit code, a report whose verdict is
flipped, a missing output file, and a number or flag changed by more than
the tolerance) and confirms that the check reports every one of them.  It
also confirms that an exit 2 from any operation but a kept failure makes
the run incorrect.  Exits 1 if any wrong output goes unnoticed.
"""

import contextlib
import json
import shutil
import sys
from pathlib import Path

import run  # sets the one-thread environment before numpy loads
from workloads import WORKLOADS

SEED = 1  # one of the seeds the benchmark runs on


def edit_json(path, change):
    def corrupt():
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        change(data)
        Path(path).write_text(json.dumps(data), encoding="utf-8")

    return corrupt


def edit_csv(path, row, col, delta):
    def corrupt():
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        cells = lines[row].split(",")
        cells[col] = repr(float(cells[col]) + delta)
        lines[row] = ",".join(cells)
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    return corrupt


def set_check_value(name, value):
    def change(report):
        for c in report["checks"]:
            if c["name"] == name:
                c["value"] = value

    return change


def add(key, index, delta):
    def change(report):
        report[key][index] += delta

    return change


def set_in_report(key, value):
    def change(report):
        report["report"][key] = value

    return change


def flip_in_report(key):
    def change(report):
        report["report"][key] = not report["report"][key]

    return change


def value_corruptions(op):
    """Wrong values for the outputs of ``op``, each beyond its check's tolerance."""
    command = op.args[0]
    report = op.outputs[-1] if command == "simulate" else op.outputs[0]
    csv = op.outputs[0] if command == "simulate" else (op.outputs[1] if len(op.outputs) > 1 else None)
    if command == "simulate":
        return {"trajectory x1 of the last step +1e-6": edit_csv(csv, -1, 1, 1e-6),
                "trajectory x3 of step 1 +1e-6": edit_csv(csv, 2, 3, 1e-6)}
    if command == "legendre":
        return {"plus[0] +1e-5": edit_json(report, add("plus", 0, 1e-5)),
                "minus[3] +1e-5": edit_json(report, add("minus", 3, 1e-5))}
    if command == "lie-functor":
        return {"first bracket value +1e-4": edit_csv(csv, 1, 3, 1e-4),
                "almost-Lie residual 1e-3": edit_json(report, lambda r: r.update(almost_lie_residual=1e-3))}
    if command == "loopoid-check":
        return {"is_loopoid false": edit_json(report, set_in_report("is_loopoid", False)),
                "left unit residual 1e-6": edit_json(report, set_in_report("left_unit_residual", 1e-6))}
    if command == "tangent-check":
        return {"section-choice residual 1e-5": edit_json(report, set_in_report("section_choice_residual", 1e-5))}
    if command == "loop-algebra":
        def skew(r):
            r["skew_constants"][0][0][1] += 1e-4

        return {"skew constant +1e-4": edit_json(report, skew),
                "CSV constant +1e-4": edit_csv(csv, 1, 3, 1e-4)}
    if command == "verify-finite":
        return {"associative flipped": edit_json(report, flip_in_report("associative")),
                "left inverse property flipped": edit_json(report, flip_in_report("left_inverse_property"))}
    if command == "octonion":
        return {"product coefficient +1e-9": edit_json(report, lambda r: r["product"]["result"].__setitem__(3, r["product"]["result"][3] + 1e-9)),
                "Moufang residual 1e-8": edit_json(report, set_check_value("moufang", 1e-8))}
    raise ValueError(f"no corruptions for {command}")


def selftest_op(main, op):
    """Problems found: a passing check on wrong output, or a failing one on real output."""
    code, stdout, _, error = run.call_cli(main, op)
    if op.kept_failure:
        return [] if code == 2 else [f"{op.name}: expected the kept failure, got exit {code}"]
    if code not in (0, 1):
        return [f"{op.name}: failed with exit {code}: {error or stdout.strip()}"]
    real = op.check(code, stdout)
    if real:
        return [f"{op.name}: check fails on the program's output: {real}"]
    saved = {p: Path(p).read_bytes() for p in op.outputs}
    report = op.outputs[-1] if op.args[0] == "simulate" else op.outputs[0]

    def flip_ok(r):
        r["ok"] = not r["ok"]

    wrong = {
        f"exit code {1 - code}": None,
        "report verdict flipped": edit_json(report, flip_ok),
        "output file missing": lambda: Path(report).unlink(),
        **value_corruptions(op),
    }
    problems = []
    for label, corrupt in wrong.items():
        if corrupt is None:
            caught = op.check(1 - code, stdout)
        else:
            corrupt()
            caught = op.check(code, stdout)
            for p, data in saved.items():
                Path(p).write_bytes(data)
        if not caught:
            problems.append(f"{op.name}: wrong output not caught ({label})")
    return problems


class FailingCli:
    """A CLI whose every command exits 2, as when a verdict is lost."""

    @staticmethod
    def main(**kwargs):
        raise SystemExit(2)


def lost_verdict_caught(op):
    rnd = run.Round()
    run.run_op(FailingCli, op, rnd)
    if not rnd.failed:
        return [f"{op.name}: exit 2 not counted as failed"]
    if bool(rnd.problems) == op.kept_failure:
        return [f"{op.name}: exit 2 {'makes' if op.kept_failure else 'does not make'} the run incorrect"]
    return []


def main():
    sys.path.insert(0, str(run.SRC))
    from loopoid_lab.cli import main as cli_main

    workdir = run.WORK / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    problems = []
    tested = 0
    try:
        for name, workload in WORKLOADS.items():
            for op in workload(SEED, workdir):
                problems += selftest_op(cli_main, op)
                problems += lost_verdict_caught(op)
                tested += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    for line in problems:
        print(line)
    print(f"{tested} operations, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
