"""Verdict benchmark of loopoid-lab.

    python3 perfbench/run.py --workload {flow,functor,finite} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
Every operation is one CLI verdict run in this process through
``loopoid_lab.cli.main``, with BLAS pinned to one thread.  A run repeats
whole rounds of the workload's seeded operation list until ``--seconds``
have passed and its fixed tail percentile has ten verdicts beyond it,
checks every output against ``reference``, and prints one JSON object as
the last line of standard output.

With ``--trace 0`` the metrics are the end-to-end ones: set-up time of a
fresh process, the mean round time, the median and tail time of one
verdict, and peak memory.  An operation that exits 2 or raises is counted
as failed; unless it is one of the workload's kept failures, it also makes
the run incorrect.  With ``--trace 1`` the run times one plain round
and then one traced round, and reports per-layer counts and self times of
the traced round (see ``layertrace``).
"""

import os

# one thread for every BLAS flavour; numpy reads these when it is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 9
TAIL_BEYOND = 10  # verdicts a run has at least beyond its tail percentile


@dataclass
class Round:
    op_times: list = field(default_factory=list)  # wall time of each operation, in list order
    samples: list = field(default_factory=list)  # wall time of each verdict that did not fail
    failed: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("flow", "functor", "finite"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_import(env):
    """Wall time of a fresh interpreter importing the package and its CLI.

    No timeout: with one, subprocess polls the child and rounds the time up.
    """
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import loopoid_lab.cli"], env=env, check=True)
    return perf_counter() - t0


def call_cli(main, op, tracer=None):
    """Run one operation; returns (exit code or None, stdout, seconds, error)."""
    for path in op.outputs:
        Path(path).unlink(missing_ok=True)

    def invoke():
        try:
            main.main(args=op.args, prog_name="loopoid-lab", standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        return 0

    if tracer is not None:
        invoke = tracer.span("cli", "cli.op", invoke)
    out = io.StringIO()
    error = None
    t0 = perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = invoke()
        except Exception as exc:  # an escaped exception is a failed operation
            code, error = None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), perf_counter() - t0, error


def run_op(main, op, rnd, tracer=None):
    code, stdout, seconds, error = call_cli(main, op, tracer)
    rnd.op_times.append(seconds)
    if code is None or code == 2:
        rnd.failed.append(f"{op.name}: {error or stdout.strip()}")
        if not op.kept_failure:
            rnd.problems.append(f"{op.name}: no verdict: {error or stdout.strip()}")
        return
    rnd.samples.append(seconds)
    problems = op.check(code, stdout)
    if problems:
        rnd.problems.append(f"{op.name}: {'; '.join(problems)}")


def run_round(main, ops, tracer=None):
    rnd = Round()
    for op in ops:
        run_op(main, op, rnd, tracer)
    return rnd


def warm_up(main, ops):
    """First operation of each subcommand once, checked but not counted."""
    rnd = Round()
    seen = set()
    for op in ops:
        if op.args[0] not in seen:
            seen.add(op.args[0])
            run_op(main, op, rnd)
    return rnd


def rounds_for_tail(ops, percentile):
    """Fewest rounds that leave TAIL_BEYOND verdicts beyond ``percentile``."""
    verdicts = sum(not op.kept_failure for op in ops)
    samples = -(-100 * TAIL_BEYOND // (100 - percentile))
    return -(-samples // verdicts)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(main, ops, seconds, percentile):
    """Rounds until ``seconds`` have passed and the tail has its samples;
    set-up is timed before each of the first rounds, so that it samples the
    same stretch of time as they do."""
    env = import_env()
    time_import(env)  # fills the bytecode cache
    rounds, setup = [], []
    min_rounds = rounds_for_tail(ops, percentile)
    t0 = perf_counter()
    while len(rounds) < min_rounds or perf_counter() - t0 < seconds:
        if len(setup) < SETUP_RUNS:
            setup.append(time_import(env))
        rounds.append(run_round(main, ops))
    while len(setup) < SETUP_RUNS:
        setup.append(time_import(env))
    samples = [s for r in rounds for s in r.samples]
    if not samples:
        raise SystemExit("every operation failed; no verdict time to report")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.mean(sum(r.op_times) for r in rounds), "s"),
        "verdict_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "verdict_tail_ms": (float(np.percentile(samples, percentile)) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    note = (f"{len(rounds)} rounds ({', '.join(f'{sum(r.op_times):.3f}' for r in rounds)} s), "
            f"{len(samples)} verdict samples, tail = p{percentile}")
    return rounds, metrics, note


def measure_traced(main, ops):
    from layertrace import Tracer

    plain = run_round(main, ops)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_round(main, ops, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    plain_s, traced_s = sum(plain.op_times), sum(traced.op_times)
    metrics["trace.run_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    note = f"plain round {plain_s:.3f} s, traced round {traced_s:.3f} s"
    return [plain, traced], metrics, note


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "loopoid_lab" / "__init__.py").is_file():
        print(f"no program sources at {SRC}; run from the root of a loopoid-lab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from loopoid_lab.cli import main as cli_main
    from workloads import TAIL_PERCENTILE, WORKLOADS

    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = WORKLOADS[args.workload](args.seed, workdir)
        warm = warm_up(cli_main, ops)
        if args.trace:
            rounds, metrics, note = measure_traced(cli_main, ops)
        else:
            rounds, metrics, note = measure(cli_main, ops, args.seconds, TAIL_PERCENTILE[args.workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    problems = warm.problems + [p for r in rounds for p in r.problems]
    failed = [f for r in rounds for f in r.failed]
    print(f"# {args.workload} seed {args.seed}: {len(ops)} operations per round; {note}")
    for name in sorted(set(failed)):
        print(f"# failed in {failed.count(name)} of {len(rounds)} rounds: {name}")
    for line in problems[:20]:
        print(f"# WRONG OUTPUT {line}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
