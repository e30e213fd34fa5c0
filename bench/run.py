"""Seeded benchmark of repcount's `count` command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`.  The workload's cases are generated from the seed and
written as `.alg` files under `.bench_work/`; each one is solved in this
process through the command line's own entry point,
`repcount.cli.main(["count", PATH, "-n", N, "--json"])`, with its output
captured and checked against the workload's oracle.  One process, one
thread, cases one after another.

A pass solves the whole case list once.  The run makes passes until the
next one would end after `--seconds` (always at least one).  Set-up --
importing repcount and generating and writing the case files -- is done
several times before the first pass and its median reported.

`--trace 0` prints the end-to-end metrics; `--trace 1` makes one untraced
pass and then traced passes, and prints the per-layer metrics (see
tracing.py).  Human-readable lines come first; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}.
A case that ends wrong, INCONCLUSIVE or with an exception makes the
command exit 1 after printing it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 11


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_repcount():
    """A fresh import of repcount.cli from the checkout's src/."""
    for name in [m for m in sys.modules if m == "repcount" or m.startswith("repcount.")]:
        del sys.modules[name]
    cli = importlib.import_module("repcount.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError("repcount imported from %s, not from %s" % (cli.__file__, SRC))
    return cli


def set_up(workload: str, seed: int, workdir: Path):
    """Import repcount, generate the cases and write them; returns the time taken."""
    t0 = time.perf_counter()
    cli = import_repcount()
    cases = workloads.generate(workload, seed)
    paths = []
    for index, case in enumerate(cases):
        path = workdir / ("case%02d.alg" % index)
        path.write_text(case.text)
        paths.append(path)
    return time.perf_counter() - t0, cli, cases, paths


def solve(cli, case, path, tracer=None) -> tuple:
    """(seconds, problem or None) for one `count --json` call."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["count", str(path), "-n", str(case.n), "--json"]
    if tracer is not None:
        tracer.trace_id = case.label
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit):
        return (time.perf_counter() - t0,
                "exception: " + traceback.format_exc().strip().splitlines()[-1])
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.flush()
    problem = workloads.check(case, code, out.getvalue())
    if problem and err.getvalue():
        problem += " (stderr: %s)" % err.getvalue().strip().splitlines()[-1]
    return seconds, problem


class Passes:
    """Timings and failures of the passes made in a run."""

    def __init__(self):
        self.walls: list = []
        self.solves: list = []
        self.by_case: dict = {}  # case index -> seconds per pass
        self.failures: list = []

    def run(self, cli, cases, paths, tracer=None) -> float:
        t0 = time.perf_counter()
        for index, (case, path) in enumerate(zip(cases, paths)):
            seconds, problem = solve(cli, case, path, tracer)
            self.solves.append(seconds)
            self.by_case.setdefault(index, []).append(seconds)
            if problem:
                self.failures.append("%s: %s" % (case.label, problem))
        wall = time.perf_counter() - t0
        self.walls.append(wall)
        return wall

    def until(self, deadline: float, cli, cases, paths, tracer=None) -> None:
        """At least one pass, then more while the next one should end in time."""
        while True:
            wall = self.run(cli, cases, paths, tracer)
            if time.perf_counter() + wall > deadline:
                return


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg": " ".join("%.2f" % x for x in os.getloadavg())}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repcount" / "__init__.py").is_file():
        print("bench: no repcount sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=WORK))
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, cli, cases, paths = set_up(args.workload, args.seed, workdir)
            setups.append(seconds)
        deadline = time.perf_counter() + args.seconds
        untraced = Passes()
        traced = Passes()
        tracer = None
        if args.trace:
            untraced.run(cli, cases, paths)
            tracer = tracing.Tracer()
            tracer.install()
            traced.until(deadline, cli, cases, paths, tracer)
        else:
            untraced.until(deadline, cli, cases, paths)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(untraced.solves) + len(traced.solves)
    failures = untraced.failures + traced.failures
    print("bench workload=%s seed=%d seconds=%g trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("env python=%(python)s nproc=%(nproc)s cpu=%(cpu)r loadavg_at_start=%(loadavg)s" % env)
    for index, case in enumerate(cases):
        times = (traced if args.trace else untraced).by_case.get(index, [])
        print("input %s n=%d sha256=%s expect=%s%s solve_s=%s" % (
            case.label, case.n, case.digest(), case.verdict,
            "" if case.count is None else " count=%d" % case.count,
            ",".join("%.3f" % t for t in times)))
    for failure in failures:
        print("FAIL " + failure)
    print("passes untraced=%s traced=%s; fail_frac %.4f (%d of %d cases attempted)" % (
        ",".join("%.3f" % w for w in untraced.walls) or "-",
        ",".join("%.3f" % w for w in traced.walls) or "-",
        len(failures) / attempted, len(failures), attempted))

    if args.trace:
        overhead = statistics.median(traced.walls) - untraced.walls[0]
        metrics = tracing.per_layer_metrics(tracer, len(traced.walls), overhead)
    else:
        metrics = {
            "wall_s": (statistics.median(untraced.walls), "s"),
            "solve_s.p50": (statistics.median(untraced.solves), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        print("solve_s.p50 over %d samples; setup_s median of %d set-ups" % (
            len(untraced.solves), len(setups)))
    for name, (value, unit) in metrics.items():
        print("metric %s = %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
