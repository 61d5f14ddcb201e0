"""polishkrige benchmark: end-to-end timings through the CLI, per-layer traces
in-process.

    python3 bench/run.py --workload cv-coal --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all          # every workload, one summary

Run it from the root of a polishkrige checkout; the package is taken from
./src and the coal-ash survey from ./data.  Scratch files go to
./.bench_work and are removed at the end.

With --trace 0 each workload drives the CLI in child processes, one at a
time, and reports the end-to-end metrics.  With --trace 1 it runs the same
CLI commands in this process twice, untraced and then traced (see
tracer.py), checks that both passes write byte-identical files, and
reports the per-layer metrics.  Either way the outputs are checked, and the
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Lines before it are a human-readable summary.  `python3 bench/selftest.py`
tests the benchmark itself.

Workloads (why each exists is recorded in BENCHMARK.json):
  cv-coal        cv --both under each variogram family on the coal-ash
                 survey with seeded row order: 6 reports x 208 folds.
  surface-coal   fit impk on the coal-ash survey (prep), then a 400 x 400
                 surface with PGM output from one factorization.
  lattice-scale  seeded 60 x 60 lattice with 10% missing cells: a global
                 impk fit, then a k=16 neighbourhood surface of 100 x 100.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads, here and in every child, so
# figures do not depend on how busy the other core of a small machine is.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import filecmp  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

from tracer import PER_LAYER_UNITS, Tracer  # noqa: E402
from workload_inputs import permuted_csv, write_lattice_csv  # noqa: E402

SRC = "src"
COAL = os.path.join("data", "coal_ash.csv")
WORK = ".bench_work"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
FAMILIES = ("spherical", "exponential", "gaussian")
METHODS = ("mpk", "impk")
# set-up samples per run, spread between the timed passes so the median
# spans the whole run rather than one moment of a shared machine
PROBES = 3
SPOT_CHECKS = 64
# LOOCV RMSE on the coal-ash survey at the commit that defined this
# benchmark (mpk, impk); a change may improve a figure but not worsen it
# past the third decimal.
RMSE_TABLE = {
    "spherical": (1.579, 1.377),
    "exponential": (1.594, 1.373),
    "gaussian": (1.700, 1.516),
}
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def child_env():
    env = dict(os.environ)
    src = os.path.abspath(SRC)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Step:
    """One CLI command of a workload; ops counts its work units."""

    phase: str
    argv: list
    ops: int = 0


@dataclass
class Plan:
    """What a workload runs, given the directory its outputs go to."""

    setup: tuple  # (kind, path) for setup_child.py
    prep: list  # argv lists run once, untimed
    fit: object  # fit(out_dir) -> argv of the workload's CLI fit, run once
    steps: object  # steps(out_dir) -> the Steps timed as one pass
    check: object  # check(run, package, out_dir, stdout by phase) -> None


@dataclass
class Run:
    """Counters and samples of one benchmark run of one workload."""

    workload: str
    seed: int
    quick: bool
    work: str
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def check(self, ok, what):
        """Count one output check; a failure is recorded with its reason."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return bool(ok)

    def sample(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    def rng(self, stream):
        return np.random.default_rng([self.seed, stream])


# ---------------------------------------------------------------- runners


class ChildRunner:
    """Runs CLI commands and set-up probes in child processes, one at a
    time, measuring each one's wall time and its own peak RSS (from
    os.wait4, not RUSAGE_CHILDREN, which keeps the maximum over every child
    ever waited for)."""

    def __init__(self, run):
        self.run = run
        self.env = child_env()

    def python(self, argv, timed=True):
        """Run `python3 argv...`; returns (seconds, ok, stdout).  The peak RSS
        of a timed child is a peak_rss_mb sample."""
        out_path = self.run.path("child.out")
        err_path = self.run.path("child.err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err,
                                    env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read().strip()
        ok = self.run.check(proc.returncode == 0,
                            f"{' '.join(argv[:4])}: exit {proc.returncode}: {stderr[-300:]}")
        if timed:
            self.run.sample("peak_rss_mb", usage.ru_maxrss / 1024.0)
        return seconds, ok, stdout

    def cli(self, argv, timed=True):
        return self.python(["-m", "polishkrige", *argv], timed)


class InProcessRunner:
    """Runs CLI commands through polishkrige.cli.main in this process."""

    def __init__(self, run, cli):
        self.run = run
        self.cli_main = cli.main

    def cli(self, argv):
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli_main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        ok = self.run.check(code == 0, f"{' '.join(argv[:2])}: {code}")
        return seconds, ok, buf.getvalue()


def import_package():
    """Import polishkrige from ./src and confirm that is where it came from."""
    if os.path.abspath(SRC) not in sys.path:
        sys.path.insert(0, os.path.abspath(SRC))
    import polishkrige
    import polishkrige.cli

    origin = os.path.dirname(os.path.abspath(polishkrige.__file__))
    if origin != os.path.join(os.path.abspath(SRC), "polishkrige"):
        raise RuntimeError(f"polishkrige imported from {origin}, not from ./src")
    return polishkrige


# ------------------------------------------------------------------ checks


def read_rows(path, columns):
    """Numeric rows of a CSV with a header; None if unreadable or ragged."""
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError):
        return None
    return rows if rows.shape[1] == columns else None


def check_grid_csvs(run, pk, model_path, value_csv, variance_csv, shape):
    """Rows, finiteness, layout and a seeded spot-check of a surface output
    against in-process predict_many on the same model."""
    p_out, q_out = shape
    values = read_rows(value_csv, 3)
    variances = read_rows(variance_csv, 3)
    if not run.check(values is not None and variances is not None
                     and len(values) == len(variances) == p_out * q_out,
                     f"{value_csv}: expected {p_out * q_out} rows in both CSVs"):
        return
    run.check(np.isfinite(values).all() and np.isfinite(variances).all(),
              f"{value_csv}: non-finite entries")
    run.check((variances[:, 2] >= 0).all(), f"{variance_csv}: negative variance")

    model = pk.load_model(model_path)
    src = model.source_grid.lattice
    xs = np.linspace(src.x_coords[0], src.x_coords[-1], q_out)
    ys = np.linspace(src.y_coords[0], src.y_coords[-1], p_out)
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel()])
    run.check(np.abs(values[:, :2] - points).max() <= 1e-6,
              f"{value_csv}: x,y do not follow the row-major output lattice")

    rows = np.sort(run.rng(4).choice(len(points), size=min(SPOT_CHECKS, len(points)),
                                     replace=False))
    pred, var = pk.predict_many(model, points[rows])
    worst = max(np.abs(values[rows, 2] - pred).max(), np.abs(variances[rows, 2] - var).max())
    run.check(worst <= 1e-6,
              f"{value_csv}: spot-check differs from predict_many by {worst:.3g}")


def read_cv_report(path):
    """(per-point rows, value of the final RMSE line) of a `cv --out`
    report; (None, None) if it is missing or malformed."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]],
                        ndmin=2)
        tag, _, value = lines[-1].split(",")
        return rows, (float(value) if tag == "RMSE" else None)
    except (OSError, ValueError, IndexError):
        return None, None


def parse_comparison(text):
    """{METHOD: (rmse, folds, skipped)} from `cv --both` standard output."""
    out = {}
    for line in text.splitlines()[1:]:
        parts = line.split(",")
        if len(parts) == 4:
            out[parts[0].lower()] = (float(parts[1]), int(parts[2]), int(parts[3]))
    return out


def check_cv(run, pk, out_dir, stdouts, families):
    """Fold counts, RMSE consistency and the RMSE table, plus seeded folds
    refitted in-process on the survey in its original row order."""
    grid = pk.to_grid(pk.load_observations_csv(COAL))
    cells = list(zip(*np.nonzero(grid.present_mask)))
    rng = run.rng(5)
    table = []
    for family in families:
        summary = parse_comparison(stdouts.get(f"cv-{family}", ""))
        for j, method in enumerate(METHODS):
            rmse, folds, skipped = summary.get(method, (float("nan"), 0, -1))
            run.attempted += len(cells)
            run.failed += len(cells) - folds
            run.check(folds == len(cells) and skipped == 0,
                      f"cv {method} {family}: {folds} folds, {skipped} skipped")
            rows, report_rmse = read_cv_report(
                os.path.join(out_dir, f"cv_{family}.{method}.csv"))
            if not run.check(rows is not None and rows.shape == (len(cells), 5)
                             and report_rmse == rmse,
                             f"cv {method} {family}: malformed per-point report"):
                continue
            recomputed = float(np.sqrt(np.mean(rows[:, 4] ** 2)))
            run.check(abs(recomputed - rmse) <= 2e-6,
                      f"cv {method} {family}: RMSE line {rmse} vs records {recomputed}")
            limit = RMSE_TABLE[family][j]
            run.check(rmse <= limit + 5e-4,
                      f"cv {method} {family}: RMSE {rmse:.6f} worse than {limit:.3f}")
            table.append(f"{method}.{family}={rmse:.6f}")
            for i in rng.choice(len(cells), size=2, replace=False):
                k, l = cells[i]
                model = pk.fit(grid.drop_cell(k, l), method, pk.FitConfig(family=family))
                node = grid.lattice.node(k, l)
                pred = pk.predict(model, node).value
                run.check(abs(rows[i, 0] - node.x) <= 1e-6 and abs(rows[i, 1] - node.y) <= 1e-6
                          and abs(rows[i, 3] - pred) <= 1e-6,
                          f"cv {method} {family}: fold {i} differs from an in-process refit")
    run.notes.append("LOOCV RMSE: " + " ".join(table))


# --------------------------------------------------------------- workloads


def plan_cv_coal(run):
    csv_path = run.path("coal.csv")
    permuted_csv(COAL, csv_path, run.seed)
    families = FAMILIES[:1] if run.quick else FAMILIES
    n_folds = int(np.isfinite(np.loadtxt(COAL, delimiter=",", skiprows=1)[:, 2]).sum())

    def steps(out):
        return [Step(f"cv-{f}", ["cv", csv_path, "--both", "--variogram", f,
                                 "--out", os.path.join(out, f"cv_{f}.csv")],
                     len(METHODS) * n_folds) for f in families]

    def check(run, pk, out, stdouts):
        check_cv(run, pk, out, stdouts, families)

    return Plan(
        setup=("csv", csv_path),
        prep=[],
        fit=lambda out: ["fit", csv_path, "--method", "impk",
                         "--out", os.path.join(out, "coal.model")],
        steps=steps,
        check=check,
    )


def plan_surface_coal(run):
    csv_path = run.path("coal.csv")
    permuted_csv(COAL, csv_path, run.seed)
    model = run.path("coal.model")
    shape = (40, 60) if run.quick else (400, 400)
    resolution = f"{shape[0]}x{shape[1]}"

    def steps(out):
        return [Step("surface", ["surface", model, "--resolution", resolution, "--pgm",
                                 "--out", os.path.join(out, "surface.csv")],
                     shape[0] * shape[1])]

    def check(run, pk, out, stdouts):
        check_grid_csvs(run, pk, model, os.path.join(out, "surface.csv"),
                        os.path.join(out, "surface_variance.csv"), shape)
        for name in ("surface.pgm", "surface_variance.pgm"):
            try:
                with open(os.path.join(out, name)) as fh:
                    head = [fh.readline().strip() for _ in range(3)]
            except OSError:
                head = []
            run.check(head == ["P2", f"{shape[1]} {shape[0]}", "255"],
                      f"{name}: bad PGM header {head}")

    fit = ["fit", csv_path, "--method", "impk"]
    return Plan(
        setup=("model", model),
        prep=[fit + ["--out", model]],
        fit=lambda out: fit + ["--out", os.path.join(out, "refit.model")],
        steps=steps,
        check=check,
    )


def plan_lattice_scale(run):
    csv_path = run.path("lattice.csv")
    side, k, shape = (20, 8, (20, 20)) if run.quick else (60, 16, (100, 100))
    present = write_lattice_csv(csv_path, run.seed, p=side, q=side)
    knn_model = run.path("knn.model")
    resolution = f"{shape[0]}x{shape[1]}"
    fit = ["fit", csv_path, "--method", "impk", "--variogram", "exponential"]

    def steps(out):
        return [Step("surface", ["surface", knn_model, "--resolution", resolution,
                                 "--out", os.path.join(out, "knn.csv")],
                     shape[0] * shape[1])]

    def check(run, pk, out, stdouts):
        global_model = os.path.join(out, "global.model")
        n = pk.load_model(global_model).source_grid.n_present
        run.check(n == int(present.sum()), f"{global_model}: reload gave {n} cells")
        check_grid_csvs(run, pk, knn_model, os.path.join(out, "knn.csv"),
                        os.path.join(out, "knn_variance.csv"), shape)

    return Plan(
        setup=("csv", csv_path),
        prep=[fit + ["--neighborhood", str(k), "--out", knn_model]],
        fit=lambda out: fit + ["--out", os.path.join(out, "global.model")],
        steps=steps,
        check=check,
    )


WORKLOADS = {
    "cv-coal": plan_cv_coal,
    "surface-coal": plan_surface_coal,
    "lattice-scale": plan_lattice_scale,
}


# ------------------------------------------------------------------ modes


def check_outputs(run, plan, pk, out, stdouts):
    """Run a workload's output checks; a check that raises is one failure."""
    try:
        plan.check(run, pk, out, stdouts)
    except Exception as exc:  # noqa: BLE001 - a broken program must not stop the report
        run.check(False, f"output check raised {type(exc).__name__}: {exc}")


def timed_run(run, plan, seconds):
    """End-to-end metrics: every command a child process, one at a time.

    The workload's CLI fit runs once first.  Then whole passes over the
    steps repeat until the steps have run for `seconds`, with a set-up probe
    (setup_child.py in a fresh interpreter) before each step and after the
    last, topped up to PROBES probes.
    """
    runner = ChildRunner(run)
    for argv in plan.prep:
        runner.cli(argv, timed=False)
    out = run.path("out")
    os.makedirs(out)
    runner.cli(plan.fit(out))
    setup = [os.path.join(BENCH_DIR, "setup_child.py"), *plan.setup]
    probes = 0

    def probe():
        nonlocal probes
        probes += 1
        _, ok, stdout = runner.python(setup, timed=False)
        if ok:
            run.sample("setup_s", float(stdout))

    measured = 0.0
    stdouts = {}
    while True:
        spent = ops = 0
        for step in plan.steps(out):
            probe()
            secs, ok, stdout = runner.cli(step.argv)
            spent += secs
            ops += step.ops if ok else 0
            stdouts[step.phase] = stdout
        run.sample("ops_per_s", ops / spent)
        measured += spent
        if measured >= seconds:
            break
    probe()
    while probes < PROBES:
        probe()

    check_outputs(run, plan, import_package(), out, stdouts)
    pick = {"peak_rss_mb": max}
    return {name: (pick.get(name, statistics.median)(run.samples.get(name, [0.0])), unit)
            for name, unit in END_TO_END_UNITS.items()}


def traced_run(run, plan):
    """Per-layer metrics: the same commands in-process, untraced then traced."""
    pk = import_package()
    runner = InProcessRunner(run, pk.cli)
    for argv in plan.prep:
        runner.cli(argv)

    def one_pass(out, tracer=None):
        os.makedirs(out)
        stdouts = {}
        steps = [Step("fit", plan.fit(out))] + plan.steps(out)
        t0 = time.perf_counter()
        for step in steps:
            if tracer is not None:
                tracer.phase = step.phase
            stdouts[step.phase] = runner.cli(step.argv)[2]
        return time.perf_counter() - t0, stdouts

    plain_s, _ = one_pass(run.path("plain"))
    tracer = Tracer()
    with tracer:
        traced_s, stdouts = one_pass(run.path("traced"), tracer)

    same, differ, missing = filecmp.cmpfiles(
        run.path("plain"), run.path("traced"), sorted(os.listdir(run.path("plain"))),
        shallow=False)
    run.check(not differ and not missing and same,
              f"traced outputs differ from untraced ones: {differ + missing}")
    check_outputs(run, plan, pk, run.path("traced"), stdouts)

    for phase in dict.fromkeys(s.phase for s in tracer.spans):
        totals = sorted(tracer.layer_totals(phase).items(), key=lambda kv: -kv[1][1])
        top = ", ".join(f"{label} {secs:.3f} s/{calls}" for label, (calls, secs) in totals[:4])
        run.notes.append(f"phase {phase}: largest self time: {top}")
    if tracer.absent:
        run.notes.append("absent callables: " + ", ".join(tracer.absent))
    if tracer.uncounted:
        run.notes.append("uncounted callables: " + ", ".join(sorted(tracer.uncounted)))
    metrics = tracer.per_layer_metrics(traced_s - plain_s)
    return {name: (metrics[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def blas_threads():
    """Threads numpy's bundled OpenBLAS uses, or None if it cannot be asked."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                return getattr(lib, name)()
    return None


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"scipy {scipy.__version__}, cpu_count {os.cpu_count()}, "
            f"affinity {len(os.sched_getaffinity(0))}, blas {blas.get('name')} "
            f"{blas.get('version')} with {blas_threads()} thread(s) "
            f"({BLAS_THREADS} requested), one client process")


def run_workload(name, seed, seconds, trace, quick):
    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run(name, seed, quick, work)
    try:
        plan = WORKLOADS[name](run)
        metrics = traced_run(run, plan) if trace else timed_run(run, plan, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return run, metrics


def summary_lines(run, metrics):
    lines = [f"[{run.workload}] seed {run.seed}"]
    for name, (value, unit) in metrics.items():
        n = len(run.samples.get(name, []))
        lines.append(f"  {name} = {value:.6g} {unit}" + (f" (n={n})" if n else ""))
    lines.append(f"  fail_ratio = {run.failed / max(run.attempted, 1):.6g} "
                 f"({run.failed} of {run.attempted} operations)")
    lines += [f"  {note}" for note in run.notes]
    lines += [f"  FAILED: {problem}" for problem in run.problems]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed CLI work per run; whole passes repeat until it is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes, for the benchmark's self-tests")
    args = parser.parse_args(argv)

    needed = [os.path.join(SRC, "polishkrige", "__init__.py"), COAL]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        print(f"bench: {', '.join(missing)} not found; run from the root of a "
              "polishkrige checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(environment())
    results = []
    for name in names:
        run, metrics = run_workload(name, args.seed, args.seconds, args.trace, args.quick)
        print("\n".join(summary_lines(run, metrics)), flush=True)
        results.append((run, metrics))
    shutil.rmtree(WORK, ignore_errors=True)

    prefix = len(names) > 1
    result = {
        "correct": all(run.failed == 0 for run, _ in results),
        "attempted": sum(run.attempted for run, _ in results),
        "failed": sum(run.failed for run, _ in results),
        "metrics": {(f"{run.workload}/{name}" if prefix else name):
                    {"value": value, "unit": unit}
                    for run, metrics in results for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
