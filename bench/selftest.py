"""Self-tests of the benchmark itself (not collected by the package's pytest).

    python3 bench/selftest.py            # from the root of the checkout

Covers the seeded input generator, the tracer's wrapping and restoring of
the package callables, BENCHMARK.json against the metrics run.py reports,
a quick (reduced-size) run of every workload in both modes, and the
refusal to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

import numpy as np

import run
from tracer import TARGETS, Tracer
from workload_inputs import lattice_field, permuted_csv, write_lattice_csv

SCRATCH = os.path.join(run.WORK, "selftest")
RUN_PY = os.path.join(run.BENCH_DIR, "run.py")


def setUpModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)


def tearDownModule():
    shutil.rmtree(run.WORK, ignore_errors=True)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def last_json_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class GeneratorTest(unittest.TestCase):
    def test_lattice_is_deterministic_per_seed(self):
        paths = [os.path.join(SCRATCH, f"lattice{i}.csv") for i in range(3)]
        for path, seed in zip(paths, (4, 4, 5)):
            write_lattice_csv(path, seed, p=12, q=9)
        self.assertEqual(read(paths[0]), read(paths[1]))
        self.assertNotEqual(read(paths[0]), read(paths[2]))

    def test_no_lattice_row_or_column_is_empty(self):
        for seed in range(20):
            x, y, z, present = lattice_field(seed, p=6, q=5, missing=0.6)
            self.assertTrue(present.any(axis=1).all() and present.any(axis=0).all())
            self.assertEqual(len(z), present.sum())
            self.assertEqual(present.size - present.sum(), round(0.6 * 30))

    def test_permuted_csv_keeps_every_row(self):
        out = [os.path.join(SCRATCH, f"coal{i}.csv") for i in range(2)]
        order = permuted_csv(run.COAL, out[0], 9)
        permuted_csv(run.COAL, out[1], 9)
        self.assertEqual(read(out[0]), read(out[1]))
        with open(run.COAL) as src, open(out[0]) as dst:
            original = src.read().splitlines()
            permuted = dst.read().splitlines()
        self.assertEqual(permuted[0], original[0])
        self.assertEqual(permuted[1:], [original[1:][i] for i in order])
        self.assertNotEqual(list(order), sorted(order))


class TracerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.pk = run.import_package()
        cls.grid = cls.pk.to_grid(cls.pk.load_observations_csv(run.COAL))

    def snapshot(self):
        modules = {name: dict(vars(m)) for name, m in sys.modules.items()
                   if name == "polishkrige" or name.startswith("polishkrige.")}
        classes = {cls: dict(vars(cls)) for cls in (self.pk.KrigingSystem, self.pk.GridTable)}
        return modules, classes

    def test_wrappers_restore_the_originals(self):
        before = self.snapshot()
        tracer = Tracer()
        with tracer:
            import polishkrige.predictor as predictor

            self.assertIsNot(predictor.fit_variogram, before[0]["polishkrige.kriging"]["fit_variogram"])
            self.assertIs(predictor.fit_variogram, self.pk.kriging.fit_variogram)
            self.assertIs(self.pk.fit, predictor.fit)
        self.assertEqual(tracer.absent, [])
        after = self.snapshot()
        for name, attrs in before[0].items():
            for key, value in attrs.items():
                self.assertIs(after[0][name][key], value, f"{name}.{key}")
        for cls, attrs in before[1].items():
            self.assertEqual(set(vars(cls)), set(attrs))
            for key, value in attrs.items():
                self.assertIs(vars(cls)[key], value, f"{cls.__name__}.{key}")

    def test_missing_name_is_reported_absent(self):
        targets = TARGETS + (("kriging", "no_such_solver", "kriging.no_such_solver", None),
                             ("kriging", "NoSuchClass.solve", "kriging.NoSuchClass", None))
        tracer = Tracer(targets)
        with tracer:
            self.pk.fit(self.grid, "mpk")
        self.assertEqual(tracer.absent, ["kriging.no_such_solver", "kriging.NoSuchClass"])
        self.assertEqual(tracer.per_layer_metrics(0.0)["trace.absent"], 2.0)

    def test_spans_nest_and_traced_results_match(self):
        node = self.grid.lattice.node(3, 4)
        plain = self.pk.predict(self.pk.fit(self.grid.drop_cell(3, 4), "impk"), node)
        tracer = Tracer()
        with tracer:
            traced = self.pk.predict(self.pk.fit(self.grid.drop_cell(3, 4), "impk"), node)
        self.assertEqual(plain, traced)

        labels = [s.label for s in tracer.spans]
        fit_index = labels.index("predictor.fit")
        for label in ("median_polish.decompose", "kriging.fit_variogram",
                      "kriging.KrigingSystem", "mean_surface.biharmonic_fit"):
            self.assertEqual(tracer.spans[labels.index(label)].parent, fit_index, label)
        own = tracer.self_times()
        fit_span = tracer.spans[fit_index]
        children = sum(s.end - s.start for s in tracer.spans if s.parent == fit_index)
        self.assertAlmostEqual(own[fit_index], fit_span.end - fit_span.start - children)
        self.assertTrue(all(t >= 0 for t in own))


class BenchmarkJsonTest(unittest.TestCase):
    def test_metrics_match_what_run_reports(self):
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(spec["command"], ["python3", "bench/run.py"])


class QuickRunTest(unittest.TestCase):
    def run_bench(self, *args, cwd="."):
        return subprocess.run([sys.executable, os.path.abspath(RUN_PY), *args],
                              capture_output=True, text=True, cwd=cwd, timeout=600)

    def test_every_workload_once_in_both_modes(self):
        for trace, names in (("0", run.END_TO_END_UNITS), ("1", run.PER_LAYER_UNITS)):
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = self.run_bench("--workload", workload, "--seed", "3", "--quick",
                                          "--seconds", "1", "--trace", trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = last_json_line(proc.stdout)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(list(result["metrics"]), list(names))
                    for name, metric in result["metrics"].items():
                        self.assertEqual(metric["unit"], names[name])

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.copytree(run.BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        proc = self.run_bench("--workload", "cv-coal", "--seed", "1", "--seconds", "1",
                              "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
