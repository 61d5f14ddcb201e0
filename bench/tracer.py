"""In-process span tracer for the polishkrige layers.

`Tracer.install()` replaces each traced callable with a timing wrapper in
every loaded ``polishkrige`` module namespace that holds it (so calls made
through ``from .kriging import fit_variogram`` are seen too), and the
traced methods on their classes; `Tracer.uninstall()` puts the originals
back.  A name that no longer exists is reported as absent instead of
failing, so the benchmark survives refactors of the package.

Each call records a span (name, phase, parent, start, end) plus counts
computed from argument and result sizes.  Self time is a span's duration
minus the durations of its direct children.  A counter hook that cannot
read its call (say, after a signature change) leaves that call uncounted
and names the callable in `uncounted`.
"""

from __future__ import annotations

import functools
import os
import sys
import time

import numpy as np


def _n(scatter):
    return int(scatter.n)


def _pairs(args, kwargs, result):
    n = _n(args[0])
    return {"pairs": n * (n - 1) // 2}


def _krige_init(args, kwargs, result):
    system = args[0]
    n = _n(system.scatter) + 1
    return {"gflop": 2.0 / 3.0 * n**3 / 1e9, "rcond": float(system.rcond)}


def _krige_predict(args, kwargs, result):
    system = args[0]
    m = len(np.atleast_2d(np.asarray(args[1], dtype=np.float64)))
    return {"targets": m, "rhs_mb": 8.0 * (_n(system.scatter) + 1) * m / 1e6}


def _spline_fit(args, kwargs, result):
    values = np.asarray(args[1], dtype=np.float64)
    n = len(values.ravel())
    return {"gflop": 0.0 if np.all(values == 0) else 2.0 / 3.0 * n**3 / 1e9}


def _points(args, kwargs, result):
    return {"points": len(np.atleast_2d(np.asarray(args[1])))}


def _polish(args, kwargs, result):
    return {"sweeps": result.sweeps, "converged": bool(result.converged)}


def _cv(args, kwargs, result):
    return {"folds": result.n_folds, "skipped": len(result.skipped),
            "rmse": result.rmse, "key": f"{result.method}.{result.config.family}"}


def _saved(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _lines(args, kwargs, result):
    return {"bytes": sum(len(line) + 1 for line in result)}


# (defining module, attribute path, metric label, counter hook)
TARGETS = (
    ("spatial_core", "load_observations_csv", "spatial_core.load_observations_csv", None),
    ("spatial_core", "to_grid", "spatial_core.to_grid", None),
    ("spatial_core", "GridTable.drop_cell", "spatial_core.drop_cell", None),
    ("median_polish", "decompose", "median_polish.decompose", _polish),
    ("kriging", "empirical_semivariogram", "kriging.empirical_semivariogram", _pairs),
    ("kriging", "fit_variogram", "kriging.fit_variogram", None),
    ("kriging", "KrigingSystem.__init__", "kriging.KrigingSystem", _krige_init),
    ("kriging", "KrigingSystem.predict_many", "kriging.KrigingSystem.predict_many",
     _krige_predict),
    ("kriging", "ok_predict", "kriging.ok_predict", None),
    ("mean_surface", "biharmonic_fit", "mean_surface.biharmonic_fit", _spline_fit),
    ("mean_surface", "biharmonic_eval_many", "mean_surface.biharmonic_eval_many", _points),
    ("mean_surface", "linear_mean_many", "mean_surface.linear_mean_many", None),
    ("predictor", "fit", "predictor.fit", None),
    ("predictor", "loocv", "predictor.loocv", _cv),
    ("predictor", "predict_grid", "predictor.predict_grid", None),
    ("model_io", "save_model", "model_io.save_model", _saved),
    ("model_io", "load_model", "model_io.load_model", None),
    ("cli", "grid_csv_lines", "cli.grid_csv_lines", _lines),
    ("cli", "pgm_lines", "cli.pgm_lines", None),
)

CV_KEYS = tuple(f"{m}.{f}" for m in ("mpk", "impk")
                for f in ("spherical", "exponential", "gaussian"))

# per-layer metric name -> unit, in report order
PER_LAYER_UNITS = {
    "spatial_core.load_observations_csv.s": "s",
    "spatial_core.to_grid.s": "s",
    "spatial_core.drop_cell.calls": "count",
    "median_polish.decompose.calls": "count",
    "median_polish.decompose.self_s": "s",
    "median_polish.decompose.sweeps_mean": "count",
    "median_polish.decompose.converged_ratio": "ratio",
    "kriging.fit_variogram.calls": "count",
    "kriging.fit_variogram.self_s": "s",
    "kriging.empirical_semivariogram.self_s": "s",
    "kriging.empirical_semivariogram.pairs_computed": "count",
    "kriging.KrigingSystem.calls": "count",
    "kriging.KrigingSystem.self_s": "s",
    "kriging.KrigingSystem.gflop_computed": "GFLOP",
    "kriging.KrigingSystem.rcond_min": "ratio",
    "kriging.KrigingSystem.predict_many.targets": "count",
    "kriging.KrigingSystem.predict_many.self_s": "s",
    "kriging.KrigingSystem.predict_many.rhs_mb_computed": "MB",
    "kriging.ok_predict.calls": "count",
    "kriging.ok_predict.self_s": "s",
    "mean_surface.biharmonic_fit.calls": "count",
    "mean_surface.biharmonic_fit.self_s": "s",
    "mean_surface.biharmonic_fit.gflop_computed": "GFLOP",
    "mean_surface.biharmonic_eval_many.points": "count",
    "mean_surface.biharmonic_eval_many.self_s": "s",
    "mean_surface.linear_mean_many.self_s": "s",
    "predictor.fit.calls": "count",
    "predictor.fit.self_s": "s",
    "predictor.fit.p50_ms": "ms",
    "predictor.fit.p99_ms": "ms",
    "predictor.loocv.folds": "count",
    "predictor.loocv.skipped": "count",
    **{f"predictor.loocv.rmse.{key}": "%" for key in CV_KEYS},
    "predictor.predict_grid.self_s": "s",
    "model_io.save_model.s": "s",
    "model_io.save_model.bytes": "B",
    "model_io.load_model.s": "s",
    "cli.grid_csv_lines.self_s": "s",
    "cli.grid_csv_lines.bytes": "B",
    "cli.pgm_lines.self_s": "s",
    "trace.overhead_s": "s",
    "trace.absent": "count",
}


class Span:
    __slots__ = ("label", "phase", "parent", "start", "end", "info")

    def __init__(self, label, phase, parent, start):
        self.label = label
        self.phase = phase
        self.parent = parent
        self.start = start
        self.end = None
        self.info = None


class Tracer:
    """Records spans around the polishkrige callables listed in TARGETS."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.phase = None
        self.absent = []
        self.uncounted = set()
        self._stack = []
        self._patches = []

    def _wrap(self, fn, label, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(label, tracer.phase,
                        tracer._stack[-1] if tracer._stack else -1,
                        time.perf_counter())
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                try:
                    span.info = hook(args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError, OSError):
                    tracer.uncounted.add(label)
            return result

        return traced

    def install(self):
        """Wrap every target that exists; record the ones that do not."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "polishkrige"
                                         or name.startswith("polishkrige."))]
        for module_name, path, label, hook in self.targets:
            owner = sys.modules.get(f"polishkrige.{module_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = (owner.__dict__.get(attr) if cls_path and owner is not None
                        else getattr(owner, attr, None))
            if not callable(original):
                self.absent.append(label)
                continue
            wrapper = self._wrap(original, label, hook)
            if cls_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, namespace, name, original, wrapper):
        setattr(namespace, name, wrapper)
        self._patches.append((namespace, name, original))

    def uninstall(self):
        """Put back every original callable, in reverse patch order."""
        while self._patches:
            namespace, name, original = self._patches.pop()
            setattr(namespace, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_times(self):
        """Self time of every span, aligned with self.spans."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def layer_totals(self, phase):
        """{label: (calls, self seconds)} over the spans of one phase."""
        totals = {}
        for s, own in zip(self.spans, self.self_times()):
            if s.phase == phase:
                calls, secs = totals.get(s.label, (0, 0.0))
                totals[s.label] = (calls + 1, secs + own)
        return totals

    def per_layer_metrics(self, overhead_s):
        """Every PER_LAYER_UNITS metric from the recorded spans."""
        by_label = {}
        for s, own in zip(self.spans, self.self_times()):
            by_label.setdefault(s.label, []).append((s, own))

        def spans(label):
            return by_label.get(label, [])

        def calls(label):
            return float(len(spans(label)))

        def self_s(label):
            return float(sum(own for _, own in spans(label)))

        def incl_s(label):
            return float(sum(s.end - s.start for s, _ in spans(label)))

        def info(label, key):
            return [s.info[key] for s, _ in spans(label) if s.info is not None]

        def mean(values):
            return float(np.mean(values)) if values else 0.0

        def pct_ms(label, q):
            durations = [s.end - s.start for s, _ in spans(label)]
            return float(np.percentile(durations, q) * 1e3) if durations else 0.0

        cv = {}
        for key, value in zip(info("predictor.loocv", "key"), info("predictor.loocv", "rmse")):
            cv[key] = value
        rcond = info("kriging.KrigingSystem", "rcond")
        rhs = info("kriging.KrigingSystem.predict_many", "rhs_mb")
        out = {
            "spatial_core.load_observations_csv.s": incl_s("spatial_core.load_observations_csv"),
            "spatial_core.to_grid.s": incl_s("spatial_core.to_grid"),
            "spatial_core.drop_cell.calls": calls("spatial_core.drop_cell"),
            "median_polish.decompose.calls": calls("median_polish.decompose"),
            "median_polish.decompose.self_s": self_s("median_polish.decompose"),
            "median_polish.decompose.sweeps_mean": mean(info("median_polish.decompose", "sweeps")),
            "median_polish.decompose.converged_ratio":
                mean(info("median_polish.decompose", "converged")),
            "kriging.fit_variogram.calls": calls("kriging.fit_variogram"),
            "kriging.fit_variogram.self_s": self_s("kriging.fit_variogram"),
            "kriging.empirical_semivariogram.self_s": self_s("kriging.empirical_semivariogram"),
            "kriging.empirical_semivariogram.pairs_computed":
                float(sum(info("kriging.empirical_semivariogram", "pairs"))),
            "kriging.KrigingSystem.calls": calls("kriging.KrigingSystem"),
            "kriging.KrigingSystem.self_s": self_s("kriging.KrigingSystem"),
            "kriging.KrigingSystem.gflop_computed":
                float(sum(info("kriging.KrigingSystem", "gflop"))),
            "kriging.KrigingSystem.rcond_min": float(min(rcond)) if rcond else 0.0,
            "kriging.KrigingSystem.predict_many.targets":
                float(sum(info("kriging.KrigingSystem.predict_many", "targets"))),
            "kriging.KrigingSystem.predict_many.self_s":
                self_s("kriging.KrigingSystem.predict_many"),
            "kriging.KrigingSystem.predict_many.rhs_mb_computed":
                float(max(rhs)) if rhs else 0.0,
            "kriging.ok_predict.calls": calls("kriging.ok_predict"),
            "kriging.ok_predict.self_s": self_s("kriging.ok_predict"),
            "mean_surface.biharmonic_fit.calls": calls("mean_surface.biharmonic_fit"),
            "mean_surface.biharmonic_fit.self_s": self_s("mean_surface.biharmonic_fit"),
            "mean_surface.biharmonic_fit.gflop_computed":
                float(sum(info("mean_surface.biharmonic_fit", "gflop"))),
            "mean_surface.biharmonic_eval_many.points":
                float(sum(info("mean_surface.biharmonic_eval_many", "points"))),
            "mean_surface.biharmonic_eval_many.self_s":
                self_s("mean_surface.biharmonic_eval_many"),
            "mean_surface.linear_mean_many.self_s": self_s("mean_surface.linear_mean_many"),
            "predictor.fit.calls": calls("predictor.fit"),
            "predictor.fit.self_s": self_s("predictor.fit"),
            "predictor.fit.p50_ms": pct_ms("predictor.fit", 50),
            "predictor.fit.p99_ms": pct_ms("predictor.fit", 99),
            "predictor.loocv.folds": float(sum(info("predictor.loocv", "folds"))),
            "predictor.loocv.skipped": float(sum(info("predictor.loocv", "skipped"))),
            **{f"predictor.loocv.rmse.{key}": float(cv.get(key, 0.0)) for key in CV_KEYS},
            "predictor.predict_grid.self_s": self_s("predictor.predict_grid"),
            "model_io.save_model.s": incl_s("model_io.save_model"),
            "model_io.save_model.bytes": float(sum(info("model_io.save_model", "bytes"))),
            "model_io.load_model.s": incl_s("model_io.load_model"),
            "cli.grid_csv_lines.self_s": self_s("cli.grid_csv_lines"),
            "cli.grid_csv_lines.bytes": float(sum(info("cli.grid_csv_lines", "bytes"))),
            "cli.pgm_lines.self_s": self_s("cli.pgm_lines"),
            "trace.overhead_s": float(overhead_s),
            "trace.absent": float(len(self.absent)),
        }
        assert list(out) == list(PER_LAYER_UNITS)
        return out
