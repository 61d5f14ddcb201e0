"""The benchmark's per-layer tracer still sees the package.

bench/tracer.py wraps callables by name and reads counts off their
arguments and results; a refactor that renames a traced callable, drops the
global rcond or turns the surface writers into one-shot generators would
blind the trace without failing it.  These tests read bench/ and never
change it.
"""

import importlib
import importlib.util
import math
import pathlib

import numpy as np
import pytest

from polishkrige import GridLattice, KrigingSystem, fit
from polishkrige.cli import grid_csv_lines, pgm_lines

TRACER_PATH = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracer):
    for module_name, path, label, _ in tracer.TARGETS:
        owner = importlib.import_module(f"polishkrige.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), label


def test_install_finds_every_target(tracer):
    trace = tracer.Tracer()
    with trace:
        assert trace.absent == []


def test_global_system_reports_a_finite_rcond(tracer, coal_ash_grid):
    model = fit(coal_ash_grid, "impk")
    system = KrigingSystem(model.residual_scatter, model.variogram)
    assert isinstance(system.rcond, float) and math.isfinite(system.rcond)
    counts = tracer._krige_init((system,), {}, None)
    assert counts["rcond"] == system.rcond


def test_surface_writers_return_lists(tracer):
    lattice = GridLattice([0.0, 1.0, 2.0], [0.0, 0.5])
    values = np.arange(6.0).reshape(2, 3)
    for lines in (grid_csv_lines(lattice, values), pgm_lines(values)):
        assert isinstance(lines, list)
        # the hook's byte count is the size of the written file
        text = "".join(line + "\n" for line in lines)
        assert tracer._lines((), {}, lines)["bytes"] == len(text)

