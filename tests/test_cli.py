import argparse
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import polishkrige
from conftest import DATA_DIR
from polishkrige import (DataError, FitConfig, GridLattice, GridTable, Location2D,
                         cross_validate, load_model)
from polishkrige.cli import (
    grid_csv_lines,
    main,
    parse_config_file,
    parse_resolution,
    pgm_lines,
    render_cv_csv,
    resolve_input,
)
from polishkrige.model_io import read_field
from polishkrige.predictor import CvRecord, CvReport

SIX_DP = re.compile(r"^-?\d+\.\d{6}$")


@pytest.fixture
def csv_path(holey_table, tmp_path):
    scatter = holey_table.to_scatter()
    lines = ["x,y,z"]
    for (x, y), z in zip(scatter.coords, scatter.values):
        lines.append(f"{float(x)!r},{float(y)!r},{float(z)!r}")
    path = tmp_path / "obs.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestParsing:
    def test_resolution_happy(self):
        assert parse_resolution("40x30") == (40, 30)
        assert parse_resolution("2X2") == (2, 2)

    @pytest.mark.parametrize("text", ["40", "ax30", "40x", "1x5", "40x30x2", "0x0"])
    def test_resolution_rejects(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_resolution(text)

    @pytest.mark.parametrize("text,expect", [
        ("true", True), ("1", True), ("YES", True), ("on", True),
        ("false", False), ("0", False), ("No", False), ("off", False),
    ])
    def test_bool_values(self, text, expect):
        assert read_field((bool, False), text) is expect

    def test_bool_rejects(self):
        with pytest.raises(ValueError):
            read_field((bool, False), "maybe")

    def test_config_file_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nmethod = impk\nbins=9  # inline\n")
        assert parse_config_file(cfg) == {"method": "impk", "bins": 9}

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble=3\n")
        with pytest.raises(DataError, match="line 1.*unknown key"):
            parse_config_file(cfg)

    def test_config_file_missing_equals(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method impk\n")
        with pytest.raises(DataError, match="expected key=value"):
            parse_config_file(cfg)

    def test_config_file_missing(self, tmp_path):
        with pytest.raises(DataError):
            parse_config_file(tmp_path / "nope.cfg")


class TestResolveInput:
    def test_existing_path_wins(self, csv_path):
        assert resolve_input(str(csv_path)) == str(csv_path)

    def test_env_search_root(self, csv_path, monkeypatch, tmp_path):
        monkeypatch.setenv("POLISHKRIGE_DATA", str(tmp_path))
        monkeypatch.chdir(tmp_path / "..")
        assert resolve_input("obs.csv") == str(tmp_path / "obs.csv")

    def test_data_subdir_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("POLISHKRIGE_DATA", raising=False)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "pts.csv").write_text("x,y,z\n")
        assert resolve_input("pts.csv").endswith("data/pts.csv" if "/" in str(tmp_path) else "pts.csv")

    def test_missing_reports_both_candidates(self, monkeypatch, tmp_path):
        monkeypatch.delenv("POLISHKRIGE_DATA", raising=False)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(DataError, match="also tried"):
            resolve_input("ghost.csv")


class TestFitCommand:
    def test_fit_writes_model_and_summary(self, csv_path, tmp_path, capsys):
        out = tmp_path / "run.model"
        assert run(["fit", csv_path, "--out", out]) == 0
        text = capsys.readouterr().out
        assert "method mpk" in text
        assert "observations 26" in text
        assert f"model written to {out}" in text
        model = load_model(out)
        assert model.method == "mpk"
        assert model.config == FitConfig()

    def test_method_flag(self, csv_path, tmp_path, capsys):
        out = tmp_path / "run.model"
        assert run(["fit", csv_path, "--method", "impk", "--out", out]) == 0
        assert "method impk" in capsys.readouterr().out
        assert load_model(out).method == "impk"

    def test_config_file_applies_and_flags_win(self, csv_path, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method=impk\nvariogram=gaussian\nbins=11\n")
        out = tmp_path / "run.model"
        code = run(["fit", csv_path, "--config", cfg, "--variogram", "exponential", "--out", out])
        assert code == 0
        model = load_model(out)
        assert model.method == "impk"
        assert model.config.family == "exponential"
        assert model.config.n_bins == 11

    def test_bad_config_value_is_pipeline_error(self, csv_path, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bins=many\n")
        code = run(["fit", csv_path, "--config", cfg, "--out", tmp_path / "m"])
        assert code == 1
        assert capsys.readouterr().err.startswith("bad-input:")

    @pytest.mark.parametrize("flag", ["--epsilon", "--max-lag", "--mp-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_float_knob_is_bad_input(self, csv_path, tmp_path, capsys, flag, value):
        out = tmp_path / "m"
        code = run(["fit", csv_path, "--method", "impk", flag, value, "--out", out])
        assert code == 1
        assert capsys.readouterr().err.startswith("bad-input:")
        assert not out.exists()

    def test_missing_input(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = run(["fit", "ghost.csv", "--out", tmp_path / "m"])
        assert code == 1
        assert capsys.readouterr().err.startswith("bad-input: cannot find input")

    def test_unwritable_output_is_io_error(self, csv_path, tmp_path, capsys):
        code = run(["fit", csv_path, "--out", tmp_path / "no" / "dir" / "m"])
        assert code == 1
        assert capsys.readouterr().err.startswith("io-error:")

    def test_usage_error_exits_two(self, csv_path):
        with pytest.raises(SystemExit) as exc:
            run(["fit", csv_path])
        assert exc.value.code == 2

    def test_seed_flag_is_a_usage_error(self, csv_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["fit", csv_path, "--seed", 1, "--out", tmp_path / "m"])
        assert exc.value.code == 2

    def test_unknown_method_in_config_file(self, csv_path, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method=teleport\n")
        code = run(["fit", csv_path, "--config", cfg, "--out", tmp_path / "m"])
        assert code == 1
        assert capsys.readouterr().err.startswith("bad-input:")


    @pytest.mark.parametrize("target", ["input", "config"])
    def test_output_over_an_input_is_refused(self, csv_path, tmp_path, capsys, target):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bins=9\n")
        victim = {"input": csv_path, "config": cfg}[target]
        before = victim.read_bytes()
        assert run(["fit", csv_path, "--config", cfg, "--out", victim]) == 1
        assert capsys.readouterr().err.startswith("bad-input: fit output paths coincide")
        assert victim.read_bytes() == before

    def test_repeated_config_key_is_bad_input(self, csv_path, tmp_path, capsys):
        # the second value used to win silently; the line count takes in the
        # blank and comment lines
        cfg = tmp_path / "run.cfg"
        cfg.write_text("method=impk\n\n# again\nmethod=mpk\n")
        assert run(["fit", csv_path, "--config", cfg, "--out", tmp_path / "m"]) == 1
        assert capsys.readouterr().err == "bad-input: config file: line 4: repeated key 'method'\n"

    def test_config_file_none_unsets_an_optional_knob(self, csv_path, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        # none is read in any case, as the booleans are
        cfg.write_text("max-lag=none\nmp-tol=None\nneighborhood=NONE\n")
        out = tmp_path / "m"
        assert run(["fit", csv_path, "--config", cfg, "--out", out]) == 0
        assert load_model(out).config == FitConfig()

    @pytest.mark.parametrize("line", ["bins=none", "freeze-variogram=none", "epsilon=none",
                                      "freeze-variogram=2", "bins=NONE"])
    def test_none_or_bad_boolean_for_a_required_knob_is_bad_input(self, csv_path, tmp_path,
                                                                   capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert run(["fit", csv_path, "--config", cfg, "--out", tmp_path / "m"]) == 1
        assert capsys.readouterr().err.startswith("bad-input: config file: bad value")

    def test_constant_values_warn_of_a_degenerate_variogram(self, tmp_path, capsys):
        csv = tmp_path / "flat.csv"
        csv.write_text("x,y,z\n" + "".join(f"{x},{y},3.25\n" for x in range(5) for y in range(4)))
        out = tmp_path / "flat.model"
        assert run(["fit", csv, "--out", out]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "warning: degenerate variogram (residuals have no variability)" in lines
        assert load_model(out).variogram.degenerate


class TestSurfaceCommand:
    @pytest.fixture
    def model_path(self, csv_path, tmp_path, capsys):
        out = tmp_path / "run.model"
        run(["fit", csv_path, "--out", out])
        capsys.readouterr()
        return out

    def test_value_and_variance_grids(self, model_path, tmp_path, capsys):
        out = tmp_path / "surf.csv"
        assert run(["surface", model_path, "--resolution", "8x9", "--out", out]) == 0
        var_out = tmp_path / "surf_variance.csv"
        assert var_out.exists()
        for path in (out, var_out):
            text = path.read_text()
            assert text.endswith("\n")
            lines = text.splitlines()
            assert lines[0] == "x,y,value"
            assert len(lines) == 1 + 8 * 9
            for line in lines[1:]:
                assert all(SIX_DP.match(f) for f in line.split(","))
        # row-major over the source extent: x 0..5, y 0..4
        body = out.read_text().splitlines()[1:]
        assert body[0].startswith("0.000000,0.000000,")
        assert body[-1].startswith("5.000000,4.000000,")
        assert "written to" in capsys.readouterr().out

    def test_explicit_variance_path(self, model_path, tmp_path, capsys):
        out = tmp_path / "s.csv"
        var = tmp_path / "spread.csv"
        run(["surface", model_path, "--resolution", "4x4", "--out", out, "--variance-out", var])
        assert var.exists()
        assert not (tmp_path / "s_variance.csv").exists()

    def test_pgm_outputs(self, model_path, tmp_path, capsys):
        out = tmp_path / "s.csv"
        run(["surface", model_path, "--resolution", "6x5", "--out", out, "--pgm"])
        for name in ("s.pgm", "s_variance.pgm"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "P2"
            assert lines[1] == "5 6"
            assert lines[2] == "255"
            raster = [int(v) for row in lines[3:] for v in row.split()]
            assert len(raster) == 30
            assert min(raster) == 0 and max(raster) == 255

    @pytest.mark.parametrize("out,variance_out,pgm", [
        ("a.csv", "a.txt", True),
        ("b.csv", "b.csv", False),
        ("c.csv", "./c.csv", False),
    ], ids=["pgm", "csv", "same-file"])
    def test_coinciding_outputs_are_refused(self, model_path, tmp_path, monkeypatch, capsys,
                                            out, variance_out, pgm):
        monkeypatch.chdir(tmp_path)
        argv = ["surface", model_path, "--resolution", "4x4", "--out", out,
                "--variance-out", variance_out] + ["--pgm"] * pgm
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("bad-input: surface output paths coincide")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["obs.csv", "run.model"]

    @pytest.mark.parametrize("flag", ["--out", "--variance-out"])
    def test_output_over_the_model_is_refused(self, model_path, tmp_path, capsys, flag):
        before = model_path.read_bytes()
        argv = ["surface", model_path, "--resolution", "4x4", "--out", tmp_path / "s.csv"]
        assert run(argv + [flag, model_path]) == 1
        assert capsys.readouterr().err.startswith("bad-input: surface output paths coincide")
        assert model_path.read_bytes() == before
        assert load_model(model_path).method == "mpk"

    def test_grid_csv_matches_per_value_formatting(self):
        lattice = GridLattice([-1.25, 0.0, 0.1, 1e6 / 3], [-0.0, 2.0000005, 7.1234565])
        values = np.array([[-0.0, 4e-7, -4e-7, 1e12],
                           [0.0000005, 1.2345675, -2.5e-7, 0.1234565],
                           [2.0000015, -1e12 / 7, 5e-7, -5e-7]])
        want = ["x,y,value"] + [f"{x:.6f},{y:.6f},{v:.6f}"
                                for y, row in zip(lattice.y_coords, values)
                                for x, v in zip(lattice.x_coords, row)]
        lines = grid_csv_lines(lattice, values)
        assert isinstance(lines, list)
        assert "\n".join(lines) == "\n".join(want)

    def test_pgm_matches_per_value_formatting(self):
        array = np.random.default_rng(5).normal(size=(7, 9))
        scaled = np.rint((array - array.min()) / (array.max() - array.min()) * 255).astype(int)
        want = ["P2", "9 7", "255"] + [" ".join(str(v) for v in row) for row in scaled[::-1]]
        assert pgm_lines(array) == want

    def test_pgm_top_row_is_max_y(self):
        lines = pgm_lines(np.array([[0.0, 0.0], [0.0, 9.0]]))
        assert lines[3] == "0 255"
        assert lines[4] == "0 0"

    def test_pgm_constant_array(self):
        lines = pgm_lines(np.full((2, 3), 7.7))
        assert lines[3:] == ["0 0 0", "0 0 0"]

    def test_invalid_model_value_is_bad_model(self, model_path, tmp_path, capsys):
        text = model_path.read_text()
        nugget = next(ln for ln in text.splitlines() if ln.startswith("nugget"))
        model_path.write_text(text.replace(nugget, "nugget -1.0"))
        code = run(["surface", model_path, "--resolution", "4x4", "--out", tmp_path / "s.csv"])
        assert code == 1
        assert capsys.readouterr().err.startswith("bad-model:")

    def test_missing_model_file(self, tmp_path, capsys):
        code = run(["surface", tmp_path / "ghost.model", "--resolution", "4x4",
                    "--out", tmp_path / "s.csv"])
        assert code == 1
        assert capsys.readouterr().err.startswith("bad-model:")


class TestCvCommand:
    def test_stdout_report(self, csv_path, capsys):
        assert run(["cv", csv_path]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "x,y,observed,predicted,error"
        assert lines[-1].startswith("RMSE,MPK,")
        assert len(lines) == 2 + 26
        for line in lines[1:-1]:
            assert all(SIX_DP.match(f) for f in line.split(","))

    def test_report_to_file(self, csv_path, tmp_path, capsys):
        out = tmp_path / "cv.csv"
        assert run(["cv", csv_path, "--out", out]) == 0
        assert out.read_text().splitlines()[-1].startswith("RMSE,MPK,")
        assert capsys.readouterr().out == ""

    def test_both_comparison(self, csv_path, tmp_path, capsys):
        out = tmp_path / "cv.csv"
        assert run(["cv", csv_path, "--both", "--out", out]) == 0
        stdout = capsys.readouterr().out
        lines = stdout.splitlines()
        assert lines[0] == "method,rmse,folds,skipped"
        assert lines[1].startswith("MPK,")
        assert lines[2].startswith("IMPK,")
        mpk = (tmp_path / "cv.mpk.csv").read_text().splitlines()
        impk = (tmp_path / "cv.impk.csv").read_text().splitlines()
        assert mpk[-1].startswith("RMSE,MPK,")
        assert impk[-1].startswith("RMSE,IMPK,")

    def test_unconverged_folds_go_to_stderr(self, tmp_path, capsys):
        coal = pathlib.Path(__file__).resolve().parent.parent / "data" / "coal_ash.csv"
        assert run(["cv", coal, "--both", "--out", tmp_path / "cv.csv"]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["unconverged folds (mpk): 2",
                                             "unconverged folds (impk): 2"]
        assert captured.out.splitlines()[1:] == ["MPK,1.579332,208,0", "IMPK,1.375924,208,0"]

    @pytest.mark.parametrize("both", [False, True], ids=["one", "both"])
    def test_report_over_the_input_is_refused(self, csv_path, tmp_path, capsys, both):
        # with --both, --out d.csv names the reports d.mpk.csv and d.impk.csv
        source = tmp_path / ("d.mpk.csv" if both else "d.csv")
        source.write_bytes(csv_path.read_bytes())
        before = source.read_bytes()
        assert run(["cv", source, "--out", tmp_path / "d.csv"] + ["--both"] * both) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("bad-input: cv output paths coincide")
        assert captured.out == ""
        assert source.read_bytes() == before

    def test_skipped_folds_go_to_stderr(self, holey_table, tmp_path, capsys):
        cells = holey_table.cells.copy()
        cells[0, 1:] = np.nan  # deleting cell (0, 0) empties row 0
        grid = GridTable(holey_table.lattice, cells)
        scatter = grid.to_scatter()
        csv = tmp_path / "thin.csv"
        csv.write_text("x,y,z\n" + "".join(
            f"{float(x)!r},{float(y)!r},{float(z)!r}\n"
            for (x, y), z in zip(scatter.coords, scatter.values)))
        assert run(["cv", csv]) == 0
        captured = capsys.readouterr()
        assert "skipped folds (mpk): 1" in captured.err.splitlines()
        report = cross_validate(grid, ("mpk",))[0]
        assert captured.out.splitlines() == render_cv_csv(report)

    @pytest.mark.parametrize("flag, value, reason", [
        ("--bins", "2", "variogram fit needs at least 3 occupied bins, got 2"),
        ("--max-lag", "0.5", "no point pair within max_lag 0.5"),
    ])
    def test_every_fold_skipped_names_the_count_and_first_reason(self, tmp_path, capsys,
                                                                flag, value, reason):
        coal = DATA_DIR / "coal_ash.csv"
        assert run(["fit", coal, flag, value, "--out", tmp_path / "m"]) == 1
        assert capsys.readouterr().err == f"bad-input: {reason}\n"
        assert run(["cv", coal, "--both", flag, value, "--out", tmp_path / "cv.csv"]) == 1
        assert capsys.readouterr().err == (
            "bad-input: no completed cross-validation folds (mpk): all 208 skipped; "
            f"the first, at (5, 1): bad-input: {reason}\n")

    def test_rerun_is_byte_identical(self, csv_path, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["cv", csv_path, "--out", a])
        run(["cv", csv_path, "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_render_known_rmse(self):
        records = tuple(
            CvRecord(Location2D(float(i), 0.0), 10.0, 10.0 - e, e)
            for i, e in enumerate((3.0, 4.0))
        )
        report = CvReport("mpk", records, (), float(np.sqrt(12.5)), FitConfig())
        lines = render_cv_csv(report)
        assert lines[-1] == "RMSE,MPK,3.535534"
        assert lines[1] == "0.000000,0.000000,10.000000,7.000000,3.000000"


class TestConfigPrecedence:
    def test_freeze_variogram_flag_survives(self, csv_path, tmp_path, capsys):
        out = tmp_path / "m"
        assert run(["fit", csv_path, "--freeze-variogram", "--out", out]) == 0
        assert load_model(out).config.freeze_variogram is True

    def test_defaults_without_config(self, csv_path, tmp_path, capsys):
        out = tmp_path / "m"
        run(["fit", csv_path, "--out", out])
        cfg = load_model(out).config
        assert cfg.family == "spherical"
        assert cfg.n_bins == 15
        assert cfg.max_sweeps == 100


def test_loading_and_predicting_never_import_the_optimizer(csv_path, tmp_path):
    # scipy.optimize serves only the variogram fit; a surface child skips it
    model_path = tmp_path / "obs.model"
    assert run(["fit", csv_path, "--method", "impk", "--neighborhood", "5",
                "--out", model_path]) == 0
    code = "\n".join([
        "import sys",
        "import polishkrige",
        "from polishkrige.cli import main",
        f"model = polishkrige.load_model({str(model_path)!r})",
        "polishkrige.predict_many(model, [[1.5, 2.5], [0.2, 3.9]])",
        "assert 'scipy.optimize' not in sys.modules",
        f"assert main(['cv', {str(csv_path)!r}]) == 0",
    ])
    assert run_child(code).splitlines()[-1].startswith("RMSE,MPK,")


def test_fitting_and_cross_validating_never_import_the_optimizer(csv_path, tmp_path):
    # the variogram fit runs its own bounded Brent search
    model_path = tmp_path / "obs.model"
    code = "\n".join([
        "import sys",
        "from polishkrige.cli import main",
        f"assert main(['fit', {str(csv_path)!r}, '--method', 'impk', "
        f"'--out', {str(model_path)!r}]) == 0",
        f"assert main(['surface', {str(model_path)!r}, '--resolution', '5x4', "
        f"'--out', {str(tmp_path / 'grid.csv')!r}]) == 0",
        f"assert main(['cv', {str(csv_path)!r}, '--both', "
        f"'--out', {str(tmp_path / 'cv.csv')!r}]) == 0",
        "assert 'scipy.optimize' not in sys.modules",
    ])
    assert run_child(code).splitlines()[-1].startswith("IMPK,")


def test_only_the_neighbourhood_path_imports_scipy_spatial(csv_path, tmp_path):
    # the KD-tree is scipy.spatial's one use; a global-path process skips it
    global_model, knn_model = tmp_path / "global.model", tmp_path / "knn.model"
    code = "\n".join([
        "import sys",
        "import polishkrige",
        "from polishkrige.cli import main",
        "def spatial():",
        "    return sorted(name for name in sys.modules if name.startswith('scipy.spatial'))",
        "assert spatial() == [], spatial()",
        f"assert main(['fit', {str(csv_path)!r}, '--method', 'impk', "
        f"'--out', {str(global_model)!r}]) == 0",
        f"model = polishkrige.load_model({str(global_model)!r})",
        "polishkrige.predict(model, (1.5, 2.5))",
        f"assert main(['cv', {str(csv_path)!r}, '--both', "
        f"'--out', {str(tmp_path / 'cv.csv')!r}]) == 0",
        "assert spatial() == [], spatial()",
        f"assert main(['fit', {str(csv_path)!r}, '--neighborhood', '16', "
        f"'--out', {str(knn_model)!r}]) == 0",
        f"assert polishkrige.load_model({str(knn_model)!r})._system.neighborhood == 16",
        "assert 'scipy.spatial' in spatial(), spatial()",
    ])
    run_child(code)


def run_child(code):
    """Run python -c code on this checkout's package; its stdout."""
    src = str(pathlib.Path(polishkrige.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout
