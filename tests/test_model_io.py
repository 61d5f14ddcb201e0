import numpy as np
import pytest

from polishkrige import (
    FitConfig,
    GridLattice,
    GridTable,
    ModelFormatError,
    VariogramModel,
    fit,
    load_model,
    predict_many,
    save_model,
)


# every FitConfig field off its default, including the spline ridge epsilon
ALL_SET = dict(family="gaussian", n_bins=9, max_lag=3.5, mp_tol=1e-6, max_sweeps=40,
               epsilon=0.05, freeze_variogram=True, neighborhood=7)


@pytest.fixture(params=[("mpk", {}), ("impk", {}), ("mpk", ALL_SET), ("impk", ALL_SET)],
                ids=["mpk", "impk", "mpk-all-set", "impk-all-set"])
def fitted(request, holey_table):
    method, overrides = request.param
    config = FitConfig(**{"family": "exponential", "n_bins": 12, **overrides})
    return fit(holey_table, method, config)


class TestRoundTrip:
    def test_predictions_survive_exactly(self, fitted, tmp_path, rng):
        path = tmp_path / "surface.model"
        save_model(fitted, path)
        loaded = load_model(path)
        pts = rng.uniform(-0.5, 5.5, size=(20, 2))
        base_v, base_s2 = predict_many(fitted, pts)
        got_v, got_s2 = predict_many(loaded, pts)
        # full-precision serialization makes the round trip bit-exact
        np.testing.assert_array_equal(got_v, base_v)
        np.testing.assert_array_equal(got_s2, base_s2)

    def test_metadata_survives(self, fitted, tmp_path):
        path = tmp_path / "surface.model"
        save_model(fitted, path)
        loaded = load_model(path)
        assert loaded.method == fitted.method
        assert loaded.variogram == fitted.variogram
        assert loaded.config == fitted.config
        assert loaded.polish.sweeps == fitted.polish.sweeps
        assert loaded.polish.converged == fitted.polish.converged

    def test_file_is_versioned_text(self, fitted, tmp_path):
        path = tmp_path / "surface.model"
        save_model(fitted, path)
        text = path.read_text()
        assert text.splitlines()[0] == "polishkrige-model 3"
        assert text.endswith("\n")

    def test_spline_ridge_survives(self, fitted, tmp_path):
        path = tmp_path / "surface.model"
        save_model(fitted, path)
        loaded = load_model(path)
        ridge = getattr(fitted.mean_component, "regularization", None)
        assert getattr(loaded.mean_component, "regularization", None) == ridge

    def test_file_stores_no_derived_facts(self, fitted, tmp_path):
        path = tmp_path / "surface.model"
        save_model(fitted, path)
        lines = path.read_text().splitlines()
        assert "[residuals]" not in lines
        if fitted.method == "impk":
            spline = lines[lines.index("[spline]") + 1:lines.index("[config]")]
            assert [ln.split()[0] for ln in spline] == ["strengths"]
            assert len(spline[0].split()) == 1 + fitted.source_grid.n_present

    def test_family_is_read_from_config(self, fitted, tmp_path):
        path = tmp_path / "surface.model"
        save_model(fitted, path)
        lines = path.read_text().splitlines()
        variogram = lines[lines.index("[variogram]") + 1:]
        assert [ln.split()[0] for ln in variogram[:3]] == ["nugget", "partial_sill", "range"]
        assert variogram[3].startswith("[")
        other = "gaussian" if fitted.config.family != "gaussian" else "spherical"
        lines[lines.index(f"family {fitted.config.family}")] = f"family {other}"
        path.write_text("\n".join(lines) + "\n")
        loaded = load_model(path)
        assert loaded.variogram.family == loaded.config.family == other
        v, w = loaded.variogram, fitted.variogram
        assert (v.nugget, v.partial_sill, v.range) == (w.nugget, w.partial_sill, w.range)

    def test_polish_keys_are_pinned(self, fitted, tmp_path):
        # [polish] holds MedianPolishFit's fields by name; a new field must
        # not change the file format unnoticed
        path = tmp_path / "surface.model"
        save_model(fitted, path)
        lines = path.read_text().splitlines()
        polish = lines[lines.index("[polish]") + 1:lines.index("[variogram]")]
        assert [ln.split()[0] for ln in polish] == [
            "overall", "row_effects", "col_effects", "sweeps", "converged"]

    @pytest.mark.parametrize("text,expect", [("1", True), ("yes", True), ("OFF", False)])
    def test_boolean_spellings_are_read(self, holey_table, tmp_path, text, expect):
        path = tmp_path / "surface.model"
        save_model(fit(holey_table, "mpk"), path)
        lines = path.read_text().splitlines()
        target = next(i for i, ln in enumerate(lines) if ln.startswith("converged"))
        lines[target] = f"converged {text}"
        path.write_text("\n".join(lines) + "\n")
        assert load_model(path).polish.converged is expect

    def test_degenerate_flag_is_a_zero_sill(self, tmp_path):
        lat = GridLattice(np.arange(5.0), np.arange(4.0))
        model = fit(GridTable(lat, np.full((4, 5), 3.25)), "mpk")
        path = tmp_path / "flat.model"
        save_model(model, path)
        assert model.variogram.degenerate
        assert load_model(path).variogram == model.variogram

    def test_save_load_save_is_stable(self, fitted, tmp_path):
        a = tmp_path / "one.model"
        b = tmp_path / "two.model"
        save_model(fitted, a)
        save_model(load_model(a), b)
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("method", ["mpk", "impk"])
    def test_supplied_variogram_family_survives(self, coal_ash_grid, method, tmp_path):
        # the file keeps the family only in [config], so the fitted model must
        # take it from the supplied variogram, not from config.family
        variogram = VariogramModel("gaussian", 0.5, 8.0, 6.0)
        fitted = fit(coal_ash_grid, method, FitConfig(family="spherical"), variogram=variogram)
        assert fitted.variogram == variogram
        assert fitted.config.family == "gaussian"
        path = tmp_path / "supplied.model"
        save_model(fitted, path)
        loaded = load_model(path)
        pts = np.array([[3.3, 7.7], [1.0, 1.0], [12.5, 20.25], [8.0, 4.5]])
        base_v, base_s2 = predict_many(fitted, pts)
        got_v, got_s2 = predict_many(loaded, pts)
        np.testing.assert_array_equal(got_v, base_v)
        np.testing.assert_array_equal(got_s2, base_s2)


class TestFormatErrors:
    def good_lines(self, holey_table, tmp_path):
        path = tmp_path / "good.model"
        save_model(fit(holey_table, "mpk"), path)
        return path.read_text().splitlines()

    def test_wrong_signature(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("polishkrige-model 999\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.model"
        path.write_text("")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_truncated_file(self, holey_table, tmp_path):
        lines = self.good_lines(holey_table, tmp_path)
        path = tmp_path / "cut.model"
        path.write_text("\n".join(lines[: len(lines) // 2]) + "\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_corrupt_record_names_the_line(self, holey_table, tmp_path):
        lines = self.good_lines(holey_table, tmp_path)
        target = lines.index("[grid]") + 1
        lines[target] = "0 0 spam"
        path = tmp_path / "corrupt.model"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=f"line {target + 1}"):
            load_model(path)

    @pytest.mark.parametrize("why", ["repeated cell", "non-finite value"],
                             ids=["repeated-cell", "nan-cell"])
    def test_bad_grid_record_names_the_line(self, holey_table, tmp_path, why):
        # either would load silently as another grid: the second record
        # winning, or a present cell made missing
        lines = self.good_lines(holey_table, tmp_path)
        at = lines.index("[grid]") + 1
        cell = lines[at].rsplit(" ", 1)[0]
        if why == "repeated cell":
            at += 1
            lines.insert(at, f"{cell} 99.0")
        else:
            lines[at] = f"{cell} nan"
        path = tmp_path / "grid.model"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=f"grid.model.*line {at + 1}: {why}"):
            load_model(path)

    def test_corrupt_scalar_rejected(self, holey_table, tmp_path):
        lines = self.good_lines(holey_table, tmp_path)
        target = next(i for i, ln in enumerate(lines) if ln.startswith("overall"))
        lines[target] = "overall spam"
        path = tmp_path / "scalar.model"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_unknown_method_rejected(self, holey_table, tmp_path):
        lines = self.good_lines(holey_table, tmp_path)
        lines[1] = "method teleport"
        path = tmp_path / "method.model"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    @pytest.mark.parametrize("method,prefix,edit", [
        ("mpk", "polishkrige-model", lambda ln: "polishkrige-model 1"),
        ("mpk", "family", lambda ln: "family teleport"),
        ("mpk", "n_bins", lambda ln: "n_bins 0"),
        ("mpk", "nugget", lambda ln: "nugget -1.0"),
        ("mpk", "x ", lambda ln: "x " + " ".join(reversed(ln.split()[1:]))),
        ("mpk", "0 0 ", lambda ln: "0 0 inf"),
        ("mpk", "row_effects", lambda ln: ln.rsplit(" ", 1)[0]),
        ("impk", "strengths", lambda ln: ln.rsplit(" ", 1)[0]),
        ("impk", "strengths", lambda ln: ln + " 1.0"),
        ("mpk", "converged", lambda ln: "converged 2"),
        ("mpk", "freeze_variogram", lambda ln: "freeze_variogram maybe"),
        ("mpk", "n_bins", lambda ln: "n_bins none"),
        ("mpk", "sweeps", lambda ln: "sweeps none"),
    ], ids=["version-1", "family", "n_bins", "nugget", "decreasing-x", "inf-cell",
            "short-effects", "short-strengths", "long-strengths", "converged-2",
            "bool-word", "none-for-int-knob", "none-for-sweeps"])
    def test_invalid_value_is_a_format_error(self, holey_table, tmp_path, method, prefix, edit):
        path = tmp_path / "bad.model"
        save_model(fit(holey_table, method), path)
        lines = path.read_text().splitlines()
        target = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        lines[target] = edit(lines[target])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match="bad.model"):
            load_model(path)

    @pytest.mark.parametrize("method,prefix,edit,message", [
        ("mpk", "nugget", lambda ln: f"{ln}\nnugget 5.0", r"line \d+: repeated key 'nugget'"),
        ("mpk", "nugget", lambda ln: f"{ln}\nwibble 3", r"line \d+: unknown key 'wibble'"),
        ("mpk", "neighborhood", lambda ln: f"{ln}\n[wibble]", r"unexpected section \[wibble\]"),
        ("mpk", "neighborhood", lambda ln: f"{ln}\n[spline]\nstrengths 1.0",
         r"unexpected section \[spline\]"),
        ("mpk", "nugget", lambda ln: "", r"\[variogram\] lacks nugget"),
        ("impk", "y ", lambda ln: "", r"\[lattice\] lacks y"),
    ], ids=["repeated-key", "unknown-key", "unknown-section", "spline-in-mpk", "missing-key",
            "missing-lattice-key"])
    def test_refused_line_or_section_is_named(self, holey_table, tmp_path, method, prefix,
                                              edit, message):
        # each used to load: the second key winning, the unknown key or
        # section ignored; a missing key was a bare KeyError repr
        path = tmp_path / "bad.model"
        save_model(fit(holey_table, method), path)
        lines = path.read_text().splitlines()
        target = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        lines[target] = edit(lines[target])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=rf"bad\.model.*{message}"):
            load_model(path)

    @pytest.mark.parametrize("method,section", [("mpk", "config"), ("impk", "spline")])
    def test_missing_section_is_named(self, holey_table, tmp_path, method, section):
        path = tmp_path / "bad.model"
        save_model(fit(holey_table, method), path)
        lines = path.read_text().splitlines()
        lines.remove(f"[{section}]")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=rf"missing section \[{section}\]"):
            load_model(path)

    def test_version_2_is_refused(self, holey_table, tmp_path):
        lines = self.good_lines(holey_table, tmp_path)
        lines[0] = "polishkrige-model 2"
        path = tmp_path / "v2.model"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match="v2.model"):
            load_model(path)

    def test_missing_file_reported_with_path(self, tmp_path):
        with pytest.raises(ModelFormatError, match="nope.model"):
            load_model(tmp_path / "nope.model")
