import numpy as np
import pytest

from polishkrige import (
    FitConfig,
    GridLattice,
    GridTable,
    ModelFormatError,
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
    ], ids=["version-1", "family", "n_bins", "nugget", "decreasing-x", "inf-cell",
            "short-effects", "short-strengths", "long-strengths"])
    def test_invalid_value_is_a_format_error(self, holey_table, tmp_path, method, prefix, edit):
        path = tmp_path / "bad.model"
        save_model(fit(holey_table, method), path)
        lines = path.read_text().splitlines()
        target = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        lines[target] = edit(lines[target])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match="bad.model"):
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
