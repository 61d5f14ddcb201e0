"""Every FitConfig knob reaches the CLI flags, the config file and the
model file, by the same name, and comes back unchanged."""

from dataclasses import fields

import pytest

from polishkrige import FitConfig, ModelFormatError, fit, load_model, save_model
from polishkrige.cli import _KNOB_FLAGS, build_config, build_parser

# every knob off its default, by flag name; a switch is given as "yes"
OFF_DEFAULT = {"method": "impk", "variogram": "gaussian", "bins": "9", "max-lag": "3.5",
               "mp-tol": "1e-06", "max-sweeps": "40", "epsilon": "0.05",
               "freeze-variogram": "yes", "neighborhood": "7"}
KNOBS = [f for f in fields(FitConfig) if f.name != "method"]


def parsed_config(argv):
    return build_config(build_parser().parse_args(["fit", "obs.csv", "--out", "m", *argv]))


@pytest.fixture
def off_default_config():
    flags = []
    for key, value in OFF_DEFAULT.items():
        flags += [f"--{key}"] if value == "yes" else [f"--{key}", value]
    return parsed_config(flags)


def saved_lines(model, path):
    save_model(model, path)
    return path.read_text().splitlines()


def test_cli_table_names_each_field_once():
    table_fields = [field for field, _ in _KNOB_FLAGS.values()]
    assert sorted(table_fields) == sorted(f.name for f in fields(FitConfig))


def test_every_knob_set_by_flags_is_off_its_default(off_default_config):
    assert OFF_DEFAULT.keys() == _KNOB_FLAGS.keys()
    for f in fields(FitConfig):
        assert getattr(off_default_config, f.name) != f.default, f.name


def test_config_file_gives_the_same_config(off_default_config, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key}={value}\n" for key, value in OFF_DEFAULT.items()))
    assert parsed_config(["--config", str(cfg)]) == off_default_config


def test_config_survives_the_model_file(off_default_config, holey_table, tmp_path):
    path = tmp_path / "knobs.model"
    save_model(fit(holey_table, off_default_config.method, off_default_config), path)
    assert load_model(path).config == off_default_config


def test_config_section_is_every_knob_by_field_name(holey_table, tmp_path):
    lines = saved_lines(fit(holey_table, "mpk"), tmp_path / "m.model")
    section = lines[lines.index("[config]") + 1:]
    assert [ln.split()[0] for ln in section] == [f.name for f in KNOBS]


def test_float_knobs_are_written_as_floats(holey_table, tmp_path):
    lines = saved_lines(fit(holey_table, "mpk", FitConfig(max_lag=5, mp_tol=1)),
                        tmp_path / "m.model")
    assert {"max_lag 5.0", "mp_tol 1.0", "epsilon 0.0"} <= set(lines)


@pytest.mark.parametrize("name", [f.name for f in KNOBS])
def test_missing_config_key_is_bad_model(holey_table, tmp_path, name):
    path = tmp_path / "m.model"
    lines = saved_lines(fit(holey_table, "mpk"), path)
    path.write_text("\n".join(ln for ln in lines if ln.split()[0] != name) + "\n")
    with pytest.raises(ModelFormatError, match=name) as exc:
        load_model(path)
    assert exc.value.category == "bad-model"


@pytest.mark.parametrize("name", [f.name for f in KNOBS if f.default is not None])
def test_none_for_a_required_knob_is_bad_model(holey_table, tmp_path, name):
    path = tmp_path / "m.model"
    lines = saved_lines(fit(holey_table, "mpk"), path)
    path.write_text("\n".join(f"{name} none" if ln.split()[0] == name else ln
                              for ln in lines) + "\n")
    with pytest.raises(ModelFormatError) as exc:
        load_model(path)
    assert exc.value.category == "bad-model"
