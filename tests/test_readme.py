"""The README's Python API example runs: once as written, predicting at a
`Location2D`, and once in the plain `(x, y)` pair form the README names.
`PAPER.md` once carried the pair form; it now holds only the paper's title
and abstract, and no code.  The package's public names and its error
categories are pinned, each name the README's Python API section documents
is exported, and the Model files section names every model-file section."""

import pathlib
import re
import types

import polishkrige

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def python_block(path):
    """The one python block of a markdown file."""
    blocks = re.findall(r"```python\n(.*?)```", path.read_text(), re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def run_python_block(block, monkeypatch, capsys):
    """Run a python block from the repository root and check its two printed
    lines: a prediction, then a coal-ash LOOCV."""
    monkeypatch.chdir(ROOT)
    exec(compile(block, str(README), "exec"), {})
    prediction, cv = capsys.readouterr().out.splitlines()
    value, variance = map(float, prediction.split())
    assert variance >= 0
    assert cv.split()[1:] == ["208", "0"]


def test_python_example_runs(monkeypatch, capsys):
    run_python_block(python_block(README), monkeypatch, capsys)


def test_paper_example_runs(monkeypatch, capsys):
    # The README's example with the plain (x, y) array its text names in
    # place of the Location2D, the form PAPER.md carried until it became the
    # paper's abstract
    block = python_block(README)
    location, pair = "Location2D(7.3, 12.8)", "np.array([7.3, 12.8])"
    assert block.count(location) == 1
    assert pair in README.read_text()
    block = "import numpy as np\n" + block.replace(location, pair)
    run_python_block(block, monkeypatch, capsys)


# The package's public names: adding or dropping an export is a decision that
# changes this list.
PUBLIC = {
    "BiharmonicModel", "CvRecord", "CvReport", "DataError", "DuplicateLocationError",
    "EmpiricalVariogram", "FitConfig", "GridLattice",
    "GridStructureError", "GridTable", "KrigingPrediction", "KrigingSystem", "KrigingWeights",
    "LinearMeanModel", "Location2D", "MedianPolishFit", "ModelFormatError", "PolishKrigeError",
    "PredictionGrid", "ScatterSet", "SingularSystemError", "SkippedFold", "SurfaceModel",
    "VariogramModel", "biharmonic_fit", "covariance", "cross_validate", "decompose",
    "empirical_semivariogram", "fit", "fit_variogram", "green_function", "load_model",
    "load_observations_csv", "loocv", "ok_predict", "ok_solve", "predict", "predict_grid",
    "predict_many", "residuals_as_scatter", "rmse", "save_model", "semivariance", "to_grid",
}

# The category slug of each exported error class, the first token of the
# CLI's error line: adding, dropping or renaming one is a decision that
# changes this table.
CATEGORIES = {
    "PolishKrigeError": "error", "DataError": "bad-input",
    "DuplicateLocationError": "duplicate-location", "GridStructureError": "invalid-grid",
    "SingularSystemError": "singular-system", "ModelFormatError": "bad-model",
}

# The names the README's Python API section documents.
README_API = [
    "FitConfig", "Location2D", "fit", "load_observations_csv", "loocv", "predict", "to_grid",
    "predict_many", "cross_validate", "decompose", "empirical_semivariogram", "fit_variogram",
    "ok_predict", "KrigingSystem", "biharmonic_fit", "green_function", "save_model",
    "load_model", "mean_surface.biharmonic_eval_many", "mean_surface.linear_mean_many",
]


def test_public_names_are_pinned():
    exported = {name for name, value in vars(polishkrige).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC


def test_error_categories_are_pinned():
    exported = {name: value.category for name, value in vars(polishkrige).items()
                if isinstance(value, type) and issubclass(value, polishkrige.PolishKrigeError)}
    assert exported == CATEGORIES


def test_readme_api_names_resolve():
    text = README.read_text()
    section = text[text.index("## Python API"):text.index("## Bundled data")]
    for name in README_API:
        assert re.search(rf"\b{re.escape(name)}\b", section), name
        owner = polishkrige
        for part in name.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name


def test_model_file_sections_are_documented():
    text = README.read_text()
    section = text[text.index("## Model files"):text.index("## Python API")]
    for name in ["grid", *polishkrige.model_io.SECTIONS]:
        assert f"[{name}]" in section, name
