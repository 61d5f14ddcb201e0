"""The Python API examples of the README and of PAPER.md run as written."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def run_python_block(path, monkeypatch, capsys):
    """Run the one python block of a markdown file from the repository root
    and check its two printed lines: a prediction, then a coal-ash LOOCV."""
    blocks = re.findall(r"```python\n(.*?)```", path.read_text(), re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    exec(compile(blocks[0], str(path), "exec"), {})
    prediction, cv = capsys.readouterr().out.splitlines()
    value, variance = map(float, prediction.split())
    assert variance >= 0
    assert cv.split()[1:] == ["208", "0"]


def test_python_example_runs(monkeypatch, capsys):
    run_python_block(README, monkeypatch, capsys)


def test_paper_example_runs(monkeypatch, capsys):
    # PAPER.md predicts at a plain (x, y) array rather than a Location2D
    run_python_block(ROOT / "PAPER.md", monkeypatch, capsys)
