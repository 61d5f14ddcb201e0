"""The README's Python API example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_example_runs(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    monkeypatch.chdir(README.parent)
    exec(compile(blocks[0], str(README), "exec"), {})
    prediction, cv = capsys.readouterr().out.splitlines()
    value, variance = map(float, prediction.split())
    assert variance >= 0
    assert cv.split()[1:] == ["208", "0"]
