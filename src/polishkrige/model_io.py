"""Plain-text serialization of fitted surface models, and the one text form
of a value that the model file and the CLI config file share.

The format is versioned and self-describing: a signature line, a method
line, then bracketed sections of whitespace-separated key/value or record
lines.  [lattice] holds the x and y coordinates and [grid] one "k l value"
record per present cell; every other section holds its object's fields by
name, in field order (SECTIONS).  A value's text follows its field's
annotation (CODEC): floats are written with repr, which round-trips exactly,
so save -> load -> save is byte-identical; booleans are written 0/1; "none"
marks an unset field whose default is None.  Each fact is stored once: the
variogram family comes from the configuration, and SurfaceModel rebuilds the
residuals (cell minus fitted effects) and the spline centres and ridge.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from .errors import DataError, GridStructureError, ModelFormatError
from .kriging import VariogramModel
from .mean_surface import BiharmonicModel
from .median_polish import MedianPolishFit, polish_from_effects
from .predictor import FitConfig, SurfaceModel
from .spatial_core import GridLattice, GridTable

SIGNATURE = "polishkrige-model 3"


def _read_bool(text):
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# annotation -> (write, read) of a value's text
CODEC = {
    str: (str, str),
    int: (str, int),
    float: (lambda v: repr(float(v)), float),
    bool: (lambda v: str(int(v)), _read_bool),
    np.ndarray: (lambda v: " ".join(repr(float(x)) for x in v),
                 lambda t: np.array([float(x) for x in t.split()])),
}
_write_floats, _read_floats = CODEC[np.ndarray]


def fields_of(cls, skip=()):
    """{field name: (annotation, whether None is its default)} of a
    dataclass, in field order, less the names in skip."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is None)
            for f in dataclasses.fields(cls) if f.name not in skip}


def read_field(field, text):
    """The value of a field's text; ValueError if the text is not one."""
    kind, optional = field
    return None if optional and text.lower() == "none" else CODEC[kind][1](text)


# section -> the fields of its dataclass that it holds
SECTIONS = {
    "polish": fields_of(MedianPolishFit, {"residuals"}),
    "variogram": fields_of(VariogramModel, {"family"}),
    "spline": fields_of(BiharmonicModel, {"centers", "regularization"}),
    "config": fields_of(FitConfig, {"method"}),
}


def _section(name, obj):
    lines = [f"[{name}]"]
    for key, (kind, _) in SECTIONS[name].items():
        value = getattr(obj, key)
        lines.append(f"{key} {'none' if value is None else CODEC[kind][0](value)}")
    return lines


def save_model(model, path):
    """Write a SurfaceModel to a versioned text file."""
    grid = model.source_grid
    lines = [SIGNATURE, f"method {model.method}", "[lattice]",
             f"x {_write_floats(grid.lattice.x_coords)}",
             f"y {_write_floats(grid.lattice.y_coords)}", "[grid]"]
    for k, l in zip(*np.nonzero(grid.present_mask)):
        lines.append(f"{k} {l} {float(grid.cells[k, l])!r}")
    lines += _section("polish", model.polish) + _section("variogram", model.variogram)
    if model.method == "impk":
        lines += _section("spline", model.mean_component)
    lines += _section("config", model.config)

    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _split_sections(lines):
    sections = {}
    current = None
    for line_no, raw in lines:
        if raw.startswith("[") and raw.endswith("]"):
            current = raw[1:-1]
            if current in sections:
                raise ModelFormatError(f"line {line_no}: repeated section [{current}]")
            sections[current] = []
        elif current is None:
            raise ModelFormatError(f"line {line_no}: content before first section")
        else:
            sections[current].append((line_no, raw))
    return sections


def _keyed(section_lines, section):
    out = {}
    for line_no, raw in section_lines:
        key, _, rest = raw.partition(" ")
        if not rest:
            raise ModelFormatError(f"line {line_no}: bad entry in [{section}]")
        out[key] = rest
    return out


def _read_section(sections, name):
    values = _keyed(sections[name], name)
    return {key: read_field(field, values[key]) for key, field in SECTIONS[name].items()}


def _grid_cells(section_lines, p, q):
    cells = np.full((p, q), np.nan)
    for line_no, raw in section_lines:
        parts = raw.split()
        try:
            k, l, v = int(parts[0]), int(parts[1]), float(parts[2])
        except (ValueError, IndexError):
            raise ModelFormatError(f"line {line_no}: bad record in [grid]") from None
        if not (0 <= k < p and 0 <= l < q):
            raise ModelFormatError(f"line {line_no}: cell ({k}, {l}) outside {p} x {q}")
        if not np.isnan(cells[k, l]):
            raise ModelFormatError(f"line {line_no}: repeated cell ({k}, {l})")
        if not np.isfinite(v):
            raise ModelFormatError(f"line {line_no}: non-finite value at cell ({k}, {l})")
        cells[k, l] = v
    return cells


def load_model(path):
    """Read a SurfaceModel back from a file written by save_model.

    Raises ModelFormatError for a missing file, wrong signature (including
    the version 1 and 2 formats, which must be refitted), or any malformed or
    invalid section, including a repeated or non-finite [grid] cell; messages
    carry the offending line number or the path, and both for a bad record.
    """
    try:
        with open(path, "r") as fh:
            raw_lines = fh.read().splitlines()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc

    lines = [(i, ln.strip()) for i, ln in enumerate(raw_lines, start=1)]
    lines = [(i, ln) for i, ln in lines if ln]
    if not lines or lines[0][1] != SIGNATURE:
        raise ModelFormatError(f"{path}: not a {SIGNATURE!r} file")
    if len(lines) < 2 or not lines[1][1].startswith("method "):
        raise ModelFormatError(f"{path}: missing method line")
    method = lines[1][1].split(" ", 1)[1]

    sections = _split_sections(lines[2:])
    for name in ["lattice", "grid", *SECTIONS]:
        if name not in sections and (name != "spline" or method == "impk"):
            raise ModelFormatError(f"{path}: missing section [{name}]")

    try:
        latkv = _keyed(sections["lattice"], "lattice")
        lattice = GridLattice(_read_floats(latkv["x"]), _read_floats(latkv["y"]))
        grid = GridTable(lattice, _grid_cells(sections["grid"], lattice.p, lattice.q))
        polish = polish_from_effects(grid.cells, **_read_section(sections, "polish"))
        config = FitConfig(method=method, **_read_section(sections, "config"))
        variogram = VariogramModel(config.family, **_read_section(sections, "variogram"))
        spline = _read_section(sections, "spline") if method == "impk" else {}
        return SurfaceModel(grid, config, polish, variogram, **spline)
    except (KeyError, ValueError, DataError, GridStructureError, ModelFormatError) as exc:
        raise ModelFormatError(f"{path}: malformed model file ({exc})") from exc
