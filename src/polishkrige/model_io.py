"""Plain-text serialization of fitted surface models, and the one reader of
keyed text that the model file and the CLI config file share.

The format is versioned and self-describing: a signature line, a method
line, then bracketed sections of whitespace-separated key/value or record
lines.  [grid] holds one "k l value" record per present cell; every other
section holds its fields by name (SECTIONS): [lattice] the x and y
coordinates, the rest their object's fields in field order.  A value's text
follows its field's annotation (CODEC): floats are written with repr, which
round-trips exactly, so save -> load -> save is byte-identical; booleans are
written 0/1; "none" marks an unset field whose default is None.  Each fact
is stored once: the variogram family comes from the configuration, and
SurfaceModel rebuilds the residuals (cell minus fitted effects) and the
spline centres and ridge.

One rule reads a model section's "name value" lines and the config file's
"name=value" lines (read_keyed): a malformed line, an unknown or repeated
name, or an unreadable value is an error naming the line.
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


# keyed section -> the fields it holds, by name
SECTIONS = {
    "lattice": {"x": (np.ndarray, False), "y": (np.ndarray, False)},
    "polish": fields_of(MedianPolishFit, {"residuals"}),
    "variogram": fields_of(VariogramModel, {"family"}),
    "spline": fields_of(BiharmonicModel, {"centers", "regularization"}),
    "config": fields_of(FitConfig, {"method"}),
}


def _section(name, values):
    lines = [f"[{name}]"]
    for key, (kind, _) in SECTIONS[name].items():
        value = values[key]
        lines.append(f"{key} {'none' if value is None else CODEC[kind][0](value)}")
    return lines


def save_model(model, path):
    """Write a SurfaceModel to a versioned text file."""
    grid, lat = model.source_grid, model.source_grid.lattice
    lines = [SIGNATURE, f"method {model.method}",
             *_section("lattice", {"x": lat.x_coords, "y": lat.y_coords}), "[grid]"]
    for k, l in zip(*grid._sites[1:]):
        lines.append(f"{k} {l} {float(grid.cells[k, l])!r}")
    lines += _section("polish", vars(model.polish)) + _section("variogram", vars(model.variogram))
    if model.method == "impk":
        lines += _section("spline", vars(model.mean_component))
    lines += _section("config", vars(model.config))

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


def read_keyed(lines, fields, sep, error):
    """The values of numbered (line_no, text) "name<sep>value" lines, by
    name, each read by its field in fields (read_field).  Raises
    error(message), the message naming the line, for a line without sep, a
    name not in fields, a repeated name, or a value its field cannot read."""
    out = {}
    for line_no, raw in lines:
        name, found, text = raw.partition(sep)
        name = name.strip()
        if not found or not name:
            raise error(f"line {line_no}: expected key{sep}value")
        if name not in fields:
            raise error(f"line {line_no}: unknown key {name!r}")
        if name in out:
            raise error(f"line {line_no}: repeated key {name!r}")
        try:
            out[name] = read_field(fields[name], text.strip())
        except ValueError as exc:
            raise error(f"bad value for {name} on line {line_no}: {exc}") from None
    return out


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
    the version 1 and 2 formats, which must be refitted), a missing section
    or one the method does not use, or any malformed or invalid section: a
    line read_keyed refuses, a missing field, a repeated or non-finite [grid]
    cell.  Messages carry the path and the offending line, section or field.
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
    expected = [name for name in ("grid", *SECTIONS) if name != "spline" or method == "impk"]
    problems = ([f"missing section [{name}]" for name in expected if name not in sections]
                + [f"unexpected section [{name}]" for name in sections if name not in expected])
    if problems:
        raise ModelFormatError(f"{path}: {'; '.join(problems)}")

    try:
        read = {name: read_keyed(sections[name], SECTIONS[name], " ", ModelFormatError)
                for name in expected if name != "grid"}
        missing = [f"[{name}] lacks {key}" for name in read for key in SECTIONS[name]
                   if key not in read[name]]
        if missing:
            raise ModelFormatError("; ".join(missing))
        lattice = GridLattice(read["lattice"]["x"], read["lattice"]["y"])
        grid = GridTable(lattice, _grid_cells(sections["grid"], lattice.p, lattice.q))
        polish = polish_from_effects(grid.cells, **read["polish"])
        config = FitConfig(method=method, **read["config"])
        variogram = VariogramModel(config.family, **read["variogram"])
        return SurfaceModel(grid, config, polish, variogram, **read.get("spline", {}))
    except (ValueError, DataError, GridStructureError, ModelFormatError) as exc:
        raise ModelFormatError(f"{path}: malformed model file ({exc})") from exc
