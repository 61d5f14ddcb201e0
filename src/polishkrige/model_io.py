"""Plain-text serialization of fitted surface models.

The format is versioned and self-describing: a signature line, a method
line, then bracketed sections of whitespace-separated key/value or record
lines.  Floats are written with repr, which round-trips exactly, so
save -> load -> save is byte-identical.  Each fact is stored once: the
residuals (cell minus fitted effects), the spline centres and ridge
(predictor.saved_spline), the variogram family (from the configuration)
and its degenerate flag (a zero sill) are rebuilt.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from .errors import DataError, GridStructureError, ModelFormatError
from .kriging import VariogramModel
from .median_polish import polish_from_effects, residuals_as_scatter
from .predictor import METHODS, FitConfig, SurfaceModel, saved_spline
from .spatial_core import GridLattice, GridTable

SIGNATURE = "polishkrige-model 3"


def _fmt(v):
    return repr(float(v))


# [config] holds every FitConfig field but method, in field order, as text
# written and read by the field's annotation; "none" stands for None only
# where None is the field's default
_TEXT = {str: (str, str), int: (str, int), float: (_fmt, float),
         bool: (lambda v: str(int(v)), lambda t: bool(int(t)))}
_HINTS = typing.get_type_hints(FitConfig)
_KNOBS = [(f.name, f.default is None, *_TEXT[_HINTS[f.name]])
          for f in dataclasses.fields(FitConfig) if f.name != "method"]


def _vector(values):
    return " ".join(_fmt(v) for v in values)


def save_model(model, path):
    """Write a SurfaceModel to a versioned text file."""
    grid = model.source_grid
    lat = grid.lattice
    polish = model.polish
    vg = model.variogram

    lines = [SIGNATURE, f"method {model.method}"]
    lines.append("[lattice]")
    lines.append(f"x {_vector(lat.x_coords)}")
    lines.append(f"y {_vector(lat.y_coords)}")

    lines.append("[grid]")
    for k, l in zip(*np.nonzero(grid.present_mask)):
        lines.append(f"{k} {l} {_fmt(grid.cells[k, l])}")

    lines.append("[polish]")
    lines.append(f"overall {_fmt(polish.overall)}")
    lines.append(f"row_effects {_vector(polish.row_effects)}")
    lines.append(f"col_effects {_vector(polish.col_effects)}")
    lines.append(f"sweeps {polish.sweeps}")
    lines.append(f"converged {int(polish.converged)}")

    lines.append("[variogram]")
    lines.append(f"nugget {_fmt(vg.nugget)}")
    lines.append(f"partial_sill {_fmt(vg.partial_sill)}")
    lines.append(f"range {_fmt(vg.range)}")

    if model.method == "impk":
        lines.append("[spline]")
        lines.append(f"strengths {_vector(model.mean_component.strengths)}")

    lines.append("[config]")
    for name, _, write, _ in _KNOBS:
        value = getattr(model.config, name)
        lines.append(f"{name} {'none' if value is None else write(value)}")

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
        cells[k, l] = v
    return cells


def _floats(text):
    return np.array([float(t) for t in text.split()])


def load_model(path):
    """Read a SurfaceModel back from a file written by save_model.

    Raises ModelFormatError for a missing file, wrong signature (including
    the version 1 and 2 formats, which must be refitted), or any malformed or
    invalid section; messages carry the offending line number or the path.
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
    if method not in METHODS:
        raise ModelFormatError(f"{path}: unknown method {method!r}")

    sections = _split_sections(lines[2:])
    required = ["lattice", "grid", "polish", "variogram", "config"]
    if method == "impk":
        required.append("spline")
    for name in required:
        if name not in sections:
            raise ModelFormatError(f"{path}: missing section [{name}]")

    try:
        latkv = _keyed(sections["lattice"], "lattice")
        lattice = GridLattice(_floats(latkv["x"]), _floats(latkv["y"]))
        grid = GridTable(lattice, _grid_cells(sections["grid"], lattice.p, lattice.q))

        pkv = _keyed(sections["polish"], "polish")
        polish = polish_from_effects(
            grid.cells,
            float(pkv["overall"]),
            _floats(pkv["row_effects"]),
            _floats(pkv["col_effects"]),
            int(pkv["sweeps"]),
            bool(int(pkv["converged"])),
        )

        ckv = _keyed(sections["config"], "config")
        config = FitConfig(method=method, **{
            name: None if optional and ckv[name] == "none" else read(ckv[name])
            for name, optional, _, read in _KNOBS})

        vkv = _keyed(sections["variogram"], "variogram")
        nugget, psill = float(vkv["nugget"]), float(vkv["partial_sill"])
        variogram = VariogramModel(config.family, nugget, psill, float(vkv["range"]),
                                   degenerate=nugget + psill == 0)

        residual_scatter = residuals_as_scatter(polish, lattice)
        spline = None
        if method == "impk":
            strengths = _floats(_keyed(sections["spline"], "spline")["strengths"])
            spline = saved_spline(grid, config, strengths)
    except (KeyError, ValueError, DataError, GridStructureError) as exc:
        raise ModelFormatError(f"{path}: malformed model file ({exc})") from exc

    return SurfaceModel(grid, config, polish, residual_scatter, variogram, spline)
