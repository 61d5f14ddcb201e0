"""Batch command-line front end.

Three subcommands: ``fit`` ingests a CSV and writes a serialized model plus
a short summary, ``surface`` evaluates a saved model on a uniform output
grid (CSV, optionally ASCII PGM heatmaps), and ``cv`` runs leave-one-out
cross-validation and emits a per-point report.  All output is
deterministic: identical inputs and flags give byte-identical files.

Exit codes: 0 success, 1 pipeline or data error (stderr gets a one-line
``<category>: <message>``), 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .errors import DataError, PolishKrigeError
from .kriging import FAMILIES
from .model_io import load_model, save_model
from .predictor import METHODS, FitConfig, cross_validate, fit, predict_grid
from .spatial_core import load_observations_csv, to_grid

def _fmt6(v):
    return f"{v:.6f}"


def resolve_input(path):
    """Find an input file: as given, else under $POLISHKRIGE_DATA or ./data."""
    if os.path.exists(path):
        return path
    if not os.path.isabs(path):
        root = os.environ.get("POLISHKRIGE_DATA") or os.path.join(".", "data")
        candidate = os.path.join(root, path)
        if os.path.exists(candidate):
            return candidate
        raise DataError(f"cannot find input {path!r} (also tried {candidate!r})")
    raise DataError(f"cannot find input {path!r}")


def parse_resolution(text):
    """'PxQ' -> (rows, cols), both at least 2."""
    parts = text.lower().split("x")
    try:
        rows, cols = int(parts[0]), int(parts[1])
    except (ValueError, IndexError):
        raise argparse.ArgumentTypeError(f"expected PxQ, got {text!r}") from None
    if len(parts) != 2 or rows < 2 or cols < 2:
        raise argparse.ArgumentTypeError(f"resolution must be PxQ with P, Q >= 2, got {text!r}")
    return rows, cols


def parse_config_file(path):
    """Read key=value lines; '#' starts a comment, blank lines are skipped."""
    try:
        with open(path, "r") as fh:
            raw = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read config file {path}: {exc}") from exc
    out = {}
    for line_no, line in enumerate(raw, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise DataError(f"{path}: line {line_no}: expected key=value")
        if key not in _KNOB_FLAGS:
            raise DataError(f"{path}: line {line_no}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def _parse_bool(text):
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# the one list of fit knobs: flag name (also its config-file key) ->
# (FitConfig field, argparse options of the flag)
_KNOB_FLAGS = {
    "method": ("method", dict(choices=list(METHODS), help="prediction method")),
    "variogram": ("family", dict(choices=list(FAMILIES), help="variogram family")),
    "bins": ("n_bins", dict(type=int, metavar="N", help="variogram bins (default 15)")),
    "max-lag": ("max_lag", dict(type=float, metavar="R",
                                help="variogram cutoff (default: half the max pair distance)")),
    "mp-tol": ("mp_tol", dict(type=float, metavar="T",
                              help="median-polish tolerance (default: 1e-9 x data spread)")),
    "max-sweeps": ("max_sweeps", dict(type=int, metavar="N",
                                      help="median-polish sweep budget (default 100)")),
    "epsilon": ("epsilon", dict(type=float, metavar="E",
                                help="spline ridge regularization (default 0)")),
    "freeze-variogram": ("freeze_variogram", dict(
        action="store_true", default=None,
        help="fit the variogram once on the full data during cv")),
    "neighborhood": ("neighborhood", dict(type=int, metavar="K",
                                          help="restrict kriging to the K nearest residuals")),
}


def build_config(args):
    """Merge the optional config file and explicit flags into a FitConfig.

    Flags win over file values; anything unset keeps the FitConfig default.
    Unparseable file values and any value FitConfig refuses are pipeline
    errors (exit 1); unparseable flag values never get here (argparse
    rejects them with exit 2).
    """
    file_cfg = parse_config_file(args.config) if getattr(args, "config", None) else {}
    values = {}
    for key, (field, options) in _KNOB_FLAGS.items():
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            values[field] = flag
        elif key in file_cfg:
            # a file value is parsed by the flag's type, or as a boolean for a switch
            cast = _parse_bool if "action" in options else options.get("type", str)
            try:
                values[field] = cast(file_cfg[key])
            except ValueError as exc:
                raise DataError(f"config file: bad value for {key}: {exc}") from None
    return FitConfig(**values)


def write_lines(lines, path=None):
    """Write each string followed by a newline, one at a time, to a file or
    standard output."""
    text = (line + "\n" for line in lines)
    if path is None:
        sys.stdout.writelines(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.writelines(text)


def grid_csv_lines(lattice, array):
    """Long-format x,y,value lines in row-major order: the header, then one
    string per lattice row holding that row's lines."""
    x_prefixes = [f"{x:.6f}," for x in lattice.x_coords]
    lines = ["x,y,value"]
    for y, row in zip(lattice.y_coords, array):
        rest = f"{y:.6f},%.6f"
        template = "\n".join([x + rest for x in x_prefixes])
        lines.append(template % tuple(row.tolist()))
    return lines


def pgm_lines(array):
    """ASCII PGM (P2) of an array min-max scaled to 0..255, top row = max y."""
    vmin = float(array.min())
    vmax = float(array.max())
    if vmax > vmin:
        scaled = np.rint((array - vmin) / (vmax - vmin) * 255).astype(int)
    else:
        scaled = np.zeros(array.shape, dtype=int)
    p, q = array.shape
    template = " ".join(["%d"] * q)
    return ["P2", f"{q} {p}", "255"] + [template % tuple(row) for row in scaled[::-1].tolist()]


def render_cv_csv(report):
    """Per-point CSV lines plus the final RMSE summary line."""
    lines = ["x,y,observed,predicted,error"]
    for r in report.per_point:
        lines.append(
            f"{_fmt6(r.location.x)},{_fmt6(r.location.y)},"
            f"{_fmt6(r.observed)},{_fmt6(r.predicted)},{_fmt6(r.error)}"
        )
    lines.append(f"RMSE,{report.method.upper()},{_fmt6(report.rmse)}")
    return lines


def render_cv_comparison(reports):
    lines = ["method,rmse,folds,skipped"]
    for r in reports:
        lines.append(f"{r.method.upper()},{_fmt6(r.rmse)},{r.n_folds},{len(r.skipped)}")
    return lines


def _load_grid(args):
    scatter = load_observations_csv(resolve_input(args.input))
    return scatter, to_grid(scatter)


def cmd_fit(args):
    config = build_config(args)
    scatter, grid = _load_grid(args)
    model = fit(grid, config.method, config)
    save_model(model, args.out)

    vg = model.variogram
    state = "converged" if model.polish.converged else "not converged"
    print(f"method {model.method}")
    print(f"observations {scatter.n}")
    print(f"grid {grid.lattice.p} rows x {grid.lattice.q} cols")
    print(f"median polish: {model.polish.sweeps} sweeps, {state}")
    print(
        f"variogram {vg.family}: nugget {_fmt6(vg.nugget)} "
        f"partial_sill {_fmt6(vg.partial_sill)} range {_fmt6(vg.range)}"
    )
    if vg.degenerate:
        print("warning: degenerate variogram (residuals have no variability)")
    print(f"model written to {args.out}")
    return 0


def cmd_surface(args):
    model = load_model(args.model)
    grid = predict_grid(model, args.resolution)

    base, ext = os.path.splitext(args.out)
    variance_out = args.variance_out or f"{base}_variance{ext or '.csv'}"
    write_lines(grid_csv_lines(grid.lattice, grid.values), args.out)
    write_lines(grid_csv_lines(grid.lattice, grid.variances), variance_out)
    written = [args.out, variance_out]
    if args.pgm:
        value_pgm = f"{base}.pgm"
        variance_pgm = f"{os.path.splitext(variance_out)[0]}.pgm"
        write_lines(pgm_lines(grid.values), value_pgm)
        write_lines(pgm_lines(grid.variances), variance_pgm)
        written += [value_pgm, variance_pgm]

    rows, cols = args.resolution
    print(f"surface {rows} x {cols} ({model.method}) written to: " + ", ".join(written))
    return 0


def cmd_cv(args):
    config = build_config(args)
    _, grid = _load_grid(args)
    methods = ("mpk", "impk") if args.both else (config.method,)
    reports = cross_validate(grid, methods, config)

    for report in reports:
        if report.skipped:
            print(f"skipped folds ({report.method}): {len(report.skipped)}", file=sys.stderr)
        if report.unconverged:
            print(f"unconverged folds ({report.method}): {report.unconverged}", file=sys.stderr)

    if args.both:
        if args.out:
            base, ext = os.path.splitext(args.out)
            for report in reports:
                write_lines(render_cv_csv(report), f"{base}.{report.method}{ext}")
        write_lines(render_cv_comparison(reports))
    else:
        write_lines(render_cv_csv(reports[0]), args.out)
    return 0


def _add_config_flags(sp):
    for key, (_, options) in _KNOB_FLAGS.items():
        sp.add_argument(f"--{key}", **options)
    sp.add_argument("--config", metavar="FILE",
                    help="key=value config file; flags take precedence")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polishkrige",
        description="Spatial prediction via median-polish trend plus residual kriging.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit_p = sub.add_parser("fit", help="fit a model from a CSV and serialize it")
    fit_p.add_argument("input", help="observation CSV (x,y,z columns)")
    fit_p.add_argument("--out", required=True, metavar="FILE", help="model file to write")
    _add_config_flags(fit_p)
    fit_p.set_defaults(func=cmd_fit)

    surf_p = sub.add_parser("surface", help="evaluate a saved model on an output grid")
    surf_p.add_argument("model", help="model file from fit")
    surf_p.add_argument("--resolution", required=True, type=parse_resolution,
                        metavar="PxQ", help="output rows x cols")
    surf_p.add_argument("--out", required=True, metavar="FILE", help="value grid CSV")
    surf_p.add_argument("--variance-out", metavar="FILE",
                        help="variance grid CSV (default: <out>_variance)")
    surf_p.add_argument("--pgm", action="store_true",
                        help="also write min-max scaled ASCII PGM heatmaps")
    surf_p.set_defaults(func=cmd_surface)

    cv_p = sub.add_parser("cv", help="leave-one-out cross-validation report")
    cv_p.add_argument("input", help="observation CSV (x,y,z columns)")
    cv_p.add_argument("--out", metavar="FILE", help="report CSV (default: stdout)")
    cv_p.add_argument("--both", action="store_true",
                      help="run mpk and impk and print a comparison")
    _add_config_flags(cv_p)
    cv_p.set_defaults(func=cmd_cv)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PolishKrigeError as exc:
        print(f"{exc.category}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io-error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
