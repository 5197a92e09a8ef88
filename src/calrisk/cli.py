"""The command-line surface: dataset parsing and output writing only.

Subcommands:
  simulate    ground-truth simulation risk curves over a temperature grid
  evaluate    split / cross-validate / ensemble-estimate on a dataset file

Each subcommand builds its `pipeline.RunConfig` or `sim.SimConfig` from
the config flags given, before it reads any data, so a run setting's only
default is its config field's. `evaluate` parses a CSV dataset
(`load_dataset`) and hands it with its config to `pipeline.run_evaluate`.
Reports are machine-readable JSON, each family's entry with its risk curve
(`grid`: mean holdout risk and its standard error per grid point), and
optionally a flat CSV of per-fold risks for external plotting. Exit codes:
0 success, 2 input/parse or file error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .core import CANONICAL, Dataset, InputError, NumericError, softmax_rows
from .pipeline import FAMILIES, RunConfig, run_evaluate
from .sim import DEFAULT_THETAS, SimConfig, risk_curve, simulate


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _utf8_lines(fh, path):
    """The lines of the text file `fh`; InputError naming `path` when they
    are not UTF-8 (a decode error is a ValueError, which `main` does not catch)."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_dataset(path, fmt):
    """Parse a CSV of `l_0,...,l_{d-1},label` rows into a canonical dataset.

    logits-csv rows are softmaxed at temperature 1; probs-csv rows are
    checked against the simplex invariants with 1e-6 sum tolerance and then
    renormalized. The header row is optional: line 1 is one when none of
    its cells is a number. Blank lines and trailing commas are ignored; an
    empty cell before a row's last value is an error. Each row is checked
    as it is read, so an invalid row is reported with its line number, the
    first in the file when there are several; the valid rows are then
    converted as one array.
    """
    if fmt not in ("logits-csv", "probs-csv"):
        raise InputError(f"unknown format {fmt!r}")
    what = "logits" if fmt == "logits-csv" else "probabilities"
    rows = []
    width = None
    # utf-8-sig drops a leading byte-order mark, as spreadsheet programs write
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, cells in enumerate(csv.reader(_utf8_lines(fh, path)), start=1):
            cells = [c.strip() for c in cells]
            while cells and cells[-1] == "":
                cells.pop()  # trailing commas
            if not cells or (lineno == 1 and not any(map(_is_number, cells))):
                continue  # blank line or header row
            where = f"{path}:{lineno}"
            if "" in cells:
                raise InputError(f"{where}: empty cell")
            try:
                values = [float(c) for c in cells]
            except ValueError as exc:
                raise InputError(f"{where}: non-numeric cell ({exc})")
            if width is None:
                width = len(values)
                if width < 3:
                    raise InputError(f"{where}: need at least 2 classes plus a label")
            elif len(values) != width:
                raise InputError(
                    f"{where}: ragged row ({len(values)} cells, expected {width})"
                )
            vec, label = values[:-1], values[-1]
            if not label.is_integer():
                raise InputError(f"{where}: label {label} is not an integer")
            if not 0 <= label < len(vec):
                raise InputError(f"{where}: label {int(label)} out of range for d={len(vec)}")
            if not all(map(math.isfinite, vec)):
                raise InputError(f"{where}: non-finite {what}")
            if fmt == "probs-csv":
                if not all(0.0 <= v <= 1.0 for v in vec):
                    raise InputError(f"{where}: probabilities outside [0, 1]")
                total = math.fsum(vec)
                if abs(total - 1.0) > 1e-6:
                    raise InputError(f"{where}: probabilities sum to {total}, not 1")
            rows.append(values)
    if not rows:
        raise InputError(f"{path}: no data rows")
    table = np.array(rows)
    vecs, label_col = table[:, :-1], table[:, -1]
    if fmt == "logits-csv":
        probs = softmax_rows(vecs)
    else:
        probs = vecs / vecs.sum(axis=1, keepdims=True)
    return Dataset(probs, label_col.astype(np.int64), CANONICAL)


def _write_fold_csv(path, grids):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "hyper", "fold", "risk", "pairs_used", "dropped_nan"])
        for fam, grid in grids.items():
            for point in grid:
                for fold_i, rv in enumerate(point.fold_risks):
                    writer.writerow([
                        fam, point.hyper, fold_i,
                        repr(rv.value), rv.pairs_used, rv.dropped_nan,
                    ])


def _parse_float_list(text):
    try:
        return [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad numeric list {text!r} ({exc})")


def _config(cls, args, **fields):
    """A `cls` config from the given flags that name its fields, plus `fields`."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in vars(args).items() if k in names}, **fields)


def _check_outputs(outputs, inputs=()):
    """InputError unless each output path names a file in an existing
    directory, and no two of the outputs and inputs name the same file."""
    taken = {os.path.realpath(path): path for path in inputs}
    for path in filter(None, outputs):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise InputError(f"cannot write {path}: not a file in an existing directory")
        real = os.path.realpath(path)
        if real in taken:
            raise InputError(f"cannot write {path}: it is the same file as {taken[real]}")
        taken[real] = path


def _cmd_simulate(args):
    _check_outputs((args.out, args.dump_data))
    if args.seeds < 1:
        raise InputError(f"need at least 1 seed, got {args.seeds}")
    thetas = (list(DEFAULT_THETAS) if args.theta_grid is None
              else _parse_float_list(args.theta_grid))
    base = _config(SimConfig, args)
    curves = []
    for seed in range(base.seed, base.seed + args.seeds):
        sim = simulate(dataclasses.replace(base, seed=seed))
        curves.append([risk for _, risk, _ in risk_curve(sim, thetas, seed=seed)])
        if args.dump_data and seed == base.seed:
            _dump_probs_csv(args.dump_data, sim.dataset)
    curves = np.array(curves)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "risk_mean", "risk_std"])
        for i, theta in enumerate(thetas):
            writer.writerow([theta, repr(float(curves[:, i].mean())),
                             repr(float(curves[:, i].std(ddof=1) if len(curves) > 1 else 0.0))])
    best = thetas[int(np.argmin(curves.mean(axis=0)))]
    print(f"mean-risk argmin theta: {best}")
    argmins = [thetas[i] for i in np.argmin(curves, axis=1)]
    hist = {t: argmins.count(t) for t in thetas if argmins.count(t)}
    print(f"per-seed argmin counts: {hist}")
    return 0


def _dump_probs_csv(path, ds):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row, label in zip(ds.probs, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def _write_json(payload, out):
    """JSON to the `--out` file, or to stdout without one."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_evaluate(args):
    _check_outputs((args.out, args.emit_csv), inputs=(args.data,))
    cfg = _config(RunConfig, args, grids={
        fam: _parse_float_list(getattr(args, f"grid_{fam}"))
        for fam in FAMILIES if hasattr(args, f"grid_{fam}")})
    ds = load_dataset(args.data, args.format)
    report, grids = run_evaluate(cfg, ds)
    _write_json(report, args.out)
    if args.emit_csv:
        _write_fold_csv(args.emit_csv, grids)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="calrisk",
        description="Squared-calibration-error estimation with risk-based selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="ground-truth simulation risk curve",
                           argument_default=argparse.SUPPRESS)
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--d", type=int)
    p_sim.add_argument("--alpha", type=float)
    p_sim.add_argument("--model-temp", type=float)
    p_sim.add_argument("--seeds", type=int, default=100)
    p_sim.add_argument("--seed", type=int, help="first seed")
    p_sim.add_argument("--theta-grid", type=str, default=None)
    p_sim.add_argument("--dump-data", type=str, default=None,
                       help="write the first seed's predictions as probs-csv")
    p_sim.add_argument("--out", type=str, required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_eval = sub.add_parser("evaluate", help="full calibration-evaluation pipeline",
                            argument_default=argparse.SUPPRESS)
    p_eval.add_argument("--data", type=str, required=True)
    p_eval.add_argument("--format", choices=["logits-csv", "probs-csv"],
                        default="logits-csv")
    p_eval.add_argument("--mode", choices=["tce", "cce"])
    p_eval.add_argument("--test-fraction", type=float)
    p_eval.add_argument("--k", type=int, dest="k_folds", metavar="K")
    p_eval.add_argument("--gamma", type=float)
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--out", type=str, default=None)
    p_eval.add_argument("--families", type=lambda text: tuple(
        f.strip() for f in text.split(",") if f.strip()))
    p_eval.add_argument("--linear-risk", action="store_true")
    p_eval.add_argument("--emit-csv", type=str, default=None)
    for fam in FAMILIES:
        p_eval.add_argument(f"--grid-{fam}", type=str,
                            help=f"comma-separated grid override for {fam}")
    p_eval.set_defaults(func=_cmd_evaluate)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
