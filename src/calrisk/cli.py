"""Dataset ingestion, run configuration, and the command-line surface.

Subcommands:
  simulate    ground-truth simulation risk curves over a temperature grid
  evaluate    split / cross-validate / ensemble-estimate on a dataset file
  risk-curve  per-hyperparameter holdout risks for one estimator family

Reports are machine-readable JSON (optionally with a flat CSV of per-fold
risks for external plotting). Exit codes: 0 success, 2 input/parse error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CANONICAL,
    Dataset,
    InputError,
    NumericError,
    softmax,
    top_label_dataset,
)
from .pipeline import cross_validate, final_estimate, split_dataset
from .sim import DEFAULT_THETAS, SimConfig, risk_curve, simulate

REPORT_FAMILIES = ("bin", "bin15", "kde", "kkr", "ukkr", "sim")


@dataclass
class RunConfig:
    mode: str = "tce"                      # tce | cce
    families: tuple = ("kde", "kkr", "ukkr")
    test_fraction: float = 0.2
    k_folds: int = 5
    gamma: float = 0.5
    seed: int = 0
    grids: dict = field(default_factory=dict)  # per-family overrides
    linear_risk: bool = False
    model_temp: float = 0.3                # only used by the sim family

    def __post_init__(self):
        if self.mode not in ("tce", "cce"):
            raise InputError(f"unknown mode {self.mode!r}")
        for fam in self.families:
            if fam not in REPORT_FAMILIES:
                raise InputError(f"unknown family {fam!r}")
        if self.mode == "cce" and any(f in ("bin", "bin15") for f in self.families):
            raise InputError("binning families are only valid in tce mode")
        if self.mode == "tce" and "sim" in self.families:
            raise InputError("the sim family needs canonical predictions (cce mode)")


def load_dataset(path, fmt):
    """Parse a CSV of `l_0,...,l_{d-1},label` rows into a canonical dataset.

    logits-csv rows are softmaxed at temperature 1; probs-csv rows are
    checked against the simplex invariants with 1e-6 sum tolerance and then
    renormalized. The header row is optional.
    """
    if fmt not in ("logits-csv", "probs-csv"):
        raise InputError(f"unknown format {fmt!r}")
    rows = []
    width = None
    with open(path, newline="") as fh:
        for lineno, cells in enumerate(csv.reader(fh), start=1):
            cells = [c.strip() for c in cells if c.strip() != ""]
            if not cells:
                continue
            if lineno == 1:
                try:
                    [float(c) for c in cells]
                except ValueError:
                    continue  # header row
            try:
                values = [float(c) for c in cells]
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: non-numeric cell ({exc})")
            if width is None:
                width = len(values)
                if width < 3:
                    raise InputError(f"{path}:{lineno}: need at least 2 classes plus a label")
            elif len(values) != width:
                raise InputError(
                    f"{path}:{lineno}: ragged row ({len(values)} cells, expected {width})"
                )
            label = values[-1]
            if label != int(label):
                raise InputError(f"{path}:{lineno}: label {label} is not an integer")
            rows.append((lineno, np.array(values[:-1]), int(label)))
    if not rows:
        raise InputError(f"{path}: no data rows")
    d = width - 1
    probs, labels = [], []
    for lineno, vec, label in rows:
        if not 0 <= label < d:
            raise InputError(f"{path}:{lineno}: label {label} out of range for d={d}")
        if fmt == "logits-csv":
            if not np.all(np.isfinite(vec)):
                raise InputError(f"{path}:{lineno}: non-finite logits")
            probs.append(softmax(vec))
        else:
            if np.any(vec < 0.0) or np.any(vec > 1.0):
                raise InputError(f"{path}:{lineno}: probabilities outside [0, 1]")
            s = vec.sum()
            if abs(s - 1.0) > 1e-6:
                raise InputError(f"{path}:{lineno}: probabilities sum to {s}, not 1")
            probs.append(vec / s)
        labels.append(label)
    return Dataset(np.stack(probs), np.array(labels), CANONICAL)


def _family_entry(cv, est):
    sqrt_risks = np.array([np.sqrt(r.value) * 100.0 for r in cv.fold_risks])
    return {
        "best_hyper": cv.best_hyper,
        "val_sqrt_risk_x100": float(sqrt_risks.mean()),
        "val_sqrt_risk_x100_se": float(sqrt_risks.std(ddof=1) / np.sqrt(len(sqrt_risks))),
        "estimate": est.value,
        "estimate_squared": est.squared_value,
        "estimate_clipped": est.clipped,
        "estimate_fold_se": est.fold_se,
        "risk_dropped_nan": int(sum(r.dropped_nan for r in cv.fold_risks)),
        "estimate_dropped_nan": est.dropped_nan,
        "skipped_grid_points": [
            {"hyper": h, "reason": why} for h, why in cv.skipped
        ],
    }


def run_evaluate(cfg, ds):
    """Execute split -> per-family CV -> ensemble estimate; return a report."""
    work = top_label_dataset(ds) if cfg.mode == "tce" else ds
    tune, test = split_dataset(work, cfg.test_fraction, cfg.seed)
    report = {
        "metadata": {
            "mode": cfg.mode,
            "families": list(cfg.families),
            "n_total": len(work),
            "n_tune": len(tune),
            "n_test": len(test),
            "test_fraction": cfg.test_fraction,
            "k_folds": cfg.k_folds,
            "gamma": cfg.gamma,
            "seed": cfg.seed,
            "linear_risk": cfg.linear_risk,
            "num_classes": ds.dim,
        },
        "families": {},
    }
    cv_results = {}
    for fam in cfg.families:
        base = "bin" if fam == "bin15" else fam
        grid = cfg.grids.get(fam)
        if grid is None:
            grid = [15] if fam == "bin15" else None
        cv = cross_validate(
            tune, base, grid=grid, k=cfg.k_folds, gamma=cfg.gamma,
            seed=cfg.seed, linear=cfg.linear_risk, model_temp=cfg.model_temp,
        )
        est = final_estimate(cv.fold_models, test)
        report["families"][fam] = _family_entry(cv, est)
        cv_results[fam] = cv
    return report, cv_results


def _write_fold_csv(path, cv_results):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "hyper", "fold", "risk", "pairs_used", "dropped_nan"])
        for fam, cv in cv_results.items():
            for point in cv.grid:
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


def _cmd_simulate(args):
    thetas = _parse_float_list(args.theta_grid) if args.theta_grid else list(DEFAULT_THETAS)
    curves = []
    argmins = []
    for seed in range(args.seed, args.seed + args.seeds):
        cfg = SimConfig(n=args.n, d=args.d, alpha=args.alpha,
                        model_temp=args.model_temp, seed=seed)
        sim = simulate(cfg)
        curve = risk_curve(sim, thetas, seed=seed)
        curves.append([risk for _, risk, _ in curve])
        argmins.append(thetas[int(np.argmin(curves[-1]))])
        if args.dump_data:
            _dump_probs_csv(args.dump_data, sim.dataset)
            args.dump_data = None  # first seed only
    curves = np.array(curves)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta", "risk_mean", "risk_std"])
        for i, theta in enumerate(thetas):
            writer.writerow([theta, repr(float(curves[:, i].mean())),
                             repr(float(curves[:, i].std(ddof=1) if len(curves) > 1 else 0.0))])
    best = thetas[int(np.argmin(curves.mean(axis=0)))]
    print(f"mean-risk argmin theta: {best}")
    hist = {t: argmins.count(t) for t in thetas if argmins.count(t)}
    print(f"per-seed argmin counts: {hist}")
    return 0


def _dump_probs_csv(path, ds):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row, label in zip(ds.probs, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def _cmd_evaluate(args):
    ds = load_dataset(args.data, args.format)
    grids = {}
    for fam in args.families.split(","):
        override = getattr(args, f"grid_{fam.replace('-', '_')}", None)
        if override:
            grids[fam] = _parse_float_list(override)
    cfg = RunConfig(
        mode=args.mode,
        families=tuple(f.strip() for f in args.families.split(",") if f.strip()),
        test_fraction=args.test_fraction,
        k_folds=args.k,
        gamma=args.gamma,
        seed=args.seed,
        grids=grids,
        linear_risk=args.linear_risk,
        model_temp=args.model_temp,
    )
    report, cv_results = run_evaluate(cfg, ds)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.emit_csv:
        _write_fold_csv(args.emit_csv, cv_results)
    return 0


def _cmd_risk_curve(args):
    ds = load_dataset(args.data, args.format)
    if args.mode == "tce":
        ds = top_label_dataset(ds)
    grid = _parse_float_list(args.grid) if args.grid else None
    tune, _ = split_dataset(ds, args.test_fraction, args.seed)
    cv = cross_validate(tune, args.family, grid=grid, k=args.k,
                        gamma=args.gamma, seed=args.seed)
    rows = [
        {"hyper": p.hyper, "mean_risk": p.mean_risk, "risk_se": p.risk_se}
        for p in cv.grid
    ]
    out = {"family": args.family, "mode": args.mode, "seed": args.seed,
           "best_hyper": cv.best_hyper, "grid": rows}
    text = json.dumps(out, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="calrisk",
        description="Squared-calibration-error estimation with risk-based selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="ground-truth simulation risk curve")
    p_sim.add_argument("--n", type=int, default=500)
    p_sim.add_argument("--d", type=int, default=5)
    p_sim.add_argument("--alpha", type=float, default=0.04)
    p_sim.add_argument("--model-temp", type=float, default=0.3)
    p_sim.add_argument("--seeds", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=0, help="first seed")
    p_sim.add_argument("--theta-grid", type=str, default=None)
    p_sim.add_argument("--dump-data", type=str, default=None,
                       help="write the first seed's predictions as probs-csv")
    p_sim.add_argument("--out", type=str, required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_eval = sub.add_parser("evaluate", help="full calibration-evaluation pipeline")
    p_eval.add_argument("--data", type=str, required=True)
    p_eval.add_argument("--format", choices=["logits-csv", "probs-csv"],
                        default="logits-csv")
    p_eval.add_argument("--mode", choices=["tce", "cce"], default="tce")
    p_eval.add_argument("--families", type=str, default="bin,bin15,kde,kkr,ukkr")
    p_eval.add_argument("--test-fraction", type=float, default=0.2)
    p_eval.add_argument("--k", type=int, default=5)
    p_eval.add_argument("--gamma", type=float, default=0.5)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--model-temp", type=float, default=0.3)
    p_eval.add_argument("--linear-risk", action="store_true")
    p_eval.add_argument("--out", type=str, default=None)
    p_eval.add_argument("--emit-csv", type=str, default=None)
    for fam in REPORT_FAMILIES:
        p_eval.add_argument(f"--grid-{fam}", type=str, default=None,
                            help=f"comma-separated grid override for {fam}")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_curve = sub.add_parser("risk-curve", help="holdout risks per grid point")
    p_curve.add_argument("--data", type=str, required=True)
    p_curve.add_argument("--format", choices=["logits-csv", "probs-csv"],
                         default="logits-csv")
    p_curve.add_argument("--mode", choices=["tce", "cce"], default="tce")
    p_curve.add_argument("--family", type=str, required=True)
    p_curve.add_argument("--grid", type=str, default=None)
    p_curve.add_argument("--test-fraction", type=float, default=0.2)
    p_curve.add_argument("--k", type=int, default=5)
    p_curve.add_argument("--gamma", type=float, default=0.5)
    p_curve.add_argument("--seed", type=int, default=0)
    p_curve.add_argument("--out", type=str, default=None)
    p_curve.set_defaults(func=_cmd_risk_curve)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
