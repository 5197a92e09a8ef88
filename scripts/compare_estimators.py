#!/usr/bin/env python3
"""Compare estimator families on a simulated dataset.

Simulates temperature-miscalibrated predictions, runs the full
split / cross-validate / ensemble pipeline for each requested family, and
prints the selected hyperparameter, the validation square-root risk
(x100), and the final calibration estimate. The same dataset is evaluated
in top-label mode (binning and kernel families on scalar confidences) and
canonical mode (kernel families on full probability vectors).

Usage:
    python scripts/compare_estimators.py --n 2000 --seed 0
"""

import argparse

from calrisk.pipeline import RunConfig, run_evaluate
from calrisk.sim import SimConfig, simulate


def print_report(title, report):
    print(f"\n{title}")
    print(f"{'family':8s} {'best hyper':>12s} {'sqrt risk x100':>16s} {'estimate':>10s}")
    for fam, entry in report["families"].items():
        hyper = entry["best_hyper"]
        hyper_s = f"{hyper:.3g}" if isinstance(hyper, float) else str(hyper)
        risk_s = f"{entry['val_sqrt_risk_x100']:.3f} ± {entry['val_sqrt_risk_x100_se']:.3f}"
        print(f"{fam:8s} {hyper_s:>12s} {risk_s:>16s} {entry['estimate']:>10.4f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--d", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    sim = simulate(SimConfig(n=args.n, d=args.d, seed=args.seed))
    ds = sim.dataset
    print(f"simulated dataset: n={args.n}, d={args.d}, seed={args.seed}")

    report, _ = run_evaluate(RunConfig(mode="tce", seed=args.seed), ds)
    print_report("top-label confidence calibration (tce)", report)

    cce_cfg = RunConfig(
        mode="cce", families=("kde", "kkr", "ukkr", "sim"), seed=args.seed
    )
    report, _ = run_evaluate(cce_cfg, ds)
    print_report("canonical calibration (cce)", report)


if __name__ == "__main__":
    main()
