"""Correctness checks on the program's outputs.

Every operation the benchmark runs is checked here; an operation with a
non-empty problem list counts as failed. The reference values come from
`reference.json`, which `record_reference.py` wrote from the commit that
defined the benchmark, so a later change that is fast but wrong shows up
as failed operations.
"""

from __future__ import annotations

import ast
import csv
import math

# Tolerance on each family's estimate_squared against the reference:
# |got - ref| <= ESTIMATE_RTOL * |ref| + ESTIMATE_ATOL. At a fixed BLAS
# thread count the outputs repeat bit for bit, and every operation is
# checked against the reference of its own thread count, so the tolerance
# only has to absorb last-digit noise. 1e-6 is the bound the test suite
# sets for two evaluation paths of one estimator (criterion 5), and it is
# far below the fold standard errors of the fitted families' estimates
# (1e-2 relative and up on these workloads).
# It is not wide enough to hide a change of rounding: between 1 and 2 BLAS
# threads the tce kkr/ukkr estimates move by up to 1e-1 relative
# (thread_sensitivity in reference.json), because the small-lambda end of
# their grids amplifies rounding noise in the Gram eigenvalues. A change
# that moves them like that changes the program's results, and shows here.
ESTIMATE_RTOL = 1e-6
ESTIMATE_ATOL = 1e-12
# the simulate command's risks do not move between thread counts at all
RISK_RTOL = 1e-9


def _close(got, ref, rtol, atol=0.0):
    return math.isfinite(got) and abs(got - ref) <= rtol * abs(ref) + atol


def evaluate_summary(report):
    """The parts of an evaluate report the reference pins down."""
    return {
        fam: {
            "best_hyper": entry["best_hyper"],
            "skipped_grid_points": entry["skipped_grid_points"],
            "estimate_squared": entry["estimate_squared"],
        }
        for fam, entry in report["families"].items()
    }


def check_evaluate(report, families, ref=None):
    """Problems with an evaluate report; an empty list means correct."""
    problems = []
    got = report.get("families", {})
    for fam in families:
        entry = got.get(fam)
        if entry is None:
            problems.append(f"{fam}: missing from the report")
            continue
        for key in ("estimate", "estimate_squared"):
            value = entry.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{fam}: {key} is {value!r}, not finite")
        if ref is None:
            continue
        want = ref[fam]
        if entry.get("best_hyper") != want["best_hyper"]:
            problems.append(f"{fam}: best_hyper {entry.get('best_hyper')!r} != reference {want['best_hyper']!r}")
        if entry.get("skipped_grid_points") != want["skipped_grid_points"]:
            problems.append(f"{fam}: skipped_grid_points differ from the reference")
        value = entry.get("estimate_squared")
        if isinstance(value, (int, float)) and not _close(value, want["estimate_squared"],
                                                          ESTIMATE_RTOL, ESTIMATE_ATOL):
            problems.append(f"{fam}: estimate_squared {value!r} outside tolerance of "
                            f"reference {want['estimate_squared']!r}")
    extra = set(got) - set(families)
    if extra:
        problems.append(f"unrequested families in the report: {sorted(extra)}")
    return problems


def simulate_summary(stdout, curve_path):
    """Parse the simulate command's printed argmins and its curve CSV."""
    argmin = counts = None
    for line in stdout.splitlines():
        if line.startswith("mean-risk argmin theta:"):
            argmin = float(line.split(":", 1)[1])
        elif line.startswith("per-seed argmin counts:"):
            counts = ast.literal_eval(line.split(":", 1)[1].strip())
    with open(curve_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {
        "argmin": argmin,
        "counts": {str(k): v for k, v in (counts or {}).items()},
        "theta": [float(r["theta"]) for r in rows],
        "risk_mean": [float(r["risk_mean"]) for r in rows],
    }


def check_simulate(summary, seeds, ref=None):
    """Problems with a simulate run; an empty list means correct."""
    problems = []
    if summary["argmin"] != 1.0:
        problems.append(f"mean-risk argmin theta is {summary['argmin']}, not 1.0")
    if sum(summary["counts"].values()) != seeds:
        problems.append(f"per-seed argmin counts {summary['counts']} do not cover {seeds} seeds")
    if not summary["risk_mean"] or not all(math.isfinite(r) for r in summary["risk_mean"]):
        problems.append("risk curve missing or not finite")
    if ref is None:
        return problems
    if summary["counts"] != ref["counts"]:
        problems.append(f"per-seed argmin counts {summary['counts']} != reference {ref['counts']}")
    if summary["theta"] != ref["theta"]:
        problems.append("theta grid differs from the reference")
    elif not all(_close(g, w, RISK_RTOL) for g, w in zip(summary["risk_mean"], ref["risk_mean"])):
        problems.append("mean risk curve outside tolerance of the reference")
    return problems
