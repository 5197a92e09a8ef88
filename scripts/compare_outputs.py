#!/usr/bin/env python3
"""Check that two source trees of calrisk write byte-identical outputs.

Runs the same commands with `python -m calrisk` once with each tree's
`src` directory on PYTHONPATH, and compares every file they write, with
each command's standard output, byte for byte:

  evaluate --mode tce (default families)        report and --emit-csv
  the tce evaluate of kkr,ukkr with lambda=0    report and --emit-csv
    in both grids, which skips it (singular Gram)
  evaluate --mode cce, kde,kkr,ukkr,sim, d=10   report and --emit-csv
  the d=10 cce evaluate of kkr with             report and --emit-csv
    lambda=1e-300 (its canonical spectrum
    keeps no null space to scale, so the
    point is scored, not skipped)
  the tce evaluate of kkr with lambda=1e-300,   report and --emit-csv
    whose holdout risk overflows, so it is
    skipped
  evaluate --mode cce, kde,sim, n=4000          report and --emit-csv
  the d=10 cce evaluate with --linear-risk      report and --emit-csv
  evaluate --mode tce --linear-risk             report and --emit-csv
    (the top-label circular-pair risk of bin,
    bin15, kde, kkr and ukkr)
  evaluate --mode tce --format probs-csv of     report and --emit-csv
    the tce logits softmaxed by numpy here
  the d=10 cce evaluate of kde,kkr,ukkr at      report and --emit-csv
    k=7 (uneven folds) and gamma=2
  the d=10 cce evaluate of kde,kkr,sim with     report and --emit-csv
    every config flag away from its default,
    and a sim grid of the default thetas times
    0.3/0.5, so the sim factor theta/t is the
    default grid's at temperature 0.5
  a cce evaluate of kkr,ukkr on 100 rows of     report and --emit-csv
    flat, unsharpened predictions, d=10, whose
    fold Grams are full rank: pivoting gives
    up, each canonical spectrum is the whole
    Gram's eigh, and lambda=0 is scored
  simulate --n 500 --seeds 40                   curve CSV
  simulate with every config flag and          curve CSV
    --theta-grid away from its default

The evaluate inputs are the benchmark's seeded logits (perfbench/inputs.py)
at instance 31, so the outputs are those of perfbench's evaluate workloads.
Exits 0 when every file is identical, 1 naming each file that differs, and
2 when a command fails or runs longer than TIMEOUT_S seconds.

For each differing JSON or CSV file it also says how far the file moved:
the largest relative difference over its numeric fields, and whether any
non-numeric field differs. Non-numeric fields are keys, CSV headers,
strings (skip reasons, family names), booleans, and the grid points a
report names (`best_hyper` and `hyper`), which are compared exactly.

Usage:
    python scripts/compare_outputs.py PARENT_SRC CHANGE_SRC [--workdir DIR]
"""

import argparse
import csv
import filecmp
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
INSTANCE = 31
# each command takes a few seconds; one that runs this long has hung
TIMEOUT_S = 300
# input name -> perfbench's `sample_logits` arguments but the seed: the
# sizes of its evaluate workloads, and a small full-rank canonical input
INPUTS = {"tce": dict(n=1200, d=5), "cce-d10": dict(n=1200, d=10), "kde": dict(n=4000, d=5),
          # flat latent rows, not sharpened: every 64-row fold Gram is full rank
          "cce-flat": dict(n=100, d=10, alpha=1.0, model_temp=1.0)}
CCE_D10 = ["evaluate", "--mode", "cce", "--families", "kde,kkr,ukkr,sim"]
# case -> (input name or None, argv without the input and output paths)
CASES = {
    "evaluate-tce": ("tce", ["evaluate", "--mode", "tce"]),
    # the skip path: its NumericError messages are in the report
    "evaluate-tce-skips": ("tce", ["evaluate", "--mode", "tce", "--families", "kkr,ukkr",
                                   "--grid-kkr=0,1e-3,1", "--grid-ukkr=0,1e-6,1"]),
    "evaluate-cce-d10": ("cce-d10", CCE_D10),
    # lambda=1e-300 on a truncated canonical spectrum: scored, finite
    "evaluate-cce-d10-overflow": ("cce-d10", ["evaluate", "--mode", "cce", "--families",
                                              "kkr", "--grid-kkr=1e-300,1e-3,1"]),
    # the overflow skip path: the squared errors at lambda=1e-300 overflow
    "evaluate-tce-overflow": ("tce", ["evaluate", "--mode", "tce", "--families",
                                      "kkr", "--grid-kkr=1e-300,1e-3,1"]),
    "evaluate-kde": ("kde", ["evaluate", "--mode", "cce", "--families", "kde,sim"]),
    "evaluate-cce-d10-linear": ("cce-d10", CCE_D10 + ["--linear-risk"]),
    "evaluate-tce-linear": ("tce", ["evaluate", "--mode", "tce", "--linear-risk"]),
    # the probs-csv loader: its checks and its renormalization
    "evaluate-tce-probs": ("tce-probs", ["evaluate", "--mode", "tce",
                                         "--format", "probs-csv"]),
    # 960 tuning rows in 7 folds of 138 or 137: pins the fold construction
    # and the default grids' n_train, which the 5-fold cases do not vary
    "evaluate-cce-d10-k7": ("cce-d10", ["evaluate", "--mode", "cce", "--families",
                                        "kde,kkr,ukkr", "--k", "7", "--gamma", "2"]),
    # every evaluate config flag away from its default (--linear-risk has
    # its own case), so a flag the CLI failed to pass on would show; the sim
    # grid is DEFAULT_THETAS * 0.3/0.5, which moves the sim factor theta/t
    "evaluate-cce-d10-flags": ("cce-d10", ["evaluate", "--mode", "cce", "--families",
                                           "kde,kkr,sim", "--test-fraction", "0.25",
                                           "--k", "4", "--gamma", "1", "--seed", "7",
                                           "--grid-sim=0.15,0.3,0.54,0.6,0.66,0.9,1.2"]),
    "evaluate-cce-full-rank": ("cce-flat", ["evaluate", "--mode", "cce", "--families",
                                            "kkr,ukkr", "--grid-kkr=0,1e-3,1",
                                            "--grid-ukkr=0,1e-3,1"]),
    "simulate": (None, ["simulate", "--n", "500", "--d", "5", "--alpha", "0.04",
                        "--seeds", "40", "--seed", str(40 * INSTANCE)]),
    "simulate-flags": (None, ["simulate", "--n", "300", "--d", "4", "--alpha", "0.1",
                              "--model-temp", "0.5", "--seeds", "5", "--seed", "3",
                              "--theta-grid", "0.5,1,2"]),
}


def load_inputs():
    """perfbench/inputs.py as a module, without writing bytecode under perfbench/."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_inputs(workdir):
    """The logits-csv inputs of INPUTS, and the tce input as probs-csv."""
    inputs = load_inputs()
    paths = {}
    for name, sizes in INPUTS.items():
        logits, labels = inputs.sample_logits(**sizes, seed=INSTANCE)
        paths[name] = workdir / f"input-{name}.csv"
        inputs.write_logits_csv(paths[name], logits, labels)
        if name == "tce":
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            paths["tce-probs"] = workdir / "input-tce-probs.csv"
            inputs.write_logits_csv(paths["tce-probs"], e / e.sum(axis=1, keepdims=True),
                                    labels)
    return paths


def run_cases(src, outdir, inputs):
    """Run every case with `src` on PYTHONPATH; None, or the first failure."""
    outdir.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    for case, (data, argv) in CASES.items():
        argv = list(argv)
        if data is not None:
            argv += ["--data", str(inputs[data])]
        if argv[0] == "evaluate":
            argv += ["--out", str(outdir / f"{case}.json"),
                     "--emit-csv", str(outdir / f"{case}.csv")]
        else:
            argv += ["--out", str(outdir / f"{case}.csv")]
        try:
            proc = subprocess.run([sys.executable, "-m", "calrisk", *argv], env=env,
                                  cwd=outdir, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"{case} did not finish in {TIMEOUT_S} s with {src}"
        if proc.returncode != 0:
            return f"{case} exited {proc.returncode} with {src}: {proc.stderr.strip()}"
        (outdir / f"{case}.stdout").write_text(proc.stdout)
    return None


# numbers that name a grid point rather than measure anything
EXACT_KEYS = ("best_hyper", "hyper")
# non-numeric differences listed by name before the rest are only counted
SHOWN = 3


def json_fields(value, path=""):
    """{path: leaf} of a parsed JSON value."""
    if isinstance(value, dict):
        items = ((f"{path}.{k}" if path else str(k), v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return {path: value}
    return {p: leaf for sub, v in items for p, leaf in json_fields(v, sub).items()}


def csv_fields(path):
    """{path: cell} of a CSV file with a header row; numeric cells as floats."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    fields = {"header": tuple(rows[0])} if rows else {}
    for i, row in enumerate(rows[1:], start=1):
        for j, cell in enumerate(row):
            name = rows[0][j] if j < len(rows[0]) else str(j)
            try:
                fields[f"row {i}.{name}"] = float(cell)
            except ValueError:
                fields[f"row {i}.{name}"] = cell
    return fields


def _numeric(path, value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and path.split(".")[-1] not in EXACT_KEYS)


def _rel_diff(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def how_far(parent, change):
    """One line on how far a differing JSON or CSV file moved, or None."""
    if parent.suffix == ".json":
        a, b = (json_fields(json.loads(p.read_text())) for p in (parent, change))
    elif parent.suffix == ".csv":
        a, b = csv_fields(parent), csv_fields(change)
    else:
        return None
    numeric, moved, worst, where, other = 0, 0, 0.0, None, []
    for path in sorted(a.keys() | b.keys()):
        if path not in a or path not in b:
            other.append(path)
        elif _numeric(path, a[path]) and _numeric(path, b[path]):
            numeric += 1
            rel = _rel_diff(float(a[path]), float(b[path]))
            moved += rel > 0.0
            if rel > worst:
                worst, where = rel, path
        elif a[path] != b[path]:
            other.append(path)
    line = (f"{moved} of {numeric} numeric fields moved, "
            f"max relative difference {worst:.3g}" + (f" ({where})" if where else ""))
    if not other:
        return line + "; non-numeric fields identical"
    shown = ", ".join(other[:SHOWN]) + (f" and {len(other) - SHOWN} more"
                                        if len(other) > SHOWN else "")
    return line + f"; non-numeric fields differ: {shown}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workdir", type=Path, default=None,
                        help="keep inputs and outputs here (default: a temporary directory)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = (args.workdir or Path(tmp)).resolve()
        workdir.mkdir(parents=True, exist_ok=True)
        inputs = write_inputs(workdir)
        sides = {"parent": args.parent_src.resolve(), "change": args.change_src.resolve()}
        for side, src in sides.items():
            failure = run_cases(src, workdir / side, inputs)
            if failure:
                print(failure, file=sys.stderr)
                return 2
        names = sorted({p.name for side in sides for p in (workdir / side).iterdir()})
        differ = [name for name in names
                  if not ((workdir / "parent" / name).is_file()
                          and (workdir / "change" / name).is_file()
                          and filecmp.cmp(workdir / "parent" / name,
                                          workdir / "change" / name, shallow=False))]
        for name in differ:
            parent, change = workdir / "parent" / name, workdir / "change" / name
            both = parent.is_file() and change.is_file()
            detail = how_far(parent, change) if both else "written by one side only"
            print(f"differs: {name}" + (f": {detail}" if detail else ""))
    if differ:
        return 1
    print(f"identical: {len(names)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
