#!/usr/bin/env python3
"""Check every benchmark instance of some workloads against perfbench's reference.

Runs each of perfbench's INSTANCES input instances of every named workload
once at 1 BLAS thread and once at the usable core count, through
`perfbench/run.py`'s `prepare` and `run_op`, in a temporary directory, so
each operation gets the benchmark's own correctness check (best_hyper and
skipped_grid_points exact, estimate_squared within its tolerance of
`perfbench/reference.json`). Nothing under perfbench/ is written.

Prints every failed operation with its problems, then per workload and
family the worst relative move of estimate_squared against the reference
(of simulate, the worst move of its mean risk curve), and the count of
failed operations. Exits 1 when any operation failed, 0 otherwise.

Usage:
    python scripts/check_reference.py evaluate-kde,evaluate-cce-d10,evaluate-tce
"""

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# read perfbench without writing bytecode into it, here or in the children
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import run  # noqa: E402


def _rel(got, want):
    return abs(got - want) / abs(want) if want else abs(got - want)


def moves(prep, op):
    """{family: relative move against the reference} of a passed operation."""
    ref = run.load_reference(prep)["threads"][str(op["threads"])]
    if run.WORKLOADS[prep.workload].kind == "evaluate":
        got = json.loads(op["product"].read_text())["families"]
        return {fam: _rel(got[fam]["estimate_squared"], want["estimate_squared"])
                for fam, want in ref["families"].items()}
    got = checks.simulate_summary(op["stdout"], op["product"])["risk_mean"]
    return {"risk_mean": max(_rel(g, w) for g, w in zip(got, ref["risk_mean"]))}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", help="comma-separated perfbench workload names")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(run.WORKLOADS))
    if unknown:
        parser.error(f"unknown workloads {unknown}; known: {sorted(run.WORKLOADS)}")
    thread_counts = sorted({1, run.usable_cores()})
    failed = total = 0
    with tempfile.TemporaryDirectory(prefix="check-reference-") as tmp:
        workdir = Path(tmp)
        for name in names:
            worst = {}
            for instance in range(run.INSTANCES):
                prep = run.prepare(name, instance, workdir)
                for threads in thread_counts:
                    op = run.run_op(prep, workdir, f"{name}-{instance}-t{threads}", threads)
                    total += 1
                    if op["problems"]:
                        failed += 1
                        print(f"FAILED {name} instance {instance} at {threads} BLAS threads: "
                              + "; ".join(op["problems"]), flush=True)
                        continue
                    for fam, move in moves(prep, op).items():
                        worst[fam] = max(worst.get(fam, 0.0), move)
            for fam, move in sorted(worst.items()):
                print(f"{name} {fam}: worst move {move:.3g} relative", flush=True)
    print(f"{failed} failed operations of {total} "
          f"({run.INSTANCES} instances x {len(names)} workloads x threads {thread_counts})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
