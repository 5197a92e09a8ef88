"""Record the reference outputs the benchmark checks every operation against.

    python3 perfbench/record_reference.py

Runs every workload on each of run.INSTANCES input instances, once with the
BLAS threads pinned to the usable cores and once with one thread, and
writes perfbench/reference.json with the outputs of both: an operation is
checked against the reference of its own thread count. How far the two
thread counts disagree (selected hyperparameters, largest relative
estimate difference) is stored as `thread_sensitivity`.
Re-recording is only right on the commit that defines the benchmark: on
any later commit it would hide a change of the program's results.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from checks import check_evaluate, check_simulate, evaluate_summary, simulate_summary


def _summary(prep, op):
    """Reference values of one operation, which must pass the reference-free checks."""
    wl = run.WORKLOADS[prep.workload]
    if not op["problems"]:
        if wl.kind == "evaluate":
            report = json.loads(op["product"].read_text())
            op["problems"] = check_evaluate(report, wl.families)
            summary = {"families": evaluate_summary(report)}
        else:
            summary = simulate_summary(op["stdout"], op["product"])
            op["problems"] = check_simulate(summary, wl.seeds)
    if op["problems"]:
        raise SystemExit(f"{prep.workload} instance {prep.instance}: {op['problems']}")
    return summary


def _rel(a, b):
    return abs(a - b) / abs(b) if b else abs(a - b)


def _compare(many, one):
    """(structural mismatches, largest relative value difference)."""
    if "families" in many:
        bad = [fam for fam, e in many["families"].items()
               if (e["best_hyper"], e["skipped_grid_points"])
               != (one["families"][fam]["best_hyper"], one["families"][fam]["skipped_grid_points"])]
        diff = max(_rel(one["families"][f]["estimate_squared"], e["estimate_squared"])
                   for f, e in many["families"].items())
        return bad, diff
    bad = [] if (many["argmin"], many["counts"]) == (one["argmin"], one["counts"]) else ["counts"]
    return bad, max(_rel(a, b) for a, b in zip(one["risk_mean"], many["risk_mean"]))


def main():
    threads = run.usable_cores()
    workdir = run.OUT / "reference"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    table = {"commit": run.git_commit(), "source_sha256": run.source_sha256(),
             "threads": [threads, 1], "workloads": {}, "thread_sensitivity": {}}
    for name in run.WORKLOADS:
        entries, worst, mismatched = {}, 0.0, []
        for instance in range(run.INSTANCES):
            prep = run.prepare(name, instance, workdir)
            many = _summary(prep, run.execute(prep, workdir, f"{name}-{instance}-a", threads))
            one = _summary(prep, run.execute(prep, workdir, f"{name}-{instance}-b", 1))
            bad, diff = _compare(many, one)
            worst = max(worst, diff)
            if bad:
                mismatched.append({"instance": instance, "differ": bad})
            entries[str(instance)] = {"input_sha256": prep.input_sha256,
                                      "threads": {str(threads): many, "1": one}}
            print(f"{name} {instance}: rel diff 1 vs {threads} threads {diff:.3g}"
                  f"{' MISMATCH ' + str(bad) if bad else ''}", flush=True)
        table["workloads"][name] = entries
        table["thread_sensitivity"][name] = {"max_rel_diff": worst, "mismatched": mismatched}
    run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
