"""calrisk benchmark: the CLI end to end, and a traced per-layer breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each operation is one CLI command
(`calrisk.cli.main(argv)`) in a fresh interpreter, one at a time (a closed
loop with one client), with the BLAS/OpenMP thread variables pinned to the
number of usable cores. Operations repeat until S seconds have passed, and
every one is checked for correctness (see checks.py).

--trace 0 prints the end-to-end metrics, each the median over the run's
operations:
  wall_s       wall time of the command after import: load, run, write
  cpu_s        user + system CPU time of that process over the same span
  peak_rss_mb  peak resident set of the process
  setup_s      median time for a fresh interpreter to import calrisk.cli
--trace 1 runs rounds of (untraced, traced, untraced on 1 BLAS thread)
operations and prints the per-layer metrics of spans.py, the tracing
overhead and the single-thread BLAS baseline.

Round k of a run uses input instance (seed + k) mod INSTANCES; the
reference outputs of every instance were recorded from the commit that
defined the benchmark (reference.json).
The last line of standard output is the JSON result; the full record of
the run, with provenance and per-operation values, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROGRAM = ROOT / "src" / "calrisk"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
from child import THREAD_VARS  # noqa: E402
from spans import layer_metrics  # noqa: E402

INSTANCES = 32
SETUP_REPEATS = 5
OP_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    kind: str                  # evaluate | simulate
    n: int
    d: int
    cli_args: tuple = ()
    families: tuple = ()       # evaluate: families the report must hold
    seeds: int = 0             # simulate: simulation seeds per command
    tiny_n: int = 0            # self-test size
    tiny_seeds: int = 0


# Sizes keep one operation at 2-4 s on a 2-core machine, so a run holds
# several operations and its medians are steady. Each workload is heavy on
# one layer and light on another:
#   evaluate-tce      default command; 20 Gram eigh of numerical rank ~6
#   evaluate-cce-d10  same estimators path, Gram of high numerical rank,
#                     18-point kkr/ukkr grids
#   evaluate-kde      no eigh; Dirichlet-KDE regression and dense risk
#   simulate          only path through sim.risk_curve/risk.empirical_risk
WORKLOADS = {
    "evaluate-tce": Workload("evaluate", n=1200, d=5, cli_args=("--mode", "tce"),
                             families=("bin", "bin15", "kde", "kkr", "ukkr"), tiny_n=150),
    "evaluate-cce-d10": Workload("evaluate", n=1200, d=10,
                                 cli_args=("--mode", "cce", "--families", "kde,kkr,ukkr,sim"),
                                 families=("kde", "kkr", "ukkr", "sim"), tiny_n=150),
    "evaluate-kde": Workload("evaluate", n=4000, d=5,
                             cli_args=("--mode", "cce", "--families", "kde,sim"),
                             families=("kde", "sim"), tiny_n=150),
    "simulate": Workload("simulate", n=500, d=5, seeds=40, tiny_n=500, tiny_seeds=5),
}


def usable_cores():
    return len(os.sched_getaffinity(0))


def child_env(threads):
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    return env


def git_commit():
    """The checked-out commit, read from .git without running git; None outside a repo."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_sha256():
    h = hashlib.sha256()
    for path in sorted(PROGRAM.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Prepared:
    workload: str
    instance: int
    tiny: bool
    input_sha256: str | None
    argv: tuple                # calrisk argv, output paths filled per operation


def prepare(name, instance, workdir, tiny=False):
    """Generate the instance's input and return the command to run."""
    wl = WORKLOADS[name]
    n = wl.tiny_n if tiny else wl.n
    if wl.kind == "simulate":
        seeds = wl.tiny_seeds if tiny else wl.seeds
        argv = ("simulate", "--n", str(n), "--d", str(wl.d), "--alpha", "0.04",
                "--seeds", str(seeds), "--seed", str(instance * seeds))
        return Prepared(name, instance, tiny, None, argv)
    logits, labels = inputs.sample_logits(n, wl.d, seed=instance)
    data = workdir / f"input-{name}-{instance}.csv"
    sha = inputs.write_logits_csv(data, logits, labels)
    return Prepared(name, instance, tiny, sha, ("evaluate", "--data", str(data)) + wl.cli_args)


def load_reference(prep):
    if prep.tiny:
        return None
    table = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    return table.get("workloads", {}).get(prep.workload, {}).get(str(prep.instance))


def execute(prep, workdir, op_id, threads, traced=False):
    """Run one command in a fresh interpreter; problems lists any failure to run."""
    out = workdir / f"op{op_id}"
    out.mkdir()
    product = out / ("report.json" if prep.argv[0] == "evaluate" else "curve.csv")
    argv = list(prep.argv) + ["--out", str(product)]
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(out / "result.json")]
    if traced:
        cmd += ["--spans", str(out / "spans.json"), "--run-id", f"{workdir.name}-op{op_id}"]
    cmd += ["--", *argv]
    op = {"id": op_id, "threads": threads, "traced": traced, "argv": argv, "problems": [],
          "product": product, "stdout": ""}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(threads), capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        op["problems"].append(f"timed out after {OP_TIMEOUT_S} s")
        return op
    op["stdout"] = proc.stdout
    if proc.returncode != 0 or not (out / "result.json").is_file():
        op["problems"].append(f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return op
    op.update(json.loads((out / "result.json").read_text()))
    if op["rc"] != 0:
        op["problems"].append(f"calrisk exited {op['rc']}: {proc.stderr.strip()[-500:]}")
    elif traced:
        op["layers"] = layer_metrics(json.loads((out / "spans.json").read_text()))
    return op


def run_op(prep, workdir, op_id, threads, traced=False):
    """Run one command and check its output against the reference."""
    op = execute(prep, workdir, op_id, threads, traced)
    if not op["problems"]:
        op["problems"] = check_output(prep, op["product"], op["stdout"], threads)
    return op


def check_output(prep, product, stdout, threads):
    entry = load_reference(prep)
    wl = WORKLOADS[prep.workload]
    problems = []
    ref = None
    if not prep.tiny:
        # kkr/ukkr estimates depend on BLAS rounding, which depends on the
        # thread count (thread_sensitivity in reference.json), so an
        # operation is checked against the reference of its thread count
        ref = (entry or {}).get("threads", {}).get(str(threads))
        if ref is None:
            return [f"no reference recorded for instance {prep.instance} at {threads} BLAS threads"]
        if entry["input_sha256"] != prep.input_sha256:
            problems.append("generated input differs from the recorded one")
    try:
        if wl.kind == "evaluate":
            report = json.loads(product.read_text())
            return problems + checks.check_evaluate(report, wl.families, ref and ref["families"])
        seeds = wl.tiny_seeds if prep.tiny else wl.seeds
        return problems + checks.check_simulate(checks.simulate_summary(stdout, product), seeds, ref)
    except (OSError, ValueError, KeyError, SyntaxError) as exc:
        return problems + [f"unreadable output: {exc!r}"]


def time_import(threads):
    t0 = perf_counter()
    # a failing import also fails every operation, which the result reports
    subprocess.run([sys.executable, str(HERE / "child.py"), "--import-only"], cwd=ROOT,
                   env=child_env(threads), capture_output=True, timeout=OP_TIMEOUT_S)
    return perf_counter() - t0


def _median(ops, key):
    values = [op[key] for op in ops if key in op]
    return statistics.median(values) if values else float("nan")


def measure(name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (result line, full record)."""
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    threads = usable_cores()
    setup = [] if trace else [time_import(threads) for _ in range(SETUP_REPEATS)]
    rounds = ([(threads, False), (threads, True), (1, False)] if trace
              else [(threads, False)])
    # successive rounds take successive instances, so that a run's medians
    # do not rest on the timing quirks of one input
    preps = {}
    ops = []
    start = perf_counter()
    while not ops or perf_counter() - start < seconds:
        instance = (seed + len(ops) // len(rounds)) % INSTANCES
        if instance not in preps:
            preps[instance] = prepare(name, instance, workdir, tiny)
        for op_threads, traced in rounds:
            ops.append(run_op(preps[instance], workdir, len(ops), op_threads, traced))
    failed = sum(1 for op in ops if op["problems"])
    plain = [op for op in ops if not op["traced"] and op["threads"] == threads]
    if trace:
        traced_ops = [op for op in ops if op.get("layers")]
        single = [op for op in ops if op["threads"] == 1]
        names = traced_ops[0]["layers"] if traced_ops else {}
        metrics = {m: {"value": statistics.median(op["layers"][m][0] for op in traced_ops),
                       "unit": unit} for m, (_, unit) in names.items()}
        t_par, t_one = _median(plain, "wall_s"), _median(single, "wall_s")
        t_traced = _median(traced_ops, "wall_s")
        metrics.update({
            "blas.threads1.wall_s": {"value": t_one, "unit": "s"},
            "blas.parallel_eff": {"value": t_one / (threads * t_par), "unit": "ratio"},
            "trace.wall_s": {"value": t_traced, "unit": "s"},
            "trace.untraced_wall_s": {"value": t_par, "unit": "s"},
            "trace.overhead_s": {"value": t_traced - t_par, "unit": "s"},
        })
    else:
        metrics = {
            "wall_s": {"value": _median(plain, "wall_s"), "unit": "s"},
            "cpu_s": {"value": _median(plain, "cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": _median(plain, "peak_rss_mb"), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    line = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    versions = next((op["versions"] for op in ops if "versions" in op), None)
    record = {
        "result": line,
        "provenance": {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "argv": sys.argv, "commit": git_commit(), "source_sha256": source_sha256(),
            "input_sha256": {i: p.input_sha256 for i, p in preps.items()}, "nproc": threads,
            "blas_threads": threads, "versions": versions,
        },
        "setup_s": setup,
        "ops": [{k: v for k, v in op.items() if k not in ("layers", "product", "stdout")}
                for op in ops],
    }
    (workdir / "record.json").write_text(json.dumps(record, indent=1))
    return line, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PROGRAM / "cli.py").is_file():
        print(f"error: the program is not here ({PROGRAM.relative_to(ROOT)}/cli.py missing); "
              "run from the root of a calrisk checkout", file=sys.stderr)
        return 2
    line, record = measure(args.workload, args.seed, args.seconds, args.trace)
    for op in record["ops"]:
        status = "ok" if not op["problems"] else "FAILED " + "; ".join(op["problems"])
        print(f"op {op['id']}: threads={op['threads']} traced={op['traced']} "
              f"wall_s={op.get('wall_s', float('nan')):.4f} {status}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
