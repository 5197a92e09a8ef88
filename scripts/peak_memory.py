#!/usr/bin/env python3
"""Memory of one benchmark evaluate operation, phase by phase.

Builds the input of one of perfbench's evaluate workloads at one input
instance (perfbench's own `prepare`, which draws it with
perfbench/inputs.py into a temporary directory; nothing under perfbench/
is written), then runs that operation's `calrisk.cli.main(argv)` in this
process with the BLAS/OpenMP thread variables pinned to the usable cores,
as perfbench does. Each pipeline phase is timed by wrapping the function
that runs it, and prints one row, in the order the phases start, indented
by nesting:

  load_dataset, split_dataset, kfold_splits    input and folds
  cross_validate FAMILY                        grid search and refits (bin15
                                               shows as bin)
    kkr_prepare                                one fold's Gram spectrum
  final_estimate FAMILY                        the test-set estimate
  write_report                                 the report on disk

Columns:
  rss_mb   resident set when the phase ends (/proc/self/statm)
  hwm_mb   peak resident set of the process so far (ru_maxrss), what
           perfbench reports as peak_rss_mb when the operation ends
  live_mb  bytes tracemalloc counts live when the phase ends
  peak_mb  tracemalloc's live peak within the phase, nested phases included
  s        wall time of the phase

tracemalloc traces from just before `main` runs, and its own tables add to
the resident set, so rss_mb and hwm_mb read a few MB above an untraced
operation's. Compare rows of runs made the same way, e.g. of two commits.
MB is 2**20 bytes.

Usage:
    python scripts/peak_memory.py evaluate-tce [--instance 31]
"""

import argparse
import functools
import os
import resource
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# read perfbench without writing bytecode into it
sys.dont_write_bytecode = True
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(len(os.sched_getaffinity(0)))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402

from calrisk import cli, pipeline  # noqa: E402

MB = 2.0 ** 20
PAGE = os.sysconf("SC_PAGE_SIZE")
# phases named after the family being cross-validated
FAMILY_PHASES = ("cross_validate", "final_estimate")


def rss_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE


class PhaseMeter:
    """Wraps functions so that each call is a phase with its memory row."""

    def __init__(self):
        self.rows = []
        # per open phase: the tracemalloc peak it has seen before its
        # latest inner phase reset the peak
        self.open_peaks = []
        self.family = None

    def wrap(self, module, name, title=None):
        fn = getattr(module, name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if name == "cross_validate":
                self.family = args[1]
            phase = f"{name} {self.family}" if name in FAMILY_PHASES else title or name
            if self.open_peaks:
                self.open_peaks[-1] = max(self.open_peaks[-1], tracemalloc.get_traced_memory()[1])
            row = {"phase": phase, "depth": len(self.open_peaks)}
            self.rows.append(row)
            self.open_peaks.append(0)
            tracemalloc.reset_peak()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row["s"] = perf_counter() - t0
                live, peak = tracemalloc.get_traced_memory()
                peak = max(peak, self.open_peaks.pop())
                if self.open_peaks:
                    self.open_peaks[-1] = max(self.open_peaks[-1], peak)
                tracemalloc.reset_peak()
                row.update(rss_mb=rss_bytes() / MB,
                           hwm_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                           live_mb=live / MB, peak_mb=peak / MB)

        setattr(module, name, wrapped)

    def print(self):
        print(f"{'phase':<32}{'rss_mb':>9}{'hwm_mb':>9}{'live_mb':>9}{'peak_mb':>9}{'s':>8}")
        for r in self.rows:
            name = "  " * r["depth"] + r["phase"]
            print(f"{name:<32}{r['rss_mb']:9.2f}{r['hwm_mb']:9.2f}{r['live_mb']:9.2f}"
                  f"{r['peak_mb']:9.2f}{r['s']:8.3f}")


def main(argv=None):
    evaluate = sorted(n for n, wl in run.WORKLOADS.items() if wl.kind == "evaluate")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=evaluate)
    parser.add_argument("--instance", type=int, default=31,
                        help=f"input instance, 0 to {run.INSTANCES - 1} (default 31)")
    args = parser.parse_args(argv)
    if not 0 <= args.instance < run.INSTANCES:
        parser.error(f"--instance must lie in 0..{run.INSTANCES - 1}")

    meter = PhaseMeter()
    meter.wrap(cli, "load_dataset")
    meter.wrap(cli, "_write_json", "write_report")
    for name in ("split_dataset", "kfold_splits", "cross_validate", "final_estimate",
                 "kkr_prepare"):
        meter.wrap(pipeline, name)
    with tempfile.TemporaryDirectory(prefix="peak-memory-") as tmp:
        workdir = Path(tmp)
        prep = run.prepare(args.workload, args.instance, workdir)
        cli_argv = list(prep.argv) + ["--out", str(workdir / "report.json")]
        tracemalloc.start()
        try:
            rc = cli.main(cli_argv)
        finally:
            tracemalloc.stop()
    print(f"{args.workload} instance {args.instance}: calrisk exited {rc}; "
          f"BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}")
    meter.print()
    return rc


if __name__ == "__main__":
    sys.exit(main())
