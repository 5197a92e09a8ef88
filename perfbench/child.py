"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py --import-only
    python3 perfbench/child.py --result R.json [--spans S.json --run-id ID] -- ARGV...

The first form imports `calrisk.cli` and exits; the parent times it as the
set-up cost. The second runs `calrisk.cli.main(ARGV)` and writes its exit
code, wall time, CPU time, peak RSS and library versions to R.json. With
--spans the program is traced and the spans are written to S.json after
the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def library_versions():
    import numpy
    import scipy

    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("argv", nargs="*")
    opts = parser.parse_args(argv)

    import calrisk.cli

    if opts.import_only:
        return 0
    tracer = None
    if opts.spans:
        from spans import Tracer

        tracer = Tracer(opts.run_id)
        tracer.install()
    cpu0 = _cpu_s()
    t0 = perf_counter()
    rc = calrisk.cli.main(opts.argv)
    wall = perf_counter() - t0
    cpu = _cpu_s() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        Path(opts.spans).write_text(json.dumps(tracer.records()))
    Path(opts.result).write_text(json.dumps({
        "rc": rc, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024.0,
        "versions": library_versions(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
