"""Tracing calrisk from outside, and the per-layer metrics of a trace.

`Tracer.install` wraps the program's public functions at every name they
are bound to, the `pairwise`/`diag` methods of the model classes, the
`Dataset` constructor and `numpy.linalg.eigh`. Nothing under `src/` is
edited. Each call records a span (id, parent id, name, start, end) in
memory; a probe reads counts from the call's arguments and return value
after the span has ended. `layer_metrics` turns a list of spans into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "pipeline", "estimators", "risk", "core", "sim")
MODEL_CLASSES = {
    "estimators": ("BinningModel", "KdeModel", "KkrModel", "UkkrModel"),
    "sim": ("SimModel",),
}
# the command functions are private but own the report writing
PRIVATE_WRAPPED = {"cli": ("_cmd_evaluate", "_cmd_simulate")}
FAMILIES = ("bin", "kde", "kkr", "ukkr", "sim")
SPAN_FIELDS = ("id", "parent", "name", "start", "end", "run", "info")


def fingerprint(*arrays):
    """Cheap identity of array contents: shape, dtype and a strided sample."""
    h = hashlib.blake2b(digest_size=12)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(repr((a.shape, a.dtype.str)).encode())
        flat = a.reshape(-1)
        h.update(flat[:: max(1, flat.size // 4096)].tobytes())
    return h.hexdigest()


def _probe_eigh(args, kwargs, result):
    evals = np.asarray(result[0])
    n = evals.size
    top = float(evals.max()) if n else 0.0
    # numerical rank by the pinv rule rcond = n * eps * lambda_max
    rank = int((evals > n * np.finfo(float).eps * top).sum()) if top > 0 else 0
    return {"gram": fingerprint(args[0]), "rank": rank,
            "clipped": int((evals < 0.0).sum())}


def _probe_kde_regress(args, kwargs, result):
    g = np.asarray(result)
    return {"nan_rows": int(np.isnan(g.reshape(g.shape[0], -1)).any(axis=1).sum())}


def _probe_risk_from_matrix(args, kwargs, result):
    H, T = args[0], args[1]
    return {"pairs_used": int(result.pairs_used), "dropped_nan": int(result.dropped_nan),
            "bytes": int(np.asarray(H).nbytes + np.asarray(T).nbytes)}


def _probe_pair_target_matrix(args, kwargs, result):
    ds = args[0]
    return {"input": fingerprint(ds.probs, ds.labels) + ds.mode}


def _probe_cross_validate(args, kwargs, result):
    hypers = [p.hyper for p in result.grid] + [h for h, _ in result.skipped]
    edge = len(hypers) > 1 and result.best_hyper in (min(hypers), max(hypers))
    return {"family": result.family, "points": len(hypers),
            "skipped": len(result.skipped), "at_edge": int(edge)}


def _probe_risk_curve(args, kwargs, result):
    return {"kept": len(result)}


PROBES = {
    "estimators.eigh": _probe_eigh,
    "estimators.kde_regress": _probe_kde_regress,
    "risk.risk_from_matrix": _probe_risk_from_matrix,
    "core.pair_target_matrix": _probe_pair_target_matrix,
    "pipeline.cross_validate": _probe_cross_validate,
    "sim.risk_curve": _probe_risk_curve,
}


class Tracer:
    """In-memory span recorder for one traced run of the program."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._stack = []
        self._undo = []

    def wrap(self, name, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    name, 0.0, 0.0, self.run_id, None]
            self.spans.append(span)
            self._stack.append(span[0])
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                self._stack.pop()
            if probe is not None:
                span[6] = probe(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the program's layers; `uninstall` puts the originals back."""
        package = importlib.import_module("calrisk")
        modules = {short: importlib.import_module(f"calrisk.{short}") for short in LAYERS}
        wrappers = {}
        for short, mod in modules.items():
            extra = PRIVATE_WRAPPED.get(short, ())
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and (not attr.startswith("_") or attr in extra)):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        # a function imported by name elsewhere is a second binding of the
        # same object; wrap every one, or calls through the other name escape
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        for short, classes in MODEL_CLASSES.items():
            for cls_name in classes:
                cls = getattr(modules[short], cls_name)
                for meth in ("pairwise", "diag"):
                    self._patch(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", vars(cls)[meth]))
        dataset = modules["core"].Dataset
        self._patch(dataset, "__post_init__", self.wrap("core.Dataset", vars(dataset)["__post_init__"]))
        self._patch(np.linalg, "eigh", self.wrap("estimators.eigh", np.linalg.eigh))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def records(self):
        return [dict(zip(SPAN_FIELDS, s)) for s in self.spans]


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanIndex:
    """Self times and name-group sums over one run's span records."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]].append((s["start"], s["end"]))
        self.self_s = {}
        for s in spans:
            inside = [(max(a, s["start"]), min(b, s["end"])) for a, b in children[s["id"]]]
            self.self_s[s["id"]] = (s["end"] - s["start"]) - _covered([(a, b) for a, b in inside if a < b])

    def named(self, names):
        return [s for s in self.spans if s["name"] in names]

    def has_ancestor(self, span, names):
        parent = span["parent"]
        while parent is not None:
            up = self.by_id[parent]
            if up["name"] in names:
                return True
            parent = up["parent"]
        return False

    def inclusive(self, names, where=None):
        """Wall time inside spans of `names`, counting nested ones once."""
        return sum(s["end"] - s["start"] for s in self.named(names)
                   if (where is None or where(s)) and not self.has_ancestor(s, names))

    def self_time(self, names):
        return sum(self.self_s[s["id"]] for s in self.named(names))

    def info_sum(self, name, key):
        return sum(s["info"][key] for s in self.named({name}) if s["info"])


def layer_metrics(spans):
    """Per-layer metrics of one traced run: {name: (value, unit)}."""
    ix = SpanIndex(spans)
    out = {}

    def incl(metric, *names):
        out[metric] = (ix.inclusive(set(names)), "s")

    for name in ("estimators.eigh", "estimators.kkr_prepare", "estimators.fit_kkr",
                 "estimators.fit_ukkr", "estimators.kkr_core",
                 "estimators.ukkr_rotated_core", "estimators.kde_regress",
                 "risk.risk_from_matrix", "risk.empirical_risk",
                 "core.pair_target_matrix", "core.Dataset", "pipeline.final_estimate",
                 "sim.simulate", "sim.risk_curve", "sim.SimModel.pairwise",
                 "cli.load_dataset", "cli.run_evaluate"):
        incl(f"{name}.s", name)
    for meth in ("pairwise", "diag"):
        incl(f"estimators.{meth}.s",
             *(f"estimators.{c}.{meth}" for c in MODEL_CLASSES["estimators"]))
    for fam in FAMILIES:
        # bin15 is the bin family at a one-point grid, so it is counted under bin
        out[f"pipeline.cross_validate.{fam}.s"] = (ix.inclusive(
            {"pipeline.cross_validate"},
            where=lambda s, fam=fam: s["info"] is not None and s["info"]["family"] == fam), "s")
    out["pipeline.cross_validate.self_s"] = (ix.self_time({"pipeline.cross_validate"}), "s")
    out["estimators.kkr_prepare.self_s"] = (ix.self_time({"estimators.kkr_prepare"}), "s")
    out["cli.report_write.s"] = (ix.self_time({"cli._cmd_evaluate", "cli._cmd_simulate"}), "s")
    for layer in LAYERS:
        names = {s["name"] for s in spans if s["name"].split(".", 1)[0] == layer}
        out[f"{layer}.self_s"] = (ix.self_time(names), "s")

    for name in ("estimators.eigh", "estimators.kkr_prepare", "estimators.kde_regress",
                 "risk.risk_from_matrix", "risk.empirical_risk",
                 "core.pair_target_matrix", "core.Dataset"):
        out[f"{name}.calls"] = (len(ix.named({name})), "count")
    # a call that raised has no probe values
    eighs = [s["info"] for s in ix.named({"estimators.eigh"}) if s["info"]]
    out["estimators.eigh.distinct_grams"] = (len({e["gram"] for e in eighs}), "count")
    out["estimators.gram_rank"] = (statistics.median([e["rank"] for e in eighs]) if eighs else 0, "count")
    out["estimators.eig_clipped"] = (statistics.median([e["clipped"] for e in eighs]) if eighs else 0, "count")
    out["estimators.kde_regress.nan_rows"] = (ix.info_sum("estimators.kde_regress", "nan_rows"), "count")
    out["risk.risk_from_matrix.pairs_used"] = (ix.info_sum("risk.risk_from_matrix", "pairs_used"), "count")
    out["risk.risk_from_matrix.dropped_nan"] = (ix.info_sum("risk.risk_from_matrix", "dropped_nan"), "count")
    out["risk.matrix_bytes_computed"] = (ix.info_sum("risk.risk_from_matrix", "bytes"), "bytes")
    out["core.pair_target_matrix.distinct_inputs"] = (
        len({s["info"]["input"] for s in ix.named({"core.pair_target_matrix"}) if s["info"]}), "count")
    out["pipeline.grid_points"] = (ix.info_sum("pipeline.cross_validate", "points"), "count")
    out["pipeline.grid_points_skipped"] = (ix.info_sum("pipeline.cross_validate", "skipped"), "count")
    out["pipeline.best_at_grid_edge"] = (ix.info_sum("pipeline.cross_validate", "at_edge"), "count")
    computed = sum(1 for s in ix.named({"risk.empirical_risk"})
                   if ix.has_ancestor(s, {"sim.risk_curve"}))
    kept = ix.info_sum("sim.risk_curve", "kept")
    out["sim.risk_curve.used_ratio"] = (kept / computed if computed else 0.0, "ratio")
    return out
