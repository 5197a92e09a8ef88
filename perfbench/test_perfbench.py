"""Self-tests of the benchmark: python3 -m pytest -q perfbench/test_perfbench.py"""

import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
# at the tiny sizes the simulate command's 5-seed mean-risk argmin is
# theta = 1 for this seed; the argmin of fewer seeds is mostly noise
SEED = 1


def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_run_of_each_workload(name):
    line, _ = run.measure(name, SEED, 0, trace=0, tiny=True)
    assert (line["correct"], line["failed"]) == (True, 0), line
    assert set(line["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in line["metrics"].values())

    line, record = run.measure(name, SEED, 0, trace=1, tiny=True)
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 3, 0), record["ops"]
    metrics = {k: m["value"] for k, m in line["metrics"].items()}
    assert set(metrics) == PER_LAYER
    # the heavy/light split the workloads are chosen for
    has_eigh = name in ("evaluate-tce", "evaluate-cce-d10")
    assert (metrics["estimators.eigh.calls"] > 0) == has_eigh
    assert (metrics["risk.empirical_risk.calls"] > 0) == (name == "simulate")
    assert (metrics["estimators.kde_regress.calls"] > 0) == (name != "simulate")
    if name == "simulate":
        assert metrics["sim.risk_curve.used_ratio"] == pytest.approx(1 / 6)
    if has_eigh:
        # CV and refit decompose the same five fold Grams per family
        assert metrics["estimators.eigh.distinct_grams"] == 5
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers <= metrics["trace.wall_s"]


def _span(i, parent, name, start, end, info=None):
    return {"id": i, "parent": parent, "name": name, "start": start, "end": end,
            "run": "r", "info": info}


def test_self_time_subtracts_child_cover():
    recs = [
        _span(0, None, "cli.main", 0.0, 10.0),
        _span(1, 0, "pipeline.cross_validate", 1.0, 4.0,
              {"family": "kkr", "points": 3, "skipped": 1, "at_edge": 1}),
        _span(2, 1, "estimators.eigh", 2.0, 3.0, {"gram": "a", "rank": 7, "clipped": 2}),
        _span(3, 0, "estimators.kkr_prepare", 5.0, 9.0),
        _span(4, 3, "estimators.kkr_prepare", 6.0, 8.0),
        _span(5, 4, "estimators.eigh", 6.5, 7.0, {"gram": "a", "rank": 9, "clipped": 4}),
    ]
    ix = spans.SpanIndex(recs)
    assert ix.self_s == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.5, 5: 0.5})
    # a span nested in one of the same name counts once in inclusive time
    assert ix.inclusive({"estimators.kkr_prepare"}) == pytest.approx(4.0)
    m = {k: v for k, (v, _) in spans.layer_metrics(recs).items()}
    assert m["estimators.eigh.s"] == pytest.approx(1.5)
    assert m["estimators.eigh.calls"] == 2
    assert m["estimators.eigh.distinct_grams"] == 1
    assert m["estimators.gram_rank"] == 8
    assert m["pipeline.cross_validate.kkr.s"] == pytest.approx(3.0)
    assert m["pipeline.cross_validate.self_s"] == pytest.approx(2.0)
    assert (m["pipeline.grid_points"], m["pipeline.grid_points_skipped"],
            m["pipeline.best_at_grid_edge"]) == (3, 1, 1)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["estimators.self_s"] == pytest.approx(1.0 + 2.0 + 1.5 + 0.5)


def test_overlapping_children_are_covered_once():
    recs = [_span(0, None, "a", 0.0, 10.0), _span(1, 0, "b", 1.0, 5.0),
            _span(2, 0, "c", 4.0, 6.0), _span(3, 0, "d", 20.0, 30.0)]
    # d lies outside its parent's interval and covers none of it
    assert spans.SpanIndex(recs).self_s[0] == pytest.approx(5.0)


def test_tracer_wraps_every_binding_and_restores():
    import numpy as np

    import calrisk.estimators
    import calrisk.pipeline

    originals = (calrisk.estimators.kkr_prepare, np.linalg.eigh)
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        assert calrisk.pipeline.kkr_prepare is calrisk.estimators.kkr_prepare
        assert calrisk.estimators.kkr_prepare is not originals[0]
        np.linalg.eigh(np.eye(3))
        calrisk.estimators.rbf_gram(np.zeros((2, 2)), np.zeros((2, 2)), 0.5)
    finally:
        tracer.uninstall()
    assert (calrisk.estimators.kkr_prepare, np.linalg.eigh) == originals
    assert calrisk.pipeline.kkr_prepare is originals[0]
    assert [s["name"] for s in tracer.records()] == ["estimators.eigh", "estimators.rbf_gram"]
    assert tracer.records()[0]["info"]["rank"] == 3


def test_check_rejects_one_perturbed_estimate(tmp_path):
    name = "evaluate-cce-d10"
    prep = run.prepare(name, SEED, tmp_path, tiny=True)
    op = run.execute(prep, tmp_path, 0, 1)
    assert not op["problems"]
    report = json.loads(op["product"].read_text())
    families = run.WORKLOADS[name].families
    ref = checks.evaluate_summary(report)
    assert checks.check_evaluate(report, families, ref) == []

    largest = max(families, key=lambda f: abs(ref[f]["estimate_squared"]))
    report["families"][largest]["estimate_squared"] *= 1 + 1e-4
    problems = checks.check_evaluate(report, families, ref)
    assert len(problems) == 1 and problems[0].startswith(f"{largest}: estimate_squared")

    del report["families"]["kde"]
    assert any(p.startswith("kde: missing") for p in checks.check_evaluate(report, families, ref))


def test_check_rejects_changed_simulate_counts():
    summary = {"argmin": 1.0, "counts": {"0.9": 2, "1.0": 3}, "theta": [0.9, 1.0],
               "risk_mean": [0.2, 0.1]}
    assert checks.check_simulate(summary, 5, summary) == []
    moved = dict(summary, counts={"0.9": 3, "1.0": 2})
    assert len(checks.check_simulate(moved, 5, summary)) == 1
    assert checks.check_simulate(dict(summary, argmin=0.9), 5) != []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
