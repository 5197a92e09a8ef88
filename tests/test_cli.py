import csv
import json

import numpy as np
import pytest

from calrisk.cli import RunConfig, load_dataset, main, run_evaluate
from calrisk.core import CANONICAL, InputError


def write_csv(path, rows, header=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def write_random_logits(path, rng, n, d=3):
    rows = []
    for _ in range(n):
        logits = rng.normal(size=d) * 2.0
        p = np.exp(logits - logits.max())
        p = p / p.sum()
        label = rng.choice(d, p=p)
        rows.append(list(logits) + [label])
    return write_csv(path, rows)


class TestLoadDataset:
    def test_logits_round_trip(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [[1.0, 2.0, 3.0, 2], [0.0, 0.0, 0.0, 0]])
        ds = load_dataset(path, "logits-csv")
        assert len(ds) == 2 and ds.dim == 3 and ds.mode == CANONICAL
        np.testing.assert_allclose(ds.probs[1], np.full(3, 1 / 3))
        np.testing.assert_array_equal(ds.labels, [2, 0])

    def test_header_row_is_skipped(self, tmp_path):
        path = write_csv(
            tmp_path / "d.csv", [[0.2, 0.8, 1]], header=["p0", "p1", "label"]
        )
        ds = load_dataset(path, "probs-csv")
        assert len(ds) == 1

    def test_probs_tolerance_accepts_and_renormalizes(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [[0.3, 0.7000005, 1], [0.5, 0.5, 0]])
        ds = load_dataset(path, "probs-csv")
        np.testing.assert_allclose(ds.probs.sum(axis=1), 1.0, atol=1e-15)

    def test_probs_out_of_tolerance_rejected_with_line(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [[0.5, 0.5, 0], [0.4, 0.5, 1]])
        with pytest.raises(InputError, match=":2:"):
            load_dataset(path, "probs-csv")

    def test_ragged_row_rejected_with_line(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [[1.0, 2.0, 3.0, 0], [1.0, 2.0, 1]])
        with pytest.raises(InputError, match=":2:.*ragged"):
            load_dataset(path, "logits-csv")

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [[1.0, 2.0, 3.0, 0], [1.0, "oops", 3.0, 1]])
        with pytest.raises(InputError, match=":2:"):
            load_dataset(path, "logits-csv")

    def test_label_out_of_range_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [[1.0, 2.0, 3.0, 3]])
        with pytest.raises(InputError, match="label 3"):
            load_dataset(path, "logits-csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InputError):
            load_dataset(str(tmp_path / "d.csv"), "parquet")


class TestRunConfig:
    def test_bin_family_rejected_in_cce(self):
        with pytest.raises(InputError):
            RunConfig(mode="cce", families=("bin",))

    def test_sim_family_rejected_in_tce(self):
        with pytest.raises(InputError):
            RunConfig(mode="tce", families=("sim",))

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            RunConfig(mode="classwise")


class TestEvaluateCommand:
    def test_bin15_fixed_baseline(self, tmp_path):
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(0), 80)
        out = tmp_path / "report.json"
        code = main([
            "evaluate", "--data", data, "--mode", "tce",
            "--families", "bin15", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert set(report["families"]) == {"bin15"}
        entry = report["families"]["bin15"]
        assert entry["best_hyper"] == 15
        assert entry["val_sqrt_risk_x100"] >= 0.0
        assert report["metadata"]["n_tune"] == 64

    def test_report_is_deterministic(self, tmp_path):
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(1), 60)
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main([
                "evaluate", "--data", data, "--mode", "tce",
                "--families", "bin,bin15", "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_emit_csv(self, tmp_path):
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(2), 60)
        out = tmp_path / "report.json"
        fold_csv = tmp_path / "folds.csv"
        assert main([
            "evaluate", "--data", data, "--mode", "tce", "--families", "bin",
            "--out", str(out), "--emit-csv", str(fold_csv),
        ]) == 0
        with open(fold_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["family", "hyper", "fold", "risk", "pairs_used", "dropped_nan"]
        # 20 grid points x 5 folds
        assert len(rows) == 1 + 20 * 5

    def test_grid_override(self, tmp_path):
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(3), 60)
        out = tmp_path / "report.json"
        assert main([
            "evaluate", "--data", data, "--mode", "tce", "--families", "bin",
            "--grid-bin", "5,10", "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert report["families"]["bin"]["best_hyper"] in (5, 10)

    def test_missing_file_exit_code(self, tmp_path):
        assert main([
            "evaluate", "--data", str(tmp_path / "absent.csv"), "--families", "bin",
        ]) == 2

    def test_parse_error_exit_code(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [[0.4, 0.5, 0]])
        assert main([
            "evaluate", "--data", path, "--format", "probs-csv",
            "--families", "bin",
        ]) == 2

    def test_tiny_tuning_set_exit_code(self, tmp_path, capsys):
        # 11 rows split into 9 tuning samples, fewer than 2 per fold at k=5
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(5), 11)
        assert main([
            "evaluate", "--data", data, "--mode", "tce", "--families", "bin",
            "--out", str(tmp_path / "r.json"),
        ]) == 2
        assert "at least 10 tuning samples" in capsys.readouterr().err

    def test_numeric_failure_exit_code(self, tmp_path):
        # identical predictions make the Gram singular; a lambda=0-only grid
        # leaves no usable grid point
        rows = [[0.6, 0.4, int(i % 2)] for i in range(40)]
        path = write_csv(tmp_path / "d.csv", rows)
        assert main([
            "evaluate", "--data", path, "--format", "probs-csv", "--mode", "cce",
            "--families", "kkr", "--grid-kkr", "0", "--out",
            str(tmp_path / "r.json"),
        ]) == 3

    def test_cce_kernel_families(self, tmp_path):
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(4), 60)
        out = tmp_path / "report.json"
        assert main([
            "evaluate", "--data", data, "--mode", "cce",
            "--families", "kkr,ukkr", "--k", "4", "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        for fam in ("kkr", "ukkr"):
            assert report["families"][fam]["estimate"] >= 0.0


class TestSimulateCommand:
    def test_curve_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main([
            "simulate", "--n", "120", "--seeds", "3",
            "--theta-grid", "0.5,1.0,2.0", "--out", str(out),
        ])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["theta", "risk_mean", "risk_std"]
        assert [float(r[0]) for r in rows[1:]] == [0.5, 1.0, 2.0]
        assert all(float(r[1]) >= 0.0 for r in rows[1:])

    def test_dump_data_round_trips(self, tmp_path):
        curve = tmp_path / "curve.csv"
        dump = tmp_path / "sim.csv"
        assert main([
            "simulate", "--n", "50", "--seeds", "1",
            "--theta-grid", "0.5,1.0", "--dump-data", str(dump),
            "--out", str(curve),
        ]) == 0
        ds = load_dataset(str(dump), "probs-csv")
        assert len(ds) == 50 and ds.dim == 5

    def test_simulate_then_evaluate_selects_theta_one(self, tmp_path):
        curve = tmp_path / "curve.csv"
        dump = tmp_path / "sim.csv"
        assert main([
            "simulate", "--n", "500", "--seeds", "1",
            "--theta-grid", "0.5,1.0", "--dump-data", str(dump),
            "--out", str(curve),
        ]) == 0
        out = tmp_path / "report.json"
        assert main([
            "evaluate", "--data", str(dump), "--format", "probs-csv",
            "--mode", "cce", "--families", "sim", "--out", str(out),
        ]) == 0
        report = json.loads(out.read_text())
        assert 0.9 <= report["families"]["sim"]["best_hyper"] <= 1.1


class TestRiskCurveCommand:
    def test_emits_grid_risks(self, tmp_path):
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(5), 80)
        out = tmp_path / "curve.json"
        assert main([
            "risk-curve", "--data", data, "--mode", "tce", "--family", "bin",
            "--grid", "5,10,15", "--out", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert [row["hyper"] for row in payload["grid"]] == [5.0, 10.0, 15.0]
        assert payload["best_hyper"] in (5.0, 10.0, 15.0)
        for row in payload["grid"]:
            assert row["mean_risk"] >= 0.0 and row["risk_se"] >= 0.0
