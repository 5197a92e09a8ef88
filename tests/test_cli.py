import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from calrisk import pipeline
from calrisk.cli import load_dataset, main
from calrisk.core import CANONICAL, TOP_LABEL, InputError
from calrisk.pipeline import RunConfig, run_evaluate
from calrisk.sim import SimConfig, simulate
from oracles import softmax

ROOT = Path(__file__).resolve().parent.parent


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

    @pytest.mark.parametrize("header", [None, ["p0", "p1", "label"]])
    def test_byte_order_mark_is_ignored(self, tmp_path, header):
        # spreadsheet programs' "CSV UTF-8" starts the file with U+FEFF
        plain = write_csv(tmp_path / "plain.csv", [[0.39, 0.61, 1], [0.5, 0.5, 0]], header)
        marked = tmp_path / "marked.csv"
        marked.write_bytes("\ufeff".encode() + Path(plain).read_bytes())
        want, got = load_dataset(plain, "probs-csv"), load_dataset(str(marked), "probs-csv")
        np.testing.assert_array_equal(got.probs, want.probs)
        np.testing.assert_array_equal(got.labels, want.labels)

    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_bytes(b"0.4,0.6,1\n0.5,0.5,0\n\xff\n")
        with pytest.raises(InputError, match="not UTF-8"):
            load_dataset(str(path), "probs-csv")
        argv = ["evaluate", "--format", "probs-csv", "--data", str(path),
                "--out", str(tmp_path / "r.json")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: not UTF-8 text (invalid start byte)\n"

    def test_label_out_of_range_rejected(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [[1.0, 2.0, 3.0, 3]])
        with pytest.raises(InputError, match="label 3"):
            load_dataset(path, "logits-csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InputError):
            load_dataset(str(tmp_path / "d.csv"), "parquet")

    @pytest.mark.parametrize("d", [2, 5, 10, 37])
    def test_logits_match_per_row_softmax_bit_for_bit(self, tmp_path, d):
        rng = np.random.default_rng(d)
        logits = rng.normal(size=(60, d)) * rng.choice([0.1, 3.0, 40.0], size=(60, 1))
        labels = rng.integers(0, d, size=60)
        path = tmp_path / "d.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"l{j}" for j in range(d)] + ["label"])
            for i, (row, label) in enumerate(zip(logits, labels)):
                if i % 7 == 3:
                    fh.write("\n")  # blank lines are skipped
                writer.writerow([repr(float(v)) for v in row] + [int(label)])
        ds = load_dataset(str(path), "logits-csv")
        expected = np.stack([softmax(row) for row in logits])
        assert np.array_equal(ds.probs, expected)
        np.testing.assert_array_equal(ds.labels, labels)

    def test_probs_renormalized_per_row_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(4)
        P = rng.dirichlet(np.ones(6), size=40)
        labels = rng.integers(0, 6, size=40)
        path = write_csv(tmp_path / "d.csv",
                         [[repr(float(v)) for v in row] + [lab] for row, lab in zip(P, labels)])
        ds = load_dataset(path, "probs-csv")
        assert np.array_equal(ds.probs, np.stack([row / row.sum() for row in P]))

    def test_first_bad_row_in_the_file_is_reported(self, tmp_path):
        # line 2 has non-finite logits and line 3 an out-of-range label
        path = write_csv(tmp_path / "d.csv",
                         [[1.0, 2.0, 0], ["inf", 2.0, 1], [1.0, 2.0, 5]])
        with pytest.raises(InputError, match=":2: non-finite logits"):
            load_dataset(path, "logits-csv")
        path = write_csv(tmp_path / "p.csv",
                         [[0.5, 0.5, 0], [0.5, 0.5, 2], [1.5, -0.5, 1]])
        with pytest.raises(InputError, match=":2: label 2 out of range"):
            load_dataset(path, "probs-csv")
        path = write_csv(tmp_path / "q.csv", [[0.5, 0.5, 0], [1.5, -0.5, 1]])
        with pytest.raises(InputError, match=":2: probabilities outside"):
            load_dataset(path, "probs-csv")

    def test_mistyped_first_row_is_not_a_header(self, tmp_path, capsys):
        # one cell of line 1 is a number, so it is a data row, not a header
        path = write_csv(tmp_path / "d.csv",
                         [[1.0, "2.O", 3.0, 0], [1.0, 2.0, 3.0, 1], [0.5, 2.0, 1.0, 2]])
        assert main(["evaluate", "--data", path, "--out", str(tmp_path / "r.json")]) == 2
        assert f"{path}:1: non-numeric cell" in capsys.readouterr().err

    def test_first_bad_line_precedes_a_later_ragged_row(self, tmp_path, capsys):
        path = write_csv(tmp_path / "d.csv", [[1.0, 2.0, 3.0, 0], [1.0, 2.0, 3.0, 7],
                                              [1.0, 2.0, 3.0, 1], [1.0, 2.0, 1]])
        assert main(["evaluate", "--data", path, "--out", str(tmp_path / "r.json")]) == 2
        assert f"{path}:2: label 7 out of range for d=3" in capsys.readouterr().err

    def test_nan_probability_rejected_with_line(self, tmp_path):
        path = write_csv(tmp_path / "d.csv", [[0.5, 0.5, 0], [0.3, 0.7, 1], ["nan", 1.0, 0]])
        with pytest.raises(InputError, match=":3: non-finite probabilities"):
            load_dataset(path, "probs-csv")

    def test_empty_cell_rejected_with_line(self, tmp_path):
        rows = [[1.0, 2.0, 0]] * 6
        rows[3] = [1.0, "", 2.0, 0]
        path = write_csv(tmp_path / "d.csv", rows)
        with pytest.raises(InputError, match=r":4: empty cell$"):
            load_dataset(path, "logits-csv")
        # a 6-row file whose middle column is empty on every row, once a
        # 2-class file with its empty cells dropped
        path = write_csv(tmp_path / "e.csv", [[1.0, "", 2.0, 0]] * 6)
        with pytest.raises(InputError, match=r":1: empty cell$"):
            load_dataset(path, "logits-csv")
        assert main(["evaluate", "--data", path]) == 2

    def test_trailing_commas_and_blank_lines_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("l0,l1,label,\n1.0,2.0,1,,\n\n0.5, 0.5 ,0,\n")
        ds = load_dataset(str(path), "logits-csv")
        assert ds.probs.shape == (2, 2)
        np.testing.assert_array_equal(ds.labels, [1, 0])

    @pytest.mark.parametrize("label", ["nan", "inf", "1.5"])
    def test_non_integer_label_rejected_with_line(self, tmp_path, label):
        path = write_csv(tmp_path / "d.csv", [[1.0, 2.0, 0], [1.0, 2.0, label]])
        with pytest.raises(InputError, match=":2: label .* is not an integer"):
            load_dataset(path, "logits-csv")


class TestRunConfig:
    def test_bin_family_rejected_in_cce(self):
        for fam in ("bin", "bin15"):
            with pytest.raises(InputError, match="the bin family needs top-label"):
                RunConfig(mode="cce", families=(fam,))

    def test_sim_family_rejected_in_tce(self):
        with pytest.raises(InputError, match="the sim family needs canonical"):
            RunConfig(mode="tce", families=("sim",))

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_test_fraction_outside_the_unit_interval(self, fraction):
        with pytest.raises(InputError, match=r"test fraction must lie in \(0, 1\)"):
            RunConfig(test_fraction=fraction)

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            RunConfig(mode="classwise")

    def test_default_families_follow_the_mode(self):
        assert RunConfig(mode="tce").families == ("bin", "bin15", "kde", "kkr", "ukkr")
        assert RunConfig(mode="cce").families == ("kde", "kkr", "ukkr")

    @pytest.mark.parametrize("families,grids,message", [
        (("bin15",), {"bin15": [5]}, "bin15 is bin at a fixed 15 bins"),
        (("bin",), {"kkr": [1]}, "the kkr family is not run"),
    ], ids=["bin15", "family-not-run"])
    def test_bad_grid_key(self, families, grids, message):
        with pytest.raises(InputError, match=message):
            RunConfig(mode="tce", families=families, grids=grids)

    def test_no_bin15_grid_flag(self, tmp_path):
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(0), 60)
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--data", data, "--families", "bin15",
                  "--grid-bin15=5,10", "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2

    def test_no_evaluate_model_temp_flag(self, tmp_path, capsys):
        # sim reads theta and the temperature only as their ratio, so
        # --grid-sim is the sim family's one setting
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(0), 60)
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--data", data, "--mode", "cce", "--families", "sim",
                  "--model-temp", "0.5", "--out", str(tmp_path / "r.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --model-temp" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_every_setting_is_in_the_report(self, tmp_path):
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(5), 60)
        cfg = RunConfig(mode="cce", families=("kde", "sim"), test_fraction=0.25, k_folds=3,
                        gamma=0.7, seed=4, grids={"kde": [0.1, 0.3], "sim": [0.5, 1.0, 2.0]},
                        linear_risk=True)
        report, _ = run_evaluate(cfg, load_dataset(data, "logits-csv"))
        settings = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(RunConfig)}
        grids = settings.pop("grids")
        settings["families"] = list(settings["families"])
        assert {k: report["metadata"][k] for k in settings} == settings
        for fam, grid in grids.items():
            assert [p["hyper"] for p in report["families"][fam]["grid"]] == grid


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

    def test_best_at_grid_edge(self, tmp_path):
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(6), 80)
        out = tmp_path / "report.json"
        assert main([
            "evaluate", "--data", data, "--mode", "tce", "--families", "bin,bin15",
            "--grid-bin", "5,10", "--out", str(out),
        ]) == 0
        families = json.loads(out.read_text())["families"]
        # two points: the winner is one end; one point: there is no edge
        assert families["bin"]["best_at_grid_edge"] is True
        assert families["bin15"]["best_at_grid_edge"] is False

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
        # spaces around a family name must not drop its override
        for families in ("bin", "bin15, bin "):
            assert main([
                "evaluate", "--data", data, "--mode", "tce", "--families", families,
                "--grid-bin", "7,12", "--out", str(out),
            ]) == 0
            report = json.loads(out.read_text())
            assert report["families"]["bin"]["best_hyper"] in (7, 12)

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

    def test_cce_default_families(self, tmp_path):
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(4), 60)
        out = tmp_path / "report.json"
        assert main(["evaluate", "--data", data, "--mode", "cce", "--out", str(out)]) == 0
        assert list(json.loads(out.read_text())["families"]) == ["kde", "kkr", "ukkr"]

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


def src_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))


def test_python_m_calrisk_simulate(tmp_path):
    out = tmp_path / "curve.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "calrisk", "simulate", "--n", "200", "--seeds", "3",
         "--out", str(out)],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^mean-risk argmin theta: [0-9.]+$", proc.stdout, re.M)
    with open(out, newline="") as fh:
        assert next(csv.reader(fh)) == ["theta", "risk_mean", "risk_std"]


# runs each argv of the JSON list in sys.argv[1] with scipy unimportable
SCIPY_BLOCKED = """
import json, sys
sys.modules["scipy"] = None
from calrisk.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(1)
"""


def test_runs_without_scipy(tmp_path, capsys):
    data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(9), 120)

    def argvs(out):
        out.mkdir()
        return [
            ["evaluate", "--data", data, "--mode", "cce", "--families", "kde,sim",
             "--out", str(out / "cce.json"), "--emit-csv", str(out / "cce.csv")],
            ["evaluate", "--data", data, "--out", str(out / "tce.json")],
            ["simulate", "--n", "50", "--seeds", "2", "--out", str(out / "curve.csv")],
        ]

    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED, json.dumps(argvs(tmp_path / "blocked"))],
        capture_output=True, text=True, env=src_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for argv in argvs(tmp_path / "free"):
        assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out
    names = sorted(p.name for p in (tmp_path / "free").iterdir())
    assert names == ["cce.csv", "cce.json", "curve.csv", "tce.json"]
    for name in names:
        blocked, free = (tmp_path / side / name for side in ("blocked", "free"))
        assert blocked.read_bytes() == free.read_bytes(), name


class TestReportGrid:
    def test_emits_grid_risks(self, tmp_path):
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(5), 80)
        out = tmp_path / "report.json"
        assert main([
            "evaluate", "--data", data, "--mode", "tce", "--families", "bin",
            "--grid-bin", "5,10,15", "--out", str(out),
        ]) == 0
        entry = json.loads(out.read_text())["families"]["bin"]
        assert [row["hyper"] for row in entry["grid"]] == [5.0, 10.0, 15.0]
        assert entry["best_hyper"] in (5.0, 10.0, 15.0)
        for row in entry["grid"]:
            assert row["mean_risk"] >= 0.0 and row["risk_se"] >= 0.0

    @pytest.mark.parametrize("mode,family", [("tce", "sim"), ("cce", "bin")])
    def test_family_of_other_mode_exit_code(self, tmp_path, capsys, mode, family):
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(7), 80)
        assert main([
            "evaluate", "--data", data, "--mode", mode, "--families", family,
            "--out", str(tmp_path / "report.json"),
        ]) == 2
        assert f"the {family} family needs" in capsys.readouterr().err

    def test_agrees_with_evaluate_fold_csv(self, tmp_path):
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(9), 80)
        report, folds = tmp_path / "r.json", tmp_path / "f.csv"
        assert main([
            "evaluate", "--data", data, "--families", "kkr", "--seed", "4",
            "--out", str(report), "--emit-csv", str(folds),
        ]) == 0
        entry = json.loads(report.read_text())["families"]["kkr"]
        best = min(entry["grid"], key=lambda point: point["mean_risk"])
        assert entry["best_hyper"] == best["hyper"]
        fold_risks = {}
        with open(folds, newline="") as fh:
            for row in csv.DictReader(fh):
                fold_risks.setdefault(float(row["hyper"]), []).append(float(row["risk"]))
        assert [point["hyper"] for point in entry["grid"]] == list(fold_risks)
        for point in entry["grid"]:
            risks = fold_risks[point["hyper"]]
            assert point["mean_risk"] == np.mean(risks)
            assert point["risk_se"] == np.std(risks, ddof=1) / np.sqrt(len(risks))


@pytest.mark.parametrize("argv", [
    ["evaluate", "--k", "0"],
    ["evaluate", "--gamma", "0"],
    ["evaluate", "--gamma", "-1"],
    ["evaluate", "--gamma", "inf", "--families", "kkr"],
    ["simulate", "--model-temp", "nan"],
    ["simulate", "--model-temp", "inf"],
    ["simulate", "--seeds", "0"],
    ["simulate", "--alpha", "nan"],
    # a grid value the family cannot take; "=" keeps argparse from reading
    # a negative value as a flag
    ["evaluate", "--families", "bin", "--grid-bin=2.5"],
    ["evaluate", "--families", "bin", "--grid-bin=inf,10"],
    ["evaluate", "--families", "bin", "--grid-bin=0"],
    ["evaluate", "--families", "kde", "--grid-kde=0"],
    ["evaluate", "--families", "kde", "--grid-kde=-1"],
    ["evaluate", "--families", "kde", "--grid-kde=nan,0.1"],
    # 1/b overflows: the kernel constants are not finite
    ["evaluate", "--mode", "cce", "--families", "kde", "--grid-kde=1e-310"],
    ["evaluate", "--mode", "cce", "--families", "kde", "--grid-kde=1e-310,0.1"],
    # 1/b is finite, but log-gamma(1/b + 1) overflows
    ["evaluate", "--mode", "cce", "--families", "kde", "--grid-kde=1e-306"],
    ["evaluate", "--families", "kkr", "--grid-kkr=-1"],
    ["evaluate", "--families", "ukkr", "--grid-ukkr=-1"],
    # a repeated grid value, and a grid for a family that is not run
    ["evaluate", "--families", "bin", "--grid-bin=10,10"],
    ["evaluate", "--families", "kkr", "--grid-kkr=1,1"],
    ["evaluate", "--families", "bin", "--grid-kkr=1"],
    ["simulate", "--theta-grid=nan,1"],
    ["simulate", "--theta-grid=1,1"],
    ["simulate", "--theta-grid="],
    ["evaluate", "--seed=-1"],
    ["simulate", "--seed=-1"],
    # too few samples for the curve's 5 folds of at least two
    ["simulate", "--n", "5"],
    # a concentration whose gamma draws overflow their row sums
    ["simulate", "--alpha", "1e308", "--seeds", "2"],
], ids=lambda argv: " ".join(argv))
def test_edge_inputs_exit_code(tmp_path, capsys, argv):
    if argv[0] == "simulate":
        if "--n" not in argv:
            argv = argv + ["--n", "50"]
        argv = argv + ["--out", str(tmp_path / "curve.csv")]
    else:
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(8), 60)
        argv = argv + ["--data", data, "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("grid,message", [
    ("--grid-kkr=1,1", "grid value 1.0 given more than once"),
    ("--grid-kkr=-1", "lambda must be nonnegative"),
    ("--grid-kde=0", "bandwidth must be positive"),
    ("--grid-bin=2.5", "number of bins must be a positive integer, got 2.5"),
    ("--grid-kde=1e-306", "bandwidth 1e-306 is too small"),
    ("--grid-bin=1e20", "number of bins must be at most 1000000, got 1e+20"),
    ("--grid-bin=2e6", "number of bins must be at most 1000000, got 2000000.0"),
], ids=["kkr-repeated", "kkr-negative", "kde-zero", "bin-fractional", "kde-lgamma-overflow",
        "bin-1e20", "bin-2e6"])
def test_bad_grid_exits_before_any_family_runs(tmp_path, capsys, monkeypatch, grid, message):
    from calrisk import pipeline

    calls = []
    cross_validate = pipeline.cross_validate

    def counted(*args, **kwargs):
        calls.append(args[1])
        return cross_validate(*args, **kwargs)

    monkeypatch.setattr(pipeline, "cross_validate", counted)
    data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(8), 60)
    assert main(["evaluate", "--data", data, "--families", "bin,kde,kkr",
                 grid, "--out", str(tmp_path / "r.json")]) == 2
    assert message in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("argv,over,inside", [
    (["evaluate", "--mode", "cce", "--families", "kde,sim", "--grid-sim=1,{}"], "1e308", "1e306"),
    (["simulate", "--theta-grid=1,{}"], "1e308", "1e306"),
    (["simulate", "--model-temp", "{}"], "1e-320", "1e-306"),
], ids=["evaluate-grid-sim", "simulate-theta-grid", "simulate-model-temp"])
def test_sim_theta_whose_scaled_logs_overflow_exits_2(tmp_path, capsys, monkeypatch,
                                                      argv, over, inside):
    # (theta/t) log p overflows once |theta/t| passes about 6.5e306: theta =
    # 1e308 at t = 0.3 and every default theta at t = 1e-320 do, 1e306 at
    # t = 0.3 and 2.0 at t = 1e-306 do not
    from calrisk import pipeline

    calls = []
    cross_validate = pipeline.cross_validate

    def counted(*args, **kwargs):
        calls.append(args[1])
        return cross_validate(*args, **kwargs)

    monkeypatch.setattr(pipeline, "cross_validate", counted)
    if argv[0] == "simulate":
        out = tmp_path / "curve.csv"
        paths = ["--n", "50", "--seeds", "2", "--out", str(out)]
    else:
        out = tmp_path / "r.json"
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(8), 60)
        paths = ["--data", data, "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([a.format(over) for a in argv] + paths) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "scaled logs overflow" in err
    assert calls == [] and not out.exists()
    assert main([a.format(inside) for a in argv] + paths) == 0
    if argv[0] == "evaluate":
        entry = read_strict_json(out)["families"]["sim"]
        assert [point["hyper"] for point in entry["grid"]] == [1.0, 1e306]


def read_strict_json(path):
    """A JSON file parsed with Infinity, -Infinity and NaN rejected."""
    def reject(name):
        raise ValueError(f"{name} in the report")

    return json.loads(Path(path).read_text(), parse_constant=reject)


def test_report_is_strict_json_when_holdout_risks_vanish(tmp_path):
    # six distinct predictions: at small bandwidths kde reproduces every
    # holdout residual, and the factored risk rounds to about -1e-16
    rng = np.random.default_rng(0)
    P = rng.dirichlet(np.ones(3), 6)
    labels = np.array([0, 1, 2, 0, 1, 2])
    rows = [[repr(float(v)) for v in P[i]] + [labels[i]] for i in rng.integers(0, 6, 200)]
    data = write_csv(tmp_path / "d.csv", rows)
    out = tmp_path / "r.json"
    assert main(["evaluate", "--data", data, "--format", "probs-csv", "--mode", "cce",
                 "--families", "kde", "--out", str(out)]) == 0
    entry = read_strict_json(out)["families"]["kde"]
    assert entry["val_sqrt_risk_x100"] >= 0.0
    assert all(point["mean_risk"] >= 0.0 for point in entry["grid"])


def test_grid_point_whose_risk_overflows_is_skipped(tmp_path):
    # at lambda = 1e-300 the top-label kkr core, which keeps every eigenpair,
    # scales the Gram's near-null space by about 1 / (1e-300 n^2), and the
    # squared holdout errors overflow
    data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(8), 60)
    grid = "--grid-kkr=1e-300,1e-3,1"
    out = tmp_path / "r.json"
    assert main(["evaluate", "--data", data, "--mode", "tce", "--families", "kkr",
                 grid, "--out", str(out)]) == 0
    entry = read_strict_json(out)["families"]["kkr"]
    assert [point["hyper"] for point in entry["grid"]] == [1e-3, 1.0]
    assert [skip["hyper"] for skip in entry["skipped_grid_points"]] == [1e-300]
    assert "overflow" in entry["skipped_grid_points"][0]["reason"]
    # a canonical spectrum keeps only its numerically nonzero eigenpairs, so
    # there is no null space to scale: 1e-300 is scored, finite, and loses
    assert main(["evaluate", "--data", data, "--mode", "cce", "--families", "kkr",
                 grid, "--out", str(out)]) == 0
    entry = read_strict_json(out)["families"]["kkr"]
    assert [point["hyper"] for point in entry["grid"]] == [1e-300, 1e-3, 1.0]
    assert entry["skipped_grid_points"] == []
    assert np.isfinite(entry["grid"][0]["mean_risk"])
    assert entry["best_hyper"] != 1e-300


@pytest.mark.parametrize("families", [",", " , ", "bin,bin", "kde,,kde", "kkr, kkr"])
def test_bad_family_list_exit_code(tmp_path, capsys, families):
    data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(8), 60)
    out = tmp_path / "r.json"
    assert main(["evaluate", "--data", data, "--families", families, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("flag,path", [("--data", "d.csv/x"), ("--out", "d.csv/r.json")])
def test_path_through_a_file_exit_code(tmp_path, capsys, flag, path):
    data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(8), 60)
    argv = {"--data": data, "--out": str(tmp_path / "r.json")}
    argv[flag] = str(tmp_path / path)
    assert main(["evaluate", "--families", "bin", "--data", argv["--data"],
                 "--out", argv["--out"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("flag", ["--out", "--emit-csv"])
def test_bad_output_path_exits_before_the_run(tmp_path, capsys, monkeypatch, flag):
    from calrisk import cli

    calls = []
    monkeypatch.setattr(cli, "run_evaluate", lambda *args: calls.append(args))
    data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(8), 60)
    out = tmp_path / "r.json"
    argv = {"--out": str(out), "--emit-csv": str(tmp_path / "f.csv")}
    argv[flag] = str(tmp_path / "absent" / "x")
    assert main(["evaluate", "--families", "bin", "--data", data,
                 "--out", argv["--out"], "--emit-csv", argv["--emit-csv"]]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("flag", ["--out", "--dump-data"])
def test_simulate_bad_output_path_exits_before_the_run(tmp_path, monkeypatch, flag):
    from calrisk import cli

    calls = []
    monkeypatch.setattr(cli, "simulate", lambda cfg: calls.append(cfg))
    argv = {"--out": str(tmp_path / "curve.csv"), "--dump-data": str(tmp_path / "d.csv")}
    argv[flag] = str(tmp_path / "absent" / "x")
    assert main(["simulate", "--n", "50", "--seeds", "1", "--out", argv["--out"],
                 "--dump-data", argv["--dump-data"]]) == 2
    assert calls == []


EVALUATE_ARGV = ["evaluate", "--families", "bin", "--data", "d.csv", "--out", "r.json",
                 "--emit-csv", "f.csv"]


@pytest.mark.parametrize("argv, first, second", [
    (EVALUATE_ARGV, "--data", "--out"),
    (EVALUATE_ARGV, "--out", "--emit-csv"),
    (["simulate", "--n", "50", "--seeds", "1", "--out", "c.csv", "--dump-data", "x.csv"],
     "--out", "--dump-data"),
], ids=["evaluate-data-out", "evaluate-out-emit-csv", "simulate-out-dump-data"])
def test_output_naming_another_file_exits_before_the_run(tmp_path, monkeypatch, capsys,
                                                         argv, first, second):
    # `second` names `first`'s file as ./name: the paths are compared resolved
    from calrisk import cli

    calls = []
    for name in ("load_dataset", "simulate"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, real=real: calls.append(args) or real(*args))
    monkeypatch.chdir(tmp_path)
    write_random_logits(tmp_path / "d.csv", np.random.default_rng(8), 60)
    for name in ("r.json", "f.csv", "c.csv", "x.csv"):
        (tmp_path / name).write_text("kept\n")
    argv = list(argv)
    argv[argv.index(second) + 1] = "./" + argv[argv.index(first) + 1]
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(argv) == 2
    assert "is the same file as" in capsys.readouterr().err
    assert calls == []
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestConfigFromFlags:
    """The CLI passes on only the config flags given; the configs own the defaults."""

    @pytest.fixture
    def built(self, monkeypatch):
        from calrisk import cli

        configs = []

        def stop(cfg):
            configs.append(cfg)
            raise InputError("stop")

        monkeypatch.setattr(cli, "run_evaluate", lambda cfg, ds: stop(cfg))
        monkeypatch.setattr(cli, "simulate", stop)
        return configs

    def test_no_config_flags_give_the_config_defaults(self, tmp_path, built):
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(8), 60)
        assert main(["evaluate", "--data", data]) == 2
        assert main(["simulate", "--out", str(tmp_path / "curve.csv")]) == 2
        assert built == [RunConfig(), SimConfig()]

    def test_every_config_flag_is_passed_on(self, tmp_path, built):
        data = write_random_logits(tmp_path / "d.csv", np.random.default_rng(8), 60)
        assert main(["evaluate", "--data", data, "--mode", "cce", "--families", "kde, sim",
                     "--test-fraction", "0.25", "--k", "4", "--gamma", "1", "--seed", "7",
                     "--linear-risk", "--grid-kde=0.1,0.2"]) == 2
        assert main(["simulate", "--n", "300", "--d", "4", "--alpha", "0.1",
                     "--model-temp", "0.5", "--seed", "3",
                     "--out", str(tmp_path / "curve.csv")]) == 2
        assert built == [
            RunConfig(mode="cce", families=("kde", "sim"), test_fraction=0.25, k_folds=4,
                      gamma=1.0, seed=7, grids={"kde": [0.1, 0.2]}, linear_risk=True),
            SimConfig(n=300, d=4, alpha=0.1, model_temp=0.5, seed=3),
        ]

    def test_bad_flag_exits_before_the_data_is_read(self, tmp_path, capsys):
        absent = tmp_path / "absent.csv"
        for flags, message in [(["--k", "1"], "need at least 2 folds, got 1"),
                               (["--test-fraction", "1.5"], "test fraction must lie in (0, 1)")]:
            assert main(["evaluate", *flags, "--data", str(absent)]) == 2
            err = capsys.readouterr().err
            assert message in err and "absent.csv" not in err


def test_compare_estimators_script():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_estimators.py"), "--n", "200"],
        capture_output=True, text=True, env=src_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for title, families in [
        ("top-label confidence calibration (tce)", ("bin", "bin15", "kde", "kkr", "ukkr")),
        ("canonical calibration (cce)", ("kde", "kkr", "ukkr", "sim")),
    ]:
        table = proc.stdout.split(title + "\n", 1)[1].split("\n\n", 1)[0]
        rows = table.splitlines()[1:]
        assert [row.split()[0] for row in rows] == list(families)


class TestSharedSpectra:
    @pytest.fixture(scope="class")
    def dataset(self):
        return simulate(SimConfig(n=150, seed=3)).dataset

    @pytest.mark.parametrize("mode", ["tce", "cce"])
    def test_one_eigh_per_fold(self, eigh_calls, dataset, mode):
        # 5 CV folds, each decomposed once for both families' grids and refits
        run_evaluate(RunConfig(mode=mode, families=("kkr", "ukkr"), k_folds=5), dataset)
        assert eigh_calls == [(96, 96)] * 5

    @pytest.mark.parametrize("mode", ["tce", "cce"])
    def test_only_kkr_scores_a_prediction_matrix(self, matrix_risk_calls, dataset, mode):
        # every family but kkr is scored from its (m, d') holdout feature
        # rows; kkr scores one (m, m) matrix per fold and lambda
        families = RunConfig(mode=mode).families + (("sim",) if mode == "cce" else ())
        for fam in families:
            matrix_risk_calls.clear()
            run_evaluate(RunConfig(mode=mode, families=(fam,), k_folds=5), dataset)
            if fam == "kkr":
                grid = pipeline.default_grid("kkr", TOP_LABEL if mode == "tce" else CANONICAL, 96)
                assert matrix_risk_calls == [(24, 24)] * (5 * len(grid))
            else:
                assert matrix_risk_calls == []

    @pytest.mark.parametrize("mode", ["tce", "cce"])
    def test_linear_risk_scores_no_matrix(self, matrix_risk_calls, monkeypatch, dataset,
                                          mode):
        # the linear risk reads its 24 pairs per fold from row factors
        shapes = []
        linear_risk = pipeline.linear_risk

        def counted(F, R, D, seed):
            shapes.append((F.shape, R.shape, D.shape))
            return linear_risk(F, R, D, seed)

        monkeypatch.setattr(pipeline, "linear_risk", counted)
        families = RunConfig(mode=mode).families + (("sim",) if mode == "cce" else ())
        _, grids = run_evaluate(
            RunConfig(mode=mode, families=families, linear_risk=True), dataset)
        assert matrix_risk_calls == []
        # a point that fails on a later fold is scored on the earlier ones
        assert len(shapes) >= 5 * sum(len(grid) for grid in grids.values())
        assert all(s[0] == 24 and s != (24, 24) for call in shapes for s in call)

    @pytest.mark.parametrize("mode,families,linear", [
        ("tce", ("bin", "kde", "kkr", "ukkr"), False),
        ("cce", ("kkr", "ukkr"), False),
        ("cce", ("kkr", "ukkr", "sim"), True),
        ("tce", ("ukkr", "kkr"), True),
    ])
    def test_shared_run_matches_one_family_runs(self, dataset, mode, families, linear):
        shared, shared_grids = run_evaluate(
            RunConfig(mode=mode, families=families, linear_risk=linear), dataset)
        for fam in families:
            alone, alone_grids = run_evaluate(
                RunConfig(mode=mode, families=(fam,), linear_risk=linear), dataset)
            assert shared["families"][fam] == alone["families"][fam]
            assert shared_grids[fam] == alone_grids[fam]
