"""End-to-end checks of the command-line surface."""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frlstsvm.classifier import (
    fit_frlstsvm,
    fit_lstsvm_baseline,
    load_model,
    predict,
)
from frlstsvm import cli
from frlstsvm.cli import build_parser, main
from frlstsvm.dataset import (
    LabeledDataset,
    load_csv,
    minmax_apply,
    minmax_fit,
    write_csv,
)
from frlstsvm.errors import ExperimentError
from frlstsvm.experiment import CONFIG_KEYS, parse_config
from frlstsvm.fuzzy_rough import (
    SCORE_MODES,
    T_NORMS,
    FuzzyParams,
    positive_region_scores,
)
from frlstsvm.metrics import confusion, report

from helpers import make_blobs


@pytest.fixture()
def blob_csv(tmp_path):
    x, y = make_blobs(200, m1=12, m2=36)
    path = tmp_path / "blobs.csv"
    write_csv(LabeledDataset(x, y), str(path))
    return str(path), x, y


SUBSAMPLE_FILE = "0\n0.1\n0.9\n1.0\n"
SUBSAMPLE_LABELS = ["b", "b", "b", "a"]


@pytest.fixture()
def tiny_csv(tmp_path):
    lines = [
        f"{row},{label}"
        for row, label in zip(SUBSAMPLE_FILE.split(), SUBSAMPLE_LABELS)
    ]
    path = tmp_path / "tiny.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestTrainEval:
    def test_train_writes_model_and_reports(self, blob_csv, tmp_path,
                                            capsys):
        data, x, y = blob_csv
        out = tmp_path / "m.model"
        code = main([
            "train", "--data", data, "--header", "--positive-label", "1",
            "--tau", "0.2", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "12 minority" in text
        model = load_model(str(out))
        assert model.config.tau == 0.2

    def test_train_eval_matches_baseline(self, blob_csv, tmp_path, capsys):
        data, x, y = blob_csv
        out = tmp_path / "m.model"
        assert main([
            "train", "--data", data, "--header", "--positive-label", "1",
            "--tau", "0", "--no-weights", "--out", str(out),
        ]) == 0
        metrics_out = tmp_path / "metrics.csv"
        assert main([
            "eval", "--model", str(out), "--data", data, "--header",
            "--positive-label", "1", "--out", str(metrics_out),
        ]) == 0
        table = capsys.readouterr().out
        assert "blobs.csv" in table

        scaling = minmax_fit(x)
        xs = minmax_apply(scaling, x)
        baseline = fit_lstsvm_baseline(xs[y == 1], xs[y == -1], 1.0, 1.0,
                                       scaling=scaling)
        want = report(confusion(y, predict(baseline, x)))
        lines = metrics_out.read_text().splitlines()
        assert lines[0] == "dataset,config,acc,sen,spe,gmean,convention"
        cells = lines[1].split(",")
        assert float(cells[2]) == pytest.approx(want.accuracy, abs=1e-12)
        assert float(cells[5]) == pytest.approx(want.gmean, abs=1e-12)

    def test_gaussian_train_needs_sigma(self, blob_csv, tmp_path, capsys):
        data, _, _ = blob_csv
        code = main([
            "train", "--data", data, "--header", "--positive-label", "1",
            "--kernel", "gaussian", "--out", str(tmp_path / "m.model"),
        ])
        assert code == 1
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, ridged", [
        (["--kernel", "gaussian", "--sigma", "4", "--delta", "0"], True),
        (["--kernel", "gaussian", "--sigma", "1"], False),
        ([], False),
    ], ids=["escalating", "gaussian", "linear"])
    def test_train_names_each_ridged_plane(self, blob_csv, tmp_path,
                                           capsys, flags, ridged):
        data, _, _ = blob_csv
        out = tmp_path / "m.model"
        assert main(["train", "--data", data, "--header",
                     "--positive-label", "1", "--out", str(out),
                     *flags]) == 0
        captured = capsys.readouterr()
        reports = fit_reports(data, flags)
        lines = captured.out.splitlines()[1:]
        assert lines == [
            f"{plane}: solver added ridge {rep.ridge_added:.3g} after "
            f"{rep.factorization_attempts} factorizations"
            for plane, rep in reports.items() if rep.ridge_added]
        assert len(lines) == (2 if ridged else 0)
        assert captured.err == ""


def fit_reports(data, flags):
    """The solver reports of the fit that `train` runs with flags."""
    args = build_parser().parse_args(
        ["train", "--data", data, "--header", "--positive-label", "1",
         "--out", "unused", *flags])
    model = fit_frlstsvm(load_csv(data, -1, "1", True),
                         cli._config_from_args(args))
    return model.summary.solver_reports


class TestPredict:
    def fit(self, blob_csv, tmp_path):
        data, x, y = blob_csv
        out = tmp_path / "m.model"
        main([
            "train", "--data", data, "--header", "--positive-label", "1",
            "--out", str(out),
        ])
        return str(out), x, y

    def test_prediction_csv_layout(self, blob_csv, tmp_path, capsys):
        model_path, x, y = self.fit(blob_csv, tmp_path)
        capsys.readouterr()
        raw = tmp_path / "raw.csv"
        np.savetxt(raw, x[:5], delimiter=",")
        assert main([
            "predict", "--model", model_path, "--data", str(raw),
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "row,label,dist1,dist2"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "0"
        assert int(first[1]) in (1, -1)
        assert float(first[2]) >= 0.0

    def test_out_file(self, blob_csv, tmp_path, capsys):
        model_path, x, y = self.fit(blob_csv, tmp_path)
        raw = tmp_path / "raw.csv"
        np.savetxt(raw, x[:3], delimiter=",")
        dest = tmp_path / "preds.csv"
        assert main([
            "predict", "--model", model_path, "--data", str(raw),
            "--out", str(dest),
        ]) == 0
        assert dest.read_text().startswith("row,label,dist1,dist2\n")
        assert "3 predictions" in capsys.readouterr().out

    def test_wrong_column_count_exits_one(self, blob_csv, tmp_path,
                                          capsys):
        model_path, x, y = self.fit(blob_csv, tmp_path)
        wide = tmp_path / "wide.csv"
        np.savetxt(wide, np.hstack([x[:4], np.ones((4, 1))]),
                   delimiter=",")
        code = main([
            "predict", "--model", model_path, "--data", str(wide),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "features" in err

    def test_label_column_is_dropped_when_named(self, blob_csv, tmp_path,
                                                capsys):
        model_path, x, y = self.fit(blob_csv, tmp_path)
        capsys.readouterr()
        assert main([
            "predict", "--model", model_path, "--data", blob_csv[0],
            "--header", "--label-column", "-1", "--positive-label", "1",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + x.shape[0]


    def test_keel_rows_lose_their_label(self, blob_csv, tmp_path, capsys):
        model_path, x, y = self.fit(blob_csv, tmp_path)
        keel = tmp_path / "blobs.dat"
        lines = [f"@attribute x{j} real" for j in range(x.shape[1])]
        lines += ["@attribute cls {1, -1}", "@data"]
        lines += [", ".join([*map(repr, row.tolist()), str(label)])
                  for row, label in zip(x, y)]
        keel.write_text("\n".join(lines) + "\n")
        raw = tmp_path / "raw.csv"
        np.savetxt(raw, x, delimiter=",")
        capsys.readouterr()
        outputs = []
        for flags in (["--data", str(keel), "--format", "keel",
                       "--positive-label", "1"], ["--data", str(raw)]):
            assert main(["predict", "--model", model_path, *flags]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 1 + x.shape[0]


class TestSubsample:
    def test_threshold_example(self, tiny_csv, capsys):
        assert main([
            "subsample", "--data", tiny_csv, "--tau", "0.4",
        ]) == 0
        out = capsys.readouterr().out
        assert "tau=0.4: kept 2 of 3 majority instances" in out
        rows = [line.split() for line in out.splitlines()[1:4]]
        assert [r[3] for r in rows] == ["yes", "yes", "no"]

    def test_score_column_matches_example(self, tiny_csv, tmp_path):
        dest = tmp_path / "scores.csv"
        assert main([
            "subsample", "--data", tiny_csv, "--tau", "0.4",
            "--out", str(dest),
        ]) == 0
        lines = dest.read_text().splitlines()
        assert lines[0] == "index,row,score,kept"
        got = [line.split(",") for line in lines[1:]]
        scores = [float(cells[2]) for cells in got]
        assert scores == pytest.approx([0.50, 0.55, 0.15])
        assert [cells[3] for cells in got] == ["1", "1", "0"]

    @pytest.mark.parametrize("score_mode", SCORE_MODES)
    @pytest.mark.parametrize("tnorm", T_NORMS)
    def test_scores_are_positive_region_scores_on_scaled_rows(
            self, blob_csv, tmp_path, capsys, tnorm, score_mode):
        data = blob_csv[0]
        ds = load_csv(data, -1, "1", True)
        xs = minmax_apply(minmax_fit(ds.features), ds.features)
        scores = positive_region_scores(
            xs, ds.labels, FuzzyParams(gamma=2.0, tnorm=tnorm,
                                       score_mode=score_mode),
            target_class=-1)
        tau = float(np.median(scores.scores))
        kept = scores.scores >= tau
        dest = tmp_path / "scores.csv"
        assert main([
            "subsample", "--data", data, "--header", "--positive-label",
            "1", "--gamma", "2", "--tnorm", tnorm, "--score-mode",
            score_mode.replace("_", "-"), "--tau", repr(tau),
            "--out", str(dest),
        ]) == 0
        rows = list(enumerate(zip(scores.row_indices.tolist(),
                                  scores.scores.tolist(), kept.tolist())))
        assert dest.read_text() == "index,row,score,kept\n" + "".join(
            f"{i},{row},{score:.17g},{int(k)}\n"
            for i, (row, score, k) in rows)
        assert capsys.readouterr().out == (
            f"{'index':>6} {'row':>6} {'score':>10} kept\n" + "".join(
                f"{i:>6} {row:>6} {score:>10.6f} {'yes' if k else 'no'}\n"
                for i, (row, score, k) in rows)
            + f"tau={tau:g}: kept {int(kept.sum())} of {kept.size} "
            "majority instances\n")

    def test_tau_one_on_spread_data_exits_one(self, tiny_csv, capsys):
        code = main(["subsample", "--data", tiny_csv, "--tau", "2.0"])
        assert code == 1
        captured = capsys.readouterr()
        assert "tau must be in [0, 1]" in captured.err
        assert "kept" not in captured.out

    @pytest.mark.parametrize("tau", ["1.5", "-0.5", "nan"])
    def test_tau_outside_unit_interval_exits_one(self, tiny_csv, capsys,
                                                 tau):
        # the same check as train's
        assert main(["subsample", "--data", tiny_csv, "--tau", tau]) == 1
        captured = capsys.readouterr()
        assert "error: tau must be in [0, 1]" in captured.err
        assert captured.out == ""


class TestCv:
    def test_config_file_run_writes_results(self, blob_csv, tmp_path,
                                            capsys):
        data, _, _ = blob_csv
        conf = tmp_path / "cv.conf"
        conf.write_text(
            f"data = {data}\n"
            "header = true\n"
            "positive_label = 1\n"
            "tau = 0,0.3\n"
            "gamma = 1.0\n"
            "c1 = 1.0\n"
            "folds = 3\n"
            "inner_folds = 2\n"
            "repeats = 1\n"
        )
        dest = tmp_path / "cv.csv"
        assert main(["cv", "--config", str(conf), "--out", str(dest)]) == 0
        out = capsys.readouterr().out
        assert "wall time" in out
        assert dest.exists()
        lines = dest.read_text().splitlines()
        assert lines[0].startswith("repeat,fold,")
        assert len(lines) == 1 + 3 + 2

    def test_flags_override_config(self, blob_csv, tmp_path, capsys):
        data, _, _ = blob_csv
        conf = tmp_path / "cv.conf"
        conf.write_text(
            f"data = {data}\nheader = true\npositive_label = 1\n"
            "tau = 0\ngamma = 1.0\nc1 = 1.0\n"
            "folds = 3\ninner_folds = 2\nrepeats = 2\n"
        )
        dest = tmp_path / "cv.csv"
        assert main([
            "cv", "--config", str(conf), "--repeats", "1",
            "--out", str(dest),
        ]) == 0
        lines = dest.read_text().splitlines()
        assert len(lines) == 1 + 3 + 2

    def test_hopeless_grid_exits_one(self, blob_csv, tmp_path, capsys):
        data, _, _ = blob_csv
        code = main([
            "cv", "--data", data, "--header", "true",
            "--positive-label", "1", "--tau", "1.0", "--gamma", "1.0",
            "--c1", "1.0", "--folds", "3", "--inner-folds", "2",
            "--repeats", "1",
        ])
        assert code == 1
        assert "every grid point" in capsys.readouterr().err

    def test_every_config_key_has_exactly_one_flag(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        dests = [a.dest for a in sub.choices["cv"]._actions
                 if a.dest not in ("help", "config", "out")]
        assert sorted(dests) == sorted(CONFIG_KEYS)

    def test_flags_reach_their_config_fields(self, monkeypatch, capsys):
        seen = []

        def stop(config):
            seen.append(config)
            raise ExperimentError("stopped")

        monkeypatch.setattr(cli, "run_nested_cv", stop)
        assert main([
            "cv", "--data", "d.dat", "--format", "keel",
            "--positive-label", "p", "--label-column", "2",
            "--header", "true", "--tau", "0.1,0.2", "--gamma", "0.5",
            "--c1", "2", "--c2", "4", "--sigma", "3", "--delta", "0.01",
            "--kernel", "gaussian", "--tnorm", "product",
            "--score-mode", "lower-approx",
            "--weights", "false", "--folds", "4",
            "--inner-folds", "3", "--repeats", "2", "--seed", "7",
            "--metric-convention", "paper_literal", "--workers", "2",
        ]) == 1
        got = seen[0]
        assert (got.data, got.fmt, got.positive_label, got.label_column,
                got.has_header) == ("d.dat", "keel", "p", 2, True)
        assert (got.tau_grid, got.gamma_grid, got.c1_grid, got.c2_grid,
                got.sigma_grid) == ((0.1, 0.2), (0.5,), (2.0,), (4.0,),
                                    (3.0,))
        assert (got.delta, got.kernel, got.tnorm, got.score_mode) == (
            0.01, "gaussian", "product", "lower_approx")
        assert got.weights_enabled is False
        assert (got.folds, got.inner_folds, got.repeats, got.seed,
                got.convention, got.workers) == (
            4, 3, 2, 7, "paper_literal", 2)

    @pytest.mark.parametrize("flag, value, names", [
        ("--kernel", "poly", "kernel"),
        ("--format", "arff", "format"),
        ("--tnorm", "max", "tnorm"),
        ("--header", "maybe", "header"),
        ("--weights", "2", "weights"),
        ("--metric-convention", "loose", "paper_literal"),
        ("--folds", "ten", "folds"),
    ])
    def test_a_bad_value_exits_one_naming_its_key(self, capsys, flag,
                                                  value, names):
        # checked where a config file's value is, not by argparse
        assert main(["cv", "--data", "d.csv", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert names in captured.err and repr(value) in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_a_flag_takes_the_config_files_text(self, tmp_path,
                                                monkeypatch):
        seen = []

        def stop(config):
            seen.append(config)
            raise ExperimentError("stopped")

        monkeypatch.setattr(cli, "run_nested_cv", stop)
        conf = tmp_path / "cv.conf"
        conf.write_text("data = d.csv\nheader = yes\n")
        assert main(["cv", "--config", str(conf)]) == 1
        assert main(["cv", "--data", "d.csv", "--header", "yes"]) == 1
        assert seen[0] == seen[1] == parse_config(
            overrides={"data": "d.csv", "header": "true"})
        assert seen[0].has_header is True


class TestErrors:
    @pytest.mark.parametrize("command", [
        ["train", "--header", "--out", "m.model"],
        ["cv", "--header", "true", "--tau", "0.2", "--gamma", "1", "--c1",
         "1", "--folds", "3", "--inner-folds", "2", "--repeats", "1"],
        ["subsample", "--header", "--tau", "0.2"],
    ], ids=["train", "cv", "subsample"])
    def test_range_beyond_float64_exits_one(self, blob_csv, tmp_path,
                                            capsys, monkeypatch, command):
        # max - min of this column overflows, so scaling would give NaN
        _, x, y = blob_csv
        x = x.copy()
        x[:2, 1] = (-1.5e308, 1.5e308)
        path = tmp_path / "wide.csv"
        write_csv(LabeledDataset(x, y), str(path))
        monkeypatch.chdir(tmp_path)
        code = main([command[0], "--data", str(path), "--positive-label",
                     "1", *command[1:]])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: feature column 1 ")
        assert "range beyond float64" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "m.model").exists()

    @pytest.mark.parametrize("command", [
        ["train", "--header", "--out", "m.model"],
        ["cv", "--header", "true", "--tau", "0", "--gamma", "1", "--c1",
         "1", "--folds", "3", "--inner-folds", "2", "--repeats", "1"],
    ], ids=["train", "cv"])
    @pytest.mark.parametrize("sigma", ["1e-300", "1e300"])
    def test_sigma_whose_two_sigma_squared_is_not_finite_exits_one(
            self, blob_csv, tmp_path, capsys, monkeypatch, command, sigma):
        # 2 sigma^2 rounds to 0 or overflows: refused up front, not a
        # non-finite-system traceback or a fit on a constant kernel
        data, _, _ = blob_csv
        monkeypatch.chdir(tmp_path)
        code = main([command[0], "--data", data, "--positive-label", "1",
                     "--kernel", "gaussian", "--sigma", sigma, *command[1:]])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: sigma must be > 0 with ")
        assert f"got {float(sigma)}" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "m.model").exists()

    @pytest.mark.parametrize("command", [
        ["train", "--data", "BAD", "--out", "m.model"],
        ["train", "--data", "BAD", "--format", "keel", "--out", "m.model"],
        ["cv", "--config", "BAD"],
        ["predict", "--model", "BAD", "--data", "BAD"],
    ], ids=["train-csv", "train-keel", "cv-config", "predict-model"])
    def test_a_file_that_is_not_utf8_exits_one(self, tmp_path, capsys,
                                                monkeypatch, command):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("1,2,caf\xe9\n".encode("latin-1"))
        monkeypatch.chdir(tmp_path)
        code = main([str(bad) if arg == "BAD" else arg for arg in command])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read ")
        assert f"{bad}: 'utf-8' codec can't decode" in err
        assert "Traceback" not in err
        assert not (tmp_path / "m.model").exists()

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_data_file_exits_one(self, tmp_path, capsys):
        code = main([
            "train", "--data", str(tmp_path / "none.csv"),
            "--out", str(tmp_path / "m.model"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_module_entry_point(self):
        # the subprocess imports the package from this checkout's src,
        # whether or not the test run itself had it on PYTHONPATH
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        proc = subprocess.run(
            [sys.executable, "-m", "frlstsvm.cli", "--help"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        for name in ("train", "predict", "eval", "subsample", "cv"):
            assert name in proc.stdout
