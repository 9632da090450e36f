"""Smoke tests of scripts/cv_fingerprint.py, the byte-identity check
that performance changes run against their parent commit, and of its
--compare mode, the gate of a change that states a break in the last
bits."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from frlstsvm.classifier import (
    TrainConfig,
    _block_bounds,
    fit_frlstsvm,
    load_model,
    predict,
    save_model,
)
from frlstsvm.dataset import LabeledDataset, fold_rows, stratified_kfold
from frlstsvm.experiment import derive_fold_seed
from frlstsvm.fuzzy_rough import _THREADED_ENTRIES, FuzzyParams

from helpers import make_blobs

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "cv_fingerprint.py"


def load_script():
    spec = importlib.util.spec_from_file_location("cv_fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_writes_cv_files_models_and_predictions(tmp_path):
    script = load_script()
    smoke = {"smoke": dict(tau_grid=(0.0, 0.2), gamma_grid=(1.0,),
                           c1_grid=(1.0,), folds=3, inner_folds=2,
                           score_mode="lower_approx")}
    flags = ("--header", "yes", "--label-column", "class", "--tau", "0,0.2",
             "--gamma", "1", "--c1", "1", "--folds", "3",
             "--inner-folds", "2", "--repeats", "1", "--seed", "1",
             "--score-mode", "lower-approx")
    written = script.write_fingerprint(tmp_path / "out", smoke, flags)
    names = sorted(p.name for p in written)
    # a linear and a gaussian fit, linear fits under each other t-norm
    # and score mode, and a linear and a gaussian fit whose row sums are
    # tiled passes on threads
    assert len(script.FITS) == 7 and len(names) == 2 + 1 + 2 * 7
    assert set(script.FIT_SHAPES) < set(script.FITS)
    assert set(script.CONFIG_SHAPES) < set(script.CONFIGS)
    # a full run writes 39 files: two per CV config, cli.csv, and two
    # per lone fit
    assert 2 * len(script.CONFIGS) + 1 + 2 * len(script.FITS) == 39
    assert names == sorted(
        ["smoke.csv", "smoke.jsonl", "cli.csv"]
        + [f"{fit}.{ext}" for fit in script.FITS
           for ext in ("model", "predict")])
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == names
    csv = (out / "smoke.csv").read_text().splitlines()
    assert csv[0].startswith("repeat,fold,")
    assert [ln.split(",")[1] for ln in csv[1:4]] == ["0", "1", "2"]
    assert len((out / "smoke.jsonl").read_text().splitlines()) >= 3
    # the same run through the command line, from its data's CSV file
    assert (out / "cli.csv").read_bytes() == (out / "smoke.csv").read_bytes()
    for fit in script.FITS:
        load_model(out / f"{fit}.model")
        rows = (out / f"{fit}.predict").read_text().splitlines()
        assert len(rows) == script.PROBE_ROWS
        assert rows[0].split()[0] in ("1", "-1")


def test_the_fits_off_pima_run_threaded_row_sum_passes():
    # pima's majority (500 rows) sums whole rows on the calling thread,
    # so only a larger shape's fit pins the bits of a tiled pass on
    # worker threads, streamed for a linear and for a gaussian fit
    script = load_script()
    shapes = script._perfbench("datagen").SHAPES
    assert shapes[script.SHAPE].majority ** 2 < _THREADED_ENTRIES
    kernels = set()
    for fit, shape in script.FIT_SHAPES.items():
        assert shapes[shape].majority ** 2 >= _THREADED_ENTRIES
        kernels.add(script.FITS[fit].get("kernel", "linear"))
    assert kernels == {"linear", "gaussian"}


def test_the_abalone19_grid_sums_its_held_distances_in_tiles():
    # every inner fold of every outer fold holds a majority distance of
    # over 1024 rows, so its row sums are a tiled self pass
    script = load_script()
    fields = script.CONFIGS["linear_abalone19"]
    assert script.CONFIG_SHAPES["linear_abalone19"] == "abalone19"
    assert (fields["folds"], fields["inner_folds"]) == (3, 2)
    ds = LabeledDataset(*script._perfbench("datagen").make_dataset(
        "abalone19", script.SEED))
    outer = stratified_kfold(ds, fields["folds"], script.SEED)
    for o in range(fields["folds"]):
        train, _ = fold_rows(outer, o)
        inner = stratified_kfold(LabeledDataset(ds.features[train],
                                                ds.labels[train]),
                                 fields["inner_folds"],
                                 derive_fold_seed(script.SEED, 0, o))
        for f in range(fields["inner_folds"]):
            tr, _ = fold_rows(inner, f)
            m2 = int((ds.labels[train][tr] == -1).sum())
            assert m2 * m2 >= _THREADED_ENTRIES


def test_usage_without_an_output_directory(capsys):
    assert load_script().main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_gaussian_grid_shares_kept_sets_and_plane_terms(tmp_path):
    # every density score is >= 1 - gamma under the minimum t-norm, so
    # each tau of the grid keeps every row at its smallest gamma, and
    # every (kept set, sigma) serves more than one c
    script = load_script()
    fields = script.CONFIGS["gaussian_shared"]
    assert fields["kernel"] == "gaussian" and fields["folds"] == 5
    assert max(fields["tau_grid"]) <= 1 - min(fields["gamma_grid"])
    assert len(fields["tau_grid"]) > 1 and len(fields["c1_grid"]) > 1
    assert len(fields["sigma_grid"]) > 1
    smoke = {"smoke": dict(fields, folds=3, inner_folds=2)}
    script.write_fingerprint(tmp_path / "out", smoke)
    csv = (tmp_path / "out" / "smoke.csv").read_text().splitlines()
    sigmas = {float(ln.split(",")[6]) for ln in csv[1:4]}
    assert sigmas <= set(fields["sigma_grid"])


def test_the_yeast3_gaussian_grid_scores_two_kernel_blocks():
    # every inner fold of the first outer fold validates its rows in two
    # predict blocks against the tau-0 fit's reference rows (all of the
    # inner training rows), so the grid's scoring runs on worker threads
    script = load_script()
    fields = script.CONFIGS["gaussian_yeast3"]
    assert script.CONFIG_SHAPES["gaussian_yeast3"] == "yeast3"
    assert fields["kernel"] == "gaussian" and 0.0 in fields["tau_grid"]
    ds = LabeledDataset(*script._perfbench("datagen").make_dataset(
        "yeast3", script.SEED))
    outer = stratified_kfold(ds, fields["folds"], script.SEED)
    train, _ = fold_rows(outer, 0)
    inner = stratified_kfold(LabeledDataset(ds.features[train],
                                            ds.labels[train]),
                             fields["inner_folds"],
                             derive_fold_seed(script.SEED, 0, 0))
    for f in range(fields["inner_folds"]):
        tr, va = fold_rows(inner, f)
        assert len(_block_bounds(va.size, tr.size)) == 2


def fingerprint_pair(tmp_path):
    """Two fingerprint-like directories with the same CV file, model
    file and predictions: a small linear fit's."""
    x, y = make_blobs(60, m1=10, m2=30)
    model = fit_frlstsvm(LabeledDataset(x, y), TrainConfig(
        c1=1.0, c2=1.0, tau=0.2, fuzzy=FuzzyParams(gamma=1.0)))
    dirs = tmp_path / "parent", tmp_path / "change"
    for d in dirs:
        d.mkdir()
        save_model(model, d / "fit.model")
        labels, d1, d2 = predict(model, x, return_distances=True)
        (d / "fit.predict").write_text("".join(
            f"{label} {a!r} {b!r}\n" for label, a, b in
            zip(labels.tolist(), d1.tolist(), d2.tolist())))
        (d / "cv.csv").write_text("repeat,fold,gmean\n0,0,0.9\n")
    return dirs


def test_compare_reports_a_one_ulp_coefficient_and_no_flip(tmp_path,
                                                            capsys):
    script = load_script()
    parent, change = fingerprint_pair(tmp_path)
    assert script.main(["--compare", str(parent), str(change)]) == 0
    assert "identical: 3 files" in capsys.readouterr().out
    # one ulp up on plane 1's first coefficient
    path = change / "fit.model"
    lines = path.read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("w1 "))
    parts = lines[row].split()
    bumped = np.nextafter(float(parts[1]), np.inf)
    parts[1] = f"{bumped:.17g}"
    lines[row] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    assert script.main(["--compare", str(parent), str(change)]) == 0
    out = capsys.readouterr().out
    assert "identical: 2 files" in out and "differ: 1 files" in out
    assert "fit.model: 1 of " in out and "max ulps 1\n" in out
    assert out.endswith("gate: pass\n")


def test_compare_fails_on_a_flipped_label_or_a_csv_byte(tmp_path, capsys):
    script = load_script()
    parent, change = fingerprint_pair(tmp_path)
    path = change / "fit.predict"
    rows = path.read_text().splitlines()
    label, rest = rows[3].split(" ", 1)
    rows[3] = f"{-int(label)} {rest}"
    path.write_text("\n".join(rows) + "\n")
    assert script.main(["--compare", str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    assert "fit.predict: 1 of 40 labels flipped" in out
    assert out.endswith("gate: FAIL\n")
    # the predictions again, and one byte of a result file
    path.write_text((parent / "fit.predict").read_text())
    (change / "cv.csv").write_text("repeat,fold,gmean\n0,0,0.8\n")
    assert script.main(["--compare", str(parent), str(change)]) == 1
    assert "cv.csv: differs  FAIL" in capsys.readouterr().out


def test_compare_refuses_a_change_in_a_models_text(tmp_path, capsys):
    script = load_script()
    parent, change = fingerprint_pair(tmp_path)
    path = change / "fit.model"
    path.write_text(path.read_text().replace("tnorm minimum",
                                             "tnorm product"))
    assert script.main(["--compare", str(parent), str(change)]) == 1
    assert "fit.model: text differs  FAIL" in capsys.readouterr().out
