"""Smoke test of scripts/cv_fingerprint.py, the byte-identity check
that performance changes run against their parent commit."""
from __future__ import annotations

import importlib.util
from pathlib import Path

from frlstsvm.classifier import load_model
from frlstsvm.fuzzy_rough import _THREADED_ENTRIES

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
    # and score mode, and a linear fit whose row sums run on threads
    assert len(script.FITS) == 6 and len(names) == 2 + 1 + 2 * 6
    assert set(script.FIT_SHAPES) < set(script.FITS)
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
    # pima's majority (500 rows) sums on the calling thread, so only a
    # larger shape's fit pins the bits of a threaded pass
    script = load_script()
    shapes = script._perfbench("datagen").SHAPES
    assert shapes[script.SHAPE].majority ** 2 < _THREADED_ENTRIES
    assert script.FIT_SHAPES
    for shape in script.FIT_SHAPES.values():
        assert shapes[shape].majority ** 2 >= _THREADED_ENTRIES


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
