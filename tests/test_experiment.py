"""Grid construction, config parsing, and the nested CV harness."""
from __future__ import annotations

import dataclasses
import functools
import json
import tracemalloc

import numpy as np
import pytest

from frlstsvm import classifier, experiment
from frlstsvm.classifier import PreparedFold, fit_frlstsvm, predict
from frlstsvm.dataset import (
    LabeledDataset,
    fold_rows,
    stratified_kfold,
    subset,
)
from frlstsvm.errors import (
    ConfigurationError,
    DataError,
    DegenerateModelError,
    ExperimentError,
    SingularSystemError,
)
from frlstsvm.experiment import (
    CONFIG_KEYS,
    CSV_COLUMNS,
    DEFAULT_C_GRID,
    DEFAULT_GAMMA_GRID,
    DEFAULT_SIGMA_GRID,
    DEFAULT_TAU_GRID,
    METRIC_KEYS,
    ExperimentConfig,
    GridPoint,
    cv_csv_text,
    cv_jsonl_text,
    format_cv_table,
    grid_points,
    parse_config,
    run_nested_cv,
    write_cv_result,
)
from frlstsvm.fuzzy_rough import FuzzyParams
from frlstsvm.metrics import confusion, report

from helpers import make_blobs


SMALL = dict(
    tau_grid=(0.0, 0.3),
    gamma_grid=(1.0,),
    c1_grid=(1.0,),
    folds=3,
    inner_folds=2,
    repeats=2,
)


def blob_dataset(seed=100, m1=15, m2=45):
    x, y = make_blobs(seed, m1=m1, m2=m2)
    return LabeledDataset(x, y)


class TestDefaultGrids:
    def test_tau_grid_spans_unit_interval_in_twentieths(self):
        assert len(DEFAULT_TAU_GRID) == 21
        assert DEFAULT_TAU_GRID[0] == 0.0
        assert DEFAULT_TAU_GRID[-1] == 1.0
        assert DEFAULT_TAU_GRID[1] == 0.05

    def test_gamma_grid(self):
        assert len(DEFAULT_GAMMA_GRID) == 20
        assert DEFAULT_GAMMA_GRID[0] == 0.1
        assert DEFAULT_GAMMA_GRID[-1] == 2.0

    def test_penalty_and_sigma_grids_are_powers_of_two(self):
        assert DEFAULT_C_GRID[0] == 2.0 ** -8
        assert DEFAULT_C_GRID[-1] == 2.0 ** 8
        assert len(DEFAULT_C_GRID) == 9
        assert DEFAULT_SIGMA_GRID == tuple(2.0 ** e for e in range(-4, 5))


class TestGridPoints:
    def test_deterministic_ascending_order(self):
        cfg = ExperimentConfig(
            tau_grid=(0.4, 0.0), gamma_grid=(2.0, 1.0), c1_grid=(4.0, 1.0)
        )
        pts = grid_points(cfg)
        assert pts[0] == GridPoint(0.0, 1.0, 1.0, 1.0, None)
        assert pts == sorted(pts, key=lambda p: (p.tau, p.gamma, p.c1))
        assert len(pts) == 8
        assert all(p.c1 == p.c2 for p in pts)
        assert all(p.sigma is None for p in pts)

    def test_untied_penalties(self):
        cfg = ExperimentConfig(
            tau_grid=(0.0,), gamma_grid=(1.0,), c1_grid=(1.0, 2.0),
            c2_grid=(8.0,),
        )
        pts = grid_points(cfg)
        assert [(p.c1, p.c2) for p in pts] == [(1.0, 8.0), (2.0, 8.0)]

    @pytest.mark.parametrize("c2_grid", [None, (8.0, 0.5, 8.0)])
    def test_order_is_that_of_nested_loops(self, c2_grid):
        cfg = ExperimentConfig(
            tau_grid=(0.4, 0.0), gamma_grid=(2.0, 1.0), c1_grid=(4.0, 1.0),
            c2_grid=c2_grid, sigma_grid=(2.0, 0.5, 2.0), kernel="gaussian",
        )
        want = []
        for t in (0.0, 0.4):
            for g in (1.0, 2.0):
                for a in (1.0, 4.0):
                    for b in (a,) if c2_grid is None else (0.5, 8.0):
                        for s in (0.5, 2.0):
                            want.append(GridPoint(t, g, a, b, s))
        assert grid_points(cfg) == want

    def test_gaussian_adds_sigma_axis(self):
        cfg = ExperimentConfig(
            tau_grid=(0.0,), gamma_grid=(1.0,), c1_grid=(1.0,),
            sigma_grid=(0.5, 0.25), kernel="gaussian",
        )
        pts = grid_points(cfg)
        assert [p.sigma for p in pts] == [0.25, 0.5]


class TestExperimentConfigValidation:
    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(tau_grid=())

    def test_rejects_out_of_range_grid_values(self):
        with pytest.raises(ConfigurationError, match="tau"):
            ExperimentConfig(tau_grid=(0.0, 1.5))
        with pytest.raises(ConfigurationError, match="gamma"):
            ExperimentConfig(gamma_grid=(-1.0,))
        with pytest.raises(ConfigurationError, match="c1"):
            ExperimentConfig(c1_grid=(0.0,))

    @pytest.mark.parametrize("fields, message", [
        (dict(tau_grid=(0.0, 1.5)), "tau must be in [0, 1], got 1.5"),
        (dict(gamma_grid=(1.0, -1.0)), "gamma must be > 0, got -1.0"),
        (dict(c1_grid=(1.0, 0.0)), "c1 must be > 0, got 0.0"),
        (dict(c1_grid=(1.0,), c2_grid=(1.0, 2.0, np.inf)),
         "c2 must be > 0, got inf"),
        (dict(sigma_grid=(np.nan,)),
         "sigma must be > 0 with 2 sigma^2 finite and > 0, got nan"),
        (dict(delta=-1.0), "delta must be >= 0, got -1.0"),
        (dict(kernel="poly"),
         "kernel must be one of ('linear', 'gaussian'), got 'poly'"),
        (dict(tnorm="max"), "tnorm must be one of ('minimum', 'product', "
                            "'lukasiewicz'), got 'max'"),
        (dict(c2_grid=()), "c2 grid must be a non-empty tuple"),
    ])
    def test_a_value_gets_the_message_of_the_check_a_fit_applies(
            self, fields, message):
        with pytest.raises(ConfigurationError) as exc:
            ExperimentConfig(**fields)
        assert str(exc.value) == message

    @pytest.mark.parametrize("sigma", [1e-200, 1e-300, 1e154, 1e300])
    def test_rejects_a_sigma_whose_two_sigma_squared_is_not_finite_positive(
            self, sigma):
        # 2 sigma^2 rounds to 0 (1e-200, 1e-300) or overflows (1e154,
        # 1e300): the search would fail midway or fit a constant kernel
        with pytest.raises(ConfigurationError, match="sigma"):
            ExperimentConfig(kernel="gaussian", sigma_grid=(1.0, sigma))

    def test_accepts_a_subnormal_two_sigma_squared(self):
        cfg = ExperimentConfig(kernel="gaussian", sigma_grid=(1e-160,))
        assert cfg.sigma_grid == (1e-160,)

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError, match="folds"):
            ExperimentConfig(folds=1)
        with pytest.raises(ConfigurationError, match="repeats"):
            ExperimentConfig(repeats=0)
        with pytest.raises(ConfigurationError, match="workers"):
            ExperimentConfig(workers=0)

    @pytest.mark.parametrize("name, value", [
        ("seed", 1.5), ("folds", 3.5), ("inner_folds", 2.0),
        ("repeats", 2.0), ("workers", 2.5), ("seed", "1"),
        ("folds", None), ("repeats", np.float64(2.0)),
    ])
    def test_rejects_a_count_that_is_not_an_integer(self, name, value):
        # run_nested_cv would die in numpy's SeedSequence or in range
        with pytest.raises(ConfigurationError) as exc:
            ExperimentConfig(**{name: value})
        assert str(exc.value) == f"{name} must be an integer, got {value!r}"

    def test_accepts_numpy_integer_counts(self):
        cfg = ExperimentConfig(seed=np.uint64(2 ** 64 - 1),
                               folds=np.int64(3), inner_folds=np.int32(2),
                               repeats=np.int8(1), workers=np.int16(1))
        assert (cfg.folds, cfg.inner_folds, cfg.repeats) == (3, 2, 1)

    @pytest.mark.parametrize("name, value, kind", [
        ("has_header", "false", "a bool"),
        ("weights_enabled", "false", "a bool"),
        ("has_header", 1, "a bool"),
        ("label_column", 1.5, "an integer or a column name"),
        ("label_column", None, "an integer or a column name"),
        ("delta", "1e-6", "a number"),
    ])
    def test_rejects_a_setting_of_the_wrong_type(self, name, value, kind):
        # a non-empty string is truthy, so "false" acted as True; a float
        # column was taken; a string delta died in numpy's isfinite
        with pytest.raises(ConfigurationError) as exc:
            ExperimentConfig(**{name: value})
        assert str(exc.value) == f"{name} must be {kind}, got {value!r}"

    def test_accepts_numpy_bools_and_numbers(self):
        cfg = ExperimentConfig(has_header=np.bool_(True),
                               weights_enabled=np.False_,
                               label_column=np.int64(0),
                               delta=np.float32(1e-6))
        assert cfg.has_header and not cfg.weights_enabled
        assert ExperimentConfig(label_column="class", delta=0).delta == 0

    def test_keeps_the_range_messages(self):
        for fields, message in ((dict(folds=1), "folds must be >= 2, got 1"),
                                (dict(seed=-1),
                                 "seed must fit in 64 unsigned bits"),
                                (dict(seed=2 ** 64),
                                 "seed must fit in 64 unsigned bits")):
            with pytest.raises(ConfigurationError) as exc:
                ExperimentConfig(**fields)
            assert str(exc.value) == message


class TestParseConfig:
    def test_no_file_yields_defaults(self):
        cfg = parse_config()
        assert cfg.tau_grid == DEFAULT_TAU_GRID
        assert cfg.gamma_grid == DEFAULT_GAMMA_GRID
        assert cfg.c1_grid == DEFAULT_C_GRID
        assert cfg.sigma_grid == DEFAULT_SIGMA_GRID
        assert cfg.delta == 1e-6
        assert cfg.folds == 10 and cfg.repeats == 10
        assert cfg.kernel == "linear"

    def test_small_file(self, tmp_path):
        path = tmp_path / "cv.conf"
        path.write_text(
            "# comment line\n"
            "tau = 0.2,0.4\n"
            "gamma = 1.0   # trailing comment\n"
            "folds = 4\n"
            "weights = off\n"
            "score_mode = lower-approx\n"
        )
        cfg = parse_config(str(path))
        assert cfg.tau_grid == (0.2, 0.4)
        assert cfg.gamma_grid == (1.0,)
        assert cfg.folds == 4
        assert cfg.weights_enabled is False
        assert cfg.score_mode == "lower_approx"

    def test_negative_gamma_is_a_range_error(self, tmp_path):
        path = tmp_path / "cv.conf"
        path.write_text("gamma = -1\n")
        with pytest.raises(ConfigurationError, match="gamma"):
            parse_config(str(path))

    def test_unknown_key_is_named(self, tmp_path):
        path = tmp_path / "cv.conf"
        path.write_text("taus = 0.2\n")
        with pytest.raises(ConfigurationError, match="taus"):
            parse_config(str(path))

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "cv.conf"
        path.write_text("folds = 4\njust words\n")
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_config(str(path))

    def test_overrides_beat_file_values(self, tmp_path):
        path = tmp_path / "cv.conf"
        path.write_text("folds = 4\nseed = 7\n")
        cfg = parse_config(str(path), overrides={"folds": "6"})
        assert cfg.folds == 6 and cfg.seed == 7

    def test_label_column_is_int_when_it_can_be(self):
        assert parse_config(overrides={"label_column": "2"}).label_column == 2
        got = parse_config(overrides={"label_column": "Class"})
        assert got.label_column == "Class"

    def test_bad_boolean(self, tmp_path):
        path = tmp_path / "cv.conf"
        path.write_text("weights = maybe\n")
        with pytest.raises(ConfigurationError, match="boolean"):
            parse_config(str(path))

    @pytest.mark.parametrize("key, text, expected", [
        ("folds", "ten", "folds: expected an integer, got 'ten'"),
        ("delta", "tiny", "delta: expected a number, got 'tiny'"),
        ("header", "maybe", "header: expected a boolean, got 'maybe'"),
        ("tau", "0.2,x", "tau: expected comma-separated numbers, "
                         "got '0.2,x'"),
        ("gamma", " , ", "gamma: expected comma-separated numbers, "
                         "got ','"),
    ])
    def test_a_refused_value_names_its_key(self, tmp_path, key, text,
                                           expected):
        path = tmp_path / "cv.conf"
        path.write_text(f"{key} = {text}\n")
        for source in (dict(path=str(path)),
                       dict(overrides={key: text})):
            with pytest.raises(ConfigurationError) as exc:
                parse_config(**source)
            assert str(exc.value) == expected

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            parse_config(str(tmp_path / "none.conf"))

    def test_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "cv.conf"
        path.write_bytes("data = caf\xe9.csv\n".encode("latin-1"))
        with pytest.raises(ConfigurationError,
                           match=f"^cannot read config {path}: 'utf-8'"):
            parse_config(str(path))

    def test_config_keys_and_fields_match_one_to_one(self):
        targets = [field for field, _ in CONFIG_KEYS.values()]
        fields = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert sorted(targets) == sorted(fields)


class TestRunNestedCv:
    def test_separable_blobs_score_high(self):
        cfg = ExperimentConfig(**SMALL)
        result = run_nested_cv(cfg, dataset=blob_dataset())
        assert result.aggregates["accuracy"][0] >= 0.99
        assert len(result.records) == cfg.folds * cfg.repeats

    def test_records_arrive_sorted(self):
        cfg = ExperimentConfig(**SMALL)
        result = run_nested_cv(cfg, dataset=blob_dataset())
        keys = [(r.repeat, r.fold) for r in result.records]
        assert keys == sorted(keys)

    def test_identical_runs_write_identical_files(self, tmp_path):
        cfg = ExperimentConfig(**SMALL)
        a = run_nested_cv(cfg, dataset=blob_dataset())
        b = run_nested_cv(cfg, dataset=blob_dataset())
        for suffix in ("csv", "jsonl"):
            pa = tmp_path / f"a.{suffix}"
            pb = tmp_path / f"b.{suffix}"
            write_cv_result(a, str(pa))
            write_cv_result(b, str(pb))
            assert pa.read_bytes() == pb.read_bytes()

    def test_worker_count_does_not_change_results(self, tmp_path):
        serial = ExperimentConfig(**SMALL, workers=1)
        parallel = ExperimentConfig(**SMALL, workers=2)
        ds = blob_dataset()
        a = run_nested_cv(serial, dataset=ds)
        b = run_nested_cv(parallel, dataset=ds)
        pa, pb = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        write_cv_result(a, str(pa))
        write_cv_result(b, str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_aggregate_uses_population_std(self):
        cfg = ExperimentConfig(**SMALL)
        result = run_nested_cv(cfg, dataset=blob_dataset(101))
        for key in METRIC_KEYS:
            values = np.asarray([getattr(r, key) for r in result.records])
            mean, std = result.aggregates[key]
            assert mean == pytest.approx(values.mean(), abs=1e-15)
            assert std == pytest.approx(
                np.sqrt(np.mean((values - values.mean()) ** 2)), abs=1e-15
            )

    def test_small_minority_class_is_rejected(self):
        cfg = ExperimentConfig(**{**SMALL, "folds": 10})
        with pytest.raises(DataError, match="folds"):
            run_nested_cv(cfg, dataset=blob_dataset(m1=6, m2=60))

    def test_inner_folds_the_smallest_class_cannot_fill_is_rejected(
            self, monkeypatch):
        # 5 minority rows over 5 outer folds leave 4 in each training
        # part: 4 inner folds fit, 5 are refused before any fold runs
        ds = blob_dataset(m1=5, m2=40)
        ran = []
        real = experiment._fold_task

        def counted(*args):
            ran.append(args[3:])
            return real(*args)

        monkeypatch.setattr(experiment, "_fold_task", counted)
        cfg = ExperimentConfig(**{**SMALL, "folds": 5, "repeats": 1,
                                  "inner_folds": 5})
        with pytest.raises(DataError, match="inner_folds=5"):
            run_nested_cv(cfg, dataset=ds)
        assert ran == []
        run_nested_cv(dataclasses.replace(cfg, inner_folds=4), dataset=ds)
        assert len(ran) == 5

    def test_two_folds_need_inner_folds(self, monkeypatch):
        # the default inner_folds, folds - 1, is a single inner fold
        ds = blob_dataset(m1=8, m2=40)
        ran = []
        real = experiment._fold_task

        def counted(*args):
            ran.append(args[3:])
            return real(*args)

        monkeypatch.setattr(experiment, "_fold_task", counted)
        cfg = ExperimentConfig(**{**SMALL, "folds": 2, "repeats": 1,
                                  "inner_folds": None})
        with pytest.raises(ConfigurationError, match="inner_folds"):
            run_nested_cv(cfg, dataset=ds)
        assert ran == []
        run_nested_cv(dataclasses.replace(cfg, inner_folds=2), dataset=ds)
        assert len(ran) == 2

    def test_impossible_tau_is_skipped_not_fatal(self):
        cfg = ExperimentConfig(**{**SMALL, "tau_grid": (0.0, 1.0)})
        result = run_nested_cv(cfg, dataset=blob_dataset(102))
        assert all(r.tau == 0.0 for r in result.records)

    def test_all_points_failing_aborts_with_partial_records(self):
        cfg = ExperimentConfig(**{**SMALL, "tau_grid": (1.0,)})
        with pytest.raises(ExperimentError, match="every grid point"):
            run_nested_cv(cfg, dataset=blob_dataset(103))

    def test_failing_fold_gives_the_same_partial_records_for_any_workers(
            self, monkeypatch):
        # the pool's forked workers inherit the patched module attribute,
        # and the wrapper pickles under the name of the task it wraps
        real = experiment._fold_task

        @functools.wraps(real)
        def failing(features, labels, config, repeat, fold):
            if fold == 1:
                raise ExperimentError(f"repeat {repeat} fold {fold} failed")
            return real(features, labels, config, repeat, fold)

        monkeypatch.setattr(experiment, "_fold_task", failing)
        partial = {}
        for workers in (1, 2):
            cfg = ExperimentConfig(**{**SMALL, "folds": 5, "repeats": 1,
                                      "workers": workers})
            with pytest.raises(ExperimentError, match="fold 1 failed") as exc:
                run_nested_cv(cfg, dataset=blob_dataset())
            partial[workers] = exc.value.partial_records
        assert [(r.repeat, r.fold) for r in partial[1]] == [(0, 0)]
        assert partial[2] == partial[1]

    @pytest.mark.parametrize("site, error", [
        ("fit_frlstsvm", SingularSystemError),
        ("fit_frlstsvm", ConfigurationError),
        ("predict", DegenerateModelError),
    ])
    def test_failed_refit_gives_partial_records_for_any_workers(
            self, monkeypatch, site, error):
        # the refit of the winner on the outer training part, or its
        # predict on the held-out rows, fails on fold 1 only
        ds = blob_dataset()
        fold1_train, fold1_test = fold_rows(stratified_kfold(ds, 5, 0), 1)
        marked = (ds.features[fold1_train] if site == "fit_frlstsvm"
                  else ds.features[fold1_test])
        real = getattr(experiment, site)

        @functools.wraps(real)
        def failing(first, *args):
            rows = first.features if site == "fit_frlstsvm" else args[0]
            if np.array_equal(rows, marked):
                raise error("injected")
            return real(first, *args)

        monkeypatch.setattr(experiment, site, failing)
        partial = {}
        for workers in (1, 2):
            cfg = ExperimentConfig(**{**SMALL, "folds": 5, "repeats": 1,
                                      "workers": workers})
            with pytest.raises(ExperimentError,
                               match="repeat 0 fold 1: .*injected") as exc:
                run_nested_cv(cfg, dataset=ds)
            partial[workers] = exc.value.partial_records
        assert [(r.repeat, r.fold) for r in partial[1]] == [(0, 0)]
        assert partial[2] == partial[1]

    def test_training_side_is_blind_to_test_rows(self):
        """Planting an extreme outlier in the held-out rows must change
        neither the fold's winning hyperparameters nor its kept count."""
        ds = blob_dataset(104)
        cfg = ExperimentConfig(**{**SMALL, "repeats": 1})
        plan = stratified_kfold(ds, cfg.folds, cfg.seed)
        _, test_rows = fold_rows(plan, 0)

        poisoned_x = ds.features.copy()
        poisoned_x[test_rows] = 1e6
        poisoned = LabeledDataset(poisoned_x, ds.labels.copy())

        clean = run_nested_cv(cfg, dataset=ds)
        dirty = run_nested_cv(cfg, dataset=poisoned)
        a = clean.records[0]
        b = dirty.records[0]
        assert (a.repeat, a.fold) == (0, 0) and (b.repeat, b.fold) == (0, 0)
        assert (a.tau, a.gamma, a.c1, a.c2, a.sigma) == \
            (b.tau, b.gamma, b.c1, b.c2, b.sigma)
        assert a.kept_majority == b.kept_majority

    def test_fold_models_ignore_test_features_exactly(self):
        ds = blob_dataset(105)
        plan = stratified_kfold(ds, 3, seed=0)
        train_rows, test_rows = fold_rows(plan, 1)
        poisoned_x = ds.features.copy()
        poisoned_x[test_rows] = -1e9
        poisoned = LabeledDataset(poisoned_x, ds.labels.copy())

        from frlstsvm.classifier import TrainConfig

        cfg = TrainConfig(c1=1.0, c2=1.0, tau=0.2,
                          fuzzy=FuzzyParams(gamma=1.0))
        a = fit_frlstsvm(subset(ds, train_rows), cfg)
        b = fit_frlstsvm(subset(poisoned, train_rows), cfg)
        assert np.array_equal(a.plane1.w, b.plane1.w)
        assert a.plane1.b == b.plane1.b
        assert np.array_equal(a.plane2.w, b.plane2.w)
        assert a.plane2.b == b.plane2.b


def reference_grid_search(train_ds, config, points, inner_k, inner_seed):
    """The grid search as a plain loop: every live point is fit through
    a fresh pipeline on every inner fold."""
    plan = stratified_kfold(train_ds, inner_k, inner_seed)
    sums = np.zeros(len(points))
    alive = np.ones(len(points), dtype=bool)
    for f in range(inner_k):
        tr, va = fold_rows(plan, f)
        fold_ds = subset(train_ds, tr)
        for i, pt in enumerate(points):
            if not alive[i]:
                continue
            try:
                model = fit_frlstsvm(fold_ds,
                                     experiment._train_config(config, pt))
                pred = predict(model, train_ds.features[va])
            except (ConfigurationError, SingularSystemError,
                    DegenerateModelError):
                alive[i] = False
                continue
            sums[i] += report(confusion(train_ds.labels[va], pred),
                              config.convention).gmean
    return sums / inner_k, alive


# tau 0.45 keeps every row at gamma 0.5 (scores >= 1 - gamma), about
# half of them at gamma 4, and tau 1 empties the majority at both
GRID = dict(tau_grid=(0.0, 0.45, 1.0), gamma_grid=(0.5, 4.0),
            c1_grid=(0.5, 2.0), folds=2)


def grid_dataset():
    return blob_dataset(110, m1=12, m2=36)


def singular_grid_dataset():
    """grid_dataset's rows with a duplicated and a collinear column:
    with no ridge (delta 0) their plane systems, and for the gaussian
    kernel those of the kernel columns they give, are singular, so the
    unridged factor fails or misses the residual gate."""
    ds = grid_dataset()
    x = ds.features
    return LabeledDataset(np.column_stack([x, x[:, 0], x[:, 0] + x[:, 1]]),
                          ds.labels)


def count_attempts(monkeypatch) -> list[int]:
    """The factorization attempts of each plane system, as they happen:
    1 for each system the linear grid's stacked solve solves, and the
    attempts of each spd_solve call, which solves the rest."""
    real, real_stack = classifier.spd_solve, classifier.spd_solve_stack
    attempts = []

    def counted(a, b):
        out = real(a, b)
        attempts.append(out[1].factorization_attempts)
        return out

    def counted_stack(a, b):
        out = real_stack(a, b)
        attempts.extend([1] * int(out[1].sum()))
        return out

    monkeypatch.setattr(classifier, "spd_solve", counted)
    monkeypatch.setattr(classifier, "spd_solve_stack", counted_stack)
    return attempts


def inject_into_plane_solves(monkeypatch, change):
    """Pass the solution t of every plane system that is solved, in the
    grid's scoring and in the reference loop's fits alike, through
    change(plane, c, gamma, t), which may edit t in place or raise:
    plane is 1 or 2, c its penalty and gamma that of the fit's config.
    A linear grid's systems are passed as _linear_planes returns them,
    each (group, plane, c) with its group's gamma, and one that raises
    is left unsolved. Elsewhere each spd_solve solution is: score_fits
    and a fit build plane 1's terms before plane 2's, so planes are
    numbered by the order of the _plane_terms calls since the last
    score_fits or fit_blocks call, and gamma is read off the configs
    given to it."""
    real_terms, real_system = classifier._plane_terms, classifier._plane_system
    real_solve, real_planes = classifier.spd_solve, classifier._linear_planes
    real_score, real_fit = classifier.score_fits, classifier.fit_blocks
    gamma, built, calls, stacked = [None], [None], [0], [False]

    def numbered_terms(*args):
        if stacked[0]:
            return real_terms(*args)
        calls[0] += 1
        return (*real_terms(*args), calls[0])

    def system(aa, bdb, bd, plane, c, delta, out):
        lhs, rhs = real_system(aa, bdb, bd, c, delta, out)
        built[0] = (lhs, plane, c)
        return lhs, rhs

    def solve(a, b):
        t, rep = real_solve(a, b)
        if stacked[0]:
            return t, rep
        lhs, plane, c = built[0]
        assert a is lhs
        change(plane, c, gamma[0], t)
        return t, rep

    def planes(groups, delta):
        stacked[0] = True
        try:
            keys, t, solved = real_planes(groups, delta)
        finally:
            stacked[0] = False
        for k, (i, plane, c) in enumerate(keys):
            if solved[k]:
                try:
                    change(plane, c, groups[i][1][0].fuzzy.gamma, t[k])
                except SingularSystemError:
                    solved[k] = False
        return keys, t, solved

    def score(blocks, configs, *args):
        gamma[0], calls[0] = configs[0].fuzzy.gamma, 0
        return real_score(blocks, configs, *args)

    def fit(blocks, config, *args):
        gamma[0], calls[0] = config.fuzzy.gamma, 0
        return real_fit(blocks, config, *args)

    for module, name, fake in (
            (classifier, "_plane_terms", numbered_terms),
            (classifier, "_plane_system", system),
            (classifier, "spd_solve", solve),
            (classifier, "_linear_planes", planes),
            (classifier, "score_fits", score),
            (classifier, "fit_blocks", fit)):
        monkeypatch.setattr(module, name, fake)


class TestGridSearch:
    @pytest.mark.parametrize("fields", [
        dict(GRID),
        dict(GRID, weights_enabled=False, c2_grid=(1.0, 4.0)),
        dict(GRID, kernel="gaussian", sigma_grid=(0.5, 1.0)),
    ], ids=["linear", "unweighted_untied", "gaussian"])
    def test_matches_a_per_point_reference_loop(self, fields):
        cfg = ExperimentConfig(**fields)
        ds = grid_dataset()
        points = grid_points(cfg)
        got = experiment._grid_search(ds, cfg, points, 3, 7)
        want = reference_grid_search(ds, cfg, points, 3, 7)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])
        dead = {pt.tau for pt, ok in zip(points, got[1]) if not ok}
        assert dead == {1.0} and got[1].sum() == len(points) * 2 // 3

    def test_a_failed_fit_kills_every_point_that_shares_it(
            self, monkeypatch):
        # plane 1 is singular exactly for the blocks weighted at gamma
        # 0.5 (the one kept set of that gamma here) at c1 = 2: points
        # (0, 0.5, 2) and (0.45, 0.5, 2). The grid solves that plane
        # once for both, the reference loop once per point; both fail
        # alike.
        raised = []

        def singular(plane, c, gamma, t):
            if plane == 1 and c == 2.0 and gamma == 0.5:
                raised.append(t.size)
                raise SingularSystemError("injected")

        inject_into_plane_solves(monkeypatch, singular)
        cfg = ExperimentConfig(**GRID)
        ds = grid_dataset()
        points = grid_points(cfg)
        got = experiment._grid_search(ds, cfg, points, 3, 7)
        assert len(raised) == 1
        want = reference_grid_search(ds, cfg, points, 3, 7)
        assert len(raised) == 3
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])
        dead = {(pt.tau, pt.gamma, pt.c1)
                for pt, ok in zip(points, got[1]) if not ok and pt.tau < 1}
        assert dead == {(0.0, 0.5, 2.0), (0.45, 0.5, 2.0)}

    @pytest.mark.parametrize("weights", [True, False])
    def test_one_fit_per_distinct_kept_set_and_penalties(
            self, monkeypatch, weights):
        cfg = ExperimentConfig(**GRID, c2_grid=(1.0, 4.0),
                               weights_enabled=weights)
        ds = grid_dataset()
        points = grid_points(cfg)
        inner_k, seed = 3, 7
        plan = stratified_kfold(ds, inner_k, seed)
        distinct = 0
        for f in range(inner_k):
            fold_ds = subset(ds, fold_rows(plan, f)[0])
            fits = set()
            for pt in points:
                train = experiment._train_config(cfg, pt)
                try:
                    kept = fit_frlstsvm(fold_ds, train).summary \
                        .kept_majority_rows
                except ConfigurationError:
                    continue
                fits.add((pt.gamma if weights else None, kept.tobytes(),
                          pt.c1, pt.c2))
            distinct += len(fits)

        attempts = count_attempts(monkeypatch)
        experiment._grid_search(ds, cfg, points, inner_k, seed)
        # gamma 0.5 keeps every row at tau 0 and 0.45; without weights
        # that set is shared with tau 0 at gamma 4
        per_fold = 3 if weights else 2
        assert distinct == inner_k * per_fold * 4
        # each group's plane 1 is solved once per c1, plane 2 once per
        # c2, not both once per (c1, c2)
        planes = len(cfg.c1_grid) + len(cfg.c2_grid)
        assert len(attempts) == inner_k * per_fold * planes

    @pytest.mark.parametrize("kernel", ["linear", "gaussian"])
    def test_singular_systems_escalate_spd_solve_ridge(
            self, monkeypatch, kernel):
        # with no ridge every plane system is singular, and spd_solve
        # escalates its ridge on those its unridged attempt misses
        ds = singular_grid_dataset()
        cfg = ExperimentConfig(**GRID, delta=0.0, kernel=kernel,
                               sigma_grid=(0.5, 4.0))
        points = grid_points(cfg)
        attempts = count_attempts(monkeypatch)
        got = experiment._grid_search(ds, cfg, points, 3, 7)
        assert attempts and max(attempts) > 1
        want = reference_grid_search(ds, cfg, points, 3, 7)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])
        assert got[1].sum() == len(points) * 2 // 3

    @pytest.mark.parametrize("kernel", ["linear", "gaussian"])
    def test_degenerate_planes_score_as_predict_labels(
            self, monkeypatch, kernel):
        # plane 1 of every fit at c1 = 2 is made degenerate (w = 0), in
        # the grid's solves and the reference loop's fits alike: its
        # rows are infinitely far from it, so every row is labelled -1.
        # The planes come from spd_solve's ridge escalation.
        def flat(plane, c, gamma, t):
            if plane == 1 and c == 2.0:
                t[:-1] = 0.0

        inject_into_plane_solves(monkeypatch, flat)
        cfg = ExperimentConfig(**GRID, delta=0.0, kernel=kernel,
                               sigma_grid=(0.5, 4.0))
        ds = singular_grid_dataset()
        points = grid_points(cfg)
        attempts = count_attempts(monkeypatch)
        got = experiment._grid_search(ds, cfg, points, 3, 7)
        assert attempts and max(attempts) > 1
        want = reference_grid_search(ds, cfg, points, 3, 7)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])
        # all -1 is a G-mean of 0; the other fits find both classes
        flat = np.array([pt.c1 == 2.0 for pt in points]) & got[1]
        assert flat.any() and (got[0][flat] == 0.0).all()
        assert (got[0][~flat & got[1]] > 0.5).all()

    @pytest.mark.parametrize("plane", [1, 2])
    def test_a_singular_plane_kills_its_c_for_every_other_c(
            self, monkeypatch, plane):
        # on an untied grid plane 1 at c1 = 2 is solved once per group
        # and serves every c2, as plane 2 at c2 = 2 serves every c1; the
        # other plane at c = 2 stays solvable
        def singular(p, c, gamma, t):
            if p == plane and c == 2.0:
                raise SingularSystemError("injected")

        inject_into_plane_solves(monkeypatch, singular)
        cfg = ExperimentConfig(**GRID, c2_grid=(0.5, 2.0, 4.0))
        ds = grid_dataset()
        points = grid_points(cfg)
        got = experiment._grid_search(ds, cfg, points, 3, 7)
        want = reference_grid_search(ds, cfg, points, 3, 7)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])

        def c_of(pt, j):
            return pt.c1 if j == 1 else pt.c2

        other = 3 - plane
        live = [pt for pt in points if pt.tau < 1]
        dead = {pt for pt, ok in zip(points, got[1]) if not ok}
        assert dead == {pt for pt in points
                        if pt.tau == 1 or c_of(pt, plane) == 2.0}
        assert len({c_of(pt, other) for pt in live
                    if c_of(pt, plane) == 2.0}) > 1
        assert any(c_of(pt, other) == 2.0 and pt not in dead for pt in live)

    def test_both_planes_degenerate_kills_the_point(self):
        # constant features scale to 0, so every linear plane has w = 0
        x, y = make_blobs(110, m1=12, m2=36)
        ds = LabeledDataset(np.ones_like(x), y)
        cfg = ExperimentConfig(**GRID)
        points = grid_points(cfg)
        got = experiment._grid_search(ds, cfg, points, 3, 7)
        want = reference_grid_search(ds, cfg, points, 3, 7)
        assert got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1], want[1])
        assert not got[1].any()
        fold = PreparedFold(ds.features, ds.labels)
        cfg0 = experiment._train_config(cfg, points[0])
        with pytest.raises(DegenerateModelError):
            predict(classifier.fit_blocks(fold.blocks(cfg0), cfg0),
                    ds.features)

    def test_one_similarity_is_live_at_a_time(self):
        # each gamma's 1000 x 1000 majority similarity (7.6 MiB) is
        # released once its points are done
        ds = blob_dataset(111, m1=40, m2=2000)
        cfg = ExperimentConfig(tau_grid=(0.0, 0.5),
                               gamma_grid=(0.5, 1.0, 1.5, 2.0),
                               c1_grid=(1.0,), folds=2)
        points = grid_points(cfg)
        tracemalloc.start()
        try:
            _, alive = experiment._grid_search(ds, cfg, points, 2, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert alive.all()
        assert peak < 1000 * 1000 * 8 + 4 * 2 ** 20


class TestResultFiles:
    def make_result(self):
        cfg = ExperimentConfig(**SMALL)
        return run_nested_cv(cfg, dataset=blob_dataset(106))

    def test_csv_layout(self):
        result = self.make_result()
        lines = cv_csv_text(result).splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(result.records) + 2
        for line in lines[1:]:
            assert len(line.split(",")) == len(CSV_COLUMNS)
        mean_cells = lines[-2].split(",")
        assert mean_cells[0] == "mean"
        assert float(mean_cells[7]) == pytest.approx(
            result.aggregates["accuracy"][0]
        )
        assert lines[-1].split(",")[0] == "std"

    def test_wall_time_never_reaches_files(self):
        result = self.make_result()
        assert "wall" not in cv_csv_text(result)
        assert "wall" not in cv_jsonl_text(result)

    def test_jsonl_layout(self):
        result = self.make_result()
        lines = cv_jsonl_text(result).splitlines()
        assert len(lines) == len(result.records) + 1
        first = json.loads(lines[0])
        assert first["repeat"] == 0 and first["fold"] == 0
        summary = json.loads(lines[-1])
        assert set(summary["aggregates"]) == set(METRIC_KEYS)
        assert summary["folds"] == result.folds

    def test_write_picks_format_from_suffix(self, tmp_path):
        result = self.make_result()
        csv_path = tmp_path / "out.csv"
        jsonl_path = tmp_path / "out.jsonl"
        write_cv_result(result, str(csv_path))
        write_cv_result(result, str(jsonl_path))
        assert csv_path.read_text().startswith("repeat,fold,")
        assert jsonl_path.read_text().splitlines()[0].startswith("{")

    def test_table_mentions_aggregates_and_wall_time(self):
        result = self.make_result()
        text = format_cv_table(result)
        assert "wall time" in text
        for key in METRIC_KEYS:
            assert key in text
