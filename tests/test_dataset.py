"""Loader, scaling, and fold-plan behavior."""
from __future__ import annotations

import os
import stat

import numpy as np
import pytest

from frlstsvm.classifier import PreparedFold
from frlstsvm.dataset import (
    LabeledDataset,
    ScalingParams,
    atomic_write,
    fold_rows,
    imbalance_ratio,
    load_csv,
    load_keel,
    load_matrix_csv,
    minmax_apply,
    minmax_fit,
    read_lines,
    stratified_kfold,
    subset,
    write_csv,
)
from frlstsvm.errors import DataError

from helpers import keel_file


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConstruction:
    def test_minority_positive_convention(self):
        ds = LabeledDataset(np.zeros((3, 2)), np.array([1, -1, -1]))
        assert ds.class_counts() == (1, 2)
        assert ds.n_rows == 3 and ds.n_attributes == 2

    def test_rejects_single_class(self):
        with pytest.raises(DataError, match="both"):
            LabeledDataset(np.zeros((3, 2)), np.array([-1, -1, -1]))

    def test_rejects_other_label_values(self):
        with pytest.raises(DataError, match="labels"):
            LabeledDataset(np.zeros((2, 1)), np.array([1, 0]))

    def test_rejects_non_finite_features(self):
        x = np.ones((2, 2))
        x[1, 0] = np.nan
        with pytest.raises(DataError, match="finite"):
            LabeledDataset(x, np.array([1, -1]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DataError, match="rows"):
            LabeledDataset(np.zeros((3, 2)), np.array([1, -1]))

    def test_warns_when_positive_is_majority(self):
        with pytest.warns(UserWarning, match="minority"):
            LabeledDataset(np.zeros((3, 1)), np.array([1, 1, -1]))

    def test_subset_keeps_columns(self):
        ds = LabeledDataset(
            np.arange(12.0).reshape(4, 3),
            np.array([1, -1, -1, 1]),
            attribute_names=["a", "b", "c"],
        )
        sub = subset(ds, [3, 1])
        assert sub.n_rows == 2
        assert np.array_equal(sub.features, ds.features[[3, 1]])
        assert np.array_equal(sub.labels, [1, -1])
        assert sub.attribute_names == ["a", "b", "c"]


class TestLoadCsv:
    def test_minority_class_label_inference(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,2,a\n3,4,a\n5,6,a\n7,8,b\n")
        ds = load_csv(path)
        assert np.array_equal(ds.labels, [-1, -1, -1, 1])
        assert ds.features.shape == (4, 2)
        assert ds.features[3, 1] == 8.0

    def test_explicit_positive_label(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,2,a\n3,4,a\n5,6,a\n7,8,b\n")
        with pytest.warns(UserWarning):
            ds = load_csv(path, positive_label="a")
        assert np.array_equal(ds.labels, [1, 1, 1, -1])

    def test_label_column_by_index(self, tmp_path):
        path = write(tmp_path, "t.csv", "x,1,2\nx,3,4\ny,5,6\ny,7,8\ny,9,0\n")
        ds = load_csv(path, label_column=0)
        assert np.array_equal(ds.labels, [1, 1, -1, -1, -1])
        assert np.array_equal(ds.features[0], [1.0, 2.0])

    def test_label_column_by_header_name(self, tmp_path):
        text = "f1,f2,cls\n1,2,a\n3,4,a\n5,6,b\n7,8,a\n"
        path = write(tmp_path, "t.csv", text)
        ds = load_csv(path, label_column="cls", has_header=True)
        assert np.array_equal(ds.labels, [-1, -1, 1, -1])
        assert ds.attribute_names == ["f1", "f2"]

    def test_missing_header_name(self, tmp_path):
        path = write(tmp_path, "t.csv", "f1,f2\n1,2\n")
        with pytest.raises(DataError, match="cls"):
            load_csv(path, label_column="cls", has_header=True)

    @pytest.mark.parametrize("rows", ["1,2,3\n4,5,6\n7,8,3\n",
                                      "x,y,a\nz,w,b\nv,u,a\n"])
    def test_header_name_past_the_row_width(self, tmp_path, rows):
        path = write(tmp_path, "t.csv", "a,b,c,d\n" + rows)
        with pytest.raises(DataError, match=r"label column 'd' is column "
                           r"4 of the header.*rows have 3 columns"):
            load_csv(path, label_column="d", has_header=True)

    def test_label_index_out_of_range(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,2,a\n3,4,b\n")
        with pytest.raises(DataError):
            load_csv(path, label_column=7)

    def test_non_numeric_cell_names_position(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,2,a\n3,oops,a\n5,6,b\n")
        with pytest.raises(DataError, match=r"line 2.*column 2"):
            load_csv(path)

    def test_nan_cell_rejected(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,2,a\n3,nan,a\n5,6,b\n")
        with pytest.raises(DataError, match=r"line 2.*column 2"):
            load_csv(path)

    def test_empty_cell_rejected(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,2,a\n3,,a\n5,6,b\n")
        with pytest.raises(DataError, match=r"line 2"):
            load_csv(path)

    def test_single_class_file(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,2,a\n3,4,a\n")
        with pytest.raises(DataError, match="2 classes"):
            load_csv(path)

    def test_equal_classes_need_explicit_positive(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,2,a\n3,4,b\n")
        with pytest.raises(DataError, match="positive_label"):
            load_csv(path)
        ds = load_csv(path, positive_label="b")
        assert np.array_equal(ds.labels, [-1, 1])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(str(tmp_path / "nope.csv"))

    def test_ragged_rows_rejected(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,2,a\n3,a\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path)


class TestReadLines:
    def test_lines_without_their_endings(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"a,1\r\n\nb,2\n")
        assert read_lines(str(path)) == ["a,1", "", "b,2"]

    @pytest.mark.parametrize("loader", [
        read_lines, load_csv, load_matrix_csv, load_keel,
    ], ids=lambda f: f.__name__)
    def test_a_file_that_is_not_utf8_is_a_data_error(self, tmp_path,
                                                     loader):
        path = tmp_path / "latin1.csv"
        path.write_bytes("1,2,caf\xe9\n".encode("latin-1"))
        with pytest.raises(DataError,
                           match=f"^cannot read {path}: 'utf-8' codec"):
            loader(str(path))


class TestRoundTrip:
    def test_write_then_load_is_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(20, 3)) * rng.uniform(0.5, 100.0)
        y = np.where(rng.random(20) < 0.3, 1, -1)
        y[:2] = [1, -1]
        if int(np.sum(y == 1)) > 10:
            y = -y
        ds = LabeledDataset(x, y, attribute_names=["u", "v", "w"])
        path = str(tmp_path / "round.csv")
        write_csv(ds, path)
        back = load_csv(path, positive_label="1", has_header=True)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.attribute_names == ds.attribute_names

    def test_matrix_csv(self, tmp_path):
        path = write(tmp_path, "m.csv", "1.5,2\n3,4.25\n")
        x = load_matrix_csv(path)
        assert np.array_equal(x, [[1.5, 2.0], [3.0, 4.25]])


KEEL_MINIMAL = """\
@relation tiny
@attribute A1 real [0.0, 10.0]
@attribute A2 real [0.0, 1.0]
@attribute Class {neg, pos}
@inputs A1, A2
@outputs Class
@data
1.0, 0.5, neg
2.0, 0.25, neg
3.0, 0.75, pos
"""


class TestLoadKeel:
    def test_minimal_file(self, tmp_path):
        path = write(tmp_path, "tiny.dat", KEEL_MINIMAL)
        ds = load_keel(path)
        assert ds.n_rows == 3 and ds.n_attributes == 2
        assert np.array_equal(ds.labels, [-1, -1, 1])
        assert np.array_equal(ds.features[:, 0], [1.0, 2.0, 3.0])
        assert ds.attribute_names == ["A1", "A2"]

    def test_keywords_are_case_insensitive(self, tmp_path):
        text = KEEL_MINIMAL.replace("@attribute", "@ATTRIBUTE")
        text = text.replace("@data", "@Data").replace("@inputs", "@INPUTS")
        path = write(tmp_path, "tiny.dat", text)
        ds = load_keel(path)
        assert ds.n_rows == 3

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.dat"
        path.write_bytes(KEEL_MINIMAL.replace("\n", "\r\n").encode())
        ds = load_keel(str(path))
        assert ds.n_rows == 3 and ds.n_attributes == 2

    def test_missing_data_section(self, tmp_path):
        text = KEEL_MINIMAL.split("@data")[0]
        path = write(tmp_path, "tiny.dat", text)
        with pytest.raises(DataError, match="@data"):
            load_keel(path)

    def test_nominal_input_attribute_rejected(self, tmp_path):
        text = KEEL_MINIMAL.replace(
            "@attribute A2 real [0.0, 1.0]", "@attribute A2 {x, y}"
        )
        path = write(tmp_path, "tiny.dat", text)
        with pytest.raises(DataError, match="A2"):
            load_keel(path)

    def test_multiple_outputs_rejected(self, tmp_path):
        text = KEEL_MINIMAL.replace("@outputs Class", "@outputs Class, A1")
        path = write(tmp_path, "tiny.dat", text)
        with pytest.raises(DataError, match="output"):
            load_keel(path)

    def test_default_output_is_last_attribute(self, tmp_path):
        text = KEEL_MINIMAL.replace("@inputs A1, A2\n", "")
        text = text.replace("@outputs Class\n", "")
        path = write(tmp_path, "tiny.dat", text)
        ds = load_keel(path)
        assert ds.n_attributes == 2
        assert np.array_equal(ds.labels, [-1, -1, 1])

    def test_explicit_positive_label(self, tmp_path):
        path = write(tmp_path, "tiny.dat", KEEL_MINIMAL)
        with pytest.warns(UserWarning):
            ds = load_keel(path, positive_label="neg")
        assert np.array_equal(ds.labels, [1, 1, -1])

    def test_inputs_give_the_features_in_their_order(self, tmp_path):
        text = KEEL_MINIMAL.replace("@inputs A1, A2", "@inputs A2, A1")
        ds = load_keel(write(tmp_path, "tiny.dat", text))
        assert ds.attribute_names == ["A2", "A1"]
        assert np.array_equal(ds.features,
                              [[0.5, 1.0], [0.25, 2.0], [0.75, 3.0]])

    def test_inputs_that_list_a_subset_give_only_those(self, tmp_path):
        text = KEEL_MINIMAL.replace("@inputs A1, A2", "@inputs A2")
        ds = load_keel(write(tmp_path, "tiny.dat", text))
        assert ds.attribute_names == ["A2"]
        assert np.array_equal(ds.features, [[0.5], [0.25], [0.75]])
        assert np.array_equal(ds.labels, [-1, -1, 1])

    def test_a_row_of_the_wrong_width_names_its_columns(self, tmp_path):
        text = KEEL_MINIMAL.replace("2.0, 0.25, neg", "2.0, neg")
        path = write(tmp_path, "tiny.dat", text)
        with pytest.raises(DataError,
                           match="line 9 has 2 columns, expected 3$"):
            load_keel(path)

    def test_a_bad_value_names_its_line_and_column(self, tmp_path):
        text = KEEL_MINIMAL.replace("0.75, pos", "x, pos")
        path = write(tmp_path, "tiny.dat", text)
        with pytest.raises(DataError,
                           match="'x' at line 10, column 2$"):
            load_keel(path)

    @pytest.mark.parametrize("declaration", [
        "@attribute Class{positive, negative}",
        "@attribute Class{positive,negative}",
        "@attribute Class {positive, negative}",
    ])
    def test_name_ends_at_its_earliest_separator(self, tmp_path,
                                                 declaration):
        text = (KEEL_MINIMAL.replace("@attribute Class {neg, pos}",
                                     declaration)
                .replace("neg\n", "negative\n")
                .replace("pos\n", "positive\n"))
        ds = load_keel(write(tmp_path, "tiny.dat", text))
        assert ds.attribute_names == ["A1", "A2"]
        assert np.array_equal(ds.labels, [-1, -1, 1])


class TestAtomicWrite:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_is_that_of_a_plain_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            atomic_write(tmp_path / "atomic.txt", "x\n")
            with open(tmp_path / "plain.txt", "w") as fh:
                fh.write("x\n")
        finally:
            os.umask(old)
        modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode)
                 for name in ("atomic.txt", "plain.txt")]
        assert modes == [0o666 & ~umask] * 2

    def test_failed_write_leaves_no_temporary_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write(path, "half \ud800")
        assert os.listdir(tmp_path) == ["out.txt"]
        assert path.read_text() == "old\n"


class TestMinMax:
    def test_fit_single_column(self):
        params = minmax_fit(np.array([[2.0], [4.0], [6.0]]))
        assert params.mins[0] == 2.0 and params.ranges[0] == 4.0

    def test_constant_column_gets_unit_range(self):
        params = minmax_fit(np.array([[5.0], [5.0], [5.0]]))
        assert params.ranges[0] == 1.0
        out = minmax_apply(params, np.array([[5.0], [5.0]]))
        assert np.all(out == 0.0)

    def test_two_columns(self):
        x = np.array([[0.0, 1.0], [10.0, 21.0], [5.0, 11.0]])
        params = minmax_fit(x)
        assert np.array_equal(params.mins, [0.0, 1.0])
        assert np.array_equal(params.ranges, [10.0, 20.0])
        out = minmax_apply(params, x)
        assert out[2, 0] == 0.5 and out[2, 1] == 0.5

    def test_apply_clips_outside_fit_range(self):
        params = minmax_fit(np.array([[0.0], [10.0]]))
        out = minmax_apply(params, np.array([[-3.0], [4.0], [12.0]]))
        assert np.array_equal(out.ravel(), [0.0, 0.4, 1.0])

    def test_apply_single_row(self):
        params = minmax_fit(np.array([[0.0, 0.0], [10.0, 2.0]]))
        row = minmax_apply(params, np.array([4.0, 1.0]))
        assert row.shape == (2,) and row[0] == 0.4 and row[1] == 0.5

    def test_fit_accepts_dataset(self):
        ds = LabeledDataset(
            np.array([[2.0], [6.0], [4.0]]), np.array([1, -1, -1])
        )
        params = minmax_fit(ds)
        assert params.ranges[0] == 4.0

    def test_column_count_mismatch(self):
        params = minmax_fit(np.zeros((2, 3)))
        with pytest.raises(DataError, match="columns"):
            minmax_apply(params, np.zeros((2, 2)))

    def test_range_beyond_float64_is_refused(self):
        # finite values whose max - min overflows would scale to NaN
        x = np.array([[0.0, -1.5e308], [1.0, 1.5e308], [2.0, 0.0]])
        with pytest.raises(DataError, match=r"feature column 1 \(0-based\) "
                           r"spans -1.5e\+308 to 1.5e\+308"):
            minmax_fit(x)

    @pytest.mark.parametrize("mins, ranges", [
        ([np.nan, 0.0, 0.0], [1.0, 1.0, 1.0]),
        ([0.0, 0.0, 0.0], [1.0, np.nan, 1.0]),
        ([0.0, -np.inf, 0.0], [1.0, 1.0, 1.0]),
        ([0.0, 0.0, 0.0], [1.0, 1.0, np.inf]),
    ])
    def test_non_finite_parameters_are_refused(self, mins, ranges):
        # a NaN would scale every row to NaN, which predicts -1 for all
        # of them, and an infinite range silently zeroes its column
        with pytest.raises(DataError, match="must be finite"):
            ScalingParams(mins=mins, ranges=ranges)

    def test_widest_finite_range_still_scales(self):
        x = np.array([[-8e307], [8e307], [0.0]])
        params = minmax_fit(x)
        assert params.ranges[0] == 1.6e308
        assert np.array_equal(minmax_apply(params, x).ravel(),
                              [0.0, 1.0, 0.5])

    def test_scaled_training_data_spans_unit_box(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            x = rng.normal(size=(rng.integers(2, 40), rng.integers(1, 6)))
            x *= rng.uniform(0.1, 50.0)
            out = minmax_apply(minmax_fit(x), x)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)
            varying = x.max(axis=0) > x.min(axis=0)
            assert np.all(out.min(axis=0)[varying] == 0.0)
            assert np.all(out.max(axis=0)[varying] == 1.0)


class TestSplitAndRatio:
    def test_split_example(self):
        # the training pipeline splits the scaled rows by class
        prep = PreparedFold(np.array([[1.0], [2.0], [3.0]]),
                            np.array([1, -1, -1]))
        assert np.array_equal(prep.x1, [[0.0]])
        assert np.array_equal(prep.x2, [[0.5], [1.0]])
        assert np.array_equal(prep.maj_rows, [1, 2])
        with pytest.raises(DataError, match="both classes"):
            PreparedFold(np.zeros((2, 1)), np.array([-1, -1]))

    def test_ratio_example(self):
        ds = LabeledDataset(np.zeros((4, 1)), np.array([1, -1, -1, -1]))
        assert imbalance_ratio(ds) == 3.0

    def test_ratio_is_exact_division(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            pos = int(rng.integers(1, 20))
            neg = int(rng.integers(pos, 200))
            labels = np.array([1] * pos + [-1] * neg)
            ds = LabeledDataset(np.zeros((pos + neg, 1)), labels)
            assert imbalance_ratio(ds) == neg / pos


class TestFolds:
    def test_balanced_deal(self):
        ds = LabeledDataset(
            np.arange(10.0).reshape(10, 1),
            np.array([1] * 5 + [-1] * 5),
        )
        plan = stratified_kfold(ds, 5, seed=0)
        for fold in range(5):
            rows = np.flatnonzero(plan.assignments == fold)
            assert rows.size == 2
            assert np.sum(ds.labels[rows] == 1) == 1

    def test_same_seed_same_plan(self):
        ds = LabeledDataset(
            np.arange(30.0).reshape(30, 1),
            np.array([1] * 9 + [-1] * 21),
        )
        a = stratified_kfold(ds, 3, seed=42)
        b = stratified_kfold(ds, 3, seed=42)
        c = stratified_kfold(ds, 3, seed=43)
        assert np.array_equal(a.assignments, b.assignments)
        assert not np.array_equal(a.assignments, c.assignments)

    def test_partition_and_near_even_class_counts(self):
        rng = np.random.default_rng(19)
        for trial in range(20):
            k = int(rng.integers(2, 6))
            pos = int(rng.integers(k, 30))
            neg = int(rng.integers(k, 80))
            labels = rng.permutation(np.array([1] * pos + [-1] * neg))
            if pos > neg:
                labels = -labels
                pos, neg = neg, pos
            ds = LabeledDataset(np.zeros((pos + neg, 1)), labels)
            plan = stratified_kfold(ds, k, seed=trial)
            assert np.all(plan.assignments >= 0)
            assert np.all(plan.assignments < k)
            for cls, total in ((1, pos), (-1, neg)):
                counts = np.bincount(
                    plan.assignments[ds.labels == cls], minlength=k
                )
                assert counts.sum() == total
                assert counts.max() - counts.min() <= 1

    def test_fold_rows_complementary(self):
        ds = LabeledDataset(
            np.arange(12.0).reshape(12, 1),
            np.array([1] * 4 + [-1] * 8),
        )
        plan = stratified_kfold(ds, 4, seed=5)
        seen = []
        for fold in range(4):
            train, test = fold_rows(plan, fold)
            assert np.array_equal(np.sort(train), train)
            assert np.array_equal(np.sort(test), test)
            merged = np.sort(np.concatenate([train, test]))
            assert np.array_equal(merged, np.arange(12))
            seen.extend(test.tolist())
        assert sorted(seen) == list(range(12))

    def test_small_class_rejected(self):
        ds = LabeledDataset(
            np.zeros((8, 1)), np.array([1, 1, -1, -1, -1, -1, -1, -1])
        )
        with pytest.raises(DataError, match="minority"):
            stratified_kfold(ds, 3, seed=0)

    def test_k_below_two_rejected(self):
        ds = LabeledDataset(np.zeros((4, 1)), np.array([1, 1, -1, -1]))
        with pytest.raises(DataError, match="k"):
            stratified_kfold(ds, 1, seed=0)

    def test_plan_is_the_per_row_round_robin_deal(self):
        # the vectorised deal must give the plans of dealing each
        # class's shuffled rows one at a time, for every size, k and seed
        def dealt_one_by_one(ds, k, seed):
            rng = np.random.default_rng(seed)
            assignments = np.full(ds.n_rows, -1, dtype=np.int64)
            for cls in (1, -1):
                rows = np.flatnonzero(ds.labels == cls)
                for dealt, j in enumerate(rng.permutation(rows.size)):
                    assignments[rows[j]] = dealt % k
            return assignments

        rng = np.random.default_rng(23)
        for trial in range(200):
            k = int(rng.integers(2, 12))
            pos = int(rng.integers(k, 60))
            neg = int(rng.integers(pos, 400))
            labels = rng.permutation(np.array([1] * pos + [-1] * neg))
            ds = LabeledDataset(np.zeros((pos + neg, 1)), labels)
            seed = int(rng.integers(0, 2 ** 63))
            plan = stratified_kfold(ds, k, seed)
            assert plan.assignments.dtype == np.int64
            assert np.array_equal(plan.assignments,
                                  dealt_one_by_one(ds, k, seed))


needs_haberman = pytest.mark.skipif(
    not os.path.exists(keel_file("haberman")),
    reason="haberman.dat not fetched; run scripts/fetch_keel.py",
)


class TestBenchmarkFiles:
    @needs_haberman
    def test_haberman_shape_and_ratio(self):
        ds = load_keel(keel_file("haberman"))
        assert ds.n_rows == 306 and ds.n_attributes == 3
        assert abs(imbalance_ratio(ds) - 2.7779) < 0.01

    @pytest.mark.skipif(
        not os.path.exists(keel_file("yeast3")),
        reason="yeast3.dat not fetched; run scripts/fetch_keel.py",
    )
    def test_yeast3_shape(self):
        ds = load_keel(keel_file("yeast3"))
        assert ds.n_rows == 1484 and ds.n_attributes == 8

    @pytest.mark.skipif(
        not os.path.exists(keel_file("vehicle0")),
        reason="vehicle0.dat not fetched; run scripts/fetch_keel.py",
    )
    def test_vehicle_ratio(self):
        ds = load_keel(keel_file("vehicle0"))
        assert abs(imbalance_ratio(ds) - 3.2337) < 0.05

    @pytest.mark.skipif(
        not os.path.exists(keel_file("yeast4")),
        reason="yeast4.dat not fetched; run scripts/fetch_keel.py",
    )
    def test_yeast4_minority_fold_sizes(self):
        ds = load_keel(keel_file("yeast4"))
        plan = stratified_kfold(ds, 10, seed=0)
        for fold in range(10):
            rows = np.flatnonzero(plan.assignments == fold)
            minority = int(np.sum(ds.labels[rows] == 1))
            assert minority in (5, 6)

    @pytest.mark.skipif(
        not os.path.exists(keel_file("abalone19")),
        reason="abalone19.dat not fetched; run scripts/fetch_keel.py",
    )
    def test_abalone19_ratio(self):
        ds = load_keel(keel_file("abalone19"))
        assert ds.n_rows == 4174
        assert ds.class_counts() == (32, 4142)
        assert imbalance_ratio(ds) == 4142 / 32
