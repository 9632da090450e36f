"""Confusion counts and the two sensitivity/specificity conventions."""
from __future__ import annotations

import math

import numpy as np
import pytest

from frlstsvm.errors import DataError
from frlstsvm.metrics import (
    ConfusionMatrix,
    confusion,
    csv_line,
    format_report,
    gmean,
    report,
)

from helpers import fraction_metrics


class TestConfusion:
    def test_one_of_each_cell(self):
        cm = confusion([1, 1, -1, -1], [1, -1, 1, -1])
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)
        assert cm.total == 4

    def test_all_correct(self):
        cm = confusion([1, -1, -1], [1, -1, -1])
        assert cm.fp == 0 and cm.fn == 0
        assert cm.tp == 1 and cm.tn == 2

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            confusion([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="length"):
            confusion([1, -1], [1])

    def test_foreign_label_rejected(self):
        with pytest.raises(DataError):
            confusion([1, 0], [1, -1])
        with pytest.raises(DataError):
            confusion([1, -1], [1, 2])
        with pytest.raises(DataError, match=r"y_pred contains labels "
                           r"outside ±1: \[0, 2\]"):
            confusion([1, -1, 1, -1], [2, -1, 0, 2])

    def test_counts_match_a_loop_on_random_labels(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 7, 100, 1001):
            t = rng.choice([-1, 1], size=n)
            p = rng.choice([-1, 1], size=n)
            cells = {(1, 1): 0, (1, -1): 0, (-1, 1): 0, (-1, -1): 0}
            for truth, pred in zip(t.tolist(), p.tolist()):
                cells[truth, pred] += 1
            cm = confusion(t, p)
            assert (cm.tp, cm.fn, cm.fp, cm.tn) == (
                cells[1, 1], cells[1, -1], cells[-1, 1], cells[-1, -1])
            assert all(type(c) is int for c in (cm.tp, cm.fn, cm.fp, cm.tn))

    def test_negative_count_rejected(self):
        with pytest.raises(DataError):
            ConfusionMatrix(tp=-1, fn=0, fp=0, tn=2)

    def test_all_zero_rejected(self):
        with pytest.raises(DataError):
            ConfusionMatrix(tp=0, fn=0, fp=0, tn=0)


class TestReport:
    def test_perfect_classifier(self):
        cm = ConfusionMatrix(tp=50, fn=0, fp=0, tn=50)
        for convention in ("standard", "paper_literal"):
            rep = report(cm, convention)
            assert rep.sensitivity == 1.0
            assert rep.specificity == 1.0
            assert rep.accuracy == 1.0
            assert rep.gmean == 1.0
            assert not rep.degenerate

    def test_conventions_differ_on_mixed_counts(self):
        cm = ConfusionMatrix(tp=8, fn=4, fp=2, tn=6)
        literal = report(cm, "paper_literal")
        standard = report(cm, "standard")
        assert literal.sensitivity == pytest.approx(0.8)
        assert literal.specificity == pytest.approx(0.6)
        assert standard.sensitivity == pytest.approx(8 / 12)
        assert standard.specificity == pytest.approx(6 / 8)
        assert literal.accuracy == standard.accuracy == pytest.approx(0.7)

    def test_zero_denominator_rule(self):
        cm = ConfusionMatrix(tp=0, fn=5, fp=0, tn=5)
        standard = report(cm, "standard")
        assert standard.sensitivity == 0.0
        assert standard.gmean == 0.0
        assert not standard.degenerate
        literal = report(cm, "paper_literal")
        assert literal.sensitivity == 0.0
        assert literal.degenerate

    def test_default_convention_is_standard(self):
        cm = ConfusionMatrix(tp=8, fn=4, fp=2, tn=6)
        assert report(cm).convention == "standard"
        assert report(cm).sensitivity == pytest.approx(8 / 12)

    def test_gmean_is_sqrt_of_the_product(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            cm = ConfusionMatrix(*(int(v) for v in rng.integers(0, 40, 4)))
            if cm.total == 0:
                continue
            rep = report(cm)
            assert rep.gmean == math.sqrt(rep.sensitivity * rep.specificity)

    def test_matches_rational_arithmetic(self):
        rng = np.random.default_rng(3)
        for trial in range(1000):
            tp, fn, fp, tn = (int(v) for v in rng.integers(0, 200, 4))
            if tp + fn + fp + tn == 0:
                tn = 1
            cm = ConfusionMatrix(tp=tp, fn=fn, fp=fp, tn=tn)
            for convention in ("standard", "paper_literal"):
                rep = report(cm, convention)
                sen, spe, acc, gmean = fraction_metrics(
                    tp, fn, fp, tn, convention
                )
                assert abs(rep.sensitivity - sen) <= 1e-12
                assert abs(rep.specificity - spe) <= 1e-12
                assert abs(rep.accuracy - acc) <= 1e-12
                assert abs(rep.gmean - gmean) <= 1e-12

    def test_label_swap_symmetry(self):
        rng = np.random.default_rng(4)
        for trial in range(100):
            y_true = np.where(rng.random(30) < 0.3, 1, -1)
            y_pred = np.where(rng.random(30) < 0.5, 1, -1)
            cm = confusion(y_true, y_pred)
            swapped = confusion(-y_true, -y_pred)
            assert (swapped.tp, swapped.tn) == (cm.tn, cm.tp)
            assert (swapped.fp, swapped.fn) == (cm.fn, cm.fp)
            rep = report(cm)
            srep = report(swapped)
            assert srep.sensitivity == rep.specificity
            assert srep.specificity == rep.sensitivity
            assert srep.gmean == rep.gmean
            assert srep.accuracy == rep.accuracy

    @pytest.mark.parametrize("convention", ["standard", "paper_literal"])
    def test_mask_gmean_is_the_report_gmean(self, convention):
        rng = np.random.default_rng(31)
        for trial in range(300):
            n = int(rng.integers(1, 40))
            # skewed draws, so that some rows are all one label
            t = np.where(rng.random(n) < rng.random(), 1, -1)
            p = np.where(rng.random(n) < rng.random(), 1, -1)
            want = report(confusion(t, p), convention).gmean
            assert gmean(t == 1, p == 1, convention) == want

    @pytest.mark.parametrize("convention", ["standard", "paper_literal"])
    def test_each_row_of_stacked_masks_is_its_report_gmean(self, convention):
        rng = np.random.default_rng(32)
        for trial in range(100):
            n, k = int(rng.integers(1, 40)), int(rng.integers(1, 12))
            t = np.where(rng.random(n) < rng.random(), 1, -1)
            p = np.where(rng.random((k, n)) < rng.random((k, 1)), 1, -1)
            got = gmean(t == 1, p == 1, convention)
            assert got.shape == (k,)
            assert got.tolist() == [report(confusion(t, row), convention)
                                    .gmean for row in p]

    def test_rejects_unknown_convention(self):
        cm = ConfusionMatrix(tp=1, fn=0, fp=0, tn=1)
        with pytest.raises(DataError, match="convention"):
            report(cm, "balanced")


class TestRendering:
    def test_fixed_width_table_mentions_every_metric(self):
        cm = ConfusionMatrix(tp=8, fn=4, fp=2, tn=6)
        text = format_report(report(cm))
        for token in ("acc", "sen", "spe", "gmean", "convention"):
            assert token in text
        assert "degenerate" not in text
        lines = text.splitlines()
        assert len(lines) == 2
        assert "0.7000" in lines[1]

    def test_degenerate_is_flagged_in_table(self):
        cm = ConfusionMatrix(tp=0, fn=5, fp=0, tn=5)
        text = format_report(report(cm, "paper_literal"))
        assert "degenerate" in text

    def test_csv_line_layout(self):
        cm = ConfusionMatrix(tp=8, fn=4, fp=2, tn=6)
        line = csv_line(report(cm), dataset="habs", config="tau=0.4")
        cells = line.split(",")
        assert cells[0] == "habs"
        assert cells[1] == "tau=0.4"
        assert cells[-1] == "standard"
        assert float(cells[2]) == pytest.approx(0.7)
        assert len(cells) == 7
