"""Confusion-matrix statistics for imbalanced evaluation.

Two sensitivity/specificity conventions are supported. The standard one
(default) is recall-based: Sen = TP/(TP+FN), Spe = TN/(TN+FP). The
paper_literal one mirrors a precision/NPV style sometimes seen in
print: Sen = TP/(TP+FP), Spe = TN/(TN+FN). Accuracy and G-mean are
computed the same way in both: Acc = (TP+TN)/total, G-mean =
sqrt(Sen * Spe). Any 0/0 ratio is defined as 0 and flagged degenerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

CONVENTIONS = ("standard", "paper_literal")


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        counts = (self.tp, self.fn, self.fp, self.tn)
        if any(c < 0 for c in counts):
            raise DataError(f"counts must be non-negative, got {counts}")
        if sum(counts) < 1:
            raise DataError("confusion matrix must count at least one pair")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn


@dataclass(frozen=True)
class MetricReport:
    sensitivity: float
    specificity: float
    accuracy: float
    gmean: float
    convention: str
    degenerate: bool


def confusion(y_true, y_pred) -> ConfusionMatrix:
    """Count prediction outcomes; +1 is the positive class."""
    t = np.asarray(y_true).reshape(-1)
    p = np.asarray(y_pred).reshape(-1)
    if t.size != p.size:
        raise DataError(f"length mismatch: {t.size} truths, {p.size} preds")
    if t.size == 0:
        raise DataError("cannot build a confusion matrix from no pairs")
    for name, arr in (("y_true", t), ("y_pred", p)):
        bad = arr[(arr != 1) & (arr != -1)]
        if bad.size:
            raise DataError(f"{name} contains labels outside ±1: "
                            f"{np.unique(bad).tolist()}")
    # every label is now ±1, so -1 is "not +1"
    return ConfusionMatrix(*map(int, _outcomes(t == 1, p == 1)))


def _outcomes(true_pos: np.ndarray, pred_pos: np.ndarray, axis=None):
    """(tp, fn, fp, tn) of two boolean masks of the +1 rows, or with
    axis -1 of the true mask and each row of pred_pos."""
    tp = np.count_nonzero(true_pos & pred_pos, axis=axis)
    fn = np.count_nonzero(true_pos) - tp
    fp = np.count_nonzero(pred_pos, axis=axis) - tp
    return tp, fn, fp, true_pos.size - tp - fn - fp


def _ratio(num: int, den: int) -> tuple[float, bool]:
    if den == 0:
        return 0.0, True
    return num / den, False


def report(cm: ConfusionMatrix, convention: str = "standard") -> MetricReport:
    if convention not in CONVENTIONS:
        raise DataError(
            f"convention must be one of {CONVENTIONS}, got {convention!r}"
        )
    (sen, d1), (spe, d2) = (_ratio(*r) for r in _rates(
        cm.tp, cm.fn, cm.fp, cm.tn, convention))
    acc = (cm.tp + cm.tn) / cm.total
    return MetricReport(
        sensitivity=sen,
        specificity=spe,
        accuracy=acc,
        gmean=math.sqrt(sen * spe),
        convention=convention,
        degenerate=d1 or d2,
    )


def _rates(tp, fn, fp, tn, convention: str) -> tuple[tuple, tuple]:
    """(numerator, denominator) of sensitivity and of specificity."""
    if convention == "standard":
        return (tp, tp + fn), (tn, tn + fp)
    return (tp, tp + fp), (tn, tn + fn)


def gmean(true_pos: np.ndarray, pred_pos: np.ndarray,
          convention: str) -> np.ndarray:
    """report(confusion(y_true, y_pred), convention).gmean of each row
    of pred_pos, from the boolean masks y_true == 1 and y_pred == 1 (one
    row of pred_pos per prediction), with the same arithmetic but none
    of the checks or objects: for callers that score many predictions
    of labels known to be ±1, under a known convention. The counts are
    exact, and each ratio of two of them is one division, as _ratio's,
    so each G-mean has report's bits."""
    sen, spe = (np.divide(num, den, out=np.zeros(num.shape), where=den > 0)
                for num, den in _rates(*_outcomes(true_pos, pred_pos, -1),
                                       convention))
    return np.sqrt(sen * spe)


def format_report(rep: MetricReport, dataset: str = "-",
                  config: str = "-") -> str:
    """Fixed-width single-report table."""
    header = (
        f"{'dataset':<16} {'config':<24} {'acc':>8} {'sen':>8} "
        f"{'spe':>8} {'gmean':>8}  convention"
    )
    row = (
        f"{dataset:<16} {config:<24} {rep.accuracy:>8.4f} "
        f"{rep.sensitivity:>8.4f} {rep.specificity:>8.4f} "
        f"{rep.gmean:>8.4f}  {rep.convention}"
    )
    if rep.degenerate:
        row += " (degenerate)"
    return header + "\n" + row


def csv_line(rep: MetricReport, dataset: str = "-",
             config: str = "-") -> str:
    """Machine-readable line: dataset,config,acc,sen,spe,gmean,convention"""
    return (
        f"{dataset},{config},{rep.accuracy:.17g},{rep.sensitivity:.17g},"
        f"{rep.specificity:.17g},{rep.gmean:.17g},{rep.convention}"
    )
