"""Classification and estimation-fidelity metrics for activation maps.

Undefined quantities (precision with no predicted positives, slope against an
all-zero truth, ...) are reported as None and serialized as "NA", never
silently coerced to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, UndefinedMetricError

__all__ = [
    "ClassificationReport",
    "FidelityReport",
    "classification_metrics",
    "roc_auc",
    "magnitude_fidelity",
    "REPORT_COLUMNS",
    "report_row",
]

#: Column order of serialized metric rows.
REPORT_COLUMNS = (
    "accuracy",
    "precision",
    "recall",
    "f1",
    "auc",
    "slope",
    "ccc",
    "xy_mse",
    "time_seconds",
)


@dataclass(frozen=True)
class ClassificationReport:
    tp: int
    fp: int
    fn: int
    tn: int
    accuracy: float
    precision: float | None
    recall: float | None
    f1: float | None


@dataclass(frozen=True)
class FidelityReport:
    slope: float | None
    ccc: float
    xy_mse: float


def _check_shapes(a, b):
    if np.shape(a) != np.shape(b):
        raise ShapeMismatchError(f"field shapes differ: {np.shape(a)} vs {np.shape(b)}")


def classification_metrics(truth, predicted) -> ClassificationReport:
    """Confusion counts and derived rates for binary fields."""
    _check_shapes(truth, predicted)
    t = np.asarray(truth).astype(bool).ravel()
    p = np.asarray(predicted).astype(bool).ravel()
    if t.size == 0:
        raise UndefinedMetricError("classification metrics need at least one voxel")
    tp = int(np.sum(t & p))
    fp = int(np.sum(~t & p))
    fn = int(np.sum(t & ~p))
    tn = int(np.sum(~t & ~p))
    accuracy = (tp + tn) / t.size
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    recall = tp / (tp + fn) if (tp + fn) > 0 else None
    if precision is None or recall is None or (precision + recall) == 0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return ClassificationReport(tp, fp, fn, tn, accuracy, precision, recall, f1)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties given the mean of the ranks they span."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def roc_auc(truth, scores) -> float:
    """Rank-based AUC: P(score+ > score-) + 0.5 P(score+ = score-)."""
    _check_shapes(truth, scores)
    t = np.asarray(truth).astype(bool).ravel()
    s = np.asarray(scores, dtype=float).ravel()
    n_pos = int(t.sum())
    n_neg = t.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes present in the truth")
    ranks = _average_ranks(s)
    return float((ranks[t].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def magnitude_fidelity(true_mag, est_mag) -> FidelityReport:
    """Agreement between true and estimated magnitude fields.

    slope: least squares of estimated on true, through the origin (ideal = 1
    since both fields vanish off the active set); ccc: concordance
    correlation with population (1/n) moments; xy_mse: mean squared pairwise
    difference. AUC is not computed here (it needs scores, not magnitudes).
    """
    _check_shapes(true_mag, est_mag)
    t = np.asarray(true_mag, dtype=float).ravel()
    e = np.asarray(est_mag, dtype=float).ravel()
    if np.array_equal(t, e):
        return FidelityReport(slope=1.0 if t.any() else None, ccc=1.0, xy_mse=0.0)
    denom = float(t @ t)
    slope = float((t @ e) / denom) if denom > 0 else None
    s_xy = float(np.mean(t * e) - t.mean() * e.mean())
    denom_ccc = float(np.var(t) + np.var(e) + (t.mean() - e.mean()) ** 2)
    ccc = 1.0 if denom_ccc == 0 else 2.0 * s_xy / denom_ccc
    xy_mse = float(np.mean((e - t) ** 2))
    return FidelityReport(slope=slope, ccc=ccc, xy_mse=xy_mse)


def _format_value(v) -> str:
    if v is None:
        return "NA"
    return repr(float(v))


def report_row(label, classification: ClassificationReport, fidelity: FidelityReport,
               auc, time_seconds) -> list:
    """One serialized report row in :data:`REPORT_COLUMNS` order."""
    values = {
        "accuracy": classification.accuracy,
        "precision": classification.precision,
        "recall": classification.recall,
        "f1": classification.f1,
        "auc": auc,
        "slope": fidelity.slope,
        "ccc": fidelity.ccc,
        "xy_mse": fidelity.xy_mse,
        "time_seconds": time_seconds,
    }
    return [str(label)] + [_format_value(values[c]) for c in REPORT_COLUMNS]
