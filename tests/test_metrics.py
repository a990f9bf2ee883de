"""Metric definitions against brute-force oracles."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import rankdata

import cvfmri

from cvfmri.errors import ShapeMismatchError, UndefinedMetricError
from cvfmri.metrics import (
    classification_metrics,
    magnitude_fidelity,
    report_row,
    roc_auc,
)


def auc_pair_counting(truth, scores):
    """Exhaustive oracle over all (positive, negative) pairs."""
    t = np.asarray(truth, dtype=bool)
    s = np.asarray(scores, dtype=float)
    pos = s[t]
    neg = s[~t]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (pos.size * neg.size)


class TestClassification:
    def test_perfect(self):
        truth = np.array([1, 0, 1, 0])
        r = classification_metrics(truth, truth)
        assert (r.accuracy, r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_single_hit_many_misses(self):
        truth = np.zeros(9216, dtype=int)
        truth[:50] = 1
        pred = np.zeros(9216, dtype=int)
        pred[0] = 1
        r = classification_metrics(truth, pred)
        assert (r.tp, r.fp, r.fn, r.tn) == (1, 0, 49, 9166)
        assert r.precision == 1.0
        assert r.recall == pytest.approx(0.02)

    def test_all_negative_prediction_flags_precision(self):
        truth = np.array([1, 1, 0, 0])
        pred = np.zeros(4, dtype=int)
        r = classification_metrics(truth, pred)
        assert r.precision is None
        assert r.recall == 0.0
        assert r.f1 is None

    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(5)
        truth = rng.integers(0, 2, 500)
        pred = rng.integers(0, 2, 500)
        r = classification_metrics(truth, pred)
        assert r.tp + r.fp + r.fn + r.tn == 500

    def test_permutation_invariant(self):
        rng = np.random.default_rng(6)
        truth = rng.integers(0, 2, 200)
        pred = rng.integers(0, 2, 200)
        perm = rng.permutation(200)
        a = classification_metrics(truth, pred)
        b = classification_metrics(truth[perm], pred[perm])
        assert (a.tp, a.fp, a.fn, a.tn) == (b.tp, b.fp, b.fn, b.tn)

    def test_empty_fields_rejected(self):
        with pytest.raises(UndefinedMetricError, match="at least one voxel"):
            classification_metrics(np.zeros((0, 50)), np.zeros((0, 50)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            classification_metrics(np.zeros((2, 2)), np.zeros(4))


class TestAuc:
    def test_perfect_separation(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0, 1, 0, 1], np.ones(4)) == 0.5

    def test_six_point_instance_matches_pair_counting(self):
        truth = np.array([1, 0, 1, 0, 1, 0])
        scores = np.array([0.9, 0.4, 0.4, 0.2, 0.65, 0.7])
        assert roc_auc(truth, scores) == pytest.approx(auc_pair_counting(truth, scores))

    def test_random_instances_match_pair_counting(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            truth = rng.integers(0, 2, 30)
            if truth.min() == truth.max():
                truth[0] = 1 - truth[0]
            scores = np.round(rng.random(30), 1)  # force ties
            assert roc_auc(truth, scores) == pytest.approx(auc_pair_counting(truth, scores))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(8)
        truth = rng.integers(0, 2, 100)
        truth[0], truth[1] = 0, 1
        scores = rng.random(100)
        base = roc_auc(truth, scores)
        assert roc_auc(truth, np.exp(3 * scores)) == pytest.approx(base)
        assert roc_auc(truth, np.arctan(scores)) == pytest.approx(base)

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            roc_auc(np.ones(4), np.ones(4))

    def test_matches_rankdata_oracle(self):
        rng = np.random.default_rng(10)
        for scores in (rng.random(50), np.round(rng.random(50), 1)):
            truth = rng.integers(0, 2, 50)
            truth[:2] = [0, 1]
            n_pos = int(truth.sum())
            ranks = rankdata(scores)
            oracle = (ranks[truth == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * (50 - n_pos))
            assert roc_auc(truth, scores) == pytest.approx(oracle, rel=1e-12)

    def test_package_import_skips_scipy_stats(self):
        # nor scipy's sparse and linalg modules, which no fit reads
        src = str(Path(cvfmri.__file__).resolve().parents[1])
        modules = tuple(f"scipy.{name}" for name in ("stats", "sparse", "linalg"))
        code = (f"import sys; sys.path.insert(0, {src!r}); import cvfmri; "
                f"print([m for m in {modules!r} if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"



class TestFidelity:
    def test_identity(self):
        t = np.array([0.0, 1.0, 2.0, 0.0])
        r = magnitude_fidelity(t, t)
        assert (r.slope, r.ccc, r.xy_mse) == (1.0, 1.0, 0.0)

    def test_constant_estimate_has_zero_ccc(self):
        t = np.array([0.0, 1.0, 2.0])
        r = magnitude_fidelity(t, np.full(3, 0.7))
        assert r.ccc == 0.0

    def test_doubled_estimate(self):
        t = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        e = 2 * t
        r = magnitude_fidelity(t, e)
        assert r.slope == pytest.approx(2.0)
        # direct Lin formula oracle on the 5-point instance
        sxy = np.mean(t * e) - t.mean() * e.mean()
        ccc = 2 * sxy / (np.var(t) + np.var(e) + (t.mean() - e.mean()) ** 2)
        assert r.ccc == pytest.approx(ccc)
        assert r.xy_mse == pytest.approx(np.mean((e - t) ** 2))

    def test_ccc_bounded_by_pearson(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            t = rng.random(40)
            e = rng.random(40)
            r = magnitude_fidelity(t, e)
            pearson = np.corrcoef(t, e)[0, 1]
            assert abs(r.ccc) <= abs(pearson) + 1e-12

    def test_mse_zero_iff_identical(self):
        rng = np.random.default_rng(12)
        t = rng.random(30)
        assert magnitude_fidelity(t, t.copy()).xy_mse == 0.0
        e = t.copy()
        e[3] += 1e-6
        assert magnitude_fidelity(t, e).xy_mse > 0.0

    def test_all_zero_truth_flags_slope(self):
        r = magnitude_fidelity(np.zeros(5), np.ones(5))
        assert r.slope is None


class TestReportRow:
    def test_na_serialization(self):
        truth = np.array([1, 1, 0, 0])
        pred = np.zeros(4, dtype=int)
        cls = classification_metrics(truth, pred)
        fid = magnitude_fidelity(np.zeros(4), np.zeros(4))
        row = report_row("d0", cls, fid, auc=0.5, time_seconds=None)
        assert row[0] == "d0"
        assert row[2] == "NA"  # precision
        assert row[4] == "NA"  # f1
        assert row[6] == "NA"  # slope (all-zero truth)
        assert row[-1] == "NA"  # time
