"""The inclusion probabilities behave like probabilities on the ar1 study.

Pooled over the shared G=9 fits of ``conftest.ar1_fit`` (three datasets), in
each mode: the voxel-weighted gap between the mean inclusion probability and
the fraction truly active, over the bins of ``PIP_BINS``, is at most 0.05
(reliability; Murphy & Winkler 1977); and the realized false discovery rate
of the declared set is at most twice its posterior-expected FDR, the mean of
1 - p over the set, plus 0.01. The simulator's truth is not drawn from the
model's prior, so this tests the model against the simulator.
"""

import numpy as np
import pytest
from conftest import STUDY_SEEDS

from cvfmri.sampler import NONSPATIAL, SPATIAL

PIP_BINS = (0.0, 0.05, 0.2, 0.5, 0.8, 0.95, 1.0)
MAX_BIN_GAP = 0.05
SPATIAL_DEFECTS = (
    "the improper slab prior and the uncoupled eta hold spatial-mode null voxels "
    "near the prior inclusion probability"
)
MODES = [pytest.param(SPATIAL, marks=pytest.mark.xfail(strict=True, reason=SPATIAL_DEFECTS)),
         NONSPATIAL]


def pooled(ar1_fit, mode):
    """Inclusion probabilities, declared set and truth of the three G=9 fits."""
    fits = [ar1_fit(seed, 9, mode) for seed in STUDY_SEEDS]
    pip = np.concatenate([result.incl_prob.ravel() for *_, result in fits])
    declared = np.concatenate([result.maps.activation.ravel() for *_, result in fits])
    truth = np.concatenate([maps.active.ravel() for _, maps, *_ in fits])
    return pip, declared.astype(bool), truth.astype(bool)


def bin_gap(pip, truth):
    """Voxel-weighted mean over bins of |mean PIP - fraction truly active|;
    each bin is closed below, and the last one also holds 1."""
    bins = np.searchsorted(PIP_BINS[1:-1], pip, side="right")
    gap = 0.0
    for b in np.unique(bins):
        inside = bins == b
        gap += inside.sum() * abs(pip[inside].mean() - truth[inside].mean())
    return gap / pip.size


def test_bin_gap_reads_each_bin():
    pip = np.array([0.0, 0.04, 0.1, 0.3, 0.6, 0.9, 0.97, 1.0])
    truth = np.array([0, 0, 1, 0, 1, 1, 1, 1], dtype=bool)
    # bins: {0, .04} -> .02, {.1} -> .9, {.3} -> .3, {.6} -> .4, {.9} -> .1, {.97, 1} -> .015
    assert bin_gap(pip, truth) == pytest.approx((2 * 0.02 + 0.9 + 0.3 + 0.4 + 0.1 + 2 * 0.015) / 8)


@pytest.mark.parametrize("mode", MODES)
def test_inclusion_probabilities_are_calibrated(ar1_fit, mode):
    pip, _, truth = pooled(ar1_fit, mode)
    assert bin_gap(pip, truth) <= MAX_BIN_GAP


@pytest.mark.parametrize("mode", MODES)
def test_realized_fdr_is_near_its_posterior_expectation(ar1_fit, mode):
    pip, declared, truth = pooled(ar1_fit, mode)
    assert declared.any()
    realized = np.mean(~truth[declared])
    expected = np.mean(1.0 - pip[declared])
    assert realized <= 2 * expected + 0.01, (realized, expected)
