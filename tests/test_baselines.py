"""The posterior ranks voxels at least as well as two per-voxel statistics.

The model claims to use both components of the complex signal and to be
competitive with standard analyses, so on each ar1 dataset the AUC of its
inclusion probabilities must reach the larger AUC of two baselines from
``tests/reference.py``: the complex OLS Wald statistic and the magnitude-only
OLS t statistic. The fits are the shared ones of ``conftest.ar1_fit``.
"""

import numpy as np
import pytest
from conftest import STUDY_SEEDS
from reference import complex_wald, magnitude_t

from cvfmri.metrics import roc_auc

#: Why the default spatial mode ranks below a baseline (ROADMAP items 1 and 3).
SPATIAL_DEFECTS = (
    "the slab prior p(tau^2) ~ 1/tau^2 is improper, and eta_v reads only its own "
    "gamma_v, so the spatial prior has no spatial coupling"
)


def test_baselines_are_least_squares_statistics():
    rng = np.random.default_rng(12)
    n_time = 30
    x = rng.random(n_time)
    y = rng.standard_normal((4, n_time)) + 1j * rng.standard_normal((4, n_time))
    design = np.column_stack([np.ones(n_time), x])
    for v in range(4):
        coef, rss, *_ = np.linalg.lstsq(design, y[v], rcond=None)
        xc = x - x.mean()
        assert complex_wald(y, x)[v] == pytest.approx(abs(coef[1]) ** 2 * (xc @ xc) / rss[0])
        coef, rss, *_ = np.linalg.lstsq(design, np.abs(y[v]), rcond=None)
        cov = rss[0] / (n_time - 2) * np.linalg.inv(design.T @ design)
        assert magnitude_t(y, x)[v] == pytest.approx(coef[1] / np.sqrt(cov[1, 1]))


@pytest.mark.parametrize("mode, n_parcels", [
    pytest.param("spatial", 9, marks=pytest.mark.xfail(strict=True, reason=SPATIAL_DEFECTS)),
    pytest.param("spatial", 49, marks=pytest.mark.xfail(strict=True, reason=SPATIAL_DEFECTS)),
    ("nonspatial", 9),
    ("nonspatial", 49),
])
def test_posterior_ranks_at_least_as_well_as_the_baselines(ar1_fit, mode, n_parcels):
    below = []
    for seed in STUDY_SEEDS:
        dataset, maps, x, result = ar1_fit(seed, n_parcels, mode)
        y, truth = dataset.voxel_view(), maps.active.ravel()
        baseline = max(roc_auc(truth, complex_wald(y, x)), roc_auc(truth, magnitude_t(y, x)))
        auc = roc_auc(truth, result.incl_prob.ravel())
        if auc < baseline:
            below.append(f"data seed {seed}: AUC {auc:.4f} < {baseline:.4f}")
    assert not below, below
