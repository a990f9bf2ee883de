"""What a proper slab prior is to mend: four checks that fail today.

Each parcel's slab variance tau^2 has the improper prior p(tau^2) ~ 1/tau^2.
Where a parcel holds few active voxels, tau^2 can collapse toward 0, where an
inclusion costs almost nothing: null voxels then keep inclusion probabilities
near the prior, and nonspatial chains of different fit seeds settle in
different modes, each reporting itself converged. Every test below is a
strict xfail that names this defect, so the change that makes the slab proper
drops the marker of each test that then passes. Fits use fit seed 7 and
default settings unless a test says otherwise.
"""

import numpy as np
import pytest
from scipy.special import ndtr

from cvfmri.data import ComplexDataset
from cvfmri.parcellation import partition_grid
from cvfmri.pipeline import FitConfig, fit_dataset, simulate_study_dataset
from cvfmri.sampler import NONSPATIAL, SPATIAL, SamplerConfig
from cvfmri.simulate import realistic_design, simulate_realistic

improper_slab = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the slab prior p(tau^2) ~ 1/tau^2 is improper, so a parcel's tau^2 can collapse "
    "toward 0, where an inclusion costs almost nothing"))


@improper_slab
def test_spatial_null_voxels_fall_below_half_the_prior(ar1_fit):
    # the median is 0.46 today, against a prior of Phi(psi) = 0.47
    _, maps, _, result = ar1_fit(100, 49, SPATIAL)
    null = maps.active.ravel() == 0
    prior = ndtr(SamplerConfig().psi)
    assert np.median(result.incl_prob.ravel()[null]) < prior / 2


@improper_slab
def test_nonspatial_g49_fit_is_within_mcse_tol(ar1_fit):
    # 426 voxels are over it today
    *_, result = ar1_fit(100, 49, NONSPATIAL)
    assert np.sum(result.mcse >= result.config.sampler.mcse_tol) == 0


@improper_slab
def test_nonspatial_realistic_slice_has_few_false_positives():
    # 3784 today: the parcels' shared rates climb to about 0.45
    volume, truth = simulate_realistic(100, n_slices=1, taper=(1.0,))
    dataset = ComplexDataset(volume.dims[1:], volume.data[0])
    cfg = FitConfig(n_parcels=49, sampler=SamplerConfig(mode=NONSPATIAL, seed=7))
    result = fit_dataset(dataset, realistic_design(dataset.n_time), cfg)
    declared = result.maps.activation.ravel() == 1
    assert np.sum(declared & (truth.active.ravel() == 0)) <= 5


@improper_slab
def test_fit_seeds_agree_on_each_parcels_null_voxels():
    # four fit seeds, nonspatial G=9: each parcel's mean null-voxel inclusion
    # probability within 0.05 across them. At 250 sweeps parcel 1 reads 0.000
    # to 0.712 today; 125 sweeps keep every spread below 0.03, and 32 or 64
    # spread by 0.05 to 0.06 from their short burn-in alone
    dataset, maps, x = simulate_study_dataset("ar1", 100)
    null = maps.active.ravel() == 0
    parcel = partition_grid(dataset.dims, 9).assignment.ravel()
    means = []
    for seed in (7, 8, 9, 10):
        cfg = FitConfig(n_parcels=9, sampler=SamplerConfig(mode=NONSPATIAL, n_iter=250, seed=seed))
        pip = fit_dataset(dataset, x, cfg).incl_prob.ravel()
        means.append([pip[null & (parcel == g)].mean() for g in range(9)])
    spread = np.ptp(means, axis=0)
    assert np.all(spread <= 0.05), spread
