"""Fits shared by more than one test module."""

import functools

import pytest

from cvfmri.pipeline import FitConfig, fit_dataset, simulate_study_dataset
from cvfmri.sampler import SamplerConfig

#: The ar1 study's data seeds and the fit seed of the shared study fits.
STUDY_SEEDS = (100, 101, 102)
FIT_SEED = 7


@pytest.fixture(scope="session")
def ar1_fit():
    """``ar1_fit(seed, n_parcels, mode)`` gives ``(dataset, maps, x, result)``:
    the ar1 study's dataset of ``seed``, its truth maps and regressor, and its
    fit at fit seed 7 with every other setting at its default. Each fit runs
    once per session."""

    @functools.cache
    def fit(seed, n_parcels, mode):
        dataset, maps, x = simulate_study_dataset("ar1", seed)
        cfg = FitConfig(n_parcels=n_parcels, sampler=SamplerConfig(mode=mode, seed=FIT_SEED))
        return dataset, maps, x, fit_dataset(dataset, x, cfg)

    return fit
