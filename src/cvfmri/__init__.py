"""Bayesian activation mapping for complex-valued fMRI time series.

The package detects task-activated voxels in complex-valued fMRI data with a
fully Bayesian spike-and-slab regression: complex AR(1) errors, a low-rank
spatial probit prior on the inclusion indicators, and a parcel-parallel Gibbs
sampler. It ships synthetic data generators, an evaluation-metric suite, and a
CLI (``cvfmri``) around simulate / fit / evaluate / reproduce.
"""

from .data import ComplexDataset, TrueMaps
from .design import (
    DesignVector,
    StimulusSpec,
    boxcar_stimulus,
    design_for_length,
    double_gamma_hrf,
    expected_bold,
)
from .metrics import (
    ClassificationReport,
    FidelityReport,
    classification_metrics,
    magnitude_fidelity,
    roc_auc,
)
from .parcellation import (
    Partition,
    build_adjacency,
    build_spatial_basis,
    partition_grid,
)
from .pipeline import (
    FitConfig,
    FitResult,
    evaluate_dirs,
    evaluate_pair,
    fit_dataset,
    reproduce,
    simulate_study_dataset,
    write_fit_outputs,
)
from .sampler import (
    ChainSummary,
    ResultMaps,
    SamplerConfig,
    derive_seed,
    inclusion_log_odds,
    run_parcel_chain,
    splitmix64,
    summarize,
)
from .simulate import (
    NoiseSpec,
    RegionSpec,
    SignalSpec,
    generate_true_maps,
    random_regions,
    simulate_ar1,
    simulate_iid,
    simulate_realistic,
)

__version__ = "0.1.0"
