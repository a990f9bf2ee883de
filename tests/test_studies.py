"""Study harness surfaces that the acceptance suite does not already cover."""

import csv

import numpy as np
import pytest

from cvfmri.dataio import read_map
from cvfmri.errors import InvalidSpecError
from cvfmri.pipeline import FitConfig, fit_dataset, reproduce, write_fit_outputs
from cvfmri.sampler import SamplerConfig
from cvfmri.data import ComplexDataset
from cvfmri.design import design_for_length


def test_params_study_report_structure(tmp_path):
    rows = reproduce("params", 1, 4242, tmp_path, workers=1)
    labels = [r[0] for r in rows]
    assert labels[:4] == [
        "psi=ndtri(0.02)", "psi=ndtri(0.2)", "psi=ndtri(0.35)", "psi=ndtri(0.47)",
    ]
    assert labels[4:8] == ["G=1", "G=4", "G=9", "G=16"]
    assert labels[8:] == ["T=80", "T=200", "T=500", "T=1000"]
    with open(tmp_path / "report.csv", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0][0] == "setting"
    assert len(table) == 13
    # longer series should not hurt accuracy
    acc = {r[0]: float(r[1]) for r in rows}
    assert acc["T=1000"] >= acc["T=80"]


def test_three_dimensional_fit_outputs(tmp_path):
    rng = np.random.default_rng(0)
    dims = (2, 6, 6)
    n_time = 60
    design = design_for_length(n_time, on_len=5, off_len=5)
    signal = np.zeros(dims)
    signal[1, 2:4, 2:4] = 0.3
    mean = 1.0 + signal.reshape(-1, 1) * design.bold[None, :]
    noise = 0.05 * (rng.standard_normal((72, n_time)) + 1j * rng.standard_normal((72, n_time)))
    ds = ComplexDataset(dims, (mean * np.exp(0.5j) + noise).reshape(*dims, n_time))
    cfg = FitConfig(n_parcels=2, workers=1,
                    sampler=SamplerConfig(n_iter=80, n_burn=40, seed=3))
    result = fit_dataset(ds, design, cfg)
    out = tmp_path / "fit3d"
    write_fit_outputs(result, out)
    assert read_map(out / "activation.csv").shape == dims
    for s in range(dims[0]):
        assert (out / f"activation_slice{s}.pgm").exists()
        assert (out / f"magnitude_slice{s}.pgm").exists()
    # the active block is found
    assert result.maps.activation[1, 2:4, 2:4].min() == 1


def test_sampler_config_validation():
    with pytest.raises(InvalidSpecError):
        SamplerConfig(n_iter=100, n_burn=100)
    with pytest.raises(InvalidSpecError):
        SamplerConfig(threshold=1.5)
    with pytest.raises(InvalidSpecError):
        SamplerConfig(mode="bogus")
    for removed in ("q", "a_kappa", "b_kappa"):
        with pytest.raises(TypeError):
            SamplerConfig(**{removed: 1})
    cfg = SamplerConfig(n_iter=500)
    assert cfg.n_burn == 250 and cfg.threshold == 0.8722


def test_unknown_study_rejected(tmp_path):
    with pytest.raises(InvalidSpecError):
        reproduce("bogus", 1, 0, tmp_path)
