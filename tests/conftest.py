import math

import numpy as np
import pytest

from floquet_lab import DriveSpec, OscillatorParams, Truncation


@pytest.fixture(scope="session")
def params_nonres() -> OscillatorParams:
    """omega = 1, T = 2 pi sqrt(2): T is an irrational multiple of the
    oscillator period, so the drive never resonates."""
    return OscillatorParams(omega=1.0, period_T=2 * math.pi * math.sqrt(2))


@pytest.fixture(scope="session")
def drive_nonres(params_nonres) -> DriveSpec:
    return DriveSpec.sine(params_nonres.period_T, amplitude=0.05)


@pytest.fixture(scope="session")
def params_res() -> OscillatorParams:
    """omega = 1, T = 2 pi: exactly one oscillator period per drive period."""
    return OscillatorParams(omega=1.0, period_T=2 * math.pi)


@pytest.fixture(scope="session")
def drive_res(params_res) -> DriveSpec:
    """First-harmonic drive: the resonant Fourier coefficient is nonzero."""
    return DriveSpec.sine(params_res.period_T, amplitude=0.05)


@pytest.fixture(scope="session")
def drive_identity(params_res) -> DriveSpec:
    """Second-harmonic drive: f_{+-1} = 0, monodromy is a phase times I."""
    return DriveSpec.from_fourier(params_res.period_T, {2: -0.025j, -2: 0.025j})


@pytest.fixture
def forbid_dense_eigh(monkeypatch):
    """A call that makes numpy's dense eigh fail from then on, through either
    of its names, so a test can build its references first."""
    import numpy.linalg._linalg as linalg_impl

    def no_eigh(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh was called")

    def forbid():
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        monkeypatch.setattr(linalg_impl, "eigh", no_eigh)

    return forbid


@pytest.fixture(scope="session")
def trunc48() -> Truncation:
    return Truncation(n_keep=48, n_pad=48)


@pytest.fixture(scope="session")
def ground_state() -> np.ndarray:
    vec = np.zeros(1, dtype=complex)
    vec[0] = 1.0
    return vec
