import numpy as np
import pytest
from hypothesis import settings

import hankel_spectra as hs

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def rank1_data():
    s = hs.validate_intertwining([1.0], [0.0])
    return hs.CompactSpectralData.cyclic(s, [1.0], [0.0])


@pytest.fixture
def rank2_spectrum():
    return hs.validate_intertwining([2.0, 1.0], [float(np.sqrt(2.0)), 0.0])


@pytest.fixture
def rank2_data(rank2_spectrum):
    return hs.CompactSpectralData.cyclic(rank2_spectrum, [1.0, 1.0], [1.0, 0.0])


@pytest.fixture
def uncertified():
    """The N x N truncation of the symbol of ``d`` without the tail check
    that every explicit N passes in ``hankel_from_data``."""
    def truncate(d, N):
        return hs.HankelMatrix.from_gamma(hs.gamma_sequence(hs.assemble(d), 2 * N - 2), N)
    return truncate


@pytest.fixture
def bundle_corpus():
    """A mixed bag of assembled bundles used by the structural-identity tests."""
    from hankel_spectra.random_data import random_cyclic_data, random_multiplicity_data

    rng = np.random.default_rng(99)
    bundles = []
    for n in (1, 2, 4, 6):
        bundles.append(hs.assemble(random_cyclic_data(rng, n)))
    for n in (1, 2, 3):
        bundles.append(hs.assemble(random_multiplicity_data(rng, n, max_atoms=3)))
    s = hs.validate_intertwining([2.0, 1.0], [float(np.sqrt(2.0)), 0.0])
    bundles.append(hs.assemble(hs.CompactSpectralData.cyclic(s, [1j, -1.0], [np.exp(0.3j), 0.0])))
    return bundles
