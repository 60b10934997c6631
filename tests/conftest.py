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
def herglotz_sum():
    """``F(rho, z) = sum_j w_j (1 + z conj(xi_j)) / (1 - z conj(xi_j))``, the
    right side of the Clark identity (1 + theta)/(1 - theta) = F."""
    def F(rho, z):
        zc = np.asarray(z, dtype=complex)[..., None] * np.conj(rho.points)
        return np.sum(rho.weights * (1.0 + zc) / (1.0 - zc), axis=-1)
    return F


@pytest.fixture
def explicit_formula_symbol():
    """``(d, K) -> gamma_0..gamma_K`` from the data alone, by the explicit
    formula of Gerard and Grellier: no operator bundle is built.

    u(z) = 1^T C(z)^{-1} Psi(z) with C_jk = (lambda_j - z mu_k Psi_j chi_k) /
    (lambda_j^2 - mu_k^2), Psi_j = theta_j(z) / z and chi_k = conj
    theta1_k(conj z) / z (chi_k = 1 at a terminal mu_n = 0), the inner
    functions theta from ``gp_convert_to_inner``.  u is sampled at the M-th
    roots of unity, M = ``_fft_length(2K + 64)``, and its Taylor coefficients
    are read from one FFT; the aliased terms gamma_{k+M} are past the tail.
    """
    from hankel_spectra.hankel_core import _fft_length

    def symbol(d, K):
        s = d.spectrum
        thetas, theta1s = hs.gp_convert_to_inner(d.rho, d.rho1)
        M = _fft_length(2 * K + 64)
        z = np.exp(2j * np.pi * np.arange(M) / M)
        psi = np.stack([th(z) / z for th in thetas], axis=-1)
        chi = np.stack([np.ones(M) if th is None else np.conj(th(np.conj(z))) / z
                        for th in theta1s], axis=-1)
        C = ((s.lam[:, None] - z[:, None, None] * s.mu * psi[:, :, None] * chi[:, None, :])
             / (s.lam2[:, None] - s.mu2))
        u = np.linalg.solve(C, psi[..., None])[..., 0].sum(axis=-1)
        return np.fft.fft(u)[: K + 1] / M
    return symbol


@pytest.fixture(scope="session")
def seeded_sweep():
    """Seeded cyclic draws at n = 1..16 and multiplicity draws of up to 5
    atoms per level at n = 1..4; both modes meet both a terminal mu = 0 and
    a positive mu_n."""
    from hankel_spectra.random_data import random_cyclic_data, random_multiplicity_data

    data = []
    for seed in range(5):
        rng = np.random.default_rng([seed, 1])
        data += [random_cyclic_data(rng, n) for n in range(1, 17)]
    for seed in range(20):
        rng = np.random.default_rng([seed, 2])
        data += [random_multiplicity_data(rng, n, max_atoms=5) for n in range(1, 5)]
    return data


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


def _random_admissible_commutant(rng, layout):
    """Random unitary commuting with R, fixing p, symmetric for the entrywise
    conjugation of the block basis.

    Built blockwise as exp(i S) with S real symmetric and S p_k = 0 on the
    lambda blocks; on the mu blocks S is unconstrained.  These are exactly the
    gauge rotations that leave the Hankel symbol invariant.
    """
    dim = layout.dim
    psi = np.eye(dim, dtype=complex)

    def sym_unitary(d, fix_first):
        S = rng.standard_normal((d, d))
        S = 0.5 * (S + S.T)
        if fix_first:
            S[0, :] = 0.0
            S[:, 0] = 0.0
        evals, vecs = np.linalg.eigh(S)
        return (vecs * np.exp(1j * evals)) @ vecs.T

    for block in layout.lam_blocks:
        d = len(block)
        if d > 1:
            idx = np.asarray(block)
            psi[np.ix_(idx, idx)] = sym_unitary(d, fix_first=True)
    for block in layout.mu_blocks:
        d = len(block)
        if d >= 1:
            idx = np.asarray(block)
            psi[np.ix_(idx, idx)] = sym_unitary(d, fix_first=False)
    return psi


@pytest.fixture
def admissible_commutant():
    """The gauge generator ``(rng, layout) -> psi``: a random admissible
    rotation of a bundle, applied as phi psi*, phi1 psi*, psi Jp."""
    return _random_admissible_commutant
