"""The cubic Szego flow as a metamorphic oracle of both directions.

On the Hardy space of the circle, i u_t = Pi(|u|^2 u), Pi keeping the
nonnegative frequencies, moves the symbol u(z) = sum gamma_k z^k.  In the
spectral data of Gerard and Grellier the flow is linear: lambda and mu stay,
and every level's Blaschke product (``gp_convert_to_inner``) turns by
e^{-i s^2 t}, s the level's lambda_j or mu_k, so a multi-atom level's
measure moves along its Clark family.  The PDE is solved here with no
spectral theory: a pseudo-spectral RK4 integrator on M points.

RK4's global error is O(h^4).  At h = t / 500, t = 0.5 / max(1, max|gamma|^2),
the solution agrees with ``synthesize`` of the evolved data to 5.6e-12 of
max|gamma| at worst over these draws; 250 steps read 9.1e-11, 16 times more,
as a fourth-order error does.  FLOW_RTOL sits a decade above the 250-step
error, and every wrong flow below misses by at least 0.75 on some draw.
"""

import numpy as np
import pytest

import hankel_spectra as hs
from hankel_spectra.clark import BlaschkeProduct
from hankel_spectra.random_data import random_cyclic_data, random_multiplicity_data
from hankel_spectra.roundtrip import roundtrip_errors

M = 4096
STEPS = 500
FLOW_RTOL = 1e-9
MISS = 1e-3


def szego_flow(gamma, t, steps=STEPS):
    """gamma_k(t) for k < M / 2 under i u_t = Pi(|u|^2 u), by RK4 on the M-th
    roots of unity; the upper half of the grid holds the aliased
    frequencies and is cleared after each product."""
    c = np.zeros(M, dtype=complex)
    c[: len(gamma)] = gamma

    def rhs(c):
        u = np.fft.ifft(c) * M
        f = np.fft.fft(np.abs(u) ** 2 * u) / M
        f[M // 2:] = 0.0
        return -1j * f

    h = t / steps
    for _ in range(steps):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * h * k1)
        k3 = rhs(c + 0.5 * h * k2)
        k4 = rhs(c + h * k3)
        c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return c[: M // 2]


def evolve(d, t, signs=(-1, -1), rotate_atoms=False):
    """The data of the flow at time t: each level's Blaschke product turned
    by e^{sign i s^2 t}.  ``signs`` (lambda family, mu family) and
    ``rotate_atoms`` (turn the atoms themselves) give the wrong flows."""
    s = d.spectrum
    thetas, theta1s = hs.gp_convert_to_inner(d.rho, d.rho1)

    def turned(theta, value, sign):
        return BlaschkeProduct(theta.zeros, theta.constant * np.exp(sign * 1j * value ** 2 * t))

    rho, rho1 = hs.gp_convert_to_measures(
        [turned(th, v, signs[0]) for th, v in zip(thetas, s.lam)],
        [None if th is None else turned(th, v, signs[1]) for th, v in zip(theta1s, s.mu)])
    if rotate_atoms:
        def rotated(m, m_t, value):
            if m is None or len(m.weights) == 1:
                return m_t
            return hs.AtomicMeasure(m.points * np.exp(-1j * value ** 2 * t), m.weights)
        rho = [rotated(m, m_t, v) for m, m_t, v in zip(d.rho, rho, s.lam)]
        rho1 = [rotated(m, m_t, v) for m, m_t, v in zip(d.rho1, rho1, s.mu)]
    return hs.CompactSpectralData(s, rho, rho1)


@pytest.fixture(scope="module")
def flows():
    """(d, t, gamma(t)) for 4 cyclic and 4 multiplicity draws, n <= 4."""
    rng = np.random.default_rng(2028)
    out = []
    for mode in ("cyclic", "multiplicity") * 4:
        n = int(rng.integers(1, 5))
        d = (random_cyclic_data(rng, n, max_contraction=0.97) if mode == "cyclic" else
             random_multiplicity_data(rng, n, max_atoms=4, max_contraction=0.97))
        gamma0 = hs.gamma_sequence(hs.assemble(d), M // 2 - 1)
        t = 0.5 / max(1.0, float(np.abs(gamma0).max()) ** 2)
        out.append((d, t, gamma0, szego_flow(gamma0, t)))
    return out


def _miss(d, t, gamma_t, **wrong) -> float:
    """max|synthesize(evolve(d)) - gamma(t)| / max|gamma(t)|."""
    h = hs.hankel_from_data(evolve(d, t, **wrong))
    return float(np.abs(h.gamma - gamma_t[: 2 * h.N - 1]).max() / np.abs(gamma_t).max())


def test_synthesize_of_the_evolved_data_solves_the_flow(flows):
    moved = [float(np.abs(g - g0).max() / np.abs(g0).max()) for _, _, g0, g in flows]
    misses = [_miss(d, t, g) for d, t, _, g in flows]
    print(f"\nsymbol moved {min(moved):.2f}-{max(moved):.2f}, flow miss {max(misses):.1e}")
    assert min(moved) > 0.1
    assert max(misses) <= FLOW_RTOL


def test_analyze_of_the_evolved_symbol_recovers_the_evolved_data(flows):
    for d, t, _, gamma_t in flows:
        e = evolve(d, t)
        N = hs.hankel_from_data(e).N
        errors = roundtrip_errors(e, hs.forward_extract(hs.HankelMatrix.from_gamma(
            gamma_t[: 2 * N - 1], N)))
        assert max(errors["lam"], errors["mu"]) <= 1e-8, errors
        assert max(errors["weights"], errors["phases"]) <= 1e-6, errors


@pytest.mark.parametrize("wrong", [dict(signs=(1, -1)), dict(signs=(-1, 1)), dict(signs=(1, 1)),
                                   dict(rotate_atoms=True)], ids=str)
def test_a_wrong_flow_misses(flows, wrong):
    assert max(_miss(d, t, g, **wrong) for d, t, _, g in flows) > MISS
