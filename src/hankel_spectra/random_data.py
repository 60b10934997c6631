"""Seeded generators for well-separated random spectral data.

Used by the round-trip trial runner and the test suite.  Values are kept away
from each other (relative gaps bounded below) so that level clustering in the
forward problem is unambiguous at the documented thresholds.
"""

from __future__ import annotations

import numpy as np

from .errors import BundleInvariantError
from .operator_assembly import BlockLayout
from .spectral_data import (
    AtomicMeasure,
    CompactSpectralData,
    IntertwinedSpectrum,
    validate_intertwining,
)


def random_spectrum(rng: np.random.Generator, n: int,
                    terminal_zero: bool | None = None) -> IntertwinedSpectrum:
    """Interlacing spectrum built from geometric gaps.

    Successive chain values have ratio at most 0.9, which keeps the model
    contraction bounded away from the unit circle and the truncation size
    moderate; the top value sets a random overall scale.
    """
    if terminal_zero is None:
        terminal_zero = bool(rng.random() < 0.5)
    ratios = rng.uniform(0.55, 0.9, size=2 * n - 1)
    chain = rng.uniform(0.5, 2.0) * np.concatenate([[1.0], np.cumprod(ratios)])
    lam = chain[0::2]
    mu = chain[1::2].copy()
    if terminal_zero:
        mu[-1] = 0.0
    return validate_intertwining(lam, mu)


def random_phases(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(n))


def _contraction_radius(d: CompactSpectralData) -> float:
    from .operator_assembly import assemble

    bundle = assemble(d)
    return float(np.abs(np.linalg.eigvals(bundle.sigma_star)).max())


def _guarded(draw, max_contraction: float | None, tries: int = 64) -> CompactSpectralData:
    """Redraw until the model contraction decays fast enough to certify a
    truncation within the size cap; keeps batch trials bounded.  A draw whose
    operator tuple fails its own invariants is rejected like a slow one."""
    if max_contraction is None:
        return draw()
    best, best_r, refusal = None, np.inf, None
    for _ in range(tries):
        d = draw()
        try:
            r = _contraction_radius(d)
        except BundleInvariantError as exc:
            refusal = exc
            continue
        if r <= max_contraction:
            return d
        if r < best_r:
            best, best_r = d, r
    if best is None:
        raise refusal
    return best


def random_cyclic_data(rng: np.random.Generator, n: int,
                       terminal_zero: bool | None = None,
                       max_contraction: float | None = None) -> CompactSpectralData:
    def draw():
        s = random_spectrum(rng, n, terminal_zero)
        xi = random_phases(rng, n)
        eta = random_phases(rng, n)
        if s.has_terminal_zero:
            eta[-1] = 0.0
        return CompactSpectralData.cyclic(s, xi, eta)

    return _guarded(draw, max_contraction)


def random_circle_measure(rng: np.random.Generator, m: int) -> AtomicMeasure:
    """Circle probability measure with angularly separated atoms and weights
    bounded away from zero."""
    angles = 2.0 * np.pi * (np.arange(m) + rng.uniform(0.2, 0.8, size=m)) / m
    angles += rng.uniform(0.0, 2.0 * np.pi)
    weights = rng.uniform(0.3, 1.0, size=m)
    weights /= weights.sum()
    return AtomicMeasure(points=np.exp(1j * angles), weights=weights,
                         circle=True, probability=True)


def random_multiplicity_data(rng: np.random.Generator, n: int, max_atoms: int = 3,
                             terminal_zero: bool | None = None,
                             max_contraction: float | None = None) -> CompactSpectralData:
    def draw():
        s = random_spectrum(rng, n, terminal_zero)
        rho = [random_circle_measure(rng, int(rng.integers(1, max_atoms + 1)))
               for _ in range(n)]
        rho1 = [random_circle_measure(rng, int(rng.integers(1, max_atoms + 1)))
                for _ in range(n)]
        if s.has_terminal_zero:
            rho1[-1] = None
        return CompactSpectralData.multiplicity(s, rho, rho1)

    return _guarded(draw, max_contraction)


def random_admissible_commutant(rng: np.random.Generator, layout: BlockLayout) -> np.ndarray:
    """Random unitary commuting with R, fixing p, symmetric for the entrywise
    conjugation of the block basis.

    Built blockwise as exp(i S) with S real symmetric and S p_k = 0 on the
    lambda blocks; on the mu blocks S is unconstrained.  These are exactly the
    gauge rotations that leave the Hankel symbol invariant.
    """
    dim = layout.dim
    psi = np.eye(dim, dtype=complex)

    def sym_unitary(d: int, fix_first: bool) -> np.ndarray:
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
