"""Validated spectral-data types and the weight identity that ties them together.

A pair of strictly interlacing sequences ``lambda_1 > mu_1 > lambda_2 > ...``
determines a unique atomic measure ``rho = sum a_n delta_{lambda_n^2}`` such
that the rank-one perturbation ``diag(lambda^2) - p p*`` with ``p = sqrt(a)``
has eigenvalues ``mu_k^2``.  This module validates the sequences and the
circle probability measures of the levels, and computes those weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateMeasureError,
    EmptyInputError,
    NegativeEntryError,
    NonInterlacingError,
    NonUnimodularPhaseError,
    WeightRangeError,
)

# Relative gap below which two spectral points are treated as coincident.
# The weight products divide by lambda_n^2 - lambda_k^2, so inputs tighter
# than this are rejected instead of silently merged.
DISTINCTNESS_RTOL = 1e-12

# Circle / probability validation tolerances for atomic measures.
UNIT_MODULUS_TOL = 1e-8
PROBABILITY_TOL = 1e-8

# Largest magnitude of a log-weight that still exponentiates to a normal double.
_LOG_RANGE = 700.0

# Largest lambda_1 and |gamma_k|.  The highest powers formed are lambda_1^4 (the
# mu-weight closed form, the law table) and N^5 max|gamma|^4 (the rank-one
# identity residual's masses) at N <= TRUNCATION_CAP = 4096: 4096^5 * 1e288 =
# 1.2e306 < 1.8e308.  |gamma_k| <= ||Gamma|| = lambda_1 keeps symbols inside.
SCALE_MAX = 1e72

# Smallest lambda_1.  The lowest power formed is the squared level gap in
# mu_weights, at least (DISTINCTNESS_RTOL * lambda_1^2)^2 = 1e-24 lambda_1^4,
# which stays a normal double (>= 2.2e-308) for lambda_1 >= 1.2e-71.  A symbol
# whose N x N truncation cannot reach it, N max|gamma_k| < SCALE_MIN since
# ||Gamma|| <= ||Gamma||_F <= N max|gamma_k|, is refused before any work.
SCALE_MIN = 1e-70


@dataclass(frozen=True, eq=False)
class IntertwinedSpectrum:
    """Two strictly interlacing decreasing positive sequences.

    ``lam[0] > mu[0] > lam[1] > ... > lam[n-1] > mu[n-1] >= 0``; only the
    terminal ``mu`` may vanish.  Use :func:`validate_intertwining` to build.
    """

    lam: np.ndarray
    mu: np.ndarray

    @property
    def n(self) -> int:
        return len(self.lam)

    @property
    def lam2(self) -> np.ndarray:
        return self.lam**2

    @property
    def mu2(self) -> np.ndarray:
        return self.mu**2

    @property
    def has_terminal_zero(self) -> bool:
        return self.mu[-1] == 0.0

    @cached_property
    def _borg_weights(self) -> np.ndarray:
        """:func:`borg_weights`, read by the bundle's build, by
        :func:`mu_weights` and by the round-trip report; a refusal caches
        nothing.  The double loop runs on Python floats."""
        lam2, mu2 = self.lam2.tolist(), self.mu2.tolist()
        n = self.n
        weights = np.empty(n)
        for i in range(n):
            log_a = math.log(lam2[i] - mu2[i])
            sign = 1.0
            for k in range(n):
                if k == i:
                    continue
                num = lam2[i] - mu2[k]
                den = lam2[i] - lam2[k]
                log_a += math.log(abs(num)) - math.log(abs(den))
                if num < 0:
                    sign = -sign
                if den < 0:
                    sign = -sign
            if abs(log_a) > _LOG_RANGE:
                raise WeightRangeError(f"weight {i} has log magnitude {log_a:.1f}")
            if sign <= 0:
                # Interlacing forces every weight positive; a flipped sign means
                # the input slipped past validation.
                raise NonInterlacingError(i, f"weight {i} came out nonpositive")
            weights[i] = math.exp(log_a)
        weights.setflags(write=False)
        return weights


def validate_intertwining(lam, mu) -> IntertwinedSpectrum:
    """Check the strict interlacing chain and return the validated record.

    Raises :class:`NonInterlacingError` with the 0-based index of the pair
    ``(lam_k, mu_k)`` at which the chain first fails; near-coincident values
    (relative squared gap below ``DISTINCTNESS_RTOL``) count as failures.
    Values above ``SCALE_MAX``, or all below ``SCALE_MIN``, raise
    :class:`WeightRangeError` before any is squared.
    """
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if lam.ndim != 1 or mu.ndim != 1 or len(lam) != len(mu):
        raise EmptyInputError("lambda and mu must be 1-d sequences of equal length")
    n = len(lam)
    if n == 0:
        raise EmptyInputError("empty spectral data")
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(mu))):
        raise EmptyInputError("spectral data must be finite")
    for k in range(n):
        if lam[k] <= 0:
            raise NegativeEntryError(k, f"lambda[{k}] = {lam[k]} must be positive")
        if mu[k] < 0:
            raise NegativeEntryError(k, f"mu[{k}] = {mu[k]} must be nonnegative")
    if (top := max(lam.max(), mu.max())) > SCALE_MAX:
        raise WeightRangeError(f"spectral data reach {top:.3e} > SCALE_MAX = {SCALE_MAX:.0e}")
    if top < SCALE_MIN:
        raise WeightRangeError(f"spectral data reach only {top:.3e} < SCALE_MIN = {SCALE_MIN:.0e}")
    gap = DISTINCTNESS_RTOL * float(lam[0]) ** 2
    for k in range(n):
        if lam[k] ** 2 - mu[k] ** 2 <= gap:
            raise NonInterlacingError(k, f"lambda[{k}] > mu[{k}] fails or is degenerate")
        if k + 1 < n and mu[k] ** 2 - lam[k + 1] ** 2 <= gap:
            raise NonInterlacingError(k, f"mu[{k}] > lambda[{k + 1}] fails or is degenerate")
        # mu may vanish only in the last slot; interior zeros already fail above.
        if mu[k] > 0 and mu[k] ** 2 <= gap and k + 1 < n:
            raise NonInterlacingError(k, f"mu[{k}] is degenerate at zero")
    lam = lam.copy()
    mu = mu.copy()
    lam.setflags(write=False)
    mu.setflags(write=False)
    return IntertwinedSpectrum(lam=lam, mu=mu)


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Finitely supported probability measure on the unit circle: distinct
    unimodular points, positive weights summing to one; validated on
    construction."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # copies: freezing them must not freeze the caller's arrays
        points = np.array(self.points, dtype=complex)
        weights = np.array(self.weights, dtype=float)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)
        if points.ndim != 1 or weights.shape != points.shape or len(points) == 0:
            raise DegenerateMeasureError("measure needs at least one (point, weight) atom")
        # a measure has a few atoms: Python reductions over lists beat numpy's
        if not all(0.0 < w < math.inf for w in weights.tolist()):
            raise DegenerateMeasureError("weights must be strictly positive and finite")
        moduli = np.abs(points).tolist()
        if not all(math.isfinite(r) for r in moduli):
            raise DegenerateMeasureError("points must be finite")
        m = len(moduli)
        if m > 1:
            close = np.abs(points[:, None] - points) <= DISTINCTNESS_RTOL * max(1.0, *moduli)
            close.flat[:: m + 1] = False
            if close.any():
                # close is symmetric, so its first entry in row-major order
                # is the first pair (i < j) in the order i, then j
                i, j = divmod(int(close.argmax()), m)
                raise DegenerateMeasureError(f"atoms {i} and {j} coincide")
        if any(abs(r - 1.0) > UNIT_MODULUS_TOL for r in moduli):
            raise DegenerateMeasureError("circle measure has a point off the unit circle")
        if abs(weights.sum() - 1.0) > PROBABILITY_TOL:
            raise DegenerateMeasureError(f"weights sum to {weights.sum()}, not 1")
        points.setflags(write=False)
        weights.setflags(write=False)

    @classmethod
    def point_mass(cls, z) -> "AtomicMeasure":
        """The point mass delta_z of a unimodular phase z."""
        return cls(points=[complex(z)], weights=[1.0])


def _check_unimodular(values, what: str):
    values = np.asarray(values, dtype=complex)
    bad = np.abs(np.abs(values) - 1.0) > UNIT_MODULUS_TOL
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NonUnimodularPhaseError(f"{what}[{k}] = {values[k]} is not unimodular")


def phase_mode(levels) -> str:
    """The one-atom rule: the measures ``levels`` (``None`` where a level has
    none) are ``"cyclic"`` phases exactly when each is a point mass, and
    ``"multiplicity"`` data otherwise."""
    one_atom = all(m is None or len(m.weights) == 1 for m in levels)
    return "cyclic" if one_atom else "multiplicity"


@dataclass(frozen=True, eq=False)
class CompactSpectralData:
    """Interlacing spectrum plus one circle probability measure per level.

    ``rho[k]`` holds the phase data of the level lambda_k and ``rho1[k]``
    that of mu_k; ``rho1[k]`` is ``None`` at a terminal ``mu_n = 0``, and
    ``rho1`` may omit that entry on construction.  The constructor validates.
    Cyclic data are the case where every measure is a point mass:
    :meth:`cyclic` wraps unimodular phases ``xi_k``/``eta_k`` this way, and
    ``mode``, ``xi`` and ``eta`` are derived from the measures.
    """

    spectrum: IntertwinedSpectrum
    rho: tuple
    rho1: tuple

    def __post_init__(self):
        n, terminal = self.spectrum.n, self.spectrum.has_terminal_zero
        rho = tuple(self.rho)
        rho1 = list(self.rho1)
        if len(rho) != n:
            raise DegenerateMeasureError(f"expected {n} rho measures, got {len(rho)}")
        if terminal and len(rho1) == n - 1:
            rho1 = rho1 + [None]
        if len(rho1) != n:
            raise DegenerateMeasureError(f"expected {n} rho1 measures, got {len(rho1)}")
        for name, levels in (("rho", rho), ("rho1", rho1[:n - terminal])):
            for k, m in enumerate(levels):
                if not isinstance(m, AtomicMeasure):
                    raise DegenerateMeasureError(f"{name}[{k}] must be a circle "
                                                 "probability measure")
        if terminal and rho1[-1] is not None:
            raise DegenerateMeasureError("rho1 must be absent at the terminal mu = 0")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "rho1", tuple(rho1))

    @classmethod
    def cyclic(cls, spectrum: IntertwinedSpectrum, xi, eta) -> "CompactSpectralData":
        """Cyclic data: each unimodular phase becomes its point mass.  ``eta``
        is 0 (or omitted) at a terminal ``mu_n = 0``."""
        n = spectrum.n
        xi = [complex(v) for v in xi]
        eta = [complex(v) for v in eta]
        if len(xi) != n:
            raise NonUnimodularPhaseError(f"expected {n} xi phases, got {len(xi)}")
        if spectrum.has_terminal_zero and len(eta) == n - 1:
            eta = eta + [0j]
        if len(eta) != n:
            raise NonUnimodularPhaseError(f"expected {n} eta phases, got {len(eta)}")
        _check_unimodular(xi, "xi")
        if spectrum.has_terminal_zero:
            if abs(eta[-1]) > UNIT_MODULUS_TOL:
                raise NonUnimodularPhaseError("eta must vanish at the terminal mu = 0")
            eta = eta[:-1]
        _check_unimodular(eta, "eta")
        return cls(spectrum, [AtomicMeasure.point_mass(z) for z in xi],
                   [AtomicMeasure.point_mass(z) for z in eta])

    @property
    def mode(self) -> str:
        return phase_mode(self.rho + self.rho1)

    def _phases(self, levels) -> tuple:
        if self.mode != "cyclic":
            raise ValueError("multiplicity data have no scalar phases")
        return tuple(0j if m is None else complex(m.points[0]) for m in levels)

    @property
    def xi(self) -> tuple:
        """The phases xi_k of cyclic data."""
        return self._phases(self.rho)

    @property
    def eta(self) -> tuple:
        """The phases eta_k of cyclic data, 0 at a terminal ``mu_n = 0``."""
        return self._phases(self.rho1)


def borg_weights(s: IntertwinedSpectrum) -> np.ndarray:
    """The weights ``a_n`` of the spectral measure ``sum a_n delta_{lambda_n^2}``,
    a read-only float array.

    ``a_n = (lambda_n^2 - mu_n^2) * prod_{k != n} (lambda_n^2 - mu_k^2) /
    (lambda_n^2 - lambda_k^2)``.  The product is accumulated in log magnitude
    with a separate sign so clustered spectra near n = 12 neither overflow nor
    underflow before the final exponentiation.  Derived once per spectrum.
    """
    return s._borg_weights


def mu_weights(s: IntertwinedSpectrum) -> np.ndarray:
    """The weights ``b_k`` of ``sum b_k delta_{mu_k^2}``, the spectral measure
    of ``diag(lambda^2) - p p*`` at ``p = sqrt(a)``, a the :func:`borg_weights`;
    a read-only float array.

    The eigenvector at the root ``mu_k^2`` of the secular function
    ``1 - sum_i a_i / (lambda_i^2 - z)`` is ``(diag(lambda^2) - mu_k^2)^{-1} p``,
    so ``b_k = 1 / sum_i a_i / (lambda_i^2 - mu_k^2)^2``, the reciprocal
    derivative there; a terminal ``mu_n = 0`` is no exception.
    """
    weights = 1.0 / (borg_weights(s) / (s.lam2 - s.mu2[:, None]) ** 2).sum(axis=1)
    if not np.all((weights > 0.0) & (weights < math.inf)):
        raise DegenerateMeasureError("weights must be strictly positive and finite")
    weights.setflags(write=False)
    return weights
