"""Validated spectral-data types and the weight identities that tie them together.

A pair of strictly interlacing sequences ``lambda_1 > mu_1 > lambda_2 > ...``
determines a unique atomic measure ``rho = sum a_n delta_{lambda_n^2}`` such
that the rank-one perturbation ``diag(lambda^2) - p p*`` with ``p = sqrt(a)``
has eigenvalues ``mu_k^2``.  This module computes those weights, the product
function ``Phi(z) = prod (z - mu_k^2)/(z - lambda_k^2)`` and the Cauchy
transform of atomic measures, plus the kernel-condition bookkeeping used for
finite-rank data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateMeasureError,
    EmptyInputError,
    NegativeEntryError,
    NonInterlacingError,
    NonUnimodularPhaseError,
    PoleProximityError,
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

    @property
    def scale2(self) -> float:
        """Reference scale for squared-spectrum tolerances."""
        return max(float(self.lam[0]) ** 2, 1.0)


def validate_intertwining(lam, mu) -> IntertwinedSpectrum:
    """Check the strict interlacing chain and return the validated record.

    Raises :class:`NonInterlacingError` with the 0-based index of the pair
    ``(lam_k, mu_k)`` at which the chain first fails; near-coincident values
    (relative squared gap below ``DISTINCTNESS_RTOL``) count as failures.
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
    gap = DISTINCTNESS_RTOL * max(float(lam[0]) ** 2, 1.0)
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
    """Finitely supported nonnegative measure: distinct points, positive weights.

    ``circle`` asserts all points are unimodular, ``probability`` that the
    weights sum to one; both are validated on construction.
    """

    points: np.ndarray
    weights: np.ndarray
    circle: bool = False
    probability: bool = False

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
        if self.circle and any(abs(r - 1.0) > UNIT_MODULUS_TOL for r in moduli):
            raise DegenerateMeasureError("circle measure has a point off the unit circle")
        if self.probability and abs(weights.sum() - 1.0) > PROBABILITY_TOL:
            raise DegenerateMeasureError(f"weights sum to {weights.sum()}, not 1")
        points.setflags(write=False)
        weights.setflags(write=False)

    @classmethod
    def point_mass(cls, z) -> "AtomicMeasure":
        """The circle probability measure delta_z of a unimodular phase z."""
        return cls(points=[complex(z)], weights=[1.0], circle=True, probability=True)

    @property
    def atoms(self):
        return tuple(zip(self.points, self.weights))

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def canonically_sorted(self) -> "AtomicMeasure":
        """Atoms reordered by angle (circle) or by descending real part."""
        if self.circle:
            order = np.argsort(np.mod(np.angle(self.points), 2.0 * np.pi))
        else:
            order = np.argsort(-self.points.real)
        return AtomicMeasure(self.points[order], self.weights[order],
                             circle=self.circle, probability=self.probability)


def _check_unimodular(values, what: str):
    values = np.asarray(values, dtype=complex)
    bad = np.abs(np.abs(values) - 1.0) > UNIT_MODULUS_TOL
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NonUnimodularPhaseError(f"{what}[{k}] = {values[k]} is not unimodular")
    return values


def _is_circle_probability(m) -> bool:
    return isinstance(m, AtomicMeasure) and m.circle and m.probability


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
        n = self.spectrum.n
        rho = tuple(self.rho)
        rho1 = list(self.rho1)
        if len(rho) != n:
            raise DegenerateMeasureError(f"expected {n} rho measures, got {len(rho)}")
        if self.spectrum.has_terminal_zero and len(rho1) == n - 1:
            rho1 = rho1 + [None]
        if len(rho1) != n:
            raise DegenerateMeasureError(f"expected {n} rho1 measures, got {len(rho1)}")
        for k, m in enumerate(rho):
            if not _is_circle_probability(m):
                raise DegenerateMeasureError(f"rho[{k}] must be a circle probability measure")
        for k, m in enumerate(rho1):
            if k == n - 1 and self.spectrum.has_terminal_zero:
                if m is not None:
                    raise DegenerateMeasureError("rho1 must be absent at the terminal mu = 0")
                continue
            if not _is_circle_probability(m):
                raise DegenerateMeasureError(f"rho1[{k}] must be a circle probability measure")
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


def borg_weights(s: IntertwinedSpectrum) -> AtomicMeasure:
    """Weights of the spectral measure ``rho = sum a_n delta_{lambda_n^2}``.

    ``a_n = (lambda_n^2 - mu_n^2) * prod_{k != n} (lambda_n^2 - mu_k^2) /
    (lambda_n^2 - lambda_k^2)``.  The product is accumulated in log magnitude
    with a separate sign so clustered spectra near n = 12 neither overflow nor
    underflow before the final exponentiation.
    """
    lam2 = s.lam2
    mu2 = s.mu2
    n = s.n
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
    return AtomicMeasure(points=lam2.astype(complex), weights=weights)


@dataclass(frozen=True)
class KernelConditions:
    """Finite-rank kernel flags plus truncation diagnostics.

    At finite rank ``norm_is_one`` holds exactly when the terminal mu is 0.
    The range condition q not in Ran R never holds there, so the kernel is
    never trivial and neither is recorded.  The partial sums are reported for
    user-supplied truncations of infinite data; no convergence claim is
    attached to them.
    """

    norm_is_one: bool
    partial_sum_norm: float = field(default=math.inf)
    partial_sum_range: float = field(default=0.0)


def kernel_conditions(s: IntertwinedSpectrum) -> KernelConditions:
    with np.errstate(divide="ignore"):
        ratios = np.where(s.mu2 > 0, s.lam2 / np.where(s.mu2 > 0, s.mu2, 1.0), np.inf)
    partial_norm = float(np.sum(ratios - 1.0))
    partial_range = float(np.sum(s.mu2[:-1] / s.lam2[1:] - 1.0)) if s.n > 1 else 0.0
    return KernelConditions(
        norm_is_one=s.has_terminal_zero,
        partial_sum_norm=partial_norm,
        partial_sum_range=partial_range,
    )


def phi_product_eval(s: IntertwinedSpectrum, z: complex, pole_rtol: float = DISTINCTNESS_RTOL) -> complex:
    """Evaluate ``prod_k (z - mu_k^2) / (z - lambda_k^2)``.

    ``-Phi`` is Herglotz: its imaginary part is negative in the upper half
    plane, it tends to 1 at infinity, and it equals ``1 - F`` with ``F`` the
    Cauchy transform of the weight measure.
    """
    z = complex(z)
    tol = pole_rtol * s.scale2
    value = 1.0 + 0j
    for k in range(s.n):
        den = z - s.lam2[k]
        if abs(den) <= tol:
            raise PoleProximityError(k, f"z within pole tolerance of lambda[{k}]^2")
        value *= (z - s.mu2[k]) / den
    return value


def cauchy_transform_eval(rho: AtomicMeasure, z: complex, pole_rtol: float = DISTINCTNESS_RTOL) -> complex:
    """Evaluate ``F(z) = sum_k w_k / (s_k - z)`` for an atomic measure."""
    z = complex(z)
    tol = pole_rtol * max(1.0, float(np.abs(rho.points).max()))
    diffs = rho.points - z
    if np.any(np.abs(diffs) <= tol):
        k = int(np.argmin(np.abs(diffs)))
        raise PoleProximityError(k, f"z within pole tolerance of atom {k}")
    return complex(np.sum(rho.weights / diffs))
