"""Finite Blaschke products with theta(0) = 0 and their Clark measures.

The dictionary runs in both directions: the measure of an inner function is
supported where theta = 1 on the circle with weights fixed by the integral
identity (1 + theta)/(1 - theta) = integral of (1 + z conj(xi))/(1 - z conj(xi)),
and conversely theta = (F - 1)/(F + 1) where F is that Herglotz-type sum.
Reflection (conjugating the atoms) translates between the two orientations of
the circle used by the per-level phase measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import (
    DegenerateMeasureError,
    RootOffCircleError,
    ThetaAtOriginNonzeroError,
)
from .spectral_data import AtomicMeasure

ORIGIN_TOL = 1e-12
ROOT_CIRCLE_TOL = 1e-10
CONSTANT_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class BlaschkeProduct:
    """``theta(z) = c * prod_j (z - z_j) / (1 - conj(z_j) z)`` with |c| = 1."""

    zeros: np.ndarray
    constant: complex = 1.0 + 0j

    def __post_init__(self):
        # a copy: freezing it must not freeze the caller's array
        zeros = np.array(self.zeros, dtype=complex)
        if zeros.ndim != 1 or len(zeros) == 0:
            raise DegenerateMeasureError("a Blaschke product needs at least one zero")
        # written so that a NaN zero or constant fails the test
        if not np.all(np.abs(zeros) < 1.0):
            raise RootOffCircleError(
                "Blaschke zeros must be finite and lie strictly inside the disk")
        c = complex(self.constant)
        if not abs(abs(c) - 1.0) <= ROOT_CIRCLE_TOL:
            raise RootOffCircleError(f"|constant| = {abs(c)} is not 1")
        zeros.setflags(write=False)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "constant", c)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    @property
    def vanishes_at_origin(self) -> bool:
        return bool(np.any(np.abs(self.zeros) <= ORIGIN_TOL))

    @cached_property
    def _coefficients(self):
        """``(num, den, num', den')``, read-only, derived once per product."""
        # polyfromroots: the sorted roots' linear factors multiplied pairwise
        factors = [np.array([-r, 1.0]) for r in np.sort(self.zeros)]
        while len(factors) > 1:
            m, odd = divmod(len(factors), 2)
            tmp = [_mul(factors[i], factors[i + m]) for i in range(m)]
            if odd:
                tmp[0] = _mul(tmp[0], factors[-1])
            factors = tmp
        num = self.constant * factors[0]
        den = _prod_one_minus(np.conj(self.zeros))
        out = (num, den, _der(num), _der(den))
        for c in out:
            c.setflags(write=False)
        return out

    def as_rational(self):
        """Coefficient vectors (low to high degree) of numerator and denominator."""
        return self._coefficients[:2]

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, self.constant)
        for zj in self.zeros:
            out = out * (z - zj) / (1.0 - np.conj(zj) * z)
        return out if out.shape else complex(out)

    def derivative(self, z):
        num, den, dnum, dden = self._coefficients
        z = np.asarray(z, dtype=complex)
        dv = _horner(den, z)
        out = (_horner(dnum, z) * dv - _horner(num, z) * _horner(dden, z)) / dv**2
        return out if out.shape else complex(out)


# Coefficient arithmetic on complex arrays, low to high degree.  _trim, _mul,
# _add, _der and _horner do what numpy.polynomial's trimseq, polymul, polyadd,
# polyder and polyval do, operation for operation and with the same trim of
# trailing zero coefficients on inputs and results, so results agree bit for
# bit.  They skip the argument validation, which inner_from_measure would
# otherwise pay on O(n^2) products.

def _trim(c: np.ndarray) -> np.ndarray:
    """``c`` without trailing zero coefficients, keeping at least one."""
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _trim(np.convolve(_trim(a), _trim(b)))


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = _trim(a), _trim(b)
    if len(a) > len(b):
        a, b = b, a
    out = b.copy()
    out[:len(a)] += a
    return _trim(out)


def _prod_one_minus(c: np.ndarray) -> np.ndarray:
    """``prod_j (1 - c_j z)``, one factor at a time in the order of ``c``."""
    out = np.ones(1, dtype=complex)
    for cj in c:
        out = _mul(out, np.array([1.0, -cj]))
    return out


def _der(c: np.ndarray) -> np.ndarray:
    """``polyder``: coefficient j of the derivative is ``(j + 1) * c[j + 1]``."""
    if len(c) == 1:
        return c[:1] * 0
    return np.array([j * c[j] for j in range(1, len(c))])


def _horner(c: np.ndarray, x):
    """``polyval``: Horner's rule from the leading coefficient down."""
    c0 = c[-1] + x * 0
    for a in c[-2::-1]:
        c0 = a + c0 * x
    return c0


def clark_measure(theta: BlaschkeProduct) -> AtomicMeasure:
    """Circle probability measure of an inner function vanishing at the origin.

    Support: the deg(theta) solutions of theta = 1 on the circle, found as
    companion-matrix roots of numerator - denominator with one Newton step of
    polish.  Weights: 1/|theta'| at each atom, the exact Clark weights when
    theta(0) = 0.
    """
    if not theta.vanishes_at_origin:
        raise ThetaAtOriginNonzeroError("theta(0) != 0: no zero at the origin")
    num, den = theta.as_rational()
    roots = P.polyroots(_add(num, -den))
    if len(roots) != theta.degree:
        raise RootOffCircleError(
            f"expected {theta.degree} solutions of theta = 1, found {len(roots)}")
    # one Newton step on theta(x) - 1
    d = theta.derivative(roots)
    safe = np.abs(d) > 1e-300
    roots = np.where(safe, roots - (np.asarray(theta(roots)) - 1.0) / np.where(safe, d, 1.0), roots)
    off = np.abs(np.abs(roots) - 1.0)
    if np.any(off > ROOT_CIRCLE_TOL):
        raise RootOffCircleError(
            f"solution of theta = 1 lies {off.max():.3e} off the circle")
    roots = roots / np.abs(roots)
    weights = 1.0 / np.abs(theta.derivative(roots))
    return AtomicMeasure(points=roots, weights=weights, circle=True, probability=True)


def inner_from_measure(rho: AtomicMeasure) -> BlaschkeProduct:
    """Invert the integral identity: theta = (F - 1)/(F + 1).

    For a finitely supported circle probability measure, F - 1 and F + 1 share
    the denominator prod(1 - z conj(xi_j)), so theta is the ratio of two
    explicit polynomials; its zeros (one of them the origin) are companion
    roots of the numerator.
    """
    if not (rho.circle and rho.probability):
        raise DegenerateMeasureError("expected a circle probability measure")
    xi = rho.points
    w = rho.weights
    n = len(xi)
    xc = np.conj(xi)
    den_poly = _prod_one_minus(xc)
    p_poly = np.zeros(1, dtype=complex)
    for j in range(n):
        term = np.array([w[j], w[j] * xc[j]])
        for i in range(n):
            if i != j:
                term = _mul(term, np.array([1.0, -xc[i]]))
        p_poly = _add(p_poly, term)
    num = _add(p_poly, -den_poly)
    den = _add(p_poly, den_poly)

    zeros = P.polyroots(num)
    if len(zeros) != n:
        raise RootOffCircleError(f"numerator degree dropped: {len(zeros)} zeros for {n} atoms")
    zeros = np.where(np.abs(zeros) <= 1e-8, 0.0, zeros)
    if not np.any(np.abs(zeros) <= ORIGIN_TOL):
        raise RootOffCircleError("inverted inner function must vanish at the origin")
    if np.any(np.abs(zeros) >= 1.0):
        raise RootOffCircleError("inverted inner function has a zero outside the open disk")

    c = None
    for z0 in (0.37, 0.49 + 0.11j, -0.23 + 0.31j, 0.05 - 0.43j):
        b0 = np.prod((z0 - zeros) / (1.0 - np.conj(zeros) * z0))
        dv = _horner(den, z0)
        if abs(b0) > 1e-6 and abs(dv) > 1e-12:
            c = _horner(num, z0) / dv / b0
            break
    if c is None or abs(abs(c) - 1.0) > CONSTANT_TOL:
        raise RootOffCircleError("could not normalize the unimodular constant")
    return BlaschkeProduct(zeros=zeros, constant=c / abs(c))


def reflect_measure(rho: AtomicMeasure) -> AtomicMeasure:
    """Pull the measure back through the circle conjugation; involutive."""
    return AtomicMeasure(points=np.conj(rho.points), weights=rho.weights.copy(),
                         circle=rho.circle, probability=rho.probability)


def gp_convert_to_measures(thetas, theta1s):
    """Per-level inner functions -> per-level circle measures (reflected Clark)."""
    rho = tuple(reflect_measure(clark_measure(th)) for th in thetas)
    rho1 = tuple(None if th is None else reflect_measure(clark_measure(th))
                 for th in theta1s)
    return rho, rho1


def gp_convert_to_inner(rhos, rho1s):
    """Per-level circle measures -> per-level inner functions; inverse of
    :func:`gp_convert_to_measures` up to atom ordering."""
    thetas = tuple(inner_from_measure(reflect_measure(m)) for m in rhos)
    theta1s = tuple(None if m is None else inner_from_measure(reflect_measure(m))
                    for m in rho1s)
    return thetas, theta1s
