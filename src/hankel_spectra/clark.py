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
        zeros = np.asarray(self.zeros, dtype=complex)
        if zeros.ndim != 1 or len(zeros) == 0:
            raise DegenerateMeasureError("a Blaschke product needs at least one zero")
        if np.any(np.abs(zeros) >= 1.0):
            raise RootOffCircleError("Blaschke zeros must lie strictly inside the disk")
        c = complex(self.constant)
        if abs(abs(c) - 1.0) > ROOT_CIRCLE_TOL:
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

    def as_rational(self):
        """Coefficient vectors (low to high degree) of numerator and denominator."""
        num = self.constant * P.polyfromroots(self.zeros)
        den = np.asarray([1.0 + 0j])
        for z in self.zeros:
            den = P.polymul(den, [1.0, -np.conj(z)])
        return num, den

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, self.constant)
        for zj in self.zeros:
            out = out * (z - zj) / (1.0 - np.conj(zj) * z)
        return out if out.shape else complex(out)

    def derivative(self, z):
        num, den = self.as_rational()
        z = np.asarray(z, dtype=complex)
        nv = P.polyval(z, num)
        dv = P.polyval(z, den)
        npv = P.polyval(z, P.polyder(num))
        dpv = P.polyval(z, P.polyder(den))
        out = (npv * dv - nv * dpv) / dv**2
        return out if out.shape else complex(out)


def _herglotz_sum(rho: AtomicMeasure, z):
    """``F(z) = sum_j w_j (1 + z conj(xi_j)) / (1 - z conj(xi_j))``."""
    z = np.asarray(z, dtype=complex)
    zc = z[..., None] * np.conj(rho.points)
    return np.sum(rho.weights * (1.0 + zc) / (1.0 - zc), axis=-1)


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
    diff = P.polysub(num, den)
    roots = P.polyroots(diff)
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
    den_poly = np.asarray([1.0 + 0j])
    for x in xi:
        den_poly = P.polymul(den_poly, [1.0, -np.conj(x)])
    p_poly = np.zeros(n + 1, dtype=complex)
    for j in range(n):
        term = np.asarray([w[j], w[j] * np.conj(xi[j])])
        for i in range(n):
            if i != j:
                term = P.polymul(term, [1.0, -np.conj(xi[i])])
        p_poly = P.polyadd(p_poly, term)
    num = P.polysub(p_poly, den_poly)
    den = P.polyadd(p_poly, den_poly)

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
        dv = P.polyval(z0, den)
        if abs(b0) > 1e-6 and abs(dv) > 1e-12:
            c = P.polyval(z0, num) / dv / b0
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
