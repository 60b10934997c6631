"""Finite Blaschke products with theta(0) = 0 and their Clark measures.

The dictionary rests on the integral identity (1 + theta)/(1 - theta) =
integral of (1 + z conj(xi))/(1 - z conj(xi)), and both directions are
eigenproblems of one compressed shift (D. N. Clark, One dimensional
perturbations of restricted shifts, J. Analyse Math. 1972): the nonzero zeros
of theta are the spectrum of multiplication by z on L^2(rho) compressed to
the complement of the constants, and the Clark measure of theta is the
spectral measure, at e_0, of the unitary rank-one completion of theta's
compressed shift.  Reflection (conjugating the atoms) translates between the
two orientations of the circle used by the per-level phase measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMeasureError,
    RootOffCircleError,
    ThetaAtOriginNonzeroError,
)
from .operator_assembly import _measure_frame
from .spectral_data import AtomicMeasure

ORIGIN_TOL = 1e-12
ROOT_CIRCLE_TOL = 1e-10


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
    def vanishes_at_origin(self) -> bool:
        return bool(np.any(np.abs(self.zeros) <= ORIGIN_TOL))

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, self.constant)
        for zj in self.zeros:
            out = out * (z - zj) / (1.0 - np.conj(zj) * z)
        return out if out.shape else complex(out)

    def derivative(self, z):
        """``theta'(z) = theta(z) * sum_j (1 - |z_j|^2) / ((z - z_j)(1 - conj(z_j) z))``,
        away from the zeros.  On the circle every term has the phase ``1/z``,
        so ``|theta'|`` there is a sum of positive terms, free of cancellation."""
        z = np.asarray(z, dtype=complex)
        a, zc = self.zeros, z[..., None]
        terms = (1.0 - np.abs(a) ** 2) / ((zc - a) * (1.0 - np.conj(a) * zc))
        out = self(z) * terms.sum(axis=-1)
        return out if out.shape else complex(out)


def clark_measure(theta: BlaschkeProduct) -> AtomicMeasure:
    """Circle probability measure of an inner function vanishing at the origin.

    With one origin zero first and ``r_j = sqrt(1 - |a_j|^2)``, the
    compressed shift of theta in the Takenaka-Malmquist basis of its zeros
    is the upper triangular ``T`` with diagonal ``a`` and ``T_jk = r_j r_k
    prod_{j<l<k} (-conj a_l)`` above it.  ``T e_0 = 0``, ``I - T*T = e_0
    e_0*`` and ``I - T T* = x x*`` with ``x_j = r_j prod_{l>j} (-conj a_l)``,
    so ``U = T + conj(c) x e_0*`` is unitary with ``det U = (-1)^{m+1}
    conj(c)``, the product of the solutions of theta = 1 (Clark 1972).  The
    atoms are its eigenvalues, in ``np.sort`` order; the weights are
    ``1/|theta'|`` there, the exact Clark weights when theta(0) = 0.
    """
    if not theta.vanishes_at_origin:
        raise ThetaAtOriginNonzeroError("theta(0) != 0: no zero at the origin")
    a = theta.zeros
    a = np.concatenate(([0j], np.delete(a, np.argmin(np.abs(a)))))
    m = len(a)
    r = np.sqrt(1.0 - np.abs(a) ** 2)
    # row j, column k - 1 holds r_j r_k prod_{j<l<k} (-conj a_l) for k = 1..m
    # with r_m = 1: T above its diagonal, then x; one roll moves x to column 0
    above = np.where(np.arange(m)[:, None] < np.arange(m), -np.conj(a), 1.0)
    U = np.triu(np.cumprod(above, axis=1) * np.outer(r, np.append(r[1:], 1.0)))
    U = np.roll(U, 1, axis=1) + np.diag(a)
    U[:, 0] *= np.conj(theta.constant)
    roots = np.sort(np.linalg.eigvals(U))
    off = np.abs(np.abs(roots) - 1.0)
    if np.any(off > ROOT_CIRCLE_TOL):
        raise RootOffCircleError(
            f"solution of theta = 1 lies {off.max():.3e} off the circle")
    roots = roots / np.abs(roots)
    weights = 1.0 / np.abs(theta.derivative(roots))
    return AtomicMeasure(points=roots, weights=weights)


def inner_from_measure(rho: AtomicMeasure) -> BlaschkeProduct:
    """Invert the integral identity: theta = (F - 1)/(F + 1).

    theta(z) = 0 where F(z) = 1, that is at z = 0 and where ``sum_j w_j /
    (xi_j - z) = 0``: the eigenvalues of ``diag(xi)`` compressed to the
    complement of ``sqrt(w)``, read in the measure's frame (the phase block
    of the operator bundle).  Comparing leading coefficients gives the
    constant ``c = (-1)^{m-1} prod_j conj(xi_j)``.
    """
    xi = rho.points
    H = _measure_frame(rho.weights)[1:]
    zeros = np.sort(np.concatenate(([0j], np.linalg.eigvals((H * xi) @ H.T))))
    zeros = np.where(np.abs(zeros) <= 1e-8, 0.0, zeros)
    c = (-1) ** (len(xi) - 1) * np.prod(np.conj(xi))
    # + 0j turns a signed zero part into +0.0, which the sign flip can leave
    return BlaschkeProduct(zeros=zeros, constant=c / abs(c) + 0j)


def reflect_measure(rho: AtomicMeasure) -> AtomicMeasure:
    """Pull the measure back through the circle conjugation; involutive."""
    return AtomicMeasure(points=np.conj(rho.points), weights=rho.weights)


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
