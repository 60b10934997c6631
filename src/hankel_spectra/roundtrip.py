"""Full-pipeline round trips: data -> Hankel truncation -> recovered data.

Shared by the CLI batch runner and the acceptance suite so both report the
same error metrics: relative errors on the level values, relative errors on
the weights, and absolute differences of phases / measure atoms after
canonical ordering.
"""

from __future__ import annotations

import numpy as np

from .hankel_core import (
    CLUSTER_GAP,
    TAIL_TOL,
    ForwardData,
    forward_extract,
    hankel_from_bundle,
)
from .operator_assembly import assemble, level_projections
from .spectral_data import AtomicMeasure, CompactSpectralData


def _atoms(v):
    """A recovered level's phase data as ``(points, weights)``: a unimodular
    scalar is a point mass."""
    if isinstance(v, AtomicMeasure):
        return v.points, v.weights
    return np.array([complex(v)]), np.ones(1)


def atoms_difference(a, b) -> float:
    """Max atom-wise discrepancy of two ``(points, weights)`` levels after
    sorting the atoms by angle; inf on size mismatch."""
    if len(a[0]) != len(b[0]):
        return float("inf")
    ia = np.argsort(np.mod(np.angle(a[0]), 2.0 * np.pi))
    ib = np.argsort(np.mod(np.angle(b[0]), 2.0 * np.pi))
    dz = a[0][ia] - b[0][ib]
    # np.hypot rounds as Python's complex abs does; np.abs can differ by an ulp
    return max(float(np.hypot(dz.real, dz.imag).max()),
               float(np.abs(a[1][ia] - b[1][ib]).max()))


def roundtrip_errors(d: CompactSpectralData, recovered: ForwardData,
                     w: np.ndarray, w1: np.ndarray) -> dict:
    """Error metrics of a recovery against the generating data.

    ``w``/``w1`` are the reference level weights of the generating bundle.
    Every level's phase data compares atom-wise after sorting by angle, a
    unimodular phase as a point mass.
    """
    s = d.spectrum
    scale = float(s.lam[0])
    if len(recovered.lam) != s.n or len(recovered.mu) != s.n:
        return {"lam": float("inf"), "mu": float("inf"),
                "weights": float("inf"), "phases": float("inf")}
    lam_err = float(np.max(np.abs(recovered.lam - s.lam) / s.lam))
    mu_den = np.where(s.mu > 0, s.mu, scale)
    mu_err = float(np.max(np.abs(recovered.mu - s.mu) / mu_den))
    w_err = float(np.max(np.abs(recovered.w - w) / w))
    w1_err = float(np.max(np.abs(recovered.w1 - w1) / w1))
    rho, rho1 = d.level_atoms()
    phase_err = 0.0
    for expected, got in zip(rho + rho1, (*recovered.xi, *recovered.eta)):
        if expected is None or got is None:
            if (expected is None) != (got is None):
                phase_err = float("inf")
            continue
        phase_err = max(phase_err, atoms_difference(_atoms(got), expected))
    return {"lam": lam_err, "mu": mu_err,
            "weights": max(w_err, w1_err), "phases": phase_err}


def run_roundtrip_trial(d: CompactSpectralData, truncation: int | str = "auto",
                        tail_tol: float = TAIL_TOL, cluster_gap: float = CLUSTER_GAP) -> dict:
    """Synthesize, extract, and report the error metrics for one instance."""
    bundle = assemble(d)
    h = hankel_from_bundle(bundle, N=truncation, tail_tol=tail_tol)
    recovered = forward_extract(h, cluster_gap=cluster_gap)
    _, p1s = level_projections(bundle)
    w = np.array([float(np.linalg.norm(bundle.p[list(block)]) ** 2)
                  for block in bundle.layout.lam_blocks])
    w1 = np.array([float(np.linalg.norm(v) ** 2) for v in p1s])
    errors = roundtrip_errors(d, recovered, w, w1)
    errors["N"] = h.N
    return errors
