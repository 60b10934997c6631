"""Full-pipeline round trips: data -> Hankel truncation -> recovered data.

Shared by the CLI batch runner and the acceptance suite so both report the
same error metrics: relative errors on the level values, relative errors of
the measured level weights against the closed forms of the generating
spectrum, and absolute differences of phases / measure atoms after
canonical ordering.  The reference is the generating data alone.
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
from .operator_assembly import assemble
from .spectral_data import AtomicMeasure, CompactSpectralData, borg_weights, mu_weights


def atoms_difference(a: AtomicMeasure, b: AtomicMeasure) -> float:
    """Max atom-wise discrepancy of two measures, the smallest over the
    cyclic alignments of their angle-sorted atoms; inf on size mismatch.

    An atom at angle 0 can come back at angle -1e-16 and sort last, so the
    pairing of the sorted lists is taken up to a rotation of one of them.
    """
    m = len(a.points)
    if len(b.points) != m:
        return float("inf")
    ia = np.argsort(np.mod(np.angle(a.points), 2.0 * np.pi))
    ib = np.argsort(np.mod(np.angle(b.points), 2.0 * np.pi))
    shifts = ib[(np.arange(m)[:, None] + np.arange(m)) % m]   # row s: ib rotated by s
    dz = a.points[ia] - b.points[shifts]
    # np.hypot rounds as Python's complex abs does; np.abs can differ by an ulp
    gaps = np.maximum(np.hypot(dz.real, dz.imag).max(axis=1),
                      np.abs(a.weights[ia] - b.weights[shifts]).max(axis=1))
    return float(gaps.min())


def roundtrip_errors(d: CompactSpectralData, recovered: ForwardData) -> dict:
    """Error metrics of a recovery against the generating data.

    The measured level weights compare with the closed forms of the
    generating spectrum, :func:`~.spectral_data.borg_weights` and
    :func:`~.spectral_data.mu_weights`.  Every level's measure compares
    atom-wise by :func:`atoms_difference`.
    """
    s, got = d.spectrum, recovered.data
    if got.spectrum.n != s.n:
        return {"lam": float("inf"), "mu": float("inf"),
                "weights": float("inf"), "phases": float("inf")}
    mu_den = np.where(s.mu > 0, s.mu, s.lam[0])
    lam_err = float(np.max(np.abs(got.spectrum.lam - s.lam) / s.lam))
    mu_err = float(np.max(np.abs(got.spectrum.mu - s.mu) / mu_den))
    w, w1 = borg_weights(s), mu_weights(s)
    w_err = float(np.max(np.abs(recovered.w - w) / w))
    w1_err = float(np.max(np.abs(recovered.w1 - w1) / w1))
    phase_err = 0.0
    for expected, m in zip(d.rho + d.rho1, got.rho + got.rho1):
        if expected is None or m is None:
            if (expected is None) != (m is None):
                phase_err = float("inf")
            continue
        phase_err = max(phase_err, atoms_difference(m, expected))
    return {"lam": lam_err, "mu": mu_err,
            "weights": max(w_err, w1_err), "phases": phase_err}


def run_roundtrip_trial(d: CompactSpectralData, truncation: int | str = "auto",
                        tail_tol: float = TAIL_TOL, cluster_gap: float = CLUSTER_GAP) -> dict:
    """Synthesize, extract, and report the error metrics for one instance."""
    h = hankel_from_bundle(assemble(d), N=truncation, tail_tol=tail_tol)
    errors = roundtrip_errors(d, forward_extract(h, cluster_gap=cluster_gap))
    errors["N"] = h.N
    return errors
