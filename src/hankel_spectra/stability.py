"""Stability diagnostics for assembled bundles.

In finite dimensions asymptotic stability of the contraction Sigma* is just
spectral radius < 1, and the intertwining ``Sigma* R^{1/2} = R^{1/2} A`` is a
consistency identity rather than a proof device (R^{1/2} is invertible here).
The complete-non-unitarity certificate checks per level that the projected
vector is *-cyclic for the phase operator, which is what rules out a unitary
reducing part of A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operator_assembly import OperatorBundle, level_projections, orbit

KRYLOV_RANK_RTOL = 1e-10
# Steps of the decay profile ||(Sigma*)^k p||, k = 0..DECAY_STEPS.
DECAY_STEPS = 200


@dataclass(frozen=True)
class CnuLevel:
    kind: str       # "lambda" or "mu"
    index: int
    space_dim: int
    krylov_rank: int

    @property
    def passed(self) -> bool:
        return self.krylov_rank == self.space_dim


@dataclass(frozen=True, eq=False)
class StabilityReport:
    spectral_radius_sigma: float
    decay_profile: np.ndarray
    intertwine_residual: float
    norm_A: float
    cnu_flags: tuple = field(default_factory=tuple)

    @property
    def cnu_passed(self) -> bool:
        return all(level.passed for level in self.cnu_flags)


def _krylov_rank(op: np.ndarray, vec: np.ndarray, span: int) -> int:
    """Numerical rank of span{op^m vec : |m| <= span} (op unitary on its range)."""
    mat = np.hstack([orbit(op, vec, span + 1), orbit(op.conj().T, vec, span + 1)[:, 1:]])
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals.size == 0 or svals[0] == 0:
        return 0
    return int(np.sum(svals > KRYLOV_RANK_RTOL * svals[0]))


def cnu_certificate(b: OperatorBundle) -> tuple:
    """Per-level *-cyclicity of (phi, p_k) and (phi1, p1_k).

    Full Krylov rank on every eigenspace certifies that the stability
    contraction has no unitary reducing part; a zero atom weight drops the
    rank at exactly that level.
    """
    lay = b.layout
    p_ks, p1_ks = level_projections(b)
    out = []
    for k in range(lay.n_levels):
        d = lay.lam_dim(k)
        rank = _krylov_rank(b.phi, p_ks[k], d)
        out.append(CnuLevel(kind="lambda", index=k, space_dim=d, krylov_rank=rank))
    for k in range(lay.n_levels):
        if lay.mu[k] == 0.0:
            continue  # phi1 vanishes on ker R1; nothing to certify
        d = lay.mu_eigdim(k)
        rank = _krylov_rank(b.phi1, p1_ks[k], d)
        out.append(CnuLevel(kind="mu", index=k, space_dim=d, krylov_rank=rank))
    return tuple(out)


def stability_report(b: OperatorBundle) -> StabilityReport:
    """Spectral radius of Sigma*, decay of ||(Sigma*)^k p||, and the
    intertwining residual ||Sigma* R^{1/2} - R^{1/2} A||."""
    radius = float(np.abs(np.linalg.eigvals(b.sigma_star)).max())
    profile = np.linalg.norm(b.sigma_orbit(DECAY_STEPS + 1), axis=0)
    residual = float(np.linalg.norm(b.sigma_star @ b.r_half - b.r_half @ b.A))
    norm_a = float(np.linalg.norm(b.A, 2))
    return StabilityReport(
        spectral_radius_sigma=radius,
        decay_profile=profile,
        intertwine_residual=residual,
        norm_A=norm_a,
        cnu_flags=cnu_certificate(b),
    )
