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

from .operator_assembly import OperatorBundle, level_projections

# Cut on a level's Krylov singular values, relative to the largest: below it
# a value is roundoff of the walk, not a direction.  On 300 generated bundles
# (cyclic n = 1..16, multiplicity n = 1..4 with up to 5 atoms per level,
# dim <= 26) and one with a zero-weight atom, the smallest kept value read
# 0.51 and the largest dropped one 2.7e-14 (7.7e-16 at the zero-weight
# atom): 5e9 and 3.8e3 times away from the cut.  A kept value scales as the
# square root of the smallest atom weight times the atoms' separation; an
# atom just above _phase_block's 1e-14 weight floor reads 2.7e-8 at 0.1 rad
# from its neighbour.  tests/test_stability.py re-measures the margins.
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


def _krylov_ranks(op: np.ndarray, vecs: np.ndarray, spans: list) -> list:
    """Numerical rank of span{op^m v : |m| <= s} for each column v of
    ``vecs`` with its span s, spans non-increasing (op unitary on its range).

    One walk serves every column: each power takes one product with ``op``
    and one with ``op*``, over the leading columns whose span reaches it.
    The Krylov matrices ``[v, op v, ..., op^s v, op* v, ..., (op*)^s v]`` of
    the columns of one span take one batched SVD.
    """
    adj = op.conj().T
    fwd, bwd = [vecs], [vecs]
    for m in range(1, spans[0] + 1):
        live = sum(s >= m for s in spans)
        fwd.append(op @ fwd[-1][:, :live])
        bwd.append(adj @ bwd[-1][:, :live])
    ranks = []
    for s in sorted(set(spans), reverse=True):
        at = slice(len(ranks), len(ranks) + spans.count(s))
        mats = np.stack([X[:, at] for X in fwd[:s + 1] + bwd[1:s + 1]], axis=-1)
        svals = np.linalg.svd(mats.transpose(1, 0, 2), compute_uv=False)
        # a zero Krylov matrix has no value above its cut, so rank 0
        ranks += np.sum(svals > KRYLOV_RANK_RTOL * svals[:, :1], axis=1).tolist()
    return ranks


def cnu_certificate(b: OperatorBundle) -> tuple:
    """Per-level *-cyclicity of (phi, p_k) and (phi1, p1_k).

    Full Krylov rank on every eigenspace certifies that the stability
    contraction has no unitary reducing part; a zero atom weight drops the
    rank at exactly that level.  The lambda levels take one batched pass
    under phi and the mu levels one under phi1 (:func:`_krylov_ranks`).
    """
    lay = b.layout
    p_ks, p1_ks = level_projections(b)
    levels = range(lay.n_levels)
    # phi1 vanishes on ker R1 at a terminal zero; nothing to certify there
    mu_levels = [k for k in levels if lay.mu[k] != 0.0]
    out = []
    for kind, op, at, vecs, dim_of in (
            ("lambda", b.phi, levels, p_ks, lay.lam_dim),
            ("mu", b.phi1, mu_levels, p1_ks, lay.mu_eigdim)):
        if not at:
            continue
        at = sorted(at, key=dim_of, reverse=True)  # stable: equal spans keep level order
        spans = [dim_of(k) for k in at]
        ranks = _krylov_ranks(op, np.array([vecs[k] for k in at]).T, spans)
        out += sorted((CnuLevel(kind=kind, index=k, space_dim=d, krylov_rank=r)
                       for k, d, r in zip(at, spans, ranks)), key=lambda lv: lv.index)
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
