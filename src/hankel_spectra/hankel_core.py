"""Hankel symbols from operator bundles, truncated matrices, and the forward problem.

The inverse direction generates the symbol ``gamma_k = <q, (Sigma*)^k p>`` by
iterating the contraction and certifies the truncation through the geometric
decay of ``(Sigma*)^k p``.  The forward direction finds the leading singular
subspaces of the truncation Gamma and of Gamma S with a randomized range
finder that applies both by FFT from the symbol, clusters the singular values
into levels, and recovers weights and per-level phases (or circle measures)
from the action of the conjugated operator on the level eigenspaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import (
    ClusterAmbiguityError,
    DegenerateSpectrumError,
    InternalConsistencyError,
    NotHankelError,
    TruncationTooSmallError,
)
from .operator_assembly import OperatorBundle, assemble
from .spectral_data import (
    AtomicMeasure,
    CompactSpectralData,
    validate_intertwining,
)

GAMMA_CROSS_CHECK_TOL = 1e-10
TAIL_TOL = 1e-12
TRUNCATION_CAP = 4096
CLUSTER_GAP = 1e-6         # relative gap separating singular-value levels
CLUSTER_JOIN_FRAC = 0.01   # below join_frac * gap two values count as one level
ZERO_CUT_RTOL = 1e-8       # relative cut below which singular values are kernel
WEIGHT_RTOL = 1e-10        # relative u-mass that marks a level as weighted
ANTIDIAG_RTOL = 1e-8


def _fft_length(n: int) -> int:
    """Smallest 5-smooth integer >= n, a fast length for numpy.fft."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


@dataclass(frozen=True, eq=False)
class HankelMatrix:
    """The N x N truncation (gamma_{j+k}) of a Hankel operator, held as its
    2N - 1 symbol coefficients.

    Gamma, Gamma*, Gamma S and (Gamma S)* act through :meth:`apply` by FFT;
    the dense ``entries`` are derived only on request.
    """

    gamma: np.ndarray
    N: int

    @classmethod
    def from_gamma(cls, gamma, N: int | None = None) -> "HankelMatrix":
        gamma = np.asarray(gamma, dtype=complex)
        if N is None:
            if len(gamma) % 2 == 0:
                gamma = np.concatenate([gamma, [0j]])
            N = (len(gamma) + 1) // 2
        if len(gamma) < 2 * N - 1:
            gamma = np.concatenate([gamma, np.zeros(2 * N - 1 - len(gamma), dtype=complex)])
        gamma = gamma[: 2 * N - 1].copy()
        gamma.setflags(write=False)
        return cls(gamma=gamma, N=N)

    @classmethod
    def from_entries(cls, matrix, rtol: float = ANTIDIAG_RTOL) -> "HankelMatrix":
        """Ingest an external matrix, checking anti-diagonal constancy."""
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] == 0:
            raise NotHankelError("expected a nonempty square matrix")
        N = matrix.shape[0]
        scale = max(float(np.abs(matrix).max()), 1e-300)
        gamma = np.zeros(2 * N - 1, dtype=complex)
        counts = np.zeros(2 * N - 1)
        j = np.arange(N)
        idx = j[:, None] + j[None, :]
        np.add.at(gamma, idx.ravel(), matrix.ravel())
        np.add.at(counts, idx.ravel(), 1.0)
        gamma /= counts
        residual = float(np.abs(matrix - gamma[idx]).max())
        if residual > rtol * scale:
            raise NotHankelError(
                f"anti-diagonal residual {residual:.3e} exceeds {rtol:.1e} * scale")
        return cls.from_gamma(gamma, N)

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix (gamma_{j+k}), built anew on each access."""
        j = np.arange(self.N)
        return self.gamma[j[:, None] + j[None, :]]

    def shifted(self) -> np.ndarray:
        """The dense truncation of Gamma S: columns shifted left, zero last column."""
        out = np.zeros((self.N, self.N), dtype=complex)
        out[:, :-1] = self.entries[:, 1:]
        return out

    @cached_property
    def _gamma_hat(self) -> np.ndarray:
        return np.fft.fft(self.gamma, _fft_length(2 * self.N - 1))

    def apply(self, x, shifted: bool = False, adjoint: bool = False) -> np.ndarray:
        """Gamma x, Gamma* x, (Gamma S) x or (Gamma S)* x for a vector or an
        N x k block, in O(N log N) time per column.

        (Gamma x)_j = sum_k gamma_{j+k} x_k is entry N - 1 + j of the linear
        convolution of gamma with x reversed, which a circular convolution of
        length >= 2N - 1 holds without wrap-around.  Gamma S is Gamma applied
        to the down-shifted input, whose reversal is x_0..x_{N-2} reversed.
        Gamma is complex symmetric, so Gamma* x = conj(Gamma conj x), and
        (Gamma S)* = S* Gamma* drops the first entry of Gamma* x.  A block is
        transformed column by column, each column laid out as a contiguous row.
        """
        x = np.asarray(x, dtype=complex).T
        N = self.N
        if shifted and not adjoint:
            x = x[..., : N - 1]
        spec = self._gamma_hat
        rows = np.zeros(x.shape[:-1] + spec.shape, dtype=complex)
        rows[..., : x.shape[-1]] = x[..., ::-1]
        if adjoint:
            np.conj(rows, out=rows)
        rows = np.fft.fft(rows, axis=-1)
        rows *= spec
        y = np.fft.ifft(rows, axis=-1)[..., N - 1: 2 * N - 1]
        if adjoint:
            y = y.conj()
            if shifted:
                y = np.concatenate([y[..., 1:], np.zeros_like(y[..., :1])], axis=-1)
        return y.T

    def singular_values(self) -> np.ndarray:
        """All N singular values, descending: those above ZERO_CUT_RTOL * sigma_1
        as the range finder captures them, then exact zeros."""
        svals, _, _ = _top_singular_triplets(self, shifted=False, zero_rtol=ZERO_CUT_RTOL)
        return np.concatenate([svals, np.zeros(self.N - len(svals))])


def gamma_sequence(b: OperatorBundle, K: int) -> np.ndarray:
    """Symbol coefficients gamma_0..gamma_K via iterated application of Sigma*.

    Cross-checked against the conjugated form <(Sigma-hat*)^k p, q-hat>, which
    must agree to GAMMA_CROSS_CHECK_TOL on any valid bundle.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    gamma = np.empty(K + 1, dtype=complex)
    other = np.empty(K + 1, dtype=complex)
    x = b.p.astype(complex)
    y = b.p.astype(complex)
    for k in range(K + 1):
        gamma[k] = np.vdot(x, b.q)       # <q, (Sigma*)^k p>
        other[k] = np.vdot(b.qhat, y)    # <(Sigma-hat*)^k p, q-hat>
        if k < K:
            x = b.sigma_star @ x
            y = b.sigma_hat_star @ y
    drift = float(np.abs(gamma - other).max())
    if drift > GAMMA_CROSS_CHECK_TOL * max(1.0, float(np.abs(gamma).max())):
        raise InternalConsistencyError(
            f"the two symbol formulas disagree by {drift:.3e}")
    return gamma


def certified_truncation(b: OperatorBundle, tail_tol: float = TAIL_TOL,
                         cap: int = TRUNCATION_CAP) -> int:
    """Smallest N with ||(Sigma*)^N p|| <= tail_tol (geometric decay)."""
    x = b.p.astype(complex)
    floor = b.dim + 2
    for k in range(1, cap + 1):
        x = b.sigma_star @ x
        if float(np.linalg.norm(x)) <= tail_tol and k >= floor:
            return k
    raise TruncationTooSmallError(
        f"tail bound {tail_tol:.1e} not reached within {cap} steps")


def hankel_from_bundle(b: OperatorBundle, N: int | str = "auto",
                       tail_tol: float = TAIL_TOL, certified: bool = True) -> HankelMatrix:
    if N == "auto":
        N = certified_truncation(b, tail_tol)
    else:
        N = int(N)
        if N < 1:
            raise TruncationTooSmallError("N must be at least 1")
        if certified:
            x = b.p.astype(complex)
            for _ in range(N):
                x = b.sigma_star @ x
            tail = float(np.linalg.norm(x))
            if tail > tail_tol:
                raise TruncationTooSmallError(
                    f"||(Sigma*)^{N} p|| = {tail:.3e} exceeds {tail_tol:.1e}")
    gamma = gamma_sequence(b, 2 * N - 2)
    return HankelMatrix.from_gamma(gamma, N)


def hankel_from_data(d: CompactSpectralData, N: int | str = "auto",
                     tail_tol: float = TAIL_TOL, certified: bool = True) -> HankelMatrix:
    """Assemble the bundle for ``d`` and emit its truncated Hankel matrix."""
    return hankel_from_bundle(assemble(d), N=N, tail_tol=tail_tol, certified=certified)


def rank_one_identity_residual(h: HankelMatrix) -> float:
    """|| Gamma*Gamma - (Gamma S)*(Gamma S) - u u* ||_F with u = Gamma* e_0."""
    G = h.entries
    GS = h.shifted()
    u = np.conj(G[0])
    res = G.conj().T @ G - GS.conj().T @ GS - np.outer(u, u.conj())
    return float(np.linalg.norm(res))


@dataclass(frozen=True)
class KernelReport:
    sigma_min: float
    numerical_rank: int
    N: int
    n: int
    nontrivial_kernel: bool


def kernel_diagnostics(h: HankelMatrix, n: int) -> KernelReport:
    """Smallest singular value of the truncation (0 below the zero cut); a
    rank-n symbol truncated at N >= n + 2 always leaves a nontrivial kernel."""
    if h.N < n + 2:
        raise TruncationTooSmallError(f"need N >= n + 2 = {n + 2}, got {h.N}")
    svals = h.singular_values()
    smax = float(svals[0])
    rank = int(np.count_nonzero(svals))
    sigma_min = float(svals[-1])
    return KernelReport(sigma_min=sigma_min, numerical_rank=rank, N=h.N, n=n,
                        nontrivial_kernel=sigma_min <= 1e-8 * max(smax, 1.0))


def _cluster_levels(svals_desc: np.ndarray, smax: float, gap: float):
    """Group nearly equal singular values; indices refer to the input order.

    Adjacent values are one level when closer than join_frac * gap * smax and
    distinct levels when farther than gap * smax; anything in between is
    ambiguous and refuses to guess.
    """
    clusters = []
    current = [0]
    for i in range(1, len(svals_desc)):
        d = svals_desc[i - 1] - svals_desc[i]
        if d <= CLUSTER_JOIN_FRAC * gap * smax:
            current.append(i)
        elif d > gap * smax:
            clusters.append(current)
            current = [i]
        else:
            raise ClusterAmbiguityError(
                f"singular value gap {d:.3e} sits inside the ambiguity band "
                f"({CLUSTER_JOIN_FRAC * gap * smax:.3e}, {gap * smax:.3e}]")
    clusters.append(current)
    return clusters


def _top_singular_triplets(h: HankelMatrix, shifted: bool, zero_rtol: float,
                           smax_ref: float = 0.0, seed: int = 17):
    """Singular values of A = Gamma (or Gamma S when ``shifted``) above the
    zero cut, their right vectors, and A's top singular value.

    A seeded randomized range finder (Halko-Martinsson-Tropp) with two power
    iterations, driven through :meth:`HankelMatrix.apply`.  The cut is
    ``zero_rtol * max(smax, smax_ref)``: an FFT product leaves roundoff of
    order eps * ||gamma|| where the exact product vanishes, so an operator
    whose own top value is such roundoff must be cut against a reference
    scale, and then has no values above the cut.  Certified truncations have
    a many-decade spectral gap at the rank cut, so the subspace is captured
    to machine precision; capture is verified (last sketched value below the
    cut, or a full-width sketch) and the sketch width doubles until it holds.
    """
    N = h.N
    rng = np.random.default_rng(seed)
    k = 24
    while True:
        width = min(N, k + 8)
        omega = rng.standard_normal((N, width)) + 1j * rng.standard_normal((N, width))
        Y, _ = np.linalg.qr(h.apply(omega, shifted))
        for _ in range(2):
            Y, _ = np.linalg.qr(h.apply(Y, shifted, adjoint=True))
            Y, _ = np.linalg.qr(h.apply(Y, shifted))
        B = h.apply(Y, shifted, adjoint=True).conj().T      # Y* A
        _, svals, vh = np.linalg.svd(B, full_matrices=False)
        smax = float(svals.max(initial=0.0))
        cut = zero_rtol * max(smax, smax_ref)
        if svals[-1] <= cut or width == N:
            keep = int(np.sum(svals > cut))
            return svals[:keep], vh[:keep].conj().T, smax
        k *= 2


def _level_decomposition(h: HankelMatrix, shifted: bool, u: np.ndarray, gap: float,
                         zero_rtol: float, weight_rtol: float, smax_ref: float = 0.0):
    """Split the singular spectrum of Gamma (or Gamma S) into levels.

    Diagonalizes A*A through the singular value decomposition of A (the
    direct decomposition keeps small singular values at full absolute
    accuracy, which the Gram matrix would floor at sqrt(eps) * smax).
    Returns (levels, kernel_u_mass, smax) where each level is a dict with
    the singular value, an orthonormal eigenspace basis of A*A, the
    u-projection weight, and the projection of u when it is nonzero; the
    kernel u-mass is what remains of ||u||^2 below the rank cut, taken
    against ``max(smax, smax_ref)``.
    """
    svals_desc, vecs, smax = _top_singular_triplets(h, shifted, zero_rtol, smax_ref)
    smax = max(smax, smax_ref)
    if smax <= 0:
        raise DegenerateSpectrumError("zero matrix has no spectral levels")
    n_above = len(svals_desc)
    u_mass = float(np.vdot(u, u).real)
    levels = []
    mass_above = 0.0
    if n_above:
        for cluster in _cluster_levels(svals_desc, smax, gap):
            basis = vecs[:, cluster]
            coords = basis.conj().T @ u
            w = float(np.linalg.norm(coords) ** 2)
            mass_above += w
            value = float(np.mean(svals_desc[cluster]))
            spread = float(svals_desc[cluster[0]] - svals_desc[cluster[-1]])
            weighted = w > weight_rtol * max(u_mass, 1e-300)
            uk = basis @ coords if weighted else None
            levels.append({
                "value": value, "basis": basis, "weight": w, "spread": spread,
                "weighted": weighted, "u_proj": uk,
            })
    kernel_u = max(u_mass - mass_above, 0.0)
    return levels, kernel_u, smax


def _orthogonal_complement_in_level(basis: np.ndarray, u_proj: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the level eigenspace minus the u direction."""
    coords = basis.conj().T @ (u_proj / np.linalg.norm(u_proj))
    comp = scipy.linalg.null_space(coords.conj()[None, :])
    return basis @ comp


def _unitary_spectral_measure(U: np.ndarray, residuals: dict) -> AtomicMeasure:
    """Spectral measure of a small unitary matrix w.r.t. the first basis vector.

    Uses the complex Schur form, which for a (numerically) normal matrix is an
    orthonormal eigendecomposition even with close eigenvalues.
    """
    d = U.shape[0]
    residuals["phase_unitarity"] = max(
        residuals.get("phase_unitarity", 0.0),
        float(np.linalg.norm(U.conj().T @ U - np.eye(d))))
    T, Z = scipy.linalg.schur(U, output="complex")
    atoms = np.diag(T).copy()
    residuals["atom_modulus"] = max(
        residuals.get("atom_modulus", 0.0),
        float(np.abs(np.abs(atoms) - 1.0).max()))
    atoms /= np.abs(atoms)
    weights = np.abs(Z[0, :]) ** 2
    keep = weights > 1e-12
    atoms, weights = atoms[keep], weights[keep]
    weights = weights / weights.sum()
    return AtomicMeasure(points=atoms, weights=weights, circle=True, probability=True)


def krylov_real_basis(apply_op, u: np.ndarray, max_dim: int,
                      drop_tol: float = 1e-8, ortho_tol: float = 1e-8):
    """Orthonormalize the Krylov vectors of (|Gamma|, u) with real coefficients.

    In exact arithmetic the Gram matrix of {|Gamma|^m u} is real, so modified
    Gram-Schmidt with real projection coefficients produces a basis in which
    the canonical conjugation acts as entrywise conjugation.  If orthogonality
    degrades past ``ortho_tol`` the build restarts with column pivoting.

    Returns (basis matrix, orthogonality residual, max imaginary leak).
    """
    vectors = [np.asarray(u, dtype=complex)]
    for _ in range(max_dim - 1):
        vectors.append(apply_op(vectors[-1]))
    norm_u = float(np.linalg.norm(u))

    def mgs(order):
        basis = []
        imag_leak = 0.0
        for i in order:
            v = vectors[i].copy()
            for b in basis:
                c = np.vdot(b, v)
                imag_leak = max(imag_leak, abs(c.imag) / max(norm_u, 1e-300))
                v -= c.real * b
            nrm = float(np.linalg.norm(v))
            if nrm > drop_tol * norm_u:
                basis.append(v / nrm)
        return basis, imag_leak

    basis, imag_leak = mgs(range(len(vectors)))
    B = np.column_stack(basis) if basis else np.zeros((len(u), 0), dtype=complex)
    ortho = float(np.linalg.norm(B.conj().T @ B - np.eye(B.shape[1])))
    if ortho > ortho_tol:
        # pivoted restart: greedily take the vector with the largest residual
        remaining = list(range(len(vectors)))
        basis = []
        imag_leak = 0.0
        while remaining:
            residual_norms = []
            residual_vecs = []
            for i in remaining:
                v = vectors[i].copy()
                for b in basis:
                    c = np.vdot(b, v)
                    imag_leak = max(imag_leak, abs(c.imag) / max(norm_u, 1e-300))
                    v -= c.real * b
                residual_vecs.append(v)
                residual_norms.append(float(np.linalg.norm(v)))
            j = int(np.argmax(residual_norms))
            if residual_norms[j] <= drop_tol * norm_u:
                break
            basis.append(residual_vecs[j] / residual_norms[j])
            remaining.pop(j)
        B = np.column_stack(basis) if basis else np.zeros((len(u), 0), dtype=complex)
        ortho = float(np.linalg.norm(B.conj().T @ B - np.eye(B.shape[1])))
    return B, ortho, imag_leak


@dataclass(frozen=True, eq=False)
class ForwardData:
    """Spectral data recovered from a truncated Hankel matrix.

    ``xi[k]`` is a unimodular scalar for a simple level and a circle
    probability measure otherwise; ``eta`` mirrors this for the mu levels and
    is ``None`` at a terminal mu = 0.
    """

    lam: np.ndarray
    mu: np.ndarray
    w: np.ndarray
    w1: np.ndarray
    xi: tuple
    eta: tuple
    mode: str
    residuals: dict = field(default_factory=dict)
    flags: tuple = ()

    def to_spectral_data(self) -> CompactSpectralData:
        spectrum = validate_intertwining(self.lam, self.mu)
        if self.mode == "cyclic":
            eta = [e if e is not None else 0j for e in self.eta]
            return CompactSpectralData.cyclic(spectrum, self.xi, eta)
        to_measure = lambda v: v if isinstance(v, AtomicMeasure) else AtomicMeasure(
            points=[complex(v)], weights=[1.0], circle=True, probability=True)
        rho = [to_measure(v) for v in self.xi]
        rho1 = [None if v is None else to_measure(v) for v in self.eta]
        return CompactSpectralData.multiplicity(spectrum, rho, rho1)


def forward_extract(h: HankelMatrix, rank_hint: int | None = None,
                    cluster_gap: float = CLUSTER_GAP,
                    zero_rtol: float = ZERO_CUT_RTOL,
                    weight_rtol: float = WEIGHT_RTOL) -> ForwardData:
    """Recover spectral data from a truncated Hankel matrix.

    Levels of |Gamma| carrying u-mass are the lambda levels (weights w_k);
    levels of |Gamma S| carrying u-mass are the mu levels.  Phases come from
    the polar factor: on a level eigenspace the map x -> conj(Gamma x)/s acts
    as the phase times the conjugation, and the conjugation is known there --
    it fixes the normalized u-projection and acts by s^{-1} conj(Gamma S .)
    on the rest of a lambda eigenspace (where the second polar factor is the
    identity), symmetrically for mu levels.
    """
    u = np.conj(h.gamma[: h.N])     # Gamma* e_0
    residuals: dict = {}
    flags: list[str] = []

    levels, _, smax = _level_decomposition(
        h, False, u, cluster_gap, zero_rtol, weight_rtol)                # Gamma
    levels1, kernel_u, _ = _level_decomposition(
        h, True, u, cluster_gap, zero_rtol, weight_rtol, smax_ref=smax)  # Gamma S

    lam_levels = [lv for lv in levels if lv["weighted"]]
    mu_levels = [lv for lv in levels1 if lv["weighted"]]
    if rank_hint is not None and len(lam_levels) != rank_hint:
        raise ClusterAmbiguityError(
            f"found {len(lam_levels)} weighted levels, rank hint was {rank_hint}")
    n = len(lam_levels)
    if n == 0:
        raise DegenerateSpectrumError("no weighted singular-value level found")
    u_mass = float(np.vdot(u, u).real)

    if len(mu_levels) == n - 1:
        if kernel_u <= weight_rtol * u_mass:
            raise ClusterAmbiguityError(
                "mu-level count says terminal zero but the kernel carries no u-mass")
        terminal_zero = True
    elif len(mu_levels) == n:
        if kernel_u > np.sqrt(weight_rtol) * u_mass:
            raise ClusterAmbiguityError(
                "kernel carries u-mass but all mu levels are positive")
        terminal_zero = False
    else:
        raise ClusterAmbiguityError(
            f"{len(mu_levels)} mu levels cannot interlace {n} lambda levels")

    lam = np.array([lv["value"] for lv in lam_levels])
    mu_pos = np.array([lv["value"] for lv in mu_levels])
    mu = np.concatenate([mu_pos, [0.0]]) if terminal_zero else mu_pos
    validate_intertwining(lam, mu)  # raises if the recovered levels are inconsistent
    w = np.array([lv["weight"] for lv in lam_levels])
    w1 = np.array([lv["weight"] for lv in mu_levels] + ([kernel_u] if terminal_zero else []))
    residuals["cluster_spread"] = max(
        [lv["spread"] for lv in levels + levels1] or [0.0]) / smax

    def phase_of(level, shifted):
        """Scalar phase or circle measure of the polar factor of Gamma
        (Gamma S when ``shifted``) on one level."""
        s = level["value"]
        uk = level["u_proj"]
        uhat = uk / np.linalg.norm(uk)
        if level["basis"].shape[1] == 1:
            val = complex(np.vdot(uhat, np.conj(h.apply(uhat, shifted)) / s))
            residuals["phase_modulus"] = max(
                residuals.get("phase_modulus", 0.0), abs(abs(val) - 1.0))
            return val / abs(val)
        Y = _orthogonal_complement_in_level(level["basis"], uk)
        JY = np.conj(h.apply(Y, not shifted)) / s
        W = np.column_stack([uhat, Y])
        JW = np.column_stack([uhat, JY])
        U = W.conj().T @ (np.conj(h.apply(JW, shifted)) / s)
        return _unitary_spectral_measure(U, residuals)

    xi = tuple(phase_of(lv, False) for lv in lam_levels)
    eta = tuple(phase_of(lv, True) for lv in mu_levels) + ((None,) if terminal_zero else ())

    # Krylov-real diagnostic: u must be numerically cyclic on the weighted
    # levels, i.e. the real-orthogonalized span of {|Gamma|^m u} has one
    # dimension per lambda level.  |Gamma| is applied through the captured
    # level decomposition (u has no mass below the rank cut).
    def apply_abs(x):
        out = np.zeros_like(x)
        for lv in levels:
            out += lv["value"] * (lv["basis"] @ (lv["basis"].conj().T @ x))
        return out

    B, ortho, imag_leak = krylov_real_basis(apply_abs, u, max_dim=n + 2)
    residuals["krylov_orthogonality"] = ortho
    residuals["krylov_imag_leak"] = imag_leak
    if B.shape[1] != n:
        flags.append("RankDeficientH0")
    mode = "cyclic" if all(not isinstance(v, AtomicMeasure) for v in xi) and all(
        e is None or not isinstance(e, AtomicMeasure) for e in eta) else "multiplicity"
    return ForwardData(lam=lam, mu=mu, w=w, w1=w1, xi=xi, eta=eta, mode=mode,
                       residuals=residuals, flags=tuple(flags))
