"""Hankel symbols from operator bundles, truncated matrices, and the forward problem.

The inverse direction walks one blocked orbit of the contraction Sigma*: the
geometric decay of ``(Sigma*)^k p`` certifies the truncation, and the same
columns give the symbol ``gamma_k = <q, (Sigma*)^k p>``.  The forward
direction captures the truncation as a factor Gamma = Q B with a one-pass
randomized range finder that applies Gamma by FFT from the symbol, reads
Gamma S and the phase products off that factor, classifies the merged
singular values into lambda and mu levels by multiplicity difference, and
recovers weights and per-level circle measures (a point mass on a simple
level) from the action of the conjugated operator on the level eigenspaces.
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
from .operator_assembly import ORBIT_BLOCK, OperatorBundle, assemble, orbit
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
ANTIDIAG_RTOL = 1e-8
RANGE_FINDER_SEED = 17     # fixed sketch seed: reruns give byte-identical outputs
# Columns of the range finder's first draw; each later draw has as many as
# the basis captured before it.  Neighbours were timed on a 2-core machine
# with the one-pass finder (run_roundtrip_trial over 288 trials of 16
# roundtrip_batch-style jobs, median rank 5, median N 377; three passes, two
# runs): 4 took 1.78-2.31 s, 8 1.56-2.16 s, 16 1.92-2.64 s.  All three lie
# within the run-to-run spread; 8 captures the common ranks up to 7 in one
# block, so it stayed.  A full-rank N = 1024 symbol took 2.98-3.26 s at 4,
# 2.96-3.07 s at 8 and 2.85-3.16 s at 16.
SKETCH_BLOCK = 8
# A sketched direction below this fraction of the first product's top value
# is roundoff: three decades under the zero cut and about four over the FFT
# products' noise (1e-15 of the top value at N = 385, 5e-15 at N = 4096).
SKETCH_NOISE_RTOL = 1e-11


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

    Gamma and Gamma* act through :meth:`apply` by FFT; Gamma S acts through
    the factor the range finder captures.  The dense ``entries`` and
    ``shifted()`` are derived only on request.
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

    def apply(self, x, adjoint: bool = False) -> np.ndarray:
        """Gamma x or Gamma* x for a vector or an N x k block, in O(N log N)
        time per column.

        (Gamma x)_j = sum_k gamma_{j+k} x_k is entry N - 1 + j of the linear
        convolution of gamma with x reversed, which a circular convolution of
        length >= 2N - 1 holds without wrap-around.  Gamma is complex
        symmetric, so Gamma* x = conj(Gamma conj x).  A block is transformed
        column by column, each column laid out as a contiguous row.
        """
        x = np.asarray(x, dtype=complex).T
        N = self.N
        spec = self._gamma_hat
        rows = np.zeros(x.shape[:-1] + spec.shape, dtype=complex)
        rows[..., : x.shape[-1]] = x[..., ::-1]
        if adjoint:
            np.conj(rows, out=rows)
        rows = np.fft.fft(rows, axis=-1)
        rows *= spec
        y = np.fft.ifft(rows, axis=-1)[..., N - 1: 2 * N - 1]
        return (y.conj() if adjoint else y).T

    def singular_values(self) -> np.ndarray:
        """All N singular values, descending: those above ZERO_CUT_RTOL * sigma_1
        as the range finder captures them, then exact zeros."""
        svals = _top_singular_triplets(self)[0]
        return np.concatenate([svals, np.zeros(self.N - len(svals))])


def gamma_sequence(b: OperatorBundle, K: int) -> np.ndarray:
    """Symbol coefficients gamma_0..gamma_K, read off the bundle's orbit of Sigma*.

    Cross-checked against the conjugated form <(Sigma-hat*)^k p, q-hat>, which
    must agree to GAMMA_CROSS_CHECK_TOL on any valid bundle.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    gamma = b.sigma_orbit(K + 1).conj().T @ b.q                   # <q, (Sigma*)^k p>
    other = b.qhat.conj() @ orbit(b.sigma_hat_star, b.p, K + 1)  # <(Sigma-hat*)^k p, q-hat>
    drift = float(np.abs(gamma - other).max())
    if drift > GAMMA_CROSS_CHECK_TOL * max(1.0, float(np.abs(gamma).max())):
        raise InternalConsistencyError(
            f"the two symbol formulas disagree by {drift:.3e}")
    return gamma


def certified_truncation(b: OperatorBundle, tail_tol: float = TAIL_TOL) -> int:
    """Smallest N >= dim + 2 with ||(Sigma*)^N p|| <= tail_tol (geometric
    decay), at most TRUNCATION_CAP.  The tails are read off the bundle's
    orbit, which doubles until one qualifies."""
    floor = b.dim + 2
    count = 2 * ORBIT_BLOCK
    while True:
        stop = min(count, TRUNCATION_CAP + 1)
        tails = np.linalg.norm(b.sigma_orbit(stop)[:, floor:], axis=0)
        hits = np.flatnonzero(tails <= tail_tol)
        if hits.size:
            return floor + int(hits[0])
        if stop > TRUNCATION_CAP:
            raise TruncationTooSmallError(
                f"tail bound {tail_tol:.1e} not reached within {TRUNCATION_CAP} steps")
        count *= 2


def hankel_from_bundle(b: OperatorBundle, N: int | str = "auto",
                       tail_tol: float = TAIL_TOL) -> HankelMatrix:
    """The N x N truncation of the bundle's symbol.  The certified N, the tail
    check at an explicit N and the symbol all read one orbit of Sigma*."""
    if N == "auto":
        N = certified_truncation(b, tail_tol)
    else:
        N = int(N)
        if N < 1:
            raise TruncationTooSmallError("N must be at least 1")
        tail = float(np.linalg.norm(b.sigma_orbit(N + 1)[:, N]))
        if tail > tail_tol:
            raise TruncationTooSmallError(
                f"||(Sigma*)^{N} p|| = {tail:.3e} exceeds {tail_tol:.1e}")
    gamma = gamma_sequence(b, 2 * N - 2)
    return HankelMatrix.from_gamma(gamma, N)


def hankel_from_data(d: CompactSpectralData, N: int | str = "auto",
                     tail_tol: float = TAIL_TOL) -> HankelMatrix:
    """Assemble the bundle for ``d`` and emit its truncated Hankel matrix."""
    return hankel_from_bundle(assemble(d), N=N, tail_tol=tail_tol)


def rank_one_identity_residual(h: HankelMatrix) -> float:
    """|| Gamma*Gamma - (Gamma S)*(Gamma S) - u u* ||_F with u = Gamma* e_0,
    in O(N log N).

    The difference is -conj(t) t^T on its leading (N - 1) x (N - 1) block,
    with t = (gamma_N, ..., gamma_{2N-2}) the symbols beyond the truncation;
    its last column is c = Gamma* Gamma e_{N-1} - u conj(u_{N-1}) and its last
    row is c*.  Gamma e_{N-1} = (gamma_{N-1}, ..., gamma_{2N-2}).
    """
    N = h.N
    u = np.conj(h.gamma[:N])
    c = h.apply(h.gamma[N - 1:], adjoint=True) - u * h.gamma[N - 1]
    t_mass = float(np.vdot(h.gamma[N:], h.gamma[N:]).real)
    c_mass = 2.0 * float(np.vdot(c[:-1], c[:-1]).real) + abs(c[-1]) ** 2
    return float(np.sqrt(t_mass ** 2 + c_mass))


@dataclass(frozen=True)
class KernelReport:
    sigma_min: float
    numerical_rank: int
    N: int
    n: int
    nontrivial_kernel: bool


def kernel_diagnostics(h: HankelMatrix, n: int) -> KernelReport:
    """Smallest singular value of the truncation (0 below the zero cut) and
    the numerical rank, the count of values above ZERO_CUT_RTOL * sigma_1;
    the kernel is nontrivial exactly when that rank is below N.  A rank-n
    symbol truncated at N >= n + 2 always leaves a nontrivial kernel."""
    if h.N < n + 2:
        raise TruncationTooSmallError(f"need N >= n + 2 = {n + 2}, got {h.N}")
    svals = h.singular_values()
    rank = int(np.count_nonzero(svals))
    return KernelReport(sigma_min=float(svals[-1]), numerical_rank=rank, N=h.N, n=n,
                        nontrivial_kernel=rank < h.N)


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


def _top_singular_triplets(h: HankelMatrix):
    """Singular values of Gamma above ZERO_CUT_RTOL * sigma_1, descending,
    their right vectors, and the captured factor Gamma = Q B.

    A seeded blocked randomized range finder (Halko-Martinsson-Tropp,
    section 4.4, in the randQB_b form of Martinsson-Voronin), driven through
    :meth:`HankelMatrix.apply`.  The first block draws SKETCH_BLOCK Gaussian
    columns; each later block draws as many as the basis Q holds, so the
    draws run 8, 8, 16, 32, ...  A block's product with Gamma is projected
    against Q, orthonormalised and cut to the directions it finds: those
    whose sketched value exceeds SKETCH_NOISE_RTOL times the first
    product's top value.  The rest is roundoff, and a product that finds
    fewer directions than it drew shows that Q now holds the range (HMT
    section 4.3).  The kept directions carry the projection's roundoff
    divided by their sketched values, so they are projected once more and
    orthonormalised: twice is enough once the block is normalised.  The
    rows Y* Gamma of every block are stacked into B = Q* Gamma, and the SVD
    of B gives the values and right vectors.  No power iteration runs: a
    certified truncation factors through its rank-d bundle,
    Gamma_N = O_N C_N, so every singular value past d is roundoff, and one
    product captures the range to machine precision.  Capture is verified
    (a block that found fewer directions than it drew, a last stacked value
    below the cut, or a full-width basis) before it returns.  Q (N x k,
    orthonormal) and B (k x N) are returned whole, with the directions
    between the noise cut and the zero cut.
    """
    N = h.N
    rng = np.random.default_rng(RANGE_FINDER_SEED)
    Q = np.empty((N, 0), dtype=complex)
    B = np.empty((0, N), dtype=complex)           # Q* Gamma
    width, top = min(N, SKETCH_BLOCK), None
    while True:
        omega = rng.standard_normal((N, width)) + 1j * rng.standard_normal((N, width))
        Y = h.apply(omega)
        Y -= Q @ (Q.conj().T @ Y)
        Y, R = np.linalg.qr(Y)
        U, sketched, _ = np.linalg.svd(R)
        top = sketched[0] if top is None else top
        found = int(np.sum(sketched > SKETCH_NOISE_RTOL * top))
        if found:
            Y = Y @ U[:, :found]
            Y -= Q @ (Q.conj().T @ Y)
            Y = np.linalg.qr(Y)[0]
            Q = np.hstack([Q, Y])
            B = np.vstack([B, h.apply(Y, adjoint=True).conj().T])
        if not Q.shape[1]:                        # Gamma = 0
            return np.zeros(0), np.empty((N, 0), dtype=complex), Q, B
        # vectors are taken only for the stack that returns
        done = found < width or Q.shape[1] == N
        if not done:
            svals = np.linalg.svd(B, compute_uv=False)
            done = svals[-1] <= ZERO_CUT_RTOL * svals[0]
        if done:
            _, svals, vh = np.linalg.svd(B, full_matrices=False)
            keep = int(np.sum(svals > ZERO_CUT_RTOL * svals[0]))
            return svals[:keep], vh[:keep].conj().T, Q, B
        width = min(Q.shape[1], N - Q.shape[1])


def _shifted_triplets(V: np.ndarray, B: np.ndarray, cut: float):
    """Singular values of Gamma S above ``cut`` and their right vectors, read
    off the factor Gamma = Q B of :func:`_top_singular_triplets`.

    Gamma S x = Gamma (S x) = Q B[:, 1:] x[:-1], and Q is orthonormal, so
    (Gamma S) V has the singular values of the small matrix B[:, 1:] V[:-1].
    Since ran (Gamma S)* lies in ran Gamma* = span V, this Rayleigh-Ritz
    step gives every singular triplet of Gamma S above the cut.
    """
    _, svals, wh = np.linalg.svd(B[:, 1:] @ V[:-1], full_matrices=False)
    keep = svals > cut
    return svals[keep], V @ wh[keep].conj().T


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


@dataclass(frozen=True, eq=False)
class ForwardData:
    """Spectral data recovered from a truncated Hankel matrix.

    ``rho[k]`` and ``rho1[k]`` are the circle probability measures of the
    polar factors on the lambda_k and mu_k levels, a point mass on a simple
    level; ``rho1[k]`` is ``None`` at a terminal mu = 0.
    """

    lam: np.ndarray
    mu: np.ndarray
    w: np.ndarray
    w1: np.ndarray
    rho: tuple
    rho1: tuple
    residuals: dict = field(default_factory=dict)


def forward_extract(h: HankelMatrix, cluster_gap: float = CLUSTER_GAP) -> ForwardData:
    """Recover spectral data from a truncated Hankel matrix.

    The rank-one identity |Gamma|^2 - |Gamma S|^2 = u u*, u = Gamma* e_0,
    puts ran (Gamma S)* inside ran Gamma*, so one range finder for Gamma
    serves both operators: its factor Gamma = Q B gives every singular
    triplet of Gamma S above the zero cut (:func:`_shifted_triplets`), and
    every product with Gamma or Gamma S below runs through Q B.  The merged
    singular values are clustered once; at each level
    dim ker(|Gamma| - s) - dim ker(|Gamma S| - s) is +1
    at a lambda level and -1 at a mu level, and the weight is the u-mass on
    that operator's eigenspace.  n lambda levels against n - 1 mu levels
    mean a terminal mu_n = 0, whose weight is the u-mass on ker Gamma S.
    A truncation whose tail breaks the identity past the top level's join
    threshold is refused.
    Phases come from the polar factor: on a level eigenspace the map
    x -> conj(Gamma x)/s acts as the phase times the conjugation, and the
    conjugation is known there -- it fixes the normalized u-projection and
    acts by s^{-1} conj(Gamma S .) on the rest of a lambda eigenspace (where
    the second polar factor is the identity), symmetrically for mu levels.
    """
    u = np.conj(h.gamma[: h.N])     # Gamma* e_0
    u_mass = float(np.vdot(u, u).real)
    if u_mass == 0.0:
        raise DegenerateSpectrumError("u = Gamma* e_0 vanishes, so no level carries u-mass")
    residuals: dict = {}

    svals, V, Q, B = _top_singular_triplets(h)   # u != 0, so Gamma has a value above the cut
    smax = float(svals[0])
    svals1, V1 = _shifted_triplets(V, B, ZERO_CUT_RTOL * smax)
    kernel_u = abs(u_mass - float(np.linalg.norm(V1.conj().T @ u) ** 2))  # u-mass on ker Gamma S

    values = np.concatenate([svals, svals1])
    order = np.argsort(-values, kind="stable")
    lam_levels, mu_levels = [], []
    spread = 0.0
    d = len(svals)
    for cluster in _cluster_levels(values[order], smax, cluster_gap):
        idx = order[cluster]
        own, shift = np.sort(idx[idx < d]), np.sort(idx[idx >= d]) - d
        diff = len(own) - len(shift)
        if diff == 1:
            level_values, basis, levels = svals[own], V[:, own], lam_levels
        elif diff == -1:
            level_values, basis, levels = svals1[shift], V1[:, shift], mu_levels
        else:
            raise ClusterAmbiguityError(
                f"singular value {values[idx[0]]:.6e} has multiplicity difference {diff} "
                "between |Gamma| and |Gamma S|; the rank-one identity allows +1 or -1")
        coords = basis.conj().T @ u
        levels.append({"value": float(np.mean(level_values)), "basis": basis,
                       "weight": float(np.linalg.norm(coords) ** 2), "u_proj": basis @ coords})
        spread = max(spread, float(values[idx[0]] - values[idx[-1]]))

    n = len(lam_levels)
    if len(mu_levels) not in (n - 1, n):
        raise ClusterAmbiguityError(
            f"{len(mu_levels)} mu levels cannot interlace {n} lambda levels")
    # the levels rest on the rank-one identity, which a truncation keeps only
    # up to its tail; its defect must stay below the top level's join threshold
    identity = rank_one_identity_residual(h) / smax ** 2
    if identity > CLUSTER_JOIN_FRAC * cluster_gap:
        raise TruncationTooSmallError(
            f"rank-one identity residual {identity:.3e} * sigma_1^2 exceeds "
            f"{CLUSTER_JOIN_FRAC * cluster_gap:.1e} * sigma_1^2: the symbol's tail is too large")
    residuals["rank_one_identity"] = identity
    terminal_zero = len(mu_levels) == n - 1
    lam = np.array([lv["value"] for lv in lam_levels])
    mu = np.array([lv["value"] for lv in mu_levels] + [0.0] * terminal_zero)
    validate_intertwining(lam, mu)  # raises if the recovered levels are inconsistent
    w = np.array([lv["weight"] for lv in lam_levels])
    w1 = np.array([lv["weight"] for lv in mu_levels] + [kernel_u] * terminal_zero)
    residuals["cluster_spread"] = spread / smax
    residuals["kernel_u_mass"] = kernel_u / u_mass

    def product(x, shifted):
        """Gamma x, or Gamma S x when ``shifted``, through the factor Q B."""
        return Q @ (B[:, 1:] @ x[:-1] if shifted else B @ x)

    def phase_of(level, shifted):
        """Circle measure of the polar factor of Gamma (Gamma S when
        ``shifted``) on one level: on a simple level the point mass of its
        phase, found in closed form."""
        s = level["value"]
        uk = level["u_proj"]
        uhat = uk / np.linalg.norm(uk)
        if level["basis"].shape[1] == 1:
            val = complex(np.vdot(uhat, np.conj(product(uhat, shifted)) / s))
            residuals["phase_modulus"] = max(
                residuals.get("phase_modulus", 0.0), abs(abs(val) - 1.0))
            return AtomicMeasure.point_mass(val / abs(val))
        Y = _orthogonal_complement_in_level(level["basis"], uk)
        JY = np.conj(product(Y, not shifted)) / s
        W = np.column_stack([uhat, Y])
        JW = np.column_stack([uhat, JY])
        U = W.conj().T @ (np.conj(product(JW, shifted)) / s)
        return _unitary_spectral_measure(U, residuals)

    rho = tuple(phase_of(lv, False) for lv in lam_levels)
    rho1 = tuple(phase_of(lv, True) for lv in mu_levels) + ((None,) if terminal_zero else ())
    return ForwardData(lam=lam, mu=mu, w=w, w1=w1, rho=rho, rho1=rho1, residuals=residuals)
