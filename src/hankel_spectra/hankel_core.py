"""Hankel symbols from operator bundles, truncated matrices, and the forward problem.

The inverse direction walks one blocked orbit of the contraction Sigma*: the
geometric decay of ``(Sigma*)^k p`` certifies the truncation, and the same
columns give the symbol ``gamma_k = <q, (Sigma*)^k p>``; a bundle law stands
for its conjugated form, so no second orbit is walked.  The truncation's
singular values come from the bundle's factorization Gamma_N = C_N* O_N, as
those of a square core whose size is the bundle's dimension.  The forward
direction captures the truncation as a factor Gamma = Q B with a one-pass
randomized range finder that applies Gamma by FFT from the symbol and takes
its singular values from the k x k core B conj(Q), k the captured rank.  It
reads Gamma S, the level eigenspaces and the phase products off that core,
classifies the merged singular values into lambda and mu levels by
multiplicity difference, and recovers weights and per-level circle measures
(a point mass on a simple level) from the conjugated operator's action.
A multi-atom level's measure is the spectral measure of a small unitary,
whose orthonormal eigenvectors come from ``eigh`` of its Cayley transform;
numpy is the only numerical dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import (
    ClusterAmbiguityError,
    DegenerateSpectrumError,
    TruncationTooSmallError,
    WeightRangeError,
)
from .operator_assembly import ORBIT_BLOCK, TRUNCATION_CAP, OperatorBundle, assemble, orbit
from .spectral_data import (
    SCALE_MAX,
    SCALE_MIN,
    AtomicMeasure,
    CompactSpectralData,
    validate_intertwining,
)

TAIL_TOL = 1e-12
CLUSTER_GAP = 1e-6         # relative gap separating singular-value levels
CLUSTER_JOIN_FRAC = 0.01   # below join_frac * gap two values count as one level
ZERO_CUT_RTOL = 1e-8       # relative cut below which singular values are kernel
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
# Sketch values drawn once per process, on the first range finder call: the
# first two blocks at TRUNCATION_CAP, 2 * (2 * TRUNCATION_CAP * SKETCH_BLOCK)
# doubles, 1 MB.
SKETCH_STREAM_CAP = 4 * TRUNCATION_CAP * SKETCH_BLOCK
# Weight at or below which an eigenvector of a recovered level's unitary
# carries no atom.  Valid data never come near it.  Over the 2048
# multiplicity trials of roundtrip_batch's 64 job seeds at workload seeds 1
# and 2 (5430 multi-atom levels), every level kept one eigenvector per atom
# and dropped none; the lightest kept weight read 0.14, 1.4e11 times over
# the cut.  A light atom makes Sigma* nearly unitary: at lambda = (2, 1),
# mu = (1.5, 0.5) an atom of weight 2e-3 certifies at N = 1664 (recovered to
# 3e-15), one of 1e-3 at N = 3326, and one of 1e-4 at no N within
# TRUNCATION_CAP, ten decades over _phase_block's 1e-14 floor.  The cut
# guards an eigenvector orthogonal to u, whose weight is roundoff: at most
# 4.7e-31 on 100 such unitaries of size 2 to 8, 2e18 times under the cut.
# tests/test_hankel_core.py re-measures the margins.
ATOM_WEIGHT_CUT = 1e-12


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


@cache
def _sketch_head() -> tuple[np.ndarray, dict]:
    """The first SKETCH_STREAM_CAP values of
    ``default_rng(RANGE_FINDER_SEED).standard_normal``, read-only, and the
    generator state after them.  Drawn on first use; a first-call race on
    two threads draws the same values twice."""
    rng = np.random.default_rng(RANGE_FINDER_SEED)
    head = rng.standard_normal(SKETCH_STREAM_CAP)
    head.setflags(write=False)
    return head, rng.bit_generator.state


def _sketch_block(N: int, start: int, width: int) -> np.ndarray:
    """Columns ``start`` to ``start + width`` of the range finder's N-row
    Gaussian sketch: the stream's next 2 N width values, the real parts
    (N x width, row-major), then the imaginary parts.  Successive draws of
    one generator continue one stream, so these are the values a fresh
    generator would draw; past the head they continue from its saved state."""
    n = N * width
    lo, hi = 2 * N * start, 2 * N * (start + width)
    head, state = _sketch_head()
    values = head[lo:hi]
    if hi > len(head):
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = state
        tail = rng.standard_normal(hi - len(head))
        values = np.concatenate([values, tail[max(0, lo - len(head)):]])
    return values[:n].reshape(N, width) + 1j * values[n:].reshape(N, width)


@dataclass(frozen=True, eq=False)
class HankelMatrix:
    """The N x N truncation (gamma_{j+k}) of a Hankel operator, held as its
    2N - 1 symbol coefficients.

    Gamma and Gamma* act through :meth:`apply` by FFT; the forward problem
    reads Gamma S off the rank-sized core of the factor the range finder
    captures.  The dense ``entries`` are derived only on request.
    """

    gamma: np.ndarray
    N: int

    @classmethod
    def from_gamma(cls, gamma, N: int) -> "HankelMatrix":
        """The truncation of order ``N`` from exactly 2N - 1 values of gamma;
        any other count raises ValueError, never a silent pad or cut.  A
        modulus above ``SCALE_MAX``, or a nonzero symbol with
        N max|gamma| < ``SCALE_MIN``, raises WeightRangeError."""
        gamma = np.array(gamma, dtype=complex)
        if gamma.shape != (2 * N - 1,):
            raise ValueError(f"N = {N} needs 2N - 1 = {2 * N - 1} gamma values, "
                             f"got shape {gamma.shape}")
        if (top := np.abs(gamma).max()) > SCALE_MAX:
            raise WeightRangeError(f"|gamma| reaches {top:.3e} > SCALE_MAX = {SCALE_MAX:.0e}")
        if 0.0 < N * top < SCALE_MIN:
            raise WeightRangeError(f"N max|gamma| = {N * top:.3e} < SCALE_MIN = {SCALE_MIN:.0e}")
        gamma.setflags(write=False)
        return cls(gamma=gamma, N=N)

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix (gamma_{j+k}), built anew on each access."""
        j = np.arange(self.N)
        return self.gamma[j[:, None] + j[None, :]]

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
    """Symbol coefficients gamma_k = <q, (Sigma*)^k p>, k = 0..K, read off the
    bundle's orbit of Sigma*.  On a checked bundle the law "Jp intertwines
    Sigma* and Sigma-hat*" holds the conjugated form <(Sigma-hat*)^k p, q-hat>
    within about 1e-10 ||p|| ||q|| of these for every
    K <= 2 TRUNCATION_CAP - 2, where ||p|| ||q|| bounds every |gamma_k|."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    return b.sigma_orbit(K + 1).conj().T @ b.q


def truncation_singular_values(b: OperatorBundle, N: int) -> np.ndarray:
    """All N singular values of the bundle's truncation Gamma_N, descending:
    those above ZERO_CUT_RTOL * sigma_1, then exact zeros.

    gamma_{j+k} = <Sigma^k q, (Sigma*)^j p>, so Gamma_N = C* O with the
    orbits C = [p, Sigma* p, ...] and O = [q, Sigma q, ...], dim x N each.
    With the thin QR factors C* = Q_1 R_1 and O* = Q_2 R_2, Gamma_N =
    Q_1 (R_1 R_2*) Q_2*, whose singular values are those of the square core
    R_1 R_2* of size min(N, dim).
    """
    C = b.sigma_orbit(N)
    O = orbit(b.sigma_star.conj().T, b.q, N)
    core = np.linalg.qr(C.conj().T, mode="r") @ np.linalg.qr(O.conj().T, mode="r").conj().T
    svals = np.linalg.svd(core, compute_uv=False)
    keep = int(np.sum(svals > ZERO_CUT_RTOL * svals[0]))
    return np.concatenate([svals[:keep], np.zeros(N - keep)])


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
    """The N x N truncation of the bundle's symbol, 1 <= N <= TRUNCATION_CAP.
    The certified N, the tail check at an explicit N and the symbol all read
    one orbit of Sigma*."""
    if N == "auto":
        N = certified_truncation(b, tail_tol)
    else:
        N = int(N)
        if not 1 <= N <= TRUNCATION_CAP:
            raise TruncationTooSmallError(f"N = {N} must lie in 1..{TRUNCATION_CAP}")
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
    their right vectors W in conj(Q) coordinates, the core M = B conj(Q), and
    the captured factor Gamma = Q B.

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
    rows Y* Gamma of every block are stacked into B = Q* Gamma.  Gamma is
    complex symmetric, so Gamma = Gamma^T = conj(Q) Q^T Gamma = Gamma conj(Q) Q^T
    up to the capture residual, and B = M Q^T with the k x k core
    M = B conj(Q), k the basis width, which is Gamma in conj(Q) coordinates:
    the SVD M = U S W* gives the values and the right vectors conj(Q) W.
    No power iteration runs: a certified truncation factors through its
    rank-d bundle, Gamma_N = C_N* O_N, so every singular value past d is
    roundoff, and one product captures the range to machine precision.
    Capture is verified (a block that found fewer directions than it drew, a
    last stacked value below the cut, or a full-width basis) before it
    returns.  M (k x k), Q (N x k, orthonormal) and B (k x N) are returned
    whole, with the directions between the noise cut and the zero cut.  The
    sketch is block j of one fixed Gaussian stream (:func:`_sketch_block`),
    whose read-only head is drawn once per process, so calls on several
    threads draw what a serial call does.
    """
    N = h.N
    Q = np.empty((N, 0), dtype=complex)
    B = np.empty((0, N), dtype=complex)           # Q* Gamma
    width, top, drawn = min(N, SKETCH_BLOCK), None, 0
    while True:
        omega = _sketch_block(N, drawn, width)
        drawn += width
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
        M = B @ Q.conj()
        if not Q.shape[1]:                        # Gamma = 0
            return np.zeros(0), np.empty((0, 0), dtype=complex), M, Q, B
        # vectors are taken only for the core that returns
        done = found < width or Q.shape[1] == N
        if not done:
            svals = np.linalg.svd(M, compute_uv=False)
            done = svals[-1] <= ZERO_CUT_RTOL * svals[0]
        if done:
            _, svals, wh = np.linalg.svd(M)
            keep = int(np.sum(svals > ZERO_CUT_RTOL * svals[0]))
            return svals[:keep], wh[:keep].conj().T, M, Q, B
        width = min(Q.shape[1], N - Q.shape[1])


def _orthogonal_complement_in_level(basis: np.ndarray, u_proj: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the level eigenspace minus the u direction.

    In the basis's coordinates the unit u direction is c.  Rotated by the
    phase of its first entry to a = conj(phase) c, with a_0 = |c_0| >= 0,
    the Householder reflection H = I - 2 v v* / (v* v), v = a + e_0, is
    unitary and sends e_0 to -a, so its other columns are orthonormal and
    orthogonal to c.  v* v = 2 (1 + |c_0|) >= 2: the reflection never
    divides by a small norm.
    """
    c = basis.conj().T @ (u_proj / np.linalg.norm(u_proj))
    v = c * (np.conj(c[0]) / abs(c[0])) if c[0] else c.copy()
    v[0] += 1.0
    comp = np.eye(len(v))[:, 1:] - np.outer(v, v[1:].conj()) * (2.0 / np.vdot(v, v).real)
    return basis @ comp


def _unitary_spectral_measure(U: np.ndarray, residuals: dict) -> AtomicMeasure:
    """Spectral measure of a small unitary matrix w.r.t. the first basis vector.

    The eigenvectors are those of the Cayley transform
    K = i (omega + U)(omega - U)^{-1} = i (2 omega (omega - U)^{-1} - I),
    which is Hermitian for unitary U, so ``eigh`` returns them orthonormal
    even for close or repeated eigenvalues, where ``eig`` need not.  An
    eigenvalue omega e^{i phi} of U becomes x = -cot(phi / 2), and
    omega (x - i) / (x + i) maps it back.  The pole omega sits in the middle
    of the widest angular gap between the eigenvalues of U, at least pi / d
    from each of them, which bounds ||(omega - U)^{-1}|| by
    1 / (2 sin(pi / 2d)).  K is taken at its Hermitian part, since U is
    unitary only up to roundoff.  The result depends on U alone.
    """
    d = U.shape[0]
    residuals["phase_unitarity"] = max(
        residuals.get("phase_unitarity", 0.0),
        float(np.linalg.norm(U.conj().T @ U - np.eye(d))))
    eigvals = np.linalg.eigvals(U)
    residuals["atom_modulus"] = max(
        residuals.get("atom_modulus", 0.0),
        float(np.abs(np.abs(eigvals) - 1.0).max()))
    angles = sorted(np.angle(eigvals).tolist())
    gaps = np.diff(angles + [angles[0] + 2.0 * np.pi])
    j = int(np.argmax(gaps))
    omega = np.exp(1j * (angles[j] + gaps[j] / 2.0))
    K = 1j * (2.0 * omega * np.linalg.inv(omega * np.eye(d) - U) - np.eye(d))
    x, Z = np.linalg.eigh((K + K.conj().T) / 2.0)
    atoms = omega * (x - 1j) / (x + 1j)
    weights = np.abs(Z[0, :]) ** 2
    keep = weights > ATOM_WEIGHT_CUT
    return AtomicMeasure(points=atoms[keep], weights=weights[keep] / weights[keep].sum())


@dataclass(frozen=True, eq=False)
class ForwardData:
    """Spectral data recovered from a truncated Hankel matrix.

    ``data`` holds the recovered levels and, per level, the circle
    probability measure of the polar factor, a point mass on a simple
    level.  ``w`` and ``w1`` are the measured u-masses on the lambda and mu
    levels, which the data determine in closed form.
    """

    data: CompactSpectralData
    w: np.ndarray
    w1: np.ndarray
    residuals: dict = field(default_factory=dict)


def forward_extract(h: HankelMatrix, cluster_gap: float = CLUSTER_GAP) -> ForwardData:
    """Recover spectral data from a truncated Hankel matrix.

    The rank-one identity |Gamma|^2 - |Gamma S|^2 = u u*, u = Gamma* e_0,
    puts ran (Gamma S)* inside ran Gamma*, so one range finder for Gamma
    serves both operators.  Its capture Gamma = Q B, u's mass and the
    identity residual are the only N-sized work; the rest runs in the
    coordinates c of x = conj(Q) c, which keep inner products, where
    Gamma x = Q M c and Gamma S x = Q M1 c with M = B conj(Q) and
    M1 = B[:, 1:] conj(Q[:-1]), and u projects to Q^T u.  The SVD of M1 W,
    W the kept right vectors of M, gives Gamma S's triplets above the zero
    cut.  The merged singular values are clustered once; at each level
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
    the second polar factor is the identity), symmetrically for mu levels;
    in coordinates the map is c -> conj(M c)/s.
    """
    u = np.conj(h.gamma[: h.N])     # Gamma* e_0
    u_mass = float(np.vdot(u, u).real)
    if u_mass == 0.0:
        raise DegenerateSpectrumError("u = Gamma* e_0 vanishes, so no level carries u-mass")
    residuals: dict = {}

    svals, W, M, Q, B = _top_singular_triplets(h)   # u != 0, so Gamma has a value above the cut
    M1, u_c = B[:, 1:] @ Q[:-1].conj(), Q.T @ u    # Gamma S and u in conj(Q) coordinates
    smax = float(svals[0])
    identity = rank_one_identity_residual(h) / smax ** 2

    _, svals1, wh1 = np.linalg.svd(M1 @ W, full_matrices=False)
    keep = svals1 > ZERO_CUT_RTOL * smax
    svals1, W1 = svals1[keep], W @ wh1[keep].conj().T
    kernel_u = abs(u_mass - float(np.linalg.norm(W1.conj().T @ u_c) ** 2))  # u-mass on ker Gamma S

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
            level_values, basis, levels = svals[own], W[:, own], lam_levels
        elif diff == -1:
            level_values, basis, levels = svals1[shift], W1[:, shift], mu_levels
        else:
            raise ClusterAmbiguityError(
                f"singular value {values[idx[0]]:.6e} has multiplicity difference {diff} "
                "between |Gamma| and |Gamma S|; the rank-one identity allows +1 or -1")
        coords = basis.conj().T @ u_c
        levels.append({"value": float(np.mean(level_values)), "basis": basis,
                       "weight": float(np.linalg.norm(coords) ** 2), "u_proj": basis @ coords})
        spread = max(spread, float(values[idx[0]] - values[idx[-1]]))

    n = len(lam_levels)
    if len(mu_levels) not in (n - 1, n):
        raise ClusterAmbiguityError(
            f"{len(mu_levels)} mu levels cannot interlace {n} lambda levels")
    # the levels rest on the rank-one identity, which a truncation keeps only
    # up to its tail; its defect must stay below the top level's join threshold
    if identity > CLUSTER_JOIN_FRAC * cluster_gap:
        raise TruncationTooSmallError(
            f"rank-one identity residual {identity:.3e} * sigma_1^2 exceeds "
            f"{CLUSTER_JOIN_FRAC * cluster_gap:.1e} * sigma_1^2: the symbol's tail is too large")
    residuals["rank_one_identity"] = identity
    terminal_zero = len(mu_levels) == n - 1
    lam = np.array([lv["value"] for lv in lam_levels])
    mu = np.array([lv["value"] for lv in mu_levels] + [0.0] * terminal_zero)
    spectrum = validate_intertwining(lam, mu)  # raises if the recovered levels are inconsistent
    w = np.array([lv["weight"] for lv in lam_levels])
    w1 = np.array([lv["weight"] for lv in mu_levels] + [kernel_u] * terminal_zero)
    residuals["cluster_spread"] = spread / smax
    residuals["kernel_u_mass"] = kernel_u / u_mass

    def phase_of(level, shifted):
        """Circle measure of the polar factor of Gamma (Gamma S when
        ``shifted``) on one level: on a simple level the point mass of its
        phase, found in closed form."""
        s = level["value"]
        own, other = (M1, M) if shifted else (M, M1)
        uk = level["u_proj"]
        uhat = uk / np.linalg.norm(uk)
        if level["basis"].shape[1] == 1:
            val = complex(np.vdot(uhat, np.conj(own @ uhat) / s))
            residuals["phase_modulus"] = max(
                residuals.get("phase_modulus", 0.0), abs(abs(val) - 1.0))
            return AtomicMeasure.point_mass(val / abs(val))
        Y = _orthogonal_complement_in_level(level["basis"], uk)
        JY = np.conj(other @ Y) / s
        E = np.column_stack([uhat, Y])
        JE = np.column_stack([uhat, JY])
        U = E.conj().T @ (np.conj(own @ JE) / s)
        return _unitary_spectral_measure(U, residuals)

    rho = [phase_of(lv, False) for lv in lam_levels]
    rho1 = [phase_of(lv, True) for lv in mu_levels]
    return ForwardData(CompactSpectralData(spectrum, rho, rho1), w, w1, residuals)
