"""Build the finite operator tuple (R, R1, p, q, Jp, phi, phi1, Sigma*, A) from spectral data.

One builder serves all data.  It reads every level's phase data as the atoms
of a circle probability measure; a cyclic phase is a point mass.  The basis
diagonalizes R with one block per eigenvalue level: the block of ``R`` at
``lambda_k`` has dimension ``card supp rho_k`` and carries
``p_k = sqrt(w_k) e_0``, the block at ``mu_k`` has dimension
``card supp rho1_k - 1``.  Every matrix except the phase operators is real,
so the canonical conjugation is entrywise -- its matrix representation is the
identity.

The rank-one identity ``R^2 - R1^2 = p p*`` fixes the eigenvectors of R1 on
the cyclic subspace in closed form (:func:`_secular_vectors`): the one for
``mu_k`` is ``(diag(lambda^2) - mu_k^2)^{-1} p``, normalized.  With p from
:func:`borg_weights` (the Loewner formula for the same chain) these columns
are orthonormal to working precision (Gu-Eisenstat, SIAM J. Matrix Anal.
Appl. 1994; Bunch-Nielsen-Sorensen 1978), so no eigensolver runs on
``R^2 - p p*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BundleInvariantError,
    SquareRootFailureError,
    SupportNotCyclicError,
)
from .spectral_data import (
    AtomicMeasure,
    CompactSpectralData,
    IntertwinedSpectrum,
    borg_weights,
)

# Relative tolerances for the structural identities, checked once per bundle.
RANK_ONE_RTOL = 1e-12
DEFECT_TOL = 1e-10
COMMUTE_RTOL = 1e-12
CONJUGATION_TOL = 1e-12
CLAMP_RTOL = 1e-12
# Largest truncation N, auto or explicit; the symbol then runs to
# gamma_{2N-2}, which the "Jp intertwines Sigma* and Sigma-hat*" bound covers.
TRUNCATION_CAP = 4096
# Columns of an orbit built one product at a time before it advances a block
# per product.  32 is the value first tried.  Neighbours were timed on a
# 2-core machine (hankel_from_data and stability_report over 128 generated
# inputs, fastest of 7 passes, two runs): 8 took 0.46-0.54 s, 16 0.31-0.48 s,
# 32 0.35-0.44 s, 64 0.39-0.45 s, 128 0.47-0.50 s.  16 to 64 lie within the
# run-to-run spread, so 32 stayed.
ORBIT_BLOCK = 32


@dataclass(frozen=True, eq=False)
class BlockLayout:
    """Index bookkeeping for the block basis.

    ``lam_blocks[k]`` are the global indices of ``ker(R - lambda_k I)``; the
    first one carries ``p_k``.  ``mu_blocks[k]`` are the indices of
    ``ker(R - mu_k I)`` (empty for simple levels and at a terminal zero).
    """

    lam: tuple
    mu: tuple
    lam_blocks: tuple
    mu_blocks: tuple

    @classmethod
    def from_sizes(cls, lam, mu, lam_sizes, mu_sizes) -> "BlockLayout":
        """The layout whose blocks are consecutive runs of these sizes: every
        lambda block in level order, then every mu block."""
        sizes = list(lam_sizes) + list(mu_sizes)
        blocks = tuple(tuple(range(e - m, e)) for e, m in zip(np.cumsum(sizes).tolist(), sizes))
        return cls(lam=tuple(float(v) for v in lam), mu=tuple(float(v) for v in mu),
                   lam_blocks=blocks[:len(lam_sizes)], mu_blocks=blocks[len(lam_sizes):])

    @property
    def dim(self) -> int:
        return sum(len(b) for b in self.lam_blocks) + sum(len(b) for b in self.mu_blocks)

    @property
    def n_levels(self) -> int:
        return len(self.lam)

    @property
    def h0_indices(self) -> tuple:
        """Basis indices spanning the cyclic subspace of (R, p)."""
        return tuple(b[0] for b in self.lam_blocks)

    def lam_dim(self, k: int) -> int:
        return len(self.lam_blocks[k])

    def mu_eigdim(self, k: int) -> int:
        """Dimension of ker(R1 - mu_k I); 1 more than the mu block of R."""
        return len(self.mu_blocks[k]) + 1


@dataclass(frozen=True, eq=False)
class OperatorBundle:
    """Immutable finite-dimensional operator tuple with its defining identities.

    ``Jp`` stores the conjugation as a matrix ``C`` acting by
    ``x -> C @ conj(x)``; ``C`` is unitary and symmetric, which encodes
    involutivity.  ``r_norm``, ``r_half``, ``r1_eigh``, ``sigma_hat_star``
    (all but ``r_half`` read by the invariant check), the check's verdict
    ``_laws_hold``, ``A`` and the orbit of Sigma* are derived on first read,
    each once per bundle.  Every array a bundle holds is read-only, so the
    callers that share one bundle cannot change it under each other, and a
    bundle that passed its check once holds its laws for good.
    """

    dim: int
    R: np.ndarray
    R1: np.ndarray
    p: np.ndarray
    q: np.ndarray
    qhat: np.ndarray
    phi: np.ndarray
    phi1: np.ndarray
    Jp: np.ndarray
    sigma_star: np.ndarray
    layout: BlockLayout

    def conjugate(self, x: np.ndarray) -> np.ndarray:
        """Apply the stored conjugation to a vector or (columnwise) matrix."""
        return self.Jp @ np.conj(x)

    @cached_property
    def r_norm(self) -> float:
        return float(np.linalg.norm(self.R, 2))

    @cached_property
    def r_half(self) -> np.ndarray:
        """``R^{1/2}``, read by ``A`` and by the stability report."""
        return _frozen(_psd_sqrt(np.linalg.eigh(self.R), self.r_norm))

    @cached_property
    def r1_eigh(self):
        """``eigh(R1)``, read by the invariant check (R1's spectrum and
        ker R1), by :func:`level_projections` and by ``A`` (R1^{1/2})."""
        evals, vecs = np.linalg.eigh(self.R1)
        return _frozen(evals), _frozen(vecs)

    @cached_property
    def _laws_hold(self) -> bool:
        """True once every row of :func:`bundle_residuals` is within its
        bound; else BundleInvariantError naming the first row over it.  A
        refusal caches nothing, so a refused bundle refuses on every read."""
        for name, (residual, bound) in bundle_residuals(self).items():
            if not residual <= bound:
                raise BundleInvariantError(
                    f"bundle violates: {name} (residual {residual:.3e} > bound {bound:.3e})")
        return True

    @cached_property
    def sigma_orbit(self) -> Orbit:
        """The orbit ``p, Sigma* p, (Sigma*)^2 p, ...``: the certified
        truncation, the symbol and the decay profile all read this one walk."""
        return Orbit(self.sigma_star, self.p)

    @cached_property
    def sigma_hat_star(self) -> np.ndarray:
        """``Jp Sigma* Jp = phi1* R1 R^{-1} phi``."""
        return _frozen(self.phi1.conj().T @ self.R1 @ np.linalg.solve(self.R, self.phi))

    @cached_property
    def A(self) -> np.ndarray:
        """``A = Q* phi1 Q phi*`` with ``Q = R1^{1/2} R^{-1/2}``.

        A is a contraction intertwined with Sigma* through R^{1/2}:
        ``Sigma* R^{1/2} = R^{1/2} A``.
        """
        Q = _psd_sqrt(self.r1_eigh, self.r_norm) @ np.linalg.inv(self.r_half)
        return _frozen(Q.conj().T @ self.phi1 @ Q @ self.phi.conj().T)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only."""
    a.setflags(write=False)
    return a


def orbit(M: np.ndarray, v: np.ndarray, count: int) -> np.ndarray:
    """The ``dim x count`` array ``[v, Mv, M^2 v, ..., M^{count-1} v]``.

    The first ORBIT_BLOCK columns are built one product at a time; every later
    block is ``M^ORBIT_BLOCK`` times the block before it, one matrix-matrix
    product per block.  The matrices walked here, Sigma* and Sigma, are
    contractions, so ``M^ORBIT_BLOCK`` has norm at most 1 and a block product
    adds the roundoff of one product, as a step of a serial walk does.  The
    orbit of Sigma* gives the symbol, the truncation tail and the decay
    profile; ``truncation_singular_values`` reads it with the orbit of Sigma.
    """
    out = np.empty((len(v), count), dtype=np.result_type(M, v), order="F")
    if count:
        out[:, 0] = v
    for k in range(1, min(count, ORBIT_BLOCK)):
        out[:, k] = M @ out[:, k - 1]
    if count > ORBIT_BLOCK:
        _advance(np.linalg.matrix_power(M, ORBIT_BLOCK), out, ORBIT_BLOCK)
    return out


def _advance(step: np.ndarray, out: np.ndarray, start: int):
    """Fill the orbit columns of ``out`` from ``start`` on, one block per
    product with ``step = M^ORBIT_BLOCK``."""
    for lo in range(start, out.shape[1], ORBIT_BLOCK):
        hi = min(lo + ORBIT_BLOCK, out.shape[1])
        out[:, lo:hi] = step @ out[:, lo - ORBIT_BLOCK:hi - ORBIT_BLOCK]


class Orbit:
    """:func:`orbit` kept as one array that grows on demand.

    The array doubles from ORBIT_BLOCK columns, continuing block by block
    where it stopped.  Its blocks are then those of one :func:`orbit` call
    over as many columns, so a column does not depend on the order or the
    sizes of the requests.
    """

    def __init__(self, M: np.ndarray, v: np.ndarray):
        self._step = np.linalg.matrix_power(M, ORBIT_BLOCK)
        self._X = orbit(M, v, ORBIT_BLOCK)
        self._X.setflags(write=False)

    def __call__(self, count: int) -> np.ndarray:
        """The first ``count`` columns, ``[v, Mv, ..., M^{count-1} v]``."""
        # Read from a local array: a memoized bundle may be shared between
        # threads, and another thread may store a shorter array meanwhile.
        X = self._X
        while X.shape[1] < count:
            have = X.shape[1]
            grown = np.empty((X.shape[0], 2 * have), dtype=X.dtype, order="F")
            grown[:, :have] = X
            _advance(self._step, grown, have)
            grown.setflags(write=False)
            X = self._X = grown
        return X[:, :count]


def _psd_sqrt(eig, scale: float) -> np.ndarray:
    """The square root of a Hermitian PSD matrix from its ``eigh`` pair.

    Eigenvalues in ``(-CLAMP_RTOL * scale, 0)`` are clamped to zero; anything
    further below raises, since the matrix was supposed to be PSD.  ``scale``
    is the matrix's norm, so the clamp is relative as the law bounds are.
    """
    evals, vecs = eig
    floor = -CLAMP_RTOL * scale
    if np.any(evals < floor):
        raise SquareRootFailureError(
            f"eigenvalue {evals.min():.3e} below the PSD clamp {floor:.3e}")
    evals = np.clip(evals, 0.0, None)
    return (vecs * np.sqrt(evals)) @ vecs.conj().T


def _from_operators(R, R1, p, phi, phi1, C, layout: BlockLayout) -> OperatorBundle:
    """The bundle of these operators with q, qhat and Sigma* derived (a
    singular R is refused), invariants unchecked.  The bundle holds read-only
    copies: the caller's arrays stay as they were, writeable or not."""
    R, R1, p, phi, phi1, C = (_frozen(np.array(a, dtype=complex))
                              for a in (R, R1, p, phi, phi1, C))
    try:
        q = phi @ np.linalg.solve(R, p)
        sigma = phi1 @ R1 @ np.linalg.solve(R, phi.conj().T)  # Sigma* = phi1 R1 R^{-1} phi*
    except np.linalg.LinAlgError as exc:
        raise BundleInvariantError(f"R is not invertible ({exc}), so q and Sigma* "
                                   "are undefined") from None
    qhat = C @ np.conj(q)
    return OperatorBundle(
        dim=len(p), R=R, R1=R1, p=p, q=_frozen(q), qhat=_frozen(qhat), phi=phi,
        phi1=phi1, Jp=C, sigma_star=_frozen(sigma), layout=layout)


def assemble_from_operators(R, R1, p, phi, phi1, C, layout: BlockLayout) -> OperatorBundle:
    """Finish a bundle from its constituent operators and check the invariants.

    Used by the bundle.v1 parser and by tests that transform a bundle (change
    of basis, gauge rotation) and need the derived objects recomputed.
    """
    return _validate_bundle(_from_operators(R, R1, p, phi, phi1, C, layout))


def bundle_residuals(b: OperatorBundle) -> dict:
    """Each defining identity of ``b`` by name, mapped to ``(residual, bound)``.

    The first two rows hold R and R1 to the spectra the layout names; their
    bound is the roundoff bound of a product with R that the commutation rows
    use, since eigh(R1) is backward stable and the builder's R is exact.  The
    conjugation acts by ``x -> C conj(x)``: it is unitary, involutive,
    fixes p and commutes with R and R1, and a matrix T is Jp-symmetric when
    ``T* = C conj(T) conj(C)``.  Unitary and involutive make C symmetric, so
    ``<y, Jp x> = <x, Jp y>``; Jp is antilinear by construction.

    The last row holds the symbol's two forms together: with
    ``X = Sigma-hat* C - C conj(Sigma*)``, <q, (Sigma*)^k p> and
    <(Sigma-hat*)^k p, q-hat> differ by at most k ||X|| ||p|| ||q|| plus the
    "Jp fixes p" and "Jp unitary" residuals.  Its bound holds that term to
    1e-10 ||p|| ||q|| up to k = 2 TRUNCATION_CAP - 2, where ||p|| ||q||
    bounds every |gamma_k| since Sigma* is a contraction.  Every bound is
    relative: scaling the spectrum by s multiplies R, R1 and p by s and leaves
    Sigma*, phi, phi1 and C as they are, so it scales each residual and its
    bound alike (README, Numerical conventions).
    """
    r2 = b.r_norm**2
    eye = np.eye(b.dim)
    C = b.Jp
    commute = COMMUTE_RTOL * b.r_norm * b.dim

    def norm(M) -> float:
        return float(np.linalg.norm(M))

    def jsym(M) -> float:
        return norm(M.conj().T - C @ np.conj(M) @ np.conj(C))

    # The layout names R's level on each block, and so R1's spectrum: lambda_k
    # on one vector fewer than its block, mu_k on one more.  The
    # partial-isometry row reads ker R1 off the layout, so these come first.
    lay = b.layout
    levels = lay.lam + lay.mu
    r = np.zeros(b.dim)
    for block, level in zip(lay.lam_blocks + lay.mu_blocks, levels):
        r[list(block)] = level
    r1 = np.repeat(levels, [len(block) - 1 for block in lay.lam_blocks]
                   + [len(block) + 1 for block in lay.mu_blocks])
    # phi1 must be isometric exactly on (ker R1)^perp and zero on ker R1.
    # ker R1 is ker(R1 - mu_n I) at a terminal zero and trivial otherwise; it
    # leads the ascending eigh(R1), as level_projections reads it.
    kernel_dim = lay.mu_eigdim(lay.n_levels - 1) if lay.mu[-1] == 0.0 else 0
    kernel = b.r1_eigh[1][:, :kernel_dim]
    isometry = b.phi1.conj().T @ b.phi1 - (eye - kernel @ kernel.conj().T)
    return {
        "R matches layout": (norm(b.R - np.diag(r)), commute),
        "R1 matches layout": (float(np.abs(b.r1_eigh[0] - np.sort(r1)).max()), commute),
        "R hermitian": (norm(b.R - b.R.conj().T), RANK_ONE_RTOL * r2),
        "rank-one relation": (norm(b.R @ b.R - b.R1 @ b.R1 - np.outer(b.p, b.p.conj())),
                              RANK_ONE_RTOL * r2 * b.dim),
        "phi unitary": (norm(b.phi @ b.phi.conj().T - eye), 1e-10),
        "phi commutes with R": (norm(b.phi @ b.R - b.R @ b.phi), commute),
        "phi1 commutes with R1": (norm(b.phi1 @ b.R1 - b.R1 @ b.phi1), commute),
        "defect identity": (norm(eye - b.sigma_star.conj().T @ b.sigma_star
                                 - np.outer(b.q, b.q.conj())), DEFECT_TOL),
        "Jp involutive": (norm(C @ np.conj(C) - eye), CONJUGATION_TOL),
        "Jp fixes p": (norm(b.conjugate(b.p) - b.p),
                       CONJUGATION_TOL * norm(b.p)),
        "phi Jp-symmetric": (jsym(b.phi), 1e-9 * b.dim),
        "phi1 Jp-symmetric": (jsym(b.phi1), 1e-9 * b.dim),
        "phi1 partial isometry": (norm(isometry), 1e-9),
        "Jp unitary": (norm(C.conj().T @ C - eye), CONJUGATION_TOL),
        "Jp commutes with R": (norm(C @ np.conj(b.R) - b.R @ C), commute),
        "Jp commutes with R1": (norm(C @ np.conj(b.R1) - b.R1 @ C), commute),
        "Jp intertwines Sigma* and Sigma-hat*": (
            norm(b.sigma_hat_star @ C - C @ np.conj(b.sigma_star)),
            1e-10 / (2 * TRUNCATION_CAP - 2)),
    }


def _validate_bundle(b: OperatorBundle) -> OperatorBundle:
    """Return ``b`` if it satisfies its defining identities; raise
    BundleInvariantError naming the first one over its bound.  The table is
    evaluated once per bundle that passes (``OperatorBundle._laws_hold``)."""
    b._laws_hold  # raises for a bundle over a bound, on every call
    return b


def _secular_vectors(s: IntertwinedSpectrum):
    """``(p, V)``: the weight vector and the unit eigenvectors of
    ``diag(lambda^2) - p p*``, column k for the eigenvalue ``mu_k^2``.

    ``V[:, k]`` is ``X[:, k] / |X[:, k]|`` with ``X[i, k] = p_i / (lambda_i^2
    - mu_k^2)``.  By the secular equation ``X[:, k] . p = 1 > 0``, so every
    column has a fixed sign.
    """
    p = np.sqrt(borg_weights(s))
    X = p[:, None] / (s.lam2[:, None] - s.mu2[None, :])
    return p, X / np.linalg.norm(X, axis=0)


def _measure_frame(weights: np.ndarray) -> np.ndarray:
    """Real orthogonal map sending e_0 to sqrt(weights) of a probability measure."""
    b = np.sqrt(weights / weights.sum())
    d = len(b)
    v = b - np.eye(d)[:, 0]
    nv2 = float(v @ v)
    if nv2 <= 1e-30:
        return np.eye(d)
    return np.eye(d) - 2.0 * np.outer(v, v) / nv2


def _phase_block(m: AtomicMeasure, where: str) -> np.ndarray:
    """Unitary on a level block whose spectral measure w.r.t. e_0 is ``m``.
    A point mass is its own 1 x 1 block, as its frame is ``[[1]]``; a
    vanishing weight among several atoms breaks *-cyclicity."""
    if len(m.points) == 1:
        return m.points[None, :]
    if np.any(m.weights <= 1e-14):
        raise SupportNotCyclicError(f"{where}: zero atom weight breaks *-cyclicity")
    H = _measure_frame(m.weights)
    return (H * m.points) @ H.T


@lru_cache(maxsize=1)
def _build(d: CompactSpectralData) -> OperatorBundle:
    """The bundle for ``d``, invariants unchecked.

    The last data object's bundle is kept: the generators' contraction guard
    builds the bundle of the draw it returns, and ``assemble`` of that draw,
    or a repeated ``assemble`` of the same object, reads it back with the
    orbit and the factorizations it has already derived.  Data objects hash
    by identity, and one slot holds one bundle, so a batch of data never
    holds a batch of bundles.

    Every level is read as the atoms of its measure; a cyclic phase is a
    point mass.  The lambda_k block of R has one index per atom of rho_k and
    carries ``p_k = sqrt(w_k) e_0``; the mu_k block has one index fewer than
    rho1_k has atoms.  phi is the rho_k phase block on each lambda block and
    the identity on the mu blocks.

    R1 and phi1 are written in R1's eigenbasis E taken in level order, the
    order :func:`level_projections` reads: lambda_k's extra indices, then the
    core column ``V[:, k]`` of :func:`_secular_vectors` on ``h0_indices``,
    then the mu_k block.  There ``R1 = E diag(r1) E*`` and
    ``phi1 = E Phi1 E*``, with Phi1 block diagonal: the identity on the
    lambda extras, the rho1_k phase block on ker(R1 - mu_k I), and zero on
    ker R1 at a terminal zero.  For cyclic data E = V and every block is
    1 x 1, so ``R1 = V diag(mu) V*`` and ``phi1 = V diag(eta) V*``.
    """
    s = d.spectrum
    lam_sizes = [len(m.points) for m in d.rho]
    mu_sizes = [0 if m is None else len(m.points) - 1 for m in d.rho1]
    layout = BlockLayout.from_sizes(s.lam, s.mu, lam_sizes, mu_sizes)
    dim = layout.dim
    r = np.repeat(np.concatenate([s.lam, s.mu]), lam_sizes + mu_sizes)
    h0 = list(layout.h0_indices)
    p_h0, V = _secular_vectors(s)
    p = np.zeros(dim)
    p[h0] = p_h0

    # Column j of E is e_order[j], except that the core columns hold V on
    # h0; Phi1's blocks are the contiguous runs of columns per level.
    phi = np.eye(dim, dtype=complex)
    Phi1 = np.eye(dim, dtype=complex)
    order, core = [], []
    for k, (lam_b, mu_b) in enumerate(zip(layout.lam_blocks, layout.mu_blocks)):
        block = slice(lam_b[0], lam_b[0] + len(lam_b))
        phi[block, block] = _phase_block(d.rho[k], f"rho[{k}]")
        order += lam_b[1:]
        core.append(len(order))
        order += lam_b[:1] + mu_b
        block = slice(core[k], len(order))
        # phi1 vanishes on ker R1 at a terminal zero
        Phi1[block, block] = 0.0 if d.rho1[k] is None else _phase_block(d.rho1[k], f"rho1[{k}]")
    E = np.zeros((dim, dim))
    E[order, range(dim)] = 1.0
    E[np.ix_(h0, core)] = V
    r1 = r[order]       # R1 agrees with R off the core columns
    r1[core] = s.mu
    R1 = (E * r1) @ E.T
    phi1 = E @ Phi1 @ E.T

    return _from_operators(np.diag(r), R1, p, phi, phi1, np.eye(dim), layout)


def assemble(d: CompactSpectralData) -> OperatorBundle:
    """The bundle for ``d``, its invariants checked.

    The check runs once per bundle: ``assemble(d)`` again, or after
    ``hankel_from_data(d)``, reads the memoized bundle's verdict.  A bundle
    that breaks a law caches none, so it is refused on every call.
    """
    return _validate_bundle(_build(d))


def level_projections(b: OperatorBundle):
    """Per-level data derived from the bundle: (p_k, p1_k) vectors.

    p_k is supported on the k-th lambda block; p1_k is the projection of p
    onto ker(R1 - mu_k I), read off the bundle's ``eigh(R1)`` by position.
    Sorted descending, R1's eigenvalues come in layout order: lambda_1
    (``lam_dim(0) - 1`` copies), mu_1 (``mu_eigdim(0)`` copies), lambda_2,
    and so on, since the chain interlaces strictly.
    """
    lay = b.layout
    vecs = b.r1_eigh[1][:, ::-1]
    p_ks = []
    p1_ks = []
    pos = 0
    for k in range(lay.n_levels):
        pk = np.zeros(b.dim, dtype=complex)
        idx = list(lay.lam_blocks[k])
        pk[idx] = b.p[idx]
        p_ks.append(pk)
        pos += lay.lam_dim(k) - 1
        basis = vecs[:, pos:pos + lay.mu_eigdim(k)]
        pos += lay.mu_eigdim(k)
        p1_ks.append(basis @ (basis.conj().T @ b.p))
    return p_ks, p1_ks
