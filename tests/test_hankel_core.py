import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import hankel_spectra as hs
from hankel_spectra import serialize
from hankel_spectra.errors import (
    ClusterAmbiguityError,
    DegenerateMeasureError,
    DegenerateSpectrumError,
    TruncationTooSmallError,
)
from hankel_spectra.hankel_core import _orthogonal_complement_in_level, _unitary_spectral_measure
from hankel_spectra.operator_assembly import TRUNCATION_CAP, orbit
from hankel_spectra.random_data import random_cyclic_data, random_multiplicity_data
from hankel_spectra.roundtrip import atoms_difference, run_roundtrip_trial

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def dense_shifted(h):
    """The dense truncation of Gamma S: columns shifted left, zero last column."""
    out = np.zeros((h.N, h.N), dtype=complex)
    out[:, :-1] = h.entries[:, 1:]
    return out


class TestGammaSequence:
    def test_rank1(self, rank1_data):
        b = hs.assemble(rank1_data)
        g = hs.gamma_sequence(b, 5)
        np.testing.assert_allclose(g, [1, 0, 0, 0, 0, 0], atol=1e-15)

    def test_rank1_phase(self):
        s = hs.validate_intertwining([1.0], [0.0])
        theta = 0.77
        d = hs.CompactSpectralData.cyclic(s, [np.exp(1j * theta)], [0.0])
        g = hs.gamma_sequence(hs.assemble(d), 3)
        assert g[0] == pytest.approx(np.exp(1j * theta))
        np.testing.assert_allclose(g[1:], 0, atol=1e-15)

    def test_rank2_gamma0_oracle(self, rank2_data):
        # inner-product oracle in the diagonal representation:
        # gamma_0 = <q, p> = sum_k a_k xi_k / lam_k = (8/3)/2 + (1/3)/1
        b = hs.assemble(rank2_data)
        assert hs.gamma_sequence(b, 0)[0] == pytest.approx(5.0 / 3.0)

    def test_gamma_matches_diagonal_sum(self):
        rng = np.random.default_rng(7)
        d = random_cyclic_data(rng, 5, max_contraction=0.97)
        b = hs.assemble(d)
        expected0 = np.sum(hs.borg_weights(d.spectrum) * np.asarray(d.xi) / d.spectrum.lam)
        assert hs.gamma_sequence(b, 0)[0] == pytest.approx(expected0)

    def test_matches_the_explicit_formula(self, explicit_formula_symbol):
        # the whole symbol up to gamma_{2N-2}, N the certified truncation
        # (TRUNCATION_CAP where none certifies), against the bundle-free formula
        rng = np.random.default_rng(4242)
        draws = [(random_cyclic_data, n, {}) for n in range(1, 17)]
        draws += [(random_multiplicity_data, n, {"max_atoms": 4}) for n in range(1, 9)]
        for draw, n, options in draws:
            for _ in range(3):
                d = draw(rng, n, **options)
                b = hs.assemble(d)
                try:
                    N = hs.certified_truncation(b)
                except TruncationTooSmallError:
                    N = TRUNCATION_CAP
                gamma = hs.gamma_sequence(b, 2 * N - 2)
                oracle = explicit_formula_symbol(d, 2 * N - 2)
                top = np.abs(gamma).max()
                assert np.abs(gamma - oracle).max() <= 1e-13 * top, (d.mode, n, N)


class TestHankelFromData:
    def test_rank1_matrix(self, rank1_data):
        h = hs.hankel_from_data(rank1_data, N=4)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_allclose(h.entries, expected, atol=1e-15)

    def test_rank2_singular_values(self, rank2_data):
        h = hs.hankel_from_data(rank2_data)
        sv = h.singular_values()
        np.testing.assert_allclose(sv[:2], [2.0, 1.0], rtol=1e-8)
        assert sv[2] <= 1e-10

    def test_positive_terminal_mu(self):
        # lam=[1], mu=[0.5]: weight 0.75; shifted truncation has top value 0.5
        s = hs.validate_intertwining([1.0], [0.5])
        assert hs.borg_weights(s)[0] == pytest.approx(0.75)
        d = hs.CompactSpectralData.cyclic(s, [1.0], [1.0])
        h = hs.hankel_from_data(d)
        sv1 = np.linalg.svd(dense_shifted(h), compute_uv=False)
        assert sv1[0] == pytest.approx(0.5, rel=1e-10)
        assert sv1[1] <= 1e-10

    def test_shift_intertwining_interior(self, rank2_data):
        h = hs.hankel_from_data(rank2_data)
        GS = h.entries @ np.diag(np.ones(h.N - 1), -1)  # Gamma S
        SG = np.diag(np.ones(h.N - 1), 1) @ h.entries   # S* Gamma
        interior = np.abs(GS - SG)[: h.N - 1, : h.N - 1]
        assert interior.max() <= 1e-10

    def test_hermitian_symmetric_exactly(self, rank2_data):
        h = hs.hankel_from_data(rank2_data)
        assert np.array_equal(h.entries, h.entries.T)

    def test_truncation_too_small(self, rank2_data):
        with pytest.raises(TruncationTooSmallError):
            hs.hankel_from_data(rank2_data, N=6)

    def test_uncertified_small_truncation_allowed(self, rank2_data, uncertified):
        # a truncation below the certified N is the leading part of the symbol
        h = uncertified(rank2_data, 6)
        assert h.N == 6
        np.testing.assert_allclose(h.gamma, hs.hankel_from_data(rank2_data).gamma[:11],
                                   rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("N", [0, hs.hankel_core.TRUNCATION_CAP + 1])
    def test_explicit_truncation_outside_the_cap(self, rank2_data, N):
        # the symbol law covers coefficients up to 2 TRUNCATION_CAP - 2
        with pytest.raises(TruncationTooSmallError):
            hs.hankel_from_data(rank2_data, N=N)
        cap = hs.hankel_core.TRUNCATION_CAP
        assert hs.hankel_from_data(rank2_data, N=cap).N == cap

    def test_auto_truncation_cap(self):
        # a contraction this close to the circle cannot certify within the cap
        s = hs.validate_intertwining([1.0, 0.9], [0.999, 0.899])
        d = hs.CompactSpectralData.cyclic(s, [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(TruncationTooSmallError):
            hs.hankel_from_data(d)


class TestOneOrbitWalk:
    """Synthesis walks the orbit of Sigma* once: the certified N, the tail at
    an explicit N and the symbol all read the bundle's one array."""

    @pytest.fixture
    def data(self):
        # certifies well past the orbit's first 64 columns, so the walk grows
        d = random_cyclic_data(np.random.default_rng(3), 6, max_contraction=0.97)
        assert hs.certified_truncation(hs.assemble(d)) > 64
        return d

    @pytest.mark.parametrize("explicit", [False, True])
    def test_sigma_star_walked_once(self, monkeypatch, data, explicit):
        from hankel_spectra import hankel_core, operator_assembly

        calls = []
        real = operator_assembly.orbit

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(operator_assembly, "orbit", spy)
        monkeypatch.setattr(hankel_core, "orbit", spy)
        b = hs.assemble(data)
        N = hs.certified_truncation(b) if explicit else "auto"
        calls.clear()
        # an equal data object of its own: ``data``'s bundle is memoized
        # and has already walked its orbit above
        fresh = hs.CompactSpectralData(data.spectrum, data.rho, data.rho1)
        h = hs.hankel_from_data(fresh, N=N)
        starts = [c for c in calls if np.array_equal(c[0], b.sigma_star)
                  and np.array_equal(c[1], b.p)]
        assert len(starts) == 1
        # no orbit of Sigma-hat*: the bundle law stands for the second formula
        assert not [c for c in calls if np.array_equal(c[0], b.sigma_hat_star)]
        assert h.N > 64

    def test_explicit_truncation_boundary(self, bundle_corpus, data):
        # c - 1 fails the tail bound only when it is still above the dim + 2 floor
        bundles = [b for b in bundle_corpus + [hs.assemble(data)]
                   if hs.certified_truncation(b) > b.dim + 2]
        assert len(bundles) >= 3
        for b in bundles:
            c = hs.certified_truncation(b)
            with pytest.raises(TruncationTooSmallError):
                hs.hankel_from_bundle(b, N=c - 1)
            h = hs.hankel_from_bundle(b, N=c)
            assert h.N == c
            np.testing.assert_array_equal(h.gamma, hs.hankel_from_bundle(b).gamma)


class TestSymbolCrossCheck:
    """The two symbol formulas agree by the bundle law "Jp intertwines Sigma*
    and Sigma-hat*", checked once at assembly in place of a second walk."""

    ROW = "Jp intertwines Sigma* and Sigma-hat*"

    def test_inconsistent_tuple_is_caught(self, rank2_data):
        # a conjugation that fails to fix p breaks the identity between the
        # two symbol formulas; assembly refuses the tuple
        from hankel_spectra.errors import BundleInvariantError
        from hankel_spectra.operator_assembly import _from_operators

        b = hs.assemble(rank2_data)
        bad_conjugation = np.diag(np.exp(1j * np.array([0.4, 1.3])))
        ops = (b.R, b.R1, b.p, b.phi, b.phi1, bad_conjugation, b.layout)
        with pytest.raises(BundleInvariantError):
            hs.assemble_from_operators(*ops)
        residual, bound = hs.bundle_residuals(_from_operators(*ops))[self.ROW]
        assert residual > bound

    @pytest.mark.parametrize("seed", [2, 9])
    @pytest.mark.parametrize("which", ["phi", "phi1"])
    def test_asymmetric_phase_rotation_is_refused(self, which, seed):
        # phi (phi1) times exp(i eps G), G real symmetric inside the
        # three-dimensional eigenspace of R at lambda_1 (of R1 at mu_1): it
        # commutes with R (R1), stays unitary (a partial isometry) and is
        # Jp-asymmetric by about eps, inside the 1e-9 * dim of its
        # "Jp-symmetric" row.  Walking both symbol formulas to 2N - 2 tells
        # the phi rotation by a drift of 5e-10 to 8e-10 and misses the phi1
        # one: with phi symmetric and commuting with R, and phi1 commuting
        # with R1, the two formulas are transposes of each other.  The law
        # row refuses both, and is the only row to.
        from hankel_spectra.errors import BundleInvariantError
        from hankel_spectra.operator_assembly import _from_operators, _validate_bundle
        from hankel_spectra.spectral_data import AtomicMeasure

        rng = np.random.default_rng(seed)
        s = hs.validate_intertwining([1.0, 0.5], [0.8, 0.2])
        atoms = AtomicMeasure(points=np.exp(2j * np.pi * np.sort(rng.random(3))),
                              weights=rng.dirichlet(np.ones(3)))
        point = AtomicMeasure.point_mass(np.exp(1j * rng.random()))
        b = hs.assemble(hs.CompactSpectralData(s, [atoms, point], [atoms, point]))
        level, op = (1.0, b.R) if which == "phi" else (0.8, b.R1)
        evals, vecs = np.linalg.eigh(op.real)
        v = vecs[:, np.abs(evals - level) < 1e-9]
        assert v.shape[1] == 3
        w, Z = np.linalg.eigh(1e-9 * v @ np.diag([1.0, -1.0, 0.5]) @ v.T)
        rotation = (Z * np.exp(1j * w)) @ Z.conj().T
        ops = {"R": b.R, "R1": b.R1, "p": b.p, "phi": b.phi, "phi1": b.phi1, "C": b.Jp,
               "layout": b.layout}
        ops[which] = ops[which] @ rotation
        bad = _from_operators(**ops)
        rows = hs.bundle_residuals(bad)
        assert [name for name, (r, bound) in rows.items() if not r <= bound] == [self.ROW]
        with pytest.raises(BundleInvariantError, match=re.escape(self.ROW)):
            hs.assemble_from_operators(**ops)
        # a refusal is not cached: the same bundle is refused on every check
        for _ in range(2):
            with pytest.raises(BundleInvariantError, match=re.escape(self.ROW)):
                _validate_bundle(bad)

    @pytest.mark.parametrize("scale", [1e-40, 1e-6, 1e2, 1e3])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_scaled_spectrum_is_accepted(self, seed, scale):
        # multiplying lambda and mu by s leaves Sigma*, Sigma-hat*, q and C
        # as they are and multiplies p and gamma by s: the row's residual is
        # the same roundoff at every scale, so its bound must not move with
        # ||p||.  A bound of 1e-10 / ((2 TRUNCATION_CAP - 2) ||p|| ||q||)
        # refuses these draws at s = 1e2.
        d = random_multiplicity_data(np.random.default_rng(seed), 6, max_contraction=0.97)
        scaled = hs.CompactSpectralData(
            hs.validate_intertwining(scale * d.spectrum.lam, scale * d.spectrum.mu),
            d.rho, d.rho1)
        b1, b = hs.assemble(d), hs.assemble(scaled)
        assert all(r <= bound for r, bound in hs.bundle_residuals(b).values())
        h1, h = hs.hankel_from_data(d), hs.hankel_from_data(scaled)
        K = 2 * min(h1.N, h.N) - 2  # the tail tolerance is absolute: small data stop early
        scale_gamma = float(np.abs(h1.gamma).max())
        np.testing.assert_allclose(h.gamma[:K + 1] / scale, h1.gamma[:K + 1], rtol=0,
                                   atol=1e-12 * scale_gamma)
        np.testing.assert_allclose(hs.gamma_sequence(b, K) / scale, hs.gamma_sequence(b1, K),
                                   rtol=0, atol=1e-12 * scale_gamma)


def _rational_symbol(rng, N, poles=5, modulus=(0.5, 0.9)):
    """gamma_k = sum_i c_i z_i^k with |z_i| in `modulus`: rank `poles`; at
    the default |z_i| <= 0.9, |z_i|^k < 1e-16 from k = 350 on."""
    z = rng.uniform(*modulus, poles) * np.exp(2j * np.pi * rng.random(poles))
    c = rng.standard_normal(poles) + 1j * rng.standard_normal(poles)
    return (c[None, :] * z[None, :] ** np.arange(2 * N - 1)[:, None]).sum(axis=1)


class TestMatrixFreeOperator:
    @pytest.mark.parametrize("N", [1, 2, 3, 17, 385, 1024])
    def test_products_match_dense(self, N):
        rng = np.random.default_rng(N)
        h = hs.HankelMatrix.from_gamma(
            rng.standard_normal(2 * N - 1) + 1j * rng.standard_normal(2 * N - 1), N)
        G = h.entries
        dense = {False: G, True: G.conj().T}
        scale = float(np.abs(h.gamma).sum())
        for x in (rng.standard_normal(N) + 1j * rng.standard_normal(N),
                  rng.standard_normal((N, 3)) + 1j * rng.standard_normal((N, 3))):
            for adjoint, A in dense.items():
                got = h.apply(x, adjoint)
                assert got.shape == x.shape
                err = float(np.abs(got - A @ x).max())
                assert err <= 1e-12 * scale * float(np.abs(x).max()), adjoint

    @pytest.mark.parametrize("N", [8, 64, 256, 385, 1024])
    def test_singular_values_match_dense_svd(self, N):
        # a random symbol has full rank: at N = 64 and 256 more values than
        # the first block holds, so the range finder must add blocks up to N
        rng = np.random.default_rng(N)
        gamma = (rng.standard_normal(2 * N - 1) if N <= 256
                 else _rational_symbol(rng, N))
        h = hs.HankelMatrix.from_gamma(gamma, N)
        sv = h.singular_values()
        ref = np.linalg.svd(h.entries, compute_uv=False)
        assert sv.shape == (N,)
        assert np.all(np.diff(sv) <= 0)
        keep = int(np.count_nonzero(sv))
        assert keep == (N if N <= 256 else 5)
        assert np.abs(sv[:keep] - ref[:keep]).max() <= 1e-12 * ref[0]
        assert np.all(ref[keep:] <= hs.hankel_core.ZERO_CUT_RTOL * ref[0])

    @pytest.mark.parametrize("rank", [7, 8, 9, 15, 16, 17])
    def test_ranks_across_block_boundaries(self, rank):
        # the draws run 8, 8, 16, ..., and a draw that finds fewer
        # directions than it has columns stops the finder: rank 7 needs one
        # block, ranks 8, 9 and 15 two, ranks 16 and 17 three
        N = 385
        h = hs.HankelMatrix.from_gamma(_rational_symbol(np.random.default_rng(rank), N, rank), N)
        sv = h.singular_values()
        ref = np.linalg.svd(h.entries, compute_uv=False)
        assert int(np.count_nonzero(sv)) == rank
        assert np.abs(sv - ref).max() <= 1e-12 * ref[0]

    @pytest.mark.parametrize("rank", [7, 8, 9, 16, 17])
    def test_shifted_triplets_match_dense_svd(self, rank):
        # Gamma S read off the core M1 = B[:, 1:] conj(Q[:-1]), its matrix in
        # conj(Q) coordinates: the values of M1 W and the subspace their
        # right vectors span, weighted by Gamma S, agree with the dense SVD
        N = 385
        h = hs.HankelMatrix.from_gamma(_rational_symbol(np.random.default_rng(rank), N, rank), N)
        svals, W, _, Q, B = hs.hankel_core._top_singular_triplets(h)
        assert np.allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), atol=1e-14)
        cut = hs.hankel_core.ZERO_CUT_RTOL * svals[0]
        _, svals1, wh1 = np.linalg.svd(B[:, 1:] @ Q[:-1].conj() @ W, full_matrices=False)
        keep1 = svals1 > cut
        svals1, V1 = svals1[keep1], Q.conj() @ W @ wh1[keep1].conj().T
        GS = dense_shifted(h)
        _, ref, vh = np.linalg.svd(GS)
        keep = int(np.sum(ref > cut))
        assert len(svals1) == keep
        assert np.abs(svals1 - ref[:keep]).max() <= 1e-12 * svals[0]
        ref_proj = vh[:keep].conj().T @ vh[:keep]
        assert np.linalg.norm(GS @ (ref_proj - V1 @ V1.conj().T), 2) <= 1e-12 * svals[0]

    def test_slow_decay_matches_dense_svd(self):
        # 60 poles of modulus 0.9-0.99: the values decay slowly, over seven
        # decades, the case power iterations sharpen; one pass keeps every
        # value above the cut to 1e-12 sigma_1, and the same count
        N = 385
        h = hs.HankelMatrix.from_gamma(
            _rational_symbol(np.random.default_rng(60), N, 60, modulus=(0.9, 0.99)), N)
        sv = h.singular_values()
        ref = np.linalg.svd(h.entries, compute_uv=False)
        cut = hs.hankel_core.ZERO_CUT_RTOL * ref[0]
        keep = int(np.sum(ref > cut))
        assert int(np.count_nonzero(sv)) == keep
        assert np.abs(sv[:keep] - ref[:keep]).max() <= 1e-12 * ref[0]

    @staticmethod
    def _apply_widths(monkeypatch):
        widths = []
        apply = hs.HankelMatrix.apply

        def spy(self, x, adjoint=False):
            widths.append(np.shape(x)[1] if np.ndim(x) == 2 else 1)
            return apply(self, x, adjoint)

        monkeypatch.setattr(hs.HankelMatrix, "apply", spy)
        return widths

    def test_rank_one_shift_does_not_widen_sketch(self, monkeypatch):
        # Gamma S is exactly zero here, but its product through the factor is
        # roundoff; cut against Gamma's own scale, it has no levels.  One
        # first block captures Gamma: its draw finds one direction, so its
        # stacked rows are one column wide, and no later block is drawn.
        # Gamma S and the phases are read off the factor, so the only other
        # product is the rank-one identity residual's
        widths = self._apply_widths(monkeypatch)
        fd = hs.forward_extract(hs.HankelMatrix.from_gamma([1.0] + [0.0] * 598, 300))
        np.testing.assert_allclose(fd.data.spectrum.lam, [1.0])
        np.testing.assert_array_equal(fd.data.spectrum.mu, [0.0])
        assert widths == [hs.hankel_core.SKETCH_BLOCK, 1, 1]

    def test_sketch_follows_the_rank(self, monkeypatch):
        # a rank-6 certified truncation: no product of the forward problem is
        # wider than the first block
        d = random_cyclic_data(np.random.default_rng(6), 6, max_contraction=0.97)
        h = hs.hankel_from_data(d)
        assert int(np.count_nonzero(h.singular_values())) == 6
        widths = self._apply_widths(monkeypatch)
        fd = hs.forward_extract(h)
        assert fd.data.spectrum.n == 6
        assert max(widths) == hs.hankel_core.SKETCH_BLOCK == 8

    def test_later_block_runs_at_the_width_it_finds(self, monkeypatch):
        # rank 9: the first draw of 8 finds 8 directions, so a second block
        # is drawn; its draw finds the one direction left, and its stacked
        # rows are one column wide
        N = 385
        h = hs.HankelMatrix.from_gamma(_rational_symbol(np.random.default_rng(9), N, 9), N)
        widths = self._apply_widths(monkeypatch)
        assert int(np.count_nonzero(h.singular_values())) == 9
        assert widths == [8, 8, 8, 1]

    def test_zero_symbol_has_no_values(self):
        h = hs.HankelMatrix.from_gamma(np.zeros(9), 5)
        np.testing.assert_array_equal(h.singular_values(), np.zeros(5))

    def test_right_vectors_from_the_core(self):
        # W from the k x k core M = B conj(Q): V = conj(Q) W is orthonormal,
        # and right singular vectors of the dense Gamma to roundoff
        N = 385
        h = hs.HankelMatrix.from_gamma(_rational_symbol(np.random.default_rng(16), N, 16), N)
        svals, W, M, Q, B = hs.hankel_core._top_singular_triplets(h)
        assert M.shape == (16, 16) and M.tobytes() == (B @ Q.conj()).tobytes()
        V = Q.conj() @ W
        G = h.entries
        eps = np.finfo(float).eps
        assert len(svals) == 16
        assert np.linalg.norm(V.conj().T @ V - np.eye(16), 2) <= 64 * eps
        residual = np.linalg.norm(G.conj().T @ (G @ V) - V * svals ** 2, 2)
        assert residual <= 64 * eps * svals[0] ** 2


class TestSketchStream:
    @pytest.mark.parametrize("N", [385, 4096])
    def test_blocks_are_fresh_generator_draws(self, N):
        # blocks 8, 8, 16 read the stream as one generator per call drew them;
        # at N = 4096 the third block lies past the retained values
        rng = np.random.default_rng(17)
        assert hs.hankel_core.RANGE_FINDER_SEED == 17
        start = 0
        for width in (8, 8, 16):
            want = rng.standard_normal((N, width)) + 1j * rng.standard_normal((N, width))
            got = hs.hankel_core._sketch_block(N, start, width)
            assert got.tobytes() == want.tobytes()
            start += width

    def test_windows_across_the_cap(self):
        # SKETCH_STREAM_CAP = 2 * 4096 * 16 values, so at N = 4096 the head
        # ends after column 16, and at N = 1000 inside column 65: windows
        # before, across and past it read the generator's single stream
        assert hs.hankel_core.SKETCH_STREAM_CAP == 2 * 4096 * 16
        for N, windows in [(4096, [(0, 8), (8, 8), (0, 16), (8, 16), (16, 8), (24, 40), (0, 1)]),
                           (1000, [(60, 8), (64, 4), (65, 3), (66, 2), (70, 30)])]:
            want = np.random.default_rng(17).standard_normal(2 * N * 100)
            for start, width in windows:
                lo, n = 2 * N * start, N * width
                got = hs.hankel_core._sketch_block(N, start, width)
                assert got.real.tobytes() == want[lo:lo + n].tobytes()
                assert got.imag.tobytes() == want[lo + n:lo + 2 * n].tobytes()

    def test_retained_values_stay_bounded(self):
        # rank 17 at N = 4096 draws 8, 8 and 16 columns, twice the head; the
        # rest are drawn anew, and the head holds 1 MB
        N = 4096
        h = hs.HankelMatrix.from_gamma(_rational_symbol(np.random.default_rng(17), N, 17), N)
        assert len(hs.hankel_core._top_singular_triplets(h)[0]) == 17
        head, _ = hs.hankel_core._sketch_head()
        assert len(head) == hs.hankel_core.SKETCH_STREAM_CAP
        assert head.nbytes == 2 ** 20
        assert not head.flags.writeable

    def test_threads_draw_what_a_serial_call_draws(self):
        # four threads on two cores race to draw a fresh head; each result
        # must match a serial call byte for byte
        sizes = (385, 700, 1024, 2048)
        mats = [hs.HankelMatrix.from_gamma(_rational_symbol(np.random.default_rng(N), N, 9), N)
                for N in sizes]
        core = hs.hankel_core
        serial = [core._top_singular_triplets(h) for h in mats]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                core._sketch_head.cache_clear()
                with ThreadPoolExecutor(len(mats)) as pool:
                    futures = [pool.submit(core._top_singular_triplets, h) for h in mats]
                    threaded = [f.result(timeout=120) for f in futures]
                for want, got in zip(serial, threaded, strict=True):
                    for a, b in zip(want, got, strict=True):
                        assert a.tobytes() == b.tobytes()
        finally:
            sys.setswitchinterval(interval)


def test_truncation_singular_values_of_zero_symbol():
    # q = 0 gives Gamma = 0: N zeros, no division by sigma_1
    S = np.diag([0.5, 0.25]).astype(complex)
    p = np.array([1.0, 1.0], dtype=complex)
    b = SimpleNamespace(sigma_star=S, q=np.zeros(2, dtype=complex),
                        sigma_orbit=lambda n: orbit(S, p, n))
    np.testing.assert_array_equal(hs.hankel_core.truncation_singular_values(b, 6), np.zeros(6))


class TestRankOneIdentity:
    def test_rank1_zero(self, rank1_data):
        h = hs.hankel_from_data(rank1_data, N=4)
        assert hs.rank_one_identity_residual(h) <= 1e-15

    def test_assembled_small(self, bundle_corpus):
        for b in bundle_corpus:
            h = hs.hankel_from_bundle(b)
            assert hs.rank_one_identity_residual(h) <= 1e-8

    @pytest.mark.parametrize("N", [1, 2, 8, 40])
    def test_matches_dense_formula(self, N):
        rng = np.random.default_rng(100 + N)
        h = hs.HankelMatrix.from_gamma(
            rng.standard_normal(2 * N - 1) + 1j * rng.standard_normal(2 * N - 1), N)
        G, GS = h.entries, dense_shifted(h)
        u = np.conj(G[0])
        dense = float(np.linalg.norm(
            G.conj().T @ G - GS.conj().T @ GS - np.outer(u, u.conj())))
        assert hs.rank_one_identity_residual(h) == pytest.approx(dense, rel=1e-12, abs=1e-13)

    def test_negative_control(self, rank2_data, uncertified):
        # the identity holds up to products of tail symbols gamma_{k >= N};
        # an uncertified truncation (certified N is 458) keeps a large tail
        h = uncertified(rank2_data, 8)
        assert np.abs(h.gamma[h.N:]).max() > 0.1
        assert hs.rank_one_identity_residual(h) > 1e-3


class TestKernelDiagnostics:
    """The numerical rank is the count of singular values above the zero cut
    (the rest read as exact zeros), and the kernel is nontrivial exactly when
    that rank is below N."""

    def test_rank1_at_4(self, rank1_data):
        svals = hs.hankel_from_data(rank1_data, N=4).singular_values()
        assert svals[-1] <= 1e-15
        assert np.count_nonzero(svals) < 4

    def test_rank2_at_8(self, rank2_data, uncertified):
        svals = uncertified(rank2_data, 8).singular_values()
        assert svals[-1] <= 1e-10
        assert np.count_nonzero(svals) == 2

    def test_full_rank_has_trivial_kernel(self):
        # five poles at N = 5: rank 5 with sigma_min 5.6e-10, far above the
        # zero cut of 1e-8 * sigma_1 = 5.2e-11, so the kernel is trivial
        z = np.array([0.5, 0.3, -0.2, 0.1, 0.05])
        h = hs.HankelMatrix.from_gamma(1e-3 * (z[None, :] ** np.arange(9)[:, None]).sum(axis=1), 5)
        svals = h.singular_values()
        assert np.count_nonzero(svals) == 5
        assert 1e-10 < svals[-1] < 1e-9

    def test_rank3_numerical_rank(self):
        rng = np.random.default_rng(9)
        d = random_cyclic_data(rng, 3, max_contraction=0.97)
        h = hs.hankel_from_data(d)
        svals = h.singular_values()
        assert np.count_nonzero(svals) == 3
        assert 3 < h.N


class TestForwardExtract:
    def test_rank1_projection(self):
        h = hs.HankelMatrix.from_gamma([1.0, 0, 0, 0, 0, 0, 0], 4)
        fd = hs.forward_extract(h)
        np.testing.assert_allclose(fd.data.spectrum.lam, [1.0])
        np.testing.assert_allclose(fd.data.spectrum.mu, [0.0])
        np.testing.assert_allclose(fd.w, [1.0])
        assert fd.data.rho[0].points == pytest.approx([1.0])
        assert fd.data.rho1 == (None,)

    def test_rank1_imaginary_phase(self):
        h = hs.HankelMatrix.from_gamma([1j, 0, 0, 0, 0, 0, 0], 4)
        fd = hs.forward_extract(h)
        assert fd.data.rho[0].points == pytest.approx([1j])

    def test_rank2_roundtrip(self, rank2_data):
        errs = run_roundtrip_trial(rank2_data)
        assert max(errs["lam"], errs["mu"]) <= 1e-8
        assert errs["weights"] <= 1e-6
        assert errs["phases"] <= 1e-6

    def test_roundtrip_atom_on_the_seam(self):
        # the atom at angle 0 comes back at angle about -1e-16 and sorts last;
        # the recovery is exact, and so must the reported phase error be
        s = hs.validate_intertwining([1.0], [0.0])
        rho = hs.AtomicMeasure([1.0, -1.0, 1j], [0.3, 0.3, 0.4])
        errs = run_roundtrip_trial(hs.CompactSpectralData(s, [rho], [None]))
        assert errs["phases"] <= 1e-12

    def test_atoms_difference_across_the_seam(self):
        a, b = (hs.AtomicMeasure(np.exp(1j * np.array([t, -1.0])), [0.5, 0.5]) for t in (1e-12, -1e-12))
        assert atoms_difference(a, b) <= 3e-12
        assert atoms_difference(b, a) <= 3e-12

    def test_one_sketch(self, monkeypatch, rank2_data):
        # Gamma S is read off Gamma's captured subspace; the range finder
        # runs once per extraction
        calls = []
        sketch = hs.hankel_core._top_singular_triplets

        def spy(h, *args, **kwargs):
            calls.append(h.N)
            return sketch(h, *args, **kwargs)

        monkeypatch.setattr(hs.hankel_core, "_top_singular_triplets", spy)
        h = hs.hankel_from_data(rank2_data)
        fd = hs.forward_extract(h)
        assert calls == [h.N]
        np.testing.assert_allclose(fd.data.spectrum.mu, [np.sqrt(2.0), 0.0], atol=1e-8)

    @staticmethod
    def _loop_sources():
        for name in ("rank1_cyclic", "rank1_multiplicity", "rank2_cyclic"):
            yield serialize.parse_spectral_data(
                serialize.loads((FIXTURES / f"{name}.json").read_text()))
        # guarded as a roundtrip job's trials are, so every draw certifies
        for seed in range(4):
            rng = np.random.default_rng([seed, 24])
            for n in range(1, 9):
                yield random_cyclic_data(rng, n, max_contraction=0.97)
            for n in range(1, 5):
                yield random_multiplicity_data(rng, n, max_atoms=4, max_contraction=0.97)

    def test_recovered_data_synthesize_the_same_symbol(self):
        # the recovered data are spectral data: fed back to the inverse
        # problem at the same N, they give back the truncation they came from
        count = 0
        for d in self._loop_sources():
            h = hs.hankel_from_data(d)
            again = hs.hankel_from_data(hs.forward_extract(h).data, N=h.N)
            scale = float(np.abs(h.gamma).max())
            assert np.abs(again.gamma - h.gamma).max() <= 1e-12 * scale
            count += 1
        assert count == 3 + 4 * 12

    @pytest.mark.parametrize("name", ["rank1_cyclic", "rank1_multiplicity", "rank2_cyclic"])
    def test_factor_products_match_exact_products(self, monkeypatch, name):
        # Gamma S and the phases read off the rank-sized core agree with the
        # same extraction run on exact products: Q = I and B the dense Gamma,
        # so that M = Gamma, M1 = Gamma S and u_c = u
        doc = serialize.loads((FIXTURES / f"{name}.json").read_text())
        h = hs.hankel_from_data(serialize.parse_spectral_data(doc))
        fd = hs.forward_extract(h)
        sketch = hs.hankel_core._top_singular_triplets

        def exact(h):
            svals, W, _, Q, _ = sketch(h)
            return svals, Q.conj() @ W, h.entries, np.eye(h.N), h.entries

        monkeypatch.setattr(hs.hankel_core, "_top_singular_triplets", exact)
        ref = hs.forward_extract(h)
        def arrays(f):
            return f.data.spectrum.lam, f.data.spectrum.mu, f.w, f.w1

        for got, want in zip(arrays(fd), arrays(ref), strict=True):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        for got, want in zip(fd.data.rho + fd.data.rho1, ref.data.rho + ref.data.rho1, strict=True):
            if want is None:
                assert got is None
            else:
                np.testing.assert_allclose(got.points, want.points, rtol=0, atol=1e-10)
                np.testing.assert_allclose(got.weights, want.weights, rtol=0, atol=1e-10)

    def test_cluster_ambiguity(self):
        # singular values 1 and 1 - 5e-7 fall inside the ambiguity band
        h = hs.HankelMatrix.from_gamma([1.0, 0.0, 1.0 - 5e-7], 2)
        with pytest.raises(ClusterAmbiguityError):
            hs.forward_extract(h)

    def test_levels_outside_the_rank_one_rule_are_refused(self):
        # uncertified truncations: here the value 1 has multiplicity 2 in
        # |Gamma| and 0 in |Gamma S|, a difference the identity rules out
        h = hs.HankelMatrix.from_gamma([1.0, 0.0, 0.0, 0.0, 1.0], 3)
        with pytest.raises(ClusterAmbiguityError, match="multiplicity difference 2"):
            hs.forward_extract(h)
        # and here u = Gamma* e_0 = 0, so no level carries u-mass
        with pytest.raises(DegenerateSpectrumError):
            hs.forward_extract(hs.HankelMatrix.from_gamma([0.0, 0.0, 1.0], 2))
        # here the levels pass the rule, but the tail gamma_4 = 1 breaks the
        # identity they rest on (residual sqrt(2)), so no data is returned
        with pytest.raises(TruncationTooSmallError):
            hs.forward_extract(hs.HankelMatrix.from_gamma([1, 0, 0, 0, 1, 0, 0], 4))

    def test_multiplicity_measures(self):
        rng = np.random.default_rng(10)
        d = random_multiplicity_data(rng, 2, max_atoms=3, max_contraction=0.97)
        errs = run_roundtrip_trial(d)
        assert errs["phases"] <= 1e-6
        assert errs["weights"] <= 1e-6


def haar_unitary(rng, d):
    """A Haar-distributed d x d unitary (QR of a complex Gaussian, phases fixed)."""
    Q, R = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def merged_measure(points, weights, tol=1e-6):
    """Atoms closer than ``tol`` merged into the first of them, weights summed."""
    atoms = []
    for z, w in zip(points, weights):
        near = [a for a in atoms if abs(a[0] - z) < tol]
        if near:
            near[0][1] += w
        else:
            atoms.append([z, w])
    return np.array([a[0] for a in atoms]), np.array([a[1] for a in atoms])


def schur_measure(U):
    """The spectral measure of U w.r.t. e_0 from the complex Schur form, the
    oracle: for a numerically normal U its vectors are orthonormal."""
    T, Z = scipy.linalg.schur(U, output="complex")
    return np.diag(T), np.abs(Z[0]) ** 2


def measure_gap(measure, oracle):
    """Largest atom or weight difference after merging both measures and
    pairing each oracle atom with the nearest atom, or inf when the pairing
    is not one to one."""
    (p, w), (q, v) = merged_measure(measure.points, measure.weights), merged_measure(*oracle)
    k = np.abs(q[:, None] - p[None, :]).argmin(axis=1)
    if len(p) != len(q) or len(set(k.tolist())) != len(q):
        return np.inf
    return max(np.abs(p[k] - q).max(), np.abs(w[k] - v).max())


class TestLevelMeasureKernels:
    """The numpy kernels of a multi-atom level against scipy oracles.  The
    oracle's own error is part of each gap, so a bound states the accuracy
    both reach, not the kernel's alone."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_random_unitaries(self, d):
        rng = np.random.default_rng([31, d])
        for _ in range(50):
            U = haar_unitary(rng, d)
            residuals = {}
            m = _unitary_spectral_measure(U, residuals)
            assert measure_gap(m, schur_measure(U)) <= 1e-12
            assert residuals["phase_unitarity"] <= 1e-13
            assert residuals["atom_modulus"] <= 1e-13

    def test_close_eigenvalues(self):
        # a pair 1e-9 apart: its atoms merge, its weights add up, and the
        # merged atom is either of the pair, so points agree to their distance
        rng = np.random.default_rng(32)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            V = haar_unitary(rng, d)
            z = np.exp(2j * np.pi * rng.random(d))
            z[1] = z[0] * np.exp(1e-9j)
            U = (V * z) @ V.conj().T
            assert measure_gap(_unitary_spectral_measure(U, {}), schur_measure(U)) <= 2e-9

    def test_eigenvalues_at_one_and_minus_one(self):
        # the pole sits in the widest gap, away from both
        rng = np.random.default_rng(33)
        for d in [2] * 10 + [3, 4, 5, 6, 7, 8] * 10:
            V = haar_unitary(rng, d)
            z = np.exp(2j * np.pi * rng.random(d))
            z[:2] = 1.0, -1.0
            U = (V * z) @ V.conj().T
            m = _unitary_spectral_measure(U, {})
            assert measure_gap(m, schur_measure(U)) <= 1e-12
            assert measure_gap(m, (z, np.abs(V[0]) ** 2)) <= 1e-12

    def test_off_unitary_input(self):
        # the phase step's U is unitary up to roundoff; 1e-12 off moves the
        # eigenvectors by about 1e-12 over the eigenvalue gap on both sides
        rng = np.random.default_rng(34)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            U = haar_unitary(rng, d)
            U = U + 1e-12 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            residuals = {}
            m = _unitary_spectral_measure(U, residuals)
            assert measure_gap(m, schur_measure(U)) <= 1e-10
            assert 1e-13 <= residuals["phase_unitarity"] <= 1e-10

    def test_repeated_eigenvalue(self):
        # no basis of the repeated eigenspace is preferred, so its atoms may
        # split into two coincident ones: a structured refusal, or the merged
        # measure, never a wrong one
        rng = np.random.default_rng(35)
        refused = 0
        for _ in range(100):
            d = int(rng.integers(2, 9))
            V = haar_unitary(rng, d)
            z = np.exp(2j * np.pi * rng.random(d))
            z[1] = z[0]
            U = (V * z) @ V.conj().T
            try:
                m = _unitary_spectral_measure(U, {})
            except DegenerateMeasureError as exc:
                assert "coincide" in str(exc)
                refused += 1
                continue
            assert measure_gap(m, (z, np.abs(V[0]) ** 2)) <= 1e-12
        assert 0 < refused < 100

    @pytest.mark.parametrize("first", ["zero", "complex", "real"])
    def test_complement(self, first):
        rng = np.random.default_rng(36)
        for m in range(2, 7):
            basis = np.linalg.qr(rng.standard_normal((12, m))
                                 + 1j * rng.standard_normal((12, m)))[0]
            c = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            c[0] = {"zero": 0.0, "complex": 0.3 - 0.8j, "real": 0.5}[first]
            u_proj = 2.5 * (basis @ c)
            Y = _orthogonal_complement_in_level(basis, u_proj)
            assert Y.shape == (12, m - 1)
            assert np.abs(Y.conj().T @ Y - np.eye(m - 1)).max() <= 1e-14
            assert np.abs(Y.conj().T @ u_proj).max() <= 1e-14 * np.linalg.norm(u_proj)
            # the same subspace as the oracle's null space
            oracle = basis @ scipy.linalg.null_space(
                (basis.conj().T @ u_proj).conj()[None, :])
            assert np.abs(Y @ Y.conj().T - oracle @ oracle.conj().T).max() <= 1e-14


class TestAtomWeightCut:
    """ATOM_WEIGHT_CUT's margins: the weights of a valid level's atoms lie
    far above it, and the roundoff weight of an eigenvector orthogonal to u
    far below it."""

    @staticmethod
    def _light_atom_data(weight, m):
        # one level of m atoms, one of them of the given weight; lighter
        # atoms make Sigma* nearly unitary, and at 1e-3 no truncation within
        # TRUNCATION_CAP certifies
        s = hs.validate_intertwining([2.0, 1.0], [1.5, 0.5])
        w = np.full(m, (1.0 - weight) / (m - 1))
        w[0] = weight
        rho = [hs.AtomicMeasure(np.exp(1j * (2.0 * np.pi * np.arange(m) / m + 0.3)), w),
               hs.AtomicMeasure.point_mass(1j)]
        return hs.CompactSpectralData(s, rho, [hs.AtomicMeasure.point_mass(-1.0)] * 2)

    def test_valid_levels_keep_every_atom(self, monkeypatch):
        # with no cut, each recovered multi-atom level has one eigenvector
        # per atom of its data, every one weighing far above the cut; the
        # trials of the first 8 multiplicity job seeds of roundtrip_batch at
        # workload seed 1, and two levels with an atom of weight 2e-3
        from hankel_spectra.cli import _trial_data

        monkeypatch.setattr(hs.hankel_core, "ATOM_WEIGHT_CUT", 0.0)
        job = serialize.parse_roundtrip_job({"schema": "roundtrip_job.v1",
                                             "mode": "multiplicity", "trials": 16})
        draws = [_trial_data(job, s)
                 for seed in np.random.SeedSequence(1).generate_state(64)[:8]
                 for s in np.random.SeedSequence(int(seed)).spawn(job["trials"])]
        draws += [self._light_atom_data(2e-3, m) for m in (2, 3)]
        kept, levels = 1.0, 0
        for d in draws:
            got = hs.forward_extract(hs.hankel_from_data(d)).data
            for want, m in zip(d.rho + d.rho1, got.rho + got.rho1):
                if want is not None and len(want.weights) > 1:
                    assert len(m.weights) == len(want.weights)
                    kept = min(kept, float(m.weights.min()))
                    levels += 1
        print(f"\n{levels} multi-atom levels, smallest atom weight {kept:.3e}")
        assert levels > 100
        assert kept > 1e8 * hs.hankel_core.ATOM_WEIGHT_CUT

    def test_an_eigenvector_orthogonal_to_u_is_dropped(self, monkeypatch):
        # U's second eigenvector has no e_0 component: its weight is
        # roundoff, and the measure keeps the other d - 1 atoms
        core = hs.hankel_core
        cut = core.ATOM_WEIGHT_CUT
        rng = np.random.default_rng(37)
        dropped = 0.0
        for d in [2, 3, 4, 5, 8] * 20:
            V = haar_unitary(rng, d)
            a, b = V[0, 0], V[0, 1]
            r = np.hypot(abs(a), abs(b))
            V[:, :2] = V[:, :2] @ np.array([[np.conj(a), -b], [np.conj(b), a]]) / r
            z = np.exp(2j * np.pi * (np.arange(d) + rng.uniform(0.2, 0.8, d)) / d)
            U = (V * z) @ V.conj().T
            weights = np.abs(V[0]) ** 2
            want = hs.AtomicMeasure(np.delete(z, 1), np.delete(weights, 1) / (1.0 - weights[1]))
            assert atoms_difference(_unitary_spectral_measure(U, {}), want) <= 1e-12
            monkeypatch.setattr(core, "ATOM_WEIGHT_CUT", 0.0)
            uncut = _unitary_spectral_measure(U, {}).weights    # an exact zero stays out
            monkeypatch.setattr(core, "ATOM_WEIGHT_CUT", cut)
            if len(uncut) == d:
                dropped = max(dropped, float(uncut.min()))
        print(f"\nlargest roundoff weight {dropped:.3e}")
        assert dropped < 1e-6 * cut


class TestIsometrySurrogate:
    def test_telescoping_identity(self, bundle_corpus):
        # sum_k |<(Sigma*)^k x, q>|^2 telescopes against the tail norm
        rng = np.random.default_rng(12)
        for b in bundle_corpus:
            x = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
            K = 300
            total = 0.0
            y = x.copy()
            for _ in range(K + 1):
                total += abs(np.vdot(y, b.q)) ** 2
                y = b.sigma_star @ y
            tail = float(np.linalg.norm(y)) ** 2
            lhs = total
            rhs = float(np.linalg.norm(x)) ** 2 - tail
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(x) ** 2)

    def test_isometry_at_certified_tail(self, rank2_data):
        b = hs.assemble(rank2_data)
        K = hs.certified_truncation(b)
        rng = np.random.default_rng(13)
        x = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
        coeffs = []
        y = x.copy()
        for _ in range(K):
            coeffs.append(np.vdot(y, b.q))
            y = b.sigma_star @ y
        assert np.linalg.norm(y) <= 1e-11
        assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(
            np.linalg.norm(x) ** 2, rel=1e-10)


class TestGaugeInvariance:
    def test_gamma_unchanged_under_commutant(self, admissible_commutant):
        rng = np.random.default_rng(14)
        from hankel_spectra.operator_assembly import assemble_from_operators

        for _ in range(4):
            d = random_multiplicity_data(rng, 2, max_atoms=3, max_contraction=0.97)
            b = hs.assemble(d)
            g = hs.gamma_sequence(b, 50)
            psi = admissible_commutant(rng, b.layout)
            rotated = assemble_from_operators(
                b.R, b.R1, b.p, b.phi @ psi.conj().T, b.phi1 @ psi.conj().T,
                psi @ b.Jp, b.layout)
            g2 = hs.gamma_sequence(rotated, 50)
            assert np.abs(g - g2).max() <= 1e-10
