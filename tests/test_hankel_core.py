import numpy as np
import pytest

import hankel_spectra as hs
from hankel_spectra.errors import (
    ClusterAmbiguityError,
    NotHankelError,
    TruncationTooSmallError,
)
from hankel_spectra.hankel_core import krylov_real_basis
from hankel_spectra.random_data import (
    random_admissible_commutant,
    random_cyclic_data,
    random_multiplicity_data,
)
from hankel_spectra.roundtrip import run_roundtrip_trial


class TestGammaSequence:
    def test_rank1(self, rank1_data):
        b = hs.assemble_cyclic(rank1_data)
        g = hs.gamma_sequence(b, 5)
        np.testing.assert_allclose(g, [1, 0, 0, 0, 0, 0], atol=1e-15)

    def test_rank1_phase(self):
        s = hs.validate_intertwining([1.0], [0.0])
        theta = 0.77
        d = hs.CompactSpectralData.cyclic(s, [np.exp(1j * theta)], [0.0])
        g = hs.gamma_sequence(hs.assemble_cyclic(d), 3)
        assert g[0] == pytest.approx(np.exp(1j * theta))
        np.testing.assert_allclose(g[1:], 0, atol=1e-15)

    def test_rank2_gamma0_oracle(self, rank2_data):
        # inner-product oracle in the diagonal representation:
        # gamma_0 = <q, p> = sum_k a_k xi_k / lam_k = (8/3)/2 + (1/3)/1
        b = hs.assemble_cyclic(rank2_data)
        assert hs.gamma_sequence(b, 0)[0] == pytest.approx(5.0 / 3.0)

    def test_gamma_matches_diagonal_sum(self):
        rng = np.random.default_rng(7)
        d = random_cyclic_data(rng, 5, max_contraction=0.97)
        b = hs.assemble(d)
        rho = hs.borg_weights(d.spectrum)
        expected0 = np.sum(rho.weights * np.asarray(d.xi) / d.spectrum.lam)
        assert hs.gamma_sequence(b, 0)[0] == pytest.approx(expected0)


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
        rho = hs.borg_weights(s)
        assert rho.weights[0] == pytest.approx(0.75)
        d = hs.CompactSpectralData.cyclic(s, [1.0], [1.0])
        h = hs.hankel_from_data(d)
        sv1 = np.linalg.svd(h.shifted(), compute_uv=False)
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
            hs.hankel_from_data(rank2_data, N=6, certified=True)

    def test_uncertified_small_truncation_allowed(self, rank2_data):
        h = hs.hankel_from_data(rank2_data, N=6, certified=False)
        assert h.N == 6

    def test_auto_truncation_cap(self):
        # a contraction this close to the circle cannot certify within the cap
        s = hs.validate_intertwining([1.0, 0.9], [0.999, 0.899])
        d = hs.CompactSpectralData.cyclic(s, [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(TruncationTooSmallError):
            hs.hankel_from_data(d)


class TestSymbolCrossCheck:
    def test_inconsistent_tuple_is_caught(self, rank2_data):
        # a conjugation that fails to fix p breaks the identity between the
        # two symbol formulas, which gamma_sequence refuses
        from hankel_spectra.errors import InternalConsistencyError
        from hankel_spectra.operator_assembly import assemble_from_operators

        b = hs.assemble_cyclic(rank2_data)
        bad_conjugation = np.diag(np.exp(1j * np.array([0.4, 1.3])))
        broken = assemble_from_operators(
            b.R, b.R1, b.p, b.phi, b.phi1, bad_conjugation, b.layout,
            validate=False)
        with pytest.raises(InternalConsistencyError):
            hs.gamma_sequence(broken, 10)


class TestHankelMatrixIngestion:
    def test_from_entries_accepts_hankel(self, rank2_data):
        h = hs.hankel_from_data(rank2_data, N=12, certified=False)
        h2 = hs.HankelMatrix.from_entries(h.entries)
        np.testing.assert_allclose(h2.gamma, h.gamma, atol=1e-14)

    def test_from_entries_rejects_non_hankel(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 6))
        m = m + m.T  # symmetric but not Hankel
        with pytest.raises(NotHankelError):
            hs.HankelMatrix.from_entries(m)


def _rational_symbol(rng, N, poles=5):
    """gamma_k = sum_i c_i z_i^k with |z_i| <= 0.9: rank `poles`, with
    |z_i|^k < 1e-16 from k = 350 on."""
    z = rng.uniform(0.5, 0.9, poles) * np.exp(2j * np.pi * rng.random(poles))
    c = rng.standard_normal(poles) + 1j * rng.standard_normal(poles)
    return (c[None, :] * z[None, :] ** np.arange(2 * N - 1)[:, None]).sum(axis=1)


class TestMatrixFreeOperator:
    @pytest.mark.parametrize("N", [1, 2, 3, 17, 385, 1024])
    def test_products_match_dense(self, N):
        rng = np.random.default_rng(N)
        h = hs.HankelMatrix.from_gamma(
            rng.standard_normal(2 * N - 1) + 1j * rng.standard_normal(2 * N - 1), N)
        G, GS = h.entries, h.shifted()
        dense = {(False, False): G, (False, True): G.conj().T,
                 (True, False): GS, (True, True): GS.conj().T}
        scale = float(np.abs(h.gamma).sum())
        for x in (rng.standard_normal(N) + 1j * rng.standard_normal(N),
                  rng.standard_normal((N, 3)) + 1j * rng.standard_normal((N, 3))):
            for (shifted, adjoint), A in dense.items():
                got = h.apply(x, shifted, adjoint)
                assert got.shape == x.shape
                err = float(np.abs(got - A @ x).max())
                assert err <= 1e-12 * scale * float(np.abs(x).max()), (shifted, adjoint)

    @pytest.mark.parametrize("N", [8, 385, 1024])
    def test_singular_values_match_dense_svd(self, N):
        rng = np.random.default_rng(N)
        gamma = (rng.standard_normal(2 * N - 1) if N == 8
                 else _rational_symbol(rng, N))
        h = hs.HankelMatrix.from_gamma(gamma, N)
        sv = h.singular_values()
        ref = np.linalg.svd(h.entries, compute_uv=False)
        assert sv.shape == (N,)
        assert np.all(np.diff(sv) <= 0)
        keep = int(np.count_nonzero(sv))
        assert keep == (N if N == 8 else 5)
        assert np.abs(sv[:keep] - ref[:keep]).max() <= 1e-12 * ref[0]
        assert np.all(ref[keep:] <= hs.hankel_core.ZERO_CUT_RTOL * ref[0])

    def test_rank_one_shift_does_not_widen_sketch(self, monkeypatch):
        # Gamma S is exactly zero here, but its FFT product is roundoff; cut
        # against Gamma's own scale, it has no levels and the first sketch
        # already captures it
        widths = []
        apply = hs.HankelMatrix.apply

        def spy(self, x, shifted=False, adjoint=False):
            widths.append(np.shape(x)[1] if np.ndim(x) == 2 else 1)
            return apply(self, x, shifted, adjoint)

        monkeypatch.setattr(hs.HankelMatrix, "apply", spy)
        fd = hs.forward_extract(hs.HankelMatrix.from_gamma([1.0] + [0.0] * 598, 300))
        np.testing.assert_allclose(fd.lam, [1.0])
        np.testing.assert_array_equal(fd.mu, [0.0])
        assert max(widths) == 32


class TestRankOneIdentity:
    def test_rank1_zero(self, rank1_data):
        h = hs.hankel_from_data(rank1_data, N=4)
        assert hs.rank_one_identity_residual(h) <= 1e-15

    def test_assembled_small(self, bundle_corpus):
        for b in bundle_corpus:
            h = hs.hankel_from_bundle(b)
            assert hs.rank_one_identity_residual(h) <= 1e-8

    def test_negative_control(self, rank2_data):
        # the identity holds up to products of tail symbols gamma_{k >= N};
        # an uncertified truncation (certified N is 458) keeps a large tail
        h = hs.hankel_from_data(rank2_data, N=8, certified=False)
        assert np.abs(h.gamma[h.N:]).max() > 0.1
        assert hs.rank_one_identity_residual(h) > 1e-3


class TestKernelDiagnostics:
    def test_rank1_at_4(self, rank1_data):
        h = hs.hankel_from_data(rank1_data, N=4)
        report = hs.kernel_diagnostics(h, n=1)
        assert report.sigma_min <= 1e-15
        assert report.nontrivial_kernel

    def test_rank2_at_8(self, rank2_data):
        h = hs.hankel_from_data(rank2_data, N=8, certified=False)
        report = hs.kernel_diagnostics(h, n=2)
        assert report.sigma_min <= 1e-10
        assert report.numerical_rank == 2

    def test_rank3_numerical_rank(self):
        rng = np.random.default_rng(9)
        d = random_cyclic_data(rng, 3, max_contraction=0.97)
        h = hs.hankel_from_data(d)
        report = hs.kernel_diagnostics(h, n=3)
        assert report.numerical_rank == 3
        assert report.nontrivial_kernel

    def test_requires_margin(self, rank2_data):
        h = hs.hankel_from_data(rank2_data, N=3, certified=False)
        with pytest.raises(TruncationTooSmallError):
            hs.kernel_diagnostics(h, n=2)


class TestForwardExtract:
    def test_rank1_projection(self):
        h = hs.HankelMatrix.from_gamma([1.0, 0, 0, 0, 0, 0, 0], 4)
        fd = hs.forward_extract(h)
        np.testing.assert_allclose(fd.lam, [1.0])
        np.testing.assert_allclose(fd.mu, [0.0])
        np.testing.assert_allclose(fd.w, [1.0])
        assert fd.xi[0] == pytest.approx(1.0)
        assert fd.eta == (None,)

    def test_rank1_imaginary_phase(self):
        h = hs.HankelMatrix.from_gamma([1j, 0, 0, 0, 0, 0, 0], 4)
        fd = hs.forward_extract(h)
        assert fd.xi[0] == pytest.approx(1j)

    def test_rank2_roundtrip(self, rank2_data):
        errs = run_roundtrip_trial(rank2_data)
        assert max(errs["lam"], errs["mu"]) <= 1e-8
        assert errs["weights"] <= 1e-6
        assert errs["phases"] <= 1e-6

    def test_cluster_ambiguity(self):
        # singular values 1 and 1 - 5e-7 fall inside the ambiguity band
        h = hs.HankelMatrix.from_gamma([1.0, 0.0, 1.0 - 5e-7], 2)
        with pytest.raises(ClusterAmbiguityError):
            hs.forward_extract(h)

    def test_multiplicity_measures(self):
        rng = np.random.default_rng(10)
        d = random_multiplicity_data(rng, 2, max_atoms=3, max_contraction=0.97)
        errs = run_roundtrip_trial(d)
        assert errs["phases"] <= 1e-6
        assert errs["weights"] <= 1e-6

    def test_rank_hint_mismatch(self, rank2_data):
        h = hs.hankel_from_data(rank2_data)
        with pytest.raises(ClusterAmbiguityError):
            hs.forward_extract(h, rank_hint=3)


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
        b = hs.assemble_cyclic(rank2_data)
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
    def test_gamma_unchanged_under_commutant(self):
        rng = np.random.default_rng(14)
        from hankel_spectra.operator_assembly import assemble_from_operators

        for _ in range(4):
            d = random_multiplicity_data(rng, 2, max_atoms=3, max_contraction=0.97)
            b = hs.assemble(d)
            g = hs.gamma_sequence(b, 50)
            psi = random_admissible_commutant(rng, b.layout)
            rotated = assemble_from_operators(
                b.R, b.R1, b.p, b.phi @ psi.conj().T, b.phi1 @ psi.conj().T,
                psi @ b.Jp, b.layout)
            g2 = hs.gamma_sequence(rotated, 50)
            assert np.abs(g - g2).max() <= 1e-10


class TestKrylovRealBasis:
    def test_reality_and_rank(self, rank2_data):
        b = hs.assemble_cyclic(rank2_data)
        apply_op = lambda x: b.R @ x
        B, ortho, leak = krylov_real_basis(apply_op, b.p.astype(complex), max_dim=4)
        assert B.shape[1] == 2
        assert ortho <= 1e-12
        assert leak <= 1e-12
        # basis vectors are real combinations of real Krylov vectors here
        assert np.abs(B.imag).max() <= 1e-14
