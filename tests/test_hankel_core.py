from pathlib import Path

import numpy as np
import pytest

import hankel_spectra as hs
from hankel_spectra import serialize
from hankel_spectra.errors import (
    ClusterAmbiguityError,
    DegenerateSpectrumError,
    NotHankelError,
    TruncationTooSmallError,
)
from hankel_spectra.random_data import (
    random_admissible_commutant,
    random_cyclic_data,
    random_multiplicity_data,
)
from hankel_spectra.roundtrip import run_roundtrip_trial

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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
            hs.hankel_from_data(rank2_data, N=6)

    def test_uncertified_small_truncation_allowed(self, rank2_data, uncertified):
        # a truncation below the certified N is the leading part of the symbol
        h = uncertified(rank2_data, 6)
        assert h.N == 6
        np.testing.assert_allclose(h.gamma, hs.hankel_from_data(rank2_data).gamma[:11],
                                   rtol=1e-14, atol=1e-15)

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
        h = hs.hankel_from_data(data, N=N)
        starts = [c for c in calls if np.array_equal(c[0], b.sigma_star)
                  and np.array_equal(c[1], b.p)]
        assert len(starts) == 1
        # the cross-check walks Sigma-hat* once, over every emitted gamma
        hats = [c for c in calls if np.array_equal(c[0], b.sigma_hat_star)]
        assert len(hats) == 1 and hats[0][2] == 2 * h.N - 1

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
    def test_inconsistent_tuple_is_caught(self, rank2_data):
        # a conjugation that fails to fix p breaks the identity between the
        # two symbol formulas, which gamma_sequence refuses
        from hankel_spectra.errors import InternalConsistencyError
        from hankel_spectra.operator_assembly import _from_operators

        b = hs.assemble(rank2_data)
        bad_conjugation = np.diag(np.exp(1j * np.array([0.4, 1.3])))
        broken = _from_operators(b.R, b.R1, b.p, b.phi, b.phi1, bad_conjugation, b.layout)
        with pytest.raises(InternalConsistencyError):
            hs.gamma_sequence(broken, 10)


class TestHankelMatrixIngestion:
    def test_from_entries_accepts_hankel(self, rank2_data, uncertified):
        h = uncertified(rank2_data, 12)
        h2 = hs.HankelMatrix.from_entries(h.entries)
        np.testing.assert_allclose(h2.gamma, h.gamma, atol=1e-14)

    def test_from_entries_rejects_non_hankel(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 6))
        m = m + m.T  # symmetric but not Hankel
        with pytest.raises(NotHankelError):
            hs.HankelMatrix.from_entries(m)


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
        # Gamma S read off the captured factor Q B: its values and the
        # subspace they span, weighted by Gamma S, agree with the dense SVD
        N = 385
        h = hs.HankelMatrix.from_gamma(_rational_symbol(np.random.default_rng(rank), N, rank), N)
        svals, V, Q, B = hs.hankel_core._top_singular_triplets(h)
        assert np.allclose(Q.conj().T @ Q, np.eye(Q.shape[1]), atol=1e-14)
        cut = hs.hankel_core.ZERO_CUT_RTOL * svals[0]
        svals1, V1 = hs.hankel_core._shifted_triplets(V, B, cut)
        GS = h.shifted()
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
        np.testing.assert_allclose(fd.lam, [1.0])
        np.testing.assert_array_equal(fd.mu, [0.0])
        assert widths == [hs.hankel_core.SKETCH_BLOCK, 1, 1]

    def test_sketch_follows_the_rank(self, monkeypatch):
        # a rank-6 certified truncation: no product of the forward problem is
        # wider than the first block
        d = random_cyclic_data(np.random.default_rng(6), 6, max_contraction=0.97)
        h = hs.hankel_from_data(d)
        assert int(np.count_nonzero(h.singular_values())) == 6
        widths = self._apply_widths(monkeypatch)
        fd = hs.forward_extract(h)
        assert len(fd.lam) == 6
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
        G, GS = h.entries, h.shifted()
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
    def test_rank1_at_4(self, rank1_data):
        h = hs.hankel_from_data(rank1_data, N=4)
        report = hs.kernel_diagnostics(h, n=1)
        assert report.sigma_min <= 1e-15
        assert report.nontrivial_kernel

    def test_rank2_at_8(self, rank2_data, uncertified):
        h = uncertified(rank2_data, 8)
        report = hs.kernel_diagnostics(h, n=2)
        assert report.sigma_min <= 1e-10
        assert report.numerical_rank == 2

    def test_full_rank_has_trivial_kernel(self):
        # five poles at N = 5: rank 5 with sigma_min 5.6e-10, far above the
        # zero cut of 1e-8 * sigma_1 = 5.2e-11, so the kernel is trivial
        z = np.array([0.5, 0.3, -0.2, 0.1, 0.05])
        h = hs.HankelMatrix.from_gamma(1e-3 * (z[None, :] ** np.arange(9)[:, None]).sum(axis=1), 5)
        report = hs.kernel_diagnostics(h, n=3)
        assert report.numerical_rank == 5
        assert 1e-10 < report.sigma_min < 1e-9
        assert not report.nontrivial_kernel

    def test_rank3_numerical_rank(self):
        rng = np.random.default_rng(9)
        d = random_cyclic_data(rng, 3, max_contraction=0.97)
        h = hs.hankel_from_data(d)
        report = hs.kernel_diagnostics(h, n=3)
        assert report.numerical_rank == 3
        assert report.nontrivial_kernel

    def test_requires_margin(self, rank2_data, uncertified):
        h = uncertified(rank2_data, 3)
        with pytest.raises(TruncationTooSmallError):
            hs.kernel_diagnostics(h, n=2)


class TestForwardExtract:
    def test_rank1_projection(self):
        h = hs.HankelMatrix.from_gamma([1.0, 0, 0, 0, 0, 0, 0], 4)
        fd = hs.forward_extract(h)
        np.testing.assert_allclose(fd.lam, [1.0])
        np.testing.assert_allclose(fd.mu, [0.0])
        np.testing.assert_allclose(fd.w, [1.0])
        assert fd.rho[0].points == pytest.approx([1.0])
        assert fd.rho1 == (None,)

    def test_rank1_imaginary_phase(self):
        h = hs.HankelMatrix.from_gamma([1j, 0, 0, 0, 0, 0, 0], 4)
        fd = hs.forward_extract(h)
        assert fd.rho[0].points == pytest.approx([1j])

    def test_rank2_roundtrip(self, rank2_data):
        errs = run_roundtrip_trial(rank2_data)
        assert max(errs["lam"], errs["mu"]) <= 1e-8
        assert errs["weights"] <= 1e-6
        assert errs["phases"] <= 1e-6

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
        np.testing.assert_allclose(fd.mu, [np.sqrt(2.0), 0.0], atol=1e-8)

    @pytest.mark.parametrize("name", ["rank1_cyclic", "rank1_multiplicity", "rank2_cyclic"])
    def test_factor_products_match_exact_products(self, monkeypatch, name):
        # Gamma S and the phases read off the factor Q B agree with the same
        # extraction run on exact products: Q = I and B the dense Gamma
        doc = serialize.loads((FIXTURES / f"{name}.json").read_text())
        h = hs.hankel_from_data(serialize.parse_spectral_data(doc))
        fd = hs.forward_extract(h)
        sketch = hs.hankel_core._top_singular_triplets

        def exact(h):
            svals, V, _, _ = sketch(h)
            return svals, V, np.eye(h.N), h.entries

        monkeypatch.setattr(hs.hankel_core, "_top_singular_triplets", exact)
        ref = hs.forward_extract(h)
        for key in ("lam", "mu", "w", "w1"):
            np.testing.assert_allclose(getattr(fd, key), getattr(ref, key), rtol=0, atol=1e-10)
        for got, want in zip(fd.rho + fd.rho1, ref.rho + ref.rho1, strict=True):
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
