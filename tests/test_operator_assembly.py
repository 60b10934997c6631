import numpy as np
import pytest

import hankel_spectra as hs
from hankel_spectra.errors import (
    BundleInvariantError,
    NonUnimodularPhaseError,
    SupportNotCyclicError,
)
from hankel_spectra.operator_assembly import (
    _check_cyclic_support,
    assemble_from_operators,
    level_projections,
)
from hankel_spectra.random_data import (
    random_admissible_commutant,
    random_multiplicity_data,
)


def numerical_phi_derivative(s, x, h=1e-6):
    scale = s.scale2
    return (hs.phi_product_eval(s, x + h * scale) -
            hs.phi_product_eval(s, x - h * scale)).real / (2 * h * scale)


class TestAssembleCyclic:
    def test_rank1_values(self, rank1_data):
        b = hs.assemble_cyclic(rank1_data)
        np.testing.assert_allclose(b.R, [[1.0]])
        np.testing.assert_allclose(b.p, [1.0])
        np.testing.assert_allclose(b.R1, [[0.0]], atol=1e-14)
        np.testing.assert_allclose(b.phi, [[1.0]])
        np.testing.assert_allclose(b.phi1, [[0.0]], atol=1e-14)
        np.testing.assert_allclose(b.q, [1.0])

    def test_rank2_p_and_r1(self, rank2_data):
        b = hs.assemble_cyclic(rank2_data)
        np.testing.assert_allclose(b.p, np.sqrt([8.0 / 3.0, 1.0 / 3.0]), rtol=1e-14)
        evals = np.sort(np.linalg.eigvalsh(b.R1 @ b.R1).real)[::-1]
        np.testing.assert_allclose(evals, [2.0, 0.0], atol=1e-12)

    def test_construction_identity(self, bundle_corpus):
        for b in bundle_corpus:
            res = np.linalg.norm(b.R @ b.R - b.R1 @ b.R1 - np.outer(b.p, np.conj(b.p)))
            assert res <= 1e-12 * b.r_norm**2

    def test_wrong_mode_rejected(self, rank1_data):
        with pytest.raises(Exception):
            hs.assemble_multiplicity(rank1_data)

    def test_non_unimodular_phase_rejected(self, rank2_spectrum):
        with pytest.raises(NonUnimodularPhaseError):
            hs.CompactSpectralData.cyclic(rank2_spectrum, [1.0, 0.5], [1.0, 0.0])


class TestAssembleMultiplicity:
    def test_delta_measures_reduce_to_cyclic(self, rank2_spectrum):
        xi = np.exp(2j * np.pi * np.array([0.13, 0.71]))
        eta = np.array([np.exp(0.4j), 0.0])
        cyc = hs.assemble_cyclic(hs.CompactSpectralData.cyclic(rank2_spectrum, xi, eta))
        to_measure = lambda v: hs.AtomicMeasure([v], [1.0], circle=True, probability=True)
        mult = hs.assemble_multiplicity(hs.CompactSpectralData.multiplicity(
            rank2_spectrum, [to_measure(x) for x in xi], [to_measure(eta[0]), None]))
        for name in ("R", "R1", "phi", "phi1", "sigma_star", "A"):
            sv_c = np.linalg.svd(getattr(cyc, name), compute_uv=False)
            sv_m = np.linalg.svd(getattr(mult, name), compute_uv=False)
            np.testing.assert_allclose(sv_c, sv_m, atol=1e-12)
        g_c = hs.gamma_sequence(cyc, 40)
        g_m = hs.gamma_sequence(mult, 40)
        np.testing.assert_allclose(g_c, g_m, atol=1e-12)

    def test_two_atom_level(self):
        # lam=[1], mu=[0], two-atom level measure: dim 2, phi eigenvalues {1,-1}
        s = hs.validate_intertwining([1.0], [0.0])
        rho = [hs.AtomicMeasure([1.0 + 0j, -1.0 + 0j], [0.5, 0.5],
                                circle=True, probability=True)]
        b = hs.assemble_multiplicity(hs.CompactSpectralData.multiplicity(s, rho, [None]))
        assert b.dim == 2
        np.testing.assert_allclose(np.sort(np.linalg.eigvals(b.phi).real), [-1.0, 1.0],
                                   atol=1e-14)
        assert np.linalg.norm(b.p) ** 2 == pytest.approx(1.0)
        assert len(b.layout.lam_blocks[0]) == 2  # dim ker(R - lam_1) = 2

    def test_mu_weights_match_residue_oracle(self):
        # ||p1_k||^2 must equal the mass of the perturbed measure at mu_k^2,
        # i.e. -1 / Phi'(mu_k^2), computed by numerical differentiation
        rng = np.random.default_rng(21)
        d = random_multiplicity_data(rng, 3, max_atoms=3, terminal_zero=False)
        b = hs.assemble(d)
        _, p1s = level_projections(b)
        s = d.spectrum
        for k in range(s.n):
            expected = -1.0 / numerical_phi_derivative(s, s.mu2[k])
            got = float(np.linalg.norm(p1s[k]) ** 2)
            assert got == pytest.approx(expected, rel=1e-4)

    def test_support_check(self):
        class Stub:
            points = np.array([1.0 + 0j, -1.0 + 0j])
            weights = np.array([1.0, 0.0])

        with pytest.raises(SupportNotCyclicError):
            _check_cyclic_support(Stub(), "stub")


class TestKernelOfR1:
    def test_terminal_zero_iff_singular(self):
        # R1 is singular exactly when the terminal mu vanishes
        s0 = hs.validate_intertwining([2.0, 1.0], [1.4, 0.0])
        s1 = hs.validate_intertwining([2.0, 1.0], [1.4, 0.6])
        b0 = hs.assemble_cyclic(hs.CompactSpectralData.cyclic(s0, [1, 1], [1, 0]))
        b1 = hs.assemble_cyclic(hs.CompactSpectralData.cyclic(s1, [1, 1], [1, 1]))
        sv0 = np.linalg.svd(b0.R1, compute_uv=False)
        sv1 = np.linalg.svd(b1.R1, compute_uv=False)
        assert sv0.min() <= 1e-10
        assert sv1.min() >= 0.5

    def test_kernel_vector_is_scaled_inverse_square(self):
        # the kernel of R1 is spanned by R^{-2} p
        s = hs.validate_intertwining([2.0, 1.0], [1.4, 0.0])
        b = hs.assemble_cyclic(hs.CompactSpectralData.cyclic(s, [1, 1], [1, 0]))
        x = np.linalg.solve(b.R @ b.R, b.p)
        assert np.linalg.norm(b.R1 @ x) <= 1e-12
        # and the norm identity behind it: ||R^{-1} p|| = 1
        assert np.linalg.norm(np.linalg.solve(b.R, b.p)) == pytest.approx(1.0)


class TestSigmaStar:
    def test_rank1_is_zero(self, rank1_data):
        b = hs.assemble_cyclic(rank1_data)
        np.testing.assert_allclose(hs.sigma_star(b), [[0.0]], atol=1e-14)

    def test_defect_identity(self, bundle_corpus):
        for b in bundle_corpus:
            defect = np.eye(b.dim) - b.sigma_star.conj().T @ b.sigma_star \
                - np.outer(b.q, np.conj(b.q))
            assert np.linalg.norm(defect) <= 1e-10

    def test_spectral_radius_below_one(self, bundle_corpus):
        for b in bundle_corpus:
            assert np.abs(np.linalg.eigvals(b.sigma_star)).max() < 1.0

    def test_hat_form(self, bundle_corpus):
        # Jp Sigma* Jp agrees with phi1* R1 R^{-1} phi
        for b in bundle_corpus:
            lhs = b.Jp @ np.conj(b.sigma_star) @ np.conj(b.Jp)
            assert np.linalg.norm(lhs - b.sigma_hat_star) <= 1e-11


class TestStabilityOperator:
    def test_rank1_is_zero(self, rank1_data):
        b = hs.assemble_cyclic(rank1_data)
        np.testing.assert_allclose(hs.stability_operator_A(b), [[0.0]], atol=1e-14)

    def test_intertwining(self, bundle_corpus):
        for b in bundle_corpus:
            r_half = np.diag(np.sqrt(np.diag(b.R)))
            res = np.linalg.norm(b.sigma_star @ r_half - r_half @ b.A)
            assert res <= 1e-12

    def test_contraction_norm(self, bundle_corpus):
        for b in bundle_corpus:
            assert np.linalg.norm(b.A, 2) <= 1.0 + 1e-12

    def test_q_block_structure(self):
        # Q = R1^(1/2) R^(-1/2): identity off the cyclic subspace, strict
        # contraction on it (SVD oracle)
        rng = np.random.default_rng(31)
        d = random_multiplicity_data(rng, 2, max_atoms=3, terminal_zero=False)
        b = hs.assemble(d)
        evals1, vecs1 = np.linalg.eigh(b.R1)
        r1_half = (vecs1 * np.sqrt(np.clip(evals1, 0, None))) @ vecs1.conj().T
        Q = r1_half @ np.diag(1.0 / np.sqrt(np.diag(b.R).real))
        h0 = list(b.layout.h0_indices)
        rest = sorted(set(range(b.dim)) - set(h0))
        np.testing.assert_allclose(Q[np.ix_(rest, rest)], np.eye(len(rest)), atol=1e-10)
        assert np.linalg.norm(Q[np.ix_(h0, rest)]) <= 1e-10
        assert np.linalg.norm(Q[np.ix_(rest, h0)]) <= 1e-10
        svals = np.linalg.svd(Q[np.ix_(h0, h0)], compute_uv=False)
        assert np.all(svals < 1.0)


class TestConjugation:
    def test_rank1_residuals_zero(self, rank1_data):
        report = hs.conjugation_check(hs.assemble_cyclic(rank1_data))
        assert max(report.values()) <= 1e-14

    def test_complex_phases(self, rank2_spectrum):
        d = hs.CompactSpectralData.cyclic(rank2_spectrum, [1j, -1.0], [np.exp(0.3j), 0.0])
        report = hs.conjugation_check(hs.assemble_cyclic(d))
        assert max(report.values()) <= 1e-12

    def test_inner_product_flip_on_multiplicity(self):
        rng = np.random.default_rng(41)
        d = random_multiplicity_data(rng, 2, max_atoms=3)
        report = hs.conjugation_check(hs.assemble(d), trials=50)
        assert report["inner_product_flip"] <= 1e-12
        assert max(report.values()) <= 1e-12


class TestGaugeRotation:
    def test_rotated_tuple_still_validates(self):
        rng = np.random.default_rng(51)
        d = random_multiplicity_data(rng, 2, max_atoms=3)
        b = hs.assemble(d)
        psi = random_admissible_commutant(rng, b.layout)
        rotated = assemble_from_operators(
            b.R, b.R1, b.p, b.phi @ psi.conj().T, b.phi1 @ psi.conj().T,
            psi @ b.Jp, b.layout)
        assert max(hs.conjugation_check(rotated).values()) <= 1e-11

    def test_unrotated_conjugation_rejected(self):
        # forgetting to rotate Jp with phi breaks the symmetry laws
        rng = np.random.default_rng(52)
        d = random_multiplicity_data(rng, 2, max_atoms=3, terminal_zero=False)
        b = hs.assemble(d)
        psi = random_admissible_commutant(rng, b.layout)
        if np.linalg.norm(psi - np.eye(b.dim)) < 1e-6:
            pytest.skip("drawn commutant was trivial")
        with pytest.raises(BundleInvariantError):
            assemble_from_operators(b.R, b.R1, b.p, b.phi @ psi.conj().T,
                                    b.phi1 @ psi.conj().T, b.Jp, b.layout)


class TestGeneratorGuard:
    @pytest.mark.parametrize("generate", ["random_cyclic_data", "random_multiplicity_data"])
    def test_invariant_failure_rejects_the_draw(self, monkeypatch, generate):
        # a candidate whose bundle fails its invariants is skipped like a slow
        # one, and the next candidate comes from the same random stream
        from hankel_spectra import random_data

        make = getattr(random_data, generate)
        rng = np.random.default_rng(23)
        make(rng, 3, terminal_zero=False)                 # the first candidate
        second = make(rng, 3, terminal_zero=False)
        assert random_data._contraction_radius(second) <= 0.97

        real = random_data._contraction_radius
        calls = []

        def radius(d):
            calls.append(d)
            if len(calls) == 1:
                raise BundleInvariantError("bundle violates: phi1 partial isometry")
            return real(d)

        monkeypatch.setattr(random_data, "_contraction_radius", radius)
        got = make(np.random.default_rng(23), 3, terminal_zero=False, max_contraction=0.97)
        assert len(calls) == 2
        np.testing.assert_array_equal(got.spectrum.lam, second.spectrum.lam)
        np.testing.assert_array_equal(got.spectrum.mu, second.spectrum.mu)

    def test_all_draws_refused_raises(self, monkeypatch):
        from hankel_spectra import random_data

        def radius(d):
            raise BundleInvariantError("bundle violates: phi1 partial isometry")

        monkeypatch.setattr(random_data, "_contraction_radius", radius)
        with pytest.raises(BundleInvariantError):
            random_data.random_cyclic_data(np.random.default_rng(0), 2, max_contraction=0.97)
