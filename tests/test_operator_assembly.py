import numpy as np
import pytest

import hankel_spectra as hs
from hankel_spectra.errors import (
    BundleInvariantError,
    NonUnimodularPhaseError,
    SupportNotCyclicError,
)
from hankel_spectra.operator_assembly import (
    Orbit,
    assemble_from_operators,
    level_projections,
    orbit,
)
from hankel_spectra.random_data import random_multiplicity_data
from hankel_spectra.serialize import emit_bundle, emit_spectral_data, parse_bundle
from hankel_spectra.stability import DECAY_STEPS


def numerical_phi_derivative(s, x, h=1e-6):
    """Central difference of Phi(z) = prod_k (z - mu_k^2) / (z - lambda_k^2)."""
    scale = max(s.lam[0] ** 2, 1.0)
    phi = lambda z: np.prod((z - s.mu2) / (z - s.lam2))
    return (phi(x + h * scale) - phi(x - h * scale)) / (2 * h * scale)


class TestAssembleCyclic:
    def test_rank1_values(self, rank1_data):
        b = hs.assemble(rank1_data)
        np.testing.assert_allclose(b.R, [[1.0]])
        np.testing.assert_allclose(b.p, [1.0])
        np.testing.assert_allclose(b.R1, [[0.0]], atol=1e-14)
        np.testing.assert_allclose(b.phi, [[1.0]])
        np.testing.assert_allclose(b.phi1, [[0.0]], atol=1e-14)
        np.testing.assert_allclose(b.q, [1.0])

    def test_rank2_p_and_r1(self, rank2_data):
        b = hs.assemble(rank2_data)
        np.testing.assert_allclose(b.p, np.sqrt([8.0 / 3.0, 1.0 / 3.0]), rtol=1e-14)
        evals = np.sort(np.linalg.eigvalsh(b.R1 @ b.R1).real)[::-1]
        np.testing.assert_allclose(evals, [2.0, 0.0], atol=1e-12)

    def test_construction_identity(self, bundle_corpus):
        for b in bundle_corpus:
            res = np.linalg.norm(b.R @ b.R - b.R1 @ b.R1 - np.outer(b.p, np.conj(b.p)))
            assert res <= 1e-12 * b.r_norm**2

    def test_non_unimodular_phase_rejected(self, rank2_spectrum):
        with pytest.raises(NonUnimodularPhaseError):
            hs.CompactSpectralData.cyclic(rank2_spectrum, [1.0, 0.5], [1.0, 0.0])


class TestAssembleMultiplicity:
    def test_delta_measures_reduce_to_cyclic(self, rank2_spectrum):
        # cyclic data are the point-mass case of multiplicity data, so both
        # forms give the same bundle, bit for bit
        from hankel_spectra.random_data import random_cyclic_data

        xi = np.exp(2j * np.pi * np.array([0.13, 0.71]))
        eta = np.array([np.exp(0.4j), 0.0])
        cases = [hs.CompactSpectralData.cyclic(rank2_spectrum, xi, eta)]
        rng = np.random.default_rng(11)
        cases += [random_cyclic_data(rng, n) for n in range(3, 9)]
        to_measure = lambda v: hs.AtomicMeasure([v], [1.0])
        for d in cases:
            s = d.spectrum
            rho1 = [None if v == 0 else to_measure(v) for v in d.eta]
            cyc = hs.assemble(d)
            mult = hs.assemble(hs.CompactSpectralData(
                s, [to_measure(v) for v in d.xi], rho1))
            for name in ("R", "R1", "p", "q", "phi", "phi1", "sigma_star", "A"):
                assert np.array_equal(getattr(cyc, name), getattr(mult, name)), (s.n, name)

    def test_two_atom_level(self):
        # lam=[1], mu=[0], two-atom level measure: dim 2, phi eigenvalues {1,-1}
        s = hs.validate_intertwining([1.0], [0.0])
        rho = [hs.AtomicMeasure([1.0 + 0j, -1.0 + 0j], [0.5, 0.5])]
        b = hs.assemble(hs.CompactSpectralData(s, rho, [None]))
        assert b.dim == 2
        np.testing.assert_allclose(np.sort(np.linalg.eigvals(b.phi).real), [-1.0, 1.0],
                                   atol=1e-14)
        assert np.linalg.norm(b.p) ** 2 == pytest.approx(1.0)
        assert len(b.layout.lam_blocks[0]) == 2  # dim ker(R - lam_1) = 2

    def test_mu_weights_match_residue_oracle(self, admissible_commutant):
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
        # level_projections selects the levels by position in eigh(R1), so a
        # bundle that did not come from the builder gives the same p1_k: one
        # re-read from bundle.v1 and one rotated by an admissible gauge
        psi = admissible_commutant(rng, b.layout)
        rotated = assemble_from_operators(
            b.R, b.R1, b.p, b.phi @ psi.conj().T, b.phi1 @ psi.conj().T,
            psi @ b.Jp, b.layout)
        for other in (parse_bundle(emit_bundle(b)), rotated):
            for got, want in zip(level_projections(other)[1], p1s):
                np.testing.assert_allclose(got, want, atol=1e-14)

    def test_support_check(self):
        # a vanishing atom weight breaks *-cyclicity of the level block
        s = hs.validate_intertwining([1.0], [0.0])
        rho = [hs.AtomicMeasure([1.0 + 0j, -1.0 + 0j], [1.0 - 1e-15, 1e-15])]
        with pytest.raises(SupportNotCyclicError, match=r"rho\[0\]"):
            hs.assemble(hs.CompactSpectralData(s, rho, [None]))


class TestEnvelopeSweep:
    @pytest.mark.parametrize("n", [10, 12, 16])
    def test_unguarded_multiplicity_draws_assemble(self, n):
        # every draw must assemble, not only those the contraction guard
        # keeps: at multiplicity rank n <= 12, inside the stated envelope, and
        # at n = 16, where a positive terminal mu falls to about 5e-6 and must
        # not be taken for ker R1
        for seed in range(200):
            d = random_multiplicity_data(np.random.default_rng([seed, n]), n, max_atoms=3)
            hs.assemble(d)


class TestKernelOfR1:
    def test_terminal_zero_iff_singular(self):
        # R1 is singular exactly when the terminal mu vanishes
        s0 = hs.validate_intertwining([2.0, 1.0], [1.4, 0.0])
        s1 = hs.validate_intertwining([2.0, 1.0], [1.4, 0.6])
        b0 = hs.assemble(hs.CompactSpectralData.cyclic(s0, [1, 1], [1, 0]))
        b1 = hs.assemble(hs.CompactSpectralData.cyclic(s1, [1, 1], [1, 1]))
        sv0 = np.linalg.svd(b0.R1, compute_uv=False)
        sv1 = np.linalg.svd(b1.R1, compute_uv=False)
        assert sv0.min() <= 1e-10
        assert sv1.min() >= 0.5

    def test_kernel_vector_is_scaled_inverse_square(self):
        # the kernel of R1 is spanned by R^{-2} p
        s = hs.validate_intertwining([2.0, 1.0], [1.4, 0.0])
        b = hs.assemble(hs.CompactSpectralData.cyclic(s, [1, 1], [1, 0]))
        x = np.linalg.solve(b.R @ b.R, b.p)
        assert np.linalg.norm(b.R1 @ x) <= 1e-12
        # and the norm identity behind it: ||R^{-1} p|| = 1
        assert np.linalg.norm(np.linalg.solve(b.R, b.p)) == pytest.approx(1.0)

    @pytest.mark.parametrize("generate", ["random_cyclic_data", "random_multiplicity_data"])
    def test_phi1_nonzero_on_kernel_rejected(self, generate):
        # phi1 + eps k k^T with k spanning ker R1 leaves Sigma*, both
        # commutations and the Jp symmetry as they were; only the partial
        # isometry check sees the eps^2 it adds to phi1* phi1
        from hankel_spectra import random_data

        d = getattr(random_data, generate)(np.random.default_rng(61), 4, terminal_zero=True)
        b = hs.assemble(d)
        k = np.linalg.solve(b.R @ b.R, b.p)
        k /= np.linalg.norm(k)
        phi1 = b.phi1 + 1e-3 * np.outer(k, k)
        with pytest.raises(BundleInvariantError, match="phi1 partial isometry"):
            assemble_from_operators(b.R, b.R1, b.p, b.phi, phi1, b.Jp, b.layout)


class TestSigmaStar:
    def test_rank1_is_zero(self, rank1_data):
        b = hs.assemble(rank1_data)
        np.testing.assert_allclose(b.sigma_star, [[0.0]], atol=1e-14)

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
        b = hs.assemble(rank1_data)
        np.testing.assert_allclose(b.A, [[0.0]], atol=1e-14)

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


def _jp_worst(b):
    """The largest residual among the laws of the conjugation Jp."""
    return max(res for name, (res, _) in hs.bundle_residuals(b).items() if "Jp" in name)


class TestConjugation:
    def test_rank1_residuals_zero(self, rank1_data):
        assert _jp_worst(hs.assemble(rank1_data)) <= 1e-14

    def test_complex_phases(self, rank2_spectrum):
        d = hs.CompactSpectralData.cyclic(rank2_spectrum, [1j, -1.0], [np.exp(0.3j), 0.0])
        assert _jp_worst(hs.assemble(d)) <= 1e-12

    def test_inner_product_flip_on_multiplicity(self):
        # <y, Jp x> = <x, Jp y> for all x, y means C = C^T, which the table
        # does not list: it follows from C unitary and involutive
        rng = np.random.default_rng(41)
        b = hs.assemble(random_multiplicity_data(rng, 2, max_atoms=3))
        assert _jp_worst(b) <= 1e-12
        x, y = rng.standard_normal((2, b.dim)) + 1j * rng.standard_normal((2, b.dim))
        assert abs(np.vdot(y, b.conjugate(x)) - np.vdot(x, b.conjugate(y))) <= 1e-12
        assert np.linalg.norm(b.Jp - b.Jp.T) <= 1e-12


class TestLawTable:
    """``bundle_residuals`` is the one statement of the bundle's laws, and
    validation refuses the first row over its bound."""

    LAWS = ["R matches layout", "R1 matches layout",
            "R hermitian", "rank-one relation", "phi unitary", "phi commutes with R",
            "phi1 commutes with R1", "defect identity", "Jp involutive", "Jp fixes p",
            "phi Jp-symmetric", "phi1 Jp-symmetric", "phi1 partial isometry",
            "Jp unitary", "Jp commutes with R", "Jp commutes with R1",
            "Jp intertwines Sigma* and Sigma-hat*"]
    EXACT = ["Jp unitary", "Jp commutes with R", "Jp commutes with R1"]

    def test_rows_hold_on_built_bundles(self, bundle_corpus):
        for b in bundle_corpus:
            table = hs.bundle_residuals(b)
            assert list(table) == self.LAWS
            assert all(res <= bound for res, bound in table.values())
            # the builder's C is the identity and its R and R1 are real
            assert all(table[law][0] == 0.0 for law in self.EXACT)

    @pytest.fixture
    def plain(self):
        # every phase 1 and no terminal zero: phi = phi1 = I, so any real
        # involution that fixes p is phi- and phi1-symmetric
        s = hs.validate_intertwining([2.0, 1.0], [1.4, 0.6])
        return hs.assemble(hs.CompactSpectralData.cyclic(s, [1, 1], [1, 1]))

    def _refused(self, b, C, law):
        assert np.linalg.norm(C @ C - np.eye(b.dim)) <= 1e-14
        assert np.linalg.norm(C @ b.p.real - b.p.real) <= 1e-14
        with pytest.raises(BundleInvariantError,
                           match=rf"bundle violates: {law} \(residual \S+ > bound \S+\)"):
            assemble_from_operators(b.R, b.R1, b.p, b.phi, b.phi1, C, b.layout)

    def test_jp_not_commuting_with_R_refused(self, plain):
        # a reflection across p: unitary, involutive, fixes p, but mixes the
        # eigenvectors of R
        w = np.array([plain.p[1].real, -plain.p[0].real])
        w /= np.linalg.norm(w)
        C = np.eye(2) - 2.0 * np.outer(w, w)
        self._refused(plain, C, "Jp commutes with R")

    def test_non_unitary_jp_refused(self, plain):
        # an oblique reflection fixing p: involutive, but not unitary
        z = np.array([plain.p[1].real, -plain.p[0].real])
        w = np.array([1.0, 0.0])
        C = np.eye(2) - 2.0 * np.outer(w, z) / (z @ w)
        self._refused(plain, C, "Jp unitary")


class TestCheckedOnce:
    """A bundle's law table is evaluated once per bundle that passes."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        from hankel_spectra import operator_assembly

        count = [0]
        table = operator_assembly.bundle_residuals

        def counted(b):
            count[0] += 1
            return table(b)

        monkeypatch.setattr(operator_assembly, "bundle_residuals", counted)
        return count

    def test_synthesis_then_assemble_checks_once(self, evaluations):
        # hankel_from_data assembles d; assemble(d) then reads the memoized
        # bundle and its verdict
        d = random_multiplicity_data(np.random.default_rng(71), 3, max_contraction=0.97)
        hs.hankel_from_data(d)
        b = hs.assemble(d)
        assert evaluations[0] == 1
        assert hs.assemble(d) is b
        assert evaluations[0] == 1

    def test_each_bundle_from_operators_is_checked(self, evaluations, rank2_data):
        b = hs.assemble(rank2_data)
        ops = (b.R, b.R1, b.p, b.phi, b.phi1, b.Jp, b.layout)
        before = evaluations[0]
        assert assemble_from_operators(*ops) is not assemble_from_operators(*ops)
        assert evaluations[0] == before + 2


class TestGaugeRotation:
    def test_rotated_tuple_still_validates(self, admissible_commutant):
        rng = np.random.default_rng(51)
        d = random_multiplicity_data(rng, 2, max_atoms=3)
        b = hs.assemble(d)
        psi = admissible_commutant(rng, b.layout)
        rotated = assemble_from_operators(
            b.R, b.R1, b.p, b.phi @ psi.conj().T, b.phi1 @ psi.conj().T,
            psi @ b.Jp, b.layout)
        assert _jp_worst(rotated) <= 1e-11

    def test_unrotated_conjugation_rejected(self, admissible_commutant):
        # forgetting to rotate Jp with phi breaks the symmetry laws
        rng = np.random.default_rng(52)
        d = random_multiplicity_data(rng, 2, max_atoms=3, terminal_zero=False)
        b = hs.assemble(d)
        psi = admissible_commutant(rng, b.layout)
        if np.linalg.norm(psi - np.eye(b.dim)) < 1e-6:
            pytest.skip("drawn commutant was trivial")
        with pytest.raises(BundleInvariantError):
            assemble_from_operators(b.R, b.R1, b.p, b.phi @ psi.conj().T,
                                    b.phi1 @ psi.conj().T, b.Jp, b.layout)


class TestGeneratorGuard:
    def test_first_within_bound_else_smallest(self, monkeypatch):
        # candidates are stubbed by their radius: the guard measures Sigma*
        # and nothing else, and stops drawing once a candidate is accepted
        from types import SimpleNamespace

        from hankel_spectra import random_data

        monkeypatch.setattr(random_data, "_build",
                            lambda c: SimpleNamespace(sigma_star=np.array([[c[1]]])))

        def guarded(radii):
            # returns the index of the candidate taken and how many were left undrawn
            stream = iter(list(enumerate(radii)))
            got = random_data._guarded(stream.__next__, 0.97)
            return got[0], len(list(stream))

        assert guarded([0.99, 0.98, 0.96, 0.5]) == (2, 1)
        slow = [0.99] * random_data.GUARD_TRIES
        slow[5] = slow[9] = 0.975
        assert guarded(slow + [0.1]) == (5, 1)
        assert random_data._guarded(iter([(0, 0.99)]).__next__, None) == (0, 0.99)

    @pytest.mark.parametrize("generate", ["random_cyclic_data", "random_multiplicity_data"],
                             ids=["cyclic", "multiplicity"])
    def test_assemble_refuses_broken_draw(self, monkeypatch, generate):
        # the guard checks no law: with every law refused, a draw is still
        # returned as drawn, and the broken law surfaces where the bundle is
        # assembled
        from hankel_spectra import operator_assembly, random_data

        make = getattr(random_data, generate)
        expected = make(np.random.default_rng(23), 3, max_contraction=0.97)

        def refuse(b):
            raise BundleInvariantError("bundle violates: phi1 partial isometry")

        monkeypatch.setattr(operator_assembly, "_validate_bundle", refuse)
        got = make(np.random.default_rng(23), 3, max_contraction=0.97)
        assert emit_spectral_data(got) == emit_spectral_data(expected)
        with pytest.raises(BundleInvariantError):
            hs.assemble(got)


class TestSigmaStarOrbit:
    """The symbol, the certified truncation and the decay profile all walk
    the orbit (Sigma*)^k p; each must match the matrix power."""

    K = 200

    @staticmethod
    def powers(b, K):
        return [np.linalg.matrix_power(b.sigma_star, k) @ b.p for k in range(K + 1)]

    def test_decay_profile(self, bundle_corpus):
        for b in bundle_corpus:
            ref = [np.linalg.norm(x) for x in self.powers(b, DECAY_STEPS)]
            profile = hs.stability_report(b).decay_profile
            np.testing.assert_allclose(profile, ref, rtol=1e-12,
                                       atol=1e-12 * np.linalg.norm(b.p))

    def test_gamma_sequence(self, bundle_corpus):
        for b in bundle_corpus:
            ref = [np.vdot(x, b.q) for x in self.powers(b, self.K)]
            np.testing.assert_allclose(hs.gamma_sequence(b, self.K), ref, rtol=1e-12,
                                       atol=1e-12 * np.linalg.norm(b.p) * np.linalg.norm(b.q))

    def test_gamma_sequence_to_certified_truncation(self, bundle_corpus):
        # K = 2N - 2 at the certified N: the symbol spans many orbit blocks
        for b in bundle_corpus:
            K = 2 * hs.certified_truncation(b) - 2
            ref = [np.vdot(x, b.q) for x in self.powers(b, K)]
            np.testing.assert_allclose(hs.gamma_sequence(b, K), ref, rtol=1e-12,
                                       atol=1e-12 * np.linalg.norm(b.p) * np.linalg.norm(b.q))

    def test_certified_truncation(self, bundle_corpus):
        from hankel_spectra.hankel_core import TAIL_TOL

        for b in bundle_corpus:
            k = b.dim + 2
            while np.linalg.norm(np.linalg.matrix_power(b.sigma_star, k) @ b.p) > TAIL_TOL:
                k += 1
            assert hs.certified_truncation(b) == k


class TestOrbit:
    @pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 65, 200])
    def test_matches_matrix_power(self, count):
        rng = np.random.default_rng(count)
        M = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        M /= 1.01 * np.linalg.norm(M, 2)  # a contraction, as every walked matrix is
        v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        X = orbit(M, v, count)
        assert X.shape == (7, count)
        for k in range(count):
            ref = np.linalg.matrix_power(M, k) @ v
            assert np.linalg.norm(X[:, k] - ref) <= 1e-12 * np.linalg.norm(v)

    def test_grown_orbit_ignores_request_order(self):
        # the bundle's orbit doubles in whole blocks, so its columns are
        # bitwise those of one orbit() call whatever was asked before
        b = hs.assemble(random_multiplicity_data(np.random.default_rng(4), 3, max_atoms=3))
        ref = orbit(b.sigma_star, b.p, 512)
        stepwise, direct = Orbit(b.sigma_star, b.p), Orbit(b.sigma_star, b.p)
        for count in (5, 129, 64, 300):
            np.testing.assert_array_equal(stepwise(count), ref[:, :count])
        np.testing.assert_array_equal(direct(300), ref[:, :300])

    def test_shared_orbit_under_threads(self):
        # a memoized bundle's orbit may be read from several threads at once:
        # each request gets its columns whatever length another thread stores
        import sys
        from concurrent.futures import ThreadPoolExecutor

        b = hs.assemble(random_multiplicity_data(np.random.default_rng(4), 3, max_atoms=3))
        counts = [65, 129, 257, 513, 1024, 100, 300, 700]
        ref = orbit(b.sigma_star, b.p, max(counts))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(counts)) as pool:
                for _ in range(50):
                    shared = Orbit(b.sigma_star, b.p)
                    futures = [pool.submit(shared, count) for count in counts]
                    for count, future in zip(counts, futures):
                        np.testing.assert_array_equal(future.result(timeout=30), ref[:, :count])
        finally:
            sys.setswitchinterval(interval)


class TestLazyFields:
    def test_derived_on_first_read(self, rank2_data):
        rng = np.random.default_rng(7)
        for d in (rank2_data, random_multiplicity_data(rng, 2, max_atoms=3)):
            b = hs.assemble(d)
            # read by validation, then cached; Sigma-hat* by the law row
            # "Jp intertwines Sigma* and Sigma-hat*"
            assert "r_norm" in vars(b) and "sigma_hat_star" in vars(b)
            assert "A" not in vars(b)
            A = b.A
            assert "A" in vars(b)
            assert b.A is A
            hat = b.sigma_hat_star
            assert b.sigma_hat_star is hat
            np.testing.assert_allclose(
                hat, b.phi1.conj().T @ b.R1 @ np.linalg.solve(b.R, b.phi), atol=1e-14)


class TestBuildMemo:
    """``_build`` keeps the last data object's bundle: the guard's build of
    the draw it returns is the one ``assemble`` checks."""

    def test_one_build_per_candidate(self, monkeypatch):
        from hankel_spectra import operator_assembly, random_data
        from hankel_spectra.roundtrip import run_roundtrip_trial

        builds, draws = [], []
        real_build, real_spectrum = operator_assembly._from_operators, random_data.random_spectrum

        def build(*args):
            builds.append(args)
            return real_build(*args)

        def spectrum(*args):
            draws.append(args)
            return real_spectrum(*args)

        monkeypatch.setattr(operator_assembly, "_from_operators", build)
        monkeypatch.setattr(random_data, "random_spectrum", spectrum)
        d = random_data.random_cyclic_data(np.random.default_rng(2), 6, max_contraction=0.97)
        run_roundtrip_trial(d)
        assert len(draws) > 1  # the guard turned candidates down
        assert len(builds) == len(draws)

    def test_repeated_assemble_shares_the_bundle(self, rank2_data):
        assert hs.assemble(rank2_data) is hs.assemble(rank2_data)

    def test_one_slot(self, rank1_data, rank2_data):
        from hankel_spectra import operator_assembly

        first = hs.assemble(rank2_data)
        hs.assemble(rank1_data)
        assert operator_assembly._build.cache_info().currsize == 1
        assert hs.assemble(rank2_data) is not first


class TestReadOnlyBundle:
    def test_arrays_are_read_only(self, rank2_data):
        b = hs.assemble(rank2_data)
        with pytest.raises(ValueError):
            b.R[0, 0] = 0.0
        held = [b.R, b.R1, b.p, b.q, b.qhat, b.phi, b.phi1, b.Jp, b.sigma_star,
                b.r_half, *b.r1_eigh, b.sigma_hat_star, b.A]
        assert not any(a.flags.writeable for a in held)

    def test_caller_arrays_stay_writeable(self, rank2_data):
        b = hs.assemble(rank2_data)
        ops = [np.array(a) for a in (b.R, b.R1, b.p, b.phi, b.phi1, b.Jp)]
        assert all(a.flags.writeable for a in ops)
        built = assemble_from_operators(*ops, b.layout)
        assert all(a.flags.writeable for a in ops)
        assert not built.R.flags.writeable
