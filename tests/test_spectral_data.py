import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import hankel_spectra as hs
from hankel_spectra import serialize
from hankel_spectra.errors import (
    DegenerateMeasureError,
    EmptyInputError,
    NegativeEntryError,
    NonInterlacingError,
    NonUnimodularPhaseError,
)
from hankel_spectra.operator_assembly import level_projections
from hankel_spectra.random_data import random_circle_measure, random_phases, random_spectrum
from hankel_spectra.spectral_data import mu_weights


def spectrum_strategy(max_n=12):
    # ratio >= 0.6 keeps even a 23-step chain above the squared-gap
    # degeneracy tolerance (0.6^23 squared is still > 1e-12 * scale)
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.floats(min_value=0.6, max_value=0.9),
                           min_size=2 * n - 1, max_size=2 * n - 1))


def phi_product(s, z):
    """Phi(z) = prod_k (z - mu_k^2) / (z - lambda_k^2)."""
    return complex(np.prod((z - s.mu2) / (z - s.lam2)))


def cauchy_transform(points, weights, z):
    """F(z) = sum_k w_k / (s_k - z) of the atomic measure sum_k w_k delta_{s_k}."""
    return complex(np.sum(weights / (points - z)))


def chain_to_spectrum(ratios, terminal_zero=False):
    chain = np.concatenate([[1.0], np.cumprod(ratios)])
    lam = chain[0::2]
    mu = chain[1::2].copy()
    if terminal_zero and len(mu) == len(lam):
        mu[-1] = 0.0
    return hs.validate_intertwining(lam, mu)


class TestValidation:
    def test_rank1_terminal_zero(self):
        s = hs.validate_intertwining([1.0], [0.0])
        assert s.n == 1 and s.has_terminal_zero

    def test_rank2_example(self):
        s = hs.validate_intertwining([2.0, 1.0], [np.sqrt(2.0), 0.0])
        # 2 > sqrt(2) > 1 > 0 by hand
        assert s.lam[0] > s.mu[0] > s.lam[1] > s.mu[1] == 0.0

    def test_non_decreasing_lambda_reports_first_index(self):
        with pytest.raises(NonInterlacingError) as err:
            hs.validate_intertwining([1.0, 2.0], [0.5, 0.1])
        assert err.value.index == 0

    def test_negative_entry(self):
        with pytest.raises(NegativeEntryError) as err:
            hs.validate_intertwining([1.0, 0.5], [0.7, -0.1])
        assert err.value.index == 1

    def test_empty_and_mismatched(self):
        with pytest.raises(EmptyInputError):
            hs.validate_intertwining([], [])
        with pytest.raises(EmptyInputError):
            hs.validate_intertwining([1.0], [0.5, 0.1])

    def test_interior_zero_rejected(self):
        with pytest.raises(NonInterlacingError):
            hs.validate_intertwining([1.0, 0.5], [0.0, 0.0])

    def test_degenerate_pair_rejected(self):
        lam2 = 1.0 + 1e-14
        with pytest.raises(NonInterlacingError):
            hs.validate_intertwining([2.0, 1.0], [lam2, 0.1])

    def test_monotone_failure_detection(self):
        # pushing any mu above its lambda flips validation at exactly that index
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            s = random_spectrum(rng, n, terminal_zero=False)
            k = int(rng.integers(0, n))
            mu = s.mu.copy()
            mu[k] = s.lam[k] * 1.01
            with pytest.raises(NonInterlacingError) as err:
                hs.validate_intertwining(s.lam, mu)
            expected = k if k == 0 else k - 1  # mu[k] > lam[k] breaks mu[k-1] > lam[k] first
            assert err.value.index in (k, expected)


class TestBorgWeights:
    def test_rank1(self):
        s = hs.validate_intertwining([1.0], [0.0])
        np.testing.assert_allclose(hs.borg_weights(s), [1.0])

    def test_rank2_hand_value(self, rank2_spectrum):
        np.testing.assert_allclose(hs.borg_weights(rank2_spectrum), [8.0 / 3.0, 1.0 / 3.0],
                                   rtol=1e-14)

    def test_rank2_eigenvalue_oracle(self, rank2_spectrum):
        # W = diag(4, 1), p = (sqrt(8/3), sqrt(1/3)); W - pp* must have eigenvalues {2, 0}
        p = np.sqrt(hs.borg_weights(rank2_spectrum))
        W = np.diag(rank2_spectrum.lam2) - np.outer(p, p)
        evals = np.sort(np.linalg.eigvalsh(W))[::-1]
        np.testing.assert_allclose(evals, [2.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_eigenvalue_oracle_random(self, seed):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, int(rng.integers(1, 13)))
        p = np.sqrt(hs.borg_weights(s))
        evals = np.linalg.eigvalsh(np.diag(s.lam2) - np.outer(p, p))
        np.testing.assert_allclose(np.sort(evals)[::-1], s.mu2,
                                   rtol=1e-9, atol=1e-9 * max(s.lam[0] ** 2, 1.0))

    @given(spectrum_strategy(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_weight_identities(self, ratios, terminal_zero):
        s = chain_to_spectrum(ratios, terminal_zero)
        a = hs.borg_weights(s)
        assert np.all(a > 0)
        trace = float(np.sum(s.lam2 - s.mu2))
        assert abs(a.sum() - trace) <= 1e-12 * trace
        lhs = 1.0 - float(np.sum(a / s.lam2))
        rhs = float(np.prod(s.mu2 / s.lam2))
        assert abs(lhs - rhs) <= 1e-10
        assert np.sum(a / s.lam2) <= 1.0 + 1e-12

    def test_derived_once_per_spectrum(self):
        s = random_spectrum(np.random.default_rng(4), 6)
        assert hs.borg_weights(s) is hs.borg_weights(s)

    def test_python_floats_match_the_numpy_scalar_loop(self):
        # the log-product loop on numpy scalars, as it ran before the weights
        # moved onto Python floats: the same operations, so the same bits
        def reference(s):
            lam2, mu2, out = s.lam2, s.mu2, []
            for i in range(s.n):
                log_a = math.log(lam2[i] - mu2[i])
                for k in range(s.n):
                    if k != i:
                        log_a += (math.log(abs(lam2[i] - mu2[k]))
                                  - math.log(abs(lam2[i] - lam2[k])))
                out.append(math.exp(log_a))
            return np.array(out)

        for n in range(1, 17):
            for seed in range(10):
                s = random_spectrum(np.random.default_rng([seed, n]), n)
                assert np.array_equal(hs.borg_weights(s), reference(s))


def projection_weights(b):
    """The level weights read off a bundle: ||p_k||^2 on each lambda block,
    and ||p1_k||^2 for the projection p1_k of p onto ker(R1 - mu_k)."""
    p_ks, p1_ks = level_projections(b)
    return (np.array([np.linalg.norm(v) ** 2 for v in p_ks]),
            np.array([np.linalg.norm(v) ** 2 for v in p1_ks]))


class TestMuWeights:
    def test_rank2_hand_value(self, rank2_spectrum):
        # lambda^2 = (4, 1), mu^2 = (2, 0), a = (8/3, 1/3):
        # b_1 = 1 / (a_1/4 + a_2/1) = 1, b_2 = 1 / (a_1/16 + a_2/1) = 2
        np.testing.assert_allclose(mu_weights(rank2_spectrum), [1.0, 2.0], rtol=1e-14)

    @given(spectrum_strategy(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_total_mass_is_the_borg_mass(self, ratios, terminal_zero):
        # both sets of weights split ||p||^2 over an orthonormal eigenbasis
        s = chain_to_spectrum(ratios, terminal_zero)
        total = hs.borg_weights(s).sum()
        assert np.all(mu_weights(s) > 0)
        assert abs(mu_weights(s).sum() - total) <= 1e-12 * total

    def test_closed_forms_match_the_projection_oracle(self, seeded_sweep):
        terminal = set()
        for d in seeded_sweep:
            w, w1 = projection_weights(hs.assemble(d))
            np.testing.assert_allclose(hs.borg_weights(d.spectrum), w, rtol=1e-12)
            np.testing.assert_allclose(mu_weights(d.spectrum), w1, rtol=1e-12)
            terminal.add((d.mode, d.spectrum.has_terminal_zero))
        assert terminal == {(mode, zero) for mode in ("cyclic", "multiplicity")
                            for zero in (False, True)}


class TestPhiProduct:
    def test_single_factor(self):
        s = hs.validate_intertwining([1.0], [0.0])
        assert phi_product(s, -1.0) == pytest.approx(0.5)

    def test_zero_limit_is_mass_product(self, rank2_spectrum):
        # Phi(0) = prod mu^2 / lam^2, zero when the terminal mu vanishes
        assert phi_product(rank2_spectrum, 0.0) == 0.0
        s = hs.validate_intertwining([2.0, 1.0], [np.sqrt(2.0), 0.5])
        expected = np.prod(s.mu2 / s.lam2)
        assert phi_product(s, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_herglotz_sign(self):
        s = hs.validate_intertwining([2.0, 1.0], [np.sqrt(2.0), 0.5])
        rng = np.random.default_rng(1)
        for _ in range(25):
            z = complex(rng.uniform(-10, 10), rng.uniform(0.01, 10))
            assert phi_product(s, z).imag < 0

    def test_matches_one_minus_cauchy(self):
        rng = np.random.default_rng(2)
        s = random_spectrum(rng, 6)
        a = hs.borg_weights(s)
        for _ in range(20):
            z = complex(rng.uniform(-5, 5), rng.uniform(0.1, 5))
            phi = phi_product(s, z)
            f = cauchy_transform(s.lam2, a, z)
            assert abs(phi - (1.0 - f)) <= 1e-10


class TestCauchyTransform:
    def test_point_mass(self):
        rho = hs.AtomicMeasure([1.0 + 0j], [1.0])
        assert cauchy_transform(rho.points, rho.weights, -1.0) == pytest.approx(0.5)

    def test_f_equals_one_at_mu(self, rank2_spectrum):
        # poles of F/(1 - F) sit where F = 1; solve numerically between lam2
        a = hs.borg_weights(rank2_spectrum)
        f = lambda x: cauchy_transform(rank2_spectrum.lam2, a, x).real - 1.0
        root = brentq(f, rank2_spectrum.lam2[1] + 1e-6, rank2_spectrum.lam2[0] - 1e-6)
        assert root == pytest.approx(rank2_spectrum.mu2[0], rel=1e-10)

    def test_leading_asymptotics(self):
        rng = np.random.default_rng(3)
        s = random_spectrum(rng, 5)
        a = hs.borg_weights(s)
        z = 1e9
        assert cauchy_transform(s.lam2, a, z) * (-z) == pytest.approx(a.sum(), rel=1e-6)


class TestAtomicMeasure:
    def test_rejects_zero_weight(self):
        with pytest.raises(DegenerateMeasureError):
            hs.AtomicMeasure([1.0, 2.0], [1.0, 0.0])

    def test_rejects_coincident_atoms(self):
        with pytest.raises(DegenerateMeasureError):
            hs.AtomicMeasure([1.0, 1.0 + 1e-15], [0.5, 0.5])

    @pytest.mark.parametrize("points, pair", [
        ([1.0, 2.0, 1.0 + 1e-15, 2.0 + 1e-15], "0 and 2"),
        ([1.0, 2.0, 2.0 + 1e-15, 1.0 + 1e-15], "0 and 3"),
        ([1j, 1.0, -1.0, -1.0 + 1e-15], "2 and 3"),
    ])
    def test_names_the_first_coinciding_pair(self, points, pair):
        # the first pair (i < j) in the order i, then j; not the closest pair
        with pytest.raises(DegenerateMeasureError, match=f"atoms {pair} coincide"):
            hs.AtomicMeasure(points, [0.25] * 4)

    def test_rejects_off_circle_point(self):
        with pytest.raises(DegenerateMeasureError, match="off the unit circle"):
            hs.AtomicMeasure([0.5 + 0j], [1.0])

    def test_rejects_mass_other_than_one(self):
        with pytest.raises(DegenerateMeasureError, match="weights sum to 0.7, not 1"):
            hs.AtomicMeasure([1.0 + 0j], [0.7])

    @pytest.mark.parametrize("z", [complex("nan"), complex(1.0, float("nan")),
                                   complex("inf")])
    def test_rejects_non_finite_point(self, z):
        with pytest.raises(DegenerateMeasureError, match="finite"):
            hs.AtomicMeasure([z], [1.0])

    def test_caller_arrays_stay_writeable(self):
        p = np.array([1.0 + 0j, -1.0 + 0j])
        w = np.array([0.25, 0.75])
        m = hs.AtomicMeasure(p, w)
        assert p.flags.writeable and w.flags.writeable
        assert not (m.points.flags.writeable or m.weights.flags.writeable)
        p[0] = 1j
        assert m.points[0] == 1.0


def _point_mass_data(s, xi, eta):
    """Multiplicity data whose every measure is one atom of weight 1."""
    delta = lambda z: hs.AtomicMeasure([z], [1.0])
    rho1 = [delta(z) for z in eta[: s.n - s.has_terminal_zero]]
    return hs.CompactSpectralData(s, [delta(z) for z in xi], rho1)


class TestPointMasses:
    @pytest.mark.parametrize("n, terminal_zero", [(1, True), (3, False), (4, True)])
    def test_point_masses_are_cyclic_data(self, n, terminal_zero):
        rng = np.random.default_rng(40 + n)
        s = random_spectrum(rng, n, terminal_zero)
        xi, eta = random_phases(rng, n), random_phases(rng, n)
        if terminal_zero:
            eta[-1] = 0.0
        cyc = hs.CompactSpectralData.cyclic(s, xi, eta)
        mult = _point_mass_data(s, xi, eta)
        assert mult.mode == cyc.mode == "cyclic"
        assert mult.xi == cyc.xi == tuple(xi)
        assert mult.eta == cyc.eta == tuple(eta)
        for emit, obj in ((serialize.emit_spectral_data, lambda d: d),
                          (serialize.emit_bundle, hs.assemble)):
            assert serialize.dumps(emit(obj(mult))) == serialize.dumps(emit(obj(cyc)))

    def test_one_measure_of_several_atoms_makes_multiplicity_data(self):
        rng = np.random.default_rng(5)
        s = random_spectrum(rng, 2, terminal_zero=True)
        d = _point_mass_data(s, [1.0, 1j], [-1.0])
        d = hs.CompactSpectralData(s, [d.rho[0], random_circle_measure(rng, 2)], d.rho1)
        assert d.mode == "multiplicity"
        assert serialize.emit_spectral_data(d)["mode"] == "multiplicity"
        with pytest.raises(ValueError):
            d.xi

    def test_cyclic_forward_data_writes_phases(self, rank2_data):
        fd = hs.forward_extract(hs.hankel_from_data(rank2_data))
        assert all(len(m.points) == 1 for m in fd.data.rho + fd.data.rho1[:-1])
        doc = serialize.emit_forward_data(fd)
        assert doc["mode"] == "cyclic"
        assert [e["type"] for e in doc["xi"]] == ["phase", "phase"]
        assert doc["eta"][0]["type"] == "phase" and doc["eta"][1] is None

    @pytest.mark.parametrize("xi, eta, match", [
        ([1.0, 0.5], [1.0, 0.0], r"xi\[1\]"),
        ([1.0, 1.0], [2.0, 0.0], r"eta\[0\]"),
        ([1.0, 1.0], [1.0, 1.0], "vanish at the terminal"),
        ([1.0], [1.0, 0.0], "expected 2 xi"),
        ([1.0, 1.0], [], "expected 2 eta"),
    ])
    def test_cyclic_refuses_bad_phases(self, rank2_spectrum, xi, eta, match):
        with pytest.raises(NonUnimodularPhaseError, match=match):
            hs.CompactSpectralData.cyclic(rank2_spectrum, xi, eta)

    def test_constructor_refuses_bad_measures(self, rank2_spectrum):
        delta = hs.AtomicMeasure.point_mass(1.0)
        # a bare phase where a measure belongs
        for rho, rho1, match in (([delta], [delta], "expected 2 rho "),
                                 ([delta, 1.0 + 0j], [delta], r"rho\[1\] must"),
                                 ([delta, delta], [delta, delta], "absent at the terminal"),
                                 ([delta, delta], [None, None], r"rho1\[0\] must")):
            with pytest.raises(DegenerateMeasureError, match=match):
                hs.CompactSpectralData(rank2_spectrum, rho, rho1)

    @pytest.mark.parametrize("entry", [None, (1.0, 1.0)])
    def test_constructor_refuses_non_measures(self, rank2_spectrum, entry):
        delta = hs.AtomicMeasure.point_mass(1.0)
        s1 = hs.validate_intertwining([1.0], [0.0])
        for spectrum, rho, rho1, match in ((s1, [entry], [], r"rho\[0\] must"),
                                           (rank2_spectrum, [delta, entry], [delta],
                                            r"rho\[1\] must"),
                                           (rank2_spectrum, [delta, delta], [entry],
                                            r"rho1\[0\] must")):
            with pytest.raises(DegenerateMeasureError, match=match):
                hs.CompactSpectralData(spectrum, rho, rho1)
