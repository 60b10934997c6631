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
    PoleProximityError,
)
from hankel_spectra.random_data import random_circle_measure, random_phases, random_spectrum


def spectrum_strategy(max_n=12):
    # ratio >= 0.6 keeps even a 23-step chain above the squared-gap
    # degeneracy tolerance (0.6^23 squared is still > 1e-12 * scale)
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.floats(min_value=0.6, max_value=0.9),
                           min_size=2 * n - 1, max_size=2 * n - 1))


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
        rho = hs.borg_weights(s)
        np.testing.assert_allclose(rho.weights, [1.0])
        np.testing.assert_allclose(rho.points, [1.0 + 0j])

    def test_rank2_hand_value(self, rank2_spectrum):
        rho = hs.borg_weights(rank2_spectrum)
        np.testing.assert_allclose(rho.weights, [8.0 / 3.0, 1.0 / 3.0], rtol=1e-14)

    def test_rank2_eigenvalue_oracle(self, rank2_spectrum):
        # W = diag(4, 1), p = (sqrt(8/3), sqrt(1/3)); W - pp* must have eigenvalues {2, 0}
        rho = hs.borg_weights(rank2_spectrum)
        p = np.sqrt(rho.weights)
        W = np.diag(rank2_spectrum.lam2) - np.outer(p, p)
        evals = np.sort(np.linalg.eigvalsh(W))[::-1]
        np.testing.assert_allclose(evals, [2.0, 0.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_eigenvalue_oracle_random(self, seed):
        rng = np.random.default_rng(seed)
        s = random_spectrum(rng, int(rng.integers(1, 13)))
        rho = hs.borg_weights(s)
        p = np.sqrt(rho.weights)
        evals = np.linalg.eigvalsh(np.diag(s.lam2) - np.outer(p, p))
        np.testing.assert_allclose(np.sort(evals)[::-1], s.mu2,
                                   rtol=1e-9, atol=1e-9 * s.scale2)

    @given(spectrum_strategy(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_weight_identities(self, ratios, terminal_zero):
        s = chain_to_spectrum(ratios, terminal_zero)
        rho = hs.borg_weights(s)
        assert np.all(rho.weights > 0)
        trace = float(np.sum(s.lam2 - s.mu2))
        assert abs(rho.weights.sum() - trace) <= 1e-12 * trace
        lhs = 1.0 - float(np.sum(rho.weights / s.lam2))
        rhs = float(np.prod(s.mu2 / s.lam2))
        assert abs(lhs - rhs) <= 1e-10
        assert np.sum(rho.weights / s.lam2) <= 1.0 + 1e-12


class TestKernelConditions:
    def test_terminal_zero(self, rank2_spectrum):
        flags = hs.kernel_conditions(rank2_spectrum)
        assert flags.norm_is_one

    def test_positive_terminal(self):
        s = hs.validate_intertwining([2.0, 1.0], [np.sqrt(2.0), 0.5])
        flags = hs.kernel_conditions(s)
        assert flags == hs.kernel_conditions(s)  # deterministic record
        assert not flags.norm_is_one
        assert np.isfinite(flags.partial_sum_norm)

    def test_rank1(self):
        flags = hs.kernel_conditions(hs.validate_intertwining([1.0], [0.0]))
        assert flags.norm_is_one
        assert flags.partial_sum_norm == np.inf


class TestPhiProduct:
    def test_single_factor(self):
        s = hs.validate_intertwining([1.0], [0.0])
        assert hs.phi_product_eval(s, -1.0) == pytest.approx(0.5)

    def test_zero_limit_is_mass_product(self, rank2_spectrum):
        # Phi(0) = prod mu^2 / lam^2, zero when the terminal mu vanishes
        assert hs.phi_product_eval(rank2_spectrum, 0.0) == 0.0
        s = hs.validate_intertwining([2.0, 1.0], [np.sqrt(2.0), 0.5])
        expected = np.prod(s.mu2 / s.lam2)
        assert hs.phi_product_eval(s, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_herglotz_sign(self):
        s = hs.validate_intertwining([2.0, 1.0], [np.sqrt(2.0), 0.5])
        rng = np.random.default_rng(1)
        for _ in range(25):
            z = complex(rng.uniform(-10, 10), rng.uniform(0.01, 10))
            assert hs.phi_product_eval(s, z).imag < 0

    def test_pole_proximity(self, rank2_spectrum):
        with pytest.raises(PoleProximityError):
            hs.phi_product_eval(rank2_spectrum, 4.0 + 1e-14)

    def test_matches_one_minus_cauchy(self):
        rng = np.random.default_rng(2)
        s = random_spectrum(rng, 6)
        rho = hs.borg_weights(s)
        for _ in range(20):
            z = complex(rng.uniform(-5, 5), rng.uniform(0.1, 5))
            phi = hs.phi_product_eval(s, z)
            f = hs.cauchy_transform_eval(rho, z)
            assert abs(phi - (1.0 - f)) <= 1e-10


class TestCauchyTransform:
    def test_point_mass(self):
        rho = hs.AtomicMeasure([1.0 + 0j], [1.0])
        assert hs.cauchy_transform_eval(rho, -1.0) == pytest.approx(0.5)

    def test_f_equals_one_at_mu(self, rank2_spectrum):
        # poles of F/(1 - F) sit where F = 1; solve numerically between lam2
        rho = hs.borg_weights(rank2_spectrum)
        f = lambda x: hs.cauchy_transform_eval(rho, x).real - 1.0
        root = brentq(f, rank2_spectrum.lam2[1] + 1e-6, rank2_spectrum.lam2[0] - 1e-6)
        assert root == pytest.approx(rank2_spectrum.mu2[0], rel=1e-10)

    def test_leading_asymptotics(self):
        rng = np.random.default_rng(3)
        s = random_spectrum(rng, 5)
        rho = hs.borg_weights(s)
        z = 1e9
        assert hs.cauchy_transform_eval(rho, z) * (-z) == pytest.approx(
            rho.weights.sum(), rel=1e-6)

    def test_pole_proximity(self):
        rho = hs.AtomicMeasure([1.0 + 0j], [1.0])
        with pytest.raises(PoleProximityError):
            hs.cauchy_transform_eval(rho, 1.0 + 1e-14)


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

    def test_circle_flag_enforced(self):
        with pytest.raises(DegenerateMeasureError):
            hs.AtomicMeasure([0.5 + 0j], [1.0], circle=True)

    def test_probability_flag_enforced(self):
        with pytest.raises(DegenerateMeasureError):
            hs.AtomicMeasure([1.0 + 0j], [0.7], probability=True)

    @pytest.mark.parametrize("z", [complex("nan"), complex(1.0, float("nan")),
                                   complex("inf")])
    def test_rejects_non_finite_point(self, z):
        with pytest.raises(DegenerateMeasureError, match="finite"):
            hs.AtomicMeasure([z], [1.0], circle=True, probability=True)

    def test_caller_arrays_stay_writeable(self):
        p = np.array([1.0 + 0j, -1.0 + 0j])
        w = np.array([0.25, 0.75])
        m = hs.AtomicMeasure(p, w, circle=True, probability=True)
        assert p.flags.writeable and w.flags.writeable
        assert not (m.points.flags.writeable or m.weights.flags.writeable)
        p[0] = 1j
        assert m.points[0] == 1.0

    def test_canonical_sort_circle(self):
        m = hs.AtomicMeasure([-1.0 + 0j, 1.0 + 0j], [0.25, 0.75],
                             circle=True, probability=True)
        srt = m.canonically_sorted()
        assert srt.points[0] == 1.0 + 0j and srt.weights[0] == 0.75


def _point_mass_data(s, xi, eta):
    """Multiplicity data whose every measure is one atom of weight 1."""
    delta = lambda z: hs.AtomicMeasure([z], [1.0], circle=True, probability=True)
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
        assert all(len(m.points) == 1 for m in fd.rho + fd.rho1[:-1])
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
        plain = hs.AtomicMeasure([1.0], [1.0])
        for rho, rho1, match in (([delta], [delta], "expected 2 rho "),
                                 ([delta, plain], [delta], r"rho\[1\] must"),
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
