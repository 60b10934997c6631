import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hankel_spectra as hs
from hankel_spectra.clark import _herglotz_sum
from hankel_spectra.errors import (
    DegenerateMeasureError,
    RootOffCircleError,
    ThetaAtOriginNonzeroError,
)
from hankel_spectra.random_data import random_circle_measure


def delta(point):
    return hs.AtomicMeasure([point], [1.0], circle=True, probability=True)


class TestBlaschkeProduct:
    def test_unimodular_on_circle(self):
        rng = np.random.default_rng(0)
        zeros = 0.8 * (rng.standard_normal(5) + 1j * rng.standard_normal(5)) / 3.0
        zeros[0] = 0.0
        theta = hs.BlaschkeProduct(zeros=zeros, constant=np.exp(0.9j))
        xs = np.exp(2j * np.pi * rng.random(100))
        assert np.abs(np.abs(theta(xs)) - 1.0).max() <= 1e-10

    def test_rejects_zero_outside_disk(self):
        with pytest.raises(RootOffCircleError):
            hs.BlaschkeProduct(zeros=[1.0])

    def test_derivative_matches_finite_difference(self):
        theta = hs.BlaschkeProduct(zeros=[0.0, 0.3 + 0.2j], constant=np.exp(0.4j))
        z = 0.21 - 0.37j
        h = 1e-7
        fd = (theta(z + h) - theta(z - h)) / (2 * h)
        assert theta.derivative(z) == pytest.approx(fd, rel=1e-6)


class TestClarkMeasure:
    def test_identity_function(self):
        m = hs.clark_measure(hs.BlaschkeProduct(zeros=[0.0]))
        assert m.points[0] == 1.0 + 0j
        assert m.weights[0] == 1.0

    def test_square(self):
        m = hs.clark_measure(hs.BlaschkeProduct(zeros=[0.0, 0.0])).canonically_sorted()
        np.testing.assert_allclose(m.points, [1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(m.weights, [0.5, 0.5], atol=1e-12)
        # defining integral identity at 10 random points in the disk
        rng = np.random.default_rng(1)
        theta = hs.BlaschkeProduct(zeros=[0.0, 0.0])
        z = 0.8 * np.sqrt(rng.random(10)) * np.exp(2j * np.pi * rng.random(10))
        target = (1.0 + theta(z)) / (1.0 - theta(z))
        assert np.abs(_herglotz_sum(m, z) - target).max() <= 1e-10

    def test_rotated_identity(self):
        c = np.exp(0.7j)
        m = hs.clark_measure(hs.BlaschkeProduct(zeros=[0.0], constant=c))
        # single atom at the unique solution of c * xi = 1
        assert m.points[0] == pytest.approx(np.conj(c))
        assert m.weights[0] == pytest.approx(1.0)

    def test_requires_zero_at_origin(self):
        with pytest.raises(ThetaAtOriginNonzeroError):
            hs.clark_measure(hs.BlaschkeProduct(zeros=[0.4]))

    def test_degree_equals_support(self):
        rng = np.random.default_rng(2)
        for deg in (1, 2, 4, 6):
            zeros = 0.25 * (rng.standard_normal(deg) + 1j * rng.standard_normal(deg))
            zeros[0] = 0.0
            m = hs.clark_measure(hs.BlaschkeProduct(zeros=zeros))
            assert len(m.points) == deg


class TestInnerFromMeasure:
    def test_delta_one(self):
        theta = hs.inner_from_measure(delta(1.0 + 0j))
        assert theta.degree == 1
        assert theta.zeros[0] == 0.0
        assert theta.constant == 1.0 + 0j

    def test_half_half(self):
        m = hs.AtomicMeasure([1.0 + 0j, -1.0 + 0j], [0.5, 0.5],
                             circle=True, probability=True)
        theta = hs.inner_from_measure(m)
        np.testing.assert_allclose(theta.zeros, [0.0, 0.0], atol=1e-12)
        assert theta.constant == pytest.approx(1.0 + 0j)

    def test_rejects_non_probability(self):
        m = hs.AtomicMeasure([1.0 + 0j], [2.0], circle=True)
        with pytest.raises(DegenerateMeasureError):
            hs.inner_from_measure(m)

    @pytest.mark.parametrize("seed", range(6))
    def test_roundtrip_random(self, seed):
        rng = np.random.default_rng(seed)
        m = random_circle_measure(rng, int(rng.integers(1, 7)))
        theta = hs.inner_from_measure(m)
        assert theta.degree == len(m.points)
        back = hs.clark_measure(theta).canonically_sorted()
        ref = m.canonically_sorted()
        assert np.abs(back.points - ref.points).max() <= 1e-8
        assert np.abs(back.weights - ref.weights).max() <= 1e-8

    def test_defining_identity_disk(self):
        rng = np.random.default_rng(3)
        m = random_circle_measure(rng, 4)
        theta = hs.inner_from_measure(m)
        z = 0.9 * np.sqrt(rng.random(20)) * np.exp(2j * np.pi * rng.random(20))
        lhs = (1.0 + theta(z)) / (1.0 - theta(z))
        assert np.abs(lhs - _herglotz_sum(m, z)).max() <= 1e-8


class TestReflection:
    def test_examples(self):
        assert hs.reflect_measure(delta(1.0 + 0j)).points[0] == 1.0 + 0j
        assert hs.reflect_measure(delta(1j)).points[0] == -1j

    @given(st.lists(st.integers(min_value=0, max_value=359), min_size=1, max_size=6,
                    unique=True))
    @settings(max_examples=40, deadline=None)
    def test_involution_preserves_mass(self, degrees):
        points = np.exp(1j * np.deg2rad(np.asarray(degrees, dtype=float)))
        weights = np.linspace(1.0, 2.0, len(points))
        m = hs.AtomicMeasure(points, weights, circle=True)
        twice = hs.reflect_measure(hs.reflect_measure(m))
        np.testing.assert_allclose(twice.points, m.points)
        assert twice.total_mass == pytest.approx(m.total_mass)


class TestGpConvert:
    def test_identity_levels_give_cyclic_data(self):
        thetas = [hs.BlaschkeProduct(zeros=[0.0]), hs.BlaschkeProduct(zeros=[0.0])]
        theta1s = [hs.BlaschkeProduct(zeros=[0.0]), None]
        rho, rho1 = hs.gp_convert_to_measures(thetas, theta1s)
        for m in rho:
            assert len(m.points) == 1 and m.points[0] == pytest.approx(1.0)
        s = hs.validate_intertwining([2.0, 1.0], [np.sqrt(2.0), 0.0])
        d = hs.CompactSpectralData.multiplicity(s, rho, rho1)
        b = hs.assemble(d)
        cyc = hs.assemble(hs.CompactSpectralData.cyclic(s, [1.0, 1.0], [1.0, 0.0]))
        np.testing.assert_allclose(
            hs.gamma_sequence(b, 30), hs.gamma_sequence(cyc, 30), atol=1e-12)

    def test_square_gives_two_dimensional_level(self):
        rho, rho1 = hs.gp_convert_to_measures([hs.BlaschkeProduct(zeros=[0.0, 0.0])], [None])
        s = hs.validate_intertwining([1.0], [0.0])
        b = hs.assemble(hs.CompactSpectralData.multiplicity(s, rho, rho1))
        assert len(b.layout.lam_blocks[0]) == 2

    def test_cross_validates_against_forward_extraction(self):
        # inner-function data, pushed through the full synthesis pipeline,
        # must come back from the truncated matrix as the same measures
        zeros1 = np.array([0.0, 0.2 + 0.3j])
        zeros2 = np.array([0.0])
        zeros3 = np.array([0.0, -0.4j])
        thetas = [hs.BlaschkeProduct(zeros=zeros1), hs.BlaschkeProduct(zeros=zeros2)]
        theta1s = [hs.BlaschkeProduct(zeros=zeros3), None]
        rho, rho1 = hs.gp_convert_to_measures(thetas, theta1s)
        s = hs.validate_intertwining([1.5, 0.8], [1.1, 0.0])
        d = hs.CompactSpectralData.multiplicity(s, rho, rho1)
        h = hs.hankel_from_data(d)
        fd = hs.forward_extract(h)
        got0 = fd.xi[0].canonically_sorted()
        ref0 = rho[0].canonically_sorted()
        assert np.abs(got0.points - ref0.points).max() <= 1e-8
        assert np.abs(got0.weights - ref0.weights).max() <= 1e-8
        got_eta = fd.eta[0].canonically_sorted()
        ref_eta = rho1[0].canonically_sorted()
        assert np.abs(got_eta.points - ref_eta.points).max() <= 1e-8
        assert np.abs(got_eta.weights - ref_eta.weights).max() <= 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed + 10)
        rho = [random_circle_measure(rng, int(rng.integers(1, 4))) for _ in range(2)]
        rho1 = [random_circle_measure(rng, int(rng.integers(1, 4))), None]
        thetas, theta1s = hs.gp_convert_to_inner(rho, rho1)
        back, back1 = hs.gp_convert_to_measures(thetas, theta1s)
        for ref, got in zip(rho + [m for m in rho1 if m is not None],
                            list(back) + [m for m in back1 if m is not None]):
            a, bb = ref.canonically_sorted(), got.canonically_sorted()
            assert np.abs(a.points - bb.points).max() <= 1e-8
            assert np.abs(a.weights - bb.weights).max() <= 1e-8
        assert back1[-1] is None
