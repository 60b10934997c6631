import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

import hankel_spectra as hs
from hankel_spectra import serialize
from hankel_spectra.errors import (
    DegenerateMeasureError,
    RootOffCircleError,
    ThetaAtOriginNonzeroError,
)
from hankel_spectra.random_data import random_circle_measure
from hankel_spectra.roundtrip import atoms_difference

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def delta(point):
    return hs.AtomicMeasure([point], [1.0])


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

    def test_caller_zeros_stay_writeable(self):
        zeros = np.array([0.0, 0.3 + 0.2j])
        theta = hs.BlaschkeProduct(zeros=zeros)
        assert zeros.flags.writeable and not theta.zeros.flags.writeable
        zeros[1] = 0.5
        assert theta.zeros[1] == 0.3 + 0.2j

    def test_rejects_nan_zero(self):
        with pytest.raises(RootOffCircleError):
            hs.clark_measure(hs.BlaschkeProduct([0.0, np.nan]))

    def test_rejects_nan_constant(self):
        with pytest.raises(RootOffCircleError):
            hs.BlaschkeProduct([0.0], constant=complex(np.nan, 0.0))

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

    def test_square(self, herglotz_sum):
        m = hs.clark_measure(hs.BlaschkeProduct(zeros=[0.0, 0.0]))
        assert atoms_difference(m, hs.AtomicMeasure([1.0, -1.0], [0.5, 0.5])) <= 1e-12
        # defining integral identity at 10 random points in the disk
        rng = np.random.default_rng(1)
        theta = hs.BlaschkeProduct(zeros=[0.0, 0.0])
        z = 0.8 * np.sqrt(rng.random(10)) * np.exp(2j * np.pi * rng.random(10))
        target = (1.0 + theta(z)) / (1.0 - theta(z))
        assert np.abs(herglotz_sum(m, z) - target).max() <= 1e-10

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
        assert len(theta.zeros) == 1
        assert theta.zeros[0] == 0.0
        assert theta.constant == 1.0 + 0j

    def test_half_half(self):
        m = hs.AtomicMeasure([1.0 + 0j, -1.0 + 0j], [0.5, 0.5])
        theta = hs.inner_from_measure(m)
        np.testing.assert_allclose(theta.zeros, [0.0, 0.0], atol=1e-12)
        assert theta.constant == pytest.approx(1.0 + 0j)

    def test_rejects_non_probability(self):
        # a mass other than 1 is refused on construction, before the dictionary
        with pytest.raises(DegenerateMeasureError, match="not 1"):
            hs.AtomicMeasure([1.0 + 0j], [2.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_roundtrip_random(self, seed):
        rng = np.random.default_rng(seed)
        m = random_circle_measure(rng, int(rng.integers(1, 7)))
        theta = hs.inner_from_measure(m)
        assert len(theta.zeros) == len(m.points)
        assert atoms_difference(hs.clark_measure(theta), m) <= 1e-8

    def test_defining_identity_disk(self, herglotz_sum):
        rng = np.random.default_rng(3)
        m = random_circle_measure(rng, 4)
        theta = hs.inner_from_measure(m)
        z = 0.9 * np.sqrt(rng.random(20)) * np.exp(2j * np.pi * rng.random(20))
        lhs = (1.0 + theta(z)) / (1.0 - theta(z))
        assert np.abs(lhs - herglotz_sum(m, z)).max() <= 1e-8


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
        m = hs.AtomicMeasure(points, weights / weights.sum())
        twice = hs.reflect_measure(hs.reflect_measure(m))
        np.testing.assert_allclose(twice.points, m.points)
        assert twice.weights.sum() == pytest.approx(m.weights.sum())


class TestGpConvert:
    def test_identity_levels_give_cyclic_data(self):
        thetas = [hs.BlaschkeProduct(zeros=[0.0]), hs.BlaschkeProduct(zeros=[0.0])]
        theta1s = [hs.BlaschkeProduct(zeros=[0.0]), None]
        rho, rho1 = hs.gp_convert_to_measures(thetas, theta1s)
        for m in rho:
            assert len(m.points) == 1 and m.points[0] == pytest.approx(1.0)
        s = hs.validate_intertwining([2.0, 1.0], [np.sqrt(2.0), 0.0])
        d = hs.CompactSpectralData(s, rho, rho1)
        b = hs.assemble(d)
        cyc = hs.assemble(hs.CompactSpectralData.cyclic(s, [1.0, 1.0], [1.0, 0.0]))
        np.testing.assert_allclose(
            hs.gamma_sequence(b, 30), hs.gamma_sequence(cyc, 30), atol=1e-12)

    def test_square_gives_two_dimensional_level(self):
        rho, rho1 = hs.gp_convert_to_measures([hs.BlaschkeProduct(zeros=[0.0, 0.0])], [None])
        s = hs.validate_intertwining([1.0], [0.0])
        b = hs.assemble(hs.CompactSpectralData(s, rho, rho1))
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
        d = hs.CompactSpectralData(s, rho, rho1)
        h = hs.hankel_from_data(d)
        fd = hs.forward_extract(h)
        assert atoms_difference(fd.data.rho[0], rho[0]) <= 1e-8
        assert atoms_difference(fd.data.rho1[0], rho1[0]) <= 1e-8

    @pytest.mark.parametrize("seed", range(4))
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed + 10)
        rho = [random_circle_measure(rng, int(rng.integers(1, 4))) for _ in range(2)]
        rho1 = [random_circle_measure(rng, int(rng.integers(1, 4))), None]
        thetas, theta1s = hs.gp_convert_to_inner(rho, rho1)
        back, back1 = hs.gp_convert_to_measures(thetas, theta1s)
        for ref, got in zip(rho + [m for m in rho1 if m is not None],
                            list(back) + [m for m in back1 if m is not None]):
            assert atoms_difference(got, ref) <= 1e-8
        assert back1[-1] is None


class _NumpyPolynomialProduct(hs.BlaschkeProduct):
    """A Blaschke product whose coefficient arithmetic runs through
    numpy.polynomial, the reference the plain-array path must match bit for
    bit."""

    def as_rational(self):
        num = self.constant * P.polyfromroots(self.zeros)
        den = np.asarray([1.0 + 0j])
        for z in self.zeros:
            den = P.polymul(den, [1.0, -np.conj(z)])
        return num, den

    def derivative(self, z):
        num, den = self.as_rational()
        z = np.asarray(z, dtype=complex)
        nv = P.polyval(z, num)
        dv = P.polyval(z, den)
        npv = P.polyval(z, P.polyder(num))
        dpv = P.polyval(z, P.polyder(den))
        out = (npv * dv - nv * dpv) / dv**2
        return out if out.shape else complex(out)


def _reference_clark_measure(theta):
    num, den = theta.as_rational()
    roots = P.polyroots(P.polysub(num, den))
    d = theta.derivative(roots)
    safe = np.abs(d) > 1e-300
    roots = np.where(safe, roots - (np.asarray(theta(roots)) - 1.0) / np.where(safe, d, 1.0), roots)
    roots = roots / np.abs(roots)
    return roots, 1.0 / np.abs(theta.derivative(roots))


def _reference_inner_from_measure(rho):
    xi, w, n = rho.points, rho.weights, len(rho.points)
    den_poly = np.asarray([1.0 + 0j])
    for x in xi:
        den_poly = P.polymul(den_poly, [1.0, -np.conj(x)])
    p_poly = np.zeros(n + 1, dtype=complex)
    for j in range(n):
        term = np.asarray([w[j], w[j] * np.conj(xi[j])])
        for i in range(n):
            if i != j:
                term = P.polymul(term, [1.0, -np.conj(xi[i])])
        p_poly = P.polyadd(p_poly, term)
    num = P.polysub(p_poly, den_poly)
    den = P.polyadd(p_poly, den_poly)
    zeros = P.polyroots(num)
    zeros = np.where(np.abs(zeros) <= 1e-8, 0.0, zeros)
    for z0 in (0.37, 0.49 + 0.11j, -0.23 + 0.31j, 0.05 - 0.43j):
        b0 = np.prod((z0 - zeros) / (1.0 - np.conj(zeros) * z0))
        dv = P.polyval(z0, den)
        if abs(b0) > 1e-6 and abs(dv) > 1e-12:
            c = P.polyval(z0, num) / dv / b0
            break
    return zeros, c / abs(c)


class TestCoefficientPath:
    """Both directions of the dictionary give the numpy.polynomial
    coefficient reference's zeros, constants, atoms, weights and theta', in
    the reference's order, within REFERENCE_ATOL."""

    # the eigenproblems and the reference round differently; the largest
    # move over 1200 seeded measures of 1-12 atoms was 5.0e-14
    REFERENCE_ATOL = 1e-12

    @classmethod
    def assert_close(cls, got, ref):
        got, ref = np.asarray(got), np.asarray(ref)
        assert got.shape == ref.shape and np.abs(got - ref).max() <= cls.REFERENCE_ATOL

    @classmethod
    def assert_clark_matches(cls, theta):
        m = hs.clark_measure(theta)
        points, weights = _reference_clark_measure(
            _NumpyPolynomialProduct(theta.zeros, theta.constant))
        cls.assert_close(m.points, points)
        cls.assert_close(m.weights, weights)
        return m

    @classmethod
    def assert_inner_matches(cls, m):
        theta = hs.inner_from_measure(m)
        zeros, c = _reference_inner_from_measure(m)
        cls.assert_close(theta.zeros, zeros)
        cls.assert_close(theta.constant, c)
        return theta

    @pytest.mark.parametrize("atoms", range(1, 9))
    def test_seeded_measures(self, atoms):
        for seed in range(5):
            m = random_circle_measure(np.random.default_rng(100 * atoms + seed), atoms)
            theta = self.assert_inner_matches(m)
            self.assert_clark_matches(theta)
            for z in (0.3 - 0.2j, np.exp(2j * np.pi * np.arange(5) / 5)):
                ref = _NumpyPolynomialProduct(theta.zeros, theta.constant).derivative(z)
                self.assert_close(theta.derivative(z), ref)

    def test_fixture_levels(self):
        thetas, theta1s = serialize.parse_clark_levels(
            json.loads((FIXTURES / "clark_levels.json").read_text()))
        for theta in thetas + [t for t in theta1s if t is not None]:
            self.assert_inner_matches(self.assert_clark_matches(theta))


def equal_weight_measure(angles):
    m = len(angles)
    return hs.AtomicMeasure(np.exp(1j * np.asarray(angles)), np.full(m, 1.0 / m))


class TestClusteredAtoms:
    """Atoms a few milliradians apart are well-posed input: the dictionary
    inverts them with an error that grows like 1/separation."""

    @pytest.mark.parametrize("m, sep", [(8, 0.03), (5, 0.01), (8, 0.01)])
    def test_cli_round_trip(self, tmp_path, m, sep):
        from hankel_spectra.cli import main

        rho = equal_weight_measure(sep * np.arange(m))
        measures = tmp_path / "measures.json"
        measures.write_text(serialize.dumps(serialize.emit_measure_levels([rho], [None])))
        thetas, back = tmp_path / "thetas.json", tmp_path / "back.json"
        assert main(["convert-clark", "--input", str(measures), "--output", str(thetas)]) == 0
        assert main(["convert-clark", "--input", str(thetas), "--output", str(back)]) == 0
        (got,), _ = serialize.parse_measure_levels(json.loads(back.read_text()))
        assert atoms_difference(got, rho) <= 1e-11

    @pytest.mark.parametrize("sep", [0.1, 0.03, 0.01, 0.003, 0.001])
    def test_seeded_sweep(self, sep):
        for m in (3, 5, 8, 12, 16):
            for seed in range(4):
                rng = np.random.default_rng([seed, m])
                weights = rng.uniform(0.1, 1.0, m)
                angles = rng.uniform(0.0, 2.0 * np.pi) + sep * np.arange(m)
                rho = hs.AtomicMeasure(np.exp(1j * angles), weights / weights.sum())
                back = hs.clark_measure(hs.inner_from_measure(rho))
                assert atoms_difference(back, rho) <= 1e-11 / sep, (m, seed)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_multiple_zero_at_origin(self, m):
        # equal weights at the m-th roots of unity: theta = z^m
        rho = equal_weight_measure(2.0 * np.pi * np.arange(m) / m)
        theta = hs.inner_from_measure(rho)
        assert len(theta.zeros) == m and abs(theta.constant - 1.0) <= 1e-14
        assert atoms_difference(hs.clark_measure(theta), rho) <= 1e-14


def test_zeros_are_the_compressed_phase_block(seeded_sweep):
    # the nonzero zeros of a level's inner function are the conjugate
    # spectrum of its phase block compressed to the complement of e_0
    levels = 0
    for d in seeded_sweep:
        if d.mode != "multiplicity":
            continue
        b = hs.assemble(d)
        thetas, _ = hs.gp_convert_to_inner(d.rho, d.rho1)
        for theta, block in zip(thetas, b.layout.lam_blocks):
            if len(block) == 1:
                continue
            eig = np.linalg.eigvals(b.phi[np.ix_(block[1:], block[1:])])
            expected = np.concatenate(([0.0], np.conj(eig)))
            gaps = np.abs(theta.zeros[:, None] - expected)
            assert max(gaps.min(axis=0).max(), gaps.min(axis=1).max()) <= 1e-13
            levels += 1
    assert levels >= 50
