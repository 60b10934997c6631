import numpy as np
import pytest

import hankel_spectra as hs
from hankel_spectra.operator_assembly import assemble_from_operators, _measure_frame
from hankel_spectra.random_data import random_multiplicity_data
from hankel_spectra.stability import DECAY_STEPS


class TestStabilityReport:
    def test_rank1(self, rank1_data):
        b = hs.assemble(rank1_data)
        report = hs.stability_report(b)
        assert report.spectral_radius_sigma <= 1e-14
        np.testing.assert_allclose(report.decay_profile, [1] + [0] * DECAY_STEPS, atol=1e-14)
        assert report.cnu_passed

    def test_rank2_profile_decays(self):
        s = hs.validate_intertwining([2.0, 1.0], [1.2, 0.0])
        b = hs.assemble(hs.CompactSpectralData.cyclic(s, [1.0, -1.0], [1.0, 0.0]))
        report = hs.stability_report(b)
        assert report.decay_profile[-1] <= 1e-6
        diffs = np.diff(report.decay_profile)
        assert diffs.max() <= 1e-12  # nonincreasing up to roundoff

    def test_intertwine_residual(self, bundle_corpus):
        for b in bundle_corpus:
            report = hs.stability_report(b)
            assert report.intertwine_residual <= 1e-12
            assert report.norm_A <= 1.0 + 1e-12

    def test_radius_below_one_on_corpus(self, bundle_corpus):
        for b in bundle_corpus:
            report = hs.stability_report(b)
            assert report.spectral_radius_sigma < 1.0


def tampered_bundle(seed=61):
    """Multiplicity bundle whose first level phase ignores one atom of p_k:
    equivalent to an atom of weight zero, which breaks *-cyclicity."""
    rng = np.random.default_rng(seed)
    d = random_multiplicity_data(rng, 2, max_atoms=3, terminal_zero=False)
    while len(d.rho[0].points) < 2:
        d = random_multiplicity_data(rng, 2, max_atoms=3, terminal_zero=False)
    b = hs.assemble(d)
    block = np.asarray(b.layout.lam_blocks[0])
    dsz = len(block)
    # phase block built from a weight vector with a vanished atom
    weights = np.zeros(dsz)
    weights[: dsz - 1] = 1.0 / (dsz - 1)
    frame = _measure_frame(weights)
    atoms = np.exp(2j * np.pi * (np.arange(dsz) + 0.31) / dsz)
    phi = np.array(b.phi)
    phi[np.ix_(block, block)] = (frame * atoms) @ frame.T
    return b, assemble_from_operators(b.R, b.R1, b.p, phi, b.phi1, b.Jp, b.layout)


class TestCnuCertificate:
    def test_valid_measures_pass(self, bundle_corpus):
        for b in bundle_corpus:
            flags = hs.cnu_certificate(b)
            assert all(level.passed for level in flags)

    def test_zero_weight_atom_fails_at_level(self):
        good, bad = tampered_bundle()
        flags_good = hs.cnu_certificate(good)
        flags_bad = hs.cnu_certificate(bad)
        assert all(level.passed for level in flags_good)
        failed = [lv for lv in flags_bad if not lv.passed]
        assert failed and failed[0].kind == "lambda" and failed[0].index == 0
        assert failed[0].krylov_rank == failed[0].space_dim - 1

    def test_pass_implies_contraction(self, bundle_corpus):
        for b in bundle_corpus:
            report = hs.stability_report(b)
            if report.cnu_passed:
                assert report.spectral_radius_sigma < 1.0

    def test_contraction_margin_recorded(self, bundle_corpus):
        # Sigma* and A are similar through R^(1/2), so both stay a positive
        # instance-dependent margin delta inside the unit disk
        margins = []
        for b in bundle_corpus:
            if not all(level.passed for level in hs.cnu_certificate(b)):
                continue
            r_sigma = float(np.abs(np.linalg.eigvals(b.sigma_star)).max())
            r_a = float(np.abs(np.linalg.eigvals(b.A)).max())
            assert r_a == pytest.approx(r_sigma, abs=1e-10)
            delta = 1.0 - max(r_sigma, r_a)
            assert delta > 0.0
            margins.append(delta)
        print("\ncontraction margins delta:", [f"{d:.3e}" for d in margins])

    def test_tampered_bundle_not_contractive(self):
        # the broken level leaves a unitary part: spectral radius reaches 1
        _, bad = tampered_bundle()
        radius = float(np.abs(np.linalg.eigvals(bad.sigma_star)).max())
        assert radius >= 1.0 - 1e-9
