import numpy as np
import pytest

import hankel_spectra as hs
from hankel_spectra.operator_assembly import (
    _measure_frame,
    assemble_from_operators,
    level_projections,
    orbit,
)
from hankel_spectra.random_data import random_cyclic_data, random_multiplicity_data
from hankel_spectra.stability import DECAY_STEPS, KRYLOV_RANK_RTOL


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


def _krylov_svals(op, vec, span):
    """Singular values of one level's Krylov matrix
    ``[v, op v, ..., op^span v, op* v, ..., (op*)^span v]``, walked alone."""
    mat = np.hstack([orbit(op, vec, span + 1), orbit(op.conj().T, vec, span + 1)[:, 1:]])
    return np.linalg.svd(mat, compute_uv=False)


def _krylov_rank(svals):
    """The per-level oracle of the batched certificate's rank rule."""
    if svals.size == 0 or svals[0] == 0:
        return 0
    return int(np.sum(svals > KRYLOV_RANK_RTOL * svals[0]))


def _oracle_levels(b):
    """``(kind, index, space_dim, svals)`` per level, one walk and one SVD each."""
    lay = b.layout
    p_ks, p1_ks = level_projections(b)
    out = [("lambda", k, lay.lam_dim(k), _krylov_svals(b.phi, p_ks[k], lay.lam_dim(k)))
           for k in range(lay.n_levels)]
    return out + [("mu", k, lay.mu_eigdim(k), _krylov_svals(b.phi1, p1_ks[k], lay.mu_eigdim(k)))
                  for k in range(lay.n_levels) if lay.mu[k] != 0.0]


class TestBatchedCertificate:
    """The certificate walks each phase operator once over all its levels
    and stacks the Krylov matrices of one span into one SVD; each level must
    read the rank of its own walk and SVD."""

    def test_matches_per_level_oracle(self, bundle_corpus, seeded_sweep):
        good, bad = tampered_bundle()
        for b in [*bundle_corpus, good, bad, *map(hs.assemble, seeded_sweep)]:
            got = [(lv.kind, lv.index, lv.space_dim, lv.krylov_rank)
                   for lv in hs.cnu_certificate(b)]
            assert got == [(kind, k, d, _krylov_rank(s)) for kind, k, d, s in _oracle_levels(b)]

    def test_zero_level_vector_has_rank_zero(self):
        from hankel_spectra.stability import _krylov_ranks

        b = hs.assemble(random_cyclic_data(np.random.default_rng(3), 3))
        p_0 = level_projections(b)[0][0]
        assert _krylov_ranks(b.phi, np.column_stack([np.zeros_like(p_0), p_0]), [1, 1]) == [0, 1]

    def test_rank_cut_margins(self, bundle_corpus, seeded_sweep):
        # KRYLOV_RANK_RTOL's margins: every kept value, relative to its
        # level's largest, stays far above the cut, and every dropped one
        # (roundoff, and the tampered level's missing direction) far below
        kept, dropped = 1.0, 0.0
        _, bad = tampered_bundle()
        for b in [*bundle_corpus, bad, *map(hs.assemble, seeded_sweep)]:
            for *_, s in _oracle_levels(b):
                r = _krylov_rank(s)
                kept = min(kept, s[r - 1] / s[0])
                dropped = max(dropped, s[r] / s[0] if r < s.size else 0.0)
        print(f"\nsmallest kept {kept:.3e}, largest dropped {dropped:.3e}")
        assert kept > 1e6 * KRYLOV_RANK_RTOL
        assert dropped < 1e-2 * KRYLOV_RANK_RTOL
