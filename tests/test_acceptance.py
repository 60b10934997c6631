"""Acceptance suite: one test per criterion, one printed pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import numpy as np
import pytest

import hankel_spectra as hs
from hankel_spectra.operator_assembly import assemble_from_operators
from hankel_spectra.random_data import (
    random_circle_measure,
    random_cyclic_data,
    random_multiplicity_data,
    random_spectrum,
)
from hankel_spectra.roundtrip import atoms_difference, run_roundtrip_trial

MAX_CONTRACTION = 0.97  # trial instances stay certifiable within the size cap


def _report(num, text):
    print(f"[acceptance] criterion {num}: PASS - {text}")


def _assembled_corpus(rng, n_cyclic=12, n_mult=8):
    bundles = []
    for _ in range(n_cyclic):
        n = int(rng.integers(1, 9))
        bundles.append(hs.assemble(random_cyclic_data(rng, n)))
    for _ in range(n_mult):
        n = int(rng.integers(1, 4))
        bundles.append(hs.assemble(random_multiplicity_data(rng, n, max_atoms=3)))
    return bundles


def test_criterion_1_borg_oracle():
    rng = np.random.default_rng(1001)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        s = random_spectrum(rng, n)
        a = hs.borg_weights(s)
        p = np.sqrt(a)
        evals = np.sort(np.linalg.eigvalsh(np.diag(s.lam2) - np.outer(p, p)))[::-1]
        np.testing.assert_allclose(evals, s.mu2, rtol=1e-9, atol=1e-9 * max(s.lam[0] ** 2, 1.0))
        trace = float(np.sum(s.lam2 - s.mu2))
        assert abs(a.sum() - trace) <= 1e-12 * trace
        lhs = 1.0 - float(np.sum(a / s.lam2))
        rhs = float(np.prod(s.mu2 / s.lam2))
        assert abs(lhs - rhs) <= 1e-10
    _report(1, "200 spectra: eigenvalue oracle 1e-9, trace 1e-12, mass identity 1e-10")


def test_criterion_2_roundtrip_cyclic():
    rng = np.random.default_rng(1002)
    worst = {"lam": 0.0, "mu": 0.0, "weights": 0.0, "phases": 0.0}
    for _ in range(100):
        n = int(rng.integers(1, 9))
        d = random_cyclic_data(rng, n, max_contraction=MAX_CONTRACTION)
        errs = run_roundtrip_trial(d)
        for key in worst:
            worst[key] = max(worst[key], errs[key])
    assert worst["lam"] <= 1e-8 and worst["mu"] <= 1e-8
    assert worst["weights"] <= 1e-6
    assert worst["phases"] <= 1e-6
    _report(2, "100 cyclic round trips: "
               f"lam/mu {max(worst['lam'], worst['mu']):.1e} <= 1e-8, "
               f"weights {worst['weights']:.1e} <= 1e-6, "
               f"phases {worst['phases']:.1e} <= 1e-6")


def test_criterion_3_roundtrip_multiplicity():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(1, 4))
        d = random_multiplicity_data(rng, n, max_atoms=3,
                                     max_contraction=MAX_CONTRACTION)
        errs = run_roundtrip_trial(d)
        worst = max(worst, errs["phases"], errs["weights"])
    assert worst <= 1e-6
    _report(3, f"30 multiplicity round trips: atom-wise measure error {worst:.1e} <= 1e-6")


def test_criterion_4_structural_identities():
    rng = np.random.default_rng(1004)
    worst = {"rank_one": 0.0, "defect": 0.0, "conjugation": 0.0,
             "intertwine": 0.0, "norm_A": 0.0}
    for b in _assembled_corpus(rng):
        eye = np.eye(b.dim)
        worst["rank_one"] = max(worst["rank_one"], float(np.linalg.norm(
            b.R @ b.R - b.R1 @ b.R1 - np.outer(b.p, np.conj(b.p)))))
        worst["defect"] = max(worst["defect"], float(np.linalg.norm(
            eye - b.sigma_star.conj().T @ b.sigma_star - np.outer(b.q, np.conj(b.q)))))
        worst["conjugation"] = max(
            [worst["conjugation"]] + [res for name, (res, _) in hs.bundle_residuals(b).items()
                                      if "Jp" in name])
        report = hs.stability_report(b)
        worst["intertwine"] = max(worst["intertwine"], report.intertwine_residual)
        worst["norm_A"] = max(worst["norm_A"], report.norm_A)
    assert worst["rank_one"] <= 1e-12
    assert worst["defect"] <= 1e-10
    assert worst["conjugation"] <= 1e-12
    assert worst["intertwine"] <= 1e-12
    assert worst["norm_A"] <= 1.0 + 1e-12
    _report(4, "structural identities on 20 assembled bundles: "
               f"rank-one {worst['rank_one']:.1e}, defect {worst['defect']:.1e}, "
               f"conjugation {worst['conjugation']:.1e}, "
               f"intertwine {worst['intertwine']:.1e}, |A| <= 1+1e-12")


def test_criterion_5_hankel_structure():
    rng = np.random.default_rng(1005)
    worst = {"shift": 0.0, "rank_one": 0.0}
    for _ in range(10):
        n = int(rng.integers(1, 6))
        d = random_cyclic_data(rng, n, max_contraction=MAX_CONTRACTION)
        h = hs.hankel_from_data(d)
        assert np.array_equal(h.entries, h.entries.T)  # symmetric exactly
        S = np.diag(np.ones(h.N - 1), -1)
        interior = np.abs(h.entries @ S - S.T @ h.entries)[: h.N - 1, : h.N - 1]
        worst["shift"] = max(worst["shift"], float(interior.max()))
        worst["rank_one"] = max(worst["rank_one"], hs.rank_one_identity_residual(h))
    assert worst["shift"] <= 1e-10
    assert worst["rank_one"] <= 1e-8
    _report(5, f"Hankel structure: shift intertwining {worst['shift']:.1e} <= 1e-10, "
               f"rank-one identity {worst['rank_one']:.1e} <= 1e-8, symmetry exact")


def test_criterion_6_stability_and_cnu():
    rng = np.random.default_rng(1006)
    for b in _assembled_corpus(rng, n_cyclic=6, n_mult=6):
        report = hs.stability_report(b)
        assert report.spectral_radius_sigma < 1.0
        assert report.cnu_passed  # all atoms carry positive weight
    # negative control: a level phase that ignores one atom of p_k
    from test_stability import tampered_bundle

    _, bad = tampered_bundle(seed=1006)
    flags = hs.cnu_certificate(bad)
    assert any(not level.passed for level in flags)
    _report(6, "spectral radius < 1 and cnu pass on 12 valid bundles; "
               "zero-weight atom control fails its level")


def test_criterion_7_finite_rank_kernel(uncertified):
    rng = np.random.default_rng(1007)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        d = random_cyclic_data(rng, n, max_contraction=MAX_CONTRACTION)
        h = uncertified(d, n + 2)
        assert h.singular_values()[-1] <= 1e-8
    _report(7, "sigma_min of every (n+2) x (n+2) truncation <= 1e-8")


def test_criterion_8_clark_roundtrips(herglotz_sum):
    rng = np.random.default_rng(1008)
    worst_atoms = 0.0
    worst_identity = 0.0
    for _ in range(50):
        m = random_circle_measure(rng, int(rng.integers(1, 7)))
        theta = hs.inner_from_measure(m)
        worst_atoms = max(worst_atoms, atoms_difference(hs.clark_measure(theta), m))
        z = 0.9 * np.sqrt(rng.random(20)) * np.exp(2j * np.pi * rng.random(20))
        lhs = (1.0 + theta(z)) / (1.0 - theta(z))
        worst_identity = max(worst_identity,
                             float(np.abs(lhs - herglotz_sum(m, z)).max()))
    assert worst_atoms <= 1e-8
    assert worst_identity <= 1e-8
    # theta(z) = z <-> delta_1 exactly
    m1 = hs.clark_measure(hs.BlaschkeProduct(zeros=[0.0]))
    assert m1.points[0] == 1.0 + 0j and m1.weights[0] == 1.0
    t1 = hs.inner_from_measure(
        hs.AtomicMeasure([1.0 + 0j], [1.0]))
    assert t1.zeros[0] == 0.0 and t1.constant == 1.0 + 0j
    _report(8, f"50 Clark round trips: atoms {worst_atoms:.1e} <= 1e-8, "
               f"integral identity {worst_identity:.1e} <= 1e-8, identity map exact")


def test_criterion_9_gauge_invariance(admissible_commutant):
    rng = np.random.default_rng(1009)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        d = random_multiplicity_data(rng, n, max_atoms=3,
                                     max_contraction=MAX_CONTRACTION)
        b = hs.assemble(d)
        gamma = hs.gamma_sequence(b, 60)
        for _ in range(5):
            psi = admissible_commutant(rng, b.layout)
            rotated = assemble_from_operators(
                b.R, b.R1, b.p, b.phi @ psi.conj().T, b.phi1 @ psi.conj().T,
                psi @ b.Jp, b.layout)
            drift = float(np.abs(hs.gamma_sequence(rotated, 60) - gamma).max())
            worst = max(worst, drift)
    assert worst <= 1e-10
    _report(9, f"20 instances x 5 admissible rotations: symbol drift {worst:.1e} <= 1e-10")


def test_criterion_10_rank_envelope():
    # the supported envelope: every round trip inside it succeeds within the
    # criterion 2 tolerances, so a refusal here fails the test; seeds fixed
    # in advance, contraction guard 0.99 from rank 14 on
    worst = {"lam": 0.0, "mu": 0.0, "weights": 0.0, "phases": 0.0}
    cases = 0
    for mode, n_max, seeds in (("cyclic", 16, range(2000, 2004)),
                               ("multiplicity", 12, range(2000, 2002))):
        for n in range(1, n_max + 1):
            guard = 0.99 if n >= 14 else MAX_CONTRACTION
            for seed in seeds:
                rng = np.random.default_rng(seed)
                d = (random_cyclic_data(rng, n, max_contraction=guard) if mode == "cyclic"
                     else random_multiplicity_data(rng, n, max_atoms=3, max_contraction=guard))
                errs = run_roundtrip_trial(d)
                for key in worst:
                    worst[key] = max(worst[key], errs[key])
                cases += 1
    assert worst["lam"] <= 1e-8 and worst["mu"] <= 1e-8
    assert worst["weights"] <= 1e-6
    assert worst["phases"] <= 1e-6
    _report(10, f"{cases} round trips, cyclic n <= 16 and multiplicity n <= 12: "
                f"lam/mu {max(worst['lam'], worst['mu']):.1e} <= 1e-8, "
                f"weights {worst['weights']:.1e} <= 1e-6, "
                f"phases {worst['phases']:.1e} <= 1e-6")
