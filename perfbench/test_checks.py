"""Each output check passes on the program's own output and rejects a
corrupted copy of it.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workload  # noqa: E402
import hankel_spectra as hs  # noqa: E402
from hankel_spectra import serialize  # noqa: E402
from hankel_spectra.random_data import random_cyclic_data, random_multiplicity_data  # noqa: E402


def _case(d):
    h = hs.hankel_from_data(d)
    fd = json.loads(serialize.dumps(serialize.emit_forward_data(hs.forward_extract(h))))
    bundle = hs.assemble(d)
    report = hs.stability_report(bundle)
    return {"data": d, "exp": workload.expected_from(d), "gamma": np.array(h.gamma), "N": h.N,
            "csv": serialize.singular_values_csv(h.singular_values()), "forward": fd,
            "sigma": bundle.sigma_star, "report": report}


@pytest.fixture(scope="module")
def cases():
    rng = np.random.default_rng(2024)
    return [_case(random_cyclic_data(rng, 4, terminal_zero=True, max_contraction=0.97)),
            _case(random_multiplicity_data(rng, 3, max_atoms=3, terminal_zero=False,
                                           max_contraction=0.97))]


def _full_check(c, gamma=None, csv=None, forward=None):
    gamma = c["gamma"] if gamma is None else gamma
    own = checks.check_hankel(gamma, c["N"], c["exp"])
    checks.check_singular_values_csv(c["csv"] if csv is None else csv, c["N"], own["svals"],
                                     float(c["exp"].lam[0]))
    checks.check_forward_data(c["forward"] if forward is None else forward, c["exp"], own)


def test_program_outputs_pass(cases):
    for c in cases:
        _full_check(c)
        checks.check_contraction(c["sigma"], c["report"].spectral_radius_sigma, c["report"].cnu_passed)


@pytest.mark.parametrize("index", [0, 3, -1])
def test_perturbed_gamma_entry_is_rejected(cases, index):
    for c in cases:
        gamma = c["gamma"].copy()
        gamma[index] += 1e-6 * abs(gamma[0])
        with pytest.raises(checks.CheckFailed):
            checks.check_hankel(gamma, c["N"], c["exp"])


def test_truncated_gamma_is_rejected(cases):
    c = cases[0]
    with pytest.raises(checks.CheckFailed):
        checks.check_hankel(c["gamma"][:-2], c["N"], c["exp"])


def test_wrong_levels_are_rejected(cases):
    for c in cases:
        lam = c["exp"].lam.copy()
        lam[-1] *= 1 + 1e-6
        exp = checks.Expected(lam, c["exp"].mu, c["exp"].xi, c["exp"].eta)
        with pytest.raises(checks.CheckFailed):
            checks.check_hankel(c["gamma"], c["N"], exp)


def test_perturbed_csv_value_is_rejected(cases):
    c = cases[0]
    lines = c["csv"].split("\n")
    index, value = lines[2].split(",")
    lines[2] = f"{index},{float(value) * (1 + 1e-6)!r}"
    with pytest.raises(checks.CheckFailed):
        _full_check(c, csv="\n".join(lines))


def test_short_csv_is_rejected(cases):
    c = cases[0]
    with pytest.raises(checks.CheckFailed):
        _full_check(c, csv="\n".join(c["csv"].split("\n")[:-3]) + "\n")


@pytest.mark.parametrize("key", ["lambda", "mu", "w", "w1"])
def test_perturbed_forward_value_is_rejected(cases, key):
    for c in cases:
        doc = copy.deepcopy(c["forward"])
        doc[key][0] *= 1 + 1e-5
        with pytest.raises(checks.CheckFailed):
            _full_check(c, forward=doc)


def test_rotated_phase_is_rejected(cases):
    c = cases[0]
    doc = copy.deepcopy(c["forward"])
    entry = doc["xi"][1]
    assert entry["type"] == "phase"
    z = complex(*entry["value"]) * np.exp(1e-5j)
    entry["value"] = [z.real, z.imag]
    with pytest.raises(checks.CheckFailed):
        _full_check(c, forward=doc)


def test_shifted_measure_weight_is_rejected(cases):
    c = cases[1]
    doc = copy.deepcopy(c["forward"])
    measures = [e for e in doc["xi"] + doc["eta"] if e is not None and e["type"] == "measure"]
    atoms = measures[0]["value"]["atoms"]
    atoms[0]["weight"] += 1e-5
    atoms[1]["weight"] -= 1e-5
    with pytest.raises(checks.CheckFailed):
        _full_check(c, forward=doc)


def test_contraction_checks(cases):
    c = cases[0]
    radius = c["report"].spectral_radius_sigma
    with pytest.raises(checks.CheckFailed):
        checks.check_contraction(c["sigma"] / radius * 1.01, radius / radius * 1.01, True)
    with pytest.raises(checks.CheckFailed):
        checks.check_contraction(c["sigma"], radius * (1 + 1e-6), True)
    with pytest.raises(checks.CheckFailed):
        checks.check_contraction(c["sigma"], radius, False)


@pytest.fixture(scope="module")
def clark_level(cases):
    rho = cases[1]["data"].rho
    level = max(rho, key=lambda m: len(m.points))
    theta = hs.inner_from_measure(hs.reflect_measure(level))
    out = hs.reflect_measure(hs.clark_measure(theta))
    return (level.points, level.weights), theta, (out.points, out.weights)


def test_clark_round_trip_passes(clark_level):
    m_in, theta, m_out = clark_level
    assert len(m_in[0]) > 1
    checks.check_clark_level(m_in, theta.zeros, theta.constant, m_out, "level")


def test_shifted_clark_weight_is_rejected(clark_level):
    m_in, theta, (points, weights) = clark_level
    shifted = weights.copy()
    shifted[0] += 1e-5
    shifted[1] -= 1e-5
    with pytest.raises(checks.CheckFailed):
        checks.check_clark_level(m_in, theta.zeros, theta.constant, (points, shifted), "level")


def test_clark_atom_off_theta_is_rejected(clark_level):
    m_in, theta, m_out = clark_level
    zeros = np.array(theta.zeros)
    zeros[np.argmax(np.abs(zeros))] *= 1 + 1e-5
    with pytest.raises(checks.CheckFailed):
        checks.check_clark_level(m_in, zeros, theta.constant, m_out, "level")


def test_rotated_clark_measure_is_rejected(clark_level):
    m_in, theta, (points, weights) = clark_level
    with pytest.raises(checks.CheckFailed):
        checks.check_clark_level(m_in, theta.zeros, theta.constant,
                                 (points * np.exp(1e-5j), weights), "level")


def _report(errors=1e-12, trials=3):
    entries = [{"lam": errors, "mu": errors, "weights": errors, "phases": errors, "N": 10, "trial": i}
               for i in range(trials)]
    worst = {k: errors for k in ("lam", "mu", "weights", "phases")}
    return {"schema": "roundtrip_report.v1", "trials": entries, "max_errors": worst}


def test_roundtrip_report_checks():
    checks.check_roundtrip_report(_report(), 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_roundtrip_report(_report(trials=2), 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_roundtrip_report(_report(errors=1e-3), 3)
    doc = _report()
    doc["max_errors"]["phases"] = "inf"
    with pytest.raises(checks.CheckFailed):
        checks.check_roundtrip_report(doc, 3)
    doc = _report()
    doc["trials"][1]["lam"] = 2e-12
    with pytest.raises(checks.CheckFailed):
        checks.check_roundtrip_report(doc, 3)


class _Outputs:
    """Stand-in workload whose results are their own outputs."""

    def check(self, result):
        checks.fail_if(result == b"bad", "bad output")

    def digest(self, result):
        return result


def test_repeat_with_different_bytes_is_rejected():
    w = _Outputs()
    assert workload.check_outputs(w, [(0, True, b"a"), (1, True, b"b"), (0, True, b"a")]) is None
    assert workload.check_outputs(w, [(0, True, b"a"), (1, True, b"b"), (0, True, b"a ")]) is not None
    assert workload.check_outputs(w, [(0, True, b"bad")]) is not None
    assert workload.check_outputs(w, [(0, False, None), (0, True, b"a")]) is None
