"""The supported scale: lambda_1 and every |gamma_k| at most SCALE_MAX, and
lambda_1 at least SCALE_MIN.

Every command either succeeds inside the bounds, with round trips inside the
documented tolerances, or exits 3 with one JSON error on stderr; nothing
overflows, underflows, warns or raises a traceback on the way.  Inside the
bounds the forward problem is scale-free: the symbol of 10^k Gamma gives
back 10^k lambda, 10^k mu, 10^(2k) w, 10^(2k) w1 and the same measures.
"""

import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hankel_spectra import serialize
from hankel_spectra.cli import main
from hankel_spectra.errors import BundleInvariantError
from hankel_spectra.hankel_core import forward_extract
from hankel_spectra.operator_assembly import (
    TRUNCATION_CAP,
    _from_operators,
    assemble,
    assemble_from_operators,
    bundle_residuals,
)
from hankel_spectra.roundtrip import atoms_difference
from hankel_spectra.spectral_data import DISTINCTNESS_RTOL, SCALE_MAX, SCALE_MIN

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
EXPONENTS = [0, 40, 70, 76, 77, 78, 90, 120, 153, 154, 160]
SMALL_EXPONENTS = [-4, -6, -8, -12, -40, -70]


def test_bound_covers_the_largest_power():
    assert TRUNCATION_CAP ** 5 * SCALE_MAX ** 4 < sys.float_info.max


def test_bound_covers_the_smallest_power():
    # the squared level gap of mu_weights, (DISTINCTNESS_RTOL lambda_1^2)^2
    assert (DISTINCTNESS_RTOL * SCALE_MIN ** 2) ** 2 >= sys.float_info.min


def _run(capsys, *argv):
    """Exit code and stderr of one command; no warning may escape it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(list(argv))
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert rc in (0, 3), (argv, rc, err)
    if rc == 0:
        assert err == ""
    else:
        assert set(json.loads(err)) >= {"error", "message"}
    return rc, err


def _scaled_data(tmp_path, name, factor):
    """A data fixture with lambda and mu multiplied by ``factor``."""
    doc = serialize.loads((FIXTURES / name).read_text())
    for key in ("lambda", "mu"):
        doc["spectrum"][key] = [v * factor for v in doc["spectrum"][key]]
    data = tmp_path / f"scaled-{name}"
    data.write_text(serialize.dumps(doc))
    return data


@pytest.mark.parametrize("k", EXPONENTS)
def test_scaled_data_succeed_inside_the_bound_and_exit_3_above(tmp_path, capsys, k):
    # rank2_cyclic with lambda and mu scaled by 10^k: lambda_1 = 2 * 10^k
    data = _scaled_data(tmp_path, "rank2_cyclic.json", 10.0 ** k)
    inside = 2.0 * 10.0 ** k <= SCALE_MAX

    out = tmp_path / "synth"
    rc, _ = _run(capsys, "synthesize", "--input", str(data), "--output", str(out))
    assert rc == (0 if inside else 3)
    if rc == 0:
        gamma = serialize.parse_hankel(json.loads((out / "hankel.json").read_text())).gamma
        assert np.abs(gamma).max() <= SCALE_MAX
        rc, _ = _run(capsys, "analyze", "--input", str(out / "hankel.json"),
                     "--output", str(tmp_path / "forward.json"))
        assert rc == 0
    rc, _ = _run(capsys, "stability", "--input", str(data), "--output", str(tmp_path / "stab"))
    assert rc == (0 if inside else 3)

    report = tmp_path / "report.json"
    rc, err = _run(capsys, "roundtrip", "--input", str(data), "--output", str(report))
    assert rc == (0 if inside else 3)
    if inside:
        errors = json.loads(report.read_text())["max_errors"]
        assert max(errors["lam"], errors["mu"]) <= 1e-8, errors
        assert max(errors["weights"], errors["phases"]) <= 1e-6, errors
    else:
        assert json.loads(err)["error"] == "WeightRange"


@pytest.mark.parametrize("scale", [0.99, 1.01])
def test_fat_tailed_symbol_at_the_bound(tmp_path, capsys, scale):
    # a constant symbol at the largest truncation: every mass of the identity
    # residual is as large as a symbol of that modulus allows
    N = TRUNCATION_CAP
    path = tmp_path / "hankel.json"
    path.write_text(serialize.dumps({"schema": "hankel.v1", "N": N,
                                     "gamma": [[scale * SCALE_MAX, 0.0]] * (2 * N - 1)}))
    rc, err = _run(capsys, "analyze", "--input", str(path),
                   "--output", str(tmp_path / "forward.json"))
    if scale > 1.0:
        assert rc == 3 and json.loads(err)["error"] == "WeightRange"


@pytest.mark.parametrize("name", ["rank2_cyclic.json", "rank1_multiplicity.json"])
@pytest.mark.parametrize("k", SMALL_EXPONENTS)
def test_analyze_is_scale_free_down_to_the_bound(tmp_path, capsys, name, k):
    # the symbol of 10^k Gamma recovers 10^k lambda, 10^k mu, 10^(2k) w,
    # 10^(2k) w1 and the same level measures
    rc, _ = _run(capsys, "synthesize", "--input", str(FIXTURES / name),
                 "--output", str(tmp_path / "synth"))
    assert rc == 0
    synth = json.loads((tmp_path / "synth" / "hankel.json").read_text())
    forward, measures = {}, {}
    for scale in (0, k):
        doc = dict(synth, gamma=[[re * 10.0 ** scale, im * 10.0 ** scale]
                                 for re, im in synth["gamma"]])
        path = tmp_path / f"hankel{scale}.json"
        path.write_text(serialize.dumps(doc))
        rc, _ = _run(capsys, "analyze", "--input", str(path),
                     "--output", str(tmp_path / f"forward{scale}.json"))
        assert rc == 0
        forward[scale] = json.loads((tmp_path / f"forward{scale}.json").read_text())
        got = forward_extract(serialize.parse_hankel(doc)).data
        measures[scale] = got.rho + got.rho1
    base, got = forward[0], forward[k]
    for key, power in (("lambda", 1), ("mu", 1), ("w", 2), ("w1", 2)):
        want = np.array(base[key]) * 10.0 ** (power * k)
        np.testing.assert_allclose(got[key], want, rtol=1e-12, atol=0, err_msg=key)
    assert got["mode"] == base["mode"]
    assert len(measures[k]) == len(measures[0]) == 2 * len(base["lambda"])
    for want, m in zip(measures[0], measures[k]):
        assert (want is None) == (m is None)
        assert m is None or atoms_difference(m, want) <= 1e-12


@pytest.mark.parametrize("k", SMALL_EXPONENTS)
def test_small_data_round_trip_at_a_scaled_tail_tolerance(tmp_path, capsys, k):
    # --tol-tail bounds ||(Sigma*)^N p|| absolutely, and p scales with
    # lambda, so data at lambda_1 ~ 10^k run at --tol-tail 1e-12 * 10^k
    data = _scaled_data(tmp_path, "rank2_cyclic.json", 10.0 ** k)
    tol = repr(1e-12 * 10.0 ** k)
    rc, _ = _run(capsys, "synthesize", "--input", str(data), "--output", str(tmp_path / "synth"),
                 "--tol-tail", tol)
    assert rc == 0
    report = tmp_path / "report.json"
    rc, _ = _run(capsys, "roundtrip", "--input", str(data), "--output", str(report),
                 "--tol-tail", tol)
    assert rc == 0
    errors = json.loads(report.read_text())["max_errors"]
    assert max(errors["lam"], errors["mu"]) <= 1e-8, errors
    assert max(errors["weights"], errors["phases"]) <= 1e-6, errors


def test_below_the_bound_every_command_exits_3(tmp_path, capsys):
    # lambda_1 = 0.99 SCALE_MIN, and the symbol of the fixture's truncation
    # scaled to the same lambda_1
    factor = 0.99 * SCALE_MIN / 2.0
    data = _scaled_data(tmp_path, "rank2_cyclic.json", factor)
    tol = repr(1e-12 * factor)
    rc, _ = _run(capsys, "synthesize", "--input", str(FIXTURES / "rank2_cyclic.json"),
                 "--output", str(tmp_path / "synth"))
    assert rc == 0
    doc = json.loads((tmp_path / "synth" / "hankel.json").read_text())
    doc["gamma"] = [[re * factor, im * factor] for re, im in doc["gamma"]]
    hankel = tmp_path / "hankel.json"
    hankel.write_text(serialize.dumps(doc))
    for argv in (["synthesize", "--input", str(data), "--tol-tail", tol],
                 ["stability", "--input", str(data)],
                 ["roundtrip", "--input", str(data), "--tol-tail", tol],
                 ["analyze", "--input", str(hankel)]):
        rc, err = _run(capsys, *argv, "--output", str(tmp_path / "out"))
        assert rc == 3 and json.loads(err)["error"] == "WeightRange", (argv, err)
        assert "SCALE_MIN" in json.loads(err)["message"]


def test_a_tiny_symbol_is_refused_before_any_work(tmp_path, capsys):
    # N max|gamma| below SCALE_MIN: no truncation of this symbol reaches the
    # bound, and u = Gamma* e_0 would underflow to a false DegenerateSpectrum
    path = tmp_path / "hankel.json"
    path.write_text(serialize.dumps({"schema": "hankel.v1", "N": 3,
                                     "gamma": [[1e-200, 0.0]] * 5}))
    rc, err = _run(capsys, "analyze", "--input", str(path), "--output", str(tmp_path / "out"))
    assert rc == 3 and json.loads(err)["error"] == "WeightRange"


@pytest.mark.parametrize("k", [0, -40, -70])
@pytest.mark.parametrize("law", ["Jp fixes p", "Jp intertwines Sigma* and Sigma-hat*"])
def test_broken_bundles_are_refused_at_every_scale(k, law):
    # rank2_cyclic scaled by 10^k with one law broken: p turned by a phase
    # of 0.1 rad, which keeps p p* and so every other row, or C times a
    # unitary 1e-13 from the identity, which misses the intertwining row's
    # 1e-10 / (2 TRUNCATION_CAP - 2) by a factor of 11 and keeps the
    # 1e-12-scale rows of C within a third of their bounds.  Every bound is
    # relative, so the refusal does not depend on k.
    doc = serialize.loads((FIXTURES / "rank2_cyclic.json").read_text())
    for key in ("lambda", "mu"):
        doc["spectrum"][key] = [v * 10.0 ** k for v in doc["spectrum"][key]]
    b = assemble(serialize.parse_spectral_data(doc))
    ops = {"R": b.R, "R1": b.R1, "p": b.p, "phi": b.phi, "phi1": b.phi1, "C": b.Jp,
           "layout": b.layout}
    if law == "Jp fixes p":
        ops["p"] = np.exp(0.1j) * b.p
    else:
        rng = np.random.default_rng(0)
        G = rng.standard_normal((b.dim, b.dim)) + 1j * rng.standard_normal((b.dim, b.dim))
        g, V = np.linalg.eigh(G + G.conj().T)
        ops["C"] = b.Jp @ (V * np.exp(1e-13j * g)) @ V.conj().T
    rows = bundle_residuals(_from_operators(**ops))
    assert [name for name, (r, bound) in rows.items() if not r <= bound] == [law]
    with pytest.raises(BundleInvariantError, match=re.escape(law)):
        assemble_from_operators(**ops)
