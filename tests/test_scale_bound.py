"""The supported scale: lambda_1 and every |gamma_k| at most SCALE_MAX.

Every command either succeeds inside the bound, with round trips inside the
documented tolerances, or exits 3 with one JSON error on stderr; nothing
overflows, warns or raises a traceback on the way.
"""

import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hankel_spectra import serialize
from hankel_spectra.cli import main
from hankel_spectra.operator_assembly import TRUNCATION_CAP
from hankel_spectra.spectral_data import SCALE_MAX

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
EXPONENTS = [0, 40, 70, 76, 77, 78, 90, 120, 153, 154, 160]


def test_bound_covers_the_largest_power():
    assert TRUNCATION_CAP ** 5 * SCALE_MAX ** 4 < sys.float_info.max


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


@pytest.mark.parametrize("k", EXPONENTS)
def test_scaled_data_succeed_inside_the_bound_and_exit_3_above(tmp_path, capsys, k):
    # rank2_cyclic with lambda and mu scaled by 10^k: lambda_1 = 2 * 10^k
    doc = serialize.loads((FIXTURES / "rank2_cyclic.json").read_text())
    for key in ("lambda", "mu"):
        doc["spectrum"][key] = [v * 10.0 ** k for v in doc["spectrum"][key]]
    data = tmp_path / "data.json"
    data.write_text(serialize.dumps(doc))
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
