"""The canonical encoder writes json's bytes; the bulk parsers read what the
per-entry parser read, under one number rule."""

import copy
import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hankel_spectra as hs
from hankel_spectra import serialize
from hankel_spectra.cli import main
from hankel_spectra.errors import SchemaError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _reference(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# encoder

_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 1e22, float("nan"),
     float("inf"), float("-inf")])
_leaves = (st.text() | st.text(st.characters(codec="utf-8"), max_size=4)
           | st.integers() | st.integers(min_value=2**63, max_value=2**200)
           | st.booleans() | st.none() | _floats | _floats.map(np.float64))
# the bulk paths: flat float lists and [re, im] pair lists
_float_lists = st.lists(_floats, min_size=1) | st.lists(st.lists(_floats, min_size=2, max_size=2))
_documents = st.recursive(
    _leaves | _float_lists,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=400, deadline=None)
@given(_documents)
def test_dumps_writes_json_bytes(doc):
    assert serialize.dumps(doc) == _reference(doc)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers() | st.floats() | st.booleans() | st.none(), _leaves,
                       min_size=1, max_size=4),
       st.dictionaries(st.text(max_size=6), _leaves, max_size=3))
def test_non_string_keys_raise_type_error(bad, good):
    """Keys are strings only: json would convert these, the package emits none."""
    for doc in (bad, bad | good, {"k": [bad]}):
        with pytest.raises(TypeError):
            serialize.dumps(doc)


@pytest.mark.parametrize("leaf", [np.int64(1), {1, 2}, np.float32(0.5), np.bool_(True), object()])
def test_unsupported_leaf_raises_type_error(leaf):
    for doc in (leaf, [leaf], [[leaf, 0.5]], [0.5, leaf], {"k": leaf}):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            serialize.dumps(doc)


def _emitted_documents():
    docs = []
    for name in ("rank1_cyclic", "rank1_multiplicity", "rank2_cyclic"):
        data = serialize.parse_spectral_data(json.loads((FIXTURES / f"{name}.json").read_text()))
        bundle = hs.assemble(data)
        h = hs.hankel_from_bundle(bundle)
        docs += [serialize.emit_spectral_data(data), serialize.emit_spectrum(data.spectrum),
                 serialize.emit_hankel(h), serialize.emit_bundle(bundle),
                 serialize.emit_stability(hs.stability_report(bundle)),
                 serialize.emit_forward_data(hs.forward_extract(h))]
        if data.mode == "multiplicity":
            docs += [serialize.emit_measure(m) for m in data.rho]
            docs.append(serialize.emit_measure_levels(data.rho, data.rho1))
    thetas, theta1s = serialize.parse_clark_levels(
        json.loads((FIXTURES / "clark_levels.json").read_text()))
    docs += [serialize.emit_clark_levels(thetas, theta1s), serialize.emit_blaschke(thetas[0]),
             serialize.emit_measure_levels(*hs.gp_convert_to_measures(thetas, theta1s))]
    return docs


def test_every_emitted_document_matches_json():
    docs = _emitted_documents()
    assert {d["schema"] for d in docs} >= {
        "spectral_data.v1", "spectrum.v1", "hankel.v1", "bundle.v1", "stability.v1",
        "forward_data.v1", "measure.v1", "measure_levels.v1", "clark_levels.v1", "blaschke.v1"}
    for doc in docs:
        assert serialize.dumps(doc) == _reference(doc)


def test_large_hankel_matches_json():
    data = serialize.parse_spectral_data(json.loads((FIXTURES / "rank2_cyclic.json").read_text()))
    doc = serialize.emit_hankel(hs.hankel_from_bundle(hs.assemble(data), N=1024))
    assert len(doc["gamma"]) == 2047
    assert serialize.dumps(doc) == _reference(doc)


def test_roundtrip_report_matches_json(tmp_path):
    out = tmp_path / "report.json"
    assert main(["roundtrip", "--input", str(FIXTURES / "roundtrip_job.json"),
                 "--output", str(out), "--seed", "7"]) == 0
    text = out.read_text()
    assert text == _reference(json.loads(text))


def _roundtrip_report(trials: int) -> dict:
    rng = np.random.default_rng(3)
    keys = ("lam", "mu", "weights", "phases")
    entries = [dict(zip(keys, (rng.random(4) * 1e-11).tolist())) | {"N": int(rng.integers(3, 900)),
                                                                    "trial": i}
               for i in range(trials)]
    entries[5] = dict.fromkeys(keys, "inf") | {"N": None, "trial": 5, "error": "ClusterAmbiguity"}
    return {"schema": "roundtrip_report.v1", "trials": entries,
            "max_errors": dict.fromkeys(keys, "inf")}


def test_small_document_is_no_slower_than_json():
    doc = _roundtrip_report(20)
    assert serialize.dumps(doc) == _reference(doc)
    ours, theirs = [], []
    for _ in range(200):  # interleaved, so drift in machine speed hits both alike
        t = time.perf_counter()
        serialize.dumps(doc)
        ours.append(time.perf_counter() - t)
        t = time.perf_counter()
        json.dumps(doc, indent=2, sort_keys=True)
        theirs.append(time.perf_counter() - t)
    assert min(ours) <= min(theirs), (min(ours), min(theirs))


# parsers

def _reference_parse_c(v) -> complex:
    """The per-entry rule the bulk parse replaced (valid inputs only)."""
    if isinstance(v, (int, float)):
        return complex(v)
    assert isinstance(v, (list, tuple)) and len(v) == 2
    return complex(v[0], v[1])


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_numbers = (st.integers(min_value=-2**80, max_value=2**80)
            | st.floats(allow_nan=False, allow_infinity=False))
_entries = _numbers | st.lists(_numbers, min_size=2, max_size=2)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_numbers, min_size=2, max_size=2)) | st.lists(_numbers)
       | st.lists(_entries))
def test_parse_cvec_matches_per_entry_parse(values):
    expected = np.asarray([_reference_parse_c(v) for v in values], dtype=complex)
    assert _same(serialize._parse_cvec(values, "v"), expected)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda cols: st.lists(st.lists(_entries, min_size=cols, max_size=cols), min_size=1, max_size=4)))
def test_parse_cmat_matches_per_entry_parse(rows):
    expected = np.asarray([[_reference_parse_c(v) for v in row] for row in rows], dtype=complex)
    assert _same(serialize._parse_cmat(rows, "M"), expected)


@pytest.mark.parametrize("values", [
    [[float("nan"), 0.0]], [float("inf")], [[1.0, float("-inf")]], [[True, False]], [True],
    [["1.0", 0.0]], ["1.0"], [None], [[1.0, 2.0, 3.0]], [[1.0]], [[1.0, [2.0]]], [10**400],
    [[0.5, 0.0], 1, [2, 10**400]],
])
def test_parse_cvec_refuses_and_names_the_value(values):
    with pytest.raises(SchemaError, match=r"^v: .*got "):
        serialize._parse_cvec(values, "v")
    with pytest.raises(SchemaError):
        serialize._parse_cmat([values], "M")


@pytest.mark.parametrize("rows", [[[1.0], [1.0, 2.0]], [[1.0], 2.0], [], "rows", [[1.0], "ab"]])
def test_parse_cmat_refuses_ragged_or_malformed_rows(rows):
    with pytest.raises(SchemaError):
        serialize._parse_cmat(rows, "M")


def _bad_inputs():
    cyclic = json.loads((FIXTURES / "rank2_cyclic.json").read_text())
    mult = json.loads((FIXTURES / "rank1_multiplicity.json").read_text())

    def hankel(gamma):
        return {"schema": "hankel.v1", "N": 2, "gamma": gamma}

    def edit(doc, change):
        doc = copy.deepcopy(doc)
        change(doc)
        return doc

    nan, inf = float("nan"), float("inf")
    return {
        "gamma-NaN": ("analyze", hankel([[nan, 0], [0.5, 0], [0.1, 0]])),
        "gamma-Infinity": ("analyze", hankel([[inf, 0], [0.5, 0], [0.1, 0]])),
        "gamma-bool-pair": ("analyze", hankel([[True, False], [0.5, 0], [0.1, 0]])),
        "gamma-bool": ("analyze", hankel([True, 0.5, 0.1])),
        "xi-NaN": ("synthesize", edit(cyclic, lambda d: d["xi"].__setitem__(0, [nan, 0.0]))),
        "lambda-strings": ("synthesize", edit(cyclic, lambda d: d["spectrum"].update(
            {"lambda": ["2.0", "1.0"], "mu": ["1.4", "0.0"]}))),
        "lambda-bool": ("synthesize", edit(mult, lambda d: d["spectrum"].update({"lambda": [True]}))),
        "weight-string": ("synthesize", edit(
            mult, lambda d: d["rho"][0]["atoms"][0].update({"weight": "0.5"}))),
        "weight-bool": ("synthesize", edit(mult, lambda d: d["rho"][0].update(
            {"atoms": [{"point": [1.0, 0.0], "weight": True}]}))),
        "flags-string": ("synthesize", edit(
            mult, lambda d: d["rho"][0].update({"flags": "circle probability"}))),
    }


@pytest.mark.parametrize("case", sorted(_bad_inputs()))
def test_cli_refuses_non_numbers_with_schema_error(case, tmp_path, capsys):
    command, doc = _bad_inputs()[case]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity as json writes them
    out = tmp_path / "out"
    assert main([command, "--input", str(path), "--output", str(out)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "Schema"
    assert not out.exists()
