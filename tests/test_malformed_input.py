"""Malformed input is refused, never raised: each field of each document the
CLI reads, replaced in turn by a value of the wrong kind or size, either
still runs or exits 2 or 3 with one JSON object on stderr."""

import copy
import json
from pathlib import Path

import pytest

from hankel_spectra import serialize
from hankel_spectra.cli import main
from hankel_spectra.errors import SchemaError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

_REPLACEMENTS = [None, 0, 1, -1, 2.5, True, "x", [], {}, [1], [[1, 0]], {"a": 1}, [None], [[]],
                 10**30]
# input that is no JSON document at all: undecodable bytes, and nesting past
# the decoder's recursion limit
_UNREADABLE = {"utf16-bom": b"\xff\xfe{}", "deep": b"[" * 100000}


def _paths(doc, path=()):
    """Every field of ``doc`` at any depth: each value of a dict and the
    first three items of each list."""
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc[:3])
    else:
        children = ()
    for key, value in children:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """``{name: (command, doc)}``: each fixture, and the hankel.v1, bundle.v1
    and measure_levels.v1 documents the CLI writes from them."""
    out = tmp_path_factory.mktemp("written")
    assert main(["synthesize", "--input", str(FIXTURES / "rank1_multiplicity.json"),
                 "--output", str(out)]) == 0
    assert main(["convert-clark", "--input", str(FIXTURES / "clark_levels.json"),
                 "--output", str(out / "measure_levels.json")]) == 0
    sources = {name: ("synthesize", FIXTURES / f"{name}.json")
               for name in ("rank1_cyclic", "rank1_multiplicity", "rank2_cyclic")}
    sources |= {"clark_levels": ("convert-clark", FIXTURES / "clark_levels.json"),
                "roundtrip_job": ("roundtrip", FIXTURES / "roundtrip_job.json"),
                "hankel": ("analyze", out / "hankel.json"),
                "bundle": ("stability", out / "bundle.json"),
                "measure_levels": ("convert-clark", out / "measure_levels.json")}
    return {name: (command, json.loads(path.read_text()))
            for name, (command, path) in sources.items()}


def _outcome(command, text: bytes, tmp_path, capsys) -> str | None:
    """None if ``main`` on ``text`` runs cleanly or refuses with exit 2 or 3
    and one JSON error object on stderr, else what it did instead."""
    path = tmp_path / "in.json"
    path.write_bytes(text)
    try:
        rc = main([command, "--input", str(path), "--output", str(tmp_path / "out")])
    except Exception as exc:
        return f"raised {exc!r}"[:200]
    err = capsys.readouterr().err
    if rc == 0:
        return None if err == "" else f"exit 0 with stderr {err!r}"
    lines = err.splitlines()
    if rc not in (2, 3) or len(lines) != 1:
        return f"exit {rc} with stderr {err!r}"
    doc = json.loads(lines[0])
    return None if isinstance(doc, dict) and {"error", "message"} <= set(doc) else err


@pytest.mark.parametrize("name", ["rank1_cyclic", "rank1_multiplicity", "rank2_cyclic",
                                  "clark_levels", "roundtrip_job", "hankel", "bundle",
                                  "measure_levels"])
def test_every_field_replacement_is_run_or_refused(name, documents, tmp_path, capsys):
    command, doc = documents[name]
    failures = []
    for path in _paths(doc):
        for value in _REPLACEMENTS:
            text = json.dumps(_replaced(doc, path, value)).encode()
            outcome = _outcome(command, text, tmp_path, capsys)
            if outcome is not None:
                failures.append(f"{list(path)} = {value!r}: {outcome}")
    assert not failures, f"{len(failures)} cases:\n" + "\n".join(failures[:20])


@pytest.mark.parametrize("case", sorted(_UNREADABLE))
@pytest.mark.parametrize("command", ["synthesize", "analyze", "roundtrip", "convert-clark",
                                     "stability"])
def test_unreadable_input_is_a_schema_error(command, case, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_bytes(_UNREADABLE[case])
    assert main([command, "--input", str(path), "--output", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "Schema"
    assert ("UTF-8" if case == "utf16-bom" else "nested too deeply") in error["message"]


@pytest.mark.parametrize("parse, schema, key, other", [
    (serialize.parse_spectral_data, "spectral_data.v1", "rho", "rho1"),
    (serialize.parse_spectral_data, "spectral_data.v1", "rho1", "rho"),
    (serialize.parse_measure_levels, "measure_levels.v1", "rho", "rho1"),
    (serialize.parse_measure_levels, "measure_levels.v1", "rho1", "rho"),
    (serialize.parse_clark_levels, "clark_levels.v1", "thetas", "theta1s"),
    (serialize.parse_clark_levels, "clark_levels.v1", "theta1s", "thetas"),
])
@pytest.mark.parametrize("value", [0, 10**30, True, 2.5, "x", {"a": 1}, None])
def test_a_level_list_that_is_not_a_list_is_named(parse, schema, key, other, value):
    doc = {"schema": schema, "mode": "multiplicity", "spectrum": {"lambda": [1.0], "mu": [0.5]},
           key: value, other: []}
    with pytest.raises(SchemaError, match=rf"^{schema} {key}: expected a list"):
        parse(doc)


@pytest.mark.parametrize("parse, schema, lam_key, mu_key", [
    (serialize.parse_measure_levels, "measure_levels.v1", "rho", "rho1"),
    (serialize.parse_clark_levels, "clark_levels.v1", "thetas", "theta1s"),
])
def test_only_the_mu_side_holds_null(parse, schema, lam_key, mu_key):
    assert parse({"schema": schema, lam_key: [], mu_key: [None]}) == ([], [None])
    with pytest.raises(SchemaError):
        parse({"schema": schema, lam_key: [None], mu_key: []})


# the largest count each field represents (serialize._JOB_COUNTS).  Only the
# parser sees a value just past a bound: unchecked, such a count would reach
# the trial loop and allocate without end (one SeedSequence per trial, or
# arrays of n_max levels or max_atoms atoms), where 10**30 fails at once
_COUNT_BOUNDS = {"trials": 2**32, "n_max": 2**63 - 2, "max_atoms": 2**63 - 2}


@pytest.mark.parametrize("key", sorted(_COUNT_BOUNDS))
def test_job_counts_are_bounded(key, tmp_path, capsys):
    job = {"schema": "roundtrip_job.v1", "mode": "multiplicity"}
    most = _COUNT_BOUNDS[key]
    assert serialize.parse_roundtrip_job(job | {key: most})[key] == most
    with pytest.raises(SchemaError, match=rf"^roundtrip_job.v1: {key} must be at most {most}, "
                                          rf"got {most + 1}$"):
        serialize.parse_roundtrip_job(job | {key: most + 1})
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job | {key: 10**30}))
    out = tmp_path / "report.json"
    assert main(["roundtrip", "--input", str(path), "--output", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error == {"error": "Schema",
                     "message": f"roundtrip_job.v1: {key} must be at most {most}, got {10**30}"}
    assert not out.exists()
