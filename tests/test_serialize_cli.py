import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hankel_spectra as hs
from hankel_spectra import serialize
from hankel_spectra.cli import build_parser, main
from hankel_spectra.errors import SchemaError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestSchemas:
    def test_spectrum_roundtrip(self, rank2_spectrum):
        doc = serialize.emit_spectrum(rank2_spectrum)
        back = serialize.parse_spectrum(doc)
        np.testing.assert_allclose(back.lam, rank2_spectrum.lam)
        assert serialize.emit_spectrum(back) == doc
        assert serialize.dumps(doc) == serialize.dumps(json.loads(serialize.dumps(doc)))

    def test_measure_roundtrip(self):
        circ = hs.AtomicMeasure([1j, -1j], [0.5, 0.5])
        doc = serialize.emit_measure(circ)
        assert doc["atoms"][0]["point"] == [0.0, 1.0]
        assert serialize.emit_measure(serialize.parse_measure(doc)) == doc

    def test_spectral_data_roundtrip(self, rank2_data):
        doc = serialize.emit_spectral_data(rank2_data)
        back = serialize.parse_spectral_data(doc)
        assert serialize.emit_spectral_data(back) == doc

    def test_spectral_data_multiplicity_roundtrip(self):
        s = hs.validate_intertwining([1.0], [0.0])
        rho = [hs.AtomicMeasure([1j, -1j], [0.25, 0.75])]
        d = hs.CompactSpectralData(s, rho, [None])
        doc = serialize.emit_spectral_data(d)
        assert serialize.emit_spectral_data(serialize.parse_spectral_data(doc)) == doc

    def test_hankel_roundtrip(self, rank2_data, uncertified):
        h = uncertified(rank2_data, 8)
        doc = serialize.emit_hankel(h)
        back = serialize.parse_hankel(doc)
        np.testing.assert_array_equal(back.entries, h.entries)
        assert serialize.emit_hankel(back) == doc

    def test_bundle_roundtrip(self, rank2_data):
        b = hs.assemble(rank2_data)
        doc = serialize.emit_bundle(b)
        back = serialize.parse_bundle(doc)
        np.testing.assert_allclose(back.sigma_star, b.sigma_star, atol=1e-14)
        assert serialize.emit_bundle(back) == doc

    @pytest.mark.parametrize("gamma, N", [
        ([[1, 0], [0.5, 0]], 6),                  # too short: was zero-padded to 11 values
        ([[0.5 ** k, 0] for k in range(50)], 3),  # too long: was cut to 5 values
        ([[1, 0]], True),                         # a bool is not an integer N
    ])
    def test_hankel_length_and_N_checked(self, gamma, N):
        with pytest.raises(SchemaError):
            serialize.parse_hankel({"schema": "hankel.v1", "gamma": gamma, "N": N})

    def test_blaschke_roundtrip(self):
        theta = hs.BlaschkeProduct(zeros=[0.0, 0.3 + 0.1j], constant=np.exp(0.2j))
        doc = serialize.emit_blaschke(theta)
        assert serialize.emit_blaschke(serialize.parse_blaschke(doc)) == doc

    def test_schema_violations(self):
        with pytest.raises(SchemaError):
            serialize.parse_spectrum({"schema": "spectrum.v1", "lambda": [1.0]})
        with pytest.raises(SchemaError):
            serialize.parse_hankel({"schema": "hankel.v1", "gamma": [[1, 0]], "N": 0})
        with pytest.raises(SchemaError):
            serialize.parse_measure({"schema": "measure.v1", "atoms": []})
        with pytest.raises(SchemaError):
            serialize.parse_spectrum({"schema": "measure.v1", "lambda": [1], "mu": [0]})
        with pytest.raises(SchemaError):
            serialize.parse_blaschke({"schema": "blaschke.v1",
                                      "zeros": [[0.0, 0.0, 0.0]], "constant": [1, 0]})
        with pytest.raises(SchemaError):
            serialize.parse_measure({"schema": "measure.v1",
                                     "atoms": [{"point": "one", "weight": 1.0}]})
        with pytest.raises(SchemaError):
            serialize.loads("[1, 2, 3]")
        with pytest.raises(SchemaError):
            serialize.loads("{not json")

    @pytest.mark.parametrize("gamma, N", [
        ([1.0, 2.0, 3.0], 3),       # too short: was zero-padded to 5 values
        ([1.0, 2.0, 3.0, 4.0], 2),  # too long: was cut to 3 values
        ([[1.0, 2.0, 3.0]], 2),     # not a flat sequence
    ], ids=["padded", "cut", "not_flat"])
    def test_from_gamma_takes_exactly_2N_minus_1_values(self, gamma, N):
        with pytest.raises(ValueError):
            hs.HankelMatrix.from_gamma(gamma, N)
        assert hs.HankelMatrix.from_gamma([1.0, 2.0, 3.0], 2).entries[1, 1] == 3.0


def _set_layout(key, value):
    return lambda doc: doc["layout"].__setitem__(key, value(doc["layout"]))


@pytest.mark.parametrize("corrupt", [
    _set_layout("lam_blocks", lambda lay: [[0], [5]]),              # index out of range
    _set_layout("lam_blocks", lambda lay: [[0], [1.0]]),            # non-integer index
    _set_layout("lam_blocks", lambda lay: 5),
    _set_layout("mu", lambda lay: lay["mu"][:1]),                   # shorter than lam
    _set_layout("mu_blocks", lambda lay: lay["mu_blocks"][:1]),
    _set_layout("lam", lambda lay: []),
    lambda doc: doc.__setitem__("dim", 3),
    lambda doc: doc.__setitem__("R", [[[1.0, 0.0]]]),               # 1 x 1 in a dim 2 bundle
    lambda doc: doc.__setitem__("q", doc["q"][:1]),                 # derived field, wrong shape
    lambda doc: doc.pop("A"),                                       # derived field missing
], ids=["index_out_of_range", "non_integer_index", "blocks_not_a_list", "mu_short",
        "mu_blocks_short", "lam_empty", "wrong_dim", "matrix_shape", "derived_shape",
        "derived_missing"])
def test_stability_refuses_malformed_bundle_layout(tmp_path, capsys, rank2_data, corrupt):
    doc = serialize.emit_bundle(hs.assemble(rank2_data))
    corrupt(doc)
    path = tmp_path / "bundle.json"
    path.write_text(serialize.dumps(doc))
    rc = main(["stability", "--input", str(path), "--output", str(tmp_path / "out")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["error"] == "Schema"


@pytest.mark.parametrize("key, value, law", [
    ("lam", [5.0, 1.0], "R matches layout"),      # over R = diag(2, 1)
    ("mu", [1.5, 0.0], "R1 matches layout"),      # R1's levels are sqrt(2) and 0
], ids=["lam", "mu"])
def test_stability_refuses_layout_contradicting_operators(tmp_path, capsys, rank2_data,
                                                          key, value, law):
    # a well-formed layout whose levels are not R's and R1's spectra
    doc = serialize.emit_bundle(hs.assemble(rank2_data))
    doc["layout"][key] = value
    path = tmp_path / "bundle.json"
    path.write_text(serialize.dumps(doc))
    rc = main(["stability", "--input", str(path), "--output", str(tmp_path / "out")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "BundleInvariant"
    assert err["message"].startswith(f"bundle violates: {law} (residual ")


@pytest.mark.parametrize("key", ["q", "qhat", "sigma_star", "sigma_hat_star", "A"])
def test_stability_refuses_derived_field_contradicting_operators(tmp_path, capsys, key):
    # a synthesized bundle.json with one field that parsing recomputes zeroed
    out = tmp_path / "synth"
    assert main(["synthesize", "--input", str(FIXTURES / "rank2_cyclic.json"),
                 "--output", str(out)]) == 0
    doc = json.loads((out / "bundle.json").read_text())
    assert np.abs(np.array(doc[key])).max() > 0.1
    doc[key] = np.zeros(np.shape(doc[key])).tolist()
    path = tmp_path / "bundle.json"
    path.write_text(serialize.dumps(doc))
    rc = main(["stability", "--input", str(path), "--output", str(tmp_path / "out")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "BundleInvariant"
    assert err["message"].startswith(f"bundle.v1 field {key} differs")
    assert not (tmp_path / "out").exists()


def test_stability_of_a_written_bundle_matches_its_data(tmp_path):
    # the document's derived fields match their recomputation bit for bit,
    # and the report is the one the spectral data give
    for name in ("rank1_cyclic.json", "rank2_cyclic.json", "rank1_multiplicity.json"):
        out = tmp_path / name
        assert main(["synthesize", "--input", str(FIXTURES / name), "--output", str(out)]) == 0
        assert main(["stability", "--input", str(out / "bundle.json"),
                     "--output", str(out / "from_bundle")]) == 0
        assert main(["stability", "--input", str(FIXTURES / name),
                     "--output", str(out / "from_data")]) == 0
        for f in ("stability.json", "decay_profile.csv"):
            assert (out / "from_bundle" / f).read_bytes() == (out / "from_data" / f).read_bytes()


def test_stability_refuses_singular_R(tmp_path, capsys):
    # q and Sigma* solve with R, so a singular R is refused before any law
    out = tmp_path / "synth"
    assert main(["synthesize", "--input", str(FIXTURES / "rank2_cyclic.json"),
                 "--output", str(out)]) == 0
    doc = json.loads((out / "bundle.json").read_text())
    assert doc["R"] == [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    doc["R"][1][1] = [0.0, 0.0]                                     # R = diag(2, 0)
    path = tmp_path / "bundle.json"
    path.write_text(serialize.dumps(doc))
    rc = main(["stability", "--input", str(path), "--output", str(tmp_path / "out")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "BundleInvariant"
    assert err["message"].startswith("R is not invertible")
    assert not (tmp_path / "out").exists()


def test_weight_out_of_range_exit_3(tmp_path, capsys):
    # lambda = 1e153 lies above the scale bound 1e72, whose fourth power is
    # the largest the pipeline forms; it is refused before anything is squared
    doc = serialize.loads((FIXTURES / "rank1_cyclic.json").read_text())
    doc["spectrum"]["lambda"] = [1e153]
    path = tmp_path / "data.json"
    path.write_text(serialize.dumps(doc))
    out = tmp_path / "out"
    assert main(["synthesize", "--input", str(path), "--output", str(out)]) == 3
    assert json.loads(capsys.readouterr().err) == {
        "error": "WeightRange",
        "message": "spectral data reach 1.000e+153 > SCALE_MAX = 1e+72"}
    assert not out.exists()


_ABSENT = object()


@pytest.mark.parametrize("flags, rc, code", [
    (["circle"], 3, "DegenerateMeasure"),
    (["probability"], 3, "DegenerateMeasure"),
    ([], 3, "DegenerateMeasure"),
    (_ABSENT, 3, "DegenerateMeasure"),
    ("circle probability", 2, "Schema"),
    (["circle", "probability", "real"], 2, "Schema"),
], ids=["circle", "probability", "empty", "absent", "string", "real"])
@pytest.mark.parametrize("command", ["synthesize", "convert-clark"])
def test_level_measure_flags_are_refused(tmp_path, capsys, command, flags, rc, code):
    # every level measure is a circle probability measure: flags that do not
    # name both are refused as a degenerate measure, malformed flags as a schema
    data = serialize.loads((FIXTURES / "rank1_multiplicity.json").read_text())
    measure = data["rho"][0]
    if flags is _ABSENT:
        del measure["flags"]
    else:
        measure["flags"] = flags
    doc = data if command == "synthesize" else {
        "schema": "measure_levels.v1", "rho": [measure], "rho1": [None]}
    path = tmp_path / "in.json"
    path.write_text(serialize.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--input", str(path), "--output", str(out)]) == rc
    assert json.loads(capsys.readouterr().err)["error"] == code
    assert not out.exists()


@pytest.mark.parametrize("value", ["4097", "0"])
@pytest.mark.parametrize("command, source", [("synthesize", "rank2_cyclic.json"),
                                             ("roundtrip", "roundtrip_job.json")],
                         ids=["synthesize", "roundtrip"])
def test_truncation_outside_the_range_exit_2(tmp_path, capsys, command, source, value):
    # explicit N must lie in 1..TRUNCATION_CAP, the range the symbol law
    # covers; the CLI refuses any other value as a schema violation
    out = tmp_path / "out"
    rc = main([command, "--input", str(FIXTURES / source), "--output", str(out),
               "--truncation", value])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "Schema",
                   "message": f"--truncation must be 'auto' or lie in 1..4096, got {value}"}
    assert not out.exists()


class TestCli:
    def test_synthesize_rank1(self, tmp_path):
        out = tmp_path / "synth"
        rc = main(["synthesize", "--input", str(FIXTURES / "rank1_cyclic.json"),
                   "--output", str(out), "--truncation", "4"])
        assert rc == 0
        doc = json.loads((out / "hankel.json").read_text())
        assert doc["gamma"][0] == [1.0, 0.0]
        assert all(g == [0.0, 0.0] for g in doc["gamma"][1:])
        assert (out / "bundle.json").exists()
        assert (out / "stability.json").exists()
        assert (out / "singular_values.csv").read_text().startswith("index,")

    @pytest.mark.parametrize("name", ["rank1_cyclic", "rank1_multiplicity", "rank2_cyclic"])
    @pytest.mark.parametrize("below_dim", [False, True])
    def test_singular_values_csv_is_the_svd_of_hankel_json(self, tmp_path, name, below_dim):
        # the CSV comes from the bundle's factorization, hankel.json from the
        # symbol: the two must describe one matrix.  N = 1 lies below the
        # dimension 2 of the rank-one multiplicity and rank-two bundles; the
        # large tail bound lets that uncertified N through
        path = FIXTURES / f"{name}.json"
        out = tmp_path / "synth"
        truncation = ["--truncation", "1", "--tol-tail", "10"] if below_dim else []
        assert main(["synthesize", "--input", str(path), "--output", str(out)] + truncation) == 0
        h = serialize.parse_hankel(serialize.loads((out / "hankel.json").read_text()))
        rows = (out / "singular_values.csv").read_text().splitlines()[1:]
        got = np.array([float(row.split(",")[1]) for row in rows])
        ref = np.linalg.svd(h.entries, compute_uv=False)
        assert got.shape == ref.shape == (h.N,)
        assert np.abs(got - ref).max() <= 1e-14 * ref[0]

    def test_roundtrip_rank2(self, tmp_path):
        report_path = tmp_path / "report.json"
        rc = main(["roundtrip", "--input", str(FIXTURES / "rank2_cyclic.json"),
                   "--output", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert max(report["max_errors"].values()) < 1e-8

    def test_analyze_recovers(self, tmp_path):
        out = tmp_path / "synth"
        main(["synthesize", "--input", str(FIXTURES / "rank2_cyclic.json"),
              "--output", str(out)])
        rc = main(["analyze", "--input", str(out / "hankel.json"),
                   "--output", str(tmp_path / "fwd.json")])
        assert rc == 0
        fwd = json.loads((tmp_path / "fwd.json").read_text())
        np.testing.assert_allclose(fwd["lambda"], [2.0, 1.0], rtol=1e-8)
        np.testing.assert_allclose(fwd["mu"], [np.sqrt(2.0), 0.0], atol=1e-8)

    def test_analyze_non_hankel_exit_3(self, tmp_path):
        bad = {"schema": "hankel.v1", "N": 2,
               "gamma": [[1.0, 0.0], [0.0, 0.0], [1.0 - 5e-7, 0.0]]}
        path = tmp_path / "bad.json"
        path.write_text(serialize.dumps(bad))
        rc = main(["analyze", "--input", str(path), "--output", str(tmp_path / "x.json")])
        assert rc == 3  # ClusterAmbiguity from the forward problem

    def test_schema_violation_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "hankel.v1", "gamma": "oops"}')
        rc = main(["analyze", "--input", str(path), "--output", str(tmp_path / "x.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "Schema"

    def test_io_error_exit_4(self, tmp_path):
        rc = main(["analyze", "--input", str(tmp_path / "missing.json"),
                   "--output", str(tmp_path / "x.json")])
        assert rc == 4

    def test_convert_clark_both_ways(self, tmp_path):
        measures = tmp_path / "measures.json"
        rc = main(["convert-clark", "--input", str(FIXTURES / "clark_levels.json"),
                   "--output", str(measures)])
        assert rc == 0
        back = tmp_path / "back.json"
        rc = main(["convert-clark", "--input", str(measures), "--output", str(back)])
        assert rc == 0
        doc = json.loads(back.read_text())
        assert doc["schema"] == "clark_levels.v1"
        assert doc["thetas"][0]["zeros"] == [[0.0, 0.0], [0.0, 0.0]]

    def test_stability_outputs(self, tmp_path):
        out = tmp_path / "stab"
        rc = main(["stability", "--input", str(FIXTURES / "rank1_multiplicity.json"),
                   "--output", str(out)])
        assert rc == 0
        doc = json.loads((out / "stability.json").read_text())
        assert doc["spectral_radius_sigma"] < 1.0
        assert all(flag["passed"] for flag in doc["cnu_flags"])
        assert (out / "decay_profile.csv").read_text().startswith("k,norm")

    def test_stability_accepts_bundle_doc(self, tmp_path, rank2_data):
        b = hs.assemble(rank2_data)
        path = tmp_path / "bundle.json"
        path.write_text(serialize.dumps(serialize.emit_bundle(b)))
        rc = main(["stability", "--input", str(path), "--output", str(tmp_path / "out")])
        assert rc == 0

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            rc = main(["roundtrip", "--input", str(FIXTURES / "roundtrip_job.json"),
                       "--output", str(target), "--seed", "7"])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_analyze_rejects_malformed_hankel(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text(serialize.dumps({"schema": "hankel.v1", "gamma": [[1, 0], [0.5, 0]],
                                         "N": 6}))
        rc = main(["analyze", "--input", str(path), "--output", str(tmp_path / "f.json")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "Schema"
        assert not (tmp_path / "f.json").exists()

    def test_seed_changes_trials(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["roundtrip", "--input", str(FIXTURES / "roundtrip_job.json"),
              "--output", str(a), "--seed", "7"])
        main(["roundtrip", "--input", str(FIXTURES / "roundtrip_job.json"),
              "--output", str(b), "--seed", "8"])
        assert a.read_bytes() != b.read_bytes()

    # the first trial is the parent's on a 2-core machine; the others may be a child's
    @pytest.mark.parametrize("bad_trial", [0, 7, 15], ids=["first", "middle", "last"])
    def test_failing_trial_keeps_the_report(self, tmp_path, monkeypatch, capsys, bad_trial):
        from hankel_spectra import cli
        from hankel_spectra.errors import ClusterAmbiguityError

        job = {"schema": "roundtrip_job.v1", "trials": 16, "n_max": 4, "mode": "cyclic"}
        job_path = tmp_path / "job.json"
        job_path.write_text(serialize.dumps(job))
        bad = cli._trial_data(serialize.parse_roundtrip_job(job),
                              np.random.SeedSequence(5).spawn(16)[bad_trial])
        real = cli.run_roundtrip_trial

        def trial(d, **kwargs):
            if np.array_equal(d.spectrum.lam, bad.spectrum.lam):
                raise ClusterAmbiguityError("injected")
            return real(d, **kwargs)

        monkeypatch.setattr(cli, "run_roundtrip_trial", trial)
        reports = []
        for run in ("a", "b"):
            out = tmp_path / f"report_{run}.json"
            rc = main(["roundtrip", "--input", str(job_path), "--output", str(out),
                       "--seed", "5"])
            assert rc == 3
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert err == {"error": "ClusterAmbiguity", "message": "injected", "trial": bad_trial}
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        entries = json.loads(reports[0])["trials"]
        assert [e["trial"] for e in entries] == list(range(16))
        assert entries[bad_trial]["error"] == "ClusterAmbiguity"
        assert all(entries[bad_trial][k] == "inf" for k in ("lam", "mu", "weights", "phases"))
        assert entries[bad_trial]["N"] is None
        assert all("error" not in e and e["lam"] < 1e-8 for e in entries
                   if e["trial"] != bad_trial)


@pytest.mark.parametrize("fields", [
    {"n_max": 0},
    {"trials": -1},
    {"trials": "x"},
    {"trials": True},
    {"mode": "bogus"},
    {"levels_max": 0, "mode": "multiplicity"},
    {"max_atoms": 2.0, "mode": "multiplicity"},
    {"max_contraction": 0},
    {"max_contraction": 1.5},
], ids=lambda fields: "-".join(f"{k}={v}" for k, v in fields.items()))
def test_roundtrip_job_fields_are_checked(fields, tmp_path, capsys):
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"schema": "roundtrip_job.v1", "trials": 2} | fields))
    out = tmp_path / "report.json"
    rc = main(["roundtrip", "--input", str(job), "--output", str(out)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"] == "Schema"
    assert not out.exists()


def test_roundtrip_mode_comes_from_the_job(tmp_path, capsys):
    # --mode is gone: it exits 2, and the job's mode field (default cyclic)
    # is the only place a trial mode is set
    reports = {}
    for mode in (None, "cyclic", "multiplicity"):
        job = tmp_path / f"job_{mode}.json"
        job.write_text(json.dumps({"schema": "roundtrip_job.v1", "trials": 2, "n_max": 2}
                                  | ({"mode": mode} if mode else {})))
        out = tmp_path / f"report_{mode}.json"
        argv = ["roundtrip", "--input", str(job), "--output", str(out), "--seed", "3"]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--mode", "multiplicity"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err
        assert main(argv) == 0
        reports[mode] = out.read_bytes()
    assert reports[None] == reports["cyclic"] != reports["multiplicity"]


@pytest.mark.parametrize("command, reads", [
    ("synthesize", {"--truncation", "--tol-tail"}),
    ("analyze", {"--tol-gap"}),
    ("roundtrip", {"--truncation", "--seed", "--tol-gap", "--tol-tail"}),
    ("convert-clark", set()),
    ("stability", set()),
])
def test_subcommand_takes_only_the_options_it_reads(command, reads, tmp_path):
    # no subcommand takes --mode: a roundtrip job's own mode field sets it
    argv = [command, "--input", str(tmp_path / "in.json"), "--output", str(tmp_path / "out")]
    values = {"--truncation": "4", "--seed": "1", "--tol-gap": "1e-5",
              "--tol-tail": "1e-11", "--mode": "multiplicity"}
    for option, value in values.items():
        if option in reads:
            args = build_parser().parse_args(argv + [option, value])
            assert len(vars(args)) == 4  # command, input, output and this option
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv + [option, value])
            assert exc.value.code == 2
    assert main(argv) == 4  # accepted, then fails on the missing input


def test_reused_parser_keeps_no_options_between_calls(monkeypatch):
    # the parser is built once per process; options one call sets must not
    # reach the next call's JobConfig
    from hankel_spectra import cli

    configs = []
    monkeypatch.setattr(cli, "run", lambda cfg: configs.append(cfg) or 0)
    assert main(["roundtrip", "--input", "job.json", "--output", "a.json", "--seed", "5",
                 "--tol-gap", "1e-4"]) == 0
    assert main(["analyze", "--input", "hankel.json", "--output", "b.json"]) == 0
    assert build_parser() is build_parser()
    first, second = configs
    assert (first.seed, first.cluster_gap) == (5, 1e-4)
    assert second == cli.JobConfig(command="analyze", input=Path("hankel.json"),
                                   output=Path("b.json"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize("command, flag", [
    ("synthesize", "--tol-tail"),
    ("analyze", "--tol-gap"),
    ("roundtrip", "--tol-gap"),
    ("roundtrip", "--tol-tail"),
])
def test_tolerances_must_be_finite_and_positive(command, flag, value, tmp_path, capsys):
    # a NaN tail bound used to walk 4096 steps and a NaN gap to name the band
    # (nan, nan], both exit 3; an infinite tail bound certified N = dim + 2
    # against no bound and exited 0
    data = FIXTURES / "rank1_multiplicity.json"
    hankel = tmp_path / "hankel.json"
    h = hs.hankel_from_data(serialize.parse_spectral_data(serialize.loads(data.read_text())))
    hankel.write_text(serialize.dumps(serialize.emit_hankel(h)))
    source = {"synthesize": data, "analyze": hankel, "roundtrip": FIXTURES / "roundtrip_job.json"}
    out = tmp_path / "out"
    rc = main([command, "--input", str(source[command]), "--output", str(out), f"{flag}={value}"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "Schema"
    assert err["message"].startswith(f"{flag} must be finite and positive")
    assert not out.exists()


def test_cli_loads_no_scipy(tmp_path):
    # a fresh interpreter, since this one holds scipy and numpy.polynomial
    # for the test oracles; every command runs, and the multiplicity fixture
    # reaches the phase step of a multi-atom level
    script = """
import sys
import hankel_spectra
from hankel_spectra.cli import main

fixtures, out = sys.argv[1:]
for argv in (
    ["synthesize", "--input", f"{fixtures}/rank1_multiplicity.json", "--output", f"{out}/syn"],
    ["analyze", "--input", f"{out}/syn/hankel.json", "--output", f"{out}/fwd.json"],
    ["roundtrip", "--input", f"{fixtures}/roundtrip_job.json", "--output", f"{out}/rt.json"],
    ["convert-clark", "--input", f"{fixtures}/clark_levels.json", "--output", f"{out}/m.json"],
    ["stability", "--input", f"{fixtures}/rank2_cyclic.json", "--output", f"{out}/stab"],
):
    assert main(argv) == 0, argv
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial"))
assert not loaded, loaded
"""
    src = str(Path(hs.__file__).resolve().parents[1])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, str(FIXTURES), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    fwd = json.loads((tmp_path / "fwd.json").read_text())
    assert len(fwd["xi"][0]["value"]["atoms"]) == 2


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "x", "4097"])
@pytest.mark.parametrize("command, option", [
    ("synthesize", "--truncation"), ("synthesize", "--tol-tail"),
    ("analyze", "--tol-gap"),
    ("roundtrip", "--truncation"), ("roundtrip", "--seed"),
    ("roundtrip", "--tol-gap"), ("roundtrip", "--tol-tail"),
])
def test_every_option_value_exits_cleanly(command, option, value, tmp_path, capsys):
    # every option each subcommand takes (convert-clark and stability take
    # none), at the edges of its domain: the command runs, or it refuses
    # with exit 2 or 3 and one JSON object on stderr.  An uncaught error
    # (exit 1, a traceback) or argparse's usage text fails the test;
    # --seed -1 reached np.random.SeedSequence unchecked
    data = FIXTURES / "rank2_cyclic.json"
    hankel = tmp_path / "hankel.json"
    h = hs.hankel_from_data(serialize.parse_spectral_data(serialize.loads(data.read_text())))
    hankel.write_text(serialize.dumps(serialize.emit_hankel(h)))
    source = {"synthesize": data, "analyze": hankel, "roundtrip": FIXTURES / "roundtrip_job.json"}
    rc = main([command, "--input", str(source[command]), "--output", str(tmp_path / "out"),
               f"{option}={value}"])
    err = capsys.readouterr().err
    if rc == 0:
        assert err == ""
        return
    assert rc in (2, 3)
    line, = err.splitlines()
    assert set(json.loads(line)) >= {"error", "message"}
    if rc == 2:
        assert json.loads(line)["message"].startswith(option)
