import json
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

    def test_measure_roundtrip_real_and_circle(self):
        real = hs.borg_weights(hs.validate_intertwining([2.0, 1.0], [1.5, 0.5]))
        doc = serialize.emit_measure(real)
        assert isinstance(doc["atoms"][0]["point"], float)
        back = serialize.parse_measure(doc)
        assert serialize.emit_measure(back) == doc
        circ = hs.AtomicMeasure([1j, -1j], [0.5, 0.5], circle=True, probability=True)
        doc = serialize.emit_measure(circ)
        assert doc["atoms"][0]["point"] == [0.0, 1.0]
        assert serialize.emit_measure(serialize.parse_measure(doc)) == doc

    def test_spectral_data_roundtrip(self, rank2_data):
        doc = serialize.emit_spectral_data(rank2_data)
        back = serialize.parse_spectral_data(doc)
        assert serialize.emit_spectral_data(back) == doc

    def test_spectral_data_multiplicity_roundtrip(self):
        s = hs.validate_intertwining([1.0], [0.0])
        rho = [hs.AtomicMeasure([1j, -1j], [0.25, 0.75], circle=True, probability=True)]
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

    def test_from_gamma_infers_truncation(self):
        h = hs.HankelMatrix.from_gamma([1.0, 2.0, 3.0])       # odd: N = 2
        assert h.N == 2 and h.entries[1, 1] == 3.0
        h = hs.HankelMatrix.from_gamma([1.0, 2.0, 3.0, 4.0])  # even: padded
        assert h.N == 3 and h.entries[2, 2] == 0.0


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

    def test_ingest_corrupted_matrix(self):
        # a symmetric non-Hankel matrix is rejected with the NotHankel code
        from hankel_spectra.errors import NotHankelError

        rng = np.random.default_rng(0)
        m = rng.standard_normal((5, 5))
        with pytest.raises(NotHankelError) as err:
            hs.HankelMatrix.from_entries(m + m.T)
        assert err.value.code == "NotHankel"

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

    def test_failing_trial_keeps_the_report(self, tmp_path, monkeypatch, capsys):
        from hankel_spectra import cli
        from hankel_spectra.errors import ClusterAmbiguityError

        job = {"schema": "roundtrip_job.v1", "trials": 16, "n_max": 4, "mode": "cyclic"}
        job_path = tmp_path / "job.json"
        job_path.write_text(serialize.dumps(job))
        bad = cli._trial_data(serialize.parse_roundtrip_job(job),
                              np.random.SeedSequence(5).spawn(16)[3])
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
            assert err["error"] == "ClusterAmbiguity" and err["trial"] == 3
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        entries = json.loads(reports[0])["trials"]
        assert [e["trial"] for e in entries] == list(range(16))
        assert entries[3]["error"] == "ClusterAmbiguity"
        assert all(entries[3][k] == "inf" for k in ("lam", "mu", "weights", "phases"))
        assert entries[3]["N"] is None
        assert all("error" not in e and e["lam"] < 1e-8 for e in entries if e["trial"] != 3)


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
    assert (first.seed, first.tolerances.cluster_gap) == (5, 1e-4)
    assert second == cli.JobConfig(command="analyze", input=Path("hankel.json"),
                                   output=Path("b.json"))
