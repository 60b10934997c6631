"""A roundtrip job's trials on forked workers: the same report as one
process, every child reaped whatever stops the job, and one BLAS thread."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hankel_spectra as hs
from hankel_spectra import cli, workers
from hankel_spectra.cli import main

CORES = len(os.sched_getaffinity(0))
forked = pytest.mark.skipif(CORES < 2 or workers._blas_thread_control() is None,
                            reason="a job forks only with two usable cores and BLAS thread control")


def _job(tmp_path, trials, mode="cyclic"):
    path = tmp_path / f"job_{mode}_{trials}.json"
    path.write_text(json.dumps({"schema": "roundtrip_job.v1", "trials": trials, "n_max": 4,
                                "mode": mode}))
    return path


def _roundtrip(job, out, seed=3):
    return main(["roundtrip", "--input", str(job), "--output", str(out), "--seed", str(seed)])


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls made while the test runs."""
    calls = []
    real = os.fork

    def fork():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


@forked
def test_a_job_forks_one_child_per_further_core(tmp_path, forks):
    assert _roundtrip(_job(tmp_path, 8), tmp_path / "r.json") == 0
    assert len(forks) == min(8, CORES) - 1
    assert _no_child_left()


@forked
def test_blas_threads_are_restored_after_a_job(tmp_path):
    get, _ = workers._blas_thread_control()
    before = get()
    assert _roundtrip(_job(tmp_path, 4), tmp_path / "r.json") == 0
    assert get() == before


@pytest.mark.parametrize("trials", [1, 6])
def test_one_trial_or_one_core_runs_in_process(tmp_path, monkeypatch, trials):
    job = _job(tmp_path, trials)
    assert _roundtrip(job, tmp_path / "forked.json") == 0

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)} if trials > 1 else cpus)
    try:
        assert _roundtrip(job, tmp_path / "alone.json") == 0
    finally:
        os.sched_setaffinity(0, cpus)
    assert (tmp_path / "alone.json").read_bytes() == (tmp_path / "forked.json").read_bytes()


@forked
@pytest.mark.parametrize("where, exc", [("parent", ZeroDivisionError),
                                        ("child", ZeroDivisionError),
                                        ("parent", KeyboardInterrupt)],
                         ids=["parent", "child", "interrupt"])
def test_an_unexpected_exception_leaves_no_report_and_no_child(tmp_path, monkeypatch, where,
                                                               exc):
    parent = os.getpid()
    real = cli.run_roundtrip_trial

    def trial(d, **kwargs):
        if (os.getpid() == parent) == (where == "parent"):
            raise exc("injected")
        return real(d, **kwargs)

    monkeypatch.setattr(cli, "run_roundtrip_trial", trial)
    out = tmp_path / "r.json"
    # a child's exception comes back as a RuntimeError holding its traceback
    with pytest.raises(exc if where == "parent" else RuntimeError, match="injected"):
        _roundtrip(_job(tmp_path, 12), out)
    assert not out.exists()
    assert _no_child_left()


def test_reports_do_not_depend_on_the_blas_thread_default(tmp_path):
    # numpy's default is one OpenBLAS thread per core; trials run on one
    src = str(Path(hs.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"schema": "roundtrip_job.v1", "trials": 16,
                               "mode": "multiplicity"}))
    reports = []
    for name, extra in (("default", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / f"{name}.json"
        proc = subprocess.run([sys.executable, "-m", "hankel_spectra.cli", "roundtrip",
                               "--input", str(job), "--output", str(out), "--seed", "5"],
                              env=env | extra, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_every_index_runs_once_across_batches():
    count = 2 * workers._BATCH + 5
    assert workers.map_trials(lambda i: i * i, count) == [i * i for i in range(count)]
    assert _no_child_left()
