"""One benchmark workload in one process.

The process imports the package from the checkout's ``src/`` once, makes the
workload's inputs from the seed, runs one untimed warm-up op, then drives the
program in a closed loop (one client; the next op starts when the previous
one ends) for at least the requested seconds, in whole rounds.  CLI commands
go through ``hankel_spectra.cli.main([...])``; library calls go through the
module attributes of the package, so that a traced run can wrap them.  After
the timed phase it checks every output with :mod:`checks` and prints one JSON
object as its last line.  ``run.py`` starts it with the thread variables
removed; started by hand it keeps the caller's environment, which is how the
README's single-threaded baselines are taken.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "clark", "errors", "hankel_core", "operator_assembly", "random_data",
           "roundtrip", "serialize", "stability")


def import_program():
    """The package from this checkout's src/, and nothing installed elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    package = importlib.import_module("hankel_spectra")
    if Path(package.__file__).resolve().parent != (src / "hankel_spectra").resolve():
        raise ImportError(f"hankel_spectra imported from {package.__file__}, not from {src}")
    for name in MODULES:
        importlib.import_module(f"hankel_spectra.{name}")
    return package


def expected_from(d) -> checks.Expected:
    """Plain arrays of a CompactSpectralData, for the checks."""
    s = d.spectrum
    if d.mode == "cyclic":
        xi = list(d.xi)
        eta = [None if s.mu[k] == 0 else d.eta[k] for k in range(s.n)]
    else:
        xi = [(m.points, m.weights) for m in d.rho]
        eta = [None if m is None else (m.points, m.weights) for m in d.rho1]
    return checks.Expected(s.lam, s.mu, xi, eta)


def _draw_certified(hs, draw, n_max: int, refused: list):
    """The first draw whose certified truncation is at most n_max.

    A draw the generator itself cannot finish is left out too (its
    contraction guard assembles each candidate, and at rank 16 assembly
    sometimes fails a bundle invariant); each such refusal is appended to
    ``refused`` and reported with the result.
    """
    while True:
        try:
            d = draw()
            if hs.hankel_core.certified_truncation(hs.operator_assembly.assemble(d)) <= n_max:
                return d
        except hs.errors.HankelSpectraError as exc:
            refused.append(f"{type(exc).__name__}: {exc}")


class RoundtripBatch:
    """op = one ``roundtrip`` CLI job on the default worker pool.

    Jobs alternate between cyclic and multiplicity mode and use the CLI's
    default ``n_max``; each op takes the next of JOBS job seeds derived from
    the workload seed, so a run samples several hundred distinct trials.  A
    cyclic trial costs about 0.8 of a multiplicity trial, so the jobs have 20
    and 16 trials: the two kinds of op then cost about the same, and the
    median op time does not fall into the gap between two modes.  The
    warm-up op is a multiplicity job with a fixed seed, so set-up time does
    not depend on the workload seed.
    """

    TRIALS = {"cyclic": 20, "multiplicity": 16}
    JOBS = 64
    WARMUP_JOB_SEED = 0
    MODES = ("cyclic", "multiplicity")
    round_size = 2
    keep_rounds = None
    refused = ()

    def __init__(self, hs, seed: int, workdir: Path):
        self.cli = hs.cli
        self.workdir = workdir
        self.job_seeds = [int(v) for v in np.random.SeedSequence(seed).generate_state(self.JOBS)]
        self.job_files = {}
        for mode in self.MODES:
            path = workdir / f"job_{mode}.json"
            path.write_text(json.dumps({"schema": "roundtrip_job.v1", "trials": self.TRIALS[mode],
                                        "mode": mode}))
            self.job_files[mode] = path

    def key(self, i: int) -> int:
        return i % self.JOBS

    def _job(self, mode: str, job_seed: int, out: Path) -> bool:
        return self.cli.main(["roundtrip", "--input", str(self.job_files[mode]),
                              "--output", str(out), "--seed", str(job_seed)]) == 0

    def warmup(self, tag: str):
        out = self.workdir / f"report_{tag}.json"
        return "warmup", self._job("multiplicity", self.WARMUP_JOB_SEED, out), ("multiplicity", out)

    def run(self, i: int, tag: str):
        out = self.workdir / f"report_{tag}.json"
        mode = self.MODES[i % 2]
        return self._job(mode, self.job_seeds[self.key(i)], out), (mode, out)

    def check(self, result):
        mode, out = result
        checks.check_roundtrip_report(json.loads(out.read_text()), self.TRIALS[mode])

    def digest(self, result) -> bytes:
        return result[1].read_bytes()


class LargeTruncation:
    """op = ``synthesize --truncation N_FIXED`` then ``analyze`` of its
    ``hankel.json``; inputs alternate between one cyclic and one
    multiplicity data set whose certified truncation is at most N_FIXED / 2."""

    N_FIXED = 1024
    CYCLIC_N = 8
    LEVELS = 3
    MAX_ATOMS = 3
    FILES = ("hankel.json", "bundle.json", "stability.json", "singular_values.csv", "forward.json")
    round_size = 2
    keep_rounds = None

    def __init__(self, hs, seed: int, workdir: Path):
        self.cli = hs.cli
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        draws = (lambda: hs.random_data.random_cyclic_data(rng, self.CYCLIC_N, max_contraction=0.97),
                 lambda: hs.random_data.random_multiplicity_data(
                     rng, self.LEVELS, max_atoms=self.MAX_ATOMS, max_contraction=0.97))
        self.data, self.inputs, self.refused = [], [], []
        for k, draw in enumerate(draws):
            d = _draw_certified(hs, draw, self.N_FIXED // 2, self.refused)
            path = workdir / f"input_{k}.json"
            path.write_text(hs.serialize.dumps(hs.serialize.emit_spectral_data(d)))
            self.data.append(d)
            self.inputs.append(path)

    def key(self, i: int) -> int:
        return i % 2

    def warmup(self, tag: str):
        return self.key(0), *self.run(0, tag)

    def run(self, i: int, tag: str):
        out = self.workdir / f"synth_{tag}"
        ok = self.cli.main(["synthesize", "--input", str(self.inputs[self.key(i)]),
                            "--output", str(out), "--truncation", str(self.N_FIXED)]) == 0
        ok = ok and self.cli.main(["analyze", "--input", str(out / "hankel.json"),
                                   "--output", str(out / "forward.json")]) == 0
        return ok, (self.key(i), out)

    def check(self, first):
        k, out = first
        exp = expected_from(self.data[k])
        doc = json.loads((out / "hankel.json").read_text())
        checks.fail_if(doc["N"] != self.N_FIXED, f"hankel.json has N = {doc['N']}")
        gamma = np.array([complex(re, im) for re, im in doc["gamma"]])
        own = checks.check_hankel(gamma, doc["N"], exp)
        checks.check_singular_values_csv((out / "singular_values.csv").read_text(), doc["N"],
                                         own["svals"], float(exp.lam[0]))
        checks.check_forward_data(json.loads((out / "forward.json").read_text()), exp, own)
        bundle = json.loads((out / "bundle.json").read_text())
        sigma = np.array([[complex(re, im) for re, im in row] for row in bundle["sigma_star"]])
        stab = json.loads((out / "stability.json").read_text())
        checks.check_contraction(sigma, stab["spectral_radius_sigma"],
                                 all(f["passed"] for f in stab["cnu_flags"]))

    def digest(self, result) -> bytes:
        _, out = result
        return b"".join((out / name).read_bytes() for name in self.FILES)


class InverseStability:
    """op = ``hankel_from_data`` (auto certified truncation), then
    ``stability_report(assemble(d))``, then for multiplicity data the Clark
    round trip of the level measures.

    The inputs are a fixed grid filled from the seed: cyclic data of every
    rank n = 1..16 alternating with multiplicity data of 1..LEVELS levels and
    up to MAX_ATOMS atoms per level, GRID_COPIES times over; a round runs
    each input once.  The generator aims at contraction radius 0.97 (the
    CLI's default) but returns its best draw when none qualifies; such a draw
    can certify only near the 4096 cap and would dominate a run's time and
    memory, so a draw whose certified truncation exceeds N_MAX is redrawn.
    """

    CYCLIC_RANKS = 16
    LEVELS = 3
    MAX_ATOMS = 5
    GRID_COPIES = 4
    N_MAX = 1024
    # results are arrays, not files: keep two rounds, enough to check each
    # input and one repeat of it
    keep_rounds = 2

    def __init__(self, hs, seed: int, workdir: Path):
        self.hs = hs
        rng = np.random.default_rng(seed)
        self.data, self.refused = [], []
        for i in range(2 * self.CYCLIC_RANKS * self.GRID_COPIES):
            j = i // 2
            if i % 2 == 0:
                draw = lambda: hs.random_data.random_cyclic_data(  # noqa: E731
                    rng, 1 + j % self.CYCLIC_RANKS, max_contraction=0.97)
            else:
                draw = lambda: hs.random_data.random_multiplicity_data(  # noqa: E731
                    rng, 1 + j % self.LEVELS, max_atoms=self.MAX_ATOMS, max_contraction=0.97)
            self.data.append(_draw_certified(hs, draw, self.N_MAX, self.refused))
        self.round_size = len(self.data)

    def key(self, i: int) -> int:
        return i % len(self.data)

    def warmup(self, tag: str):
        return self.key(0), *self.run(0, tag)

    def run(self, i: int, tag: str):
        hs = self.hs
        d = self.data[self.key(i)]
        h = hs.hankel_core.hankel_from_data(d)
        bundle = hs.operator_assembly.assemble(d)
        report = hs.stability.stability_report(bundle)
        clark = None
        if d.mode == "multiplicity":
            thetas = hs.clark.gp_convert_to_inner(d.rho, d.rho1)
            clark = (thetas, hs.clark.gp_convert_to_measures(*thetas))
        # the N x N entries are left behind: holding them would inflate peak RSS
        return True, (self.key(i), h.gamma, h.N, bundle.sigma_star, report, clark)

    def check(self, first):
        k, gamma, N, sigma_star, report, clark = first
        d = self.data[k]
        checks.check_hankel(gamma, N, expected_from(d))
        checks.check_contraction(sigma_star, report.spectral_radius_sigma, report.cnu_passed)
        if clark is None:
            return
        (thetas, theta1s), (rho, rho1) = clark
        for what, ins, ths, outs in (("rho", d.rho, thetas, rho), ("rho1", d.rho1, theta1s, rho1)):
            for j, (m_in, th, m_out) in enumerate(zip(ins, ths, outs)):
                if m_in is None:
                    checks.fail_if(th is not None or m_out is not None, f"{what}[{j}] should be absent")
                    continue
                checks.check_clark_level((m_in.points, m_in.weights), th.zeros, th.constant,
                                         (m_out.points, m_out.weights), f"clark {what}[{j}]")

    def digest(self, result) -> bytes:
        _, gamma, _, _, report, clark = result
        parts = [gamma.tobytes(), report.decay_profile.tobytes(),
                 repr((report.spectral_radius_sigma, report.intertwine_residual)).encode()]
        if clark is not None:
            (thetas, theta1s), (rho, rho1) = clark
            parts += [t.zeros.tobytes() + repr(t.constant).encode()
                      for t in thetas + theta1s if t is not None]
            parts += [m.points.tobytes() + m.weights.tobytes() for m in rho + rho1 if m is not None]
        return b"".join(parts)


WORKLOADS = {
    "roundtrip_batch": RoundtripBatch,
    "large_truncation": LargeTruncation,
    "inverse_stability": InverseStability,
}


def machine_facts(hs) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "hankel_spectra": hs.__version__,
    }


def check_outputs(w, results) -> str | None:
    """Full checks on the first output of each input, byte identity of every
    repeat against it.  ``results`` holds (input key, ok, result) triples.
    Returns the first failure, or None."""
    first = {}
    try:
        for key, ok, result in results:
            if not ok:
                continue
            if key not in first:
                w.check(result)
                first[key] = w.digest(result)
            elif w.digest(result) != first[key]:
                raise checks.CheckFailed(f"input {key}: outputs differ from an earlier op on it")
    except checks.CheckFailed as exc:
        return str(exc)
    return None


def _timed(w, i: int, tag: str):
    """Run op i; an op that raises counts as failed.  Returns (ok, result, seconds)."""
    t = time.perf_counter()
    try:
        ok, result = w.run(i, tag)
    except Exception:
        traceback.print_exc()
        ok, result = False, None
    return ok, result, time.perf_counter() - t


def run_op(w, i: int, tracer: Tracer | None):
    """One timed op; in a traced run the same op first runs untraced.
    Returns (ok, result, seconds, tracing overhead seconds or None)."""
    if tracer is None:
        return (*_timed(w, i, str(i)), None)
    untraced = _timed(w, i, f"{i}u")[2]
    tracer.install()
    try:
        ok, result, elapsed = _timed(w, i, str(i))
    finally:
        tracer.uninstall()
    return ok, result, elapsed, elapsed - untraced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="wall clock when the launcher started this process")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    hs = import_program()
    args.workdir.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[args.workload](hs, args.seed, args.workdir)
    warm = w.warmup("warmup")
    setup_s = time.time() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer(hs) if args.trace else None
    results = [warm]
    times, overhead = [], []
    failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        for _ in range(w.round_size):
            ok, result, elapsed, extra = run_op(w, i, tracer)
            times.append(elapsed)
            overhead.append(extra)
            failed += not ok
            if w.keep_rounds is None or i < w.keep_rounds * w.round_size:
                results.append((w.key(i), ok, result))
            i += 1
        if time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # the warm-up op once more: its outputs must be byte-identical
    results.append(w.warmup("again"))
    problem = check_outputs(w, results)
    out = {
        "correct": problem is None,
        "attempted": len(times),
        "failed": failed,
        "problem": problem,
        "refused_draws": list(w.refused),
        "machine": machine_facts(hs),
    }
    if tracer is None:
        out["metrics"] = {
            "setup_s": setup_s,
            "ops_per_s": len(times) / wall,
            "op_s_p50": statistics.median(times),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        metrics = tracer.layer_metrics()
        trial_s = tracer.total_seconds("roundtrip.run_roundtrip_trial")
        jobs_s = sum(times) if isinstance(w, RoundtripBatch) else 0.0
        metrics["cli.roundtrip.concurrency"] = (trial_s / jobs_s if jobs_s else 0.0, "ratio")
        metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
        metrics["trace.op_s_total"] = (sum(times), "s")
        out["metrics"] = metrics
        spans = ROOT / ".perfbench" / "results" / f"spans-{args.workload}-seed{args.seed}-{int(time.time())}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.write_text(json.dumps({"fields": ["layer", "seconds", "child_seconds"],
                                     "spans": tracer.spans}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
