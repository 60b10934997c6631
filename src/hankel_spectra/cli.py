"""Batch front-end: synthesize / analyze / roundtrip / convert-clark / stability.

Exit codes: 0 success, 2 schema violation, 3 numerical failure (the error
class is named in a JSON object on stderr), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import serialize
from .clark import gp_convert_to_inner, gp_convert_to_measures
from .errors import HankelSpectraError, SchemaError
from .hankel_core import forward_extract, hankel_from_bundle
from .operator_assembly import assemble
from .random_data import random_cyclic_data, random_multiplicity_data
from .roundtrip import run_roundtrip_trial
from .stability import stability_report

THREADS_ENV = "HANKEL_SPECTRA_THREADS"


@dataclass
class Tolerances:
    pole_tol: float = 1e-12
    cluster_gap: float = 1e-6
    cert_tail: float = 1e-12

    def __post_init__(self):
        if min(self.pole_tol, self.cluster_gap, self.cert_tail) <= 0:
            raise SchemaError("tolerances must be positive")


@dataclass
class JobConfig:
    command: str
    input: Path
    output: Path
    truncation: int | str = "auto"
    tolerances: Tolerances = field(default_factory=Tolerances)
    seed: int = 0
    mode: str = "cyclic"

    def __post_init__(self):
        if self.truncation != "auto":
            self.truncation = int(self.truncation)
            if self.truncation < 1:
                raise SchemaError("truncation must be >= 1 or 'auto'")


def _read_doc(path: Path) -> dict:
    return serialize.loads(path.read_text())


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_doc(path: Path, doc: dict):
    _write(path, serialize.dumps(doc))


def _cmd_synthesize(cfg: JobConfig) -> int:
    data = serialize.parse_spectral_data(_read_doc(cfg.input))
    bundle = assemble(data)
    h = hankel_from_bundle(bundle, N=cfg.truncation, tail_tol=cfg.tolerances.cert_tail)
    report = stability_report(bundle)
    out = cfg.output
    _write_doc(out / "hankel.json", serialize.emit_hankel(h))
    _write_doc(out / "bundle.json", serialize.emit_bundle(bundle))
    _write_doc(out / "stability.json", serialize.emit_stability(report))
    _write(out / "singular_values.csv", serialize.singular_values_csv(h.singular_values()))
    return 0


def _cmd_analyze(cfg: JobConfig) -> int:
    h = serialize.parse_hankel(_read_doc(cfg.input))
    fd = forward_extract(h, cluster_gap=cfg.tolerances.cluster_gap)
    _write_doc(cfg.output, serialize.emit_forward_data(fd))
    return 0


def _trial_data(job: dict, seed_seq: np.random.SeedSequence, default_mode: str):
    rng = np.random.default_rng(seed_seq)
    mode = job.get("mode", default_mode)
    n = int(rng.integers(1, job.get("n_max", 8) + 1))
    guard = job.get("max_contraction", 0.97)
    if mode == "multiplicity":
        return random_multiplicity_data(rng, min(n, job.get("levels_max", 3)),
                                        max_atoms=job.get("max_atoms", 3),
                                        max_contraction=guard)
    return random_cyclic_data(rng, n, max_contraction=guard)


def _cmd_roundtrip(cfg: JobConfig) -> int:
    doc = _read_doc(cfg.input)
    tols = cfg.tolerances
    keys = ("lam", "mu", "weights", "phases")
    if doc.get("schema") == "roundtrip_job.v1":
        trials = int(doc.get("trials", 10))
        seeds = np.random.SeedSequence(cfg.seed).spawn(trials)
        workers = int(os.environ.get(THREADS_ENV, "0")) or min(trials, os.cpu_count() or 1)

        def one(i: int) -> dict:
            try:
                data = _trial_data(doc, seeds[i], cfg.mode)
                errs = run_roundtrip_trial(data, truncation=cfg.truncation,
                                           tail_tol=tols.cert_tail,
                                           cluster_gap=tols.cluster_gap)
            except HankelSpectraError as exc:
                errs = dict.fromkeys(keys, float("inf")) | {"N": None, "error": exc}
            errs["trial"] = i
            return errs

        with ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
            results = list(pool.map(one, range(trials)))
    else:
        data = serialize.parse_spectral_data(doc)
        errs = run_roundtrip_trial(data, truncation=cfg.truncation,
                                   tail_tol=tols.cert_tail,
                                   cluster_gap=tols.cluster_gap)
        errs["trial"] = 0
        results = [errs]
    summary = {k: max(r[k] for r in results) for k in keys}
    report = {
        "schema": "roundtrip_report.v1",
        "trials": [{k: (r[k] if np.isfinite(r[k]) else "inf") for k in keys}
                   | {"N": r["N"], "trial": r["trial"]}
                   | ({"error": r["error"].code} if "error" in r else {}) for r in results],
        "max_errors": {k: (v if np.isfinite(v) else "inf") for k, v in summary.items()},
    }
    _write_doc(cfg.output, report)
    failed = [r for r in results if "error" in r]
    if failed:
        # the report keeps every trial; the job still fails, naming the first
        _emit_error(failed[0]["error"], trial=failed[0]["trial"])
        return 3
    return 0


def _cmd_convert_clark(cfg: JobConfig) -> int:
    doc = _read_doc(cfg.input)
    tag = doc.get("schema")
    if tag == "clark_levels.v1":
        thetas, theta1s = serialize.parse_clark_levels(doc)
        rho, rho1 = gp_convert_to_measures(thetas, theta1s)
        _write_doc(cfg.output, serialize.emit_measure_levels(rho, rho1))
        return 0
    if tag == "measure_levels.v1":
        rho, rho1 = serialize.parse_measure_levels(doc)
        thetas, theta1s = gp_convert_to_inner(rho, rho1)
        _write_doc(cfg.output, serialize.emit_clark_levels(thetas, theta1s))
        return 0
    raise SchemaError(f"convert-clark expects clark_levels.v1 or measure_levels.v1, got {tag!r}")


def _cmd_stability(cfg: JobConfig) -> int:
    doc = _read_doc(cfg.input)
    if doc.get("schema") == "bundle.v1":
        bundle = serialize.parse_bundle(doc)
    else:
        bundle = assemble(serialize.parse_spectral_data(doc))
    report = stability_report(bundle)
    out = cfg.output
    _write_doc(out / "stability.json", serialize.emit_stability(report))
    _write(out / "decay_profile.csv", serialize.decay_profile_csv(report.decay_profile))
    return 0


_COMMANDS = {
    "synthesize": _cmd_synthesize,
    "analyze": _cmd_analyze,
    "roundtrip": _cmd_roundtrip,
    "convert-clark": _cmd_convert_clark,
    "stability": _cmd_stability,
}


def run(cfg: JobConfig) -> int:
    """Execute a job; numerical and schema failures are reported as structured
    JSON on stderr with the documented exit codes."""
    try:
        return _COMMANDS[cfg.command](cfg)
    except SchemaError as exc:
        _emit_error(exc)
        return 2
    except HankelSpectraError as exc:
        _emit_error(exc)
        return 3
    except OSError as exc:
        print(json.dumps({"error": "IO", "message": str(exc)}), file=sys.stderr)
        return 4


def _emit_error(exc: HankelSpectraError, **context):
    doc = {"error": exc.code, "message": str(exc)} | context
    index = getattr(exc, "index", None)
    if index is not None:
        doc["index"] = index
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hankel-spectra",
        description="Synthesize Hankel matrices from spectral data and back.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, dir_output in (
        ("synthesize", "spectral data -> hankel.v1 + bundle.v1 + stability.v1", True),
        ("analyze", "hankel.v1 -> recovered spectral data", False),
        ("roundtrip", "data or trial job -> max-error report", False),
        ("convert-clark", "blaschke levels <-> circle measure levels", False),
        ("stability", "spectral data or bundle.v1 -> stability diagnostics", True),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True, type=Path)
        p.add_argument("--output", required=True, type=Path,
                       help="output directory" if dir_output else "output file")
        p.add_argument("--truncation", default="auto",
                       help="truncation size N, or 'auto' for certified decay")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol-pole", type=float, default=1e-12)
        p.add_argument("--tol-gap", type=float, default=1e-6)
        p.add_argument("--tol-tail", type=float, default=1e-12)
        p.add_argument("--mode", choices=("cyclic", "multiplicity"), default="cyclic")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = JobConfig(
            command=args.command,
            input=args.input,
            output=args.output,
            truncation=args.truncation,
            tolerances=Tolerances(pole_tol=args.tol_pole, cluster_gap=args.tol_gap,
                                  cert_tail=args.tol_tail),
            seed=args.seed,
            mode=args.mode,
        )
    except (SchemaError, ValueError) as exc:
        print(json.dumps({"error": "Schema", "message": str(exc)}), file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
