"""Batch front-end: synthesize / analyze / roundtrip / convert-clark / stability.

Exit codes: 0 success, 2 schema violation, 3 numerical failure (the error
class is named in a JSON object on stderr), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import serialize
from .clark import gp_convert_to_inner, gp_convert_to_measures
from .errors import HankelSpectraError, SchemaError
from .hankel_core import (
    CLUSTER_GAP,
    TAIL_TOL,
    forward_extract,
    hankel_from_bundle,
    truncation_singular_values,
)
from .operator_assembly import TRUNCATION_CAP, assemble
from .random_data import random_cyclic_data, random_multiplicity_data
from .roundtrip import run_roundtrip_trial
from .stability import stability_report
from .workers import map_trials


def _number(kind, value):
    """``kind(value)``, or None when ``value`` is no such number: options
    arrive as strings, and one that does not parse is a schema error that
    names its flag."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        return None


@dataclass
class JobConfig:
    command: str
    input: Path
    output: Path
    truncation: int | str = "auto"
    cluster_gap: float = CLUSTER_GAP
    cert_tail: float = TAIL_TOL
    seed: int = 0

    def __post_init__(self):
        for name, flag in (("cluster_gap", "--tol-gap"), ("cert_tail", "--tol-tail")):
            raw = getattr(self, name)
            value = _number(float, raw)
            # a range the value must lie in: NaN fails every comparison
            if value is None or not 0.0 < value < math.inf:
                raise SchemaError(f"{flag} must be finite and positive, "
                                  f"got {raw if value is None else value}")
            setattr(self, name, value)
        if self.truncation != "auto":
            N = _number(int, self.truncation)
            if N is None or not 1 <= N <= TRUNCATION_CAP:
                raise SchemaError(f"--truncation must be 'auto' or lie in 1..{TRUNCATION_CAP}, "
                                  f"got {self.truncation}")
            self.truncation = N
        seed = _number(int, self.seed)
        # np.random.SeedSequence takes non-negative integers only
        if seed is None or seed < 0:
            raise SchemaError(f"--seed must be a non-negative integer, got {self.seed}")
        self.seed = seed


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
    h = hankel_from_bundle(bundle, N=cfg.truncation, tail_tol=cfg.cert_tail)
    report = stability_report(bundle)
    out = cfg.output
    _write_doc(out / "hankel.json", serialize.emit_hankel(h))
    _write_doc(out / "bundle.json", serialize.emit_bundle(bundle))
    _write_doc(out / "stability.json", serialize.emit_stability(report))
    _write(out / "singular_values.csv",
           serialize.singular_values_csv(truncation_singular_values(bundle, h.N)))
    return 0


def _cmd_analyze(cfg: JobConfig) -> int:
    h = serialize.parse_hankel(_read_doc(cfg.input))
    fd = forward_extract(h, cluster_gap=cfg.cluster_gap)
    _write_doc(cfg.output, serialize.emit_forward_data(fd))
    return 0


def _trial_data(job: dict, seed_seq: np.random.SeedSequence):
    """One trial's spectral data, drawn for a job checked by
    ``serialize.parse_roundtrip_job``."""
    rng = np.random.default_rng(seed_seq)
    n = int(rng.integers(1, job["n_max"] + 1))
    if job["mode"] == "multiplicity":
        return random_multiplicity_data(rng, min(n, job["levels_max"]),
                                        max_atoms=job["max_atoms"],
                                        max_contraction=job["max_contraction"])
    return random_cyclic_data(rng, n, max_contraction=job["max_contraction"])


def _cmd_roundtrip(cfg: JobConfig) -> int:
    doc = _read_doc(cfg.input)
    trial = functools.partial(run_roundtrip_trial, truncation=cfg.truncation,
                              tail_tol=cfg.cert_tail, cluster_gap=cfg.cluster_gap)
    keys = ("lam", "mu", "weights", "phases")
    if doc.get("schema") == "roundtrip_job.v1":
        # checked before the first trial: a trial's refusal is reported, a bad job exits 2
        job = serialize.parse_roundtrip_job(doc)
        seeds = np.random.SeedSequence(cfg.seed).spawn(job["trials"])

        def run_trial(i):
            try:
                return trial(_trial_data(job, seeds[i]))
            except HankelSpectraError as exc:
                return dict.fromkeys(keys, float("inf")) | {"N": None, "error": exc}

        count = job["trials"]
    else:
        data = serialize.parse_spectral_data(doc)
        run_trial, count = (lambda i: trial(data)), 1
    results = [errs | {"trial": i} for i, errs in enumerate(map_trials(run_trial, count))]
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


# the job options each subcommand reads; a subcommand rejects the others.
# Values stay strings here: JobConfig parses and range-checks them, so a
# malformed value is refused as JSON like an out-of-range one
_OPTIONS = {
    "--truncation": dict(help="truncation size N, or 'auto' (the default) for certified decay"),
    "--seed": dict(help="seed of a roundtrip_job.v1 trial stream (default 0)"),
    "--tol-gap": dict(dest="cluster_gap",
                      help=f"relative singular-value cluster gap (default {CLUSTER_GAP:g})"),
    "--tol-tail": dict(dest="cert_tail",
                       help=f"certified truncation tail bound (default {TAIL_TOL:g})"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged,
    and an option left unset stays off each call's namespace."""
    parser = argparse.ArgumentParser(
        prog="hankel-spectra",
        description="Synthesize Hankel matrices from spectral data and back.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, dir_output, options in (
        ("synthesize", "spectral data -> hankel.v1 + bundle.v1 + stability.v1", True,
         ("--truncation", "--tol-tail")),
        ("analyze", "hankel.v1 -> recovered spectral data", False, ("--tol-gap",)),
        ("roundtrip", "data or trial job -> max-error report", False,
         ("--truncation", "--seed", "--tol-gap", "--tol-tail")),
        ("convert-clark", "blaschke levels <-> circle measure levels", False, ()),
        ("stability", "spectral data or bundle.v1 -> stability diagnostics", True, ()),
    ):
        # an option left unset stays off the namespace; JobConfig holds the defaults
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("--input", required=True, type=Path)
        p.add_argument("--output", required=True, type=Path,
                       help="output directory" if dir_output else "output file")
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    return parser


def main(argv=None) -> int:
    opts = vars(build_parser().parse_args(argv))
    try:
        cfg = JobConfig(**opts)
    except SchemaError as exc:
        _emit_error(exc)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
