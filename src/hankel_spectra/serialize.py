"""JSON document schemas and their parsers.

Complex numbers are always two-element [re, im] arrays; angles are never
used.  Emission is canonical (sorted keys, two-space indent) so identical
inputs produce byte-identical documents, and ``parse(emit(x))`` is the
identity on every emitted document.
"""

from __future__ import annotations

import json

import numpy as np

from .clark import BlaschkeProduct
from .errors import SchemaError
from .hankel_core import ForwardData, HankelMatrix
from .operator_assembly import BlockLayout, OperatorBundle, assemble_from_operators
from .spectral_data import AtomicMeasure, CompactSpectralData, IntertwinedSpectrum, validate_intertwining
from .stability import StabilityReport


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _parse_c(v, what: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(
            isinstance(x, (int, float)) for x in v):
        return complex(v[0], v[1])
    raise SchemaError(f"{what}: expected a real or an [re, im] pair, got {v!r}")


def _cvec(values) -> list:
    return [_c(z) for z in np.asarray(values, dtype=complex)]


def _parse_cvec(values, what: str) -> np.ndarray:
    if not isinstance(values, list):
        raise SchemaError(f"{what}: expected a list")
    return np.asarray([_parse_c(v, what) for v in values], dtype=complex)


def _cmat(M) -> list:
    M = np.asarray(M, dtype=complex)
    return [[_c(z) for z in row] for row in M]


def _parse_cmat(rows, what: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise SchemaError(f"{what}: expected a nonempty list of rows")
    return np.asarray([[_parse_c(v, what) for v in row] for row in rows], dtype=complex)


def _fvec(values) -> list:
    return [float(v) for v in np.asarray(values, dtype=float)]


def _require(doc: dict, key: str, schema: str):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{schema}: missing field {key!r}")
    return doc[key]


def _check_schema(doc: dict, name: str):
    tag = doc.get("schema") if isinstance(doc, dict) else None
    if tag is not None and tag != name:
        raise SchemaError(f"expected schema {name!r}, document says {tag!r}")


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level JSON value must be an object")
    return doc


# spectrum.v1

def emit_spectrum(s: IntertwinedSpectrum) -> dict:
    return {"schema": "spectrum.v1", "lambda": _fvec(s.lam), "mu": _fvec(s.mu)}


def parse_spectrum(doc: dict) -> IntertwinedSpectrum:
    _check_schema(doc, "spectrum.v1")
    return validate_intertwining(_require(doc, "lambda", "spectrum.v1"),
                                 _require(doc, "mu", "spectrum.v1"))


# measure.v1

def emit_measure(m: AtomicMeasure) -> dict:
    atoms = []
    for point, weight in m.atoms:
        encoded = point.real if (not m.circle and point.imag == 0.0) else _c(point)
        atoms.append({"point": encoded, "weight": float(weight)})
    flags = [f for f, on in (("circle", m.circle), ("probability", m.probability)) if on]
    return {"schema": "measure.v1", "atoms": atoms, "flags": flags}


def parse_measure(doc: dict) -> AtomicMeasure:
    _check_schema(doc, "measure.v1")
    atoms = _require(doc, "atoms", "measure.v1")
    if not isinstance(atoms, list) or not atoms:
        raise SchemaError("measure.v1: atoms must be a nonempty list")
    points = [_parse_c(_require(a, "point", "measure.v1"), "measure.v1 point") for a in atoms]
    weights = [_require(a, "weight", "measure.v1") for a in atoms]
    flags = doc.get("flags", [])
    return AtomicMeasure(points=points, weights=weights,
                         circle="circle" in flags, probability="probability" in flags)


# spectral_data.v1

def emit_spectral_data(d: CompactSpectralData) -> dict:
    doc = {"schema": "spectral_data.v1", "mode": d.mode,
           "spectrum": emit_spectrum(d.spectrum)}
    if d.mode == "cyclic":
        doc["xi"] = _cvec(d.xi)
        doc["eta"] = _cvec(d.eta)
    else:
        doc["rho"] = [emit_measure(m) for m in d.rho]
        doc["rho1"] = [None if m is None else emit_measure(m) for m in d.rho1]
    return doc


def parse_spectral_data(doc: dict) -> CompactSpectralData:
    _check_schema(doc, "spectral_data.v1")
    spectrum = parse_spectrum(_require(doc, "spectrum", "spectral_data.v1"))
    mode = _require(doc, "mode", "spectral_data.v1")
    if mode == "cyclic":
        xi = _parse_cvec(_require(doc, "xi", "spectral_data.v1"), "xi")
        eta = _parse_cvec(_require(doc, "eta", "spectral_data.v1"), "eta")
        return CompactSpectralData.cyclic(spectrum, xi, eta)
    if mode == "multiplicity":
        rho = [parse_measure(m) for m in _require(doc, "rho", "spectral_data.v1")]
        rho1 = [None if m is None else parse_measure(m)
                for m in _require(doc, "rho1", "spectral_data.v1")]
        return CompactSpectralData.multiplicity(spectrum, rho, rho1)
    raise SchemaError(f"spectral_data.v1: unknown mode {mode!r}")


# hankel.v1

def emit_hankel(h: HankelMatrix) -> dict:
    return {"schema": "hankel.v1", "gamma": _cvec(h.gamma), "N": int(h.N)}


def parse_hankel(doc: dict) -> HankelMatrix:
    _check_schema(doc, "hankel.v1")
    gamma = _parse_cvec(_require(doc, "gamma", "hankel.v1"), "gamma")
    n = _require(doc, "N", "hankel.v1")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SchemaError("hankel.v1: N must be a positive integer")
    if len(gamma) != 2 * n - 1:
        raise SchemaError(f"hankel.v1: N = {n} needs 2N - 1 = {2 * n - 1} gamma values, "
                          f"got {len(gamma)}")
    return HankelMatrix.from_gamma(gamma, n)


# roundtrip_job.v1

_JOB_COUNTS = {"trials": 10, "n_max": 8, "levels_max": 3, "max_atoms": 3}


def parse_roundtrip_job(doc: dict, default_mode: str) -> dict:
    """The fields of a roundtrip_job.v1 document, checked, with their defaults
    filled in; a job that names no mode takes ``default_mode``."""
    _check_schema(doc, "roundtrip_job.v1")
    job = {}
    for key, default in _JOB_COUNTS.items():
        value = doc.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise SchemaError(f"roundtrip_job.v1: {key} must be a positive integer, got {value!r}")
        job[key] = value
    job["mode"] = doc.get("mode", default_mode)
    if job["mode"] not in ("cyclic", "multiplicity"):
        raise SchemaError(f"roundtrip_job.v1: mode must be 'cyclic' or 'multiplicity', "
                          f"got {job['mode']!r}")
    guard = doc.get("max_contraction", 0.97)
    if isinstance(guard, bool) or not isinstance(guard, (int, float)) or not 0 < guard <= 1:
        raise SchemaError(f"roundtrip_job.v1: max_contraction must lie in (0, 1], got {guard!r}")
    job["max_contraction"] = guard
    return job


# bundle.v1 (debugging / golden tests; not a stable API)

def emit_layout(layout: BlockLayout) -> dict:
    return {
        "lam": _fvec(layout.lam), "mu": _fvec(layout.mu),
        "lam_blocks": [list(b) for b in layout.lam_blocks],
        "mu_blocks": [list(b) for b in layout.mu_blocks],
    }


def parse_layout(doc: dict) -> BlockLayout:
    return BlockLayout(
        lam=tuple(_require(doc, "lam", "bundle.v1 layout")),
        mu=tuple(_require(doc, "mu", "bundle.v1 layout")),
        lam_blocks=tuple(tuple(b) for b in _require(doc, "lam_blocks", "bundle.v1 layout")),
        mu_blocks=tuple(tuple(b) for b in _require(doc, "mu_blocks", "bundle.v1 layout")),
    )


def emit_bundle(b: OperatorBundle) -> dict:
    return {
        "schema": "bundle.v1",
        "dim": b.dim,
        "R": _cmat(b.R), "R1": _cmat(b.R1),
        "p": _cvec(b.p), "q": _cvec(b.q), "qhat": _cvec(b.qhat),
        "phi": _cmat(b.phi), "phi1": _cmat(b.phi1),
        "Jp": _cmat(b.Jp),
        "sigma_star": _cmat(b.sigma_star), "sigma_hat_star": _cmat(b.sigma_hat_star),
        "A": _cmat(b.A),
        "layout": emit_layout(b.layout),
    }


def parse_bundle(doc: dict) -> OperatorBundle:
    _check_schema(doc, "bundle.v1")
    layout = parse_layout(_require(doc, "layout", "bundle.v1"))
    return assemble_from_operators(
        R=_parse_cmat(_require(doc, "R", "bundle.v1"), "R"),
        R1=_parse_cmat(_require(doc, "R1", "bundle.v1"), "R1"),
        p=_parse_cvec(_require(doc, "p", "bundle.v1"), "p"),
        phi=_parse_cmat(_require(doc, "phi", "bundle.v1"), "phi"),
        phi1=_parse_cmat(_require(doc, "phi1", "bundle.v1"), "phi1"),
        C=_parse_cmat(_require(doc, "Jp", "bundle.v1"), "Jp"),
        layout=layout,
    )


# stability.v1

def emit_stability(r: StabilityReport) -> dict:
    return {
        "schema": "stability.v1",
        "spectral_radius_sigma": float(r.spectral_radius_sigma),
        "decay_profile": _fvec(r.decay_profile),
        "intertwine_residual": float(r.intertwine_residual),
        "norm_A": float(r.norm_A),
        "cnu_flags": [
            {"kind": lv.kind, "index": lv.index, "space_dim": lv.space_dim,
             "krylov_rank": lv.krylov_rank, "passed": lv.passed}
            for lv in r.cnu_flags
        ],
    }


# blaschke.v1 and level lists

def emit_blaschke(theta: BlaschkeProduct) -> dict:
    return {"schema": "blaschke.v1", "zeros": _cvec(theta.zeros),
            "constant": _c(theta.constant)}


def parse_blaschke(doc: dict) -> BlaschkeProduct:
    _check_schema(doc, "blaschke.v1")
    return BlaschkeProduct(
        zeros=_parse_cvec(_require(doc, "zeros", "blaschke.v1"), "zeros"),
        constant=_parse_c(_require(doc, "constant", "blaschke.v1"), "constant"))


def emit_clark_levels(thetas, theta1s) -> dict:
    return {"schema": "clark_levels.v1",
            "thetas": [emit_blaschke(t) for t in thetas],
            "theta1s": [None if t is None else emit_blaschke(t) for t in theta1s]}


def parse_clark_levels(doc: dict):
    _check_schema(doc, "clark_levels.v1")
    thetas = [parse_blaschke(t) for t in _require(doc, "thetas", "clark_levels.v1")]
    theta1s = [None if t is None else parse_blaschke(t)
               for t in _require(doc, "theta1s", "clark_levels.v1")]
    return thetas, theta1s


def emit_measure_levels(rho, rho1) -> dict:
    return {"schema": "measure_levels.v1",
            "rho": [emit_measure(m) for m in rho],
            "rho1": [None if m is None else emit_measure(m) for m in rho1]}


def parse_measure_levels(doc: dict):
    _check_schema(doc, "measure_levels.v1")
    rho = [parse_measure(m) for m in _require(doc, "rho", "measure_levels.v1")]
    rho1 = [None if m is None else parse_measure(m)
            for m in _require(doc, "rho1", "measure_levels.v1")]
    return rho, rho1


# forward_data.v1

def _emit_level_phase(value) -> dict:
    if isinstance(value, AtomicMeasure):
        return {"type": "measure", "value": emit_measure(value)}
    return {"type": "phase", "value": _c(value)}


def emit_forward_data(fd: ForwardData) -> dict:
    return {
        "schema": "forward_data.v1",
        "mode": fd.mode,
        "lambda": _fvec(fd.lam),
        "mu": _fvec(fd.mu),
        "w": _fvec(fd.w),
        "w1": _fvec(fd.w1),
        "xi": [_emit_level_phase(v) for v in fd.xi],
        "eta": [None if v is None else _emit_level_phase(v) for v in fd.eta],
        "residuals": {k: float(v) for k, v in sorted(fd.residuals.items())},
    }


# dense binary layout: magic, <u4 dims, row-major little-endian float64
# (re, im) pairs

_BINARY_MAGIC = b"HSPB1\x00"


def dense_binary_bytes(matrix) -> bytes:
    m = np.ascontiguousarray(np.asarray(matrix, dtype=complex))
    if m.ndim != 2:
        raise SchemaError("dense binary layout stores 2-d matrices")
    header = _BINARY_MAGIC + np.asarray(m.shape, dtype="<u4").tobytes()
    interleaved = np.empty(m.shape + (2,), dtype="<f8")
    interleaved[..., 0] = m.real
    interleaved[..., 1] = m.imag
    return header + interleaved.tobytes()


def parse_dense_binary(blob: bytes) -> np.ndarray:
    if blob[: len(_BINARY_MAGIC)] != _BINARY_MAGIC:
        raise SchemaError("bad magic in dense binary matrix")
    rows, cols = np.frombuffer(blob, dtype="<u4", count=2, offset=len(_BINARY_MAGIC))
    offset = len(_BINARY_MAGIC) + 8
    expected = int(rows) * int(cols) * 16
    if len(blob) - offset != expected:
        raise SchemaError("dense binary payload has the wrong length")
    flat = np.frombuffer(blob, dtype="<f8", offset=offset)
    pairs = flat.reshape(int(rows), int(cols), 2)
    return pairs[..., 0] + 1j * pairs[..., 1]


def singular_values_csv(svals) -> str:
    lines = ["index,singular_value"]
    lines += [f"{i},{float(s)!r}" for i, s in enumerate(np.asarray(svals, dtype=float))]
    return "\n".join(lines) + "\n"


def decay_profile_csv(profile) -> str:
    lines = ["k,norm"]
    lines += [f"{k},{float(v)!r}" for k, v in enumerate(np.asarray(profile, dtype=float))]
    return "\n".join(lines) + "\n"
