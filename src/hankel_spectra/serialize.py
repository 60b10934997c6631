"""JSON document schemas and their parsers.

Complex numbers are always two-element [re, im] arrays; angles are never
used.  Emission is canonical: :func:`dumps` writes the bytes of
``json.dumps(doc, indent=2, sort_keys=True) + "\n"``, so identical inputs
produce byte-identical documents, and ``parse(emit(x))`` is the identity on
every emitted document.  Every parser reads numbers by one rule: a finite
JSON int or float, never a bool or a string.
"""

from __future__ import annotations

import functools
import json
import math
import re
from itertools import chain

import numpy as np

from .clark import BlaschkeProduct
from .errors import SchemaError
from .hankel_core import ForwardData, HankelMatrix
from .operator_assembly import BlockLayout, OperatorBundle, assemble_from_operators
from .spectral_data import (
    AtomicMeasure,
    CompactSpectralData,
    IntertwinedSpectrum,
    phase_mode,
    validate_intertwining,
)
from .stability import StabilityReport


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _clist(values) -> list:
    """A complex array of any shape as nested lists ending in [re, im] pairs."""
    a = np.ascontiguousarray(values, dtype=complex)
    return a.view(float).reshape(a.shape + (2,)).tolist()


def _fvec(values) -> list:
    return np.asarray(values, dtype=float).tolist()


def _number(x) -> float | None:
    """``x`` as a float if it is a number (a finite int or float, not a
    bool), else None."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            value = float(x)
        except OverflowError:
            return None
        if math.isfinite(value):
            return value
    return None


def _parse_real(x, what: str) -> float:
    value = _number(x)
    if value is None:
        raise SchemaError(f"{what}: expected a finite number, got {x!r}")
    return value


def _parse_c(v, what: str) -> complex:
    re_im = v if isinstance(v, (list, tuple)) and len(v) == 2 else (v, 0)
    re_part, im_part = map(_number, re_im)
    if re_part is None or im_part is None:
        raise SchemaError(f"{what}: expected a finite real or an [re, im] pair of them, got {v!r}")
    return complex(re_part, im_part)


def _bulk_floats(values) -> np.ndarray | None:
    """``values`` as a float array when each is a finite JSON int or float,
    else None; the per-entry parse then accepts or names the offender."""
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        a = np.array(values, dtype=float)
    except OverflowError:
        return None
    return a if np.isfinite(a).all() else None


def _require_list(values, what: str):
    if not isinstance(values, list):
        raise SchemaError(f"{what}: expected a list")


def _parse_fvec(values, what: str) -> np.ndarray:
    _require_list(values, what)
    a = _bulk_floats(values)
    return a if a is not None else np.array([_parse_real(v, what) for v in values], dtype=float)


def _is_pairs(values) -> bool:
    """Whether ``values`` is a nonempty list of two-element lists."""
    return set(map(type, values)) == {list} and set(map(len, values)) == {2}


def _parse_cvec(values, what: str) -> np.ndarray:
    _require_list(values, what)
    pairs = _is_pairs(values)
    a = _bulk_floats(list(chain.from_iterable(values)) if pairs else values)
    if a is not None:
        return a.view(complex) if pairs else a.astype(complex)
    return np.array([_parse_c(v, what) for v in values], dtype=complex)


def _parse_cmat(rows, what: str) -> np.ndarray:
    if (not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows)
            or len(set(map(len, rows))) != 1):
        raise SchemaError(f"{what}: expected a nonempty list of rows of equal length")
    return _parse_cvec(list(chain.from_iterable(rows)), what).reshape(len(rows), -1)


def _require(doc: dict, key: str, schema: str):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{schema}: missing field {key!r}")
    return doc[key]


def _check_schema(doc: dict, name: str):
    tag = doc.get("schema") if isinstance(doc, dict) else None
    if tag is not None and tag != name:
        raise SchemaError(f"expected schema {name!r}, document says {tag!r}")


# Canonical encoder.  A flat list of floats, and a list of [re, im] float
# pairs, are written in bulk: float.__repr__ over a map, then one join with
# the indentation in the separators.  Anything else takes the general path,
# which follows json's indent encoder item by item.

_INDENT = "  "
_ESCAPE = re.compile(r'[^ -~]|[\\"]')
_ESCAPES = {chr(i): f"\\u{i:04x}" for i in range(0x20)} | {
    "\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape(match) -> str:
    c = match.group()
    if c in _ESCAPES:
        return _ESCAPES[c]
    n = ord(c)
    if n < 0x10000:
        return f"\\u{n:04x}"
    n -= 0x10000
    return f"\\u{0xD800 | (n >> 10):04x}\\u{0xDC00 | (n & 0x3FF):04x}"


@functools.lru_cache(maxsize=1024)
def _str(s: str) -> str:
    return '"' + _ESCAPE.sub(_escape, s) + '"'


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(x: float) -> str:
    text = float.__repr__(x)
    return _NONFINITE.get(text, text)


# json text of a scalar by its exact type; subclasses of str, int and float
# take the isinstance chain in _encode, as json checks them
_SCALARS = {float: _float, str: _str, int: int.__repr__, bool: {True: "true", False: "false"}.get,
            type(None): lambda _: "null"}


def _floats(values, sep: str) -> str | None:
    """The finite floats ``values`` joined by ``sep``, or None for any other list."""
    try:
        text = sep.join(map(float.__repr__, values))
    except TypeError:
        return None
    return None if "n" in text else text  # 'nan' and 'inf' need json's spelling


def _pairs(values, inner: str) -> str | None:
    """The items of a list of [re, im] float pairs, or None for any other list."""
    if not _is_pairs(values):
        return None
    inner2 = inner + _INDENT
    reprs = iter(map(float.__repr__, chain.from_iterable(values)))
    try:
        text = (inner + "]," + inner + "[" + inner2).join(map(("," + inner2).join, zip(reprs, reprs)))
    except TypeError:
        return None
    return None if "n" in text else "[" + inner2 + text + inner + "]"


def _encode(o, nl: str) -> str:
    """``o`` as json writes it at the line indentation ``nl`` (a newline and
    the indent of the line ``o`` opens on)."""
    scalar = _SCALARS.get(type(o))
    if scalar is not None:
        return scalar(o)
    inner = nl + _INDENT
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        sep = "," + inner
        text = _floats(o, sep) or _pairs(o, inner) or sep.join([_encode(v, inner) for v in o])
        return "[" + inner + text + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [_key(k) + ": " + _encode(v, inner) for k, v in sorted(o.items())]) + nl + "}"
    for kind in (str, int, float):
        if isinstance(o, kind):
            return _SCALARS[kind](o)
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def _key(k) -> str:
    if isinstance(k, str):
        return _str(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + _encode(k, "") + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def dumps(doc: dict) -> str:
    return _encode(doc, "\n") + "\n"


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
    return validate_intertwining(
        _parse_fvec(_require(doc, "lambda", "spectrum.v1"), "spectrum.v1 lambda"),
        _parse_fvec(_require(doc, "mu", "spectrum.v1"), "spectrum.v1 mu"))


# measure.v1

_MEASURE_FLAGS = ("circle", "probability")

def emit_measure(m: AtomicMeasure) -> dict:
    atoms = []
    for point, weight in m.atoms:
        encoded = point.real if (not m.circle and point.imag == 0.0) else _c(point)
        atoms.append({"point": encoded, "weight": float(weight)})
    flags = [f for f, on in zip(_MEASURE_FLAGS, (m.circle, m.probability)) if on]
    return {"schema": "measure.v1", "atoms": atoms, "flags": flags}


def parse_measure(doc: dict) -> AtomicMeasure:
    _check_schema(doc, "measure.v1")
    atoms = _require(doc, "atoms", "measure.v1")
    if not isinstance(atoms, list) or not atoms:
        raise SchemaError("measure.v1: atoms must be a nonempty list")
    points = [_parse_c(_require(a, "point", "measure.v1"), "measure.v1 point") for a in atoms]
    weights = [_parse_real(_require(a, "weight", "measure.v1"), "measure.v1 weight")
               for a in atoms]
    flags = doc.get("flags", [])
    if not isinstance(flags, list) or any(f not in _MEASURE_FLAGS for f in flags):
        raise SchemaError(f"measure.v1: flags must be a list of names from {_MEASURE_FLAGS}, "
                          f"got {flags!r}")
    return AtomicMeasure(points=points, weights=weights,
                         circle="circle" in flags, probability="probability" in flags)


# spectral_data.v1

def emit_spectral_data(d: CompactSpectralData) -> dict:
    mode = d.mode
    doc = {"schema": "spectral_data.v1", "mode": mode, "spectrum": emit_spectrum(d.spectrum)}
    if mode == "cyclic":
        doc["xi"] = _clist(d.xi)
        doc["eta"] = _clist(d.eta)
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
        return CompactSpectralData(spectrum, rho, rho1)
    raise SchemaError(f"spectral_data.v1: unknown mode {mode!r}")


# hankel.v1

def emit_hankel(h: HankelMatrix) -> dict:
    return {"schema": "hankel.v1", "gamma": _clist(h.gamma), "N": int(h.N)}


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


def parse_roundtrip_job(doc: dict) -> dict:
    """The fields of a roundtrip_job.v1 document, checked, with their defaults
    filled in; a job that names no mode runs cyclic trials."""
    _check_schema(doc, "roundtrip_job.v1")
    job = {}
    for key, default in _JOB_COUNTS.items():
        value = doc.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise SchemaError(f"roundtrip_job.v1: {key} must be a positive integer, got {value!r}")
        job[key] = value
    job["mode"] = doc.get("mode", "cyclic")
    if job["mode"] not in ("cyclic", "multiplicity"):
        raise SchemaError(f"roundtrip_job.v1: mode must be 'cyclic' or 'multiplicity', "
                          f"got {job['mode']!r}")
    raw = doc.get("max_contraction", 0.97)
    guard = _number(raw)
    if guard is None or not 0 < guard <= 1:
        raise SchemaError(f"roundtrip_job.v1: max_contraction must lie in (0, 1], got {raw!r}")
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
        lam=tuple(_parse_fvec(_require(doc, "lam", "bundle.v1 layout"), "layout lam").tolist()),
        mu=tuple(_parse_fvec(_require(doc, "mu", "bundle.v1 layout"), "layout mu").tolist()),
        lam_blocks=tuple(tuple(b) for b in _require(doc, "lam_blocks", "bundle.v1 layout")),
        mu_blocks=tuple(tuple(b) for b in _require(doc, "mu_blocks", "bundle.v1 layout")),
    )


def emit_bundle(b: OperatorBundle) -> dict:
    return {
        "schema": "bundle.v1",
        "dim": b.dim,
        "R": _clist(b.R), "R1": _clist(b.R1),
        "p": _clist(b.p), "q": _clist(b.q), "qhat": _clist(b.qhat),
        "phi": _clist(b.phi), "phi1": _clist(b.phi1),
        "Jp": _clist(b.Jp),
        "sigma_star": _clist(b.sigma_star), "sigma_hat_star": _clist(b.sigma_hat_star),
        "A": _clist(b.A),
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
    return {"schema": "blaschke.v1", "zeros": _clist(theta.zeros),
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

def _emit_level_phase(m: AtomicMeasure) -> dict:
    if phase_mode([m]) == "cyclic":
        return {"type": "phase", "value": _c(m.points[0])}
    return {"type": "measure", "value": emit_measure(m)}


def emit_forward_data(fd: ForwardData) -> dict:
    return {
        "schema": "forward_data.v1",
        "mode": phase_mode(fd.rho + fd.rho1),
        "lambda": _fvec(fd.lam),
        "mu": _fvec(fd.mu),
        "w": _fvec(fd.w),
        "w1": _fvec(fd.w1),
        "xi": [_emit_level_phase(m) for m in fd.rho],
        "eta": [None if m is None else _emit_level_phase(m) for m in fd.rho1],
        "residuals": {k: float(v) for k, v in sorted(fd.residuals.items())},
    }


def singular_values_csv(svals) -> str:
    lines = ["index,singular_value"]
    lines += [f"{i},{float(s)!r}" for i, s in enumerate(np.asarray(svals, dtype=float))]
    return "\n".join(lines) + "\n"


def decay_profile_csv(profile) -> str:
    lines = ["k,norm"]
    lines += [f"{k},{float(v)!r}" for k, v in enumerate(np.asarray(profile, dtype=float))]
    return "\n".join(lines) + "\n"
