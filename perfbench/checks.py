"""Output checks computed apart from the program.

Every check rebuilds what it needs from the documents or arrays the program
produced, using plain numpy on the benchmark side, and compares against the
spectral data the benchmark generated or against identities of the method:

* the singular values of the Hankel truncation Gamma = (gamma_{j+k}) and of
  Gamma S are the interlacing levels with their multiplicities,
* |Gamma|^2 - |Gamma S|^2 = u u* with u = Gamma* e_0,
* the u-mass of each level is the rank-one perturbation weight fixed by the
  levels alone,
* Clark measures of a finite Blaschke product theta with theta(0) = 0 sit at
  the solutions of theta = 1 on the circle with weight 1 / |theta'|.

A failed check raises :class:`CheckFailed`; nothing here imports the program.
The tolerances and where each comes from are listed in the README.
"""

from __future__ import annotations

import math

import numpy as np

# Singular values and interlacing levels, relative to lambda_1.
SV_RTOL = 1e-8
# ||Gamma*Gamma - (Gamma S)*(Gamma S) - u u*||_F relative to ||Gamma||_2^2.
RANK_ONE_RTOL = 1e-9
# Level weights, relative to the weight itself plus WEIGHT_FLOOR times the
# total u-mass (projections onto a level are accurate to roundoff of ||u||^2).
WEIGHT_RTOL = 1e-6
WEIGHT_FLOOR = 1e-9
# Phases, Clark atoms and atom weights (absolute; all are O(1) quantities).
PHASE_ATOL = 1e-7
# theta(zeta) = 1 and |zeta| = 1 at a Clark atom (absolute).
CLARK_ATOL = 1e-9
# Reported spectral radius of Sigma* against the benchmark's eigenvalues.
RADIUS_ATOL = 1e-10
# Sketch columns beyond the expected rank, and Gaussian probes of the
# rank-one identity.
SKETCH_EXTRA = 10
PROBES = 4


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's computation."""


def fail_if(condition: bool, message: str):
    if condition:
        raise CheckFailed(message)


class Expected:
    """The spectral data an output must reproduce, as plain arrays.

    ``xi``/``eta`` hold, per level, a (points, weights) pair of arrays; a
    cyclic phase is one atom of weight 1, and ``eta`` is None at a terminal
    mu = 0.  ``m[k]`` and ``m1[k]`` count the atoms (``m1[k]`` is 0 there).
    """

    def __init__(self, lam, mu, xi, eta):
        self.lam = np.asarray(lam, dtype=float)
        self.mu = np.asarray(mu, dtype=float)
        self.xi = [_atoms(a) for a in xi]
        self.eta = [None if a is None else _atoms(a) for a in eta]
        self.m = np.array([len(a[0]) for a in self.xi])
        self.m1 = np.array([0 if a is None else len(a[0]) for a in self.eta])

    @property
    def n(self) -> int:
        return len(self.lam)

    def gamma_levels(self) -> np.ndarray:
        """Nonzero singular values of Gamma, with multiplicity, descending."""
        vals = [np.repeat(self.lam, self.m), np.repeat(self.mu, np.maximum(self.m1 - 1, 0))]
        return np.sort(np.concatenate(vals))[::-1]

    def shifted_levels(self) -> np.ndarray:
        """Nonzero singular values of Gamma S, with multiplicity, descending."""
        vals = [np.repeat(self.mu, self.m1), np.repeat(self.lam, self.m - 1)]
        vals = np.concatenate(vals)
        return np.sort(vals[vals > 0])[::-1]

    def weights(self):
        """u-mass of each lambda level and of each mu level (rank-one weights).

        With A = diag(lambda^2) and A - u u* having eigenvalues mu^2 on the
        cyclic subspace, the residues of prod(z - mu^2)/prod(z - lambda^2)
        give w_k = prod_i(lambda_k^2 - mu_i^2) / prod_{j!=k}(lambda_k^2 - lambda_j^2)
        and symmetrically for the mu levels (terminal mu = 0 included: its
        weight is the kernel's u-mass).
        """
        lam2, mu2 = self.lam**2, self.mu**2
        w = np.array([np.prod(lam2[k] - mu2) / np.prod(np.delete(lam2[k] - lam2, k))
                      for k in range(self.n)])
        w1 = np.array([-np.prod(mu2[k] - lam2) / np.prod(np.delete(mu2[k] - mu2, k))
                       for k in range(self.n)])
        return w, w1


def _atoms(a):
    """Normalize a phase or a measure to (points, weights) arrays."""
    if isinstance(a, tuple) and len(a) == 2:
        return np.asarray(a[0], dtype=complex), np.asarray(a[1], dtype=float)
    return np.array([complex(a)]), np.array([1.0])


def _sorted_atoms(points, weights):
    order = np.argsort(np.mod(np.angle(points), 2.0 * np.pi))
    return points[order], weights[order]


def check_atoms(got, want, what: str):
    """Same atoms and weights after ordering by angle, to PHASE_ATOL."""
    gp, gw = _sorted_atoms(*_atoms(got))
    wp, ww = _sorted_atoms(*_atoms(want))
    fail_if(len(gp) != len(wp), f"{what}: {len(gp)} atoms, expected {len(wp)}")
    err = max(float(np.abs(gp - wp).max()), float(np.abs(gw - ww).max()))
    fail_if(not err <= PHASE_ATOL, f"{what}: atoms differ by {err:.3e} > {PHASE_ATOL:.0e}")


def hankel_matrix(gamma, N: int) -> np.ndarray:
    gamma = np.asarray(gamma, dtype=complex)
    fail_if(len(gamma) != 2 * N - 1, f"{len(gamma)} symbol entries for N = {N}, expected {2 * N - 1}")
    j = np.arange(N)
    return gamma[j[:, None] + j[None, :]]


def _check_levels(svals, levels, scale: float, what: str):
    r = len(levels)
    err = float(np.abs(svals[:r] - levels).max()) if r else 0.0
    fail_if(not err <= SV_RTOL * scale,
            f"{what}: leading singular values off the levels by {err:.3e} > {SV_RTOL:.0e} * lambda_1")
    fail_if(not svals[r] <= SV_RTOL * scale,
            f"{what}: singular value {r} = {svals[r]:.3e} should vanish (rank {r})")


def leading_singular(A: np.ndarray, k: int):
    """Leading k singular values and right singular vectors of a matrix of
    numerical rank below k.

    One Gaussian sketch A @ Omega spans the range of A up to the roundoff
    level of its entries; the SVD of Q* A then gives the leading singular
    triplets to that accuracy.  No power iteration: squaring would push the
    smallest levels (down to 1e-8 lambda_1 here) into the roundoff floor.
    """
    N = A.shape[1]
    k = min(k, N)
    rng = np.random.default_rng(0)
    omega = rng.standard_normal((N, k)) + 1j * rng.standard_normal((N, k))
    Q, _ = np.linalg.qr(A @ omega)
    _, svals, vh = np.linalg.svd(Q.conj().T @ A, full_matrices=False)
    return svals, vh


def _level_mass(svals, vh, u, value, scale):
    """||P u||^2 for the right singular space at ``value``."""
    sel = np.abs(svals - value) <= SV_RTOL * scale
    return float(np.linalg.norm(vh[sel] @ u) ** 2)


def check_weights(got, ref, what: str):
    total = float(np.sum(ref))
    err = float(np.max(np.abs(got - ref) / (ref + WEIGHT_FLOOR * total)))
    fail_if(not err <= WEIGHT_RTOL, f"{what}: off by {err:.3e} (relative)")


def check_hankel(gamma, N: int, exp: Expected) -> dict:
    """Check a truncation against its generating data; return the benchmark's
    own level weights and leading singular values for further comparisons."""
    G = hankel_matrix(gamma, N)
    GS = np.zeros_like(G)
    GS[:, :-1] = G[:, 1:]
    scale = float(exp.lam[0])
    levels, levels1 = exp.gamma_levels(), exp.shifted_levels()
    fail_if(N <= len(levels), f"N = {N} cannot hold {len(levels)} levels")
    sv, vh = leading_singular(G, len(levels) + SKETCH_EXTRA)
    sv1, vh1 = leading_singular(GS, len(levels1) + SKETCH_EXTRA)
    _check_levels(sv, levels, scale, "Gamma")
    _check_levels(sv1, levels1, scale, "Gamma S")

    # Frobenius norm of R = G*G - (GS)*(GS) - uu* from Gaussian probes:
    # E ||R x||^2 = ||R||_F^2.
    u = np.conj(G[0])
    x = np.random.default_rng(1).standard_normal((N, PROBES))
    rx = G.conj().T @ (G @ x) - GS.conj().T @ (GS @ x) - np.outer(u, u.conj() @ x)
    rel = float(np.linalg.norm(rx)) / np.sqrt(PROBES) / float(sv[0]) ** 2
    fail_if(not rel <= RANK_ONE_RTOL,
            f"|Gamma|^2 - |Gamma S|^2 - uu* residual {rel:.3e} > {RANK_ONE_RTOL:.0e} * ||Gamma||^2")

    w_ref, w1_ref = exp.weights()
    w = np.array([_level_mass(sv, vh, u, lam, scale) for lam in exp.lam])
    mass_pos = [_level_mass(sv1, vh1, u, mu, scale) for mu in exp.mu if mu > 0]
    w1 = np.array(mass_pos + [float(np.vdot(u, u).real) - sum(mass_pos)] * int(exp.mu[-1] == 0))
    check_weights(w, w_ref, "lambda weights")
    check_weights(w1, w1_ref, "mu weights")
    return {"w": w, "w1": w1, "svals": sv}


def check_singular_values_csv(text: str, N: int, svals: np.ndarray, scale: float):
    """The CSV lists N singular values in descending order, and its head is
    the leading singular values of Gamma."""
    lines = text.strip().split("\n")
    fail_if(lines[0] != "index,singular_value", "singular values CSV: bad header")
    rows = [line.split(",") for line in lines[1:]]
    fail_if([int(r[0]) for r in rows] != list(range(N)),
            f"singular values CSV: {len(rows)} rows, expected indices 0..{N - 1}")
    got = np.array([float(r[1]) for r in rows])
    fail_if(bool(np.any(np.diff(got) > 0)), "singular values CSV is not descending")
    err = float(np.abs(got[:len(svals)] - svals).max())
    fail_if(not err <= SV_RTOL * scale,
            f"singular values CSV differs from the SVD of Gamma by {err:.3e}")


def _phase_value(entry):
    """(points, weights) of one forward_data.v1 level entry."""
    if entry["type"] == "phase":
        return np.array([complex(*entry["value"])]), np.array([1.0])
    atoms = entry["value"]["atoms"]
    points = np.array([complex(*a["point"]) for a in atoms])
    return points, np.array([float(a["weight"]) for a in atoms])


def check_forward_data(doc: dict, exp: Expected, own: dict):
    """``analyze`` output: levels and phases as generated, weights as the
    benchmark's own projections of u."""
    fail_if(doc.get("schema") != "forward_data.v1", "analyze output is not forward_data.v1")
    scale = float(exp.lam[0])
    for key, want in (("lambda", exp.lam), ("mu", exp.mu)):
        got = np.asarray(doc[key], dtype=float)
        fail_if(got.shape != want.shape, f"{key}: {len(got)} levels, expected {len(want)}")
        err = float(np.abs(got - want).max())
        fail_if(not err <= SV_RTOL * scale, f"{key}: off by {err:.3e} > {SV_RTOL:.0e} * lambda_1")
    for key, want in (("w", own["w"]), ("w1", own["w1"])):
        got = np.asarray(doc[key], dtype=float)
        fail_if(got.shape != want.shape, f"{key}: {len(got)} weights, expected {len(want)}")
        check_weights(got, want, key)
    for k in range(exp.n):
        check_atoms(_phase_value(doc["xi"][k]), exp.xi[k], f"xi[{k}]")
        if exp.eta[k] is None:
            fail_if(doc["eta"][k] is not None, f"eta[{k}] should be null at mu = 0")
        else:
            fail_if(doc["eta"][k] is None, f"eta[{k}] is missing")
            check_atoms(_phase_value(doc["eta"][k]), exp.eta[k], f"eta[{k}]")


def check_contraction(sigma_star, reported_radius: float, cnu_passed: bool):
    """Sigma* is a strict contraction in the spectral sense, as reported."""
    radius = float(np.abs(np.linalg.eigvals(np.asarray(sigma_star))).max())
    fail_if(not radius < 1.0, f"spectral radius of Sigma* is {radius:.6f}, not < 1")
    fail_if(not abs(radius - reported_radius) <= RADIUS_ATOL,
            f"reported spectral radius {reported_radius!r} differs from {radius!r}")
    fail_if(not cnu_passed, "complete non-unitarity certificate failed")


def blaschke(zeros, constant, z):
    """theta(z) = c * prod (z - a) / (1 - conj(a) z) and its derivative."""
    zeros = np.asarray(zeros, dtype=complex)
    z = np.asarray(z, dtype=complex)
    factors = (z[:, None] - zeros) / (1.0 - np.conj(zeros) * z[:, None])
    theta = constant * np.prod(factors, axis=1)
    logder = np.sum((1.0 - np.abs(zeros) ** 2)
                    / ((z[:, None] - zeros) * (1.0 - np.conj(zeros) * z[:, None])), axis=1)
    return theta, theta * logder


def check_clark_level(measure_in, zeros, constant, measure_out, what: str):
    """One level of the Clark round trip measure -> theta -> measure.

    The output measure is the reflected Clark measure, so its conjugated atoms
    must solve theta = 1 on the circle with weight 1/|theta'|, and it must
    equal the input measure.
    """
    check_atoms(measure_out, measure_in, what)
    fail_if(not abs(abs(constant) - 1.0) <= CLARK_ATOL, f"{what}: |constant| = {abs(constant)!r}")
    fail_if(not float(np.abs(np.asarray(zeros)).min()) <= CLARK_ATOL,
            f"{what}: theta does not vanish at the origin")
    points, weights = _atoms(measure_out)
    zeta = np.conj(points)
    theta, dtheta = blaschke(zeros, constant, zeta)
    off = max(float(np.abs(np.abs(zeta) - 1.0).max()), float(np.abs(theta - 1.0).max()))
    fail_if(not off <= CLARK_ATOL, f"{what}: atoms miss |zeta| = 1, theta = 1 by {off:.3e}")
    err = float(np.abs(weights - 1.0 / np.abs(dtheta)).max())
    fail_if(not err <= PHASE_ATOL, f"{what}: weights differ from 1/|theta'| by {err:.3e}")


def check_roundtrip_report(doc: dict, trials: int):
    """A roundtrip_report.v1 with one entry per trial and small finite errors."""
    fail_if(doc.get("schema") != "roundtrip_report.v1", "report is not roundtrip_report.v1")
    entries = doc.get("trials", [])
    fail_if(sorted(e.get("trial") for e in entries) != list(range(trials)),
            f"report has {len(entries)} trial entries, expected {trials}")
    limits = {"lam": SV_RTOL, "mu": SV_RTOL, "weights": WEIGHT_RTOL, "phases": PHASE_ATOL}
    for key, limit in limits.items():
        values = [e[key] for e in entries] + [doc["max_errors"][key]]
        for v in values:
            fail_if(not (isinstance(v, float) and math.isfinite(v) and v <= limit),
                    f"{key} error {v!r} exceeds {limit:.0e}")
        fail_if(max(values[:-1]) != values[-1], f"max_errors[{key}] is not the maximum over the trials")
