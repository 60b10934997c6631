"""The benchmark's tracer wraps the package's functions at named module
attributes (``perfbench/tracing.py``, ``LAYERS``).  A refactor that drops or
bypasses one of them must fail here, not only in a traced benchmark run."""

import importlib
from pathlib import Path

import numpy as np
import pytest

import hankel_spectra as hs
from hankel_spectra.random_data import random_cyclic_data, random_multiplicity_data

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    module = importlib.import_module("tracing")
    for module_name in {m for targets in module.LAYERS.values() for m, _ in targets}:
        importlib.import_module(f"hankel_spectra.{module_name}")
    return module


def _raw(module_name: str, attr: str):
    """The object stored at a LAYERS target, as ``Tracer.install`` sees it."""
    owner = getattr(hs, module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, attr)


def test_every_layer_target_resolves_and_is_restored(tracing):
    targets = [t for layer_targets in tracing.LAYERS.values() for t in layer_targets]
    originals = {t: _raw(*t) for t in targets}
    tracer = tracing.Tracer(hs)
    tracer.install()
    try:
        for t in targets:
            assert _raw(*t) is not originals[t], f"{t} was not wrapped"
    finally:
        tracer.uninstall()
    for t in targets:
        assert _raw(*t) is originals[t], f"{t} was not restored"


def test_inverse_path_calls_through_the_wrapped_attributes(tracing, rank2_data):
    tracer = tracing.Tracer(hs)
    tracer.install()
    try:
        hs.hankel_core.hankel_from_data(rank2_data)
    finally:
        tracer.uninstall()
    calls = tracer.layer_metrics()
    for layer in ("operator_assembly.assemble", "hankel_core.certified_truncation",
                  "hankel_core.gamma_sequence", "hankel_core.from_gamma"):
        assert calls[f"{layer}.calls"][0] == 1, layer


def test_workload_reads_the_data_contract(monkeypatch):
    # the benchmark reads d.mode, d.xi, d.eta, d.rho and d.rho1 of drawn data
    # (workload.expected_from) and hands d.rho, d.rho1 to the Clark converter
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workload")
    cyclic = random_cyclic_data(np.random.default_rng(1), 3, terminal_zero=True)
    multiplicity = random_multiplicity_data(np.random.default_rng(2), 3, max_atoms=3,
                                            terminal_zero=False)
    assert (cyclic.mode, multiplicity.mode) == ("cyclic", "multiplicity")
    for d in (cyclic, multiplicity):
        exp = workload.expected_from(d)
        np.testing.assert_array_equal(exp.lam, d.spectrum.lam)
        np.testing.assert_array_equal(exp.mu, d.spectrum.mu)
        for got, m in zip(exp.xi + exp.eta, d.rho + d.rho1, strict=True):
            if m is None:                       # the terminal mu = 0 of the cyclic draw
                assert got is None
                continue
            np.testing.assert_array_equal(got[0], m.points)
            np.testing.assert_array_equal(got[1], m.weights)
    thetas, theta1s = hs.clark.gp_convert_to_inner(multiplicity.rho, multiplicity.rho1)
    assert [len(t.zeros) for t in thetas] == [len(m.points) for m in multiplicity.rho]
    assert [len(t.zeros) for t in theta1s] == [len(m.points) for m in multiplicity.rho1]
