"""Shared fixtures: the expensive artifacts are built once per session."""

import pytest

from qseq import _native, _pykernel
from qseq.engine import Perturbation, RecursionConfig, Seed, run
from qseq.frequency import build_frequency
from qseq.verify import Artifacts


@pytest.fixture(params=["c", "python"])
def kernel(request, monkeypatch):
    """The C kernel, then its pure-Python twin, bound as _native.kernel."""
    module = {"c": _native.compiled, "python": _pykernel}[request.param]
    assert module is not None, f"the C kernel is not loaded: {_native.reason}"
    monkeypatch.setattr(_native, "kernel", module)
    return module


@pytest.fixture(scope="session")
def main_trace():
    """The reference run at desk scale: seed (1,1), alternating, 1e7 terms."""
    return run(RecursionConfig(seed=Seed((1, 1)), horizon=10**7))


@pytest.fixture(scope="session")
def short_trace():
    return run(RecursionConfig(seed=Seed((1, 1)), horizon=5000))


@pytest.fixture(scope="session")
def classical_trace():
    return run(RecursionConfig(seed=Seed((1, 1)), horizon=5000,
                               perturbation=Perturbation.NONE))


@pytest.fixture(scope="session")
def freq_table(main_trace):
    return build_frequency(main_trace)


@pytest.fixture(scope="session")
def artifacts(main_trace, freq_table):
    """Verification artifacts primed with the session's shared objects."""
    art = Artifacts()
    art.__dict__["main_trace"] = main_trace
    art.__dict__["freq_table"] = freq_table
    return art
