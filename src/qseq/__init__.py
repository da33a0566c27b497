"""Laboratory for a parity-perturbed self-referential recursion.

The sequence under study follows Q(n) = Q(n - Q(n-1)) + Q(n - Q(n-2)) + eps(n)
with eps alternating between +1 (even n) and -1 (odd n), or switched off for
the classical variant.  The package computes traces at scale, measures the
structures the sequence exhibits (linear growth with persistent fluctuation,
dyadic self-similarity, a geometric law for value frequencies, seed-dependent
survival), and bundles the empirical claims into a verification checklist.

Importing the package binds the kernel (``_native``, which warns once if it
falls back to the pure-Python twin).  Every other public name is listed in
``_HOME`` with the module that defines it; that module is imported the first
time the name is read (PEP 562), so a caller pays only for what it uses.
"""

import importlib

from ._native import have_native_kernel

__version__ = "0.1.0"

_HOME = {
    "have_native_kernel": "_native",
    "load": "checkpoint",
    "save": "checkpoint",
    "SERIES_CODES": "diagnostics",
    "Series": "diagnostics",
    "assert_all_odd": "diagnostics",
    "check_subsequence_identities": "diagnostics",
    "selfsim_profile": "diagnostics",
    "series": "diagnostics",
    "MAX_SEED_LEN": "engine",
    "Outcome": "engine",
    "OutcomeKind": "engine",
    "Perturbation": "engine",
    "RecursionConfig": "engine",
    "Seed": "engine",
    "Trace": "engine",
    "extend": "engine",
    "run": "engine",
    "CheckpointChecksumError": "errors",
    "CheckpointError": "errors",
    "CheckpointFormatError": "errors",
    "CheckpointTruncatedError": "errors",
    "ConfigError": "errors",
    "CountOverflowError": "errors",
    "ParityError": "errors",
    "QseqError": "errors",
    "RangeError": "errors",
    "SaturationError": "errors",
    "TraceStateError": "errors",
    "ValueOverflowError": "errors",
    "BlockReport": "frequency",
    "FrequencyTable": "frequency",
    "block_report": "frequency",
    "build_frequency": "frequency",
    "check_dyadic_law": "frequency",
    "law_prediction": "frequency",
    "peak_scan": "frequency",
    "SeedClass": "seedlab",
    "SeedReport": "seedlab",
    "classify": "seedlab",
    "detect_merge": "seedlab",
    "detect_ramp_orbit": "seedlab",
    "enumerate_seeds": "seedlab",
    "table_report": "seedlab",
    "Artifacts": "verify",
    "CriterionResult": "verify",
    "format_report": "verify",
    "run_criteria": "verify",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_HOME[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
