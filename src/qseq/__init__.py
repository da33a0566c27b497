"""Laboratory for a parity-perturbed self-referential recursion.

The sequence under study follows Q(n) = Q(n - Q(n-1)) + Q(n - Q(n-2)) + eps(n)
with eps alternating between +1 (even n) and -1 (odd n), or switched off for
the classical variant.  The package computes traces at scale, measures the
structures the sequence exhibits (linear growth with persistent fluctuation,
dyadic self-similarity, a geometric law for value frequencies, seed-dependent
survival), and bundles the empirical claims into a verification checklist.
"""

from ._native import have_native_kernel
from .checkpoint import load, save
from .diagnostics import (
    SERIES_CODES,
    Series,
    assert_all_odd,
    check_subsequence_identities,
    log_profile,
    selfsim_profile,
    series,
    series_domain,
)
from .engine import (
    MAX_SEED_LEN,
    Outcome,
    OutcomeKind,
    Perturbation,
    RecursionConfig,
    Seed,
    Trace,
    extend,
    run,
)
from .errors import (
    CheckpointChecksumError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    ConfigError,
    CountOverflowError,
    ParityError,
    QseqError,
    RangeError,
    SaturationError,
    TraceStateError,
    ValueOverflowError,
)
from .frequency import (
    BlockReport,
    FrequencyTable,
    average_check,
    block_report,
    build_frequency,
    check_dyadic_law,
    law_prediction,
    peak_scan,
)
from .seedlab import (
    SeedClass,
    SeedReport,
    classify,
    detect_merge,
    detect_ramp_orbit,
    enumerate_seeds,
    table_report,
)
from .verify import Artifacts, CriterionResult, format_report, run_criteria

__version__ = "0.1.0"

__all__ = [
    "MAX_SEED_LEN",
    "SERIES_CODES",
    "Artifacts",
    "BlockReport",
    "CheckpointChecksumError",
    "CheckpointError",
    "CheckpointFormatError",
    "CheckpointTruncatedError",
    "ConfigError",
    "CountOverflowError",
    "CriterionResult",
    "FrequencyTable",
    "Outcome",
    "OutcomeKind",
    "ParityError",
    "Perturbation",
    "QseqError",
    "RangeError",
    "RecursionConfig",
    "SaturationError",
    "Seed",
    "SeedClass",
    "SeedReport",
    "Series",
    "Trace",
    "TraceStateError",
    "ValueOverflowError",
    "assert_all_odd",
    "average_check",
    "block_report",
    "build_frequency",
    "check_dyadic_law",
    "check_subsequence_identities",
    "classify",
    "detect_merge",
    "detect_ramp_orbit",
    "enumerate_seeds",
    "extend",
    "format_report",
    "have_native_kernel",
    "law_prediction",
    "load",
    "log_profile",
    "peak_scan",
    "run",
    "run_criteria",
    "save",
    "selfsim_profile",
    "series",
    "series_domain",
    "table_report",
]
