"""Command-line surface for the recursion laboratory.

Verbs:

  compute   run the recursion, write a trace checkpoint, optionally export values
  diagnose  export one named diagnostic series as a two-column data file
  selfsim   export dyadic-decimated fluctuation profiles, one file per level
  freq      frequency analysis: structured block report plus an F(m) data file
  seeds     classify seeds and render the survey table
  verify    run the thirteen reproducibility checks

Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
analysis precondition or not enough memory for it, 3 the run died before
the requested horizon, 4 value overflow, 5 I/O or checkpoint-format failure.

Data files are whitespace-separated two-column plain text: integers bare,
half-integer series with exactly one decimal digit, normalized positions
with eight, as f"{x:.8f}" writes them.  Series text is written in blocks of
BLOCK_ROWS rows: the kernel's linear_series evaluates each block of a series
straight from the trace, and its format_rows writes the text (the C kernel's
twin writes one f-string per row: slower, the same bytes).  freq, seeds and
verify read the frequency table's and the traces' memoryviews, and the
kernel checks parity and the interleave identities, so no verb imports
NumPy.  Identical flags produce byte-identical files; files are written
atomically and durably, with mode 0o666 & ~umask (see
checkpoint.atomic_write).  Default filenames land in the directory named by
--data-dir, or the QSEQ_DATA_DIR environment variable, or ./qseq-data;
explicit paths are used as given.
"""

from __future__ import annotations

import argparse
import os
import sys
from array import array
from collections.abc import Callable, Sequence
from pathlib import Path

# frequency, seedlab and verify are imported by the handlers and formatters
# that use them, so a verb loads only the modules it runs.
from . import _native, checkpoint
from .diagnostics import (
    SERIES_CODES,
    Series,
    selfsim_profile,
    selfsim_window,
    series,
    series_window,
    value_rows,
)
from .engine import (
    Outcome,
    OutcomeKind,
    Perturbation,
    RecursionConfig,
    Seed,
    Trace,
    extend,
    give_back,
    run,
)
from .errors import (
    CheckpointError,
    ConfigError,
    QseqError,
    RangeError,
    ValueOverflowError,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_DEATH = 3
EXIT_OVERFLOW = 4
EXIT_IO = 5


# ------------------------------------------------------------- formatting

BLOCK_ROWS = 1 << 18  # rows per text block: bounds memory, amortises per-call overhead


def format_series_lines(ser) -> bytes:
    """The rows of a series as text, one "x y" line each.

    Integers are written bare, doubled half-integers (ser.halves) with one
    decimal, float x with eight, exactly as f"{x:.8f}".  Every line ends in
    a newline.  ValueError if a float is not finite or not below 2^52/1e8,
    or unless both columns are C-contiguous int64 or float64 and y is an
    integer column.
    """
    return _native.kernel.format_rows(ser.x, ser.y, ser.halves)


class SeriesText(Sequence):
    """The text of count rows as a sequence of blocks of block rows (default:
    BLOCK_ROWS, read at each call).

    rows(a, b) returns the Series of rows [a, b).  A block is computed and
    formatted only when it is read, so write_text streams a long series in
    O(block) memory.  Rows that walk a trace forward name it: once a block's
    rows are computed, the trace's whole mapping is given back (give_back),
    so that a walk over a trace mapped from a checkpoint keeps about the
    slots of one block resident, not the whole trace.
    """

    def __init__(self, count: int, rows: Callable[[int, int], Series],
                 trace: Trace | None = None, block: int | None = None):
        self.count, self.rows, self.trace, self.block = count, rows, trace, block

    @classmethod
    def of(cls, x, y, halves: bool = False) -> "SeriesText":
        """The text of columns x and y, sliced one block at a time.  x may
        be a range, made an int64 column one block at a time."""
        if len(x) != len(y):
            raise ValueError(f"x has {len(x)} rows, y has {len(y)}")

        def rows(a: int, b: int) -> Series:
            xs = x[a:b]
            if isinstance(xs, range):
                xs = array("q", xs)
            return Series(xs, y[a:b], halves)

        return cls(len(y), rows)

    def __len__(self) -> int:
        return -(-self.count // (self.block or BLOCK_ROWS))

    def __getitem__(self, i: int) -> bytes:
        if not 0 <= i < len(self):
            raise IndexError(i)
        block = self.block or BLOCK_ROWS
        a = i * block
        ser = self.rows(a, min(a + block, self.count))
        if self.trace is not None:
            give_back(self.trace.values)
        return format_series_lines(ser)


def write_text(path: Path, lines: Sequence[str | bytes]) -> None:
    """Write a text file atomically.

    A str item is one line; a bytes item is a block of whole lines, as
    SeriesText yields them.
    """
    with checkpoint.atomic_write(path) as temp:
        temp.fh.writelines(
            line if isinstance(line, bytes) else f"{line}\n".encode() for line in lines)


# ------------------------------------------------------------- plumbing

def data_dir(args) -> Path:
    if args.data_dir is not None:
        return Path(args.data_dir)
    env = os.environ.get("QSEQ_DATA_DIR")
    return Path(env) if env else Path("qseq-data")


def resolve(args, explicit: str | None, default_name: str) -> Path:
    return Path(explicit) if explicit is not None else data_dir(args) / default_name


def config_from(args) -> RecursionConfig:
    return RecursionConfig(
        seed=Seed.parse(args.seed),
        horizon=args.horizon,
        perturbation=Perturbation(args.perturbation),
        width=args.width,
    )


def trace_tag(config: RecursionConfig) -> str:
    seed_part = str(config.seed).replace(",", "-")
    return f"s{seed_part}_{config.perturbation.value}_w{config.width}"


def obtain_trace(config: RecursionConfig, trace_path: Path | None):
    """The trace for config, and whether trace_path was (re)written.

    A checkpoint of the same seed, perturbation and width serves every
    horizon it covers: a longer live trace as a prefix view, a death at or
    before the horizon as that death.  A shorter live one is extended.  A
    file of another configuration is replaced by a fresh run without its
    values being read; so is an unreadable one.  So the store never
    shortens a checkpoint.  A run or an extension computes straight into
    the new file's reserved slots, which save() then finishes.
    """
    if trace_path is None:
        return run(config), False
    stored = None
    if trace_path.exists():
        try:
            with open(trace_path, "rb") as fh:
                head = checkpoint.read_header(fh, trace_path)
            if (head.config.seed, head.config.perturbation, head.config.width) == (
                    config.seed, config.perturbation, config.width):
                stored = checkpoint.load(trace_path)
            else:
                print(f"note: replacing checkpoint {trace_path}"
                      " (seed/perturbation/width differ)", file=sys.stderr)
        except CheckpointError as exc:
            print(f"note: ignoring unreadable checkpoint {trace_path}: {exc}",
                  file=sys.stderr)
    if stored is not None:
        if not stored.outcome.is_alive and stored.outcome.step <= config.horizon:
            return Trace(config, stored.values, stored.outcome), False
        if stored.len >= config.horizon:
            return Trace(config, stored.values[: config.horizon + 1], Outcome.alive()), False
    with checkpoint.reserve(trace_path, config) as slots:
        trace = run(config, slots) if stored is None else extend(stored, config.horizon, slots)
        return checkpoint.save(trace, trace_path), True


class RunDied(Exception):
    """The run died before the horizon: main prints this and exits EXIT_DEATH."""

    def __init__(self, trace: Trace):
        out = trace.outcome
        kind = "strong" if out.kind is OutcomeKind.STRONG_DEATH else "weak"
        super().__init__(
            f"{kind} death at step {out.step} (non-positive feedback index:"
            f" {','.join(out.bad_indices)}); {trace.len} of {trace.config.horizon}"
            " values computed")


# The exit code of each error main reports: the first class in the error's
# MRO that is listed here decides, so CheckpointError beats QseqError, and
# every other QseqError (ConfigError and RangeError too) exits EXIT_CONFIG.
ERROR_EXITS = {RunDied: EXIT_DEATH, ValueOverflowError: EXIT_OVERFLOW,
               CheckpointError: EXIT_IO, QseqError: EXIT_CONFIG,
               MemoryError: EXIT_CONFIG, OSError: EXIT_IO}


def live_trace(args, config: RecursionConfig) -> Trace:
    """The trace an analysis verb reads, through the --trace checkpoint if
    given.  Raises RunDied if the run died before the horizon."""
    trace, _ = obtain_trace(config, Path(args.trace) if args.trace else None)
    if not trace.outcome.is_alive:
        raise RunDied(trace)
    return trace


# ------------------------------------------------------------- handlers

def cmd_compute(args) -> int:
    config = config_from(args)
    trace_path = resolve(args, args.trace, f"trace_{trace_tag(config)}.qtr")
    trace, wrote = obtain_trace(config, trace_path)
    if not wrote:
        print(f"reusing checkpoint {trace_path}")
    else:
        print(f"wrote checkpoint {trace_path} ({trace.len} values)")
    if args.export is not None:
        export_path = resolve(
            args, args.export or None,
            f"values_{trace_tag(config)}_n{config.horizon}.dat",
        )
        write_text(export_path, SeriesText(trace.len, lambda a, b: value_rows(trace, a + 1, b),
                                           trace))
        print(f"wrote {export_path} ({trace.len} lines)")
    if not trace.outcome.is_alive:
        raise RunDied(trace)
    return EXIT_OK


def cmd_diagnose(args) -> int:
    config = config_from(args)
    code = args.series
    # a live trace is config.horizon long, so a bad window is refused before the run
    lo, hi = series_window(config.horizon, code, args.lo, args.hi, args.samples_per_octave)
    trace = live_trace(args, config)
    if code == "G":  # a log grid of about 1.5k rows, built whole
        ser = series(trace, code, samples_per_octave=args.samples_per_octave)
        text = SeriesText.of(ser.x, ser.y, ser.halves)
    else:
        text = SeriesText(hi - lo + 1, lambda a, b: series(trace, code, lo + a, lo + b - 1),
                          trace)
    out_path = resolve(
        args, args.out,
        f"series_{code}_{trace_tag(config)}_n{config.horizon}.dat",
    )
    write_text(out_path, text)
    print(f"wrote {out_path} ({text.count} lines)")
    return EXIT_OK


def parse_levels(text: str, label: str = "level") -> list[int]:
    levels = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo_txt, dots, hi_txt = part.partition("..")
        try:
            lo = int(lo_txt)
            hi = int(hi_txt) if dots else lo
        except ValueError as exc:
            raise ConfigError(f"bad {label} list entry {part!r}") from exc
        if hi < lo:  # raised outside the try: ConfigError is a ValueError
            raise ConfigError(f"bad {label} range {part!r}")
        levels.extend(range(lo, hi + 1))
    if not levels:
        raise ConfigError(f"no {label} numbers in {text!r}")
    return sorted(set(levels))


def cmd_selfsim(args) -> int:
    config = config_from(args)
    # each level's row count, checked against the horizon before the run
    counts = {k: selfsim_window(config.horizon, k)[1] for k in parse_levels(args.levels)}
    trace = live_trace(args, config)
    for k, count in counts.items():
        # level k reads one slot in 2^k, so a block spans BLOCK_ROWS slots at every level
        text = SeriesText(count, lambda a, b: selfsim_profile(trace, k, a + 1, b),
                          trace, max(1, BLOCK_ROWS >> k))
        if args.out_dir is not None:
            out_path = Path(args.out_dir) / f"selfsim_k{k}.dat"
        else:
            out_path = resolve(
                args, None, f"selfsim_k{k}_{trace_tag(config)}_n{config.horizon}.dat"
            )
        write_text(out_path, text)
        print(f"wrote {out_path} ({count} lines)")
    return EXIT_OK


def block_lines(report) -> list[str]:
    """The three report lines of one frequency.BlockReport."""
    from .frequency import check_dyadic_law, law_prediction

    lo, hi = 2**report.k, 2 ** (report.k + 1) - 1
    if report.complete:
        verdict = "fail" if check_dyadic_law(report) else "pass"
    else:
        verdict = "unchecked"
    head = (
        f"block k={report.k} range {lo}..{hi} total {report.total}"
        f" average {float(report.average):.6f}"
        f" complete {'yes' if report.complete else 'no'} law {verdict}"
        f" peak_m {report.peak_m} peak_count {report.peak_count}"
        f" ties {report.tie_count} peak_ratio {float(report.peak_ratio):.6f}"
    )
    hist = " ".join(f"{r}:{c}" for r, c in sorted(report.histogram.items()))
    pred = " ".join(f"{r}:{c}" for r, c in sorted(law_prediction(report.k).items()))
    return [head, f"hist k={report.k} {hist}", f"law_prediction k={report.k} {pred}"]


def cmd_freq(args) -> int:
    from .frequency import block_report, build_frequency, table_m_cap

    config = config_from(args)
    k_max = args.kmax
    if k_max < 0:
        raise RangeError(f"kmax must be >= 0, got {k_max}")
    # a table or a block that cannot fit is refused before the trace is computed
    m_cap = table_m_cap(config.horizon, config.cap, args.m_cap)
    k_out = (m_cap + 1).bit_length() - 1  # the first block past m_cap
    if k_max >= k_out:
        raise RangeError(f"block k={k_out} reaches m={2 ** (k_out + 1) - 1},"
                         f" beyond m_cap={m_cap}")
    trace = live_trace(args, config)
    table = build_frequency(trace, m_cap=m_cap)

    lines = [
        "# frequency report",
        f"n_max {table.n_max}",
        f"m_cap {table.m_cap}",
        f"overflow {table.overflow_count}",
    ]
    for k in range(0, k_max + 1):
        lines.extend(block_lines(block_report(table, k)))
    report_path = resolve(args, args.out, f"freq_report_{trace_tag(config)}"
                                          f"_n{config.horizon}.txt")
    write_text(report_path, lines)
    print(f"wrote {report_path}")

    m_hi = 2 ** (k_max + 1) - 1
    data_path = resolve(args, args.data_out, f"freq_F_{trace_tag(config)}"
                                             f"_n{config.horizon}_k{k_max}.dat")
    counts = array("q", table.counts[1 : m_hi + 1])
    write_text(data_path, SeriesText.of(range(1, m_hi + 1), counts))
    print(f"wrote {data_path} ({m_hi} lines)")
    return EXIT_OK


def seed_row(report) -> str:
    """The survey line of one seedlab.SeedReport."""
    growth = "-" if report.growth2 is None else f"{float(report.growth2) / 2:.6f}"
    death = "-" if report.death_step is None else str(report.death_step)
    bad = ",".join(report.bad_indices) or "-"
    shift = "-" if report.shift is None else str(report.shift)
    merge = "-" if report.merge_index is None else str(report.merge_index)
    return (
        f"seed {report.seed} class {report.classification.value} death {death} bad {bad}"
        f" shift {shift} merge_n {merge} growth {growth}"
    )


def cmd_seeds(args) -> int:
    from .seedlab import MAX_SHIFT, classify, enumerate_seeds

    reference = run(RecursionConfig(
        seed=Seed((1, 1)),
        horizon=args.horizon + MAX_SHIFT,
        perturbation=Perturbation(args.perturbation),
    ))
    rows = [seed_row(classify(seed, reference, horizon=args.horizon))
            for seed in enumerate_seeds(args.length, args.max_value)]
    header = (f"# seed survey length {args.length} entries 1..{args.max_value}"
              f" horizon {args.horizon}")
    for line in rows:
        print(line)
    if args.out is not None or not args.no_file:
        out_path = resolve(
            args, args.out,
            f"seeds_len{args.length}_max{args.max_value}_h{args.horizon}.txt",
        )
        write_text(out_path, [header] + rows)
        print(f"wrote {out_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import format_report, run_criteria

    numbers = set(parse_levels(args.only, label="criterion")) if args.only else None
    results = run_criteria(numbers=numbers)
    print(format_report(results))
    return EXIT_OK if all(res.passed for res in results) else EXIT_VERIFY_FAILED


# ------------------------------------------------------------- the parser

def add_trace_flags(sub, default_horizon: int) -> None:
    sub.add_argument("--seed", default="1,1", help="comma-separated start values")
    sub.add_argument("--horizon", type=int, default=default_horizon,
                     help="number of terms to compute")
    sub.add_argument("--perturbation", choices=[p.value for p in Perturbation],
                     default=Perturbation.ALTERNATING.value)
    sub.add_argument("--width", type=int, choices=tuple(_native.SLOT_CAPS), default=4,
                     help="bytes per stored value")
    sub.add_argument("--trace", help="checkpoint to reuse, extend, or create; never shrink")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qseq",
        description="Laboratory for the parity-perturbed self-referential recursion.",
    )
    parser.add_argument("--data-dir", help="directory for default output files "
                                           "(overrides QSEQ_DATA_DIR)")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("compute", help="run the recursion and checkpoint it")
    add_trace_flags(sub, default_horizon=10**6)
    sub.add_argument("--export", nargs="?", const="", default=None,
                     help="also write two-column values (optional path)")
    sub.set_defaults(func=cmd_compute)

    sub = commands.add_parser("diagnose", help="export a diagnostic series")
    add_trace_flags(sub, default_horizon=10**6)
    sub.add_argument("--series", required=True, choices=SERIES_CODES)
    sub.add_argument("--lo", type=int, default=None)
    sub.add_argument("--hi", type=int, default=None)
    sub.add_argument("--samples-per-octave", type=int, default=None,
                     help="log-grid density (series G only; default 64)")
    sub.add_argument("--out", help="output path")
    sub.set_defaults(func=cmd_diagnose)

    sub = commands.add_parser("selfsim", help="dyadic-decimated fluctuation profiles")
    add_trace_flags(sub, default_horizon=10**6)
    sub.add_argument("--levels", default="0..5",
                     help="decimation exponents, e.g. 0..5 or 1,3,5")
    sub.add_argument("--out-dir", help="directory for the per-level files")
    sub.set_defaults(func=cmd_selfsim)

    sub = commands.add_parser("freq", help="value-frequency analysis")
    add_trace_flags(sub, default_horizon=10**7)
    sub.add_argument("--kmax", type=int, default=15, help="largest block exponent")
    sub.add_argument("--m-cap", type=int, default=None,
                     help="largest tracked value index (default horizon/2)")
    sub.add_argument("--out", help="report path")
    sub.add_argument("--data-out", help="F(m) data file path")
    sub.set_defaults(func=cmd_freq)

    sub = commands.add_parser("seeds", help="classify seeds against the survey table")
    sub.add_argument("--length", type=int, default=3, choices=(2, 3))
    sub.add_argument("--max-value", type=int, default=3)
    sub.add_argument("--horizon", type=int, default=10**6)
    sub.add_argument("--perturbation", choices=[p.value for p in Perturbation],
                     default=Perturbation.ALTERNATING.value)
    sub.add_argument("--out", help="survey file path")
    sub.add_argument("--no-file", action="store_true",
                     help="print only, skip the survey file")
    sub.set_defaults(func=cmd_seeds)

    sub = commands.add_parser("verify", help="run the reproducibility checklist")
    sub.add_argument("--only", help="criterion numbers, e.g. 1..5 or 7,12")
    sub.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(ERROR_EXITS) as exc:
        code = next(ERROR_EXITS[cls] for cls in type(exc).__mro__ if cls in ERROR_EXITS)
        text = str(exc) or ("out of memory" if isinstance(exc, MemoryError) else "")
        print(text if isinstance(exc, RunDied) else f"error: {text}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
