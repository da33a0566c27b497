#!/usr/bin/env python3
"""Regenerate the plot-ready data files behind the empirical claims.

Produces two-column text files (gnuplot/pgfplots friendly) in --out-dir:

  growth.dat          Q(n) on a log-spaced grid: the n/2 growth overview
  fluct_log.dat       doubled fluctuation 2Q(n) - n on the same log grid
  selfsim_k{K}.dat    decimated fluctuation overlays for each level K
  renorm_odd.dat      odd-position renormalization residual Q(4k-2) - 2Q(2k-1)
  renorm_even.dat     even-position residual Q(4k) - 2Q(2k)
  freq_F.dat          occurrence count F(m) for m < 2^(kmax+1)
  peaks.dat           per-block peak position, count, and ratio to 4/3
  seed_table.txt      the survey of all length-3 seeds with entries 1..3

Everything is derived from a single run of the alternating-perturbation
recursion from seed (1,1), so the files are deterministic.
"""

import argparse
import sys
from array import array
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qseq.cli import SeriesText, seed_row, write_text
from qseq.diagnostics import log_grid, selfsim_profile, series
from qseq.engine import Perturbation, RecursionConfig, Seed, run
from qseq.frequency import build_frequency, peak_scan
from qseq.seedlab import MAX_SHIFT, classify, enumerate_seeds


def strided(ser, max_points: int) -> SeriesText:
    """Every step-th row of ser, copied into contiguous columns."""
    step = max(1, len(ser.x) // max_points)
    return SeriesText.of(*(array(col.format, col[::step]) for col in (ser.x, ser.y)), ser.halves)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="figure-data")
    parser.add_argument("--horizon", type=int, default=10**7)
    parser.add_argument("--survey-horizon", type=int, default=10**6)
    parser.add_argument("--levels", type=int, default=8,
                        help="largest self-similarity decimation exponent")
    parser.add_argument("--kmax", type=int, default=15,
                        help="largest dyadic block exponent")
    parser.add_argument("--samples-per-octave", type=int, default=64)
    parser.add_argument("--max-points", type=int, default=200_000,
                        help="stride long series down to roughly this many rows")
    args = parser.parse_args(argv)

    out = Path(args.out_dir)
    written = []

    def emit(name: str, lines) -> None:
        path = out / name
        write_text(path, lines)
        written.append(path)
        print(f"wrote {path}")

    print(f"running seed (1,1) to n = {args.horizon:,} ...")
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=args.horizon))

    # Checked before the first file is written, so a horizon too short for
    # --kmax fails without leaving a partial set of files.
    print("building the frequency table ...")
    table = build_frequency(trace)
    peaks = peak_scan(table, 0, args.kmax)
    m_hi = 2 ** (args.kmax + 1) - 1
    freq_text = SeriesText.of(range(1, m_hi + 1), array("q", table.counts[1 : m_hi + 1]))

    _, n = log_grid(args.horizon, args.samples_per_octave)
    grid = array("q", sorted(set(n)))
    emit("growth.dat", SeriesText.of(grid, array("q", (trace.values[i] for i in grid))))
    fluct = series(trace, "G", samples_per_octave=args.samples_per_octave)
    emit("fluct_log.dat", SeriesText.of(fluct.x, fluct.y, fluct.halves))

    for k in range(0, args.levels + 1):
        emit(f"selfsim_k{k}.dat", strided(selfsim_profile(trace, k), args.max_points))

    for name, code in (("renorm_odd.dat", "Rodd"), ("renorm_even.dat", "Reven")):
        emit(name, strided(series(trace, code), args.max_points))

    emit("freq_F.dat", freq_text)

    peak_lines = []
    for rep in peaks:
        gap = float(abs(rep.peak_ratio - Fraction(4, 3)))
        peak_lines.append(f"{rep.k} {rep.peak_m} {rep.peak_count}"
                          f" {float(rep.peak_ratio):.6f} {gap:.6f}")
    emit("peaks.dat", peak_lines)

    print(f"classifying seeds at horizon {args.survey_horizon:,} ...")
    reference = run(RecursionConfig(
        seed=Seed((1, 1)), horizon=args.survey_horizon + MAX_SHIFT,
        perturbation=Perturbation.ALTERNATING,
    ))
    rows = [seed_row(classify(seed, reference, horizon=args.survey_horizon))
            for seed in enumerate_seeds(3, 3)]
    emit("seed_table.txt", rows)

    print(f"done: {len(written)} files in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
