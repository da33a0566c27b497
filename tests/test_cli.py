"""End-to-end CLI behaviour: exit codes, file formats, checkpoint reuse."""

import errno
import mmap
import os
import stat
import threading

import numpy as np
import pytest

import frozen_values as frozen
import oracle
from qseq import _native, _pykernel, checkpoint, cli, engine
from qseq.cli import (
    EXIT_CONFIG,
    EXIT_DEATH,
    EXIT_IO,
    EXIT_OK,
    EXIT_OVERFLOW,
    SeriesText,
    format_series_lines,
    main,
)
from qseq.diagnostics import SERIES_CODES, Series, selfsim_profile, series
from qseq.engine import OutcomeKind, RecursionConfig, Seed, run
from qseq.errors import (
    CheckpointChecksumError,
    CheckpointError,
    ConfigError,
    QseqError,
    RangeError,
    TraceStateError,
    ValueOverflowError,
)


def read_lines(path):
    return path.read_text().splitlines()


# ------------------------------------------------------------- exit codes

def test_bad_seed_is_config_error(tmp_path, capsys):
    assert main(["--data-dir", str(tmp_path), "compute", "--seed", "0,1"]) == EXIT_CONFIG
    assert main(["--data-dir", str(tmp_path), "compute", "--seed", "banana"]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_overflow_exit_and_width_escape(tmp_path, capsys):
    big = ["--seed", f"{2**31},{2**31 + 1},3,4", "--horizon", "10"]
    code = main(["--data-dir", str(tmp_path), "compute", *big])
    assert code == EXIT_OVERFLOW
    assert "width=8" in capsys.readouterr().err
    # the wide width absorbs the 2^32 value; the run then dies honestly
    # at step 6 when that value drives the feedback index non-positive
    assert main(["--data-dir", str(tmp_path), "compute", *big, "--width", "8"]) == EXIT_DEATH
    assert "strong death at step 6" in capsys.readouterr().err


def test_dying_run_exits_death(tmp_path, capsys):
    code = main(["--data-dir", str(tmp_path), "compute",
                 "--seed", "1,2,1", "--horizon", "100", "--export"])
    assert code == EXIT_DEATH
    captured = capsys.readouterr()
    assert "weak death at step 41" in captured.err
    assert "40 of 100 values computed" in captured.err
    export = tmp_path / "values_s1-2-1_alternating_w4_n100.dat"
    lines = read_lines(export)
    assert len(lines) == 40
    assert lines[-1] == f"40 {frozen.SEED_121_VALUES[-1]}"


def test_write_failure_exits_io(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    code = main(["diagnose", "--horizon", "50", "--series", "E",
                 "--out", str(blocker / "x.dat")])
    assert code == EXIT_IO
    assert "error:" in capsys.readouterr().err


DEAD = run(RecursionConfig(seed=Seed((1, 2, 1)), horizon=100))


@pytest.mark.parametrize("error,code,line", [
    (cli.RunDied(DEAD), EXIT_DEATH,
     "weak death at step 41 (non-positive feedback index: t1); 40 of 100 values computed"),
    (ConfigError("bad seed"), EXIT_CONFIG, "error: bad seed"),
    (RangeError("lo past hi"), EXIT_CONFIG, "error: lo past hi"),
    (ValueOverflowError("too wide"), EXIT_OVERFLOW, "error: too wide"),
    (CheckpointError("bad file"), EXIT_IO, "error: bad file"),
    (CheckpointChecksumError("x.qtr: checksum mismatch"), EXIT_IO,
     "error: x.qtr: checksum mismatch"),
    (TraceStateError("dead trace"), EXIT_CONFIG, "error: dead trace"),
    (QseqError("qseq"), EXIT_CONFIG, "error: qseq"),
    (MemoryError(), EXIT_CONFIG, "error: out of memory"),
    (MemoryError("need 7 GB"), EXIT_CONFIG, "error: need 7 GB"),
    (OSError(28, "No space left on device"), EXIT_IO,
     "error: [Errno 28] No space left on device"),
    (FileNotFoundError(2, "No such file or directory"), EXIT_IO,
     "error: [Errno 2] No such file or directory"),
    (OSError(), EXIT_IO, "error: "),
], ids=["RunDied", "ConfigError", "RangeError", "ValueOverflowError", "CheckpointError",
        "CheckpointChecksumError", "TraceStateError", "QseqError", "MemoryError-empty",
        "MemoryError", "OSError", "FileNotFoundError", "OSError-empty"])
def test_each_error_has_its_exit_code_and_line(monkeypatch, capsys, error, code, line):
    def handler(args):
        raise error

    monkeypatch.setattr(cli, "cmd_verify", handler)
    assert main(["verify"]) == code
    assert capsys.readouterr() == ("", line + "\n")


def test_other_errors_propagate(monkeypatch):
    def handler(args):
        raise RuntimeError("a bug")

    monkeypatch.setattr(cli, "cmd_verify", handler)
    with pytest.raises(RuntimeError):
        main(["verify"])


# ------------------------------------------------------------- compute

def test_compute_writes_checkpoint_and_export(tmp_path, capsys):
    code = main(["--data-dir", str(tmp_path), "compute", "--horizon", "20", "--export"])
    assert code == EXIT_OK
    assert (tmp_path / "trace_s1-1_alternating_w4.qtr").exists()
    lines = read_lines(tmp_path / "values_s1-1_alternating_w4_n20.dat")
    assert lines == [f"{n} {v}" for n, v in enumerate(frozen.FIRST_20_SEED_11, start=1)]
    out = capsys.readouterr().out
    assert "wrote checkpoint" in out


def test_export_to_explicit_path_is_deterministic(tmp_path):
    target = tmp_path / "vals.dat"
    args = ["compute", "--horizon", "500", "--trace", str(tmp_path / "t.qtr"),
            "--export", str(target)]
    assert main(args) == EXIT_OK
    first = target.read_bytes()
    assert main(args) == EXIT_OK
    assert target.read_bytes() == first


def test_data_dir_resolution(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "from-env"
    flag_dir = tmp_path / "from-flag"
    monkeypatch.setenv("QSEQ_DATA_DIR", str(env_dir))
    assert main(["compute", "--horizon", "30"]) == EXIT_OK
    assert (env_dir / "trace_s1-1_alternating_w4.qtr").exists()

    assert main(["--data-dir", str(flag_dir), "compute", "--horizon", "30"]) == EXIT_OK
    assert (flag_dir / "trace_s1-1_alternating_w4.qtr").exists()

    monkeypatch.delenv("QSEQ_DATA_DIR")
    monkeypatch.chdir(tmp_path)
    assert main(["compute", "--horizon", "30"]) == EXIT_OK
    assert (tmp_path / "qseq-data" / "trace_s1-1_alternating_w4.qtr").exists()
    capsys.readouterr()


# ------------------------------------------------------------- checkpoints

def test_checkpoint_reuse_extend_and_recompute(tmp_path, capsys):
    trace_path = tmp_path / "t.qtr"
    base = ["compute", "--trace", str(trace_path)]

    assert main(base + ["--horizon", "100"]) == EXIT_OK
    assert "wrote checkpoint" in capsys.readouterr().out
    first_bytes = trace_path.read_bytes()

    assert main(base + ["--horizon", "100"]) == EXIT_OK
    assert "reusing checkpoint" in capsys.readouterr().out
    assert trace_path.read_bytes() == first_bytes

    assert main(base + ["--horizon", "200"]) == EXIT_OK
    assert checkpoint.load(trace_path) == run(RecursionConfig(seed=Seed((1, 1)), horizon=200))

    # a shorter request is served from the longer checkpoint, which stays
    assert main(base + ["--horizon", "150"]) == EXIT_OK
    assert "reusing checkpoint" in capsys.readouterr().out
    assert checkpoint.load(trace_path).len == 200


def test_corrupt_checkpoint_triggers_recompute(tmp_path, capsys):
    trace_path = tmp_path / "t.qtr"
    trace_path.write_bytes(b"not a checkpoint at all")
    assert main(["compute", "--horizon", "50", "--trace", str(trace_path)]) == EXIT_OK
    assert "ignoring unreadable checkpoint" in capsys.readouterr().err
    assert checkpoint.load(trace_path).len == 50


def test_checkpoint_for_other_seed_is_not_reused(tmp_path, capsys):
    trace_path = tmp_path / "t.qtr"
    assert main(["compute", "--seed", "2,1", "--horizon", "80",
                 "--trace", str(trace_path)]) == EXIT_OK
    assert main(["compute", "--seed", "1,1", "--horizon", "80",
                 "--trace", str(trace_path)]) == EXIT_OK
    reloaded = checkpoint.load(trace_path)
    assert reloaded.seed.values == (1, 1)
    err = capsys.readouterr().err
    assert f"note: replacing checkpoint {trace_path} (seed/perturbation/width differ)" in err


def test_shorter_diagnose_leaves_a_longer_checkpoint_alone(tmp_path, capsys):
    big = tmp_path / "big.qtr"
    assert main(["compute", "--horizon", "100000", "--trace", str(big)]) == EXIT_OK
    before = big.read_bytes()
    out = tmp_path / "e.dat"
    assert main(["diagnose", "--horizon", "500", "--series", "E", "--trace", str(big),
                 "--out", str(out)]) == EXIT_OK
    assert big.read_bytes() == before
    assert main(["diagnose", "--horizon", "500", "--series", "E",
                 "--out", str(tmp_path / "fresh.dat")]) == EXIT_OK
    assert out.read_bytes() == (tmp_path / "fresh.dat").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("verb", [
    ["freq", "--kmax", "7"],
    ["compute", "--export"],
])
def test_shorter_horizon_outputs_match_a_run_without_trace(tmp_path, verb, capsys):
    trace_path = tmp_path / "t.qtr"
    assert main(["compute", "--horizon", "3000", "--trace", str(trace_path)]) == EXIT_OK
    served, fresh = tmp_path / "served", tmp_path / "fresh"
    assert main(["--data-dir", str(served), *verb, "--horizon", "1000",
                 "--trace", str(trace_path)]) == EXIT_OK
    assert main(["--data-dir", str(fresh), *verb, "--horizon", "1000"]) == EXIT_OK
    if verb[0] == "compute":
        (fresh / "trace_s1-1_alternating_w4.qtr").unlink()
    assert {p.name: p.read_bytes() for p in served.iterdir()} == {
        p.name: p.read_bytes() for p in fresh.iterdir()}
    assert checkpoint.load(trace_path).len == 3000
    capsys.readouterr()


def test_stored_death_answers_a_longer_or_shorter_request(tmp_path, capsys):
    trace_path = tmp_path / "t.qtr"
    dying = ["compute", "--seed", "1,2,1", "--trace", str(trace_path)]
    assert main(dying + ["--horizon", "100"]) == EXIT_DEATH
    stored = trace_path.read_bytes()
    capsys.readouterr()
    for horizon in ("41", "60", "1000"):
        assert main(["--data-dir", str(tmp_path / f"fresh{horizon}"), "compute",
                     "--seed", "1,2,1", "--horizon", horizon]) == EXIT_DEATH
        fresh_err = capsys.readouterr().err
        assert main(dying + ["--horizon", horizon]) == EXIT_DEATH
        captured = capsys.readouterr()
        assert captured.err == fresh_err
        assert f"reusing checkpoint {trace_path}" in captured.out
        assert trace_path.read_bytes() == stored
    # a horizon before the death is served as a live prefix
    assert main(dying + ["--horizon", "40"]) == EXIT_OK
    assert trace_path.read_bytes() == stored
    capsys.readouterr()


def test_a_t2_death_is_stored_and_reported_as_t2(tmp_path, capsys):
    """Seed (5,1) dies at step 3 on t2 = 3 - Q(1) alone: the line names t2,
    the header's flags byte holds bit 2 alone, load returns that outcome,
    and the run served from the file says the same."""
    trace_path = tmp_path / "t.qtr"
    dying = ["compute", "--seed", "5,1", "--horizon", "100", "--trace", str(trace_path)]
    line = "strong death at step 3 (non-positive feedback index: t2); 2 of 100 values computed\n"
    assert main(dying) == EXIT_DEATH
    assert capsys.readouterr() == (f"wrote checkpoint {trace_path} (2 values)\n", line)
    stored = trace_path.read_bytes()
    magic, version, width, pert, kind, flags, *_ = checkpoint._HEADER.unpack_from(stored)
    assert (pert, flags) == (1, 2)
    out = checkpoint.load(trace_path).outcome
    assert (out.kind, out.step, out.bad_t1, out.bad_t2) == (OutcomeKind.STRONG_DEATH, 3, False,
                                                            True)
    assert out.bad_indices == ("t2",)
    assert main(dying) == EXIT_DEATH
    assert capsys.readouterr() == (f"reusing checkpoint {trace_path}\n", line)
    assert trace_path.read_bytes() == stored


def test_other_configuration_is_replaced_without_loading_it(tmp_path, monkeypatch, capsys):
    trace_path = tmp_path / "t.qtr"
    assert main(["compute", "--horizon", "500", "--trace", str(trace_path)]) == EXIT_OK

    def refuse(path):
        raise AssertionError(f"loaded {path}")

    monkeypatch.setattr(checkpoint, "load", refuse)
    assert main(["compute", "--horizon", "500", "--width", "8",
                 "--trace", str(trace_path)]) == EXIT_OK
    monkeypatch.undo()
    assert checkpoint.load(trace_path).config.width == 8
    assert "note: replacing checkpoint" in capsys.readouterr().err


# ------------------------------------------------------------- computing into the file

def saved_bytes(config, tmp_path):
    """The bytes save() writes for a fresh run of config held in memory."""
    path = tmp_path / "fresh" / "t.qtr"
    checkpoint.save(run(config), path)
    return path.read_bytes()


def test_width_8_computed_into_the_file_reads_slot_zero_clear(tmp_path):
    # 8-byte slots: slot 0 overlays the whole last seed entry, 2, in the file
    config = RecursionConfig(seed=Seed((3, 1, 2)), horizon=1000, width=8)
    path = tmp_path / "store" / "t.qtr"
    trace, wrote = cli.obtain_trace(config, path)
    assert wrote
    assert trace.values[0] == 0
    assert trace.values.readonly
    assert trace == run(config)
    assert path.read_bytes() == saved_bytes(config, tmp_path)


def test_a_death_mid_run_leaves_the_file_save_writes(tmp_path, capsys):
    path = tmp_path / "store" / "t.qtr"
    code = main(["compute", "--seed", "1,2,1", "--horizon", "100000", "--trace", str(path)])
    assert code == EXIT_DEATH
    assert "weak death at step 41" in capsys.readouterr().err
    config = RecursionConfig(seed=Seed((1, 2, 1)), horizon=10**5)
    assert path.read_bytes() == saved_bytes(config, tmp_path)
    assert [p.name for p in path.parent.iterdir()] == ["t.qtr"]


def test_an_overflow_keeps_the_old_checkpoint_and_no_temp(tmp_path, capsys):
    path = tmp_path / "t.qtr"
    assert main(["compute", "--horizon", "100", "--trace", str(path)]) == EXIT_OK
    old = path.read_bytes()
    code = main(["compute", "--seed", f"{2**31},{2**31 + 1},3,4", "--horizon", "10",
                 "--trace", str(path)])
    assert code == EXIT_OVERFLOW
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["t.qtr"]
    capsys.readouterr()


def test_an_extension_leaves_the_file_a_fresh_save_writes(tmp_path, capsys):
    path = tmp_path / "store" / "t.qtr"
    for horizon in ("10000", "100000"):
        assert main(["compute", "--horizon", horizon, "--trace", str(path)]) == EXIT_OK
    config = RecursionConfig(seed=Seed((1, 1)), horizon=10**5)
    assert path.read_bytes() == saved_bytes(config, tmp_path)
    assert [p.name for p in path.parent.iterdir()] == ["t.qtr"]
    capsys.readouterr()


def test_a_full_disk_exits_io_and_keeps_the_old_checkpoint(tmp_path, monkeypatch, capsys):
    path = tmp_path / "t.qtr"
    assert main(["compute", "--horizon", "100", "--trace", str(path)]) == EXIT_OK
    old = path.read_bytes()
    capsys.readouterr()

    def full(fd, offset, length):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(checkpoint.os, "posix_fallocate", full)
    threads = threading.active_count()
    assert main(["compute", "--horizon", "1000", "--trace", str(path)]) == EXIT_IO
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert threading.active_count() == threads
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["t.qtr"]


@pytest.mark.parametrize("args,horizons,code", [
    (["--seed", "3,1,2", "--width", "8"], ("1000", "3000"), EXIT_OK),
    (["--seed", "1,2,1"], ("3000",), EXIT_DEATH),
], ids=["extended", "died"])
def test_the_python_twin_computes_the_file_the_c_kernel_does(tmp_path, monkeypatch, capsys,
                                                             args, horizons, code):
    """The twin and the C kernel, each reporting chunks of CHUNK = 256
    slots, write the file of a trace saved from memory under the same
    CHUNK."""
    native, twin, one_pass = tmp_path / "c.qtr", tmp_path / "py.qtr", tmp_path / "one-pass.qtr"
    monkeypatch.setattr(checkpoint, "CHUNK", 256)
    assert main(["compute", *args, "--horizon", "3000", "--trace", str(native)]) == code
    checkpoint.save(run(checkpoint.load(native).config), one_pass)
    assert native.read_bytes() == one_pass.read_bytes()
    monkeypatch.setattr(_native, "kernel", _pykernel)
    for horizon in horizons:
        assert main(["compute", *args, "--horizon", horizon, "--trace", str(twin)]) == code
    assert twin.read_bytes() == native.read_bytes()
    capsys.readouterr()


# ------------------------------------------------------------- diagnose

def test_half_integer_formatting():
    doubled = np.array([3, -1, 0, -4])
    text = format_series_lines(Series(np.arange(1, 5), doubled, halves=True))
    assert text == b"1 1.5\n2 -0.5\n3 0.0\n4 -2.0\n"


def test_text_rejects_what_it_cannot_write_exactly():
    with pytest.raises(ValueError):
        SeriesText.of(range(1, 4), np.arange(2))
    for bad in (np.nan, np.inf, 1e9):
        with pytest.raises(ValueError):
            format_series_lines(Series(np.array([0.5, bad]), np.arange(2)))


def test_format_rows_refuses_buffers_it_cannot_read():
    format_rows = _native.compiled.format_rows
    x = np.arange(1, 7, dtype=np.int64)
    assert format_rows(x[:3], -x[:3], True) == b"1 -0.5\n2 -1.0\n3 -1.5\n"
    for bad_x, bad_y in [
        (x.astype(np.int32), x),      # narrower than 8 bytes
        (x.astype(">i8"), x),         # foreign byte order
        (x, x.astype(np.float64)),    # float y
        (x[::2], x[:3]),              # strided view
        (x, x[:5]),                   # length mismatch
        (x.reshape(2, 3), x.reshape(2, 3)),
        (b"12345678", x[:1]),         # bytes carry no item format
    ]:
        with pytest.raises((ValueError, TypeError)):
            format_rows(bad_x, bad_y, False)
    with pytest.raises(ValueError):
        format_rows(np.array([1e300]), x[:1], False)


def test_diagnose_half_integer_series(tmp_path):
    out = tmp_path / "e.dat"
    code = main(["diagnose", "--horizon", "20", "--series", "E",
                 "--lo", "1", "--hi", "6", "--out", str(out)])
    assert code == EXIT_OK
    assert read_lines(out) == ["1 0.5", "2 0.0", "3 -0.5", "4 1.0", "5 0.5", "6 0.0"]


def test_diagnose_difference_series(tmp_path):
    out = tmp_path / "d.dat"
    code = main(["diagnose", "--horizon", "20", "--series", "D",
                 "--lo", "1", "--hi", "16", "--out", str(out)])
    assert code == EXIT_OK
    q = frozen.FIRST_20_SEED_11
    assert read_lines(out) == [f"{n} {q[n] - q[n - 1]}" for n in range(1, 17)]


@pytest.mark.parametrize("code,picker", [
    ("Rodd", lambda pair: pair[0]),
    ("Reven", lambda pair: pair[1]),
])
def test_diagnose_renorm_split_matches_oracle(tmp_path, code, picker):
    horizon, k_hi = 4000, 1000
    out = tmp_path / f"{code}.dat"
    assert main(["diagnose", "--horizon", str(horizon), "--series", code,
                 "--hi", str(k_hi), "--out", str(out)]) == EXIT_OK
    q, death = oracle.naive_run((1, 1), horizon)
    assert death is None
    expected = "".join(
        f"{k} {picker(oracle.renorm_split(q, k))}\n" for k in range(1, k_hi + 1)
    )
    assert out.read_bytes() == expected.encode()


RANGE_ERRORS = pytest.mark.parametrize("series_code,lo,hi,grid", [
    ("D", 1, 100, None), ("D", 0, 10, None), ("D", 11, 10, None), ("G", 50, 3, None),
    ("E", None, None, 0), ("E", 1, 10, 64), ("G", None, None, 101), ("G", None, None, 10**20),
], ids=["hi-past-domain", "lo-below-domain", "lo-above-hi", "log-grid-takes-no-range",
        "grid-density-is-for-G-only", "grid-density-is-for-G-only-at-its-default",
        "grid-denser-than-the-trace", "grid-too-dense-to-allocate"])


def diagnose_range_error(tmp_path, capsys, series_code, lo, hi, grid, *trace_flags):
    """Runs diagnose at horizon 100 on a bad window: it exits EXIT_CONFIG with
    series()'s RangeError and leaves tmp_path empty."""
    flags = [f"--{flag}={value}" for flag, value in
             (("lo", lo), ("hi", hi), ("samples-per-octave", grid)) if value is not None]
    code = main(["diagnose", "--horizon", "100", "--series", series_code, *flags, *trace_flags,
                 "--out", str(tmp_path / "x.dat")])
    assert code == EXIT_CONFIG  # D stops at horizon - 1; only G is a grid, never windowed
    with pytest.raises(RangeError) as raised:
        series(run(RecursionConfig(seed=Seed((1, 1)), horizon=100)), series_code, lo, hi, grid)
    assert capsys.readouterr().err == f"error: {raised.value}\n"
    assert list(tmp_path.iterdir()) == []  # neither the file nor its temp file


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_diagnose_refuses_a_grid_density_below_1_before_the_run(tmp_path, capsys, grid):
    """With --trace, the run would write the checkpoint first."""
    trace = tmp_path / "t.qtr"
    assert main(["diagnose", "--series", "G", "--horizon", "100000", "--samples-per-octave",
                 grid, "--trace", str(trace), "--out", str(tmp_path / "g.dat")]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: samples_per_octave must be >= 1, got {grid}\n"
    assert list(tmp_path.iterdir()) == []


@RANGE_ERRORS
def test_diagnose_range_error(tmp_path, capsys, series_code, lo, hi, grid):
    diagnose_range_error(tmp_path, capsys, series_code, lo, hi, grid)


@RANGE_ERRORS
def test_diagnose_refuses_a_bad_window_before_the_run(tmp_path, monkeypatch, capsys,
                                                      series_code, lo, hi, grid):
    """A live trace is --horizon long, so the window is checked against it
    first: with --trace, no trace is computed or loaded and no checkpoint
    written."""
    def obtain(*args):
        raise AssertionError("diagnose obtained a trace")

    monkeypatch.setattr(cli, "obtain_trace", obtain)
    diagnose_range_error(tmp_path, capsys, series_code, lo, hi, grid,
                         "--trace", str(tmp_path / "t.qtr"))


@pytest.mark.parametrize("series_code,horizon,need", [("S", 2, 3), ("Rodd", 3, 4)])
def test_an_empty_series_names_the_horizon_it_needs(tmp_path, capsys, series_code, horizon,
                                                    need):
    """Not a range [3, 2] outside a domain [3, 2]: the domain itself is empty."""
    code = main(["--data-dir", str(tmp_path), "diagnose", "--series", series_code,
                 "--horizon", str(horizon)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: series {series_code} needs horizon >= {need}, have {horizon}\n")
    assert list(tmp_path.iterdir()) == []


def test_an_unknown_series_code_is_argparses_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as raised:
        main(["--data-dir", str(tmp_path), "diagnose", "--horizon", "100", "--series", "X"])
    assert raised.value.code == EXIT_CONFIG
    err = capsys.readouterr().err
    choices = ", ".join(repr(code) for code in SERIES_CODES)
    assert err.splitlines()[-1] == ("qseq diagnose: error: argument --series: invalid"
                                    f" choice: 'X' (choose from {choices})")
    assert "{" + ",".join(SERIES_CODES) + "}" in err.split()  # the usage line
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("block", [1, 7])
def test_blocks_write_the_whole_series(short_trace, tmp_path, monkeypatch, capsys, block):
    monkeypatch.setattr(cli, "BLOCK_ROWS", block)
    horizon = ["--horizon", str(short_trace.len)]
    for code in SERIES_CODES:
        out = tmp_path / f"{code}.dat"
        assert main(["diagnose", *horizon, "--series", code, "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == format_series_lines(series(short_trace, code)), code
    assert main(["selfsim", *horizon, "--levels", "0..3", "--out-dir", str(tmp_path)]) == EXIT_OK
    for k in range(4):
        assert (tmp_path / f"selfsim_k{k}.dat").read_bytes() == format_series_lines(
            selfsim_profile(short_trace, k))
    capsys.readouterr()


WALKS = {**{f"diagnose-{code}": ["diagnose", "--series", code]
            for code in SERIES_CODES if code != "G"},
         "selfsim": ["selfsim", "--levels", "0..5"], "export": ["compute", "--export"]}


@pytest.mark.parametrize("walk", sorted(WALKS))
def test_a_walk_over_a_checkpoint_gives_back_the_slots_behind_it(tmp_path, monkeypatch, capsys,
                                                                  walk):
    """A series writer over a loaded checkpoint gives back, block by block,
    the whole mapping but its first page: it writes the files of a walk
    over a run held in memory, and the loaded trace still reads its values
    and a zero in slot 0 (at width 8, slot 0 overlays the stored seed entry
    2)."""
    monkeypatch.setattr(cli, "BLOCK_ROWS", 1000)
    flags = ["--seed", "3,1,2", "--horizon", "30000", "--width", "8"]
    path = tmp_path / "t.qtr"
    assert main(["compute", *flags, "--trace", str(path)]) == EXIT_OK
    loaded, load = [], checkpoint.load
    monkeypatch.setattr(checkpoint, "load", lambda p: loaded.append(load(p)) or loaded[-1])
    drops, madvise = [], engine.FileMapping.madvise

    def record(mapped, option, *span):
        if option == mmap.MADV_DONTNEED:
            drops.append((*span, len(mapped)))
        return madvise(mapped, option, *span)

    monkeypatch.setattr(engine.FileMapping, "madvise", record)
    verb = WALKS[walk]
    assert main(["--data-dir", str(tmp_path / "mapped"), *verb, *flags,
                 "--trace", str(path)]) == EXIT_OK
    [trace] = loaded
    assert drops and all(start == mmap.PAGESIZE and start + length == size
                         for start, length, size in drops)
    assert trace.values[0] == 0
    assert trace == run(trace.config)
    monkeypatch.undo()
    assert main(["--data-dir", str(tmp_path / "memory"), *verb, *flags,
                 *(["--trace", str(tmp_path / "fresh.qtr")] if verb[0] == "compute" else [])]
                ) == EXIT_OK
    written = sorted(p.name for p in (tmp_path / "mapped").iterdir())
    assert written and written == sorted(p.name for p in (tmp_path / "memory").iterdir())
    for name in written:
        assert (tmp_path / "mapped" / name).read_bytes() == (
            tmp_path / "memory" / name).read_bytes(), name
    capsys.readouterr()


def test_diagnose_death_before_analysis(tmp_path, capsys):
    code = main(["diagnose", "--seed", "1,2,1", "--horizon", "100",
                 "--series", "E", "--out", str(tmp_path / "x.dat")])
    assert code == EXIT_DEATH
    assert not (tmp_path / "x.dat").exists()
    capsys.readouterr()


# ------------------------------------------------------------- selfsim

def test_selfsim_writes_one_file_per_level(tmp_path, capsys):
    out_dir = tmp_path / "profiles"
    code = main(["selfsim", "--horizon", "1024", "--levels", "0..2",
                 "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    for k in (0, 1, 2):
        assert (out_dir / f"selfsim_k{k}.dat").exists()

    # level 0 carries the same fluctuation values as the E series, but on
    # the normalized x axis; spot-check the first and last samples
    k0 = read_lines(out_dir / "selfsim_k0.dat")
    assert len(k0) == 1024
    assert k0[0] == f"{1 / 1024:.8f} 0.5"
    e_file = tmp_path / "e.dat"
    assert main(["diagnose", "--horizon", "1024", "--series", "E",
                 "--out", str(e_file)]) == EXIT_OK
    e_lines = read_lines(e_file)
    assert [line.split()[1] for line in k0] == [line.split()[1] for line in e_lines]
    assert k0[-1].split()[0] == "1.00000000"

    # level 1 keeps every second sample
    k1 = read_lines(out_dir / "selfsim_k1.dat")
    assert len(k1) == 512
    assert [line.split()[1] for line in k1] == [line.split()[1] for line in e_lines[1::2]]
    capsys.readouterr()


@pytest.mark.parametrize("levels", ["5..2", "", "abc"])
def test_selfsim_level_parse_errors(tmp_path, capsys, levels):
    code = main(["selfsim", "--horizon", "64", "--levels", levels,
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize("level", ["12", "20000"])
def test_selfsim_level_beyond_horizon(tmp_path, capsys, level):
    code = main(["selfsim", "--horizon", "1000", "--levels", level,
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: level {level} needs horizon >= 2^{level}, have 1000\n"
    assert list(tmp_path.iterdir()) == []


def test_selfsim_refuses_a_negative_level_before_the_run(tmp_path, capsys):
    code = main(["--data-dir", str(tmp_path / "data"), "selfsim", "--horizon", "1000",
                 "--levels=-1..2", "--trace", str(tmp_path / "t.qtr")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "error: k must be >= 0, got -1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("horizon,expected", [(1024, EXIT_OK), (1023, EXIT_CONFIG)])
def test_selfsim_top_level_at_the_horizon(tmp_path, capsys, horizon, expected):
    code = main(["selfsim", "--horizon", str(horizon), "--levels", "10",
                 "--out-dir", str(tmp_path)])
    assert code == expected
    assert (tmp_path / "selfsim_k10.dat").exists() == (expected == EXIT_OK)
    capsys.readouterr()


# ------------------------------------------------------------- freq

def test_freq_report_and_data_file(tmp_path, capsys):
    code = main(["--data-dir", str(tmp_path), "freq", "--horizon", "1000", "--kmax", "3"])
    assert code == EXIT_OK
    report = read_lines(tmp_path / "freq_report_s1-1_alternating_w4_n1000.txt")
    assert report[0] == "# frequency report"
    assert report[1] == "n_max 1000"
    assert report[2] == "m_cap 500"
    assert report[3] == "overflow 0"
    # three lines per block: summary, histogram, law prediction
    assert len(report) == 4 + 3 * 4
    assert report[4].startswith("block k=0 range 1..1 ")
    assert report[-3].startswith("block k=3 range 8..15 ")
    assert report[-2].startswith("hist k=3 ")
    assert report[-1] == "law_prediction k=3 3:4 4:2 5:1 6:1"

    data = read_lines(tmp_path / "freq_F_s1-1_alternating_w4_n1000_k3.dat")
    assert [int(line.split()[0]) for line in data] == list(range(1, 16))
    capsys.readouterr()


@pytest.mark.parametrize("kmax", ["15", "20000"])
def test_freq_kmax_needs_enough_m_cap(tmp_path, capsys, kmax):
    code = main(["--data-dir", str(tmp_path), "freq", "--horizon", "100", "--kmax", kmax])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "error: block k=5 reaches m=63, beyond m_cap=50\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,error", [
    (("--horizon", "1000000000", "--kmax", "40"),
     "block k=28 reaches m=536870911, beyond m_cap=500000000"),
    (("--horizon", "3000", "--kmax", "11"), "block k=10 reaches m=2047, beyond m_cap=1500"),
    (("--horizon", "1000000", "--kmax", "6", "--m-cap", "63"),
     "block k=6 reaches m=127, beyond m_cap=63"),
    (("--horizon", "3000", "--kmax", "3", "--m-cap", "0"), f"m_cap must be in [1, {2**31}], got 0"),
], ids=["horizon-1e9", "past-the-checkpoint", "explicit-m-cap", "m-cap-0"])
def test_freq_refuses_a_table_that_cannot_fit_before_computing(tmp_path, monkeypatch, capsys,
                                                               argv, error):
    """A --kmax past m_cap, or an m_cap no value reaches: the trace is
    neither computed nor loaded, and the checkpoint is neither written nor
    extended."""
    trace = tmp_path / "t.qtr"
    assert main(["--data-dir", str(tmp_path), "compute", "--horizon", "1000",
                 "--trace", str(trace)]) == EXIT_OK
    before = trace.read_bytes()

    def obtain(*args):
        raise AssertionError("freq obtained a trace")

    monkeypatch.setattr(cli, "obtain_trace", obtain)
    capsys.readouterr()
    for path in (trace, tmp_path / "new.qtr"):
        code = main(["--data-dir", str(tmp_path), "freq", *argv, "--trace", str(path)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {error}\n"
    assert trace.read_bytes() == before
    assert list(tmp_path.iterdir()) == [trace]


@pytest.mark.parametrize("kmax,expected", [("5", EXIT_OK), ("6", EXIT_CONFIG)])
def test_freq_kmax_at_the_m_cap(tmp_path, capsys, kmax, expected):
    """m_cap = 2^6 - 1 holds blocks 0..5 whole."""
    code = main(["--data-dir", str(tmp_path), "freq", "--horizon", "1000", "--kmax", kmax,
                 "--m-cap", "63"])
    assert code == expected
    assert (tmp_path / f"freq_F_s1-1_alternating_w4_n1000_k{kmax}.dat").exists() == (
        expected == EXIT_OK)
    capsys.readouterr()


@pytest.mark.parametrize("m_cap", [10**15, 10**23])
def test_freq_rejects_an_m_cap_no_value_reaches(tmp_path, capsys, m_cap):
    """A 4-byte value is below 2^32, so m = (v+1)/2 stays at or below 2^31;
    a larger cap is refused before its slots are allocated."""
    code = main(["--data-dir", str(tmp_path), "freq", "--horizon", "1000", "--kmax", "3",
                 "--m-cap", str(m_cap)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: m_cap must be in [1, {2**31}], got {m_cap}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("message,line", [
    ("Unable to allocate 11.2 GiB for an array with shape (3000000001,) and data type uint32",
     "Unable to allocate 11.2 GiB for an array with shape (3000000001,) and data type uint32"),
    ("", "out of memory"),
], ids=["numpy", "bare"])
def test_memory_error_is_one_line_and_exit_2(tmp_path, monkeypatch, capsys, message, line):
    def out_of_memory(config, out=None):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run", out_of_memory)
    code = main(["--data-dir", str(tmp_path), "diagnose", "--series", "E",
                 "--horizon", "3000000000"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {line}\n"
    assert list(tmp_path.iterdir()) == []


def test_freq_rejects_negative_kmax_before_writing(tmp_path, capsys):
    code = main(["--data-dir", str(tmp_path / "out"), "freq", "--horizon", "1000",
                 "--kmax", "-1", "--trace", str(tmp_path / "out" / "t.qtr")])
    assert code == EXIT_CONFIG
    assert "kmax" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_freq_rejects_classical_values(tmp_path, capsys):
    code = main(["--data-dir", str(tmp_path), "freq", "--horizon", "1000",
                 "--kmax", "2", "--perturbation", "none"])
    assert code == EXIT_CONFIG
    assert "even value" in capsys.readouterr().err


# ------------------------------------------------------------- seeds

def test_seeds_survey_stdout_and_file(tmp_path, capsys):
    code = main(["--data-dir", str(tmp_path), "seeds",
                 "--length", "2", "--max-value", "2", "--horizon", "20000"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.startswith("seed ")]
    assert len(rows) == 4
    assert rows[0].startswith("seed 1,1 class original death - bad - shift 0 merge_n 1 growth 0.5")
    assert rows[1].startswith("seed 1,2 class weak_death death 5 bad t1 shift - merge_n - growth -")
    assert rows[2].startswith("seed 2,1 class long_lived_irregular death - bad -")
    assert rows[3].startswith("seed 2,2 class weak_death death 5 bad t1")

    survey_file = tmp_path / "seeds_len2_max2_h20000.txt"
    lines = read_lines(survey_file)
    assert lines[0].startswith("# seed survey length 2 entries 1..2 horizon 20000")
    assert lines[1:] == rows


def test_seeds_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["seeds", "--length", "2", "--max-value", "1",
                 "--horizon", "20000", "--no-file"])
    assert code == EXIT_OK
    assert "wrote" not in capsys.readouterr().out
    assert not (tmp_path / "qseq-data").exists()


def test_seeds_length_validation(capsys):
    with pytest.raises(SystemExit):
        main(["seeds", "--length", "5", "--no-file"])
    capsys.readouterr()


# ------------------------------------------------------------- verify

def test_verify_subset_passes(capsys):
    code = main(["verify", "--only", "1..3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "criterion 01 [PASS]" in out
    assert "criterion 02 [PASS]" in out
    assert "criterion 03 [PASS]" in out
    assert "criterion 04" not in out


def test_verify_growth_criterion_fails_honestly(capsys):
    code = main(["verify", "--only", "10"])
    out = capsys.readouterr().out
    assert code == 1
    assert "criterion 10 [FAIL]" in out
    assert "0.100914" in out


@pytest.mark.parametrize("only", ["0", "99", "12..14"])
def test_verify_rejects_unknown_criterion_numbers(only, capsys):
    # A typo'd number must not succeed vacuously with zero checks run.
    code = main(["verify", "--only", only])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "unknown criterion numbers" in err
    assert "1..13" in err


def test_verify_rejects_garbage_criterion_list(capsys):
    code = main(["verify", "--only", "banana"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "bad criterion list entry 'banana'" in err


@pytest.mark.parametrize("argv,message", [
    (["selfsim", "--horizon", "1000", "--levels", "5..1"], "bad level range '5..1'"),
    (["verify", "--only", "9..3"], "bad criterion range '9..3'"),
])
def test_a_reversed_range_is_reported_as_a_range(tmp_path, capsys, argv, message):
    code = main(["--data-dir", str(tmp_path / "data"), *argv])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_outputs_get_the_umask_mode(tmp_path, umask, capsys):
    previous = os.umask(umask)
    try:
        code = main(["--data-dir", str(tmp_path), "compute", "--horizon", "50", "--export"])
    finally:
        os.umask(previous)
    assert code == EXIT_OK
    written = {p.suffix: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert written == {".qtr": 0o666 & ~umask, ".dat": 0o666 & ~umask}
    capsys.readouterr()
