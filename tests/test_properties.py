"""Property-based checks: engine vs oracle, invariants, and round trips."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import oracle
from qseq import _native, _pykernel, checkpoint, cli
from qseq.cli import SeriesText, format_series_lines, write_text
from qseq.diagnostics import SERIES_CODES, Series, series, series_window
from qseq.engine import (
    Outcome,
    OutcomeKind,
    Perturbation,
    RecursionConfig,
    Seed,
    extend,
    run,
)
from qseq.errors import TraceStateError, ValueOverflowError
from qseq.frequency import build_frequency

seed_values = st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=4)
odd_seed_values = st.lists(
    st.integers(min_value=0, max_value=4).map(lambda k: 2 * k + 1),
    min_size=2,
    max_size=4,
)


def run_wide(vals, horizon, perturbation=Perturbation.ALTERNATING):
    """Run with 8-byte slots; discard the example if it still overflows."""
    config = RecursionConfig(seed=Seed(tuple(vals)), horizon=horizon,
                             perturbation=perturbation, width=8)
    try:
        return run(config)
    except ValueOverflowError:
        assume(False)


@settings(deadline=None, max_examples=60)
@given(vals=seed_values, horizon=st.integers(min_value=8, max_value=400),
       alternating=st.booleans())
def test_engine_matches_oracle(vals, horizon, alternating):
    perturbation = Perturbation.ALTERNATING if alternating else Perturbation.NONE
    trace = run_wide(vals, horizon, perturbation)
    q, death = oracle.naive_run(vals, horizon, alternating)
    assert [int(v) for v in trace.values[1:]] == q[1:]
    if death is None:
        assert trace.outcome.is_alive
    else:
        step, t1_bad, t2_bad = death
        assert trace.outcome.step == step
        assert trace.outcome.bad_t1 == t1_bad
        assert trace.outcome.bad_t2 == t2_bad
        expected = (OutcomeKind.STRONG_DEATH if step <= len(vals) + 2
                    else OutcomeKind.WEAK_DEATH)
        assert trace.outcome.kind is expected


@settings(deadline=None, max_examples=60)
@given(vals=odd_seed_values, horizon=st.integers(min_value=8, max_value=400))
def test_odd_seeds_keep_every_value_odd(vals, horizon):
    # odd + odd +/- 1 is odd again, so parity is preserved forever
    trace = run_wide(vals, horizon)
    assert (np.asarray(trace.values)[1:] % 2 == 1).all()


@settings(deadline=None, max_examples=60)
@given(vals=seed_values, h1=st.integers(min_value=8, max_value=150),
       extra=st.integers(min_value=0, max_value=150))
def test_extend_equals_fresh_run(vals, h1, extra):
    first = run_wide(vals, h1)
    h2 = h1 + extra
    if not first.outcome.is_alive:
        with pytest.raises(TraceStateError):
            extend(first, h2)
        return
    try:
        longer = extend(first, h2)
    except ValueOverflowError:
        assume(False)
    assert longer == run_wide(vals, h2)


@settings(deadline=None, max_examples=40)
@given(vals=seed_values, horizon=st.integers(min_value=8, max_value=200),
       width=st.sampled_from([4, 8]), alternating=st.booleans())
def test_checkpoint_round_trip(tmp_path_factory, vals, horizon, width, alternating):
    perturbation = Perturbation.ALTERNATING if alternating else Perturbation.NONE
    config = RecursionConfig(seed=Seed(tuple(vals)), horizon=horizon,
                             perturbation=perturbation, width=width)
    try:
        trace = run(config)
    except ValueOverflowError:
        assume(False)
    path = tmp_path_factory.mktemp("ckpt") / "trace.qtr"
    checkpoint.save(trace, path)
    first_bytes = path.read_bytes()
    assert checkpoint.load(path) == trace
    checkpoint.save(trace, path)
    assert path.read_bytes() == first_bytes


def reference_text(x, y, halves=False) -> bytes:
    """The series text, one f-string per row, halves through Decimal."""
    def x_txt(v):
        return str(int(v)) if x.dtype.kind in "iu" else f"{float(v):.8f}"

    def y_txt(v):
        if not halves:
            return str(int(v))
        with localcontext() as ctx:
            ctx.prec = 60
            return f"{Decimal(int(v)) / 2:.1f}"

    return "".join(f"{x_txt(a)} {y_txt(b)}\n" for a, b in zip(x, y)).encode()


def assert_exact(ser, x, y, halves=False):
    """format_series_lines(ser) equals reference_text, both through the C
    kernel and through its pure-Python twin."""
    assert _native.compiled is not None, "the C formatter is not loaded"
    expected = reference_text(x, y, halves)
    texts = {}
    for name, kernel in (("c", _native.compiled), ("python", _pykernel)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_native, "kernel", kernel)
            texts[name] = format_series_lines(ser)
    assert texts == {"c": expected, "python": expected}


int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1) | st.sampled_from(
    [0, 1, -1, 9, 10, -10, 2**62, -(2**62), 2**62 - 1, 1 - 2**62])
int_columns = st.lists(int64s, min_size=1, max_size=40).map(
    lambda v: np.array(v, dtype=np.int64))
positions = (
    st.floats(min_value=0, max_value=64, exclude_max=True)
    | st.floats(min_value=-64, max_value=0)
    | st.integers(min_value=0, max_value=64 * 512 - 1).map(lambda k: k / 512)
    | st.integers(min_value=1, max_value=999999).map(lambda m: m / 999999)
    | st.builds(lambda k, j: k / 2**j, st.integers(0, 2**20), st.integers(14, 40))
    | st.integers(min_value=0, max_value=64 * 10**8 - 1).map(lambda k: float(f"{k}5e-9"))
)
float_columns = st.lists(positions, min_size=1, max_size=40).map(np.array)


@given(doubled=int_columns)
def test_half_integer_formatting_is_exact(doubled):
    x = np.arange(1, doubled.size + 1)
    assert_exact(Series(x, doubled, halves=True), x, doubled, halves=True)


@given(x=int_columns, data=st.data())
def test_integer_columns_are_exact(x, data):
    y = data.draw(st.lists(int64s, min_size=x.size, max_size=x.size))
    y = np.array(y, dtype=np.int64)
    assert_exact(Series(x, y), x, y)


@given(x=float_columns, halves=st.booleans(), data=st.data())
def test_float_positions_are_exact(x, halves, data):
    y = np.array(data.draw(st.lists(int64s, min_size=x.size, max_size=x.size)),
                 dtype=np.int64)
    assert_exact(Series(x, y, halves=halves), x, y, halves)


def test_near_tie_positions_follow_python():
    """Doubles nearest to a decimal tie (k + 0.5) / 1e8, where rint(x * 1e8)
    is wrong for many, must still match f"{x:.8f}"."""
    x = np.array([float(f"{k}5e-9") for k in range(0, 64 * 10**8, 3_200_017)])
    python_fixed = [int(f"{v:.8f}".replace(".", "")) for v in x]
    assert np.count_nonzero(np.rint(x * 1e8) != python_fixed) > 100
    y = np.arange(x.size, dtype=np.int64)
    assert_exact(Series(x, y), x, y)


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(block=st.integers(min_value=1, max_value=9), rows=st.integers(0, 60),
       floats=st.booleans())
def test_blocks_stream_the_whole_text(block, rows, floats, monkeypatch,
                                      tmp_path_factory):
    monkeypatch.setattr(cli, "BLOCK_ROWS", block)
    y = np.arange(rows, dtype=np.int64) * 37 - 500
    x = np.arange(1, rows + 1) / max(rows, 1) if floats else np.arange(1, rows + 1)
    expected = reference_text(x, y, halves=True)
    text = SeriesText.of(x, y, halves=True)
    assert len(text) == -(-rows // block)
    assert b"".join(text) == expected
    path = tmp_path_factory.mktemp("blocks") / "series.dat"
    write_text(path, text)
    assert path.read_bytes() == expected
    ranged = SeriesText.of(range(1, rows + 1), y)
    assert b"".join(ranged) == reference_text(np.arange(1, rows + 1), y)


@given(vals=seed_values)
def test_seed_text_round_trip(vals):
    seed = Seed(tuple(vals))
    assert Seed.parse(str(seed)) == seed


@settings(deadline=None, max_examples=40)
@given(code=st.sampled_from([c for c in SERIES_CODES if c != "G"]),
       data=st.data())
def test_series_windows_are_slices_of_the_full_series(short_trace, code, data):
    d_lo, d_hi = series_window(short_trace.len, code)
    lo = data.draw(st.integers(min_value=d_lo, max_value=d_hi))
    hi = data.draw(st.integers(min_value=lo, max_value=d_hi))
    full = series(short_trace, code)
    window = series(short_trace, code, lo, hi)
    assert window.halves == full.halves
    assert np.array_equal(window.x, np.arange(lo, hi + 1))
    assert np.array_equal(window.y, full.y[lo - d_lo : hi - d_lo + 1])


@settings(deadline=None, max_examples=40)
@given(vals=odd_seed_values,
       horizon=st.integers(min_value=8, max_value=255),
       m_cap=st.integers(min_value=1, max_value=300))
def test_frequency_conservation(vals, horizon, m_cap):
    trace = run_wide(vals, horizon)
    table = build_frequency(trace, m_cap=m_cap)
    counts, late = np.asarray(table.counts), np.asarray(table.late_counts)
    counted = int(counts.sum(dtype=np.int64))
    assert counted + table.overflow_count == trace.len
    h = trace.len // 2
    exp_late, _, _ = oracle.frequency(np.asarray(trace.values).tolist()[h:], trace.len - h, m_cap)
    assert late.tolist() == exp_late

    values = np.asarray(trace.values)[1 : trace.len + 1].astype(np.int64)
    m = (values + 1) // 2
    probe = int(np.clip(m[0], 1, m_cap))
    assert counts[probe] == int((m == probe).sum())
