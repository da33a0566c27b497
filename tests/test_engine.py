"""Engine behaviour against known prefixes and the naive oracle."""

import os
import re
import shutil
import subprocess
import sys
import sysconfig
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import frozen_values as frozen
import oracle
from qseq import _native, _pykernel, engine
from qseq.engine import (
    Outcome,
    OutcomeKind,
    Perturbation,
    RecursionConfig,
    Seed,
    extend,
    run,
)
from qseq.errors import ConfigError, RangeError, TraceStateError, ValueOverflowError


def values_list(trace):
    return [int(v) for v in trace.values[1:]]


def test_native_kernel_is_built():
    assert _native.have_native_kernel(), _native.reason


def test_status_codes_match_the_kernel_source():
    source = Path(_native.__file__).with_name("_qkernel.c").read_text()
    in_c = {name: int(code) for name, code in
            re.findall(r"^#define (ST_\w+) (\d+)$", source, flags=re.MULTILINE)}
    in_python = {name: code for name, code in vars(_native).items() if name.startswith("ST_")}
    assert in_c == in_python
    assert len(in_c) == 5


def test_first_twenty_values():
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=20))
    assert values_list(trace) == frozen.FIRST_20_SEED_11


def test_classical_mode_first_twenty():
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=20,
                                perturbation=Perturbation.NONE))
    assert values_list(trace) == frozen.CLASSICAL_FIRST_20


def test_other_seed_prefix():
    trace = run(RecursionConfig(seed=Seed((2, 1)), horizon=20))
    assert values_list(trace) == frozen.FIRST_20_SEED_21


def test_large_scale_endpoints(main_trace):
    assert main_trace.value_at(10**6) == frozen.Q_AT_1E6
    assert main_trace.value_at(10**7) == frozen.Q_AT_1E7


def test_horizon_shorter_than_first_step():
    trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=2))
    assert values_list(trace) == [1, 1]
    assert trace.outcome.is_alive


@pytest.mark.parametrize("seed", [(1, 1), (2, 1), (1, 2, 1), (3, 1, 2), (2, 2, 2)])
def test_matches_oracle_across_seeds(seed):
    expected_q, expected_death = oracle.naive_run(seed, 3000)
    trace = run(RecursionConfig(seed=Seed(seed), horizon=3000))
    assert values_list(trace) == expected_q[1:]
    if expected_death is None:
        assert trace.outcome.is_alive
    else:
        step, bad1, bad2 = expected_death
        assert trace.outcome.step == step
        assert trace.outcome.bad_t1 == bad1
        assert trace.outcome.bad_t2 == bad2


def test_weak_death_values_frozen():
    trace = run(RecursionConfig(seed=Seed((1, 2, 1)), horizon=100))
    assert values_list(trace) == frozen.SEED_121_VALUES
    step, bad1, bad2 = frozen.SEED_121_DEATH
    assert trace.outcome.kind is OutcomeKind.WEAK_DEATH
    assert (trace.outcome.step, trace.outcome.bad_t1, trace.outcome.bad_t2) == (step, bad1, bad2)


def test_strong_death_is_earliest_possible():
    trace = run(RecursionConfig(seed=Seed((2, 2, 2)), horizon=100))
    assert trace.outcome.kind is OutcomeKind.STRONG_DEATH
    assert trace.outcome.step == 5
    assert trace.outcome.bad_indices == ("t1",)
    assert trace.len == 4


def test_two_value_seed_death_is_weak():
    # with a length-2 seed the recursion manages two steps before step 5,
    # so a death there falls on the weak side of the cut
    for seed, death in (((1, 2), frozen.SEED_12_DEATH), ((2, 2), frozen.SEED_22_DEATH)):
        trace = run(RecursionConfig(seed=Seed(seed), horizon=100))
        assert trace.outcome.kind is OutcomeKind.WEAK_DEATH
        assert trace.outcome.step == death[0]


def test_death_taxonomy_cut():
    assert Outcome.death(5, 3, True, False).kind is OutcomeKind.STRONG_DEATH
    assert Outcome.death(6, 3, True, False).kind is OutcomeKind.WEAK_DEATH
    assert Outcome.death(4, 2, False, True).kind is OutcomeKind.STRONG_DEATH
    assert Outcome.death(5, 2, True, True).kind is OutcomeKind.WEAK_DEATH


def test_seed_validation():
    with pytest.raises(ConfigError):
        Seed((1,))
    with pytest.raises(ConfigError):
        Seed((1,) * 9)
    with pytest.raises(ConfigError):
        Seed((1, 0))
    with pytest.raises(ConfigError):
        Seed((1, -3))
    with pytest.raises(ConfigError):
        Seed((1, True))
    with pytest.raises(ConfigError):
        Seed.parse("1,x")
    assert Seed.parse("3,1,2").values == (3, 1, 2)
    assert str(Seed((3, 1, 2))) == "3,1,2"


def test_config_validation():
    with pytest.raises(ConfigError):
        RecursionConfig(seed=Seed((1, 1)), horizon=1)
    with pytest.raises(ConfigError):
        RecursionConfig(seed=Seed((1, 1)), horizon=10, width=3)
    with pytest.raises(ConfigError):
        RecursionConfig(seed=Seed((1, 2**40)), horizon=10, width=4)
    cfg = RecursionConfig(seed=Seed((1, 2**40)), horizon=10, width=8)
    assert cfg.cap == 2**63 - 1


def test_widths_agree():
    narrow = run(RecursionConfig(seed=Seed((1, 1)), horizon=4000, width=4))
    wide = run(RecursionConfig(seed=Seed((1, 1)), horizon=4000, width=8))
    assert values_list(narrow) == values_list(wide)
    assert np.asarray(narrow.values).dtype == np.dtype("<u4")
    assert np.asarray(wide.values).dtype == np.dtype("<u8")


def test_value_overflow_detected():
    # a seed arranged so step 5 reads back both huge entries:
    # t1(5) = 5 - Q(4) = 1 and t2(5) = 5 - Q(3) = 2
    seed = (2**31, 2**31 + 1, 3, 4)
    expected = oracle.naive_run(seed, 5)[0][5]
    assert expected > 2**32 - 1
    with pytest.raises(ValueOverflowError, match="width=8"):
        run(RecursionConfig(seed=Seed(seed), horizon=5, width=4))
    wide = run(RecursionConfig(seed=Seed(seed), horizon=5, width=8))
    assert wide.value_at(5) == expected


def test_trace_accessors(short_trace):
    assert short_trace.len == 5000
    assert len(short_trace) == 5000
    assert short_trace.value_at(1) == 1
    assert short_trace.values[0] == 0  # 1-based storage, slot 0 unused
    with pytest.raises(RangeError):
        short_trace.value_at(0)
    with pytest.raises(RangeError):
        short_trace.value_at(5001)
    with pytest.raises(TypeError):
        short_trace.values[3] = 7  # read-only view


def test_trace_equality_and_repr(short_trace):
    same = run(RecursionConfig(seed=Seed((1, 1)), horizon=5000))
    assert same == short_trace
    assert hash(same) == hash(short_trace)
    other = run(RecursionConfig(seed=Seed((2, 1)), horizon=5000))
    assert other != short_trace
    assert "alive" in repr(short_trace)


def test_extend_matches_fresh_run():
    stub = run(RecursionConfig(seed=Seed((1, 1)), horizon=5000))  # several pages
    grown = extend(stub, 10000)
    fresh = run(RecursionConfig(seed=Seed((1, 1)), horizon=10000))
    assert grown == fresh
    assert stub == run(RecursionConfig(seed=Seed((1, 1)), horizon=5000))  # left as it was
    assert extend(grown, 500) == grown  # never shrinks


def test_run_and_extend_fill_a_given_buffer_but_never_slot_0():
    """A buffer's slot 0 is left as it was: in a checkpoint's temp file it
    holds the last seed bytes.  A death is a view of the buffer."""
    config = RecursionConfig(seed=Seed((3, 1, 2)), horizon=1000)
    fresh = run(config).values
    out = np.full(config.horizon + 1, 7, dtype=config.dtype)
    assert run(config, out).values.obj is out
    assert out[0] == 7 and np.array_equal(out[1:], fresh[1:])
    out = np.full(config.horizon + 1, 7, dtype=config.dtype)
    assert extend(run(replace(config, horizon=100)), 1000, out).values.obj is out
    assert out[0] == 7 and np.array_equal(out[1:], fresh[1:])
    dead_config = RecursionConfig(seed=Seed((1, 2, 1)), horizon=100)
    out = np.zeros(101, dtype=dead_config.dtype)
    dead = run(dead_config, out)
    assert dead == run(dead_config) and np.shares_memory(dead.values, out)
    for wrong in (np.zeros(1000, config.dtype), np.zeros(1001, np.uint64)):
        with pytest.raises(ValueError, match="out must be 1001 slots of uint32"):
            run(config, wrong)


def test_extend_dead_trace_rejected():
    dead = run(RecursionConfig(seed=Seed((2, 2, 2)), horizon=100))
    with pytest.raises(TraceStateError):
        extend(dead, 1000)


def test_run_through_each_kernel(kernel):
    """run and extend reach whichever kernel _native binds, with one result."""
    assert _native.have_native_kernel() is (kernel is _native.compiled)
    live = run(RecursionConfig(seed=Seed((1, 1)), horizon=2000))
    q, death = oracle.naive_run((1, 1), 2000)
    assert death is None and values_list(live) == q[1:]
    assert extend(run(RecursionConfig(seed=Seed((1, 1)), horizon=500)), 2000) == live
    dead = run(RecursionConfig(seed=Seed((1, 2, 1)), horizon=2000))
    assert values_list(dead) == frozen.SEED_121_VALUES
    assert dead.outcome.step == frozen.SEED_121_DEATH[0]
    with pytest.raises(ValueOverflowError):
        run(RecursionConfig(seed=Seed((2**31, 2**31 + 1, 3, 4)), horizon=5, width=4))


def test_python_fallback_agrees(monkeypatch):
    """The pure-Python twin gives the C kernel's trace, live or dead."""
    monkeypatch.setattr(_native, "kernel", _pykernel)
    assert not _native.have_native_kernel()
    pure = run(RecursionConfig(seed=Seed((1, 1)), horizon=2000))
    pure_dead = run(RecursionConfig(seed=Seed((1, 2, 1)), horizon=2000))
    monkeypatch.undo()
    assert run(RecursionConfig(seed=Seed((1, 1)), horizon=2000)) == pure
    assert values_list(pure_dead) == frozen.SEED_121_VALUES
    assert pure_dead.outcome.step == frozen.SEED_121_DEATH[0]


def test_python_fallback_overflow(monkeypatch):
    monkeypatch.setattr(_native, "kernel", _pykernel)
    with pytest.raises(ValueOverflowError):
        run(RecursionConfig(seed=Seed((2**31, 2**31 + 1, 3, 4)), horizon=5, width=4))


needs_compiler = pytest.mark.skipif(
    sysconfig.get_config_var("CC") is None
    or not Path(sysconfig.get_paths()["include"], "Python.h").exists(),
    reason="needs a C compiler and Python headers",
)


@needs_compiler
def test_kernel_compiles_into_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    path = _native.compile_kernel()
    assert path.parent.parent == tmp_path / "qseq"
    assert _native.compile_kernel() == path
    assert [p.name for p in path.parent.iterdir()] == [path.name]
    module = _native.load_file(path)
    assert all(callable(getattr(module, entry))
               for entry in ("advance", "count_values", "format_rows"))
    config = RecursionConfig(seed=Seed((1, 1)), horizon=2000)
    monkeypatch.setattr(_native, "kernel", _pykernel)
    pure = run(config)
    monkeypatch.setattr(_native, "kernel", module)
    assert run(config) == pure


@needs_compiler
def test_concurrent_first_imports_all_load_the_kernel(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path),
               PYTHONPATH=str(Path(engine.__file__).parents[1]))
    probe = "from qseq import _native; print(_native.have_native_kernel(), _native.reason)"
    procs = [subprocess.Popen([sys.executable, "-c", probe], env=env,
                              stdout=subprocess.PIPE, text=True) for _ in range(3)]
    outputs = [proc.communicate(timeout=120)[0] for proc in procs]
    assert outputs == ["True None\n"] * 3
    assert all(len(list(d.iterdir())) == 1 for d in (tmp_path / "qseq").iterdir())


def gcc_has_ubsan() -> bool:
    gcc = shutil.which("gcc")
    if gcc is None:
        return False
    found = subprocess.run([gcc, "-print-file-name=libubsan.so"], capture_output=True,
                           text=True, timeout=60).stdout.strip()
    return Path(found).is_absolute()


UBSAN_OVERFLOW = """
import importlib.util, sys
from array import array
spec = importlib.util.spec_from_file_location("qseq._qkernel", sys.argv[1])
kernel = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernel)
print(kernel.advance(array("Q", [0, 2**63 - 1, 2, 3, 4, 0, 0, 0]), 5, True)[0])
"""


@pytest.mark.skipif(not gcc_has_ubsan(), reason="gcc has no libubsan")
def test_advance_overflows_without_undefined_behaviour(tmp_path):
    """Built with UBSan and without the -fwrapv of sysconfig's CFLAGS,
    advance reports an 8-byte overflow, Q(1) + Q(2) = 2^63 + 1, as
    ST_OVERFLOW and UBSan reports nothing on the way.  The build goes to
    tmp_path, never into the kernel cache the loader reads."""
    source = Path(_native.__file__).with_name("_qkernel.c")
    built = tmp_path / "_qkernel.so"
    subprocess.run(["gcc", "-shared", "-fPIC", "-O1", "-fsanitize=undefined",
                    "-fno-sanitize-recover=all", f"-I{sysconfig.get_paths()['include']}",
                    str(source), "-o", str(built)], check=True, capture_output=True, timeout=120)
    proc = subprocess.run([sys.executable, "-c", UBSAN_OVERFLOW, str(built)],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{_native.ST_OVERFLOW}\n", "")
