"""The package namespace, and what importing the package and its CLI loads.

The fresh-interpreter tests run ``python -c`` with PYTHONPATH at this
source tree, so sys.modules shows what one import costs a new process.
"""

import ast
import importlib
import inspect
import json
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import types
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest

import qseq
from qseq import _native, checkpoint
from qseq.engine import RecursionConfig, Seed, run

SRC = str(Path(qseq.__file__).parents[1])
# Modules only the checklist, the seed survey and the frequency layer need.
NOT_FOR_THE_CLI = ("qseq.verify", "qseq.seedlab", "qseq.frequency",
                   "subprocess", "json", "fractions")


def fresh(code: str, **env: str) -> list[str]:
    """The stdout lines of code run in a new interpreter on this tree, or on
    the tree env's PYTHONPATH names."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC, **env}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_all_names_resolve():
    for name in qseq.__all__:
        assert hasattr(qseq, name), name


def test_all_is_the_set_of_public_imports():
    table = ast.parse(Path(qseq.__file__).read_text()).body
    home = next(node.value for node in table if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["_HOME"])
    names = [key.value for key in home.keys]
    assert len(names) == len(set(names))
    assert qseq.__all__ == names
    for name in names:
        module = importlib.import_module(f"qseq.{qseq._HOME[name]}")
        value = getattr(qseq, name)
        assert value is getattr(module, name), name
        assert getattr(value, "__module__", module.__name__) == module.__name__, name
    public = {name for name, value in vars(qseq).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(names)
    assert set(names) <= set(dir(qseq))


def test_an_unknown_name_is_an_attribute_error():
    assert not hasattr(qseq, "no_such_name")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qseq.no_such_name


def test_the_cli_loads_no_checklist_survey_or_frequency_module():
    """Nor NumPy; the diagnostics, which need none, give argparse the series codes."""
    loaded = set(fresh("import sys, qseq.cli; print('\\n'.join(sys.modules))"))
    unwanted = {"numpy", *NOT_FOR_THE_CLI}
    assert loaded.isdisjoint(unwanted), loaded & unwanted
    assert "qseq.diagnostics" in loaded


def loads_numpy(tmp_path, verb: str, *args: str, before: str = "",
                **env: str) -> tuple[list[str], bool]:
    """qseq verb with args run by main in a new interpreter, after the code
    before: its stdout lines, and whether NumPy was loaded by the end."""
    argv = ["--data-dir", str(tmp_path), verb, *args]
    *out, last = fresh(f"import sys; from qseq.cli import main\n{before}\n"
                       f"assert main({argv!r}) == 0\n"
                       "print('numpy' in sys.modules)", **env)
    return out, last == "True"


def test_compute_without_export_loads_no_numpy(tmp_path):
    """Fresh, reused, extended, then replaced by another width, each in a new
    interpreter: none loads NumPy."""
    trace = tmp_path / "t.qtr"
    for horizon, width, said in [(1000, 4, "wrote checkpoint {} (1000 values)"),
                                 (500, 4, "reusing checkpoint {}"),
                                 (3000, 4, "wrote checkpoint {} (3000 values)"),
                                 (3000, 8, "wrote checkpoint {} (3000 values)")]:
        out, numpy_loaded = loads_numpy(tmp_path, "compute", "--horizon", str(horizon),
                                        "--width", str(width), "--trace", str(trace))
        assert out == [said.format(trace)]
        assert not numpy_loaded, (horizon, width)


@pytest.mark.parametrize("verb,args,written", [
    ("compute", ("--export",), "values_*_n3000.dat"),
    ("diagnose", ("--series", "E"), "series_E_*.dat"),
    ("diagnose", ("--series", "D", "--lo", "5", "--hi", "900"), "series_D_*.dat"),
    ("diagnose", ("--series", "G", "--samples-per-octave", "8"), "series_G_*.dat"),
    ("diagnose", ("--series", "S"), "series_S_*.dat"),
    ("selfsim", ("--levels", "0..3"), "selfsim_k3_*.dat"),
], ids=["compute-export", "diagnose-E", "diagnose-D-window", "diagnose-G", "diagnose-S",
        "selfsim"])
def test_the_text_verbs_load_no_numpy(tmp_path, verb, args, written):
    """Each writes its text from a checkpoint in a new interpreter without
    loading NumPy: the kernel evaluates the series and formats it."""
    trace = tmp_path / "t.qtr"
    loads_numpy(tmp_path, "compute", "--horizon", "3000", "--trace", str(trace))
    _, numpy_loaded = loads_numpy(tmp_path, verb, *args, "--horizon", "3000",
                                  "--trace", str(trace))
    assert not numpy_loaded
    [path] = tmp_path.glob(written)
    assert path.stat().st_size > 0


def test_no_module_imports_numpy():
    """NumPy is a test dependency only: no module of the package imports
    it, and pyproject.toml does not require it."""
    package = Path(qseq.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.partition(".")[0] == "numpy"]
    assert found == []
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())["project"]
    assert not [dep for dep in project["dependencies"] if dep.startswith("numpy")]


@pytest.mark.parametrize("argv,said", [
    (("freq", "--horizon", "3000", "--kmax", "9"), "wrote {}/freq_F_s1-1_alternating_w4_n3000_k9.dat"
                                                   " (1023 lines)"),
    (("seeds", "--horizon", "20000"), "wrote {}/seeds_len3_max3_h20000.txt"),
    (("verify", "--only", "1..9,11,13"), "11 of 11 criteria passed"),
], ids=["freq", "seeds", "verify-without-12"])
def test_the_analysis_verbs_load_no_numpy(tmp_path, argv, said):
    """freq, seeds and verify's own process (criterion 12's child is pinned
    below) read buffers, and the kernel checks parity and the identities."""
    out, numpy_loaded = loads_numpy(tmp_path, *argv)
    assert out[-1] == said.format(tmp_path)
    assert not numpy_loaded


def test_freq_from_a_checkpoint_loads_no_numpy(tmp_path):
    trace = tmp_path / "t.qtr"
    loads_numpy(tmp_path, "compute", "--horizon", "6000", "--trace", str(trace))
    out, numpy_loaded = loads_numpy(tmp_path, "freq", "--horizon", "3000", "--kmax", "9",
                                    "--trace", str(trace))
    assert out[0] == f"wrote {tmp_path}/freq_report_s1-1_alternating_w4_n3000.txt"
    assert not numpy_loaded


@pytest.mark.parametrize("argv,said", [
    (("freq", "--horizon", "2000", "--kmax", "8"), "wrote {}/freq_F_s1-1_alternating_w4_n2000_k8.dat"
                                                   " (511 lines)"),
    (("seeds", "--length", "2", "--max-value", "2", "--horizon", "2000"),
     "wrote {}/seeds_len2_max2_h2000.txt"),
    (("verify", "--only", "1..3"), "3 of 3 criteria passed"),
], ids=["freq", "seeds", "verify"])
def test_the_twin_runs_the_analysis_verbs_without_numpy(tmp_path, argv, said):
    blocker = tmp_path / "cache"
    blocker.write_text("a file, so the cache directory cannot be made\n")
    out, numpy_loaded = loads_numpy(tmp_path, *argv, XDG_CACHE_HOME=str(blocker))
    assert out[-1] == said.format(tmp_path)
    assert not numpy_loaded


def test_the_twin_computes_without_numpy(tmp_path, monkeypatch):
    """In chunks of CHUNK = 256 slots, into the file the C kernel writes in
    one pass under the same CHUNK."""
    blocker = tmp_path / "cache"
    blocker.write_text("a file, so the cache directory cannot be made\n")
    out, numpy_loaded = loads_numpy(
        tmp_path, "compute", "--horizon", "2000", "--trace", str(tmp_path / "t.qtr"),
        before="from qseq import checkpoint; checkpoint.CHUNK = 256",
        XDG_CACHE_HOME=str(blocker))
    assert out == [f"wrote checkpoint {tmp_path / 't.qtr'} (2000 values)"]
    assert not numpy_loaded
    monkeypatch.setattr(checkpoint, "CHUNK", 256)
    checkpoint.save(run(RecursionConfig(seed=Seed((1, 1)), horizon=2000)), tmp_path / "c.qtr")
    assert (tmp_path / "t.qtr").read_bytes() == (tmp_path / "c.qtr").read_bytes()


def test_the_twin_writes_text_without_numpy(tmp_path):
    """Its linear_series and format_rows need no NumPy either."""
    blocker = tmp_path / "cache"
    blocker.write_text("a file, so the cache directory cannot be made\n")
    out, numpy_loaded = loads_numpy(tmp_path, "diagnose", "--series", "E", "--horizon", "2000",
                                    XDG_CACHE_HOME=str(blocker))
    assert out == [f"wrote {tmp_path}/series_E_s1-1_alternating_w4_n2000.dat (2000 lines)"]
    assert not numpy_loaded


def test_the_perf_probe_child_loads_no_numpy_or_checklist():
    stats, loaded = fresh("import sys; from qseq.perfprobe import perf_probe; perf_probe(1000);"
                          " print(sorted(m for m in ('numpy', 'qseq.diagnostics', 'qseq.verify',"
                          " 'qseq.seedlab', 'qseq.frequency') if m in sys.modules))")
    assert json.loads(stats)["kernel"] in ("native", "python")
    assert loaded == "[]"


def test_import_qseq_loads_only_the_kernel_binding():
    kernel, *loaded = fresh("import sys, qseq; print(qseq._native.kernel.__name__);"
                            " print('\\n'.join(sys.modules))")
    assert {m for m in loaded if m.split(".")[0] == "qseq"} == {"qseq", "qseq._native", kernel}


def test_the_cache_key_suffix_is_sysconfigs():
    assert EXTENSION_SUFFIXES[0] == sysconfig.get_config_var("EXT_SUFFIX")


@pytest.mark.skipif(_native.compiled is None, reason="needs the kernel in the compile cache")
def test_a_cache_hit_runs_no_compiler_machinery():
    out = fresh("import sys, qseq; print(qseq.have_native_kernel(), [m for m in"
                " ('subprocess', 'shlex', 'sysconfig', 'hashlib', '_hashlib')"
                " if m in sys.modules])")
    assert out == ["True []"]


def test_import_warns_once_when_the_kernel_cannot_be_cached(tmp_path):
    blocker = tmp_path / "cache"
    blocker.write_text("a file, so the cache directory cannot be made\n")
    out = fresh(
        "import warnings\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    import qseq, qseq.cli\n"
        "    qseq.run, qseq.build_frequency, qseq.run_criteria\n"
        "print(qseq.have_native_kernel())\n"
        "for w in caught:\n"
        "    if w.category is RuntimeWarning: print(w.message)\n",
        XDG_CACHE_HOME=str(blocker))
    assert out[0] == "False"
    assert len(out) == 2 and "pure-Python twin" in out[1], out


@pytest.mark.skipif(_native.compiled is None, reason="compares with the compiled kernel")
def test_a_compiler_that_fails_leaves_one_warning_and_the_twin(tmp_path):
    """With an empty cache, and sysconfig's CC found on PATH as a script
    that prints a line and exits 1, import warns once with that line and
    binds the twin, which writes the checkpoint the C kernel writes."""
    cc = shlex.split(sysconfig.get_config_var("CC"))[0]
    if os.path.isabs(cc):
        pytest.skip(f"CC is the absolute path {cc}, which PATH cannot shadow")
    bin_dir, cache, trace = tmp_path / "bin", tmp_path / "cache", tmp_path / "t.qtr"
    bin_dir.mkdir()
    cache.mkdir()
    (bin_dir / cc).write_text("#!/bin/sh\necho 'cc1: fatal error: no kernel today' >&2\nexit 1\n")
    (bin_dir / cc).chmod(0o755)
    out = fresh(
        "import warnings\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    import qseq\n"
        "    from qseq.cli import main\n"
        "print(qseq.have_native_kernel())\n"
        "for w in caught:\n"
        "    print(w.category.__name__, w.message)\n"
        f"assert main(['compute', '--horizon', '2000', '--trace', {str(trace)!r}]) == 0\n",
        XDG_CACHE_HOME=str(cache), PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    assert out[:2] == ["False", "RuntimeWarning qseq: the C kernel is unavailable"
                       f" (KernelBuildError: {cc} exited with 1: cc1: fatal error: no kernel"
                       " today); using its pure-Python twin, about 100x slower"]
    assert out[2:] == [f"wrote checkpoint {trace} (2000 values)"]
    checkpoint.save(run(RecursionConfig(seed=Seed((1, 1)), horizon=2000)), tmp_path / "c.qtr")
    assert trace.read_bytes() == (tmp_path / "c.qtr").read_bytes()


def check_an_edit_compiles_under_a_new_key(tmp_path, name: str, comment: str) -> None:
    """A copy of the package with comment appended to its file name compiles
    into another key directory of the same cache."""
    copy = tmp_path / "src" / "qseq"
    shutil.copytree(Path(SRC, "qseq"), copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / name, "a") as fh:
        fh.write(f"{comment}\n")
    cache = tmp_path / "cache"
    paths = [Path(*fresh("from qseq import _native; print(_native.compile_kernel())",
                         PYTHONPATH=tree, XDG_CACHE_HOME=str(cache)))
             for tree in (SRC, str(copy.parent))]
    assert [path.parent.parent for path in paths] == [cache / "qseq"] * 2
    assert paths[0].parent != paths[1].parent


@pytest.mark.skipif(_native.compiled is None, reason="needs a C compiler and Python headers")
def test_an_edited_source_compiles_under_a_new_key(tmp_path):
    check_an_edit_compiles_under_a_new_key(tmp_path, "_qkernel.c", "/* one more line */")


@pytest.mark.skipif(_native.compiled is None, reason="needs a C compiler and Python headers")
def test_an_edited_compile_recipe_compiles_under_a_new_key(tmp_path):
    """_native.py holds the compile command, so its bytes are in the key."""
    check_an_edit_compiles_under_a_new_key(tmp_path, "_native.py", "# one more line")


@pytest.mark.skipif(_native.compiled is None, reason="needs a C compiler and Python headers")
def test_the_built_package_loads_the_kernel_it_compiles_into_the_cache(tmp_path):
    """Built as perfbench builds it, qseq ships _qkernel.c and compiles it on
    first import; a _qkernel module beside it is never loaded.  Nothing is
    written in the checkout."""
    root = Path(SRC).parent

    def checkout():
        return {p for p in root.rglob("*") if ".git" not in p.relative_to(root).parts}

    before = checkout()
    subprocess.run([sys.executable, "setup.py", "-q", "egg_info", "--egg-base", str(tmp_path),
                    "build", "--build-base", str(tmp_path)],
                   cwd=root, capture_output=True, check=True, timeout=300)
    assert checkout() == before
    [lib] = tmp_path.glob("lib*")
    shipped = Path(lib, "qseq", "_qkernel.c").read_bytes()
    assert shipped == Path(SRC, "qseq", "_qkernel.c").read_bytes()
    planted = lib / "qseq" / "_qkernel.py"
    planted.write_text("from qseq._pykernel import advance, count_values, format_rows\n")
    cache = tmp_path / "cache"
    native, loaded, planted_loaded = fresh(
        "import sys; from qseq import _native; print(_native.have_native_kernel());"
        " print(_native.kernel.__file__); print(any(getattr(m, '__file__', None)"
        f" == {str(planted)!r} for m in list(sys.modules.values())))",
        PYTHONPATH=str(lib), XDG_CACHE_HOME=str(cache))
    assert native == "True"
    assert Path(loaded).parent.parent == cache / "qseq"
    assert planted_loaded == "False"


PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_the_bench_tracer_finds_its_targets_and_their_arguments(tmp_path):
    """perfbench/tracer.py wraps functions by name and reads their arguments
    by name, so a rename fails here rather than in a traced bench run.

    Two traced computes, each in a fresh interpreter: a run, then an
    extension.  instrument() raises on a target the program lacks; the
    spans' details come from the arguments config, trace and path.  Nothing
    under perfbench/ is written.
    """
    from qseq import checkpoint, engine

    for fn, name in ((engine.run, "config"), (engine.extend, "trace"),
                     (checkpoint.save, "path")):
        assert name in inspect.signature(fn).parameters, (fn, name)
    trace_path = tmp_path / "t.qtr"
    for horizon in (1000, 3000):
        spans_path = tmp_path / f"spans{horizon}.json"
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "tracer.py"), str(spans_path), "--data-dir",
             str(tmp_path), "compute", "--horizon", str(horizon), "--trace", str(trace_path)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1"))
        assert proc.returncode == 0, proc.stderr
        spans = {span["name"]: span for span in json.loads(spans_path.read_text())}
        computed = spans["engine.run" if horizon == 1000 else "engine.extend"]
        assert computed["parent"] == spans["cli.obtain_trace"]["id"]
        assert computed["terms"] == (998 if horizon == 1000 else 2000)
        assert spans["checkpoint.save"]["bytes"] == trace_path.stat().st_size
