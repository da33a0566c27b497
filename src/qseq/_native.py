"""Bind the kernel of this process: ``_qkernel.c`` compiled, or its twin.

Tried in order, once, on import:

1. ``_qkernel.c`` compiled with the compiler and headers that ``sysconfig``
   reports, cached under ``$XDG_CACHE_HOME/qseq/<key>/`` (else
   ``~/.cache/qseq/<key>/``), where the key is a CRC of the C source, of
   this file (which holds the compile command) and of the interpreter ABI,
   so an edited source, another recipe or another Python compiles anew;
2. its pure-Python twin ``_pykernel``; ``reason`` says why, after one
   ``RuntimeWarning``.

Callers read ``kernel`` at each call; ``compiled`` is the C module or None.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from types import ModuleType

COMPILE_TIMEOUT_S = 120

# Status codes of the kernel's loops, as ``#define ST_*`` in _qkernel.c; the
# twin returns the same codes.
ST_OK = 0
ST_DEATH = 1
ST_OVERFLOW = 2
ST_PARITY = 3
ST_COUNT_OVERFLOW = 4

# The largest value advance writes, by slot width in bytes.  The 8-byte cap
# stays below 2**63, so a value reads the same as an int64, as the kernel's
# loops read it, and advance's unsigned sum of two values cannot wrap.
SLOT_CAPS = {4: 2**32 - 1, 8: 2**63 - 1}


class KernelBuildError(RuntimeError):
    """The C source could not be compiled here."""


def compile_kernel() -> Path:
    """Compile ``_qkernel.c`` into the cache (unless already there); return its path.

    The compiler writes into a temporary directory beside the target, and
    the result is renamed into place, so a concurrent process never loads
    half a file.
    """
    import zlib  # not hashlib: it loads OpenSSL, about 3.6 MB in every process
    from importlib.machinery import EXTENSION_SUFFIXES

    source = Path(__file__).with_name("_qkernel.c")
    suffix = EXTENSION_SUFFIXES[0]  # sysconfig's EXT_SUFFIX, without loading sysconfig
    recipe = source.read_bytes() + Path(__file__).read_bytes() + suffix.encode()
    key = f"{zlib.crc32(recipe):08x}"
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    target = cache / "qseq" / key / f"_qkernel{suffix}"
    if target.exists():
        return target
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cc = sysconfig.get_config_var("CC")
    if not cc:
        raise KernelBuildError("sysconfig reports no C compiler (CC)")
    include = sysconfig.get_paths()["include"]
    if not Path(include, "Python.h").exists():
        raise KernelBuildError(f"Python.h not found in {include}")
    target.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=target.parent) as tmp:
        built = Path(tmp, target.name)
        # the flags setuptools compiles an extension with: without CFLAGS
        # (-DNDEBUG among them), count_values ran about 8% slower; but no
        # debug info (-g0 overrides their -g), which took a fifth of the
        # compile's CPU time and changes no instruction
        flags = " ".join(sysconfig.get_config_var(name) or "" for name in ("CFLAGS", "CCSHARED"))
        cmd = [*shlex.split(cc), *shlex.split(flags), "-shared", "-O3", "-g0", f"-I{include}",
               str(source), "-o", str(built)]
        if sys.platform == "darwin":
            cmd += ["-undefined", "dynamic_lookup"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=COMPILE_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise KernelBuildError(f"{cmd[0]} ran over {COMPILE_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            raise KernelBuildError(f"{cmd[0]} exited with {proc.returncode}: {last}")
        os.replace(built, target)
    return target


def load_file(path: Path) -> ModuleType:
    """Load a compiled kernel from ``path`` as ``qseq._qkernel``."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("qseq._qkernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _find() -> tuple[ModuleType | None, str | None]:
    try:
        return load_file(compile_kernel()), None
    except (KernelBuildError, OSError, ImportError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


compiled, reason = _find()
kernel = compiled
if compiled is None:
    import warnings

    warnings.warn(f"qseq: the C kernel is unavailable ({reason}); using its "
                  "pure-Python twin, about 100x slower", RuntimeWarning)
    from . import _pykernel as kernel


def have_native_kernel() -> bool:
    """Whether calls go through the compiled C kernel, not its twin."""
    return kernel is compiled
