"""The three workloads, each a list of qseq CLI invocations for one pass.

All three are closed loop with one client: the next op starts when the
previous one has exited.  The seed permutes independent ops and places the
narrow diagnose window on ``session``; it never changes which work is done.

* emit     mostly text output from one warm checkpoint at 10^6: this is where
           the time goes today, and where a faster writer would act.  (At
           10^7 one pass takes about a minute, too long for a run.)
* analyze  mostly compute, under 1 MB of text: kernel, frequency, seed survey,
           the identity checks and process start-up.  A text formatter should
           not move it.
* session  one ``--trace`` checkpoint reused at mixed horizons, so loads run
           beside writes: the only workload where trace-store policy decides
           the work.  Its ``freq`` at 10^7 shrinks the 3*10^7 checkpoint
           (a known defect), so the next ``compute`` has to recompute.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

E7 = 10**7
EMIT_HORIZON = 10**6

WARM = "ckpt/warm.qtr"
SESSION = "ckpt/session.qtr"


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    ``label`` names the op in goldens and reports and does not depend on the
    seed.  ``anchors`` name checks in ``checks.py`` tying the outputs to the
    frozen oracle values.  When ``hashed`` is false the op's output files
    depend on the seed, so anchors check them instead of goldens.
    """

    label: str
    verb: str
    args: tuple[str, ...] = ()
    ckpt: str | None = None
    exit_code: int = 0
    anchors: tuple[str, ...] = ()
    hashed: bool = True

    def argv(self, out_dir: str) -> list[str]:
        argv = ["--data-dir", out_dir, self.verb, *self.args]
        if self.ckpt is not None:
            argv += ["--trace", self.ckpt]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: tuple[Op, ...]   # run once per benchmark run, untimed
    ops: tuple[Op, ...]       # one timed pass
    pass_files: tuple[str, ...] = ()  # removed before and after each pass


def _h(n: int) -> tuple[str, str]:
    return ("--horizon", str(n))


def emit(seed: int) -> Workload:
    ops = [
        Op("emit.export", "compute", (*_h(EMIT_HORIZON), "--export"), WARM,
           anchors=("q_values", "q_ckpt")),
        Op("emit.series_E", "diagnose", ("--series", "E", *_h(EMIT_HORIZON)), WARM,
           anchors=("series_E_1e6", "q_ckpt")),
        Op("emit.series_G", "diagnose", ("--series", "G", *_h(EMIT_HORIZON)), WARM,
           anchors=("q_ckpt",)),
        Op("emit.selfsim", "selfsim", ("--levels", "0..5", *_h(EMIT_HORIZON)), WARM,
           anchors=("q_ckpt",)),
    ]
    random.Random(seed).shuffle(ops)
    return Workload(
        "emit",
        prepare=(Op("emit.warm", "compute", _h(EMIT_HORIZON), WARM, anchors=("q_ckpt",)),),
        ops=tuple(ops),
    )


def analyze(seed: int) -> Workload:
    ops = [
        Op("analyze.verify", "verify", exit_code=1, anchors=("verify_outcome",)),
        Op("analyze.seeds", "seeds", _h(10**6), anchors=("seed_classes",)),
        Op("analyze.freq", "freq", _h(E7), anchors=("freq_blocks",)),
        Op("analyze.compute", "compute", _h(10**8), anchors=("q_ckpt",)),
    ]
    random.Random(seed).shuffle(ops)
    return Workload("analyze", prepare=(), ops=tuple(ops))


def session(seed: int) -> Workload:
    rng = random.Random(seed)
    lo = rng.randrange(1, 3 * E7 - 10**5)
    hi = lo + rng.randrange(10**3, 10**4)
    ops = (
        Op("session.compute_1e7", "compute", _h(E7), SESSION, anchors=("q_ckpt",)),
        Op("session.compute_3e7", "compute", _h(3 * E7), SESSION, anchors=("q_ckpt",)),
        Op("session.window_D", "diagnose",
           ("--series", "D", "--lo", str(lo), "--hi", str(hi), *_h(3 * E7)), SESSION,
           anchors=("q_ckpt", "window_D"), hashed=False),
        Op("session.freq_1e7", "freq", _h(E7), SESSION, anchors=("freq_blocks", "q_ckpt")),
        Op("session.recompute_3e7", "compute", _h(3 * E7), SESSION, anchors=("q_ckpt",)),
        Op("session.width8_3e7", "compute", ("--width", "8", *_h(3 * E7)), SESSION,
           anchors=("q_ckpt",)),
    )
    return Workload("session", prepare=(), ops=ops, pass_files=(SESSION,))


WORKLOADS = {"emit": emit, "analyze": analyze, "session": session}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
