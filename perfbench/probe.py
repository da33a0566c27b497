"""Extra bytes per term of one layer call, alone in a fresh process.

``ru_maxrss`` is a per-process high-water mark, so each call gets its own
process: the peak after the call, less the peak before it, is what the call
needed beyond its input trace (for ``checkpoint.load``, beyond the trace it
returns).  Run as a child of ``run.py``::

    python perfbench/probe.py LAYER HORIZON CHECKPOINT_PATH

``checkpoint.save`` writes CHECKPOINT_PATH and ``checkpoint.load`` reads it.
"""

from __future__ import annotations

import json
import resource
import sys


def peak_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def main(layer: str, horizon: int, path: str) -> None:
    from qseq import checkpoint, diagnostics
    from qseq.engine import RecursionConfig, Seed, run

    if layer == "checkpoint.load":
        base = peak_bytes()
        result = checkpoint.load(path)
        if result.len != horizon:
            raise SystemExit(f"{path} holds {result.len} terms, not {horizon}:"
                             " run the checkpoint.save probe first")
        own = result.values.nbytes
    else:
        trace = run(RecursionConfig(seed=Seed((1, 1)), horizon=horizon))
        calls = {
            "checkpoint.save": lambda: checkpoint.save(trace, path),
            "diagnostics.series": lambda: diagnostics.series(trace, "E"),
            "diagnostics.selfsim_profile": lambda: diagnostics.selfsim_profile(trace, 0),
            "diagnostics.check_subsequence_identities":
                lambda: diagnostics.check_subsequence_identities(trace),
        }
        base = peak_bytes()
        result = calls[layer]()
        own = 0
    extra = (peak_bytes() - base - own) / horizon
    del result
    print(json.dumps({"layer": layer, "extra_bytes_per_term": extra}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
