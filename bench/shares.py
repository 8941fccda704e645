"""Each layer's share of each phase, from a traced round's spans file.

    python3 bench/shares.py bench/out/ga-n16-seed0-round1.spans.json

A layer is the part of a span name before the first dot (``chain``,
``qnet``, ...); ``bench`` is the benchmark's own code between library
calls.  Shares are of the phase's busy time: self times summed over all
threads, which exceeds wall time when jobs run in parallel.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

from tracer import self_times


def phase_shares(spans) -> dict[str, dict[str, float]]:
    selfs = self_times(spans)
    parent = {s[0]: s[4] for s in spans}
    names = {s[0]: s[1] for s in spans}

    def phase_of(sid):
        while sid is not None and not names[sid].startswith("bench."):
            sid = parent[sid]
        return None if sid is None else names[sid][len("bench."):]

    busy: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sid, name, *_ in spans:
        phase = phase_of(sid)
        if phase is not None:
            busy[phase][name.split(".")[0]] += selfs[sid]
    return {
        phase: {layer: s / sum(layers.values()) for layer, s in sorted(layers.items(), key=lambda kv: -kv[1])}
        for phase, layers in busy.items()
    }


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    for path in argv:
        with open(path) as fh:
            spans = [tuple(s) for s in json.load(fh)["spans"]]
        for phase, layers in phase_shares(spans).items():
            print(f"{path} {phase}: " + ", ".join(f"{k} {v:.1%}" for k, v in layers.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
