"""Per-layer reference figures of single commands, from one traced run.

    python3 bench/reference.py

Runs ``revivals`` at eps in {12, 1e3, 1e4} (default packet x0 = 0.2,
sigma = 0.1) and ``revivals --scenario fig5 --superrevival`` once each with
the span recorder installed, and prints the inclusive time of each layer in
seconds as a Markdown table (README.md, "Reference figures").
"""

from __future__ import annotations

import sys
import time

import run
from spans import Recorder

COMMANDS = {
    "eps=12": ("revivals", "--epsilon", "12"),
    "eps=1e3": ("revivals", "--epsilon", "1000"),
    "eps=1e4": ("revivals", "--epsilon", "10000"),
    "fig5 scan": ("revivals", "--scenario", "fig5", "--superrevival"),
}
LAYERS = ("spectrum.solve", "quad", "wavepacket.project", "revival.autocorr",
          "revival.detect_revival", "revival.detect_superrevival", "anharmonic.weights")


def main():
    invoke = run.Invoker(run.import_program().main)
    invoke(run.WARMUP[0])
    rows = {}
    for label, args in COMMANDS.items():
        recorder = Recorder()
        recorder.install()
        start = time.perf_counter()
        code, _, err = invoke(args)
        wall = time.perf_counter() - start
        recorder.uninstall()
        if code:
            sys.exit(f"{label}: exit {code}: {err}")
        totals = {}
        for name, t0, t1, *_ in recorder.spans:
            totals[name] = totals.get(name, 0.0) + t1 - t0
        rows[label] = (wall, totals)
    print("| layer | " + " | ".join(rows) + " |")
    print("|---" * (len(rows) + 1) + "|")
    print("| command (wall) | " + " | ".join(f"{w:.3g}" for w, _ in rows.values()) + " |")
    for layer in LAYERS:
        print(f"| `{layer}` | " + " | ".join(f"{t.get(layer, 0.0):.3g}"
                                           for _, t in rows.values()) + " |")


if __name__ == "__main__":
    main()
