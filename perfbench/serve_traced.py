"""Run ``python -m repro.serve`` with the per-layer timers installed.

    python3 perfbench/serve_traced.py STATS_PATH [repro.serve options]

The traced run of ``serve_rw`` starts the server through this file.
Signals steer the timers from the client process:

SIGHUP   set-up is over: keep its SQL compile time, zero everything else;
SIGUSR2  switch the timers on or off (the client brackets traced rounds);
SIGUSR1  write the totals to STATS_PATH as JSON.

The handlers only flip flags and copy totals: the client reads the tier
and WAL counters from ``GET /metrics`` itself.
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import Layers  # noqa: E402


def main() -> None:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    layers = Layers().install()
    layers.enabled = True  # set-up first, for sql.compile_ms

    def toggle(signum, frame):
        layers.enabled = not layers.enabled

    def dump(signum, frame):
        tmp = stats_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(layers.snapshot(setups=1), fh)
        os.replace(tmp, stats_path)

    signal.signal(signal.SIGHUP, lambda signum, frame: layers.reset_after_setup())
    signal.signal(signal.SIGUSR2, toggle)
    signal.signal(signal.SIGUSR1, dump)

    from repro.serve.__main__ import main as serve_main

    serve_main(argv)


if __name__ == "__main__":
    main()
