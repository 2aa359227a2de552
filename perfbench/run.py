#!/usr/bin/env python3
"""The engine's end-to-end benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve_rw --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced;
``--trace 1`` runs the same rounds with per-layer timers switched on in
every other round and reports per-layer metrics plus the tracing
overhead.  ``--smoke`` runs a seconds-long size of the workload with all
of its checks.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("serve_rw", "olap_nat", "provenance_nx")

#: Fixed so that set and dict iteration orders, and with them the work a
#: seed's inputs cause, repeat exactly from one process to the next.
HASH_SEED = "0"

#: Set in the environment of the child that runs the workload.
CHILD_ENV = "PERFBENCH_CHILD"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="run length on the reference host; the run is "
                             "a fixed number of rounds derived from it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, two rounds, every check")
    return parser.parse_args(argv)


def rounds_for(module, args) -> int:
    """A fixed round count: the same on every commit, whatever its speed."""
    multiple = getattr(module, "ROUND_MULTIPLE", 2)
    if args.smoke:
        return multiple
    rounds = max(1, round(args.seconds * module.ROUNDS_PER_S))
    return -(-rounds // multiple) * multiple


def run_inprocess(module, args) -> int:
    from common import (
        SETUP_REPEATS, Ops, emit, end_to_end, passes, run_rounds,
        self_peak_rss_mb, timed_setups,
    )
    from layers import REPORTED, Layers, overhead_pct, per_layer

    rounds = rounds_for(module, args)
    layers = Layers().install() if args.trace else None
    if layers is not None:
        layers.enable()
    repeats = 1 if args.smoke else SETUP_REPEATS
    state, setup_s = timed_setups(
        lambda: module.build(args.seed, args.smoke, rounds), module.teardown,
        repeats)
    if layers is not None:
        layers.reset_after_setup()
    gc.collect()  # every run starts its rounds from the same collector state

    ops = Ops(module.KINDS)
    traced, untraced = run_rounds(ops, rounds,
                                  lambda: module.do_round(state, ops), layers)
    correct = passes(args.workload, lambda: module.verify(state))
    if layers is not None:
        layers.uninstall()
        raw = layers.snapshot(repeats)
        full = per_layer(raw, len(traced), overhead_pct(traced, untraced),
                         module.layer_extra(state))
        metrics = {name: full[name] for name in REPORTED}
        extra = {name: m for name, m in full.items() if name not in metrics}
    else:
        metrics = end_to_end(ops, setup_s, module.AGG_KIND, module.WIDE_KIND,
                             self_peak_rss_mb())
        extra = module.figures(state, ops)
    module.teardown(state)
    emit(args.workload, ops, metrics, extra, correct)
    return 0 if correct else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if os.environ.get(CHILD_ENV) != "1":
        return supervise(argv)
    sys.path.insert(0, SRC)
    from common import stop_workers

    module = importlib.import_module(args.workload)
    try:
        if hasattr(module, "main"):
            return module.main(args, rounds_for(module, args))
        return run_inprocess(module, args)
    finally:
        stop_workers()


def supervise(argv) -> int:
    """Run the workload in a child process, then wait for all it left.

    The child gets the fixed hash seed, the program on its path and a
    temporary directory inside the checkout.  Some processes outlive the
    one that started them (``multiprocessing``'s resource tracker exits
    only after its parent has; a SIGKILLed server leaves its own children
    behind), so this process adopts orphans and returns only once every
    descendant has ended.
    """
    from common import adopt_orphans, reap_orphans

    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env[CHILD_ENV] = "1"
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    env["TMPDIR"] = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *argv], env=env)
    try:
        code = child.wait()
        return code if code >= 0 else 128 - code
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        reap_orphans()
        try:
            os.rmdir(env["TMPDIR"])  # only if the run left it empty
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
