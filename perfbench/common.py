"""Shared plumbing for the workloads: op accounting, statistics, output.

Every workload runs a fixed number of *rounds*; a round issues each of
its op kinds once, in a fixed order, so host-speed drift lands on every
op kind alike and a faster build never does more work per run than a
slower one.  Latency is kept per op kind: a median taken over a mix of
2 ms and 200 ms ops falls between the clusters and jumps.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: A tail percentile needs at least this many samples beyond it ...
TAIL_BEYOND = 10
#: ... and a run needs at least this many samples to report a tail at all.
TAIL_MIN_SAMPLES = 40


class Failure(Exception):
    """An operation that failed; counted in ``failed``, never timed."""


class CheckFailed(Exception):
    """A workload's output disagrees with an independent computation."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class OpKind:
    __slots__ = ("name", "samples", "attempted", "failed")

    def __init__(self, name: str):
        self.name = name
        self.samples: List[float] = []
        self.attempted = 0
        self.failed = 0


class Ops:
    """Per-op-kind attempt/failure counts and latency samples (seconds)."""

    def __init__(self, kinds: Sequence[str]):
        self.kinds: Dict[str, OpKind] = {k: OpKind(k) for k in kinds}
        self.elapsed = 0.0  # wall time of the measured phase

    def run(self, kind: str, fn: Callable[[], Any]) -> Any:
        """Run one op; a :class:`Failure` is counted, anything else raises."""
        op = self.kinds[kind]
        op.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Failure:
            op.failed += 1
            return None
        op.samples.append(time.perf_counter() - start)
        return result

    @property
    def attempted(self) -> int:
        return sum(op.attempted for op in self.kinds.values())

    @property
    def failed(self) -> int:
        return sum(op.failed for op in self.kinds.values())

    def p50_ms(self, kind: str) -> float:
        return statistics.median(self.kinds[kind].samples) * 1e3

    def ops_per_s(self) -> float:
        return (self.attempted - self.failed) / self.elapsed

    def table(self) -> List[str]:
        """One human-readable line per op kind (printed before the result)."""
        lines = []
        for op in self.kinds.values():
            line = (f"  {op.name:<12} attempted {op.attempted:>5}  "
                    f"failed {op.failed:>4}")
            if op.samples:
                line += f"  p50 {statistics.median(op.samples) * 1e3:9.3f} ms"
                tail = tail_ms(op.samples)
                if tail is not None:
                    line += f"  p{tail[0]} {tail[1]:9.3f} ms"
                line += f"  (n={len(op.samples)})"
            lines.append(line)
        return lines


def run_rounds(ops: Ops, rounds: int, do_round: Callable[[], None],
               layers: Any = None) -> Tuple[List[float], List[float]]:
    """Run the rounds; with ``layers``, trace every other one.

    Returns the traced and the untraced round durations (seconds).
    """
    traced: List[float] = []
    untraced: List[float] = []
    start = time.perf_counter()
    for i in range(rounds):
        on = layers is not None and i % 2 == 1
        if on:
            layers.enable()
        t0 = time.perf_counter()
        do_round()
        elapsed = time.perf_counter() - t0
        if on:
            layers.disable()
        (traced if on else untraced).append(elapsed)
    ops.elapsed = time.perf_counter() - start
    return traced, untraced


def passes(label: str, verify: Callable[[], None]) -> bool:
    """Run a workload's checks; report a mismatch on stderr."""
    try:
        verify()
    except CheckFailed as exc:
        print(f"{label}: CHECK FAILED: {exc}", file=sys.stderr)
        return False
    return True


def tail_ms(samples: Sequence[float]) -> Optional[Tuple[int, float]]:
    """The highest percentile with >= TAIL_BEYOND samples beyond it, in ms.

    ``None`` below TAIL_MIN_SAMPLES samples: such a percentile is no tail.
    """
    n = len(samples)
    if n < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(samples)
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= TAIL_BEYOND:
            return pct, ordered[min(n - 1, int(n * pct / 100))] * 1e3
    return None


def timed_setups(build: Callable[[], Any], teardown: Callable[[Any], None],
                 repeats: int = SETUP_REPEATS) -> Tuple[Any, float]:
    """Run ``build`` ``repeats`` times; keep the last state.

    Returns ``(state, median seconds)``.  Every earlier state is torn
    down before the next build starts, so each build pays the same cold
    costs (pool spawn, first encoding, first plan) and memory stays at
    one state's worth.
    """
    times = []
    state = None
    for _ in range(repeats):
        if state is not None:
            teardown(state)
            state = None
            gc.collect()
        start = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - start)
    return state, statistics.median(times)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(ops: Ops, setup_s: float, agg: str, wide: str,
               peak_rss_mb: float) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics every workload reports."""
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(ops.ops_per_s(), "1/s"),
        "agg_p50_ms": metric(ops.p50_ms(agg), "ms"),
        "wide_p50_ms": metric(ops.p50_ms(wide), "ms"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def emit(name: str, ops: Ops, metrics: Dict[str, Dict[str, Any]],
         extra: Dict[str, Dict[str, Any]], correct: bool) -> None:
    """Print the per-op table, the workload's own figures, and the result.

    ``extra`` holds the figures only this workload has (write, circuit,
    recovery, ...); they are printed by name and unit but are not part of
    the result line, which carries the metrics every workload shares.
    """
    print(f"{name}: {ops.attempted} ops attempted, {ops.failed} failed, "
          f"{ops.elapsed:.2f} s measured")
    for line in ops.table():
        print(line)
    for key, m in {**metrics, **extra}.items():
        print(f"  {key:<28} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }), flush=True)


#: Seconds a straggler may take to end on its own before it is killed.
REAP_GRACE_S = 30.0

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of every descendant that loses its parent.

    A SIGKILLed server cannot wait for what it started, and the parallel
    tier's shared-memory segments bring up a ``multiprocessing`` resource
    tracker that outlives its parent for a moment.  As a child subreaper
    (Linux) this process inherits such orphans, so :func:`reap_orphans`
    can wait for them.  Elsewhere this is a no-op.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> List[int]:
    pids: List[int] = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as fh:
                pids.extend(int(pid) for pid in fh.read().split())
        except OSError:
            pass
    return pids


def stop_workers(grace_s: float = REAP_GRACE_S) -> None:
    """Shut down the parallel tier's worker pools and join their processes.

    Called on every path out of a workload; whatever is still alive after
    ``grace_s`` is killed.
    """
    import multiprocessing

    parallel = sys.modules.get("repro.plan.parallel")
    if parallel is not None:
        parallel.cleanup()
    for child in multiprocessing.active_children():
        child.join(timeout=grace_s)
        if child.is_alive():
            child.kill()
            child.join()


def reap_orphans(grace_s: float = REAP_GRACE_S) -> None:
    """Wait until every child, adopted orphans included, has ended.

    Whatever is still alive after ``grace_s`` is killed.
    """
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no children left
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in _child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def scratch_dir(root: str) -> str:
    """A fresh directory under the checkout's ``.perfbench_tmp``."""
    import tempfile

    base = os.path.join(root, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)
