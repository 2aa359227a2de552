"""Per-layer timing for the traced run, taken from outside the program.

The program is not edited: :class:`Layers` rebinds public functions and
methods of each module to timing wrappers, from the benchmark's own
files, and restores them afterwards.  A wrapper times only the outermost
call of its layer on each thread, so recursion is not counted twice.

Timers accumulate only while :attr:`Layers.enabled` is set.  The traced
run switches them on for every other round; the off rounds are the
untraced reference the tracing overhead is measured against.
"""

from __future__ import annotations

import gc
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Every per-layer metric and its unit.  Times are milliseconds spent in
#: the layer per traced round (``sql.compile_ms``: per set-up); counts
#: are per traced round as well.
UNITS: Dict[str, str] = {
    "serve.overhead_ms": "ms",
    "sql.compile_ms": "ms",
    "plan.compile_ms": "ms",
    "encoded.scan_ms": "ms",
    "encoded.rows_per_read": "count",
    "plan.execute_ms": "ms",
    "kernels.reduce_ms": "ms",
    "tier.parallel_runs": "count",
    "tier.encoded_runs": "count",
    "tier.object_runs": "count",
    "parallel.fallbacks": "count",
    "columnar.box_ms": "ms",
    "schema.encode_ms": "ms",
    "serialize.encode_ms": "ms",
    "wal.fsync_ms": "ms",
    "wal.fsyncs_per_write": "count",
    "wal.bytes_per_write": "B",
    "wal.replay_records_per_s": "1/s",
    "ivm.apply_ms": "ms",
    "circuit.execute_ms": "ms",
    "circuit.lower_ms": "ms",
    "circuit.specialise_ms": "ms",
    "circuit.gates": "count",
    "nx.result_monomials": "count",
    "gc.pause_ms": "ms",
    "gc.gen2_collections": "count",
    "trace.overhead_pct": "%",
}

#: The per-layer metrics on the result line: the ones every workload
#: measures as a non-zero time, plus counts.  A layer time that only
#: some workloads exercise (WAL, circuits, wire encoding, ...) would read
#: a constant 0 on the others; those are printed above the result line.
REPORTED = (
    "sql.compile_ms",
    "plan.execute_ms",
    "columnar.box_ms",
    "gc.pause_ms",
    "trace.overhead_pct",
    "tier.parallel_runs",
    "tier.encoded_runs",
    "tier.object_runs",
    "parallel.fallbacks",
    "gc.gen2_collections",
    "encoded.rows_per_read",
    "wal.fsyncs_per_write",
    "wal.bytes_per_write",
    "circuit.gates",
    "nx.result_monomials",
)

#: Per-round layer times: metric -> timer.  (``sql.compile_ms`` is
#: per set-up; :meth:`Layers.snapshot` reports it apart.)
TIMED = {
    "plan.compile_ms": "plan.compile",
    "encoded.scan_ms": "encoded.scan",
    "plan.execute_ms": "plan.execute",
    "kernels.reduce_ms": "kernels.reduce",
    "columnar.box_ms": "columnar.box",
    "schema.encode_ms": "schema.encode",
    "serialize.encode_ms": "serialize.encode",
    "ivm.apply_ms": "ivm.apply",
    "circuit.execute_ms": "circuit.execute",
    "circuit.lower_ms": "circuit.lower",
    "circuit.specialise_ms": "circuit.specialise",
}


class Layers:
    """Timing wrappers around the program's public entry points."""

    def __init__(self) -> None:
        self.enabled = False
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        # re-entrant: a collection (and so _on_gc) can start on a thread
        # that already holds it, and so can a signal handler
        self._lock = threading.RLock()
        self._local = threading.local()
        self._undo: List[Any] = []
        self._gc_start: Optional[float] = None
        self._tiers_base: Optional[Dict[str, int]] = None
        self.tiers: Dict[str, int] = defaultdict(int)

    # -- switching -------------------------------------------------------

    def enable(self) -> None:
        from repro.obs import metrics

        self._tiers_base = metrics.tier_executions()
        self.enabled = True

    def disable(self) -> None:
        from repro.obs import metrics

        self.enabled = False
        if self._tiers_base is not None:
            for tier, n in metrics.tier_executions().items():
                self.tiers[tier] += n - self._tiers_base.get(tier, 0)
            self._tiers_base = None

    # -- wrapping --------------------------------------------------------

    def _wrapper(self, original: Callable, layer: str,
                 observe: Optional[Callable[..., None]]) -> Callable:
        local = self._local
        lock = self._lock
        seconds = self.seconds

        def timed(*args, **kwargs):
            if not self.enabled or getattr(local, layer, False):
                return original(*args, **kwargs)
            setattr(local, layer, True)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                if observe is not None:
                    observe(self, args, None, exc)
                raise
            finally:
                elapsed = time.perf_counter() - start
                setattr(local, layer, False)
                with lock:
                    seconds[layer] += elapsed
            if observe is not None:
                observe(self, args, result, None)
            return result

        timed.__wrapped__ = original
        return timed

    def wrap_function(self, module_name: str, attr: str, layer: str,
                      observe: Optional[Callable[..., None]] = None) -> None:
        """Rebind ``module.attr`` wherever a loaded ``repro`` module holds it."""
        __import__(module_name)
        original = getattr(sys.modules[module_name], attr)
        wrapper = self._wrapper(original, layer, observe)
        for name, module in list(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) and \
                    getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                self._undo.append((module, attr, original))

    def wrap_method(self, module_name: str, cls_name: str, attr: str,
                    layer: str,
                    observe: Optional[Callable[..., None]] = None) -> None:
        __import__(module_name)
        cls = getattr(sys.modules[module_name], cls_name)
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(original, layer, observe))
        self._undo.append((cls, attr, original))

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    # -- the program's layers ---------------------------------------------

    def install(self) -> "Layers":
        """Wrap every layer the per-layer metrics read."""
        self.wrap_function("repro.sql.compiler", "compile_sql", "sql.compile")
        self.wrap_function("repro.plan.compiler", "compile_plan", "plan.compile")
        self.wrap_function("repro.plan.encoded", "encode_relation",
                           "encoded.scan", _count_encoded_rows)
        self.wrap_method("repro.plan.compiler", "PhysicalPlan",
                         "execute_batch", "plan.execute", _count_read)
        self.wrap_function("repro.plan.kernels", "reduce_by_key",
                           "kernels.reduce")
        self.wrap_function("repro.plan.parallel", "execute_parallel",
                           "plan.parallel", _count_fallback)
        self.wrap_method("repro.plan.columnar", "ColumnarKRelation",
                         "to_krelation", "columnar.box")
        self.wrap_function("repro.serve.schema", "relation_to_json",
                           "schema.encode")
        self.wrap_function("repro.io.serialize", "relation_to_jsonable",
                           "serialize.encode")
        self.wrap_method("repro.ivm.view", "MaterializedView", "apply",
                         "ivm.apply")
        self.wrap_function("repro.plan.circuit_exec",
                           "evaluate_circuit_backed", "circuit.execute")
        self.wrap_method("repro.plan.circuit_exec", "CircuitResult", "lower",
                         "circuit.lower")
        self.wrap_method("repro.plan.circuit_exec", "CircuitResult",
                         "specialise", "circuit.specialise")
        gc.callbacks.append(self._on_gc)
        return self

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        if self._gc_start is None or not self.enabled:
            return
        with self._lock:
            self.seconds["gc.pause"] += time.perf_counter() - self._gc_start
            self._gc_start = None
            if info.get("generation") == 2:
                self.counts["gc.gen2"] += 1

    # -- reporting -------------------------------------------------------

    def snapshot(self, setups: int) -> Dict[str, float]:
        """Raw totals: ms per timer, counts, per-set-up compile time."""
        out: Dict[str, float] = {}
        for metric, timer in TIMED.items():
            out[metric] = self.seconds.get(timer, 0.0) * 1e3
        out["gc.pause_ms"] = self.seconds.get("gc.pause", 0.0) * 1e3
        out["gc.gen2_collections"] = self.counts.get("gc.gen2", 0)
        out["encoded.rows"] = self.counts.get("encoded.rows", 0)
        out["reads"] = self.counts.get("reads", 0)
        out["parallel.fallbacks"] = self.counts.get("parallel.fallbacks", 0)
        out["sql.compile_ms"] = (
            self.seconds.get("setup.sql.compile", 0.0) * 1e3 / max(1, setups))
        for tier in ("parallel", "encoded", "object"):
            out[f"tier.{tier}_runs"] = self.tiers.get(tier, 0)
        return out

    def reset_after_setup(self) -> None:
        """Keep set-up compile time (reported per set-up), drop the rest.

        Touches no registry, so the traced server can call it from a
        signal handler.
        """
        self.enabled = False
        self._tiers_base = None
        with self._lock:
            compile_s = self.seconds.get("sql.compile", 0.0)
            self.seconds.clear()
            self.counts.clear()
            self.tiers.clear()
            self.seconds["setup.sql.compile"] = compile_s


def _count_encoded_rows(layers: Layers, args, result, exc) -> None:
    if exc is None and result is not None and len(args) >= 1:
        layers.count("encoded.rows", len(args[0]))


def _count_read(layers: Layers, args, result, exc) -> None:
    layers.count("reads")


def _count_fallback(layers: Layers, args, result, exc) -> None:
    from repro.plan.parallel import ParallelFallback

    if isinstance(exc, ParallelFallback):
        layers.count("parallel.fallbacks")


def per_layer(raw: Dict[str, float], traced_rounds: int,
              overhead_pct: float,
              extra: Optional[Dict[str, float]] = None) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric, normalised per traced round.

    ``extra`` supplies what only one workload can measure (server-side
    overhead, WAL figures, circuit size, monomials); absent metrics read
    0 — the layer did no work on this workload.
    """
    rounds = max(1, traced_rounds)
    values: Dict[str, float] = {name: 0.0 for name in UNITS}
    for metric in TIMED:
        values[metric] = raw.get(metric, 0.0) / rounds
    values["sql.compile_ms"] = raw.get("sql.compile_ms", 0.0)
    for metric in ("gc.pause_ms", "gc.gen2_collections", "parallel.fallbacks",
                   "tier.parallel_runs", "tier.encoded_runs",
                   "tier.object_runs"):
        values[metric] = raw.get(metric, 0) / rounds
    reads = raw.get("reads", 0)
    values["encoded.rows_per_read"] = (
        raw.get("encoded.rows", 0) / reads if reads else 0.0)
    values["trace.overhead_pct"] = overhead_pct
    values.update(extra or {})
    return {name: {"value": values[name], "unit": unit}
            for name, unit in UNITS.items()}


def overhead_pct(traced: List[float], untraced: List[float]) -> float:
    """Median traced round time over median untraced round time, in %."""
    return (statistics.median(traced) / statistics.median(untraced) - 1.0) * 100
