"""``olap_nat``: read-only analytics in the bag semiring ``N``, in process.

Fact(Id, G, K, V, W) with 300k rows (multiplicities 1..3) and Dim(G,
Region) with 64 groups, half of them ``EU``.  The fact table is above
the parallel tier's auto-selection size, so on a 2-core host the
default tier is the parallel one with 2 workers.  Nothing is written,
so every encoding stays cached: the time goes to the kernels, the
parallel tier and group finishing.

One round, in this order:

``low``     filtered join + group-by ``SUM`` over 32 groups;
``minmax``  ``MIN``/``MAX`` group-by over 64 groups;
``high``    group-by ``SUM`` over ~20k groups (the many-row result).
"""

from __future__ import annotations

from typing import Any, Dict

from common import Ops, check, metric, stop_workers

KINDS = ("low", "minmax", "high")
AGG_KIND, WIDE_KIND = "low", "high"
ROUNDS_PER_S = 1.0

N_FACT = 300_000
SMOKE_FACT = 3_000
N_GROUPS = 64
N_KEYS = 20_000

QUERIES = {
    "low": "SELECT G, SUM(V) FROM Fact, Dim WHERE Region = 'EU' GROUP BY G",
    "minmax": "SELECT G, MIN(V), MAX(W) FROM Fact GROUP BY G",
    "high": "SELECT K, SUM(V) FROM Fact GROUP BY K",
}


class State:
    def __init__(self, seed: int, n: int):
        import numpy as np

        from repro.core import KDatabase, KRelation
        from repro.obs import metrics
        from repro.semirings import NAT
        from repro.sql import compiler as sql_compiler

        rng = np.random.default_rng(seed)
        self.g = rng.integers(0, N_GROUPS, n)
        self.k = rng.integers(0, N_KEYS, n)
        self.v = rng.integers(0, 1000, n)
        self.w = rng.integers(0, 1000, n)
        self.m = rng.integers(1, 4, n)
        rows = zip(zip(range(n), self.g.tolist(), self.k.tolist(),
                       self.v.tolist(), self.w.tolist()), self.m.tolist())
        fact = KRelation.from_rows(NAT, ("Id", "G", "K", "V", "W"), rows)
        dim = KRelation.from_rows(
            NAT, ("G", "Region"),
            [((j, "EU" if j % 2 else "US"), 1) for j in range(N_GROUPS)])
        self.db = KDatabase(NAT, {"Fact": fact, "Dim": dim})
        self.queries = {kind: sql_compiler.compile_sql(sql)
                        for kind, sql in QUERIES.items()}
        self.last: Dict[str, Any] = {}
        # pool spawn, first encoding, first plans: cold costs
        for kind in KINDS:
            self.run(kind)
        self.tiers_before = metrics.tier_executions()

    def run(self, kind: str) -> None:
        self.last[kind] = self.queries[kind].evaluate(self.db, engine="planned")


def build(seed: int, smoke: bool, rounds: int) -> State:
    from repro.plan import parallel

    parallel.cleanup()  # each set-up spawns its own worker pool
    return State(seed, SMOKE_FACT if smoke else N_FACT)


def teardown(state: State) -> None:
    stop_workers()


def do_round(state: State, ops: Ops) -> None:
    for kind in KINDS:
        ops.run(kind, lambda: state.run(kind))


# -- independent checks ----------------------------------------------------


def _plain(value: Any) -> Any:
    from repro.semimodules.compatibility import readback
    from repro.semimodules.tensor import Tensor

    return readback(value) if isinstance(value, Tensor) else value


def _column(rel, key: str, value: str) -> Dict[int, Any]:
    return {tup[key]: _plain(tup[value]) for tup, _k in rel.items()}


def verify(state: State) -> None:
    import numpy as np

    g, k, v, w, m = state.g, state.k, state.v, state.w, state.m
    weighted = (m * v).astype(np.int64)
    present = np.bincount(g, minlength=N_GROUPS) > 0
    sums = np.bincount(g, weights=weighted, minlength=N_GROUPS)
    want = {int(j): int(sums[j]) for j in range(N_GROUPS)
            if present[j] and j % 2}
    check(_column(state.last["low"], "G", "V") == want,
          "low-cardinality SUM differs from NumPy sums")

    mins = np.full(N_GROUPS, np.iinfo(np.int64).max)
    maxs = np.full(N_GROUPS, np.iinfo(np.int64).min)
    np.minimum.at(mins, g, v)
    np.maximum.at(maxs, g, w)
    rel = state.last["minmax"]
    check(_column(rel, "G", "V") == {int(j): int(mins[j])
                                     for j in range(N_GROUPS) if present[j]},
          "MIN differs from NumPy minima")
    check(_column(rel, "G", "W") == {int(j): int(maxs[j])
                                     for j in range(N_GROUPS) if present[j]},
          "MAX differs from NumPy maxima")

    key_present = np.bincount(k, minlength=N_KEYS) > 0
    key_sums = np.bincount(k, weights=weighted, minlength=N_KEYS)
    check(_column(state.last["high"], "K", "V") ==
          {int(j): int(key_sums[j]) for j in np.flatnonzero(key_present)},
          "high-cardinality SUM differs from NumPy sums")


def figures(state: State, ops: Ops) -> Dict[str, Dict[str, Any]]:
    """Executions per tier during the rounds, printed above the result."""
    from repro.obs import metrics

    after = metrics.tier_executions()
    return {
        f"{tier}_runs": metric(after[tier] - state.tiers_before[tier], "count")
        for tier in ("parallel", "encoded", "object")
    }


def layer_extra(state: State) -> Dict[str, float]:
    return {}
