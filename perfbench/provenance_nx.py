"""``provenance_nx``: the paper's semantics over symbolic ``N[X]``, in process.

Emp(EmpId, Dept, Sal) ⋈ Dept(Dept, Region), every tuple tagged with its
own token (``t<i>`` for employees, ``d<j>`` for departments), plus
Excl(EmpId, Dept, Sal), about a third of Emp under fresh ``x<i>`` tokens.
N[X] has no machine representation, so the encoded tier stays idle and
the time goes to polynomials, K⊗M tensors, circuits and IVM.

One round, in this order:

``write``       one-row insert into Emp through a maintained view
                (``MaterializedView.apply``), which also bumps the version
                every cache keys on;
``agg``         the expanded group-by ``SUM`` (annotations K⊗M tensors);
``circuit``     the same query in circuit mode, lowered to canonical N[X];
``specialise``  circuit mode, specialised under the all-ones valuation;
``difference``  the §5 difference ``Emp EXCEPT Excl`` (many rows).
"""

from __future__ import annotations

import random
from typing import Any, Dict

from common import Ops, check, metric

KINDS = ("write", "agg", "circuit", "specialise", "difference")
AGG_KIND, WIDE_KIND = "agg", "difference"
ROUNDS_PER_S = 0.8

N_EMP = 10_000
N_DEPT = 32
SMOKE_EMP = 300

AGG_SQL = ("SELECT Dept, SUM(Sal) FROM Emp, Dept WHERE Region = 'EU' "
           "GROUP BY Dept")
DIFF_SQL = ("SELECT EmpId, Dept, Sal FROM Emp EXCEPT "
            "SELECT EmpId, Dept, Sal FROM Excl")
COLUMNS = ("EmpId", "Dept", "Sal")
EU = {f"d{j}" for j in range(N_DEPT) if j % 2}


def _one(token: Any) -> int:
    return 1


class State:
    def __init__(self, seed: int, n: int, rounds: int):
        from repro.core import KDatabase, KRelation
        from repro.ivm import MaterializedView
        from repro.semirings import NX
        from repro.sql import compiler as sql_compiler

        rng = random.Random(seed)
        self.emp = [(i, f"d{rng.randrange(N_DEPT)}", 10 * rng.randrange(1, 10))
                    for i in range(n)]
        self.excl = {row for row in self.emp if rng.random() < 1 / 3}
        self.inserts = [(n + r, f"d{rng.randrange(N_DEPT)}",
                         10 * rng.randrange(1, 10)) for r in range(rounds)]
        emp = KRelation.from_rows(
            NX, COLUMNS, [(row, NX.variable(f"t{row[0]}")) for row in self.emp])
        dept = KRelation.from_rows(
            NX, ("Dept", "Region"),
            [((f"d{j}", "EU" if j % 2 else "US"), NX.variable(f"d{j}"))
             for j in range(N_DEPT)])
        excl = KRelation.from_rows(
            NX, COLUMNS,
            [(row, NX.variable(f"x{row[0]}")) for row in sorted(self.excl)])
        self.deltas = [
            {"Emp": KRelation.from_rows(NX, COLUMNS,
                                        [(row, NX.variable(f"t{row[0]}"))])}
            for row in self.inserts]
        self.db = KDatabase(NX, {"Emp": emp, "Dept": dept, "Excl": excl})
        self.agg_query = sql_compiler.compile_sql(AGG_SQL)
        self.diff_query = sql_compiler.compile_sql(DIFF_SQL)
        self.view = MaterializedView.create(self.db, self.agg_query)
        self.written = 0
        self.last: Dict[str, Any] = {}
        # first plan, first circuit image, first lowering: cold costs
        for kind in KINDS[1:]:
            getattr(self, kind)()

    def write(self) -> None:
        self.view.apply(self.deltas[self.written])
        self.emp.append(self.inserts[self.written])
        self.written += 1

    def agg(self):
        self.last["agg"] = self.agg_query.evaluate(self.db, engine="planned")

    def _circuit(self):
        return self.agg_query.evaluate(self.db, engine="planned",
                                       annotations="circuit")

    def circuit(self):
        result = self._circuit()
        self.last["circuit"] = result
        self.last["lowered"] = result.lower()

    def specialise(self):
        from repro.semirings import NAT

        self.last["specialised"] = self._circuit().specialise(_one, NAT)

    def difference(self):
        self.last["difference"] = self.diff_query.evaluate(
            self.db, engine="planned")


def build(seed: int, smoke: bool, rounds: int) -> State:
    return State(seed, SMOKE_EMP if smoke else N_EMP, rounds)


def teardown(state: State) -> None:
    pass


def do_round(state: State, ops: Ops) -> None:
    for kind in KINDS:
        ops.run(kind, getattr(state, kind))


# -- independent checks ----------------------------------------------------


def _sums(rows, skip=None) -> Dict[str, int]:
    sums: Dict[str, int] = {}
    for row in rows:
        emp_id, dept, sal = row
        if dept in EU and emp_id != skip:
            sums[dept] = sums.get(dept, 0) + sal
    return sums


def _plain_groups(rel) -> Dict[str, int]:
    """A valued N-relation of (Dept, Sal tensor) as {dept: plain sum}."""
    from repro.semimodules.compatibility import readback

    out = {}
    for tup, annotation in rel.items():
        check(annotation == 1, f"group {tup['Dept']} annotated {annotation}")
        out[tup["Dept"]] = readback(tup["Sal"])
    return out


def verify(state: State) -> None:
    from repro.semirings import NAT, valuation_hom

    agg = state.last["agg"]
    ones = valuation_hom(agg.semiring, NAT, _one)
    expected = _sums(state.emp)
    check(_plain_groups(agg.apply_hom(ones)) == expected,
          "agg under the all-ones valuation differs from plain bag sums")
    check(_plain_groups(state.last["specialised"]) == expected,
          "specialised circuit differs from plain bag sums")
    check(state.last["lowered"] == agg,
          "lowered circuit differs from the expanded result")

    # deletion propagation: zeroing one employee's token is the result
    # without that tuple
    victim = next(row for row in state.emp if row[1] in EU)
    token = f"t{victim[0]}"

    def zero_victim(t: Any) -> int:
        return 0 if str(t) == token else 1

    without = _sums(state.emp, skip=victim[0])
    check(_plain_groups(agg.apply_hom(
        valuation_hom(agg.semiring, NAT, zero_victim))) == without,
        f"zeroing {token} differs from the result without its tuple")
    check(_plain_groups(state.last["circuit"].specialise(
        zero_victim, NAT)) == without,
        f"circuit with {token} zeroed differs from the result without it")

    check(state.view.result() == state.agg_query.evaluate(
        state.db, engine="interpreted"),
        "maintained view differs from a fresh (interpreted) evaluation")

    diff = state.last["difference"].apply_hom(
        valuation_hom(state.last["difference"].semiring, NAT, _one))
    got = {tuple(tup[c] for c in COLUMNS): k for tup, k in diff.items()}
    want = {row: 1 for row in state.emp if row not in state.excl}
    check(got == want, "difference differs from the plain bag difference")


def figures(state: State, ops: Ops) -> Dict[str, Dict[str, Any]]:
    """Figures only this workload has, printed above the result line."""
    return {
        "write_p50_ms": metric(ops.p50_ms("write"), "ms"),
        "circuit_p50_ms": metric(ops.p50_ms("circuit"), "ms"),
        "specialise_p50_ms": metric(ops.p50_ms("specialise"), "ms"),
        "difference_p50_ms": metric(ops.p50_ms("difference"), "ms"),
    }


def layer_extra(state: State) -> Dict[str, float]:
    agg = state.last["agg"]
    monomials = 0
    for tup, annotation in agg.items():
        monomials += sum(1 for _ in annotation.monomials())
        for _m, coefficient in tup["Sal"].items():
            monomials += sum(1 for _ in coefficient.monomials())
    return {
        "circuit.gates": state.last["circuit"].gate_count(),
        "nx.result_monomials": monomials,
    }
