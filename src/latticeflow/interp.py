"""Direct IR interpreter: naive nested-loop comprehension evaluation and
naive fixpoint iteration for recursive queries.

This backend is deliberately simple; it serves as the independent oracle
for the operator-graph runtime, which must produce identical final state.
"""

from __future__ import annotations

from .analysis import query_graph
from .eval import (EvalContext, MISSING, _order_key, bind, eval_expr,
                   iter_source, truthy)
from .ir import Comp
from .state import FixpointDivergence


class InterpContext(EvalContext):
    def __init__(self, program, snapshot, firing=None, max_rounds=10000):
        super().__init__(program, snapshot, firing)
        self.max_rounds = max_rounds
        self.rounds = {}
        self._qmemo = {}

    def eval(self, e, env: dict):
        return eval_expr(e, env, self)

    def eval_comp(self, e: Comp, env: dict) -> frozenset:
        out = set()
        gens = e.gens

        def rec(i, env):
            if i == len(gens):
                for f in e.filters:
                    if not truthy(eval_expr(f, env, self)):
                        return
                v = eval_expr(e.output, env, self)
                if v is not MISSING:
                    out.add(v)
                return
            src = eval_expr(gens[i].source, env, self)
            for item in iter_source(src):
                rec(i + 1, bind(env, gens[i].binder, item))

        rec(0, env)
        return frozenset(out)

    def query_value(self, name: str) -> frozenset:
        if name in self._qmemo:
            return self._qmemo[name]
        graph = query_graph(self.program)
        scc = graph.comp_of[name]
        if scc not in graph.recursive:
            val = self.base_facts(name)
            for qd in self.program.query_map[name]:
                for body in qd.bodies:
                    val |= self._eval_body(body)
            self._qmemo[name] = val
            return val

        est = {q: self.base_facts(q) for q in scc}
        rounds = 0
        while True:
            rounds += 1
            if rounds > self.max_rounds:
                raise FixpointDivergence(
                    f"naive fixpoint over {sorted(scc)} exceeded {self.max_rounds} rounds")
            self.query_overrides.update(
                {q: tuple(sorted(v, key=_order_key)) for q, v in est.items()})
            new = {}
            for q in sorted(scc):
                val = self.base_facts(q)
                for qd in self.program.query_map[q]:
                    for body in qd.bodies:
                        val |= self._eval_body(body)
                new[q] = val
            if new == est:
                break
            est = new
        for q in scc:
            self.query_overrides.pop(q, None)
            self._qmemo[q] = est[q]
        self.rounds[",".join(sorted(scc))] = rounds
        return self._qmemo[name]

    def _eval_body(self, body) -> frozenset:
        v = eval_expr(body, {}, self)
        if v is MISSING:
            return frozenset()
        if isinstance(v, frozenset):
            return v
        if isinstance(v, tuple):
            return frozenset(v)
        return frozenset([v])

