"""Direct IR interpreter: naive nested-loop comprehension evaluation and
naive fixpoint iteration for recursive queries.

This backend is deliberately simple; it serves as the independent oracle
for the operator-graph runtime, which must produce identical final state.
Four rules keep its algorithm naive:

- a comprehension is nested loops over its generators in written order;
- each generator's source is evaluated once per row of the generators
  before it, and iterated in sorted order (`eval.iter_source`);
- every filter runs, in written order, on complete rows only, after the
  last generator;
- every round of a recursive query re-evaluates every body from scratch,
  until a round changes nothing.

It compiles, caches and indexes no expression; doing so would make it a
second graph backend. Within the rules it may do less work per row:
`eval.eval_expr` tests the commonest node kinds first and reads a name
operand without a call, and the last generator's loop binds each row
into one dict in place, a name or a pair by plain stores, and runs the
filters and the output itself. Where a filter runs is the language's semantics,
not a speed-up: if that changes, only the loop level that runs it moves.
"""

from __future__ import annotations

from .analysis import query_graph
from .eval import (EvalContext, MISSING, _order_key, bind, eval_expr,
                   iter_source, truthy, unpack)
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
        gens, filters, output = e.gens, e.filters, e.output
        if not gens:
            if all(truthy(eval_expr(f, env, self)) for f in filters):
                v = eval_expr(output, env, self)
                if v is not MISSING:
                    out.add(v)
            return frozenset(out)
        last = len(gens) - 1

        def rec(i, env):
            gen = gens[i]
            items = iter_source(eval_expr(gen.source, env, self))
            if i < last:
                for item in items:
                    rec(i + 1, bind(env, gen.binder, item))
                return
            # the last generator's loop binds each complete row, runs the
            # filters and emits the output itself; it rebinds one dict in
            # place, as no evaluation keeps the env it is given
            row = dict(env)
            binder = gen.binder
            single = type(binder) is not tuple
            pair = not single and len(binder) == 2
            if pair:
                x, y = binder
            for item in items:
                if single:
                    row[binder] = item
                elif pair and type(item) is tuple and len(item) == 2:
                    row[x], row[y] = item
                else:
                    row.update(zip(binder, unpack(binder, item)))
                for f in filters:
                    v = eval_expr(f, row, self)
                    if v is MISSING or not v:
                        break
                else:
                    v = eval_expr(output, row, self)
                    if v is not MISSING:
                        out.add(v)

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

