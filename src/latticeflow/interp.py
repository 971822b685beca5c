"""Direct IR interpreter: naive nested-loop comprehension evaluation and
naive fixpoint iteration for recursive queries.

This backend is deliberately simple; it serves as the independent oracle
for the operator-graph runtime, which must produce identical final state.
Four rules keep its algorithm naive:

- a comprehension is nested loops over its generators in written order;
- each generator's source is evaluated once per row of the generators
  before it that passed the filters due there, and iterated in sorted
  order (`eval.iter_source`);
- each filter runs at the level where its names are bound, inside that
  generator's loop (`ir.Comp.filter_levels` states the rule);
- every round of a recursive query re-evaluates every body from scratch,
  until a round changes nothing.

It compiles, caches and indexes no expression; doing so would make it a
second graph backend. Within the rules it may do less work per row:
`eval.eval_expr` tests the commonest node kinds first and reads a name
operand without a call, and the last generator's loop binds each row
into one dict in place, a name or a pair by plain stores, and runs the
filters due there and the output itself. That loop evaluates two shapes,
recognized once per `eval_comp` call, without `eval_expr`: a filter that
is an `ir.ARITH` operator between two names, and an output that is a name
or a tuple of names. It reads the row dict directly and keeps `eval_expr`'s
rules: an unbound name raises `KeyError`, a `MISSING` operand fails the
filter, and an output holding `MISSING` gives nothing. Where a filter runs
is the language's semantics, shared with the graph backend, not a
speed-up.
"""

from __future__ import annotations

from .analysis import query_graph
from .eval import (EvalContext, MISSING, bind, eval_expr, iter_source,
                   truthy, unpack)
from .ir import ARITH, BinOp, Comp, TupleOf, Var
from .state import FixpointDivergence


def _inline_filter(f) -> tuple:
    """(f, op, left, right) for a filter that is an ARITH operator between
    two names, which the last generator's loop evaluates itself; else
    (f, None, None, None)."""
    if (type(f) is BinOp and f.op in ARITH and type(f.left) is Var
            and type(f.right) is Var):
        return f, ARITH[f.op], f.left.name, f.right.name
    return f, None, None, None


def _inline_output(output):
    """The name, or the tuple of names, that an output reads, which the
    last generator's loop evaluates itself; else None."""
    if type(output) is Var:
        return output.name
    if type(output) is TupleOf and all(type(x) is Var for x in output.items):
        return tuple(x.name for x in output.items)
    return None


class InterpContext(EvalContext):
    def __init__(self, program, snapshot):
        super().__init__(program, snapshot)
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
        levels = e.filter_levels()
        last = len(gens) - 1
        tests = [_inline_filter(f) for f in levels[last]]
        names = _inline_output(output)

        def rec(i, env):
            gen = gens[i]
            items = iter_source(eval_expr(gen.source, env, self))
            if i < last:
                due = levels[i]
                for item in items:
                    row = bind(env, gen.binder, item)
                    if not due or all(truthy(eval_expr(f, row, self))
                                      for f in due):
                        rec(i + 1, row)
                return
            # the last generator's loop binds each complete row, runs the
            # filters due there and emits the output itself; it rebinds one
            # dict in place, as no evaluation keeps the env it is given
            row = dict(env)
            binder = gen.binder
            single = type(binder) is not tuple
            pair = not single and len(binder) == 2
            if pair:
                x, y = binder
            for item in items:
                if single:
                    row[binder] = item
                elif pair and type(item) is tuple:
                    # unpacking checks the length before it stores a name
                    try:
                        row[x], row[y] = item
                    except ValueError:
                        row.update(zip(binder, unpack(binder, item)))
                else:
                    row.update(zip(binder, unpack(binder, item)))
                for f, fn, a, b in tests:
                    if fn is None:
                        v = eval_expr(f, row, self)
                        if v is MISSING or not v:
                            break
                    else:
                        a_v, b_v = row[a], row[b]
                        if a_v is MISSING or b_v is MISSING or not fn(a_v, b_v):
                            break
                else:
                    if names is None:
                        v = eval_expr(output, row, self)
                    elif type(names) is str:
                        v = row[names]
                    else:
                        v = tuple([row[n] for n in names])
                        for w in v:
                            if w is MISSING:
                                v = MISSING
                                break
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
                    val |= self.eval_comp(body, {})
            self._qmemo[name] = val
            return val

        est = {q: self.base_facts(q) for q in scc}
        rounds = 0
        while True:
            rounds += 1
            if rounds > self.max_rounds:
                raise FixpointDivergence(
                    f"naive fixpoint over {sorted(scc)} exceeded {self.max_rounds} rounds")
            # each rule reads this round's estimate as the members' views
            self._sorted.update(
                {q: tuple(iter_source(v)) for q, v in est.items()})
            new = {}
            for q in sorted(scc):
                val = self.base_facts(q)
                for qd in self.program.query_map[q]:
                    for body in qd.bodies:
                        val |= self.eval_comp(body, {})
                new[q] = val
            if new == est:
                break
            est = new
        for q in scc:
            self._sorted.pop(q, None)
            self._qmemo[q] = est[q]
        self.rounds[",".join(sorted(scc))] = rounds
        return self._qmemo[name]

