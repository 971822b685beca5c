"""Operator-graph runtime backend.

Comprehensions compile to chains of Expand / HashJoin / Filter / Project
operators over binding environments; recursive query groups run semi-naive
fixpoint iteration (only newly derived facts re-enter the loop each round).
Per-operator row counts are tracked for Inspect output.

A context keeps every recursive group's result in its `views` dict. Each
Transducer hands all the contexts it builds one dict that lives as long as
the node, so results outlive the tick. The next evaluation of the group
resumes from that result when the group's inputs and base facts only grew
since it was stored, and recomputes from the base facts on any other
change: a deletion, an assignment, a replaced table row, a changed scalar,
or the state of a rejected fork. `max_rounds` caps the rounds that a
from-scratch evaluation of the current state would take, also when the
evaluation resumes, so whether it diverges depends on the state alone and
not on the views. Operators iterate sets in whatever order they come, and a
generator over a table reads the table's rows in storage order; order is
fixed only where it is observable, by `EvalContext.collection`, sends and
canonical encoding. A comprehension in a handler is compiled the first time
it is evaluated and the chain is kept on the node's `CompiledQueries`, so
every later context of the node reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Optional, Tuple

from .analysis import classify_expression, query_graph
from . import lattice
from .eval import EvalContext, MISSING, bind, eval_expr, iter_source, truthy
from .ir import (
    BinOp, Comp, Data, Expr, Fold, In, Index, Len, Lookup, Not, Slice,
    _children, walk_expr,
)
from .state import FixpointDivergence


class NonMonotoneRecursion(Exception):
    """A non-monotone operator would run inside a recursive group."""


def _free_vars(e: Expr) -> set:
    from .ir import Var
    return {s.name for s in walk_expr(e) if isinstance(s, Var)}


@dataclass
class Step:
    op_id: str
    kind: str  # expand | hashjoin | filter | project


@dataclass
class ExpandStep(Step):
    binder: object = None
    source: Expr = None
    occurrence: Optional[int] = None  # occurrence index of a recursive ref


@dataclass
class HashJoinStep(Step):
    binder: object = None
    source: Expr = None
    left_key: Expr = None   # over previously bound vars
    right_key: Expr = None  # over this expand's binder
    occurrence: Optional[int] = None


@dataclass
class FilterStep(Step):
    expr: Expr = None


@dataclass
class ProjectStep(Step):
    expr: Expr = None


@dataclass
class Chain:
    steps: list
    comp: Comp
    side_reads: frozenset = frozenset()  # names read anywhere but as the
                                         # source of a generator step

    def recursive_refs(self, scc) -> list:
        out = []
        for s in self.steps:
            if isinstance(s, (ExpandStep, HashJoinStep)):
                if isinstance(s.source, Data) and s.source.name in scc:
                    out.append(s)
        return out


_counter = [0]


def _oid(kind: str) -> str:
    _counter[0] += 1
    return f"{kind}:{_counter[0]}"


def compile_comp(e: Comp, prefix: str = "") -> Chain:
    """Compile a comprehension into an operator chain.

    Equality filters linking a new generator to already-bound variables turn
    the generator's scan into a hash join.
    """
    steps = []
    bound: set = set()
    remaining = list(e.filters)
    occ = 0
    for g in e.gens:
        new_vars = set(g.binder) if isinstance(g.binder, tuple) else {g.binder}
        occurrence = None
        if isinstance(g.source, Data):
            occurrence = occ
            occ += 1
        join = None
        if isinstance(g.source, Data) and bound:
            for f in list(remaining):
                if (isinstance(f, BinOp) and f.op == "=="):
                    lv, rv = _free_vars(f.left), _free_vars(f.right)
                    if lv <= bound and rv and rv <= new_vars:
                        join = (f.left, f.right)
                    elif rv <= bound and lv and lv <= new_vars:
                        join = (f.right, f.left)
                    if join:
                        remaining.remove(f)
                        break
        if join:
            steps.append(HashJoinStep(_oid("hashjoin"), "hashjoin", g.binder,
                                      g.source, join[0], join[1], occurrence))
        else:
            steps.append(ExpandStep(_oid("expand"), "expand", g.binder,
                                    g.source, occurrence))
        bound |= new_vars
        # filters become runnable as soon as their variables are bound
        for f in list(remaining):
            if _free_vars(f) <= bound:
                steps.append(FilterStep(_oid("filter"), "filter", f))
                remaining.remove(f)
    for f in remaining:
        steps.append(FilterStep(_oid("filter"), "filter", f))
    steps.append(ProjectStep(_oid("project"), "project", e.output))
    return Chain(steps, e)


def run_chain(chain: Chain, env0: dict, ctx: "GraphContext",
              delta_step=None, totals=None, delta=None) -> frozenset:
    """Run a chain; when iterating a fixpoint, `delta_step` marks the one
    occurrence of a name in `totals` fed with the delta instead of the
    running total. Sources are iterated unordered: only the set of rows
    reaches the result."""

    def source_rows(step, env):
        source = step.source
        if isinstance(source, Data):
            name = source.name
            if totals is not None and name in totals:
                return delta[name] if step is delta_step else totals[name]
            if name in ctx._query_names:
                return ctx.query_value(name)
            if name in ctx.snapshot.tables and name not in ctx.firing:
                return ctx.snapshot.tables[name].values()
        v = eval_expr(source, env, ctx)
        return v if isinstance(v, frozenset) else iter_source(v)

    envs = [env0]
    for step in chain.steps:
        if isinstance(step, HashJoinStep):
            rows = source_rows(step, env0)
            # build side = smaller input by row count; ties go to the source
            # side (deterministic by operator structure)
            if len(rows) <= len(envs):
                index = {}
                for item in rows:
                    tmp = bind({}, step.binder, item)
                    k = eval_expr(step.right_key, tmp, ctx)
                    index.setdefault(k, []).append(item)
                out = []
                for env in envs:
                    k = eval_expr(step.left_key, env, ctx)
                    for item in index.get(k, ()):
                        out.append(bind(env, step.binder, item))
            else:
                index = {}
                for env in envs:
                    k = eval_expr(step.left_key, env, ctx)
                    index.setdefault(k, []).append(env)
                out = []
                for item in rows:
                    tmp = bind({}, step.binder, item)
                    k = eval_expr(step.right_key, tmp, ctx)
                    for env in index.get(k, ()):
                        out.append(bind(env, step.binder, item))
            envs = out
        elif isinstance(step, ExpandStep):
            out = []
            for env in envs:
                for item in source_rows(step, env):
                    out.append(bind(env, step.binder, item))
            envs = out
        elif isinstance(step, FilterStep):
            envs = [env for env in envs
                    if truthy(eval_expr(step.expr, env, ctx))]
        elif isinstance(step, ProjectStep):
            result = set()
            for env in envs:
                v = eval_expr(step.expr, env, ctx)
                if v is not MISSING:
                    result.add(v)
            ctx.note(step.op_id, len(result))
            return frozenset(result)
        ctx.note(step.op_id, len(envs))
    raise AssertionError("chain missing project step")


# --- query plans -------------------------------------------------------------

@dataclass
class QueryPlan:
    name: str
    chains: list  # one per rule body


@dataclass
class FixpointGroup:
    scc: frozenset
    plans: dict  # name -> QueryPlan
    inputs: frozenset = frozenset()  # names the rules read outside the SCC
    value_reads: frozenset = frozenset()  # inputs some rule reads as one
                                          # value rather than per element


@dataclass
class CompiledQueries:
    plans: dict = dfield(default_factory=dict)        # non-recursive
    groups: list = dfield(default_factory=list)       # FixpointGroup
    group_of: dict = dfield(default_factory=dict)
    chains: dict = dfield(default_factory=dict)       # handler Comp -> Chain


def _rule_reads(comp: Comp):
    """(sources, side) for one rule: the names its generators scan, and each
    name it reads anywhere else mapped to whether some read takes the
    collection as one value. The collection of an `In` and a keyed `Lookup`
    are read element by element, like a generator's source; anything under
    a fold, a length, an index, a negation or an output is one value."""
    side = {}

    def walk(e, whole: bool, each: bool = False):
        if isinstance(e, Data):
            side[e.name] = side.get(e.name, False) or whole or not each
        elif isinstance(e, Lookup):
            side[e.data] = side.get(e.data, False) or whole
            walk(e.key, whole)
        elif isinstance(e, Comp):
            for g in e.gens:
                walk(g.source, whole, True)
            for f in e.filters:
                walk(f, whole)
            walk(e.output, True)
        elif isinstance(e, In):
            walk(e.item, whole)
            walk(e.coll, whole or e.negated, True)
        else:
            whole = whole or isinstance(e, (Fold, Len, Index, Slice, Not))
            for child in _children(e):
                walk(child, whole)

    sources = set()
    for g in comp.gens:
        if isinstance(g.source, Data):
            sources.add(g.source.name)
        else:
            walk(g.source, False)
    for f in comp.filters:
        walk(f, False)
    walk(comp.output, True)
    return sources, side


def compile_queries(program) -> CompiledQueries:
    graph = query_graph(program)
    out = CompiledQueries()
    for comp in graph.sccs:
        plans = {}
        for q in sorted(comp):
            chains = []
            for qd in program.query_map[q]:
                for body in qd.bodies:
                    if isinstance(body, Comp):
                        chains.append(compile_comp(body))
                    else:
                        chains.append(compile_comp(Comp(body, ())))
            plans[q] = QueryPlan(q, chains)
        if comp in graph.recursive:
            bad = graph.bad_edge
            if bad is not None and bad[0] in comp:
                raise NonMonotoneRecursion(
                    f"{bad[2]} reference to {bad[1]} inside recursive group {sorted(comp)}")
            inputs, value_reads = set(), set()
            for q in comp:
                for qd in program.query_map[q]:
                    for body in qd.bodies:
                        cls = classify_expression(body, program, f"query {q}")
                        if not cls.monotone:
                            raise NonMonotoneRecursion(
                                f"non-monotone rule body in recursive query {q}: "
                                f"{cls.reasons}")
                for chain in plans[q].chains:
                    sources, side = _rule_reads(chain.comp)
                    chain.side_reads = frozenset(side)
                    inputs |= sources | side.keys()
                    value_reads |= {n for n, whole in side.items() if whole}
            group = FixpointGroup(comp, plans, frozenset(inputs - comp),
                                  frozenset(value_reads - comp))
            out.groups.append(group)
            for q in comp:
                out.group_of[q] = group
        else:
            out.plans.update(plans)
    return out


class GraphContext(EvalContext):
    def __init__(self, program, snapshot, compiled: CompiledQueries,
                 firing=None, max_rounds=10000, views=None):
        super().__init__(program, snapshot, firing)
        self.compiled = compiled
        self.max_rounds = max_rounds
        # scc -> (inputs, base facts, totals, round bound); see apply_fixpoint
        self.views = {} if views is None else views
        self.rounds = {}
        self.op_rows = {}
        self._qmemo = {}

    def note(self, op_id: str, n: int):
        self.op_rows[op_id] = self.op_rows.get(op_id, 0) + n

    def eval_comp(self, e: Comp, env: dict) -> frozenset:
        chain = self.compiled.chains.get(e)
        if chain is None:
            chain = self.compiled.chains[e] = compile_comp(e)
        return run_chain(chain, env, self)

    def input_value(self, name: str):
        """A group input as the resume check compares it: a set for a
        query, a table or a set var, else the value a rule reads."""
        if name in self._query_names:
            return self.query_value(name)
        if name in self.snapshot.tables:
            return self.base_facts(name)
        value = self.collection(name)
        if isinstance(self.snapshot.vars.get(name), lattice.SetUnion):
            return frozenset(value)
        return value

    def query_value(self, name: str) -> frozenset:
        if name in self._qmemo:
            return self._qmemo[name]
        group = self.compiled.group_of.get(name)
        if group is None:
            val = self.base_facts(name)
            for chain in self.compiled.plans[name].chains:
                val |= run_chain(chain, {}, self)
            self._qmemo[name] = val
            return val
        totals, rounds = apply_fixpoint(group, self)
        for q, v in totals.items():
            self._qmemo[q] = v
        self.rounds[",".join(sorted(group.scc))] = rounds
        return self._qmemo[name]


def apply_fixpoint(group: FixpointGroup, ctx: GraphContext):
    """Least fixpoint of a recursive query group by semi-naive iteration.

    The call reads the group's inputs and its members' base facts and
    compares them with what the view stored in `ctx.views` saw. It resumes
    when each is equal, or a superset when both are sets, and no input that
    a rule reads as one value (under a fold, say) has changed: the old
    totals plus the new base facts get one delta pass per generator over a
    grown input (a full pass for a rule that reads a grown input anywhere
    else), then the semi-naive loop runs from the facts that are new. With
    no stored view, or after any other change (a deletion, an assignment, a
    replaced table row, a changed scalar, a rejected fork's state), it
    recomputes from the base facts. Resuming is sound because
    compile_queries admits only monotone rules into a recursive group, so
    the old least fixpoint lies below the new one. Either way the inputs,
    base facts and result are stored for the next call.

    Returns (totals, rounds), where `rounds` counts the rounds of this call.
    It raises FixpointDivergence exactly when a from-scratch evaluation of
    the same state would take more than `ctx.max_rounds` rounds, whatever
    views the context holds. A from-scratch evaluation derives each fact in
    the round of its shortest derivation, so a view also keeps a bound on
    that count: a resumed call derives nothing deeper than the stored bound
    plus its own productive rounds. When that bound would pass the cap the
    call recomputes from the base facts instead.
    """
    base = {q: ctx.base_facts(q) for q in group.scc}
    inputs = {name: ctx.input_value(name) for name in sorted(group.inputs)}
    view = ctx.views.get(group.scc)
    grown = _growth(group, view, inputs, base) if view else None
    result = None
    if grown is not None:
        old, bound = view[2], view[3]
        result = _iterate(group, ctx,
                          *_resume_round(group, ctx, old, inputs, grown),
                          cap=ctx.max_rounds - bound + 1)
        if result is not None:
            bound += result[1] - 1
    if result is None:
        result = _iterate(group, ctx, *_first_round(group, ctx, base),
                          cap=ctx.max_rounds)
        if result is None:
            raise FixpointDivergence(
                f"semi-naive fixpoint over {sorted(group.scc)} exceeded "
                f"{ctx.max_rounds} rounds")
        bound = result[1]
    ctx.views[group.scc] = (inputs, base, result[0], bound)
    return result


def _growth(group: FixpointGroup, view, inputs: dict, base: dict):
    """name -> facts added since `view` was stored, for each input or member
    whose facts grew; None when anything changed other than by growing."""
    old_inputs, old_base = view[:2]
    grown = {}
    for old, new in ((old_inputs, inputs), (old_base, base)):
        for name, value in new.items():
            was = old[name]
            if value is was or value == was:
                continue
            if (name in group.value_reads or not isinstance(value, frozenset)
                    or not isinstance(was, frozenset) or not value > was):
                return None
            grown[name] = value - was
    return grown


def _first_round(group: FixpointGroup, ctx: GraphContext, base: dict):
    """(totals, delta) after the rules with no recursive reference ran once
    over the base facts."""
    scc = group.scc
    totals = {q: set(base[q]) for q in scc}
    empty = {q: frozenset() for q in scc}
    for q in sorted(scc):
        for chain in group.plans[q].chains:
            if chain.recursive_refs(scc):
                continue  # pure-recursive rules derive nothing yet
            totals[q] |= run_chain(chain, {}, ctx, totals=empty, delta=empty)
    return totals, {q: frozenset(totals[q]) for q in scc}


def _resume_round(group: FixpointGroup, ctx: GraphContext, old: dict,
                  inputs: dict, grown: dict):
    """(totals, delta) after the passes over the grown inputs, starting from
    the stored totals plus the new base facts."""
    scc = group.scc
    totals = {q: set(old[q]).union(grown.get(q, ())) for q in scc}
    grown_inputs = grown.keys() - scc
    reads = {**totals, **{n: inputs[n] for n in grown_inputs}}
    derived = {q: set() for q in scc}
    for q in sorted(scc):
        for chain in group.plans[q].chains:
            if chain.side_reads & grown_inputs:
                derived[q] |= run_chain(chain, {}, ctx, totals=totals)
                continue
            for step in chain.steps:
                if isinstance(step, (ExpandStep, HashJoinStep)) \
                        and isinstance(step.source, Data) \
                        and step.source.name in grown_inputs:
                    derived[q] |= run_chain(chain, {}, ctx, delta_step=step,
                                            totals=reads, delta=grown)
    delta = {}
    for q in scc:
        delta[q] = frozenset(derived[q].union(grown.get(q, ())) - old[q])
        totals[q] |= derived[q]
    return totals, delta


def _iterate(group: FixpointGroup, ctx: GraphContext, totals: dict,
             delta: dict, cap: int):
    """(totals, rounds) after semi-naive rounds from `delta` until no new
    fact appears, where round 1 was the one that produced `delta`; None if
    that takes more than `cap` rounds."""
    scc = group.scc
    rounds = 1
    while True:
        rounds += 1
        if rounds > cap:
            return None
        # totals stay unchanged while the round reads them
        derived = {q: set() for q in scc}
        for q in sorted(scc):
            for chain in group.plans[q].chains:
                for ref in chain.recursive_refs(scc):
                    derived[q] |= run_chain(chain, {}, ctx, delta_step=ref,
                                            totals=totals, delta=delta)
        new = {q: derived[q] - totals[q] for q in scc}
        if not any(new.values()):
            break
        for q in scc:
            totals[q] |= new[q]
        delta = {q: frozenset(new[q]) for q in scc}
    return {q: frozenset(v) for q, v in totals.items()}, rounds
