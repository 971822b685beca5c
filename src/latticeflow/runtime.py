"""Operator-graph runtime backend.

Comprehensions compile to chains of Expand / HashJoin / Filter / Project
operators; recursive query groups run semi-naive fixpoint iteration
(only newly derived facts re-enter the loop each round). Each operator
reports the rows it produces to `GraphContext.note`.

A chain is compiled once. Each generator binder gets a fixed slot, so a
binding is a tuple, and every join key, filter and projection becomes a
closure ``fn(slots, env, ctx)`` that reads its variables by slot, or from
the caller's `env` for the names bound outside the chain. A tuple binder
takes its item's values by `eval.unpack`, the interpreter's rule, and a
comprehension that binds a name twice does not compile. A nested
comprehension compiles with its chain into the closure of its parent. A
subexpression that reads only names bound outside its chain is evaluated
at most once per run of the chain, at its first use, so a run that never
reaches it evaluates nothing. The interpreter (`interp`, with
`eval.eval_expr`) stays the tree-walking oracle that this backend is
tested against, and it still evaluates handler statements, apart from the
memberships that `GraphContext.eval_in` compiles.

Filters run in their written order: a filter over names the chain binds
runs once they are bound, one that reads a name from outside the chain
after the last generator, and neither before a filter written earlier, so
a filter sees only rows that passed every filter before it.

Access paths. A generator over a named collection is a hash join when the
next filter to run is an equality between an expression over its binder
and one that reads no name bound after it; otherwise it is a scan. When
that other side reads only names bound outside the chain, the join is a
probe: its key is evaluated once per run. A join reads its source only
when it has input rows, and evaluates no key when the source is empty. A
join over a frozenset source (a query result or a kept recursive view)
keeps its index of the source in the context's `views` under the step's
id, unless the step reads a fixpoint's delta or its binder-side key reads
anything but the binder. The index is reused while the source is the same
object, grown by the new items when the old source is a subset of the new
one, and rebuilt otherwise. Mutable sources, such as a fixpoint's running
totals, are indexed per run, and a key that cannot be hashed is compared
with each item. A membership ``x in {p.k for p in t}``, where `k` is the
whole key of table `t`, is ``(x,) in`` the table's dict.

A context keeps every recursive group's result in its `views` dict. Each
Transducer hands all the contexts it builds one dict that lives as long as
the node, so results and indexes outlive the tick. The next evaluation of
the group resumes from that result when the group's inputs and base facts
only grew since it was stored, and recomputes from the base facts on any
other change: a deletion, an assignment, a replaced table row, a changed
scalar, or the state of a rejected fork. A resumed result that gained
nothing is the stored object itself, so the indexes over it stay valid.
`max_rounds` caps the rounds that a from-scratch evaluation of the current
state would take, also when the evaluation resumes, so whether it diverges
depends on the state alone and not on the views. Operators iterate sets in
whatever order they come, and a generator over a table reads the table's
rows in storage order; order is fixed only where it is observable, by
`EvalContext.collection`, sends and canonical encoding. A comprehension or
membership in a handler is compiled the first time it is evaluated and kept
on the program's `CompiledQueries` (see `compile_queries`), so every later
context reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Optional

from .analysis import classify_expression, query_graph
from .eval import _ARITH, EvalContext, MISSING, fold_value, iter_source, unpack
from .ir import (
    BinOp, Comp, Data, Expr, Field, Fold, Gen, In, Index, Len, Lit, Lookup,
    MakeRow, Not, Record, RangeOf, Slice, TupleOf, Var, _children, kept,
    walk_expr,
)
from .state import FixpointDivergence, Row, default_row


class NonMonotoneRecursion(Exception):
    """A non-monotone operator would run inside a recursive group."""


def _free_vars(e: Expr) -> set:
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
    per_row: object = None  # source closure; None for a Data, read once
    width: int = 0          # names in a tuple binder, 0 for a single name


@dataclass
class HashJoinStep(Step):
    binder: object = None
    source: Expr = None
    occurrence: Optional[int] = None
    left: object = None     # key closures: `left` over previously bound
    right: object = None    # vars, `right` over the binder's values alone
    width: int = 0
    keepable: bool = False  # `right` reads nothing but the binder, so an
                            # index of a source by it outlives the run


@dataclass
class FilterStep(Step):
    test: object = None


@dataclass
class ProjectStep(Step):
    out: object = None


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


class _Scope:
    """Where each name lives while a chain compiles: `slots` maps a name to
    its slot in the binding tuple, and any other name is read from the
    caller's env. `local` holds the names the chain has bound so far.
    `program` is the one the chain belongs to, whose table keys let a key
    membership compile to a dict lookup."""

    def __init__(self, program, slots=None, width: int = 0):
        self.program = program
        self.slots = dict(slots or {})
        self.width = width
        self.local = set()

    def nested(self) -> "_Scope":
        """The scope a nested comprehension starts from: every name of this
        one is bound outside it."""
        return _Scope(self.program, self.slots, self.width)

    def bind(self, gen: Gen):
        """Give the generator's names the next slots."""
        for name in gen.names:
            self.slots[name] = self.width
            self.width += 1
            self.local.add(name)


def _expr(e: Expr, scope: _Scope, hoist: bool = True):
    """fn(slots, env, ctx) giving what `eval.eval_expr` gives for `e` under
    the same bindings. A subexpression that reads no name the chain binds
    is hoisted: its value is kept in the run's env under a key of its own
    the first time it is needed."""
    if hoist and not isinstance(e, (Lit, Var)) \
            and not _free_vars(e) & scope.local:
        fn, cell = _node(e, scope, False), object()

        def hoisted(s, env, ctx):
            try:
                return env[cell]
            except KeyError:
                pass
            v = env[cell] = fn(s, env, ctx)
            return v

        return hoisted
    return _node(e, scope, hoist)


def _key_table(coll: Expr, program) -> Optional[str]:
    """The table `t` when `coll` is ``{p.k for p in t}`` and `k` is the whole
    key of `t`'s class, so that ``x in coll`` is ``(x,) in t``'s dict: a row
    is stored under ``(v,)`` for its key value `v` (see `state.storage_key`),
    and no statement may write a key field (see `ir.validate`). None for any
    other collection, and for a table that a query of the same name
    extends."""
    if not isinstance(coll, Comp) or coll.filters or len(coll.gens) != 1:
        return None
    [g], out = coll.gens, coll.output
    if not (isinstance(g.source, Data) and isinstance(out, Field)
            and out.base == Var(g.binder)):
        return None
    name = g.source.name
    d = program.data_map.get(name)
    if d is None or d.kind != "table" or name in program.query_map:
        return None
    cls = program.class_map.get(d.cls)
    return name if cls is not None and cls.key == (out.name,) else None


def _node(e: Expr, scope: _Scope, hoist: bool):
    if isinstance(e, Lit):
        value = e.value
        return lambda s, env, ctx: value
    if isinstance(e, Var):
        name = e.name
        i = scope.slots.get(name)
        if i is None:
            return lambda s, env, ctx: env[name]
        return lambda s, env, ctx: s[i]
    if isinstance(e, Data):
        name = e.name
        return lambda s, env, ctx: ctx.collection(name)
    if isinstance(e, Comp):
        chain = compile_comp(e, scope.program, scope)
        return lambda s, env, ctx: ctx.eval_comp(e, env, s, chain)
    sub = [_expr(c, scope, hoist) for c in _children(e)]
    if isinstance(e, Field):
        [base], name = sub, e.name

        def field(s, env, ctx):
            b = base(s, env, ctx)
            return MISSING if b is MISSING else b.get(name, MISSING)

        return field
    if isinstance(e, Lookup):
        [key], data = sub, e.data

        def lookup(s, env, ctx):
            k = key(s, env, ctx)
            if k is MISSING:
                return MISSING
            return ctx.table_row(data, k)

        return lookup
    if isinstance(e, BinOp):
        left, right = sub
        if e.op == "and":
            def and_(s, env, ctx):
                v = left(s, env, ctx)
                if v is MISSING:
                    return MISSING
                return right(s, env, ctx) if v else False

            return and_
        if e.op == "or":
            def or_(s, env, ctx):
                v = left(s, env, ctx)
                if v is not MISSING and v:
                    return v
                return right(s, env, ctx)

            return or_
        op = _ARITH.get(e.op) or (lambda a, b, name=e.op: _ARITH[name])

        def binop(s, env, ctx):
            a = left(s, env, ctx)
            b = right(s, env, ctx)
            if a is MISSING or b is MISSING:
                return MISSING
            return op(a, b)

        return binop
    if isinstance(e, Not):
        [inner] = sub

        def not_(s, env, ctx):
            v = inner(s, env, ctx)
            return MISSING if v is MISSING else not v

        return not_
    if isinstance(e, In):
        item, coll = sub
        negated = e.negated
        table = _key_table(e.coll, scope.program)
        if table is not None:
            def key_in(s, env, ctx):
                x = item(s, env, ctx)
                if x is MISSING:
                    return MISSING
                if table in ctx.firing:
                    found = x in coll(s, env, ctx)
                else:
                    found = (x,) in ctx.snapshot.tables[table]
                return not found if negated else found

            return key_in

        def in_(s, env, ctx):
            x = item(s, env, ctx)
            c = coll(s, env, ctx)
            if x is MISSING or c is MISSING:
                return MISSING
            return (x not in c) if negated else (x in c)

        return in_
    if isinstance(e, TupleOf):
        def tuple_of(s, env, ctx):
            t = tuple([f(s, env, ctx) for f in sub])
            return MISSING if MISSING in t else t

        return tuple_of
    if isinstance(e, (Record, MakeRow)):
        fields = tuple(zip([name for name, _ in e.fields], sub))
        cls = e.cls if isinstance(e, MakeRow) else None

        def record(s, env, ctx):
            out = {}
            for name, f in fields:
                v = f(s, env, ctx)
                if v is MISSING:
                    return MISSING
                out[name] = v
            if cls is None:
                return Row(out)
            return default_row(ctx.program.class_map[cls], out)

        return record
    if isinstance(e, Fold):
        [source], kind = sub, e.kind
        return lambda s, env, ctx: fold_value(kind, source(s, env, ctx), ctx)
    if isinstance(e, Len):
        [inner] = sub

        def len_(s, env, ctx):
            v = inner(s, env, ctx)
            return MISSING if v is MISSING else len(v)

        return len_
    if isinstance(e, RangeOf):
        [stop] = sub

        def range_(s, env, ctx):
            v = stop(s, env, ctx)
            return MISSING if v is MISSING else tuple(range(v))

        return range_
    if isinstance(e, Index):
        base, index = sub

        def index_(s, env, ctx):
            b = base(s, env, ctx)
            i = index(s, env, ctx)
            if b is MISSING or i is MISSING:
                return MISSING
            try:
                return b[i]
            except (IndexError, KeyError):
                return MISSING

        return index_
    if isinstance(e, Slice):
        base, start, stop = sub

        def slice_(s, env, ctx):
            b = base(s, env, ctx)
            i = start(s, env, ctx)
            j = stop(s, env, ctx)
            if MISSING in (b, i, j):
                return MISSING
            return tuple(b[i:j])

        return slice_
    raise TypeError(f"unknown expression node: {e!r}")


def compile_comp(e: Comp, program, outer: Optional[_Scope] = None) -> Chain:
    """Compile a comprehension of `program` into an operator chain; `outer`
    is the scope of the chain a nested comprehension sits in.

    Filters keep their written order: each runs once the chain has bound
    every name it reads and every filter before it has run. A generator over a named
    collection is a hash join when the next filter to run is an equality
    that `_access_path` takes, and a scan otherwise. A comprehension that
    binds a name twice is rejected, as `ir.validate` rejects it.
    """
    name = e.repeated_binder()
    if name is not None:
        raise ValueError(f"comprehension binds {name!r} twice")
    scope = outer.nested() if outer is not None else _Scope(program)
    names = {n for g in e.gens for n in g.names}
    steps = []
    bound: set = set()
    remaining = list(e.filters)
    occ = 0
    for g in e.gens:
        new_vars = set(g.names)
        width = len(g.binder) if isinstance(g.binder, tuple) else 0
        occurrence = path = None
        if isinstance(g.source, Data):
            occurrence = occ
            occ += 1
            if remaining:
                path = _access_path(remaining[0], new_vars, names - bound)
        if path:
            other, own = path
            remaining.pop(0)
            keys = _Scope(scope.program)
            keys.bind(g)
            steps.append(HashJoinStep(
                _oid("hashjoin"), "hashjoin", g.binder, g.source, occurrence,
                _expr(other, scope), _expr(own, keys), width,
                _context_free(own)))
        else:
            per_row = None if isinstance(g.source, Data) \
                else _expr(g.source, scope)
            steps.append(ExpandStep(_oid("expand"), "expand", g.binder,
                                    g.source, occurrence, per_row, width))
        scope.bind(g)
        bound |= new_vars
        # the filters at the front become runnable as their names are bound
        while remaining and _free_vars(remaining[0]) <= bound:
            steps.append(FilterStep(_oid("filter"), "filter",
                                    _expr(remaining.pop(0), scope)))
    for f in remaining:
        steps.append(FilterStep(_oid("filter"), "filter", _expr(f, scope)))
    steps.append(ProjectStep(_oid("project"), "project",
                             _expr(e.output, scope)))
    return Chain(steps, e)


def _access_path(f: Expr, new: set, unbound: set):
    """(other side, binder side) when `f` is an `==` between an expression
    over the binder's names `new` alone and one that reads none of the
    comprehension's names still `unbound` (the binder's among them); None
    otherwise."""
    if not (isinstance(f, BinOp) and f.op == "=="):
        return None
    for other, own in ((f.left, f.right), (f.right, f.left)):
        mine = _free_vars(own)
        if mine and mine <= new and not _free_vars(other) & unbound:
            return other, own
    return None


def _context_free(e: Expr) -> bool:
    """Whether `e`'s value depends on its variables alone: it reads no
    collection, table row or fold, so a key it computed for an item still
    holds in a later context."""
    return not any(isinstance(x, (Data, Lookup, Comp, Fold))
                   for x in walk_expr(e))


def _items(value):
    return value if isinstance(value, frozenset) else iter_source(value)


def _extend(pairs: list, step) -> list:
    """Each (binding, item) pair's binding extended by the step's binder."""
    k, binder = step.width, step.binder
    if not k:
        return [s + (item,) for s, item in pairs]
    return [s + (item if type(item) is tuple and len(item) == k
                 else unpack(binder, item)) for s, item in pairs]


def _expand(step: ExpandStep, rows: list, env: dict, ctx, data_rows) -> list:
    if step.per_row is not None:
        fn = step.per_row
        return _extend([(s, item) for s in rows
                        for item in _items(fn(s, env, ctx))], step)
    src = data_rows(step)
    k, binder = step.width, step.binder
    if not k:
        return [s + (item,) for s in rows for item in src]
    return [s + (item if type(item) is tuple and len(item) == k
                 else unpack(binder, item)) for s in rows for item in src]


def _keyer(step: HashJoinStep, env: dict, ctx):
    """The step's binder-side key of one source item."""
    k, binder, right = step.width, step.binder, step.right

    def right_key(item):
        if not k:
            t = (item,)
        elif type(item) is tuple and len(item) == k:
            t = item
        else:
            t = unpack(binder, item)
        return right(t, env, ctx)

    return right_key


def _index(items, key) -> dict:
    """key(item) -> items; an item whose key is MISSING equals nothing."""
    index = {}
    for item in items:
        k = key(item)
        if k is not MISSING:
            index.setdefault(k, []).append(item)
    return index


def _join(step: HashJoinStep, rows: list, src, env: dict, ctx, index) -> list:
    """The rows extended by the items of `src` whose binder-side key equals
    the row's `left` key. `index(step, src, key)` is the kept index of
    `src`, or None when there is none."""
    left, right_key = step.left, _keyer(step, env, ctx)
    try:
        kept = index(step, src, right_key)
        if kept is not None:
            pairs = [(s, item) for s in rows
                     for item in kept.get(left(s, env, ctx), ())]
        # build side = smaller input by row count; ties go to the source
        # side (deterministic by operator structure)
        elif len(src) <= len(rows):
            built = _index(src, right_key)
            pairs = [(s, item) for s in rows
                     for item in built.get(left(s, env, ctx), ())]
        else:
            built = _index(rows, lambda s: left(s, env, ctx))
            pairs = [(s, item) for item in src
                     for s in built.get(right_key(item), ())]
    except TypeError:  # a key that cannot be hashed
        pairs = _compare(rows, src, lambda s: left(s, env, ctx), right_key)
    return _extend(pairs, step)


def _compare(rows: list, src, left, right) -> list:
    """The (binding, item) pairs whose keys are equal, compared pair by pair
    as the interpreter's filter compares them; MISSING equals nothing."""
    keys = [(item, k) for item in src if (k := right(item)) is not MISSING]
    return [(s, item) for s in rows if (key := left(s)) is not MISSING
            for item, k in keys if key == k]


def _kept_index(step: HashJoinStep, src: frozenset, key, views: dict) -> dict:
    """`_index(src, key)`, kept in `views` under the step's id with the
    source it was built from: reused while the source is that object, grown
    by the new items when the old source is a subset of the new one, and
    rebuilt otherwise."""
    entry = views.pop(step.op_id, None)
    if entry is not None and entry[0] is src:
        index = entry[1]
    elif entry is not None and entry[0] <= src:
        index = entry[1]
        for k, items in _index(src - entry[0], key).items():
            index.setdefault(k, []).extend(items)
    else:
        index = _index(src, key)
    views[step.op_id] = (src, index)
    return index


def run_chain(chain: Chain, env0: dict, ctx: "GraphContext",
              delta_step=None, totals=None, delta=None, slots=()) -> frozenset:
    """Run a chain from the binding `slots` (a nested comprehension's
    enclosing row; empty otherwise), reading outer names from `env0`; when
    iterating a fixpoint, `delta_step` marks the one occurrence of a name in
    `totals` fed with the delta instead of the running total. Sources are
    iterated unordered: only the set of rows reaches the result, a step
    with no input rows reads no source, and a join over an empty source
    evaluates no key. A join over a frozenset source, other than the delta,
    keeps its index of that source in `ctx.views` (see `_kept_index`)."""
    env = dict(env0)  # the run's hoisted values join the outer names

    def data_rows(step):
        name = step.source.name
        if totals is not None and name in totals:
            return delta[name] if step is delta_step else totals[name]
        if name in ctx._query_names:
            return ctx.query_value(name)
        if name in ctx.snapshot.tables and name not in ctx.firing:
            return ctx.snapshot.tables[name].values()
        return _items(ctx.collection(name))

    def index(step, src, key):
        """The kept index of `src` by `key`, or None when it is not kept."""
        if step.keepable and type(src) is frozenset and step is not delta_step:
            return _kept_index(step, src, key, ctx.views)
        return None

    rows = [slots]
    for step in chain.steps:
        kind = step.kind
        if kind == "filter":
            test = step.test
            rows = [s for s in rows if test(s, env, ctx)]
        elif kind == "expand":
            if rows:
                rows = _expand(step, rows, env, ctx, data_rows)
        elif kind == "hashjoin":
            src = data_rows(step) if rows else ()
            rows = _join(step, rows, src, env, ctx, index) if src else []
        else:
            out = step.out
            result = {out(s, env, ctx) for s in rows}
            result.discard(MISSING)
            ctx.note(step.op_id, len(result))
            return frozenset(result)
        ctx.note(step.op_id, len(rows))
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
    # id(e) -> (e, compiled) for a Comp (a Chain) or an In (a closure)
    # that a handler evaluates
    handler_exprs: dict = dfield(default_factory=dict)

    def handler_expr(self, e, build):
        """`build(e)`, kept by the identity of `e`, since hashing an
        expression walks its whole tree; the entry keeps `e`, so its id
        cannot be reused while the entry lives."""
        entry = self.handler_exprs.get(id(e))
        if entry is None or entry[0] is not e:
            entry = self.handler_exprs[id(e)] = (e, build(e))
        return entry[1]


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
    """The program's compiled queries, built once per program object and
    kept on it (see `ir.kept`), so every node, context and lowering plan of
    the program shares them and the handler chains they collect."""
    return kept(program, "_compiled_queries", _compile_queries)


def _compile_queries(program) -> CompiledQueries:
    graph = query_graph(program)
    out = CompiledQueries()
    for comp in graph.sccs:
        plans = {}
        for q in sorted(comp):
            chains = []
            for qd in program.query_map[q]:
                for body in qd.bodies:
                    if not isinstance(body, Comp):
                        body = Comp(body, ())
                    chains.append(compile_comp(body, program))
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
        # scc -> (inputs, base facts, totals, round bound), see
        # apply_fixpoint; step id -> (source, index), see _kept_index
        self.views = {} if views is None else views
        self.rounds = {}
        self._qmemo = {}

    def note(self, op_id: str, n: int):
        """Called with the rows each operator step produced; a hook for
        instrumentation, which does nothing here."""

    def eval_comp(self, e: Comp, env: dict, slots: tuple = (),
                  chain: Optional[Chain] = None) -> frozenset:
        """A comprehension nested in a compiled chain passes its own chain
        and its enclosing row as `slots`. Any other is compiled the first
        time it is seen and kept on `self.compiled`."""
        if chain is None:
            chain = self.compiled.handler_expr(
                e, lambda c: compile_comp(c, self.program))
        return run_chain(chain, env, self, slots=slots)

    def eval_in(self, e: In, env: dict):
        """The membership compiled like a chain's, so that a key membership
        is a dict lookup; kept on `self.compiled`."""
        fn = self.compiled.handler_expr(
            e, lambda m: _node(m, _Scope(self.program), False))
        return fn((), env, self)

    def input_value(self, name: str):
        """A group input as the resume check compares it: a set for a
        query, a table or a set var, else the value a rule reads."""
        if name in self._query_names:
            return self.query_value(name)
        if name in self.snapshot.tables:
            return self.base_facts(name)
        if name in self.snapshot.vars:
            return self.var(name)
        return self.collection(name)

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
            # a resumed total holds the old one, so the same size means the
            # same facts: keep the old sets, which kept indexes know by
            # identity
            result = ({q: v if len(v) != len(old[q]) else old[q]
                       for q, v in result[0].items()}, result[1])
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
