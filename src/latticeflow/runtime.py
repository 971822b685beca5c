"""Operator-graph runtime backend.

Comprehensions compile to chains of Expand / HashJoin / Filter / Project
operators; recursive query groups run semi-naive fixpoint iteration
(only newly derived facts re-enter the loop each round). Each operator
reports the rows it produces to `GraphContext.note`.

A chain is compiled once. Each generator binder gets a fixed slot, so a
binding is a tuple, and every join key, filter and projection becomes a
closure ``fn(slots, env, ctx)`` that reads its variables by slot, or from
the caller's `env` for the names bound outside the chain. A join key or
projection that is a bound name, or a tuple of two or more, is also an
`operator.itemgetter`, which the kernels call instead. A tuple binder
takes its item's values by `eval.unpack`, the interpreter's rule, and a
comprehension that binds a name twice does not compile. A nested
comprehension compiles with its chain into the closure of its parent. A
subexpression that reads only names bound outside its chain is evaluated
at most once per run of the chain, at its first use, so a run that never
reaches it evaluates nothing. The interpreter (`interp`, with
`eval.eval_expr`) stays the tree-walking oracle that this backend is
tested against; this backend never calls it.

Each filter runs right after the generator that `ir.Comp.filter_levels`
puts it at, the interpreter's rule, so both backends evaluate a filter, a
join key or a later generator's source on the same rows.

Access paths. A generator over a named collection is a hash join when the
first filter due after it is an equality between an expression over its
binder and one that reads no name bound after it; otherwise it is a scan. When
that other side reads only names bound outside the chain, the join is a
probe: its key is evaluated once per run. A join reads its source only
when it has input rows, and evaluates no key when the source is empty. Its
index maps a key to the binder's values of the matching items, so a probe
extends a row without an intermediate list of pairs. A join over a
frozenset source (a query result or a kept recursive view) keeps its index
of the source in the context's `views` under the step's id, unless the
step reads a fixpoint's delta or its binder-side key reads anything but
the binder. A chain that scans a named collection and then joins on a
row-side key over that scan's names alone keeps, the same way, an index of
the scanned collection by that key: when the scanned source is such a
frozenset and the join's source is smaller, each item of the join's source
probes it and the scan is never expanded (see `_scan_join`). Every kept
index lives in `views` and follows one rule (`_kept_index`): it is reused
while its source is the same object, grown by the new items when the old
source is a subset of the new one, and rebuilt otherwise. Mutable sources,
such as a fixpoint's running totals, are indexed per run, and a key that
cannot be hashed is compared with each item. A membership
``x in {p.k for p in t}``, where `k` is the whole key of table `t`, is
``(x,) in`` the table's dict.

Kept results. A context keeps every recursive group's result in its `views`
dict. Each Transducer hands all the contexts it builds one dict that lives
as long as the node, so results and indexes outlive the tick. The next
evaluation of the group resumes from that result when the group's inputs
and base facts only grew since it was stored, and recomputes from the base
facts on any other change: a deletion, an assignment, a replaced table
row, a changed scalar, or the state of a rejected fork. A resume pass
costs what changed: it reads the stored totals themselves, so where a
grown input's delta joins the rows of a scan of them, each delta item
probes the kept index of the scanned totals, which grows with them. A
resumed result that gained nothing is the stored object itself, so the
indexes over it are reused as they are. `max_rounds` caps the rounds
that a from-scratch evaluation of the current state would take, also when
the evaluation resumes, so whether it diverges depends on the state alone
and not on the views. A non-recursive rule that first scans a table by a
single name, and reads nothing else but the names it binds, keeps the
outputs of each table row in shared `views` and runs only over the rows
that changed (see `_per_row_value`).

Operators iterate sets in whatever order they come, and a generator over
a table reads the table's rows in storage order; order is fixed only where
it is observable, by `EvalContext.collection`, sends and canonical
encoding. A handler's comprehension compiles to its chain, and any other
expression it evaluates as a chain's do at a scope binding no slot
(`GraphContext.eval`); each is kept by identity on the program's
`CompiledQueries`, and `ir.prepared` gives all nodes the same objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from itertools import chain as concat
from operator import itemgetter
from typing import Optional

from .analysis import classify_expression, query_graph
from .eval import EvalContext, MISSING, fold_value, iter_source, unpack
from .ir import (
    ARITH, BinOp, Comp, Data, Expr, Field, Fold, Gen, In, Index, Len, Lit,
    Lookup, MakeRow, Not, Record, RangeOf, Slice, TupleOf, Var, _children,
    kept, walk_expr,
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
    per_row: object = None  # source closure; None for a Data, read once
    width: int = 0          # names in a tuple binder, 0 for a single name


@dataclass
class HashJoinStep(Step):
    binder: object = None
    source: Expr = None
    left: object = None     # key closures: `left` over previously bound
    right: object = None    # vars, `right` over the binder's values alone
    width: int = 0
    keepable: bool = False  # `right` reads nothing but the binder, so an
                            # index of a source by it outlives the run
    left_get: object = None   # `left` and `right` as itemgetters, or None
    right_get: object = None  # (see _getter)


@dataclass
class FilterStep(Step):
    test: object = None


@dataclass
class ProjectStep(Step):
    out: object = None
    get: object = None  # `out` as an itemgetter, or None (see _getter)


@dataclass
class Chain:
    steps: list
    comp: Comp
    side_reads: frozenset = frozenset()  # names read anywhere but as the
                                         # source of a generator step
    per_row: bool = False  # outputs kept per table row (see _per_row_value)
    # where `views` keeps an index of the collection that the chain first
    # scans, by the key of the join after it; None for other chains (see
    # _scan_join)
    scan_index: Optional[str] = None

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


def _getter(e: Expr, scope: _Scope):
    """`e` as an `operator.itemgetter` of a binding, when `e` is a name kept
    in a slot or a tuple of two or more such names; None otherwise. It gives
    what `_expr(e, scope)` gives, since no slot holds MISSING."""
    if isinstance(e, Var) and e.name in scope.slots:
        return itemgetter(scope.slots[e.name])
    if isinstance(e, TupleOf) and len(e.items) > 1 and all(
            isinstance(x, Var) and x.name in scope.slots for x in e.items):
        return itemgetter(*(scope.slots[x.name] for x in e.items))
    return None


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
        # an operator `validate` rejects raises only when evaluated, as on
        # the interpreter
        op = ARITH.get(e.op) or (lambda a, b, name=e.op: ARITH[name])

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

    Each filter runs right after the generator that `Comp.filter_levels`
    puts it at. A generator over a named collection is a hash join when the
    first filter due after it is an equality that `_access_path` takes, and
    a scan otherwise. A comprehension that binds a name twice is rejected,
    as `ir.validate` rejects it.
    """
    name = e.repeated_binder()
    if name is not None:
        raise ValueError(f"comprehension binds {name!r} twice")
    scope = outer.nested() if outer is not None else _Scope(program)
    top = not scope.slots  # no enclosing chain binds a slot
    names = {n for g in e.gens for n in g.names}
    steps = []
    bound: set = set()
    scan_index = None
    for g, due in zip(e.gens, e.filter_levels()):
        new_vars = set(g.names)
        width = len(g.binder) if isinstance(g.binder, tuple) else 0
        path = None
        if isinstance(g.source, Data) and due:
            path = _access_path(due[0], new_vars, names - bound)
        if path:
            other, own = path
            due = due[1:]
            keys = _Scope(scope.program)
            keys.bind(g)
            steps.append(HashJoinStep(
                _oid("hashjoin"), "hashjoin", g.binder, g.source,
                _expr(other, scope), _expr(own, keys), width,
                _context_free(own), _getter(other, scope), _getter(own, keys)))
            # a scan of a named collection, then this join on a key over the
            # scan's names alone: an index of the collection answers both
            first = steps[0]
            if top and len(steps) == 2 and first.kind == "expand" \
                    and first.per_row is None and _context_free(other) \
                    and _free_vars(other) <= bound:
                scan_index = _oid("scanindex")
        else:
            per_row = None if isinstance(g.source, Data) \
                else _expr(g.source, scope)
            steps.append(ExpandStep(_oid("expand"), "expand", g.binder,
                                    g.source, per_row, width))
        scope.bind(g)
        bound |= new_vars
        steps += [FilterStep(_oid("filter"), "filter", _expr(f, scope))
                  for f in due]
    if not e.gens:
        steps += [FilterStep(_oid("filter"), "filter", _expr(f, scope))
                  for f in e.filters]
    steps.append(ProjectStep(_oid("project"), "project",
                             _expr(e.output, scope), _getter(e.output, scope)))
    return Chain(steps, e, scan_index=scan_index)


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


def _values(step):
    """fn(item) -> the tuple of values the step's binder takes from an item
    (`eval.unpack` for a tuple binder)."""
    k, binder = step.width, step.binder
    if not k:
        return lambda item: (item,)

    def values(item):
        if type(item) is tuple and len(item) == k:
            return item
        return unpack(binder, item)

    return values


def _unary(fn, get, env: dict, ctx):
    """A step's closure `fn` as a function of the binding alone: its
    itemgetter `get` when it has one."""
    if get is not None:
        return get
    return lambda s: fn(s, env, ctx)


class _Sources:
    """Where one run of a chain reads a generator's named collection. When
    iterating a fixpoint, `delta_step` is the one occurrence of a name in
    `totals` fed with `delta` instead of the running total."""

    __slots__ = ("ctx", "totals", "delta", "delta_step")

    def __init__(self, ctx, totals=None, delta=None, delta_step=None):
        self.ctx = ctx
        self.totals = totals
        self.delta = delta
        self.delta_step = delta_step

    def rows(self, step):
        name, ctx = step.source.name, self.ctx
        if self.totals is not None and name in self.totals:
            if step is self.delta_step:
                return self.delta[name]
            return self.totals[name]
        if name in ctx._query_names:
            return ctx.query_value(name)
        if name in ctx.snapshot.tables and name not in ctx.firing:
            return ctx.snapshot.tables[name].values()
        return _items(ctx.collection(name))

    def index(self, step, src, key):
        """The kept index of `src` (see `_kept_index`), or None when a join
        over it indexes per run: a source that is not a frozenset, the
        delta, or a key that reads more than the binder."""
        if step.keepable and type(src) is frozenset \
                and step is not self.delta_step:
            return _kept_index(step.op_id, step, src, key, self.ctx.views)
        return None


def _expand(step: ExpandStep, rows: list, env: dict, ctx, src=None) -> list:
    """Each row extended by each item of the step's source: `src`, the
    named collection it scans, or else what its `per_row` closure gives."""
    k, binder, fn = step.width, step.binder, step.per_row
    if fn is None:
        if not k:
            return [s + (item,) for s in rows for item in src]
        return [s + (item if type(item) is tuple and len(item) == k
                     else unpack(binder, item)) for s in rows for item in src]
    if not k:
        return [s + (item,) for s in rows for item in _items(fn(s, env, ctx))]
    return [s + (item if type(item) is tuple and len(item) == k
                 else unpack(binder, item))
            for s in rows for item in _items(fn(s, env, ctx))]


def _index(items, key) -> dict:
    """key(item) -> items; an item whose key is MISSING equals nothing."""
    index = {}
    for item in items:
        k = key(item)
        if k is not MISSING:
            index.setdefault(k, []).append(item)
    return index


def _index_of(step, src, key) -> dict:
    """`_index(map(_values(step), src), key)`, with the values unpacked in
    line, since this runs once per item of every index built."""
    index = {}
    width, binder = step.width, step.binder
    for item in src:
        if not width:
            t = (item,)
        elif type(item) is tuple and len(item) == width:
            t = item
        else:
            t = unpack(binder, item)
        k = key(t)
        if k is not MISSING:
            index.setdefault(k, []).append(t)
    return index


def _join(step: HashJoinStep, rows: list, src, env: dict, ctx,
          sources: _Sources) -> list:
    """Each row extended by the binder's values of each item of `src` whose
    binder-side key equals the row's `left` key. An index, kept or built
    per run, maps a key to those values, so a probe extends a row directly.
    """
    left = _unary(step.left, step.left_get, env, ctx)
    right = _unary(step.right, step.right_get, env, ctx)
    values = _values(step)
    try:
        index = sources.index(step, src, right)
        # build side = smaller input by row count; ties go to the source
        # side (deterministic by operator structure)
        if index is None and len(src) <= len(rows):
            index = _index_of(step, src, right)
        if index is not None:
            get = index.get
            return [s + t for s in rows for t in get(left(s), ())]
        built = _index(rows, left)
        return [s + t for t in map(values, src)
                for s in built.get(right(t), ())]
    except TypeError:  # a key that cannot be hashed
        return _compare(rows, map(values, src), left, right)


def _compare(rows: list, src, left, right) -> list:
    """The rows extended by the values in `src` whose keys are equal,
    compared pair by pair as the interpreter's filter compares them;
    MISSING equals nothing."""
    keys = [(t, k) for t in src if (k := right(t)) is not MISSING]
    return [s + t for s in rows if (key := left(s)) is not MISSING
            for t, k in keys if key == k]


def _kept_index(slot, step, src: frozenset, key, views: dict) -> dict:
    """`_index_of(step, src, key)`, kept in `views` under `slot` with the
    source it was built from: reused while the source is that object, grown
    by the new items when the old source is a subset of the new one, and
    rebuilt otherwise. One set difference tells both: the old source is a
    subset exactly when the new items leave as many as it holds."""
    entry = views.pop(slot, None)
    if entry is None:
        index = _index_of(step, src, key)
    elif entry[0] is src:
        index = entry[1]
    else:
        old, index = entry
        more = src - old
        if len(src) - len(more) == len(old):
            for k, ts in _index_of(step, more, key).items():
                index.setdefault(k, []).extend(ts)
        else:
            index = _index_of(step, src, key)
    views[slot] = (src, index)
    return index


def _scan_join(chain: Chain, env: dict, ctx,
               sources: _Sources) -> Optional[list]:
    """The bindings after the chain's first two steps, a scan and a join,
    when the scanned source is a frozenset other than the delta and the
    join's source has fewer items, but some: each of them probes the kept
    index of the scanned source by the join's row-side key instead of the
    scan being expanded. None when the two steps are to run as `_steps`
    runs them: for any other sizes or sources, or a key that cannot be
    hashed. An empty scan reads no other source, as in `_steps`."""
    scan, join = chain.steps[0], chain.steps[1]
    if scan is sources.delta_step:
        return None
    items = sources.rows(scan)
    if type(items) is not frozenset or not items:
        return None
    src = sources.rows(join)
    if not 0 < len(src) < len(items):
        return None
    left = _unary(join.left, join.left_get, env, ctx)
    right = _unary(join.right, join.right_get, env, ctx)
    try:
        get = _kept_index(chain.scan_index, scan, items, left, ctx.views).get
        rows = [s + t for t in map(_values(join), src)
                for s in get(right(t), ())]
    except TypeError:  # a key that cannot be hashed
        return None
    ctx.note(join.op_id, len(rows))
    return rows


def _steps(chain: Chain, start: int, rows: list, env: dict, ctx,
           sources: _Sources) -> list:
    """The bindings after the chain's steps from `start` up to its project
    step, run on `rows`. A step with no input rows reads no source, and a
    join over an empty source evaluates no key."""
    steps = chain.steps
    for i in range(start, len(steps) - 1):
        step = steps[i]
        kind = step.kind
        if kind == "filter":
            test = step.test
            rows = [s for s in rows if test(s, env, ctx)]
        elif kind == "expand":
            if rows:
                src = sources.rows(step) if step.per_row is None else None
                rows = _expand(step, rows, env, ctx, src)
        else:
            src = sources.rows(step) if rows else ()
            rows = _join(step, rows, src, env, ctx, sources) if src else []
        ctx.note(step.op_id, len(rows))
    return rows


def _project(step: ProjectStep, rows: list, env: dict, ctx) -> frozenset:
    if step.get is not None:
        result = frozenset(map(step.get, rows))
    else:
        out = step.out
        result = frozenset([out(s, env, ctx) for s in rows])
        if MISSING in result:
            result = result - {MISSING}
    ctx.note(step.op_id, len(result))
    return result


def run_chain(chain: Chain, env0: dict, ctx: "GraphContext",
              delta_step=None, totals=None, delta=None, slots=()) -> frozenset:
    """Run a chain from the binding `slots` (a nested comprehension's
    enclosing row; empty otherwise), reading outer names from `env0`; when
    iterating a fixpoint, `delta_step` marks the one occurrence of a name in
    `totals` fed with the delta instead of the running total. Sources are
    iterated unordered: only the set of rows reaches the result. A join over
    a frozenset source, other than the delta, keeps its index of that source
    in `ctx.views` (see `_kept_index`), and so may the scan before a join
    (see `_scan_join`)."""
    sources = _Sources(ctx, totals, delta, delta_step)
    env = dict(env0)  # the run's hoisted values join the outer names
    # no enclosing chain binds a slot of a chain with a scan index (see
    # compile_comp), so `slots` is empty
    rows = None if chain.scan_index is None \
        else _scan_join(chain, env, ctx, sources)
    if rows is None:
        rows = _steps(chain, 0, [slots], env, ctx, sources)
    else:
        rows = _steps(chain, 2, rows, env, ctx, sources)
    return _project(chain.steps[-1], rows, env, ctx)


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
    # id(e) -> (e, compiled) for an expression a handler evaluates: a Chain
    # for a Comp, a closure for any other (see GraphContext.eval)
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
            for plan in plans.values():
                for chain in plan.chains:
                    chain.per_row = _per_row(chain, program)
            out.plans.update(plans)
    return out


def _per_row(chain: Chain, program) -> bool:
    """Whether the chain scans a table by a single name first, and all else
    it reads is the names it binds, context-free: the outputs of one table
    row then depend on the row alone (see `_per_row_value`)."""
    comp, scan = chain.comp, chain.steps[0]
    if not isinstance(scan, ExpandStep) or scan.per_row is not None \
            or scan.width:
        return False
    d = program.data_map.get(scan.source.name)
    if d is None or d.kind != "table" or d.name in program.query_map:
        return False
    names = {n for g in comp.gens for n in g.names}
    rest = [g.source for g in comp.gens[1:]] + list(comp.filters) \
        + [comp.output]
    return all(_context_free(e) and _free_vars(e) <= names for e in rest)


class GraphContext(EvalContext):
    def __init__(self, program, snapshot, compiled: CompiledQueries,
                 max_rounds=10000, views=None):
        super().__init__(program, snapshot)
        self.compiled = compiled
        self.max_rounds = max_rounds
        # scc -> _View, see apply_fixpoint; a join step's id or a chain's
        # scan_index -> (source, index), see _kept_index; scan step id ->
        # (rows, outputs, value), see _per_row_value
        self.views = {} if views is None else views
        # per-row outputs pay off only in views that later contexts read
        self._shared_views = views is not None
        self.rounds = {}
        self._qmemo = {}

    def note(self, op_id: str, n: int):
        """Called with the rows each operator step produced; a hook for
        instrumentation, which does nothing here."""

    def eval_comp(self, e: Comp, env: dict, slots: tuple = (),
                  chain: Optional[Chain] = None) -> frozenset:
        """A compiled comprehension passes its chain, and its enclosing row
        as `slots`; any other is compiled once, kept on `self.compiled`."""
        if chain is None:
            chain = self.compiled.handler_expr(
                e, lambda c: compile_comp(c, self.program))
        return run_chain(chain, env, self, slots=slots)

    def eval(self, e, env: dict):
        """`e` run by `eval_comp` if a Comp, else compiled as a chain compiles
        it at a scope binding no slot, once, and kept on `self.compiled`."""
        if type(e) is Comp:
            return self.eval_comp(e, env)
        # looked up here first: the builder `handler_expr` takes would be a
        # new closure on every call
        entry = self.compiled.handler_exprs.get(id(e))
        if entry is None or entry[0] is not e:
            entry = (e, self.compiled.handler_expr(
                e, lambda x: _node(x, _Scope(self.program), False)))
        return entry[1]((), env, self)

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
                if chain.per_row and self._shared_views \
                        and chain.steps[0].source.name not in self.firing:
                    v = _per_row_value(chain, self)
                else:
                    v = run_chain(chain, {}, self)
                val = val | v if val else v  # a kept value stays that object
            self._qmemo[name] = val
            return val
        totals, rounds = apply_fixpoint(group, self)
        for q, v in totals.items():
            self._qmemo[q] = v
        self.rounds[",".join(sorted(group.scc))] = rounds
        return self._qmemo[name]


def _per_row_value(chain: Chain, ctx: GraphContext) -> frozenset:
    """`run_chain(chain, {}, ctx)` for a chain that `_per_row` admits. The
    outputs of each row of the scanned table are kept in `ctx.views` under
    the scan's id, with the row they came from, by the row's key: a row is
    immutable, so they hold while the table keeps that row object. A call
    runs the chain once, over the rows not kept yet, and drops the keys that
    left the table; the value is the object kept with the outputs while no
    row changed. (Keys are looked up rather than rows, since a key tuple
    hashes in C.)"""
    scan, env = chain.steps[0], {}
    table = ctx.snapshot.tables[scan.source.name]
    rows, outputs, value = ctx.views.get(scan.op_id) or ({}, {}, frozenset())
    new = [(k, row) for k, row in table.items() if rows.get(k) is not row]
    if not new and len(rows) == len(table):
        return value
    if new:
        ctx.note(scan.op_id, len(new))
        bindings = _steps(chain, 1, [(row,) for _, row in new], env, ctx, None)
        project = chain.steps[-1]
        out = _unary(project.out, project.get, env, ctx)
        found = {id(row): [] for _, row in new}
        for s in bindings:
            v = out(s)
            if v is not MISSING:
                found[id(s[0])].append(v)
        # an output that cannot be hashed raises here, before it is kept
        ctx.note(project.op_id, len(frozenset(concat.from_iterable(
            found.values()))))
        for k, row in new:
            rows[k], outputs[k] = row, tuple(found[id(row)])
    if len(rows) != len(table):
        for k in [k for k in rows if k not in table]:
            del rows[k], outputs[k]
    value = frozenset(concat.from_iterable(outputs.values()))
    ctx.views[scan.op_id] = (rows, outputs, value)
    return value


@dataclass
class _View:
    """What `apply_fixpoint` keeps of a group's last evaluation."""
    inputs: dict   # input name -> the value the call read
    base: dict     # member -> its base facts
    totals: dict   # member -> its facts
    bound: int     # rounds a from-scratch evaluation would take, at most


def apply_fixpoint(group: FixpointGroup, ctx: GraphContext):
    """Least fixpoint of a recursive query group by semi-naive iteration.

    The call reads the group's inputs and its members' base facts and
    compares them with what the view stored in `ctx.views` saw. It resumes
    when each is equal, or a superset when both are sets, and no input that
    a rule reads as one value (under a fold, say) has changed: the old
    totals plus the new base facts get one delta pass per generator over a
    grown input (a full pass for a rule that reads a grown input anywhere
    else), then the semi-naive loop runs from the facts that are new. The
    passes read the stored totals as they are, so a delta pass over a join
    right after a scan of them probes the scan's kept index once per delta
    item (see `_scan_join`). With no stored view, or after any other change
    (a deletion, an assignment, a replaced table row, a changed scalar, a
    rejected fork's state), it recomputes from the base facts.
    Resuming is sound because compile_queries admits only monotone rules
    into a recursive group, so the old least fixpoint lies below the new
    one. Either way the inputs, base facts and result are stored for the
    next call.

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
        old = view.totals
        result = _iterate(group, ctx,
                          *_resume_round(group, ctx, view, inputs, grown),
                          cap=ctx.max_rounds - view.bound + 1)
        if result is not None:
            bound = view.bound + result[1] - 1
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
    ctx.views[group.scc] = _View(inputs, base, result[0], bound)
    return result


def _growth(group: FixpointGroup, view: _View, inputs: dict, base: dict):
    """name -> facts added since `view` was stored, for each input or member
    whose facts grew; None when anything changed other than by growing."""
    grown = {}
    for old, new in ((view.inputs, inputs), (view.base, base)):
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


def _resume_round(group: FixpointGroup, ctx: GraphContext, view: _View,
                  inputs: dict, grown: dict):
    """(totals, delta) after the passes over the grown inputs. The passes
    read the stored totals plus the new base facts as frozensets, so a scan
    of them followed by a join with a delta probes the scan's kept index
    (see `_scan_join`)."""
    scc, old = group.scc, view.totals
    members = {q: old[q] | grown[q] if q in grown else old[q] for q in scc}
    grown_inputs = grown.keys() - scc
    reads = {**members, **{n: inputs[n] for n in grown_inputs}}
    derived = {q: set() for q in scc}
    for q in sorted(scc):
        for chain in group.plans[q].chains:
            if chain.side_reads & grown_inputs:
                derived[q] |= run_chain(chain, {}, ctx, totals=members)
                continue
            for step in chain.steps:
                if isinstance(step, (ExpandStep, HashJoinStep)) \
                        and isinstance(step.source, Data) \
                        and step.source.name in grown_inputs:
                    derived[q] |= run_chain(chain, {}, ctx, delta_step=step,
                                            totals=reads, delta=grown)
    delta = {q: frozenset(derived[q].union(grown.get(q, ())) - old[q])
             for q in scc}
    return {q: set(members[q]).union(derived[q]) for q in scc}, delta


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
