"""Operator-graph runtime backend.

Comprehensions compile to chains of Expand / HashJoin / Filter / Project
steps, and recursive query groups run semi-naive fixpoint iteration (only
newly derived facts re-enter the loop each round).

`compile_comp` compiles a chain once, into its plan and one Python
function generated from the plan. The plan is data: the steps, with op
ids, sources and the ids under which joins keep indexes. The function is
nested loops, one per generator, that bind each name in a local, run each
filter right after the generator that `ir.Comp.filter_levels` puts it at,
the interpreter's rule, and add each output straight into one set, so no
row tuple is built. Names, literals, field reads, `ir.ARITH` operators and
tuples over those are written inline, with `eval.eval_expr`'s `MISSING`
rules. Any other expression, a nested comprehension among them, is a
closure ``fn(slots, env, ctx)`` called with the tuple of the names bound
so far; its subexpressions that read no name the chain binds are
evaluated at most once per run, at first use. The text holds identifiers
and no value of the program (see `_Writer`), so `analyze --inspect` prints
it, and chains of one shape share one code object (`_code`). A tuple
binder takes its item's values by `eval.unpack`. The interpreter
(`interp`) stays the tree-walking oracle that this backend is tested
against and never calls.

Access paths. A generator over a named collection is a hash join or a
scan (`compile_comp`). The function reads the run-time choices from the
plan: which step reads a fixpoint's delta, which index a join keeps
(`_join_index`), whether a key can be hashed (if not, it is compared with
each item), and whether a scan and a join run as their twin
(`_scan_join`). A generator reads its named source when a row first
reaches it, and a join over an empty source evaluates no key. A
membership ``x in {p.k for p in t}``, where `k` is the whole key of table
`t`, is ``(x,) in`` the table's dict.

Kept results. A context's `views`, which a Transducer shares among its
contexts, keep each recursive group's result, resumed while its inputs
only grow (`apply_fixpoint`), and the outputs per table row of a rule
that scans a table (`_per_row_value`).

Loops iterate sets in whatever order they come; order is fixed only where
it is observable, by `EvalContext.collection`, sends and canonical
encoding. Each run of a chain notes the size of its result under its
project step's id (`GraphContext.note`). A handler's comprehension
compiles to its chain and any other expression to a closure at a scope
binding no slot (`GraphContext.eval`), each kept by identity on the
program's `CompiledQueries`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import lru_cache
from itertools import chain as concat
from operator import itemgetter
from typing import Optional

from .analysis import classify_expression, query_graph
from .eval import EvalContext, MISSING, fold_value, iter_source, unpack
from .ir import (
    ARITH, MAX_GENERATORS, BinOp, Comp, Data, Expr, Field, Fold, Gen, In,
    Index, Len, Lit, Lookup, MakeRow, Not, Record, RangeOf, Slice, TupleOf,
    Var, _children, kept, walk_expr,
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
    width: int = 0          # names in a tuple binder, 0 for a single name


@dataclass
class HashJoinStep(ExpandStep):
    key: object = None      # closure of the binder-side key, over the
                            # binder's values alone
    keepable: bool = False  # `key` reads nothing but the binder, so an
                            # index of a source by it outlives the run
    key_get: object = None  # `key` as an itemgetter, or None (see _getter)


@dataclass
class Chain:
    steps: list
    comp: Comp
    side_reads: frozenset = frozenset()  # names read anywhere but as the
                                         # source of a generator step
    per_row: bool = False  # outputs kept per table row (see _per_row_value)
    # fn(env, ctx, sources, slots) -> the set of outputs of one run, and
    # its text
    fn: object = None
    source: str = ""
    # for a scan and then a join on a key over the scan's names: the id
    # under which the twin's join keeps its index of the scanned collection
    # in `views`, the twin once compiled, and its program (see _scan_join)
    scan_index: Optional[str] = None
    twin: Optional["Chain"] = None
    program: object = None

    def recursive_refs(self, scc) -> list:
        return [s for s in self.steps if isinstance(s, ExpandStep)
                and isinstance(s.source, Data) and s.source.name in scc]

    def swapped(self) -> "Chain":
        """The twin: the chain with its first two generators swapped, so
        that its join probes an index of the scanned collection; compiled
        at first use."""
        if self.twin is None:
            first, second, *rest = self.comp.gens
            self.twin = compile_comp(
                Comp(self.comp.output, (second, first, *rest),
                     self.comp.filters), self.program)
            self.twin.steps[1].op_id = self.scan_index
        return self.twin


_counter = [0]


def _oid(kind: str) -> str:
    _counter[0] += 1
    return f"{kind}:{_counter[0]}"


class _Scope:
    """Where each name lives while a chain compiles: `slots` maps a name to
    its slot in the binding tuple, and any other name is read from the
    caller's env. `local` holds the names the chain has bound so far, and
    `sure` the slots that cannot hold MISSING: those bound from a named
    collection, none of whose items is or holds MISSING. `program` is the
    one the chain belongs to, whose table keys let a key membership compile
    to a dict lookup."""

    def __init__(self, program, slots=None, width: int = 0, sure=()):
        self.program = program
        self.slots = dict(slots or {})
        self.width = width
        self.local = set()
        self.sure = set(sure)

    def nested(self) -> "_Scope":
        """The scope a nested comprehension starts from: every name of this
        one is bound outside it."""
        return _Scope(self.program, self.slots, self.width, self.sure)

    def bind(self, gen: Gen):
        """Give the generator's names the next slots."""
        for name in gen.names:
            self.slots[name] = self.width
            self.width += 1
            self.local.add(name)
            if isinstance(gen.source, Data):
                self.sure.add(name)
            else:
                self.sure.discard(name)


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
    in a slot that cannot hold MISSING or a tuple of two or more such names;
    None otherwise. It gives what `_expr(e, scope)` gives."""
    if isinstance(e, Var) and e.name in scope.sure:
        return itemgetter(scope.slots[e.name])
    if isinstance(e, TupleOf) and len(e.items) > 1 and all(
            isinstance(x, Var) and x.name in scope.sure for x in e.items):
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


def _strict(fn, sub: list):
    """fn(slots, env, ctx) giving `fn` of the values of the closures `sub`,
    or MISSING when one is MISSING, after each is evaluated."""
    if len(sub) == 1:
        [a] = sub
        return lambda s, env, ctx: \
            MISSING if (x := a(s, env, ctx)) is MISSING else fn(x)
    if len(sub) == 2:
        a, b = sub

        def two(s, env, ctx):
            x, y = a(s, env, ctx), b(s, env, ctx)
            return MISSING if x is MISSING or y is MISSING else fn(x, y)

        return two

    def many(s, env, ctx):
        xs = [f(s, env, ctx) for f in sub]
        return MISSING if MISSING in xs else fn(*xs)

    return many


def _item(base, i):
    try:
        return base[i]
    except (IndexError, KeyError):
        return MISSING


# the nodes that `_strict` evaluates, but for a field read and an operator
_STRICT = {Not: lambda v: not v, TupleOf: lambda *xs: xs, Len: len,
           RangeOf: lambda n: tuple(range(n)), Index: _item,
           Slice: lambda b, i, j: tuple(b[i:j])}


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
        name = e.name
        return _strict(lambda b: b.get(name, MISSING), sub)
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
        return _strict(ARITH.get(e.op)
                       or (lambda a, b, name=e.op: ARITH[name]), sub)
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
        return _strict((lambda x, c: x not in c) if negated
                       else (lambda x, c: x in c), sub)
    if type(e) in _STRICT:
        return _strict(_STRICT[type(e)], sub)
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
    raise TypeError(f"unknown expression node: {e!r}")


# --- generated chain functions ---------------------------------------------

# the ARITH operators as Python writes them: `operator.add(a, b)` is `a + b`
_PY_OPS = {op: op for op in ("+", "-", "*", "//", "%", "==", "!=", "<",
                             "<=", ">", ">=")}


def _inline(e: Expr) -> bool:
    """Whether a chain's function writes `e` inline: a name, a literal, a
    field read, an ARITH operator or a tuple over such expressions."""
    t = type(e)
    if t is Field:
        return _inline(e.base)
    if t is BinOp:
        return e.op in _PY_OPS and _inline(e.left) and _inline(e.right)
    return t is Var or t is Lit or t is TupleOf and all(map(_inline, e.items))


def _tuple(items: list) -> str:
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


def _target(names: list) -> str:
    return ", ".join(names) if len(names) > 1 else _tuple(names)


@lru_cache(maxsize=1024)
def _code(text: str):
    """The code object of a chain function's text: chains of one shape, in
    any program, share it, so compiling a program again compiles nothing."""
    return compile(text, "<chain>", "exec")


class _Writer:
    """The text of a chain's function, written as `compile_comp` walks the
    chain, and the namespace its names are bound in. A name bound by the
    chain or an enclosing one is the local ``v<slot>``; a value of the
    program (a literal, a field or outer name, a binder, a step, a closure)
    is an entry ``c<n>``, ``b<n>``, ``s<n>`` or ``f<n>``, numbered in the
    order of use, so the text depends on the chain's shape alone."""

    def __init__(self, scope: _Scope):
        self.scope, self.outer = scope, scope.width
        self.lines, self.depth = [], 1  # (depth, text) of the loops
        self.ns, self.counts = dict(_HELPERS), {}
        self.lazy = []  # locals that start as None
        self.skip = "return out"  # what drops a row: "continue" in a loop

    def emit(self, text: str, indent: int = 0):
        self.lines.append((self.depth, text))
        self.depth += indent

    def unless(self, test: str):
        """Drop the row, or the run outside any loop, unless `test`."""
        self.emit(f"if not {test}:", 1)
        self.emit(self.skip, -1)

    def name(self, prefix: str, value=None) -> str:
        n = self.counts[prefix] = self.counts.get(prefix, -1) + 1
        if prefix != "t":
            self.ns[f"{prefix}{n}"] = value
        return f"{prefix}{n}"

    def atom(self, text: str) -> str:
        """`text` as a name: itself, or a local assigned its value."""
        if text.isidentifier():
            return text
        local = self.name("t")
        self.emit(f"{local} = {text}")
        return local

    def value(self, e: Expr) -> tuple:
        """(text, whether it may be MISSING) of an inline expression, after
        the statements that evaluate its parts in `eval.eval_expr`'s order."""
        t = type(e)
        if t is Var:
            slot = self.scope.slots.get(e.name)
            if slot is None:
                return self.atom(f"env[{self.name('c', e.name)}]"), True
            return f"v{slot}", e.name not in self.scope.sure
        if t is Lit:
            return self.name("c", e.value), e.value is MISSING
        if t is Field:
            base, missing = self.value(e.base)
            get = f"{base}.get({self.name('c', e.name)}, MISSING)"
            return self.atom(f"MISSING if {base} is MISSING else {get}"
                             if missing else get), True
        # every operand is evaluated, in order, before any is tested for
        # MISSING
        parts = [(self.atom(p), m) for p, m in map(self.value, _children(e))]
        texts = [p for p, _ in parts]
        text = _tuple(texts) if t is TupleOf \
            else f"({texts[0]} {_PY_OPS[e.op]} {texts[1]})"
        tests = " or ".join(f"{p} is MISSING" for p, m in parts if m)
        if not tests:
            return text, False
        return self.atom(f"MISSING if {tests} else {text}"), True

    def eval(self, e: Expr) -> tuple:
        """(text, whether it may be MISSING) of `e`: inline, or a call of its
        closure with the names bound so far."""
        if _inline(e):
            return self.value(e)
        bound = _tuple([f"v{i}" for i in range(self.scope.width)])
        f = self.name("f", _expr(e, self.scope))
        return f"{f}({bound}, env, ctx)", True

    def source(self, step, level: int, join: bool) -> str:
        """What holds a step's named source: read when a row first reaches
        it, with a join's index of it."""
        s, src = self.name("s", step), f"src{level}"
        if not (level or join):
            return f"sources.rows({s})"
        self.lazy.append(src)
        self.emit(f"if {src} is None:", 1)
        self.emit(f"{src} = sources.rows({s})")
        if join:
            self.lazy.append(f"index{level}")
            self.emit(f"index{level} = join_index({s}, {src}, sources, env, "
                      "ctx)")
        self.depth -= 1
        return src

    def generator(self, step, g: Gen, level: int, other: Optional[Expr]):
        """The loop of a generator step at `level`, which binds `g`'s names:
        over the items of its source, or for a join, over the binder's
        values in the entries of its source's index under the row-side key
        `other`, evaluated only when the source has items."""
        if other is not None:
            src = self.source(step, level, True)
            self.unless(src)
            key, items = self.atom(self.eval(other)[0]), f"found{level}"
            self.emit("try:", 1)
            self.emit(f"{items} = index{level}.get({key}, ())", -1)
            self.emit("except TypeError:  # a key that cannot be hashed", 1)
            self.emit(f"{items} = compare(index{level}, {key})", -1)
        elif isinstance(step.source, Data):
            items = self.source(step, level, False)
        else:
            items = f"source_items({self.eval(step.source)[0]})"
        self.scope.bind(g)
        self.skip = "continue"
        names = [f"v{self.scope.slots[n]}" for n in g.names]
        if other is not None:  # an index entry holds the binder's values
            self.emit(f"for {_target(names)} in {items}:", 1)
        elif not step.width:
            self.emit(f"for {names[0]} in {items}:", 1)
        else:
            item, binder = f"item{level}", self.name("b", step.binder)
            self.emit(f"for {item} in {items}:", 1)
            self.emit(f"{_target(names)} = {item} if type({item}) is tuple "
                      f"and len({item}) == {step.width} else "
                      f"unpack({binder}, {item})")

    def output(self, e: Expr):
        text, missing = self.eval(e)
        if missing:
            text = self.atom(text)
            self.emit(f"if {text} is not MISSING:", 1)
        self.emit(f"add({text})")

    def function(self) -> tuple:
        """(function, text) of the chain."""
        lines = [(0, "def chain(env, ctx, sources, slots):")]
        if self.outer:
            names = [f"v{i}" for i in range(self.outer)]
            lines.append((1, f"{_target(names)} = slots"))
        # the run's hoisted values join the outer names
        lines += [(1, "env = dict(env)"), (1, "out = set()"),
                  (1, "add = out.add")]
        if self.lazy:
            lines.append((1, " = ".join(self.lazy) + " = None"))
        text = "".join(f"{'    ' * d}{line}\n"
                       for d, line in lines + self.lines + [(1, "return out")])
        exec(_code(text), self.ns)
        # taken out of its own globals, so that no cycle keeps it alive
        return self.ns.pop("chain"), text


def compile_comp(e: Comp, program, outer: Optional[_Scope] = None) -> Chain:
    """Compile a comprehension of `program` into a chain: its plan and the
    function generated from it; `outer` is the scope of the chain a nested
    comprehension sits in.

    Each filter runs right after the generator that `Comp.filter_levels`
    puts it at. A generator over a named collection is a hash join when the
    first filter due after it is an equality that `_access_path` takes, and
    a scan otherwise. A scan of a named collection and then a join on a key
    over the scan's names also get a twin (see `Chain.swapped`). A
    comprehension that binds a name twice, or has more than
    `ir.MAX_GENERATORS` generators, is rejected, as `ir.validate` rejects
    it.
    """
    name = e.repeated_binder()
    if name is not None:
        raise ValueError(f"comprehension binds {name!r} twice")
    if len(e.gens) > MAX_GENERATORS:
        raise ValueError(f"comprehension has more than {MAX_GENERATORS} "
                         "generators")
    scope = outer.nested() if outer is not None else _Scope(program)
    top = not scope.slots  # no enclosing chain binds a slot
    names = {n for g in e.gens for n in g.names}
    code = _Writer(scope)
    steps = []
    bound: set = set()
    swap = False

    def filter_steps(filters):
        for f in filters:
            steps.append(Step(_oid("filter"), "filter"))
            code.unless(code.eval(f)[0])

    for level, (g, due) in enumerate(zip(e.gens, e.filter_levels())):
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
            step = HashJoinStep(
                _oid("hashjoin"), "hashjoin", g.binder, g.source, width,
                _expr(own, keys), _context_free(own), _getter(own, keys))
            # a scan of a named collection, then this join on a key over the
            # scan's names: the twin indexes the collection by that key
            swap = swap or top and len(steps) == 1 \
                and steps[0].kind == "expand" \
                and isinstance(steps[0].source, Data) \
                and _context_free(other) and _free_vars(other) \
                and _free_vars(other) <= bound
        else:
            other, step = None, ExpandStep(_oid("expand"), "expand", g.binder,
                                           g.source, width)
        steps.append(step)
        code.generator(step, g, level, other)
        bound |= new_vars
        filter_steps(due)
    if not e.gens:
        filter_steps(e.filters)
    steps.append(Step(_oid("project"), "project"))
    code.output(e.output)
    chain = Chain(steps, e)
    chain.fn, chain.source = code.function()
    if swap:
        chain.scan_index, chain.program = _oid("scanindex"), program
    return chain


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


# --- what a chain's function calls -----------------------------------------

def _items(value):
    return value if isinstance(value, frozenset) else iter_source(value)


def _entries(step, src) -> list:
    """The tuple of values the step's binder takes from each item of `src`
    (`eval.unpack` for a tuple binder)."""
    k, binder = step.width, step.binder
    if not k:
        return [(item,) for item in src]
    return [item if type(item) is tuple and len(item) == k
            else unpack(binder, item) for item in src]


class _Sources:
    """Where one run of a chain reads a generator's named collection. When
    iterating a fixpoint, `delta_step` is the one occurrence of a name in
    `totals` fed with `delta` instead of the running total."""

    __slots__ = ("ctx", "totals", "delta", "delta_step")

    def __init__(self, ctx, totals=None, delta=None, delta_step=None):
        self.ctx, self.totals = ctx, totals
        self.delta, self.delta_step = delta, delta_step

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


def _index_of(step, src, key) -> dict:
    """key(values) -> the binder's values of the items of `src` with that
    key; an item whose key is MISSING equals nothing."""
    index = {}
    for t in _entries(step, src):
        k = key(t)
        if k is not MISSING:
            index.setdefault(k, []).append(t)
    return index


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


class _Compared(list):
    """What stands for a join's index when a key of its source cannot be
    hashed: (key, values) for each item whose key is not MISSING, and a
    lookup compares a key with each, as the interpreter's filter does."""

    def __init__(self, step, src, key):
        super().__init__((k, (t,)) for t in _entries(step, src)
                         if (k := key(t)) is not MISSING)

    def items(self):
        return self

    def get(self, k, default=()):
        return _compare(self, k)


def _compare(index, k) -> list:
    """The values under each key of `index` equal to `k`, compared one by
    one: the lookup of a key that cannot be hashed."""
    return [t for key, ts in index.items() if k == key for t in ts]


def _join_index(step: HashJoinStep, src, sources: _Sources, env: dict, ctx):
    """The index of a join's source `src` that its rows probe: a `_Compared`
    when a key of the source cannot be hashed, else the one kept in `views`
    (see `_kept_index`) of a frozenset other than the delta, by a key that
    reads the binder alone, else one built for the run. An empty source
    evaluates no key."""
    if not src:
        return {}
    key = step.key_get or (lambda t: step.key(t, env, ctx))
    try:
        if step.keepable and type(src) is frozenset \
                and step is not sources.delta_step:
            return _kept_index(step.op_id, step, src, key, ctx.views)
        return _index_of(step, src, key)
    except TypeError:  # a key that cannot be hashed
        return _Compared(step, src, key)


def _scan_join(chain: Chain, sources: _Sources) -> bool:
    """Whether a chain is to run as its twin, whose join probes the kept
    index of the chain's scanned source once per item of the chain's join
    source: when the scan reads a frozenset other than the delta, and the
    join's source has fewer items, but some. An empty scan reads no other
    source."""
    scan, join = chain.steps[0], chain.steps[1]
    if scan is sources.delta_step:
        return False
    items = sources.rows(scan)
    if type(items) is not frozenset or not items:
        return False
    return 0 < len(sources.rows(join)) < len(items)


# the names a chain's function reads besides its namespace entries
_HELPERS = {"MISSING": MISSING, "unpack": unpack, "source_items": _items,
            "join_index": _join_index, "compare": _compare}


def run_chain(chain: Chain, env0: dict, ctx: "GraphContext",
              delta_step=None, totals=None, delta=None, slots=()) -> set:
    """The new set of outputs of a run of the chain's function (or its
    twin's) from the binding `slots` (a nested comprehension's enclosing
    row), reading outer names from `env0`; `delta_step` marks the one
    occurrence of a name in `totals` fed with `delta` instead. The set's
    size is noted under the project step's id."""
    sources, fn = _Sources(ctx, totals, delta, delta_step), chain.fn
    if chain.scan_index is not None and _scan_join(chain, sources):
        twin = chain.swapped()
        fn = twin.fn
        if delta_step is not None:
            # the twin has the chain's steps, the first two swapped
            i = [s is delta_step for s in chain.steps].index(True)
            sources.delta_step = twin.steps[i ^ 1 if i < 2 else i]
    out = fn(env0, ctx, sources, slots)
    ctx.note(chain.steps[-1].op_id, len(out))
    return out


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
    if scan.kind != "expand" or not isinstance(scan.source, Data) \
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
        """Called with the size of each chain run's result, under the id of
        the chain's project step; a hook for instrumentation, which does
        nothing here."""

    def eval_comp(self, e: Comp, env: dict, slots: tuple = (),
                  chain: Optional[Chain] = None) -> frozenset:
        """A compiled comprehension passes its chain, and its enclosing row
        as `slots`; any other is compiled once, kept on `self.compiled`."""
        if chain is None:
            chain = self.compiled.handler_expr(
                e, lambda c: compile_comp(c, self.program))
        return frozenset(run_chain(chain, env, self, slots=slots))

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
                    v = frozenset(run_chain(chain, {}, self))
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
    runs the chain's function once on each row not kept yet, and drops the
    keys that left the table; the value is the object kept with the outputs
    while no row changed. (Keys are looked up rather than rows, since a key
    tuple hashes in C.)"""
    scan = chain.steps[0]
    table = ctx.snapshot.tables[scan.source.name]
    rows, outputs, value = ctx.views.get(scan.op_id) or ({}, {}, frozenset())
    new = [(k, row) for k, row in table.items() if rows.get(k) is not row]
    if not new and len(rows) == len(table):
        return value
    if new:
        name = scan.source.name
        found = [tuple(chain.fn({}, ctx, _Sources(ctx, {name: (row,)}), ()))
                 for _, row in new]
        ctx.note(chain.steps[-1].op_id,
                 len(frozenset(concat.from_iterable(found))))
        for (k, row), outs in zip(new, found):
            rows[k], outputs[k] = row, outs
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

    The call compares the group's inputs and its members' base facts with
    what the view stored in `ctx.views` saw. It resumes when each is equal,
    or a superset when both are sets, and no input that a rule reads as one
    value (under a fold, say) has changed: the old totals plus the new base
    facts get one delta pass per generator over a grown input (a full pass
    for a rule that reads a grown input anywhere else), then the
    semi-naive loop runs from the facts that are new. The passes read the
    stored totals as they are, so a delta joined after a scan of them
    probes the scan's kept index (see `_scan_join`). After any other change
    (a deletion, an assignment, a replaced table row, a changed scalar, a
    rejected fork's state) it recomputes from the base facts. Resuming is
    sound because compile_queries admits only monotone rules into a
    recursive group. Either way the inputs, base facts and result are
    stored for the next call.

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
                if isinstance(step, ExpandStep) \
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
        delta = new  # a delta is never indexed beyond its run, so a set
    return {q: frozenset(v) for q, v in totals.items()}, rounds
