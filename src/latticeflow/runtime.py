"""Operator-graph runtime backend.

Comprehensions compile to chains of Expand / HashJoin / Filter / Project
steps, and recursive query groups run semi-naive fixpoint iteration (only
newly derived facts re-enter the loop each round).

One code generator. `_Writer` writes every expression of this backend as
Python text, with `eval.eval_expr`'s `MISSING` rules: each strict operand
is evaluated, in order, before any is tested, and `and`, `or` and a record
stop early; the statements of an operand they may skip run under a guard,
one line each, so no depth of expression adds a block. A nested
comprehension is a call of `ctx.eval_comp` with its chain. Three kinds of
function are generated:
- `compile_comp` compiles a chain once, into its plan and one function:
  nested loops, one per generator, that bind each name in a local, run
  each filter right after the generator that `ir.Comp.filter_levels` puts
  it at, the interpreter's rule, and add each output straight into one
  set, so no row tuple is built. A subexpression that reads no name the
  chain binds is evaluated at most once per run, at first use, into a
  local that starts `UNSET`.
- A join's index of its source is built by a function of its own, a loop
  over the source's items that adds each under its binder-side key
  (`_Writer.index`).
- A handler expression compiles to ``expr(env, ctx)`` (`compile_expr`).
The text holds identifiers and no value of the program (see `_Writer`), so
`analyze --inspect` prints it, and functions of one shape share one code
object (`_code`). A tuple binder takes its item's values by
`eval.unpack`. The interpreter (`interp`) stays the tree-walking oracle
that this backend is tested against and never calls.

Access paths. A generator over a named collection is a hash join or a
scan, chosen once when `compile_comp` writes the chain's one function.
At run time the function reads which step takes a fixpoint's delta,
which index a join keeps (`_join_index`) and whether a key can be hashed
(if not, it is compared with each item). A generator reads its named
source when a row first reaches it, and a join over an empty source
evaluates no key. A membership ``x in {p.k for p in t}``, where `k` is
the whole key of table `t`, is ``(x,) in`` the table's dict.

Kept results. A context's `views`, which a Transducer shares among its
contexts, keep each recursive group's result, resumed while its inputs
only grow (`apply_fixpoint`), and the indexes that joins keep
(`_kept_index`).

Loops iterate sets in whatever order they come; order is fixed only where
it is observable, by `EvalContext.collection`, sends and canonical
encoding. Each run of a chain notes the size of its result under its
project step's id (`GraphContext.note`). A handler's comprehension
compiles to its chain and any other expression to its function
(`GraphContext.eval`), each kept by identity on the program's
`CompiledQueries`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import lru_cache
from typing import Optional

from .analysis import classify_expression, query_graph
from .eval import EvalContext, MISSING, fold_value, iter_source, unpack
from .ir import (
    ARITH, MAX_GENERATORS, BinOp, Comp, Data, Expr, Field, Fold, Gen, In,
    Index, Len, Lit, Lookup, MakeRow, Not, Record, RangeOf, TupleOf, Var,
    _children, kept, walk_expr,
)
from .state import FixpointDivergence, Row, default_row


class NonMonotoneRecursion(Exception):
    """A recursive group that semi-naive iteration cannot evaluate: a rule
    of it runs a non-monotone operator, or reads a member of the group
    other than as the source of one of its own generators, which a delta
    pass never feeds."""


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
    keepable: bool = False  # the key reads nothing but the binder, so an
                            # index of a source by it outlives the run
    # fill(items, env, ctx, index) adds each item to `index` under its key
    # (see _Writer.index)
    fill: object = None


@dataclass
class Chain:
    steps: list
    comp: Comp
    side_reads: frozenset = frozenset()  # names read anywhere but as the
                                         # source of a generator step
    # fn(env, ctx, sources, slots) -> the set of outputs of one run; its
    # text, then the text of its joins' index functions
    fn: object = None
    source: str = ""

    def recursive_refs(self, scc) -> list:
        return [s for s in self.steps if isinstance(s, ExpandStep)
                and isinstance(s.source, Data) and s.source.name in scc]


_counter = [0]


def _oid(kind: str) -> str:
    _counter[0] += 1
    return f"{kind}:{_counter[0]}"


class _Scope:
    """Where each name lives while a function is written: `slots` maps a
    name to its slot, the local ``v<slot>``, and any other name is read
    from the caller's env. `local` holds the names the function has bound
    so far, and `sure` the slots that cannot hold MISSING: those bound from
    a named collection, none of whose items is or holds MISSING. `program`
    is the one the function belongs to, whose table keys let a key
    membership compile to a dict lookup."""

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


# --- generated functions ---------------------------------------------------

# the ARITH operators as Python writes them: `operator.add(a, b)` is `a + b`
_PY_OPS = {op: op for op in ("+", "-", "*", "//", "%", "==", "!=", "<",
                             "<=", ">", ">=")}


def _tuple(items: list) -> str:
    return f"({', '.join(items)}{',' if len(items) == 1 else ''})"


def _target(names: list) -> str:
    return ", ".join(names) if len(names) > 1 else _tuple(names)


@lru_cache(maxsize=1024)
def _code(text: str):
    """The code object of a generated function's text: functions of one
    shape, in any program, share it, so compiling a program again compiles
    nothing."""
    return compile(text, "<generated>", "exec")


class _Writer:
    """The text of one generated function, written as its chain, index or
    expression is walked, and the namespace its names are bound in.

    A name bound by the chain or an enclosing one is the local ``v<slot>``;
    a value of the program (a literal, a field, table or outer name, a
    binder, a step, a nested comprehension and its chain) is an entry
    ``c<n>``, ``b<n>`` or ``s<n>``, numbered in the order of use, so the
    text depends on the shape alone. A local ``t<n>`` holds a value,
    ``h<n>`` one kept for the run (see `once`), and ``g<n>`` a guard: while
    a guard is set, each statement written runs only when it is true (see
    `assign`)."""

    def __init__(self, scope: _Scope):
        self.scope, self.outer = scope, scope.width
        self.lines, self.depth = [], 1  # (depth, text) of the body
        self.ns, self.counts = dict(_HELPERS), {}
        self.lazy = []   # locals that start as None
        self.unset = []  # locals kept for the run, which start as UNSET
        self.skip = "return out"  # what drops a row: "continue" in a loop
        self.guard = None
        # whether a value that reads no name bound here is kept for the run
        # (see `once`): inside a loop, and not inside a value already kept
        self.keep = False

    def emit(self, text: str, indent: int = 0):
        self.lines.append((self.depth, text))
        self.depth += indent

    def unless(self, test: str):
        """Drop the row, or the run outside any loop, unless `test`."""
        self.emit(f"if not {test}:", 1)
        self.emit(self.skip, -1)

    def name(self, prefix: str, value=None) -> str:
        n = self.counts[prefix] = self.counts.get(prefix, -1) + 1
        if prefix in ("c", "b", "s"):
            self.ns[f"{prefix}{n}"] = value
        return f"{prefix}{n}"

    def let(self, text: str) -> str:
        """`text` as a name: itself, or a local assigned its value."""
        if text.isidentifier():
            return text
        local = self.name("t")
        self.assign(local, text)
        return local

    def assign(self, local: str, text: str):
        """``local = text``, on one line, run only while the guard holds."""
        self.emit(f"if {self.guard}: {local} = {text}" if self.guard
                  else f"{local} = {text}")

    def when(self, test: str) -> str:
        """A new guard, true when the current one is and `test` holds."""
        local = self.name("g")
        self.emit(f"{local} = {self.guard} and ({test})" if self.guard
                  else f"{local} = {test}")
        return local

    def under(self, guard: str, e: Expr) -> tuple:
        """`value(e)`, its statements run only when `guard` holds."""
        outer, self.guard = self.guard, guard
        out = self.value(e)
        self.guard = outer
        return out

    def value(self, e: Expr) -> tuple:
        """(text, whether it may be MISSING) of `e`, after the statements
        that evaluate its parts in `eval.eval_expr`'s order."""
        t = type(e)
        if t is Var:
            slot = self.scope.slots.get(e.name)
            if slot is None:
                return self.let(f"env[{self.name('c', e.name)}]"), True
            return f"v{slot}", e.name not in self.scope.sure
        if t is Lit:
            return self.name("c", e.value), e.value is MISSING
        if self.keep and not _free_vars(e) & self.scope.local:
            return self.once(e)
        if t is BinOp and e.op in ("and", "or"):
            return self.junction(e)
        if t is In:
            table = _key_table(e.coll, self.scope.program)
            if table is not None:
                return self.member(e, table)
        if t is Record or t is MakeRow:
            return self.record(e)
        if t is Data:
            return f"ctx.collection({self.name('c', e.name)})", False
        if t is Comp:
            chain = compile_comp(e, self.scope.program, self.scope)
            slots = _tuple([f"v{i}" for i in range(self.scope.width)])
            return (f"ctx.eval_comp({self.name('c', e)}, env, {slots}, "
                    f"{self.name('c', chain)})"), False
        if t is Fold:
            source = self.value(e.source)[0]
            return self.let(f"fold_value({self.name('c', e.kind)}, {source}, "
                            "ctx)"), True
        return self.strict(e)

    def strict(self, e: Expr) -> tuple:
        """A node that is MISSING when an operand is: every operand is
        evaluated, in order, before any is tested."""
        parts = [(self.let(p), m) for p, m in map(self.value, _children(e))]
        xs, t, missing = [p for p, _ in parts], type(e), False
        if t is BinOp:
            text = (f"({xs[0]} {_PY_OPS[e.op]} {xs[1]})" if e.op in _PY_OPS
                    # an operator `validate` rejects raises only when
                    # evaluated, as on the interpreter
                    else f"ARITH[{self.name('c', e.op)}]({xs[0]}, {xs[1]})")
        elif t is Field:
            text = f"{xs[0]}.get({self.name('c', e.name)}, MISSING)"
            missing = True
        elif t is TupleOf:
            text = _tuple(xs)
        elif t is Lookup:
            text = f"ctx.table_row({self.name('c', e.data)}, {xs[0]})"
            missing = True
        elif t is In:
            text = f"({xs[0]} {'not in' if e.negated else 'in'} {xs[1]})"
        elif t is Not:
            text = f"(not {xs[0]})"
        elif t is Len:
            text = f"len({xs[0]})"
        elif t is RangeOf:
            text = f"tuple(range({xs[0]}))"
        elif t is Index:
            text, missing = f"at({xs[0]}, {xs[1]})", True
        else:  # Slice; `_children` raised on a kind it does not know
            text = f"tuple({xs[0]}[{xs[1]}:{xs[2]}])"
        tests = " or ".join(f"{p} is MISSING" for p, m in parts if m)
        if tests:
            text, missing = f"MISSING if {tests} else {text}", True
        return (self.let(text), True) if missing else (text, False)

    def junction(self, e: BinOp) -> tuple:
        """`and` or `or`: the right operand runs only when the left one
        does not decide."""
        left, maybe = self.value(e.left)
        left = self.let(left)
        if e.op == "and":
            test = f"{left} is not MISSING and {left}" if maybe else left
            other = f"(MISSING if {left} is MISSING else False)" if maybe \
                else "False"
        else:
            test = f"{left} is MISSING or not {left}" if maybe \
                else f"not {left}"
            other = left
        go = self.when(test)
        right, missing = self.under(go, e.right)
        return (self.let(f"{right} if {go} else {other}"),
                missing or maybe and e.op == "and")

    def member(self, e: In, table: str) -> tuple:
        """``x in {p.k for p in t}`` for a key `k` of table `t`: a lookup of
        ``(x,)`` in the table's dict. No mailbox shadows a table, since no
        handler has a table's name (see `ir.validate`)."""
        item, maybe = self.value(e.item)
        item = self.let(item)
        op = "not in" if e.negated else "in"
        text = (f"(({item},) {op} "
                f"ctx.snapshot.tables[{self.name('c', table)}])")
        if maybe:
            text = f"MISSING if {item} is MISSING else {text}"
        return self.let(text), maybe

    def record(self, e) -> tuple:
        """A record or a row: MISSING at its first MISSING field, whose
        later fields are not evaluated."""
        outer, fields, maybe = self.guard, [], False
        for name, sub in e.fields:
            value, missing = self.value(sub)
            value = self.let(value)
            fields.append(f"{self.name('c', name)}: {value}")
            if missing:
                self.guard, maybe = self.when(f"{value} is not MISSING"), True
        text = "{" + ", ".join(fields) + "}"
        text = f"Row({text})" if type(e) is Record else \
            f"default_row(ctx.program.class_map[{self.name('c', e.cls)}], " \
            f"{text})"
        if maybe:
            text = f"{text} if {self.guard} else MISSING"
        self.guard = outer
        return self.let(text), maybe

    def once(self, e: Expr) -> tuple:
        """`e`, which reads no name bound here, evaluated at its first use
        in a run and kept in a local for the rest."""
        local, outer = self.name("h"), self.guard
        self.unset.append(local)
        self.guard, self.keep = self.when(f"{local} is UNSET"), False
        text, missing = self.value(e)
        self.assign(local, text)
        self.guard, self.keep = outer, True
        return local, missing

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
        over the items of its source, or for a join, over the entries of its
        source's index under the row-side key `other`, evaluated only when
        the source has items."""
        if other is not None:
            src = self.source(step, level, True)
            self.unless(src)
            key, items = self.let(self.value(other)[0]), f"found{level}"
            self.emit("try:", 1)
            self.emit(f"{items} = index{level}.get({key}, ())", -1)
            self.emit("except TypeError:  # a key that cannot be hashed", 1)
            self.emit(f"{items} = compare(index{level}, {key})", -1)
        elif isinstance(step.source, Data):
            items = self.source(step, level, False)
        else:
            items = f"source_items({self.value(step.source)[0]})"
        self.scope.bind(g)
        self.skip, self.keep = "continue", True
        names = [f"v{self.scope.slots[n]}" for n in g.names]
        if other is not None:  # an index entry holds the binder's values
            self.emit(f"for {_target(names) if step.width else names[0]} in "
                      f"{items}:", 1)
        elif not step.width:
            self.emit(f"for {names[0]} in {items}:", 1)
        else:
            self.emit(f"for item{level} in {items}:", 1)
            self.emit(f"{_target(names)} = {self.entry(step, f'item{level}')}")

    def entry(self, step, item: str) -> str:
        """The values of a tuple binder's names in `item`."""
        return (f"{item} if type({item}) is tuple and len({item}) == "
                f"{step.width} else unpack({self.name('b', step.binder)}, "
                f"{item})")

    def filter(self, f: Expr):
        """Drop the row unless `f` holds; an `and` is two filters."""
        if type(f) is BinOp and f.op == "and":
            self.filter(f.left)
            self.filter(f.right)
        else:
            self.unless(self.value(f)[0])

    def output(self, e: Expr):
        text, missing = self.value(e)
        if missing:
            text = self.let(text)
            self.emit(f"if {text} is not MISSING:", 1)
        self.emit(f"add({text})")

    def index(self, step, g: Gen, own: Expr) -> tuple:
        """(function, text) of a join's index function: it adds each item of
        the join's source to an index under the binder-side key `own`, unless
        that is MISSING; an entry holds the binder's values."""
        self.scope.bind(g)
        self.skip, self.keep = "continue", True
        if step.width:
            self.emit("for item in items:", 1)
            self.emit(f"entry = {self.entry(step, 'item')}")
            self.emit(f"{_target([f'v{i}' for i in range(step.width)])} = "
                      "entry")
        else:
            self.emit("for v0 in items:", 1)
        key, missing = self.value(own)
        if missing:
            self.emit(f"if {key} is not MISSING:", 1)
        self.emit(f"out.setdefault({key}, []).append("
                  f"{'entry' if step.width else 'v0'})")
        return self.function("index(items, env, ctx, out)")

    def function(self, head: str, first=(), last: str = "return out"):
        """(function, text) of the body written so far under `head`."""
        lines = [(0, f"def {head}:")]
        if self.outer:
            names = [f"v{i}" for i in range(self.outer)]
            lines.append((1, f"{_target(names)} = slots"))
        lines += [(1, line) for line in first]
        for names, start in ((self.lazy, "None"), (self.unset, "UNSET")):
            if names:
                lines.append((1, " = ".join(names) + f" = {start}"))
        text = "".join(f"{'    ' * d}{line}\n"
                       for d, line in lines + self.lines + [(1, last)])
        exec(_code(text), self.ns)
        # taken out of its own globals, so that no cycle keeps it alive
        return self.ns.pop(head[:head.index("(")]), text


def compile_expr(e: Expr, program) -> tuple:
    """(function, text) of a handler expression of `program` that is not a
    comprehension: ``expr(env, ctx)`` gives what `eval.eval_expr` gives."""
    code = _Writer(_Scope(program))
    text = code.value(e)[0]
    return code.function("expr(env, ctx)", last=f"return {text}")


def compile_comp(e: Comp, program, outer: Optional[_Scope] = None) -> Chain:
    """Compile a comprehension of `program` into a chain: its plan and the
    one function generated from it, with its joins' index functions;
    `outer` is the scope of the chain a nested comprehension sits in.

    Each filter runs right after the generator that `Comp.filter_levels`
    puts it at. A generator over a named collection is a hash join when the
    first filter due after it is an equality that `_access_path` takes, and
    a scan otherwise; the generators run in the order they are written. A
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
    names = {n for g in e.gens for n in g.names}
    code = _Writer(scope)
    steps, texts = [], []
    bound: set = set()

    def filter_steps(filters):
        for f in filters:
            steps.append(Step(_oid("filter"), "filter"))
            code.filter(f)

    for level, (g, due) in enumerate(zip(e.gens, e.filter_levels())):
        new_vars = set(g.names)
        width = len(g.binder) if isinstance(g.binder, tuple) else 0
        path = None
        if isinstance(g.source, Data) and due:
            path = _access_path(due[0], new_vars, names - bound)
        if path:
            other, own = path
            due = due[1:]
            step = HashJoinStep(_oid("hashjoin"), "hashjoin", g.binder,
                                g.source, width, _context_free(own))
            step.fill, text = _Writer(_Scope(scope.program)).index(step, g,
                                                                   own)
            texts.append(text)
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
    chain.fn, text = code.function("chain(env, ctx, sources, slots)",
                                   ("out = set()", "add = out.add"))
    chain.source = text + "".join(texts)
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


# --- what a generated function calls ---------------------------------------

def _items(value):
    return value if isinstance(value, frozenset) else iter_source(value)


def _item(base, i):
    try:
        return base[i]
    except (IndexError, KeyError):
        return MISSING


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
        if name in ctx.snapshot.tables:
            return ctx.snapshot.tables[name].values()
        return _items(ctx.collection(name))


def _kept_index(step: HashJoinStep, src: frozenset, env: dict, ctx) -> dict:
    """The index `step.fill` builds of `src`, kept in `ctx.views` under the
    step's id with the source it was built from: reused while the source
    is that object, grown by the new items when the old source is a subset
    of the new one, and rebuilt otherwise. One set difference tells both:
    the old source is a subset exactly when the new items leave as many as
    it holds."""
    views = ctx.views
    entry = views.pop(step.op_id, None)
    if entry is None:
        index = step.fill(src, env, ctx, {})
    elif entry[0] is src:
        index = entry[1]
    else:
        old, index = entry
        more = src - old
        if len(src) - len(more) == len(old):
            step.fill(more, env, ctx, index)
        else:
            index = step.fill(src, env, ctx, {})
    views[step.op_id] = (src, index)
    return index


class _Compared(list):
    """What stands for a join's index when a key of its source cannot be
    hashed: `fill` adds (key, entries) for each item, and a lookup compares
    a key with each, as the interpreter's filter does."""

    def setdefault(self, key, entries: list) -> list:
        self.append((key, entries))
        return entries

    def items(self):
        return self

    def get(self, k, default=()):
        return _compare(self, k)


def _compare(index, k) -> list:
    """The entries under each key of `index` equal to `k`, compared one by
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
    try:
        if step.keepable and type(src) is frozenset \
                and step is not sources.delta_step:
            return _kept_index(step, src, env, ctx)
        return step.fill(src, env, ctx, {})
    except TypeError:  # a key that cannot be hashed
        return step.fill(src, env, ctx, _Compared())


# the names a generated function reads besides its namespace entries
_HELPERS = {"MISSING": MISSING, "UNSET": object(), "ARITH": ARITH,
            "Row": Row, "default_row": default_row, "fold_value": fold_value,
            "at": _item, "unpack": unpack, "source_items": _items,
            "join_index": _join_index, "compare": _compare}


def run_chain(chain: Chain, env0: dict, ctx: "GraphContext",
              delta_step=None, totals=None, delta=None, slots=()) -> set:
    """The new set of outputs of a run of the chain's function from the
    binding `slots` (a nested comprehension's enclosing row), reading outer
    names from `env0`; `delta_step` marks the one occurrence of a name in
    `totals` fed with `delta` instead. The set's size is noted under the
    project step's id."""
    out = chain.fn(env0, ctx, _Sources(ctx, totals, delta, delta_step), slots)
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
    # for a Comp, its function for any other (see GraphContext.eval)
    handler_exprs: dict = dfield(default_factory=dict)

    def handler_expr(self, e, build):
        """`build(e)`, kept by the identity of `e`, since hashing an
        expression walks its whole tree; the entry keeps `e`, so its id
        cannot be reused while the entry lives."""
        entry = self.handler_exprs.get(id(e))
        if entry is None or entry[0] is not e:
            entry = self.handler_exprs[id(e)] = (e, build(e))
        return entry[1]


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
                    chains.append(compile_comp(body, program))
            plans[q] = QueryPlan(q, chains)
        if comp in graph.recursive:
            bad = graph.bad_edge
            if bad is not None and bad[0] in comp:
                raise NonMonotoneRecursion(
                    f"{bad[2]} reference to {bad[1]} inside recursive group {sorted(comp)}")
            inputs, value_reads = set(), set()
            for q in sorted(comp):
                for qd in program.query_map[q]:
                    for body in qd.bodies:
                        cls = classify_expression(body, program, f"query {q}")
                        if not cls.monotone:
                            raise NonMonotoneRecursion(
                                f"non-monotone rule body in recursive query {q}: "
                                f"{cls.reasons}")
                for chain, reads in zip(plans[q].chains, graph.reads[q]):
                    for r in reads:
                        if r.name in comp and not r.scan:
                            raise NonMonotoneRecursion(
                                f"recursive query {q} reads {r.name}, a member "
                                f"of its group, other than by its own generator")
                    chain.side_reads = frozenset(r.name for r in reads
                                                 if not r.scan)
                    inputs.update(r.name for r in reads)
                    value_reads.update(r.name for r in reads if r.whole)
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
                 views=None):
        super().__init__(program, snapshot)
        self.compiled = compiled
        # scc -> _View, see apply_fixpoint; join id -> _kept_index's entry
        self.views = {} if views is None else views
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
        """`e` run by `eval_comp` if a Comp, else by its generated function
        (see `compile_expr`), compiled once and kept on `self.compiled`."""
        if type(e) is Comp:
            return self.eval_comp(e, env)
        exprs = self.compiled.handler_exprs
        entry = exprs.get(id(e))
        if entry is None or entry[0] is not e:
            entry = exprs[id(e)] = (e, compile_expr(e, self.program)[0])
        return entry[1](env, self)

    def input_value(self, name: str):
        """A group input as the resume check compares it: a set for a
        query, a table or a set var, else the var's value. A group input is
        one of these, since a query reads no mailbox (see `ir.validate`)."""
        if name in self._query_names:
            return self.query_value(name)
        if name in self.snapshot.tables:
            return self.base_facts(name)
        return self.var(name)

    def query_value(self, name: str) -> frozenset:
        if name in self._qmemo:
            return self._qmemo[name]
        group = self.compiled.group_of.get(name)
        if group is None:
            val = self.base_facts(name)
            for chain in self.compiled.plans[name].chains:
                v = frozenset(run_chain(chain, {}, self))
                val = val | v if val else v
            self._qmemo[name] = val
            return val
        totals, rounds = apply_fixpoint(group, self)
        for q, v in totals.items():
            self._qmemo[q] = v
        self.rounds[",".join(sorted(group.scc))] = rounds
        return self._qmemo[name]


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
    semi-naive loop runs from the facts that are new. Which input a rule
    reads how comes from its `analysis.rule_reads` in the query graph
    (`Chain.side_reads`, `FixpointGroup.value_reads`). The passes read the
    stored totals as they are, so a join of them keeps its index across
    calls (see `_kept_index`). After any other change (a deletion, an
    assignment, a replaced table row, a changed scalar, a rejected fork's
    state) it recomputes from the base facts. Resuming is sound because
    compile_queries admits into a recursive group only monotone rules that
    read the group's members through their own generators. Either way the
    inputs, base facts and result are stored for the next call.

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
    read the stored totals plus the new base facts as frozensets, so a join
    of them probes its kept index, grown by the new facts (`_kept_index`),
    and a delta is scanned or joined where the chain's one plan puts it."""
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
