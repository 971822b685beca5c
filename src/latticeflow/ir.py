"""Declarative program representation.

A :class:`Program` bundles a data model (classes, tables, vars), named
queries, event handlers, and per-handler availability / consistency /
deployment-target annotations. Programs are immutable once built; they are
constructed through the dataclass constructors here or loaded from the JSON
format in :mod:`latticeflow.progjson`.

Handlers are syntactic sugar: :func:`desugar_handler` rewrites a handler
body into statements quantified over the handler's mailbox, with ``Return``
turned into a send on the implicit ``<name><response>`` mailbox keyed by
message id; :func:`prepared` does it once per handler object.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dfield
from functools import cached_property
from typing import NamedTuple, Optional, Tuple, Union

from .lattice import FIELD_SHAPES

MESSAGE_ID = "_message_id"
REPLY_TO = "_reply_to"
# the fields of a commit record besides the request's message id: its
# sequence number and the `state.Delta` the sequencer committed (see
# `transducer.commit_record`); `validate` refuses them as program fields, so
# that no request looks like a record
ORDERED = "_ordered"
EFFECTS = "_effects"


def response_mailbox(handler_name: str) -> str:
    return f"{handler_name}<response>"


# --- expressions -------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: object


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Field:
    base: "Expr"
    name: str


@dataclass(frozen=True)
class Data:
    """Reference to a table, var, query, or mailbox by name."""

    name: str


@dataclass(frozen=True)
class Lookup:
    """``table[key]``; a missing key yields an empty generator."""

    data: str
    key: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # a key of ARITH, or "and" / "or"
    left: "Expr"
    right: "Expr"


# the function of every binary operator but the short-circuiting "and" and
# "or": the one table that both evaluators apply and `validate` checks
ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "//": operator.floordiv,
    "%": operator.mod,
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass(frozen=True)
class Not:
    expr: "Expr"


@dataclass(frozen=True)
class In:
    item: "Expr"
    coll: "Expr"
    negated: bool = False


@dataclass(frozen=True)
class TupleOf:
    items: Tuple["Expr", ...]

    def __init__(self, *items):
        if len(items) == 1 and isinstance(items[0], (tuple, list)):
            items = tuple(items[0])
        object.__setattr__(self, "items", tuple(items))


@dataclass(frozen=True)
class Record:
    """Named-field constructor; evaluates to a message/row payload."""

    fields: Tuple[Tuple[str, "Expr"], ...]

    def __init__(self, fields=(), **kw):
        if isinstance(fields, dict):
            fields = tuple(fields.items())
        fields = tuple(fields) + tuple(kw.items())
        object.__setattr__(self, "fields", fields)


@dataclass(frozen=True)
class MakeRow:
    cls: str
    fields: Tuple[Tuple[str, "Expr"], ...]

    def __init__(self, cls, fields=(), **kw):
        if isinstance(fields, dict):
            fields = tuple(fields.items())
        fields = tuple(fields) + tuple(kw.items())
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "fields", fields)


@dataclass(frozen=True)
class Gen:
    """Generator ``for binder in source``; a tuple binder destructures."""

    binder: Union[str, Tuple[str, ...]]
    source: "Expr"

    @property
    def names(self) -> Tuple[str, ...]:
        return self.binder if isinstance(self.binder, tuple) else (self.binder,)


@dataclass(frozen=True)
class Comp:
    """Set comprehension: output projected over generators and filters."""

    output: "Expr"
    gens: Tuple[Gen, ...]
    filters: Tuple["Expr", ...] = ()

    def __init__(self, output, gens, filters=()):
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "gens", tuple(gens))
        object.__setattr__(self, "filters", tuple(filters))

    def repeated_binder(self) -> Optional[str]:
        """A name that the generators bind twice, if any."""
        seen = set()
        for g in self.gens:
            for name in g.names:
                if name in seen:
                    return name
                seen.add(name)
        return None

    def filter_levels(self) -> Tuple[Tuple["Expr", ...], ...]:
        """The filters that run right after each generator, one tuple per
        generator: where a filter runs, on both backends.

        A filter runs right after the last generator that binds a name it
        reads. A filter that reads none of those names runs after the first
        generator. No filter runs before the filter written ahead of it. So
        a filter sees only the rows that passed every filter before it, and
        a later generator's source is evaluated, and its items bound, only
        for rows that passed the filters due before it. A comprehension
        without generators has no levels: its filters run once, in written
        order, before its output."""
        if not self.gens:
            return ()
        level_of = {name: i for i, g in enumerate(self.gens)
                    for name in g.names}
        levels = [[] for _ in self.gens]
        at = 0
        for f in self.filters:
            for s in walk_expr(f):
                if isinstance(s, Var) and level_of.get(s.name, 0) > at:
                    at = level_of[s.name]
            levels[at].append(f)
        return tuple(map(tuple, levels))


@dataclass(frozen=True)
class Fold:
    """Aggregate over a collection.

    kinds: count, sum, min, max, set, merge, array_agg (sorts (ix, val)
    pairs by ix and projects val), or udf:<name> for a binary user fold.
    """

    kind: str
    source: "Expr"


@dataclass(frozen=True)
class Len:
    expr: "Expr"


@dataclass(frozen=True)
class RangeOf:
    stop: "Expr"


@dataclass(frozen=True)
class Index:
    base: "Expr"
    index: "Expr"


@dataclass(frozen=True)
class Slice:
    base: "Expr"
    start: "Expr"
    stop: "Expr"


Expr = Union[
    Lit, Var, Field, Data, Lookup, BinOp, Not, In, TupleOf, Record, MakeRow,
    Comp, Fold, Len, RangeOf, Index, Slice,
]


# --- statements --------------------------------------------------------------

@dataclass(frozen=True)
class TargetPath:
    """Mutation target: a var, a whole table, or a keyed row / row field."""

    data: str
    key: Optional[Expr] = None
    field: Optional[str] = None


@dataclass(frozen=True)
class MergeMutation:
    target: TargetPath
    expr: Expr
    when: Optional[Expr] = None


@dataclass(frozen=True)
class Assign:
    target: TargetPath
    expr: Expr
    when: Optional[Expr] = None


@dataclass(frozen=True)
class Delete:
    target: TargetPath
    when: Optional[Expr] = None


@dataclass(frozen=True)
class Send:
    mailbox: str
    expr: Expr  # yields Records (a bare Record sends one message)
    when: Optional[Expr] = None


@dataclass(frozen=True)
class Return:
    expr: Expr
    when: Optional[Expr] = None


@dataclass(frozen=True)
class UdfCall:
    udf: str
    args: Tuple[Expr, ...]
    binder: Optional[str] = None
    when: Optional[Expr] = None

    def __init__(self, udf, args=(), binder=None, when=None):
        object.__setattr__(self, "udf", udf)
        object.__setattr__(self, "args", tuple(args))
        object.__setattr__(self, "binder", binder)
        object.__setattr__(self, "when", when)


@dataclass(frozen=True)
class ForEach:
    """Desugared handler fragment: body statements run once per message."""

    mailbox: str
    binder: str
    body: Tuple["Statement", ...]

    def __init__(self, mailbox, binder, body):
        object.__setattr__(self, "mailbox", mailbox)
        object.__setattr__(self, "binder", binder)
        object.__setattr__(self, "body", tuple(body))


Statement = Union[MergeMutation, Assign, Delete, Send, Return, UdfCall, ForEach]


# --- program-level declarations ----------------------------------------------

# Field semantic types (see `lattice.FIELD_SHAPES`); a handler may merge
# into a field only if its shape is not write-once.
FIELD_TYPES = tuple(FIELD_SHAPES)
MERGEABLE_FIELD_TYPES = tuple(t for t, shape in FIELD_SHAPES.items()
                              if shape != "write_once")


@dataclass(frozen=True)
class ClassDecl:
    name: str
    fields: Tuple[Tuple[str, str], ...]
    key: Tuple[str, ...]
    partition: Optional[str] = None

    def __init__(self, name, fields, key, partition=None):
        if isinstance(fields, dict):
            fields = tuple(fields.items())
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "fields", tuple(fields))
        object.__setattr__(self, "key", tuple([key] if isinstance(key, str) else key))
        object.__setattr__(self, "partition", partition)

    @cached_property
    def field_map(self) -> dict:
        return dict(self.fields)


@dataclass(frozen=True)
class DataDecl:
    name: str
    kind: str  # "table" | "var"
    cls: Optional[str] = None          # table element class
    shape: Optional[object] = None     # lattice shape for lattice vars
    scalar: Optional[str] = None       # scalar type for plain vars
    init: Optional[object] = None


@dataclass(frozen=True)
class ConsistencySpec:
    level: str = "eventual"  # "eventual" | "serializable"
    invariants: Tuple[Expr, ...] = ()
    isolation: Optional[str] = None  # accepted, currently ignored with a warning

    def __init__(self, level="eventual", invariants=(), isolation=None):
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "invariants", tuple(invariants))
        object.__setattr__(self, "isolation", isolation)


@dataclass(frozen=True)
class Handler:
    name: str
    params: Tuple[Tuple[str, str], ...]
    body: Tuple[Statement, ...]
    consistency: ConsistencySpec = ConsistencySpec()
    guard: Optional[Expr] = None
    role: str = "main"

    def __init__(self, name, params, body, consistency=None, guard=None, role="main"):
        if isinstance(params, dict):
            params = tuple(params.items())
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "consistency", consistency or ConsistencySpec())
        object.__setattr__(self, "guard", guard)
        object.__setattr__(self, "role", role)

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.params)


@dataclass(frozen=True)
class QueryDef:
    name: str
    params: Tuple[str, ...]
    bodies: Tuple[Expr, ...]
    recursive: bool = False

    def __init__(self, name, params, bodies, recursive=False):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", tuple(params))
        object.__setattr__(self, "bodies", tuple(bodies))
        object.__setattr__(self, "recursive", recursive)


@dataclass(frozen=True)
class UdfDecl:
    name: str
    arity: int
    monotone: bool = False
    fn: Optional[object] = None  # host callable; opaque, not serialized

    def __eq__(self, other):
        if not isinstance(other, UdfDecl):
            return NotImplemented
        return (self.name, self.arity, self.monotone) == (
            other.name, other.arity, other.monotone)

    def __hash__(self):
        return hash((self.name, self.arity, self.monotone))


@dataclass(frozen=True)
class AvailSpec:
    domain: str = "az"  # az | dc | rack | vm
    failures: int = 2


@dataclass(frozen=True)
class TargetSpec:
    latency_ms: Optional[float] = 100.0
    cost_units: Optional[float] = 0.01
    features: Tuple[str, ...] = ()

    def __init__(self, latency_ms=100.0, cost_units=0.01, features=()):
        object.__setattr__(self, "latency_ms", latency_ms)
        object.__setattr__(self, "cost_units", cost_units)
        object.__setattr__(self, "features", tuple(features))


def kept(obj, name: str, build):
    """`build(obj)`, computed on first use and kept in `obj`'s own dict
    under `name`, so it lives and dies with the object. The IR classes are
    frozen dataclasses whose hash walks the whole tree, so a cache keyed by
    the object would cost more per lookup than most of what it saves."""
    d = vars(obj)
    if name not in d:
        d[name] = build(obj)
    return d[name]


@dataclass(frozen=True)
class Program:
    name: str
    classes: Tuple[ClassDecl, ...] = ()
    data: Tuple[DataDecl, ...] = ()
    queries: Tuple[QueryDef, ...] = ()
    handlers: Tuple[Handler, ...] = ()
    udfs: Tuple[UdfDecl, ...] = ()
    sinks: Tuple[str, ...] = ()  # outbound mailboxes delivered to clients
    availability: Tuple[Tuple[str, AvailSpec], ...] = ()
    targets: Tuple[Tuple[str, TargetSpec], ...] = ()

    def __init__(self, name, classes=(), data=(), queries=(), handlers=(),
                 udfs=(), sinks=(), availability=(), targets=()):
        if isinstance(availability, dict):
            availability = tuple(availability.items())
        if isinstance(targets, dict):
            targets = tuple(targets.items())
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "classes", tuple(classes))
        object.__setattr__(self, "data", tuple(data))
        object.__setattr__(self, "queries", tuple(queries))
        object.__setattr__(self, "handlers", tuple(handlers))
        object.__setattr__(self, "udfs", tuple(udfs))
        object.__setattr__(self, "sinks", tuple(sinks))
        object.__setattr__(self, "availability", tuple(availability))
        object.__setattr__(self, "targets", tuple(targets))

    # lookups ----------------------------------------------------------------
    # Each map is built on first use, kept in the program's own dict (the
    # dataclass is frozen, but `cached_property` writes that dict directly)
    # and shared: callers must not mutate it.
    @cached_property
    def class_map(self):
        return {c.name: c for c in self.classes}

    @cached_property
    def data_map(self):
        return {d.name: d for d in self.data}

    @cached_property
    def query_map(self):
        q = {}
        for qd in self.queries:
            q.setdefault(qd.name, []).append(qd)
        return q

    @cached_property
    def handler_map(self):
        return {h.name: h for h in self.handlers}

    @cached_property
    def udf_map(self):
        return {u.name: u for u in self.udfs}

    @cached_property
    def avail_map(self):
        return dict(self.availability)

    @cached_property
    def target_map(self):
        return dict(self.targets)

    def avail_for(self, handler: str) -> AvailSpec:
        m = self.avail_map
        return m.get(handler, m.get("default", AvailSpec()))

    def target_for(self, handler: str) -> TargetSpec:
        m = self.target_map
        return m.get(handler, m.get("default", TargetSpec()))

    @property
    def mailboxes(self):
        names = [h.name for h in self.handlers]
        names += [response_mailbox(h.name) for h in self.handlers]
        names += list(self.sinks)
        return tuple(names)

    def roles(self):
        out = []
        for h in self.handlers:
            if h.role not in out:
                out.append(h.role)
        return tuple(out) or ("main",)


# --- validation --------------------------------------------------------------

@dataclass(frozen=True)
class ValidationEntry:
    code: str
    message: str


@dataclass
class ValidationReport:
    entries: list = dfield(default_factory=list)

    def add(self, code, message):
        self.entries.append(ValidationEntry(code, message))

    @property
    def ok(self) -> bool:
        return not self.entries

    def __iter__(self):
        return iter(self.entries)


def walk_expr(e: Expr):
    """Yield e and all sub-expressions."""
    yield e
    for child in _children(e):
        yield from walk_expr(child)


def _children(e: Expr):
    if isinstance(e, (Lit, Var, Data)):
        return ()
    if isinstance(e, Field):
        return (e.base,)
    if isinstance(e, Lookup):
        return (e.key,)
    if isinstance(e, BinOp):
        return (e.left, e.right)
    if isinstance(e, Not):
        return (e.expr,)
    if isinstance(e, In):
        return (e.item, e.coll)
    if isinstance(e, TupleOf):
        return e.items
    if isinstance(e, (Record, MakeRow)):
        return tuple(v for _, v in e.fields)
    if isinstance(e, Comp):
        return tuple(g.source for g in e.gens) + e.filters + (e.output,)
    if isinstance(e, Fold):
        return (e.source,)
    if isinstance(e, Len):
        return (e.expr,)
    if isinstance(e, RangeOf):
        return (e.stop,)
    if isinstance(e, Index):
        return (e.base, e.index)
    if isinstance(e, Slice):
        return (e.base, e.start, e.stop)
    raise TypeError(f"unknown expression node: {e!r}")


def statement_exprs(s: Statement):
    if isinstance(s, (MergeMutation, Assign)):
        out = [s.expr]
        if s.target.key is not None:
            out.append(s.target.key)
    elif isinstance(s, Delete):
        out = [s.target.key] if s.target.key is not None else []
    elif isinstance(s, (Send, Return)):
        out = [s.expr]
    elif isinstance(s, UdfCall):
        out = list(s.args)
    elif isinstance(s, ForEach):
        out = []
        for inner in s.body:
            out.extend(statement_exprs(inner))
        return out
    else:
        raise TypeError(f"unknown statement: {s!r}")
    if getattr(s, "when", None) is not None:
        out.append(s.when)
    return out


def validate(p: Program) -> ValidationReport:
    """Resolution and shape checks; an empty report means executable."""
    rep = ValidationReport()
    classes = p.class_map
    datam = p.data_map
    queries = p.query_map
    handlers = p.handler_map
    udfs = p.udf_map
    mailboxes = set(p.mailboxes)

    # unique names per namespace
    for group, names in (("class", [c.name for c in p.classes]),
                         ("data", [d.name for d in p.data]),
                         ("handler", [h.name for h in p.handlers]),
                         ("udf", [u.name for u in p.udfs])):
        seen = set()
        for n in names:
            if n in seen:
                rep.add("DuplicateName", f"duplicate {group} name {n!r}")
            seen.add(n)

    for c in p.classes:
        fm = c.field_map
        for k in c.key:
            if k not in fm:
                rep.add("BadKey", f"class {c.name}: key field {k!r} not declared")
        if c.partition is not None and c.partition not in fm:
            rep.add("BadPartition",
                    f"class {c.name}: partition field {c.partition!r} not declared")
        for fname, ftype in c.fields:
            if ftype not in FIELD_TYPES:
                rep.add("BadFieldType", f"class {c.name}.{fname}: {ftype!r}")
            if fname in (ORDERED, EFFECTS):
                rep.add("ReservedField",
                        f"class {c.name}: field {fname!r} is reserved")

    for d in p.data:
        if d.kind == "table":
            if d.cls not in classes:
                rep.add("UnknownClass", f"table {d.name}: class {d.cls!r} undeclared")
        elif d.kind != "var":
            rep.add("BadDataKind", f"{d.name}: kind {d.kind!r}")

    def resolvable(name: str) -> bool:
        return name in datam or name in queries or name in mailboxes

    def check_expr(e: Expr, env: set, where: str):
        if isinstance(e, Var):
            if e.name not in env:
                rep.add("UnresolvedName", f"{where}: unbound variable {e.name!r}")
        elif isinstance(e, Data):
            if not resolvable(e.name):
                rep.add("UnresolvedName", f"{where}: unknown collection {e.name!r}")
        elif isinstance(e, Lookup):
            d = datam.get(e.data)
            if d is None or d.kind != "table":
                rep.add("UnresolvedName", f"{where}: lookup on non-table {e.data!r}")
            check_expr(e.key, env, where)
            return
        elif isinstance(e, Comp):
            name = e.repeated_binder()
            if name is not None:
                rep.add("RepeatedBinder",
                        f"{where}: comprehension binds {name!r} twice")
            inner = set(env)
            for g in e.gens:
                check_expr(g.source, inner, where)
                inner.update(g.names)
            for f in e.filters:
                check_expr(f, inner, where)
            check_expr(e.output, inner, where)
            return
        elif isinstance(e, Record):
            # a record may carry a message id: desugared responses write one
            for fname, _ in e.fields:
                if fname in (ORDERED, EFFECTS):
                    rep.add("ReservedField",
                            f"{where}: record field {fname!r} is reserved")
        elif isinstance(e, MakeRow):
            if e.cls not in classes:
                rep.add("UnknownClass", f"{where}: class {e.cls!r}")
        elif isinstance(e, BinOp):
            if e.op not in ARITH and e.op not in ("and", "or"):
                rep.add("UnknownOperator",
                        f"{where}: unknown operator {e.op!r}")
        for child in _children(e):
            check_expr(child, env, where)

    def check_target(t: TargetPath, env: set, where: str, merging: bool):
        d = datam.get(t.data)
        if d is None:
            rep.add("UnresolvedName", f"{where}: unknown data {t.data!r}")
            return
        if t.key is not None:
            check_expr(t.key, env, where)
            if d.kind != "table":
                rep.add("NotATable", f"{where}: keyed target on var {t.data!r}")
        cls = classes.get(d.cls) if d.kind == "table" else None
        if cls is not None and t.field in cls.key:
            # a row is stored under its key fields, so writing one would
            # leave the row under a key it no longer holds
            rep.add("KeyFieldWrite",
                    f"{where}: write to key field {t.data}.{t.field}")
        if merging:
            if d.kind == "var" and d.shape is None:
                rep.add("NotALattice",
                        f"{where}: merge into plain scalar var {t.data!r}")
            if d.kind == "table" and t.field is not None:
                ftype = classes[d.cls].field_map.get(t.field) if d.cls in classes else None
                if ftype not in MERGEABLE_FIELD_TYPES:
                    rep.add("NotALattice",
                            f"{where}: merge into non-lattice field {t.data}.{t.field}")

    def check_stmt(s: Statement, env: set, where: str):
        if isinstance(s, ForEach):
            inner = env | {s.binder}
            for st in s.body:
                check_stmt(st, inner, where)  # binders persist down the body
            return
        if isinstance(s, (MergeMutation, Assign, Delete)):
            check_target(s.target, env, where, merging=isinstance(s, MergeMutation))
        if isinstance(s, Send):
            if s.mailbox not in mailboxes:
                rep.add("UnresolvedName", f"{where}: send to unknown mailbox {s.mailbox!r}")
        if isinstance(s, UdfCall):
            u = udfs.get(s.udf)
            if u is None:
                rep.add("UnresolvedName", f"{where}: unknown udf {s.udf!r}")
            elif u.arity != len(s.args):
                rep.add("ArityMismatch",
                        f"{where}: udf {s.udf} expects {u.arity} args, got {len(s.args)}")
            if s.binder:
                env.add(s.binder)
        for e in statement_exprs(s):
            check_expr(e, env, where)

    for qname, defs in queries.items():
        if qname in datam:
            # query/data same-name replacement: reject if anything also
            # merge-mutates the variable (end-of-tick interaction undefined)
            for h in p.handlers:
                for s in h.body:
                    if isinstance(s, MergeMutation) and s.target.data == qname:
                        rep.add("QueryVarMergeConflict",
                                f"query {qname!r} replaces var also merge-mutated in {h.name}")
        for qd in defs:
            for body in qd.bodies:
                check_expr(body, set(), f"query {qname}")

    for h in p.handlers:
        if h.name in datam or h.name in queries:
            # a comprehension over the handler's mailbox names the same
            # collection, so it would read the data or the query instead
            kind = "data" if h.name in datam else "query"
            rep.add("HandlerNameClash",
                    f"handler {h.name!r} has the name of a {kind}")
        for pname in h.param_names:
            if pname in (MESSAGE_ID, ORDERED, EFFECTS):
                rep.add("ReservedField",
                        f"handler {h.name}: parameter {pname!r} is reserved")
        env = set(_message_fields(h))
        if h.guard is not None:
            check_expr(h.guard, set(env), f"handler {h.name} guard")
        for inv in h.consistency.invariants:
            check_expr(inv, set(env), f"handler {h.name} invariant")
        body_env = set(env)  # udf binders stay visible to later statements
        for s in h.body:
            check_stmt(s, body_env, f"handler {h.name}")

    for label, mapping in (("availability", p.avail_map), ("target", p.target_map)):
        for hname in mapping:
            if hname != "default" and hname not in handlers:
                rep.add("UnknownHandlerRef", f"{label} block names unknown handler {hname!r}")

    return rep


# --- desugaring --------------------------------------------------------------

def subst(e: Expr, mapping: dict) -> Expr:
    """Substitute free variables by expression, respecting binder shadowing."""
    if isinstance(e, Var):
        return mapping.get(e.name, e)
    if isinstance(e, (Lit, Data)):
        return e
    if isinstance(e, Field):
        return Field(subst(e.base, mapping), e.name)
    if isinstance(e, Lookup):
        return Lookup(e.data, subst(e.key, mapping))
    if isinstance(e, BinOp):
        return BinOp(e.op, subst(e.left, mapping), subst(e.right, mapping))
    if isinstance(e, Not):
        return Not(subst(e.expr, mapping))
    if isinstance(e, In):
        return In(subst(e.item, mapping), subst(e.coll, mapping), e.negated)
    if isinstance(e, TupleOf):
        return TupleOf(tuple(subst(x, mapping) for x in e.items))
    if isinstance(e, Record):
        return Record(tuple((n, subst(v, mapping)) for n, v in e.fields))
    if isinstance(e, MakeRow):
        return MakeRow(e.cls, tuple((n, subst(v, mapping)) for n, v in e.fields))
    if isinstance(e, Comp):
        m = dict(mapping)
        gens = []
        for g in e.gens:
            gens.append(Gen(g.binder, subst(g.source, m)))
            for b in g.names:
                m.pop(b, None)
        return Comp(subst(e.output, m), tuple(gens),
                    tuple(subst(f, m) for f in e.filters))
    if isinstance(e, Fold):
        return Fold(e.kind, subst(e.source, mapping))
    if isinstance(e, Len):
        return Len(subst(e.expr, mapping))
    if isinstance(e, RangeOf):
        return RangeOf(subst(e.stop, mapping))
    if isinstance(e, Index):
        return Index(subst(e.base, mapping), subst(e.index, mapping))
    if isinstance(e, Slice):
        return Slice(subst(e.base, mapping), subst(e.start, mapping),
                     subst(e.stop, mapping))
    raise TypeError(f"unknown expression node: {e!r}")


_MSG = "__msg"


def _needs_foreach(s: Statement) -> bool:
    if isinstance(s, (Assign, Delete, UdfCall)):
        return True
    if isinstance(s, (MergeMutation,)) and s.target.key is not None:
        return True
    return False


def is_desugared(stmts, mailbox: str) -> bool:
    for s in stmts:
        if isinstance(s, ForEach):
            if s.mailbox != mailbox:
                return False
            continue
        if isinstance(s, (MergeMutation, Send)):
            if not (isinstance(s.expr, Comp) and s.expr.gens
                    and s.expr.gens[0].source == Data(mailbox)):
                return False
        else:
            return False
    return True


def _message_fields(h: Handler) -> dict:
    """Each name a handler may read unbound, as a field of the message
    `_MSG`: `validate` checks the handler in this scope."""
    return {n: Field(Var(_MSG), n)
            for n in h.param_names + (MESSAGE_ID, REPLY_TO)}


class Prepared(NamedTuple):
    """A handler's desugared statements, guard and invariants."""
    stmts: tuple
    guard: Optional[Expr]
    invariants: tuple


def prepared(h: Handler) -> Prepared:
    """`h` prepared once and kept on it (see `kept`), so all its readers
    share one set of expression objects, and so of closures compiled."""
    return kept(h, "_prepared", _prepare)


def _prepare(h: Handler) -> Prepared:
    mapping = _message_fields(h)
    return Prepared(tuple(desugar_handler(h)), _sub_when(h.guard, mapping),
                    tuple(subst(inv, mapping)
                          for inv in h.consistency.invariants))


def desugar_handler(h: Handler) -> list:
    """Rewrite a handler body into mailbox-quantified statements.

    Idempotent: applying it to an already-desugared statement list is the
    identity.
    """
    if is_desugared(h.body, h.name):
        return list(h.body)

    mapping = _message_fields(h)
    mbox_gen = Gen(_MSG, Data(h.name))

    if any(_needs_foreach(s) for s in h.body):
        body = tuple(_per_message(s, h, mapping) for s in h.body)
        return [ForEach(h.name, _MSG, body)]

    out = []
    for s in h.body:
        out.append(_quantify(s, h, mapping, mbox_gen))
    return out


def _sub_when(when, mapping):
    return subst(when, mapping) if when is not None else None


def _per_message(s: Statement, h: Handler, mapping: dict) -> Statement:
    """Per-message form used inside a ForEach."""
    if isinstance(s, Return):
        payload = Record(((MESSAGE_ID, Field(Var(_MSG), MESSAGE_ID)),
                          ("payload", subst(s.expr, mapping))))
        return Send(response_mailbox(h.name), payload, when=_sub_when(s.when, mapping))
    if isinstance(s, MergeMutation):
        return MergeMutation(_sub_target(s.target, mapping), subst(s.expr, mapping),
                             when=_sub_when(s.when, mapping))
    if isinstance(s, Assign):
        return Assign(_sub_target(s.target, mapping), subst(s.expr, mapping),
                      when=_sub_when(s.when, mapping))
    if isinstance(s, Delete):
        return Delete(_sub_target(s.target, mapping), when=_sub_when(s.when, mapping))
    if isinstance(s, Send):
        return Send(s.mailbox, subst(s.expr, mapping), when=_sub_when(s.when, mapping))
    if isinstance(s, UdfCall):
        return UdfCall(s.udf, tuple(subst(a, mapping) for a in s.args), s.binder,
                       when=_sub_when(s.when, mapping))
    raise TypeError(f"cannot desugar statement: {s!r}")


def _sub_target(t: TargetPath, mapping: dict) -> TargetPath:
    key = subst(t.key, mapping) if t.key is not None else None
    return TargetPath(t.data, key, t.field)


def _quantify(s: Statement, h: Handler, mapping: dict, mbox_gen: Gen) -> Statement:
    """Comprehension-quantified form for merge/send/return without keys."""
    when = _sub_when(getattr(s, "when", None), mapping)
    filters = (when,) if when is not None else ()

    def over_mailbox(e: Expr) -> Comp:
        e = subst(e, mapping)
        if isinstance(e, Comp):
            return Comp(e.output, (mbox_gen,) + e.gens, filters + e.filters)
        return Comp(e, (mbox_gen,), filters)

    if isinstance(s, Return):
        payload = Record(((MESSAGE_ID, Field(Var(_MSG), MESSAGE_ID)),
                          ("payload", subst(s.expr, mapping))))
        return Send(response_mailbox(h.name), Comp(payload, (mbox_gen,), filters))
    if isinstance(s, MergeMutation):
        return MergeMutation(s.target, over_mailbox(s.expr))
    if isinstance(s, Send):
        return Send(s.mailbox, over_mailbox(s.expr))
    raise TypeError(f"cannot quantify statement: {s!r}")

