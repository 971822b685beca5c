"""Expression evaluation shared by the direct interpreter and the operator
runtime.

Each backend evaluates expressions its own way: its subclass of
:class:`EvalContext` defines `eval` (how handler statements evaluate),
`eval_comp` and `query_value`. The interpreter walks the tree with
:func:`eval_expr`, which only it calls, and the graph backend runs Python
code generated for each expression with `eval_expr`'s rules (see
`runtime._Writer`).

A lookup on a missing key evaluates to the ``MISSING`` sentinel, which makes
enclosing generators contribute nothing and guards evaluate false, keeping
queries total.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable

from .ir import (
    ARITH, BinOp, Comp, Data, Field, Fold, In, Index, Len, Lit, Lookup,
    MakeRow, Not, Record, RangeOf, Slice, TupleOf, Var,
)
from .lattice import _by_key, order_key
from .state import (BindError, Row, Snapshot, UdfFailure, default_row,
                    storage_key)


class _Missing:
    __slots__ = ()

    def __repr__(self):
        return "MISSING"

    def __bool__(self):
        return False


MISSING = _Missing()


class EvalContext:
    """Per-tick evaluation context over an immutable snapshot."""

    # rounds a recursive query group may take before it raises
    # `FixpointDivergence`, on either backend
    max_rounds = 10000

    def __init__(self, program, snapshot: Snapshot):
        self.program = program
        self.snapshot = snapshot
        self.firing = {}  # handler -> the messages it runs on this tick
        self.udf_memo = {}  # a transducer's tick shares one (see `call_udf`)
        self._query_names = program.query_map  # read for membership
        self._sorted = {}  # name -> ordered view, fixed for the snapshot

    # --- collections --------------------------------------------------------
    def table_rows(self, name: str):
        table = self.snapshot.tables[name]
        return tuple(row for _, row in sorted(table.items(), key=_by_key))

    def table_row(self, name: str, key):
        """The row of table `name` whose key expression has the value `key`
        (see `state.storage_key`), or MISSING."""
        cls = self.program.class_map[self.program.data_map[name].cls]
        return self.snapshot.tables[name].get(storage_key(cls, key), MISSING)

    def var(self, name: str):
        """A var's value, as the state holds it: a set var's frozenset, a
        scalar's value."""
        return self.snapshot.vars[name]

    def base_facts(self, name: str) -> frozenset:
        """Same-name data variable contents, implicitly included in a query."""
        if name in self.snapshot.tables:
            return frozenset(self.snapshot.tables[name].values())
        v = self.var(name) if name in self.snapshot.vars else None
        return v if isinstance(v, frozenset) else frozenset()

    def collection(self, name: str):
        """Ordered view of a named collection for iteration. Views of
        queries, tables and vars are sorted once per context; the handler
        inputs in `firing` change during a tick and are not kept."""
        if name in self._sorted:
            return self._sorted[name]
        if name in self._query_names:
            view = tuple(sorted(self.query_value(name), key=order_key))
        elif name in self.firing:
            return tuple(self.firing[name])
        elif name in self.snapshot.tables:
            view = self.table_rows(name)
        elif name in self.snapshot.vars:
            view = self.var(name)
            if isinstance(view, frozenset):
                view = tuple(sorted(view, key=order_key))
        elif name in self.snapshot.mailboxes:
            return tuple(self.snapshot.mailboxes[name])
        else:
            raise KeyError(f"unknown collection {name!r}")
        self._sorted[name] = view
        return view

    # --- UDFs ---------------------------------------------------------------
    def call_udf(self, name: str, args: tuple):
        """Invoke a host UDF, memoized per (input, tick): a transducer
        points every context of a tick at one `udf_memo`. A result that is
        not hashable is refused here, naming the UDF: a `Row` is hashed on
        first use, so one holding it would fail far from its source."""
        key = (name, args)
        if key in self.udf_memo:
            return self.udf_memo[key]
        fn = self.program.udf_map[name].fn
        if fn is None:
            raise UdfFailure(f"udf {name!r} has no host implementation")
        try:
            result = fn(*args)
        except Exception as exc:  # propagate with context
            raise UdfFailure(f"udf {name!r} failed: {exc}") from exc
        try:
            hash(result)
        except TypeError as exc:
            raise UdfFailure(f"udf {name!r} returned a value that is not "
                             f"hashable ({exc})") from exc
        self.udf_memo[key] = result
        return result


def iter_source(value) -> Iterable:
    """Iterate a generator source value; MISSING yields nothing."""
    if value is MISSING:
        return ()
    if isinstance(value, Row):
        return (value,)
    if isinstance(value, frozenset):
        return sorted(value, key=order_key)
    if isinstance(value, (tuple, list)):
        return value
    raise TypeError(f"not iterable: {value!r}")


def unpack(binder: tuple, item) -> tuple:
    """The values of a tuple binder's names. The item must be a tuple, or a
    list as JSON payloads carry, with one value per name, else `BindError`."""
    if isinstance(item, (tuple, list)) and len(item) == len(binder):
        return tuple(item)
    raise BindError(f"binder {binder!r} needs {len(binder)} values, "
                    f"got {item!r}")


def bind(env: dict, binder, item) -> dict:
    out = dict(env)
    if type(binder) is not tuple:
        out[binder] = item
    elif type(item) is tuple and len(item) == len(binder):
        out.update(zip(binder, item))
    else:
        out.update(zip(binder, unpack(binder, item)))
    return out


def eval_expr(e, env: dict, ctx: EvalContext):
    # the kinds a comprehension row evaluates most, a name and a binary
    # operator over names, are tested first
    t = type(e)
    if t is Var:
        return env[e.name]
    if t is BinOp:
        op = e.op
        if op == "and":
            left = eval_expr(e.left, env, ctx)
            if left is MISSING or not left:
                return False if left is not MISSING else MISSING
            return eval_expr(e.right, env, ctx)
        if op == "or":
            left = eval_expr(e.left, env, ctx)
            if left is not MISSING and left:
                return left
            return eval_expr(e.right, env, ctx)
        left, right = e.left, e.right
        left = env[left.name] if type(left) is Var else eval_expr(left, env, ctx)
        right = (env[right.name] if type(right) is Var
                 else eval_expr(right, env, ctx))
        if left is MISSING or right is MISSING:
            return MISSING
        return ARITH[op](left, right)
    if t is Lit:
        return e.value
    if t is Field:
        base = eval_expr(e.base, env, ctx)
        if base is MISSING:
            return MISSING
        return base.get(e.name, MISSING)
    if t is Data:
        return ctx.collection(e.name)
    if t is Lookup:
        key = eval_expr(e.key, env, ctx)
        if key is MISSING:
            return MISSING
        return ctx.table_row(e.data, key)
    if t is Not:
        v = eval_expr(e.expr, env, ctx)
        return MISSING if v is MISSING else not v
    if t is In:
        item = eval_expr(e.item, env, ctx)
        coll = eval_expr(e.coll, env, ctx)
        if item is MISSING or coll is MISSING:
            return MISSING
        return (item not in coll) if e.negated else (item in coll)
    if t is TupleOf:
        items = tuple(eval_expr(x, env, ctx) for x in e.items)
        if any(x is MISSING for x in items):
            return MISSING
        return items
    if t is Record or t is MakeRow:
        fields = {}
        for name, sub in e.fields:
            v = eval_expr(sub, env, ctx)
            if v is MISSING:
                return MISSING
            fields[name] = v
        if t is Record:
            return Row(fields)
        return default_row(ctx.program.class_map[e.cls], fields)
    if t is Comp:
        return ctx.eval_comp(e, env)
    if t is Fold:
        return fold_value(e.kind, eval_expr(e.source, env, ctx), ctx)
    if t is Len:
        v = eval_expr(e.expr, env, ctx)
        return MISSING if v is MISSING else len(v)
    if t is RangeOf:
        stop = eval_expr(e.stop, env, ctx)
        return MISSING if stop is MISSING else tuple(range(stop))
    if t is Index:
        base = eval_expr(e.base, env, ctx)
        idx = eval_expr(e.index, env, ctx)
        if base is MISSING or idx is MISSING:
            return MISSING
        try:
            return base[idx]
        except (IndexError, KeyError):
            return MISSING
    if t is Slice:
        base = eval_expr(e.base, env, ctx)
        start = eval_expr(e.start, env, ctx)
        stop = eval_expr(e.stop, env, ctx)
        if MISSING in (base, start, stop):
            return MISSING
        return tuple(base[start:stop])
    raise TypeError(f"unknown expression node: {e!r}")


def fold_value(kind: str, src, ctx: EvalContext):
    """Fold an evaluated source; a MISSING source folds as an empty one."""
    return apply_fold(kind, list(iter_source(src)), ctx)


def apply_fold(kind: str, values: list, ctx: EvalContext):
    if kind == "count":
        return len(values)
    if kind in ("sum", "min", "max"):
        # (ix, val) pairs aggregate the val side: folding a set of bare
        # values would conflate equal contributions from distinct sources
        if values and all(isinstance(v, tuple) and len(v) == 2 for v in values):
            values = [v for _, v in values]
    if kind == "sum":
        return sum(values)
    if kind == "min" or kind == "max":
        pick = min if kind == "min" else max
        return pick(values, key=order_key) if values else MISSING
    if kind == "set":
        return frozenset(values)
    if kind == "array_agg":
        # values are (ix, val) pairs; emit vals ordered by ix
        return tuple(v for _, v in sorted(values, key=_by_key))
    if kind.startswith("udf:"):
        if not values:
            return MISSING
        return reduce(lambda acc, v: ctx.call_udf(kind[4:], (acc, v)),
                      sorted(values, key=order_key))
    raise ValueError(f"unknown fold kind {kind!r}")


def truthy(v) -> bool:
    return v is not MISSING and bool(v)
