"""Per-node transducer state: tables, vars, mailboxes, and the end-of-tick
commit of buffered effects.

Tables and vars change only between ticks; all reads during a tick go
against a snapshot. State is persistent at container granularity: commit
and deliver replace a table dict or a mailbox list, and never mutate one
that a snapshot or fork may hold. Commit copies a table dict at most once,
the first time it writes it. So a snapshot or fork copies only the outer
dicts of tables, vars and mailboxes; rows are shared.

A `Row` is every table row, message and commit record: a `dict` that
refuses mutation, so its reads are dict's own, hashed once at
construction, and equal only to another `Row`.

A `Delta` is the frozen state part of a tick's `Effects`: the merges,
assigns and deletes, without the consumed messages and the sends. It is
what a sequencer's commit record carries, and a replica commits it as is.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field as dfield
from typing import NamedTuple

from . import lattice
from .ir import ClassDecl, Program, kept
from .lattice import FIELD_SHAPES, scalar_key


class AmbiguousAssign(Exception):
    """Two assignments wrote different values to one target in one tick."""


class FixpointDivergence(Exception):
    """Recursive evaluation exceeded the iteration cap."""


class UdfFailure(Exception):
    """A host UDF raised; the original error is chained."""


class BindError(TypeError):
    """A tuple binder met an item that is not one value per name."""


def _frozen(self, *args, **kw):
    raise TypeError("a Row is immutable; build another with Row(...) or "
                    ".updated(...)")


class Row(dict):
    """An immutable, hashable table row, message or commit record.

    A `dict` that refuses mutation: reads are dict's own methods, and every
    mutator raises `TypeError`. The hash is computed once, at construction,
    as ``hash(tuple(sorted(items)))``, so a value that is not hashable is
    refused there. A Row equals only a Row: it never compares equal to a
    plain dict with the same items."""

    __slots__ = ("_hash",)

    def __init__(self, fields=(), **kw):
        dict.__init__(self, fields, **kw)
        self._hash = hash(tuple(sorted(self.items())))

    __setitem__ = __delitem__ = __ior__ = _frozen
    update = pop = popitem = setdefault = clear = _frozen

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if isinstance(other, Row):
            return dict.__eq__(self, other)
        # dict.__eq__ would find a plain dict with the same items equal
        return False if isinstance(other, dict) else NotImplemented

    def __ne__(self, other):
        if isinstance(other, Row):
            return dict.__ne__(self, other)
        return True if isinstance(other, dict) else NotImplemented

    def __reduce__(self):
        # a dict subclass's default refills the copy through __setitem__
        return Row, (dict(self),)

    def __repr__(self):
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.items()))
        return f"Row({inner})"

    def updated(self, **kw) -> "Row":
        return Row(self, **kw)


def _bottoms(cls: ClassDecl) -> dict:
    return {fname: lattice.unwrap(lattice.bottom(FIELD_SHAPES[ftype]))
            for fname, ftype in cls.fields}


def default_row(cls: ClassDecl, fields: Mapping) -> Row:
    """A row of `cls` whose missing fields hold their shape's bottom."""
    return Row({fname: fields.get(fname, bottom)
                for fname, bottom in kept(cls, "_bottoms", _bottoms).items()})


def merge_rows(cls: ClassDecl, a: Row, b: Row) -> Row:
    return Row({fname: lattice.join(FIELD_SHAPES[ftype], a.get(fname),
                                    b.get(fname))
                for fname, ftype in cls.fields})


def row_key(cls: ClassDecl, row: Mapping) -> tuple:
    return tuple(row.get(k) for k in cls.key)


def storage_key(cls: ClassDecl, value) -> tuple:
    """The key a table of class `cls` keeps a row under, for the value of a
    key expression: ``(value,)`` for a one-field key, whatever the value,
    and for an n-field key the value itself, which must be a tuple of n
    values. So a row's key fields always equal its key."""
    if len(cls.key) == 1:
        return (value,)
    if isinstance(value, tuple) and len(value) == len(cls.key):
        return value
    raise lattice.ShapeMismatch(
        f"a key of {cls.name} needs {len(cls.key)} values "
        f"({', '.join(cls.key)}), got {value!r}")


@dataclass
class OutMsg:
    mailbox: str
    payload: Row


class Delta(NamedTuple):
    """The state effects of one commit, frozen: immutable and hashable, so
    a commit record (a `Row`) can carry them."""

    table_merges: tuple   # (name, Row)
    field_merges: tuple   # (name, key, field, value)
    var_merges: tuple     # (name, wrapped value)
    assigns: tuple        # (target tuple, value)
    deletes: tuple        # (name, key-or-None)


@dataclass
class Effects:
    """Buffered within-tick effects, applied atomically at commit."""

    table_merges: list = dfield(default_factory=list)   # (name, Row)
    field_merges: list = dfield(default_factory=list)   # (name, key, field, value)
    var_merges: list = dfield(default_factory=list)     # (name, wrapped value)
    assigns: dict = dfield(default_factory=dict)        # target tuple -> value
    deletes: list = dfield(default_factory=list)        # (name, key-or-None)
    sends: list = dfield(default_factory=list)          # OutMsg
    consumed: dict = dfield(default_factory=dict)       # mailbox -> list[Row]

    def assign(self, target: tuple, value):
        if target in self.assigns and self.assigns[target] != value:
            raise AmbiguousAssign(
                f"conflicting assignments to {target}: "
                f"{self.assigns[target]!r} vs {value!r}")
        self.assigns[target] = value

    def delta(self) -> Delta:
        return Delta(tuple(self.table_merges), tuple(self.field_merges),
                     tuple(self.var_merges), tuple(self.assigns.items()),
                     tuple(self.deletes))


class NodeState:
    """Changed between ticks only; reads during a tick use `snapshot()`.
    Every change replaces the table dict or mailbox list it touches (see
    the module docstring), so snapshots and forks share the rest."""

    def __init__(self, program: Program):
        self.program = program
        self.tables: dict = {}
        self.vars: dict = {}
        self.mailboxes: dict = {name: [] for name in program.mailboxes}
        for d in program.data:
            if d.kind == "table":
                self.tables[d.name] = {}
            elif d.shape is not None:
                init = d.init if d.init is not None else lattice.bottom(d.shape)
                self.vars[d.name] = lattice.wrap(init, d.shape)
            else:
                self.vars[d.name] = d.init

    # --- snapshots ----------------------------------------------------------
    def snapshot(self) -> "Snapshot":
        """The state as it is now; it shares every table dict and mailbox
        list, which no later commit or deliver mutates."""
        return Snapshot(tables=dict(self.tables), vars=dict(self.vars),
                        mailboxes=dict(self.mailboxes))

    def fork(self) -> "NodeState":
        """A copy for rollback that shares every table dict and mailbox
        list with this state until one of the two replaces it."""
        other = NodeState.__new__(NodeState)
        other.program = self.program
        other.tables = dict(self.tables)
        other.vars = dict(self.vars)
        other.mailboxes = dict(self.mailboxes)
        return other

    def deliver(self, mailbox: str, payload: Row):
        self.mailboxes[mailbox] = [*self.mailboxes.get(mailbox, ()), payload]

    # --- commit -------------------------------------------------------------
    def _own(self, name: str, owned: set) -> dict:
        """Table `name`, copied the first time this commit writes it, so
        the dict that a snapshot or fork holds is left as it was."""
        if name not in owned:
            owned.add(name)
            self.tables[name] = dict(self.tables[name])
        return self.tables[name]

    def commit(self, eff):
        """Apply `eff`: a tick's `Effects`, or a commit record's `Delta`,
        which consumes no message."""
        if isinstance(eff, Delta):
            self._apply(*eff)
            return
        self._apply(eff.table_merges, eff.field_merges, eff.var_merges,
                    eff.assigns.items(), eff.deletes)
        self._consume(eff.consumed)

    def _apply(self, table_merges, field_merges, var_merges, assigns,
               deletes):
        classes = self.program.class_map
        datam = self.program.data_map
        owned: set = set()   # tables this commit has copied

        for name, row in table_merges:
            cls = classes[datam[name].cls]
            full = default_row(cls, row)
            key = row_key(cls, full)
            table = self._own(name, owned)
            table[key] = merge_rows(cls, table[key], full) if key in table else full

        for name, key, fname, value in field_merges:
            cls = classes[datam[name].cls]
            table = self._own(name, owned)
            if key in table:
                old = table[key]
            else:
                seed = dict(zip(cls.key, key))
                old = default_row(cls, seed)
            merged = lattice.join(FIELD_SHAPES[cls.field_map[fname]],
                                  old.get(fname), value)
            table[key] = old.updated(**{fname: merged})

        for name, value in var_merges:
            self.vars[name] = lattice.merge(self.vars[name], value)

        for (name, key, fname), value in assigns:
            if key is None and fname is None:
                self.vars[name] = value
            else:
                cls = classes[datam[name].cls]
                table = self._own(name, owned)
                if key in table:
                    old = table[key]
                else:
                    old = default_row(cls, dict(zip(cls.key, key)))
                table[key] = old.updated(**{fname: value})

        for name, key in deletes:
            if name in self.tables:
                if key is None:
                    self.tables[name] = {}
                    owned.add(name)
                else:
                    self._own(name, owned).pop(key, None)
            else:
                d = datam[name]
                self.vars[name] = (lattice.bottom(d.shape)
                                   if d.shape is not None else None)

    def _consume(self, consumed: dict):
        for mailbox, msgs in consumed.items():
            box = self.mailboxes.get(mailbox, [])
            n = len(msgs)
            if n <= len(box) and all(map(operator.is_, box, msgs)):
                # the messages head the mailbox, as a request and an
                # unguarded handler's whole mailbox do
                self.mailboxes[mailbox] = box[n:]
                continue
            remaining = list(box)
            for m in msgs:
                remaining.remove(m)
            self.mailboxes[mailbox] = remaining


class Snapshot:
    """Frozen per-tick view of node state."""

    def __init__(self, tables, vars, mailboxes):
        self.tables = tables
        self.vars = vars
        self.mailboxes = mailboxes


# --- canonical serialization -------------------------------------------------

def encode_value(v):
    if type(v) in lattice.VARIANT_NAMES:
        return {"lattice": lattice.encode(v)}
    if isinstance(v, frozenset):
        return {"set": [encode_value(x) for x in sorted(v, key=scalar_key)]}
    if isinstance(v, tuple):
        return {"tuple": [encode_value(x) for x in v]}
    if isinstance(v, Row):
        return {"row": {k: encode_value(x) for k, x in v.items()}}
    return v


def canonical_state(state: NodeState, include_mailboxes=True) -> dict:
    out = {
        "tables": {
            name: [[encode_value(k), encode_value(row)]
                   for k, row in sorted(table.items(), key=lambda kv: scalar_key(kv[0]))]
            for name, table in sorted(state.tables.items())
        },
        "vars": {name: encode_value(v) for name, v in sorted(state.vars.items())},
    }
    if include_mailboxes:
        out["mailboxes"] = {
            name: sorted((json.dumps(encode_value(m), sort_keys=True) for m in msgs))
            for name, msgs in sorted(state.mailboxes.items()) if msgs
        }
    return out

