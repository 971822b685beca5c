"""Tick execution for one logical node.

Each tick reads an immutable snapshot, evaluates all handler bodies against
it, buffers the resulting effects, and commits them atomically at the end of
the tick. Sends buffered during a tick become visible no earlier than the
next tick, even to the sending node itself.

A tick pays only for what its input needs: it builds its context, over the
snapshot taken as it starts, only when some handler will read it (an
eventual handler with a pending message or one that acts on an idle tick,
or a serializable handler with a pending message and a guard), and commits
the eventual effects only when some eventual handler's statements ran. A
tick whose only input is a request builds two contexts, the request's
fork's and its invariant check's.

Every expression of a handler is evaluated by the context's `eval` hook,
each backend's own evaluator. Handlers are prepared once per handler object
(`ir.prepared`), so on the graph backend every node of a program, recovered
ones included, runs the same compiled closures.

Handlers marked serializable process at most one request per tick: the
request runs against a fork of the state, the handler's invariants are
checked on the outcome, and the fork is either adopted (accepted) or
discarded (rejected). A fork and its snapshots share every table dict and
mailbox list with the node, since commit and deliver replace, and never
mutate, one (see `state`): a request copies only the tables it writes, an
accepted one leaves the node's other tables the same objects, and a
rejected one leaves every table so.

Under a cluster a node keeps, for each serializable handler, its applied
prefix (`applied`): the commit records it has applied, or issued itself as
the sequencer. A commit record carries the `state.Delta` its request
committed on the sequencer; `apply_record` commits the records in sequence
order, holds one that arrives early, drops one below the prefix, and builds
no fork, context, guard or invariant check, and needs no tick. The node
decides a request only when its applied prefix equals `issued`, the count
of records issued for the handler; the gate is checked in
`_run_request`, so a tick of eventual handlers pays nothing for it. A
node starts its prefix at the count issued when it is built, so a
recovered node applies only the records issued after it rejoined. A
serializable handler's guard runs on its pending messages only up to the
first that passes.

An eventual handler with no eligible message is skipped when none of its
desugared statements can act on an empty mailbox (see `_inert_when_empty`),
which is decided once per handler; a handler with a `when` or a keyed
target still runs on an idle tick, so with one the tick always builds its
context.

On the graph backend a node's recursive query results outlive the tick:
every context the node builds, the fork and invariant-check contexts
included, shares the node's `views`, so a later tick resumes a query whose
inputs only grew (see `runtime.apply_fixpoint`). The same dict holds the
outputs that a non-recursive query keeps per table row, and every index
that a join keeps of a query result or a kept view, the ones that resume
passes probe included, under one growth rule (see `runtime._kept_index`).
A recovered node is a new Transducer and starts with none.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

from . import lattice
from .eval import MISSING, _order_key, bind, truthy
from .interp import InterpContext
from .ir import (
    Assign, Delete, ForEach, Handler, MergeMutation, Program, Send, UdfCall,
    _MSG, EFFECTS, MESSAGE_ID, ORDERED, prepared,
)
from .lattice import IntOverflow, ShapeMismatch
from .runtime import GraphContext, compile_queries
from .state import (
    AmbiguousAssign, BindError, Delta, Effects, FixpointDivergence,
    NodeState, OutMsg, Row, UdfFailure, storage_key,
)

ACCEPTED = "accepted"
REJECTED = "rejected"

# what a tick raises on a defect of the program it runs; `Transducer.tick`
# names the handlers it blames in the exception's `handlers`, and
# `sim.Cluster.step` adds the node id and the tick as `node_id` and `tick`
NODE_FAILURES = (UdfFailure, FixpointDivergence, AmbiguousAssign,
                 ShapeMismatch, IntOverflow, BindError)


def commit_record(message_id: str, seq: int, delta: Delta) -> Row:
    """The commit record that ships accepted request `message_id`, the
    `seq`-th of its handler, with the effects it committed."""
    return Row({MESSAGE_ID: message_id, ORDERED: seq, EFFECTS: delta})


@dataclass
class TickResult:
    tick: int
    fired: list = dfield(default_factory=list)        # handler names that consumed input
    sends: list = dfield(default_factory=list)        # OutMsg
    statuses: dict = dfield(default_factory=dict)     # message_id -> accepted/rejected
    deltas: dict = dfield(default_factory=dict)       # message_id -> Delta, if accepted
    udf_invocations: int = 0


class Transducer:
    """Single-node executor; `backend` picks the evaluation strategy. A
    tick returns its sends, and `sim.Cluster` routes them."""

    def __init__(self, program: Program, role: str = "main",
                 backend: str = "graph", max_rounds: int = 10000,
                 issued=None):
        """`issued`: serializable handler -> commit records issued for it so
        far, a dict its owner keeps counting; None for a node that stands
        alone, which decides without waiting for records."""
        if backend not in ("graph", "interp"):
            raise ValueError(f"unknown backend {backend!r}")
        self.program = program
        self.role = role
        self.backend = backend
        self.max_rounds = max_rounds
        self.state = NodeState(program)
        self.handlers = sorted(
            (h for h in program.handlers if h.role == role),
            key=lambda h: h.name)
        self.prepared = {h.name: prepared(h) for h in self.handlers}
        self.idle_when_empty = {name: all(map(_inert_when_empty, p.stmts))
                                for name, p in self.prepared.items()}
        self.eventual = [h for h in self.handlers
                         if h.consistency.level != "serializable"]
        self.serializable = [h for h in self.handlers
                             if h.consistency.level == "serializable"]
        # a tick builds its context only if some eventual handler acts on
        # an idle tick, or one of these handlers has a pending message: an
        # eventual one, or a serializable one whose guard picks its request
        self._acts_when_idle = not all(self.idle_when_empty[h.name]
                                       for h in self.eventual)
        self._context_readers = tuple(
            h.name for h in self.handlers
            if h.consistency.level != "serializable"
            or self.prepared[h.name].guard is not None)
        self.compiled = compile_queries(program) if backend == "graph" else None
        self.views: dict = {}     # recursive query results kept between ticks
        self.issued = issued
        # serializable handler -> its applied prefix: the records applied or
        # issued here, starting from the count issued as the node starts
        self.applied: dict = dict(issued or {})
        self.held: dict = {}      # handler -> {seq: record} past the prefix

    # --- context construction -----------------------------------------------
    def _context(self, snapshot):
        if self.backend == "graph":
            return GraphContext(self.program, snapshot, self.compiled,
                                max_rounds=self.max_rounds, views=self.views)
        return InterpContext(self.program, snapshot, max_rounds=self.max_rounds)

    # --- message intake -----------------------------------------------------
    def deliver(self, mailbox: str, payload: Row):
        self.state.deliver(mailbox, payload)

    def has_pending_input(self) -> bool:
        boxes = self.state.mailboxes
        return any(boxes.get(name) for name in self.prepared)

    def apply_record(self, handler: str, record: Row) -> list:
        """Take commit record `record` of serializable `handler` and commit,
        in sequence order, every record that the applied prefix now reaches;
        returns those. A record below the prefix is a duplicate, dropped;
        one past it waits in `held`. No context is built and no guard or
        invariant runs: the record carries the sequencer's decision."""
        done = self.applied.get(handler, 0)
        seq = record[ORDERED]
        if seq < done:
            return []
        held = self.held.setdefault(handler, {})
        held[seq] = record
        applied = []
        while done in held:
            record = held.pop(done)
            self.state.commit(record[EFFECTS])
            applied.append(record)
            done += 1
        self.applied[handler] = done
        return applied

    def _eligible(self, h: Handler, ctx) -> list:
        """Pending messages whose guard passes, in arrival order; with no
        guard, the mailbox list itself, which is never mutated."""
        pending = self.state.mailboxes.get(h.name, [])
        guard = self.prepared[h.name].guard
        if guard is None:
            return pending
        return [msg for msg in pending if truthy(ctx.eval(guard, {_MSG: msg}))]

    def _next_request(self, h: Handler, ctx):
        """The first pending message whose guard passes, or None; the guard
        runs on no message after it."""
        pending = self.state.mailboxes.get(h.name, ())
        guard = self.prepared[h.name].guard
        if guard is None:
            return pending[0] if pending else None
        return next((msg for msg in pending
                     if truthy(ctx.eval(guard, {_MSG: msg}))), None)

    # --- tick ---------------------------------------------------------------
    def tick(self) -> TickResult:
        """One tick. It builds its context, over a snapshot taken as it
        starts, only when a handler will read it (see `__init__`), and
        commits the eventual effects only when some eventual handler's
        statements ran; a request builds its own two contexts (see
        `_run_request`).

        A `NODE_FAILURES` exception leaves it with `handlers`, the names of
        the handlers it is blamed on: the one that raised, or, when the
        commit of the eventual effects raises, every eventual handler whose
        statements ran."""
        boxes = self.state.mailboxes
        ctx = None
        if self._acts_when_idle or any(boxes.get(name)
                                       for name in self._context_readers):
            ctx = self._context(self.state.snapshot())
        result = TickResult(tick=self.state.tick)
        ran = []
        h = None
        try:
            if ctx is not None:
                eff = Effects()
                for h in self.eventual:
                    if self._run_eventual(h, ctx, eff, result):
                        ran.append(h.name)
                h = None
                if ran:
                    self.state.commit(eff)
                    result.sends.extend(eff.sends)

            for h in self.serializable:
                self._run_request(h, ctx, result)
        except NODE_FAILURES as exc:
            exc.handlers = (h.name,) if h is not None else tuple(ran)
            raise

        self.state.tick += 1
        if ctx is not None:
            result.udf_invocations = ctx.udf_invocations
        return result

    def _run_eventual(self, h: Handler, ctx, eff: Effects,
                      result: TickResult) -> bool:
        """Run `h` on its eligible messages; whether its statements ran."""
        msgs = self._eligible(h, ctx)
        if not msgs and self.idle_when_empty[h.name]:
            return False
        ctx.firing[h.name] = tuple(msgs)
        try:
            self._run_stmts(h, msgs, ctx, eff)
        finally:
            ctx.firing.pop(h.name, None)
        if msgs:
            eff.consumed.setdefault(h.name, []).extend(msgs)
            result.fired.append(h.name)
        return True

    def _run_request(self, h: Handler, ctx, result: TickResult):
        """Run the first eligible request of `h` on a fork, and adopt the
        fork if the invariants hold on it. `ctx`, the tick's context, picks
        the request by the guard; it is None only if `h` has no guard or no
        pending message.

        Under a cluster the node decides only once its applied prefix
        equals the records issued for `h`, so no decision reads a state
        that misses one already made."""
        if (self.issued is not None
                and self.applied.get(h.name, 0) != self.issued.get(h.name, 0)):
            return
        msg = self._next_request(h, ctx)
        if msg is None:
            return
        fork = self.state.fork()
        eff = Effects()
        fctx = self._context(fork.snapshot())
        fctx.firing[h.name] = (msg,)
        self._run_stmts(h, (msg,), fctx, eff)
        eff.consumed.setdefault(h.name, []).append(msg)
        fork.commit(eff)

        check = self._context(fork.snapshot())
        ok = all(truthy(check.eval(inv, {_MSG: msg}))
                 for inv in self.prepared[h.name].invariants)
        mid = msg.get(MESSAGE_ID)
        if ok:
            self.state.tables = fork.tables
            self.state.vars = fork.vars
            self.state.mailboxes = fork.mailboxes
            result.sends.extend(eff.sends)
            status = ACCEPTED
            if mid is not None:
                result.deltas[mid] = eff.delta()
        else:
            # reject: consume the request, discard everything else
            drop = Effects(consumed={h.name: [msg]})
            self.state.commit(drop)
            status = REJECTED
        result.fired.append(h.name)
        if mid is not None:
            result.statuses[mid] = status

    # --- statement execution ------------------------------------------------
    def _run_stmts(self, h: Handler, msgs, ctx, eff: Effects):
        """The handler's statements: a loop body once per message of `msgs`,
        any other statement once."""
        for s in self.prepared[h.name].stmts:
            if isinstance(s, ForEach):
                for m in msgs:
                    self._run_body(s.body, {s.binder: m}, ctx, eff)
            else:
                self._run_stmt(s, {}, ctx, eff)

    def _run_body(self, body, env: dict, ctx, eff: Effects):
        """`body` under `env`, a dict of its own that a UDF binder extends."""
        for s in body:
            self._run_stmt(s, env, ctx, eff)

    def _run_stmt(self, s, env: dict, ctx, eff: Effects):
        when = getattr(s, "when", None)
        if when is not None and not truthy(ctx.eval(when, env)):
            return
        if isinstance(s, MergeMutation):
            self._do_merge(s, env, ctx, eff)
        elif isinstance(s, Assign):
            self._do_assign(s, env, ctx, eff)
        elif isinstance(s, Delete):
            key = None if s.target.key is None else self._key(s.target, env, ctx)
            if key is not MISSING:
                eff.deletes.append((s.target.data, key))
        elif isinstance(s, Send):
            self._do_send(s, env, ctx, eff)
        elif isinstance(s, UdfCall):
            args = tuple(ctx.eval(a, env) for a in s.args)
            if any(a is MISSING for a in args):
                return
            value = ctx.call_udf(s.udf, args)
            if s.binder is not None:
                env[s.binder] = value
        elif isinstance(s, ForEach):
            for m in ctx.snapshot.mailboxes.get(s.mailbox, []):
                self._run_body(s.body, bind(env, s.binder, m), ctx, eff)
        else:
            raise TypeError(f"unknown statement: {s!r}")

    def _key(self, target, env, ctx):
        """The storage key of the row `target` writes (see
        `state.storage_key`), or MISSING."""
        value = ctx.eval(target.key, env)
        if value is MISSING:
            return MISSING
        cls = self.program.data_map[target.data].cls
        return storage_key(self.program.class_map[cls], value)

    def _do_merge(self, s: MergeMutation, env, ctx, eff: Effects):
        value = ctx.eval(s.expr, env)
        if value is MISSING:
            return
        d = self.program.data_map[s.target.data]
        if d.kind == "table":
            if s.target.key is not None:
                key = self._key(s.target, env, ctx)
                if key is MISSING:
                    return
                eff.field_merges.append((s.target.data, key, s.target.field, value))
            else:
                # commit joins rows field by field, so their order cannot
                # matter; only the bad item an error names is picked in
                # sorted order, to keep the message deterministic
                rows = value if isinstance(value, frozenset) else (value,)
                if not all(isinstance(row, Row) for row in rows):
                    bad = next(row for row in sorted(rows, key=_order_key)
                               if not isinstance(row, Row))
                    raise TypeError(
                        f"merge into table {s.target.data!r} needs rows, got {bad!r}")
                eff.table_merges.extend((s.target.data, row) for row in rows)
        else:
            values = (sorted(value, key=_order_key)
                      if isinstance(value, frozenset) and d.shape != "set"
                      else (value,))
            # wrapped here, so that a value of the wrong shape raises in the
            # handler that merges it and not in the end-of-tick commit
            eff.var_merges.extend((s.target.data, lattice.wrap(v, d.shape))
                                  for v in values)

    def _do_assign(self, s: Assign, env, ctx, eff: Effects):
        value = ctx.eval(s.expr, env)
        if value is MISSING:
            return
        d = self.program.data_map[s.target.data]
        if d.kind == "table":
            key = self._key(s.target, env, ctx)
            if key is MISSING:
                return
            eff.assign((s.target.data, key, s.target.field), value)
        else:
            if d.shape is not None:
                value = lattice.wrap(value, d.shape)
            eff.assign((s.target.data, None, None), value)

    def _do_send(self, s: Send, env, ctx, eff: Effects):
        value = ctx.eval(s.expr, env)
        if value is MISSING:
            return
        payloads = (sorted(value, key=_order_key)
                    if isinstance(value, frozenset) else [value])
        for p in payloads:
            if not isinstance(p, Row):
                raise TypeError(f"send to {s.mailbox!r} needs records, got {p!r}")
            eff.sends.append(OutMsg(s.mailbox, p))


def _inert_when_empty(s) -> bool:
    """Whether the desugared statement `s` does nothing while its handler
    has no eligible message: a loop over the messages, or a merge or send
    of a comprehension over the mailbox with no `when` to evaluate and no
    keyed target (a keyed merge creates its row even from an empty set)."""
    if isinstance(s, ForEach):
        return True
    if isinstance(s, MergeMutation):
        return s.when is None and s.target.key is None
    return isinstance(s, Send) and s.when is None
