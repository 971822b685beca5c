"""Tick execution for one logical node.

Each tick reads an immutable snapshot, evaluates all handler bodies against
it, buffers the resulting effects, and commits them atomically at the end of
the tick. Sends buffered during a tick become visible no earlier than the
next tick, even to the sending node itself.

A tick pays only for what its input needs: it builds its context, over the
snapshot taken as it starts, only when some handler will read it (an
eventual handler with a pending message or one that acts on an idle tick,
or a serializable handler with a pending message and a guard), and commits
the eventual effects only when some eventual handler's statements ran.

Every expression of a handler is evaluated by the context's `eval` hook,
each backend's own evaluator. Handlers are prepared once per handler object
(`ir.prepared`), so on the graph backend every node of a program, recovered
ones included, runs the same generated functions (see `runtime`).

Handlers marked serializable decide their whole backlog in one tick, one
request at a time in arrival order, until the mailbox is empty or the guard
passes on no pending message. Each request runs against a fork of the
state the previous decision left, the handler's invariants are checked on
the outcome, and the fork is either adopted (accepted) or discarded
(rejected), so the tick's decisions are one serial order. The guard picks
each request on that same state, and runs on the pending messages only up
to the first that passes: after an accept it reads the accepted request's
check context, whose snapshot is the adopted state, and after a reject a
fresh context over the node's state, since an expression can read a
mailbox. Each request builds two contexts, its fork's and its invariant
check's. A fork and its snapshots share every table dict and mailbox list
with the node, since commit and deliver replace, and never mutate, one (see
`state`): a request copies only the tables it writes, an accepted one
leaves the node's other tables the same objects, and a rejected one leaves
every table so.

A node keeps, for each serializable handler, a commit log (`log`): the
records issued for the handler, in sequence order, each numbered by its
index. Under a cluster every node shares the cluster's log, which
outlives their crashes; a node that stands alone keeps its own. A node's
applied prefix (`applied`) counts the records of the log it has applied
or issued. A record is the tuple of one batch's decisions in decision
order, `(message id, state.Delta)` for each accepted request, the effects
it committed, and `(message id, None)` for each rejected one, so
replicas learn rejections too. A replica learns each decision by reading
the log as it grows: `catch_up` commits the log from the applied prefix
to its tail, building no fork, context, guard or invariant check, and a
tick catches up before it builds its context, so a node never decides on
a prefix that misses a decision already made. The deciding node appends
its batch's record to the log and advances its prefix past it. A node
built on a non-empty log replays it, so a recovered node starts from
every decision made before it rejoined. A node keeps a status for each
sequenced request id it has seen (`status`): queued when it takes the
request (`take_request`, once per id), then the decision, from the
record it issues or from one it applies, where `delta is None` means
rejected. So it decides no request that another node decided before, a
pending copy of a decided request leaves the mailbox as the node catches
up, and a duplicate of a decided request can be answered with its
status.

An eventual handler with no eligible message is skipped when none of its
desugared statements can act on an empty mailbox (see `_inert_when_empty`),
which is decided once per handler; a handler with a `when` or a keyed
target still runs on an idle tick, so with one the tick always builds its
context.

On the graph backend a node's recursive query results outlive the tick:
every context the node builds, the fork and invariant-check contexts
included, shares the node's `views`, so a later tick resumes a query whose
inputs only grew (see `runtime.apply_fixpoint`). The same dict holds every
index that a join keeps of a query result or a kept view, the ones that
resume passes probe included, under one growth rule (see
`runtime._kept_index`).
A recovered node is a new Transducer and starts with none.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

from . import lattice
from .eval import MISSING, _order_key, bind, truthy
from .interp import InterpContext
from .ir import (
    Assign, Delete, ForEach, Handler, MergeMutation, Program, Send, UdfCall,
    _MSG, MESSAGE_ID, prepared,
)
from .lattice import IntOverflow, ShapeMismatch
from .runtime import GraphContext, compile_queries
from .state import (
    AmbiguousAssign, BindError, Effects, FixpointDivergence,
    NodeState, OutMsg, Row, UdfFailure, storage_key,
)

QUEUED = "queued"
ACCEPTED = "accepted"
REJECTED = "rejected"

# what a tick raises on a defect of the program it runs; `Transducer.tick`
# names the handlers it blames in the exception's `handlers`, and
# `sim.Cluster.step` adds the node id and the tick as `node_id` and `tick`
NODE_FAILURES = (UdfFailure, FixpointDivergence, AmbiguousAssign,
                 ShapeMismatch, IntOverflow, BindError)


@dataclass
class TickResult:
    fired: list = dfield(default_factory=list)        # handler names that consumed input
    sends: list = dfield(default_factory=list)        # OutMsg
    statuses: dict = dfield(default_factory=dict)     # message_id -> accepted/rejected
    records: dict = dfield(default_factory=dict)      # handler -> the commit record of its batch
    udf_invocations: int = 0                          # host UDF calls in every context the tick built


class Transducer:
    """Single-node executor; `backend` picks the evaluation strategy. A
    tick returns its sends, and `sim.Cluster` routes them."""

    def __init__(self, program: Program, role: str = "main",
                 backend: str = "graph", max_rounds: int = 10000,
                 log=None):
        """`log`: serializable handler -> the commit records issued for it,
        in sequence order, a dict shared by every node of a cluster and kept
        by its owner across crashes; a node that stands alone keeps its
        own. A node built on a non-empty log replays it (`catch_up`) before
        it serves."""
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
        self.log: dict = {} if log is None else log
        # serializable handler -> its applied prefix: the records of the log
        # applied or issued here
        self.applied: dict = {}
        self.status: dict = {}    # sequenced request id -> QUEUED, ACCEPTED
                                  # or REJECTED
        for h in self.serializable:
            self.log.setdefault(h.name, [])
            self.catch_up(h.name)

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

    def take_request(self, mailbox: str, payload: Row) -> bool:
        """Queue request `payload` of a serializable handler unless this
        node has a status for its message id; whether it did."""
        mid = payload.get(MESSAGE_ID)
        if mid in self.status:
            return False
        self.status[mid] = QUEUED
        self.state.deliver(mailbox, payload)
        return True

    def catch_up(self, handler: str) -> tuple:
        """Commit `handler`'s log from the applied prefix to its tail. No
        context is built and no guard or invariant runs: the records carry
        the deciding node's decisions. Every decided id gets its status,
        and a pending copy of a decided request leaves the mailbox.
        Returns the sequence numbers applied, a range, and the message ids
        of the copies removed."""
        log = self.log[handler]
        applied = range(self.applied.get(handler, 0), len(log))
        if not applied:
            return applied, []
        decided = {}
        for record in log[applied.start:]:
            for mid, delta in record:
                if delta is None:
                    decided[mid] = REJECTED
                else:
                    self.state.commit(delta)
                    decided[mid] = ACCEPTED
        self.applied[handler] = len(log)
        self.status.update(decided)
        pending = self.state.mailboxes[handler]
        self.state.mailboxes[handler] = [m for m in pending
                                         if m.get(MESSAGE_ID) not in decided]
        return applied, [m[MESSAGE_ID] for m in pending
                         if m.get(MESSAGE_ID) in decided]

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
        statements ran; each request builds its own two contexts (see
        `_run_request`).

        A `NODE_FAILURES` exception leaves it with `handlers`, the names of
        the handlers it is blamed on: the one that raised, or, when the
        commit of the eventual effects raises, every eventual handler whose
        statements ran.

        It first brings each serializable handler to its log's tail
        (`catch_up`), so the context, the guard and every decision read a
        state that holds every decision already made."""
        for h in self.serializable:
            self.catch_up(h.name)
        boxes = self.state.mailboxes
        ctx = None
        if self._acts_when_idle or any(boxes.get(name)
                                       for name in self._context_readers):
            ctx = self._context(self.state.snapshot())
        result = TickResult()
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

        if ctx is not None:
            result.udf_invocations += ctx.udf_invocations
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
        """Decide the backlog of `h` by the batch rule of this module's
        docstring. `ctx`, the tick's context, picks the first request by
        the guard; it is None only if `h` has no guard or no pending
        message.

        The tick has brought the node to the tail of `h`'s log, so the
        batch's commit record joins the log as its last record and the
        prefix moves past it."""
        guarded = self.prepared[h.name].guard is not None
        msg = self._next_request(h, ctx)
        if msg is not None:
            result.fired.append(h.name)
        decisions = []
        while msg is not None:
            fork = self.state.fork()
            eff = Effects()
            fctx = self._context(fork.snapshot())
            fctx.firing[h.name] = (msg,)
            self._run_stmts(h, (msg,), fctx, eff)
            result.udf_invocations += fctx.udf_invocations
            eff.consumed.setdefault(h.name, []).append(msg)
            fork.commit(eff)

            ctx = self._context(fork.snapshot())
            ok = all(truthy(ctx.eval(inv, {_MSG: msg}))
                     for inv in self.prepared[h.name].invariants)
            mid = msg.get(MESSAGE_ID)
            if ok:
                self.state.tables = fork.tables
                self.state.vars = fork.vars
                self.state.mailboxes = fork.mailboxes
                result.sends.extend(eff.sends)
                status, delta = ACCEPTED, eff.delta()
            else:
                # reject: consume the request, discard everything else
                drop = Effects(consumed={h.name: [msg]})
                self.state.commit(drop)
                status, delta = REJECTED, None
                # the check context saw the discarded fork
                result.udf_invocations += ctx.udf_invocations
                ctx = (self._context(self.state.snapshot())
                       if guarded and self.state.mailboxes.get(h.name)
                       else None)
            if mid is not None:
                result.statuses[mid] = self.status[mid] = status
                decisions.append((mid, delta))
            msg = self._next_request(h, ctx)
            if ctx is not None:   # the check or fresh context is done
                result.udf_invocations += ctx.udf_invocations
        if decisions:
            log = self.log[h.name]
            log.append(tuple(decisions))
            self.applied[h.name] = len(log)
            result.records[h.name] = log[-1]

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
