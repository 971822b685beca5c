"""Tick execution for one logical node.

Each tick reads an immutable snapshot, evaluates all handler bodies against
it, buffers the resulting effects, and commits them atomically at the end of
the tick. Sends buffered during a tick become visible no earlier than the
next tick, even to the sending node itself.

A tick pays only for what its input needs: it builds its context, over the
snapshot taken as it starts, only when an eventual handler has a pending
message, and commits the eventual effects only when some eventual
handler's statements ran. An eventual handler with no eligible message is
skipped: every desugared statement is a loop over the messages or a
comprehension over the mailbox, so it does nothing on an empty one.
Every context a tick builds shares one UDF memo (`udf_memo`).

Every expression of a handler is evaluated by the context's `eval` hook,
each backend's own evaluator. Handlers are prepared once per handler object
(`ir.prepared`), so on the graph backend every node of a program, recovered
ones included, runs the same generated functions (see `runtime`).

Handlers marked serializable decide their whole backlog in one tick, one
request at a time in arrival order, until the mailbox is empty or the guard
passes on no pending message. A decision's guard pick and statements read
one context over the state the previous decision left, which the guard
reads only up to the first pending message that passes; the statements'
effects are committed to a fork of that state, the handler's invariants
read a context over the fork, and the fork is either adopted (accepted) or
discarded (rejected), so the tick's decisions are one serial order. An
accepted request's check context is the next decision's context, so the
query values it memoized (`_qmemo`) serve the next request's statements,
as the eventual handlers share the tick's context: a query reads no
mailbox (`ir.validate`). A fresh one is built only after a reject, since
an expression can read a mailbox, or once the tick has committed eventual
effects. A fork and its snapshots share every table dict and mailbox list
with the node, since commit and deliver replace, and never mutate, one
(see `state`): a request copies only the tables it writes, an accepted one
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

On the graph backend a node's recursive query results outlive the tick:
every context the node builds, the request and invariant-check contexts
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
from .eval import MISSING, truthy
from .interp import InterpContext
from .ir import (
    Assign, Delete, ForEach, Handler, MergeMutation, Program, Send, UdfCall,
    _MSG, MESSAGE_ID, prepared,
)
from .lattice import FIELD_SHAPES, IntOverflow, ShapeMismatch, order_key
from .runtime import GraphContext, compile_queries
from .state import (
    AmbiguousAssign, BindError, Effects, FixpointDivergence, HandlerError,
    NodeState, OutMsg, Row, UdfFailure, lift_row, storage_key,
)

QUEUED = "queued"
ACCEPTED = "accepted"
REJECTED = "rejected"

# what a tick raises on a defect of the program it runs, any other error a
# handler raises chained to a `HandlerError`; `Transducer.tick` names the
# handlers it blames in the exception's `handlers`, and `sim.Cluster.step`
# adds the node id and the tick as `node_id` and `tick`
NODE_FAILURES = (UdfFailure, FixpointDivergence, AmbiguousAssign,
                 ShapeMismatch, IntOverflow, BindError, HandlerError)


@dataclass
class TickResult:
    fired: list = dfield(default_factory=list)        # handler names that consumed input
    sends: list = dfield(default_factory=list)        # OutMsg
    statuses: dict = dfield(default_factory=dict)     # message_id -> accepted/rejected
    records: dict = dfield(default_factory=dict)      # handler -> the commit record of its batch
    udf_invocations: int = 0                          # host UDF calls: the tick's memo size


class Transducer:
    """Single-node executor; `backend` picks the evaluation strategy. A
    tick returns its sends, and `sim.Cluster` routes them."""

    def __init__(self, program: Program, role: str = "main",
                 backend: str = "graph", log=None):
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
        self.state = NodeState(program)
        self.handlers = sorted(
            (h for h in program.handlers if h.role == role),
            key=lambda h: h.name)
        self.prepared = {h.name: prepared(h) for h in self.handlers}
        self.eventual = [h for h in self.handlers
                         if h.consistency.level != "serializable"]
        self.serializable = [h for h in self.handlers
                             if h.consistency.level == "serializable"]
        self.compiled = compile_queries(program) if backend == "graph" else None
        self.views: dict = {}     # recursive query results kept between ticks
        self.udf_memo: dict = {}  # (udf, args) -> result, for every context
                                  # of the tick; a tick starts a new one
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
            ctx = GraphContext(self.program, snapshot, self.compiled,
                               views=self.views)
        else:
            ctx = InterpContext(self.program, snapshot)
        ctx.udf_memo = self.udf_memo
        return ctx

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

    # --- tick ---------------------------------------------------------------
    def tick(self) -> TickResult:
        """One tick: the eventual handlers on the tick's context, built
        only when one of them has a pending message, then each
        serializable handler's backlog (see `_run_request`), first on the
        tick's context unless the tick committed eventual effects. Every
        context of the tick shares `udf_memo`, whose size is the result's
        `udf_invocations`.

        A `NODE_FAILURES` exception leaves it with `handlers`, the names of
        the handlers it is blamed on: the one that raised, or, when the
        commit of the eventual effects raises, every eventual handler whose
        statements ran. Any other error, such as a `ZeroDivisionError` of a
        handler's expression, leaves it chained to a `HandlerError`.

        It first brings each serializable handler to its log's tail
        (`catch_up`), so every context, guard and decision reads a state
        that holds every decision already made."""
        for h in self.serializable:
            self.catch_up(h.name)
        self.udf_memo = {}
        result = TickResult()
        ran = []
        h = ctx = None
        try:
            if any(self.state.mailboxes.get(e.name) for e in self.eventual):
                ctx = self._context(self.state.snapshot())
                eff = Effects()
                for h in self.eventual:
                    if self._run_eventual(h, ctx, eff, result):
                        ran.append(h.name)
                h = None
                if ran:
                    self.state.commit(eff)
                    result.sends.extend(eff.sends)
                    ctx = None

            for h in self.serializable:
                ctx = self._run_request(h, ctx, result)
        except Exception as exc:
            failure = exc if isinstance(exc, NODE_FAILURES) else \
                HandlerError(f"{type(exc).__name__}: {exc}")
            failure.handlers = (h.name,) if h is not None else tuple(ran)
            if failure is exc:
                raise
            raise failure from exc
        result.udf_invocations = len(self.udf_memo)
        return result

    def _run_eventual(self, h: Handler, ctx, eff: Effects,
                      result: TickResult) -> bool:
        """Run `h` on its eligible messages, if it has any; whether it
        did."""
        msgs = self._eligible(h, ctx)
        if not msgs:
            return False
        ctx.firing[h.name] = tuple(msgs)
        try:
            self._run_stmts(h, msgs, ctx, eff)
        finally:
            ctx.firing.pop(h.name, None)
        eff.consumed.setdefault(h.name, []).extend(msgs)
        result.fired.append(h.name)
        return True

    def _run_request(self, h: Handler, ctx, result: TickResult):
        """Decide the backlog of `h` by the batch rule of this module's
        docstring, and return the context it ends with. `ctx`, like the
        context returned, is None or a context over the node's state as it
        stands: an accepted request's check context, or one built over a
        state the tick has not changed since. A decision builds a fresh one
        only when there is none.

        The tick has brought the node to the tail of `h`'s log, so the
        batch's commit record joins the log as its last record and the
        prefix moves past it."""
        prep = self.prepared[h.name]
        decisions = []
        while pending := self.state.mailboxes.get(h.name):
            if ctx is None:
                ctx = self._context(self.state.snapshot())
            msg = (pending[0] if prep.guard is None else
                   next((m for m in pending
                         if truthy(ctx.eval(prep.guard, {_MSG: m}))), None))
            if msg is None:
                break
            if h.name not in result.fired:
                result.fired.append(h.name)
            fork = self.state.fork()
            eff = Effects(consumed={h.name: [msg]})
            ctx.firing[h.name] = (msg,)   # ctx is replaced below
            self._run_stmts(h, (msg,), ctx, eff)
            fork.commit(eff)

            check = self._context(fork.snapshot())
            mid = msg.get(MESSAGE_ID)
            if all(truthy(check.eval(inv, {_MSG: msg}))
                   for inv in prep.invariants):
                self.state.tables = fork.tables
                self.state.vars = fork.vars
                self.state.mailboxes = fork.mailboxes
                result.sends.extend(eff.sends)
                status, delta, ctx = ACCEPTED, eff.delta(), check
            else:
                # reject: consume the request, discard everything else
                self.state.commit(Effects(consumed={h.name: [msg]}))
                status, delta, ctx = REJECTED, None, None
            if mid is not None:
                result.statuses[mid] = self.status[mid] = status
                decisions.append((mid, delta))
        if decisions:
            log = self.log[h.name]
            log.append(tuple(decisions))
            self.applied[h.name] = len(log)
            result.records[h.name] = log[-1]
        return ctx

    # --- statement execution ------------------------------------------------
    def _run_stmts(self, h: Handler, msgs, ctx, eff: Effects):
        """The handler's statements: a loop body once per message of `msgs`,
        under an env of its own that a UDF binder extends, and any other
        statement once."""
        for s in self.prepared[h.name].stmts:
            if isinstance(s, ForEach):
                for m in msgs:
                    env = {s.binder: m}
                    for inner in s.body:
                        self._run_stmt(inner, env, ctx, eff)
            else:
                self._run_stmt(s, {}, ctx, eff)

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
        """Buffer a merge with its value lifted into the shape of what it
        writes: a field's or a var's shape (`lattice.lift`), or a table's
        rows field by field (`state.lift_row`). So a value of the wrong
        shape raises in the handler that merges it, and commit only joins.
        A set merged into a var of another shape merges element by
        element: a mailbox-quantified merge hands it the set of
        per-message values."""
        value = ctx.eval(s.expr, env)
        if value is MISSING:
            return
        name = s.target.data
        d = self.program.data_map[name]
        if d.kind == "table":
            cls = self.program.class_map[d.cls]
            if s.target.key is not None:
                key = self._key(s.target, env, ctx)
                if key is MISSING:
                    return
                shape = FIELD_SHAPES[cls.field_map[s.target.field]]
                eff.field_merges.append((name, key, s.target.field,
                                         lattice.lift(value, shape)))
                return

            def lifted(row):
                if not isinstance(row, Row):
                    raise HandlerError(
                        f"merge into table {name!r} needs rows, got {row!r}")
                return lift_row(cls, row)

            rows = value if isinstance(value, frozenset) else (value,)
            try:
                rows = [lifted(row) for row in rows]
            except (HandlerError, ShapeMismatch, IntOverflow):
                # commit joins rows field by field, so their order cannot
                # matter; they are lifted again in sorted order only so
                # that the error names the same bad row on every run
                for row in sorted(rows, key=order_key):
                    lifted(row)
                raise
            eff.table_merges.extend((name, row) for row in rows)
        else:
            values = (sorted(value, key=order_key)
                      if isinstance(value, frozenset) and d.shape != "set"
                      else (value,))
            eff.var_merges.extend((name, lattice.lift(v, d.shape))
                                  for v in values)

    def _do_assign(self, s: Assign, env, ctx, eff: Effects):
        """Buffer an assignment with its value lifted into the shape of
        what it writes, a field's or a lattice var's, as `_do_merge` lifts
        a merge's; a scalar var takes its value as it is."""
        value = ctx.eval(s.expr, env)
        if value is MISSING:
            return
        d = self.program.data_map[s.target.data]
        if d.kind == "table":
            key = self._key(s.target, env, ctx)
            if key is MISSING:
                return
            cls = self.program.class_map[d.cls]
            shape = FIELD_SHAPES[cls.field_map[s.target.field]]
            eff.assign((s.target.data, key, s.target.field),
                       lattice.lift(value, shape))
        else:
            if d.shape is not None:
                value = lattice.lift(value, d.shape)
            eff.assign((s.target.data, None, None), value)

    def _do_send(self, s: Send, env, ctx, eff: Effects):
        value = ctx.eval(s.expr, env)
        if value is MISSING:
            return
        payloads = (sorted(value, key=order_key)
                    if isinstance(value, frozenset) else [value])
        for p in payloads:
            if not isinstance(p, Row):
                raise HandlerError(f"send to {s.mailbox!r} needs records, got {p!r}")
            eff.sends.append(OutMsg(s.mailbox, p))

