"""Lowering: turn a validated program into a deployable plan.

The plan names one node role per handler role, assigns each mailbox a
routing rule, and records the compiled operator chains, the text of the
function generated for each query rule and each handler expression, and
the query strata for inspection. The routes are the ones `sim.Cluster`
runs, so `analyze --inspect` prints what the simulator does. Lowering
refuses programs that validation, stratification, or recursive-group
compilation reject, so anything that lowers cleanly is executable by both
backends.

It also refuses what the cluster cannot sequence: a send into a
serializable handler's mailbox, since a sequenced request must be a
client's, and a return from a serializable handler or a send into its
reply mailbox, since a sequenced request's one reply is its status.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Optional

from .analysis import Unstratifiable, metaconsistency_conflicts, stratify
from .ir import (
    Comp, Program, Send, flat_statements, kept, prepared, response_mailbox,
    statement_exprs, validate,
)
from .runtime import (
    NonMonotoneRecursion, compile_comp, compile_expr, compile_queries,
)


class LoweringError(Exception):
    """The program failed a pre-lowering check; `entries` carries details."""

    def __init__(self, message, entries=()):
        super().__init__(message)
        self.entries = tuple(entries)


@dataclass(frozen=True)
class Route:
    """Where messages on one mailbox go.

    kinds: ``role`` (the handler's replica group, or its sequencer when
    `sequenced`), ``reply`` (back to the client that issued the matching
    request id of `handler`), ``client`` (an outbound sink).

    A ``role`` route `replies` when its handler answers each request: it
    is sequenced, or it sends to its own reply mailbox. A client resends
    only such requests until it hears an answer (see `sim`).

    It is a `read` when its handler is not sequenced, replies, and every
    desugared statement, inside a `ForEach` too, sends to its own reply
    mailbox: it writes no data, calls no UDF and sends nothing else. One
    replica answers a read, the one that `sim.Cluster.sequencer` picks;
    how many replicas answer is a target of optimization, not a semantic
    choice, since the client resends until it hears one answer.
    """

    mailbox: str
    kind: str
    role: Optional[str] = None
    handler: Optional[str] = None      # the handler a reply route answers
    sequenced: bool = False            # a sequencer decides its requests
    replies: bool = False              # each request is answered
    read: bool = False                 # one replica answers each request


@dataclass
class RoleGraph:
    role: str
    handlers: list                     # handler names, sorted
    serializable: list                 # handlers needing a sequencer
    query_strata: dict                 # query -> stratum
    recursive_groups: list             # sorted lists of query names
    operators: dict                    # handler/query -> operator kinds
    chains: dict                       # query -> its rules' chains


@dataclass
class LoweringPlan:
    program: Program
    roles: dict = dfield(default_factory=dict)    # role -> RoleGraph
    routes: dict = dfield(default_factory=dict)   # mailbox -> Route

    def to_dict(self) -> dict:
        return {
            "program": self.program.name,
            "roles": {
                role: {
                    "handlers": g.handlers,
                    "serializable": g.serializable,
                    "query_strata": dict(g.query_strata),
                    "recursive_groups": [list(x) for x in g.recursive_groups],
                    "operators": {k: list(v) for k, v in sorted(g.operators.items())},
                    "source": {
                        **{k: [c.source.splitlines() for c in v]
                           for k, v in g.chains.items()},
                        **{f"handler:{h}": _handler_source(self.program, h)
                           for h in g.handlers}},
                }
                for role, g in sorted(self.roles.items())
            },
            "routes": {
                m: {k: v for k, v in (("kind", r.kind), ("role", r.role),
                                      ("handler", r.handler),
                                      ("sequenced", r.sequenced or None),
                                      ("replies", r.replies or None),
                                      ("read", r.read or None))
                    if v is not None}
                for m, r in sorted(self.routes.items())
            },
        }


def _chain_kinds(chains) -> list:
    out = []
    for chain in chains:
        out.append("|".join(s.kind for s in chain.steps))
    return out


def _handler_source(program: Program, name: str) -> list:
    """The lines of the function generated for each expression of handler
    `name`: its guard, its statements' and its invariants, in that order."""
    p = prepared(program.handler_map[name])
    exprs = [p.guard] if p.guard is not None else []
    exprs += [e for s in flat_statements(p.stmts)
              for e in statement_exprs(s)]
    return [compile_comp(e, program).source.splitlines()
            if isinstance(e, Comp)
            else compile_expr(e, program)[1].splitlines()
            for e in exprs + list(p.invariants)]


def lower(program: Program) -> LoweringPlan:
    """The program's plan, built on first use and kept on the program (see
    `ir.kept`), so the analysis and every cluster of a program share it."""
    return kept(program, "_lowered", _lower)


def _lower(program: Program) -> LoweringPlan:
    report = validate(program)
    if not report.ok:
        raise LoweringError(
            "program failed validation: "
            + "; ".join(f"{e.code}: {e.message}" for e in report),
            entries=report.entries)
    conflicts = metaconsistency_conflicts(program)
    if conflicts:
        raise LoweringError(
            "MetaconsistencyConflict: " + "; ".join(str(c) for c in conflicts),
            entries=conflicts)
    try:
        strata = stratify(program)
        compiled = compile_queries(program)
    except (Unstratifiable, NonMonotoneRecursion) as exc:
        raise LoweringError(f"{type(exc).__name__}: {exc}") from exc

    plan = LoweringPlan(program)
    qstrata = dict(strata.query_strata)
    rec_groups = [sorted(g) for g in strata.recursive_groups]

    operators, chains = {}, {}
    for plans in [compiled.plans] + [group.plans for group in compiled.groups]:
        for name, qplan in plans.items():
            operators[f"query:{name}"] = _chain_kinds(qplan.chains)
            chains[f"query:{name}"] = qplan.chains

    for h in program.handlers:
        reply = response_mailbox(h.name)
        sequenced = h.consistency.level == "serializable"
        answers = [isinstance(s, Send) and s.mailbox == reply
                   for s in flat_statements(prepared(h).stmts)]
        replies = sequenced or any(answers)
        plan.routes[h.name] = Route(
            h.name, "role", h.role, sequenced=sequenced, replies=replies,
            read=replies and not sequenced and all(answers))
        plan.routes[reply] = Route(reply, "reply", handler=h.name)
    for sink in program.sinks:
        plan.routes[sink] = Route(sink, "client")

    refused = _unsequenceable(program, plan.routes)
    if refused:
        raise LoweringError("NotSequenceable: " + "; ".join(refused),
                            entries=refused)

    for role in program.roles():
        handlers = sorted(h.name for h in program.handlers if h.role == role)
        serial = [name for name in handlers if plan.routes[name].sequenced]
        plan.roles[role] = RoleGraph(role, handlers, serial, qstrata,
                                     rec_groups, operators, chains)
    return plan


def _unsequenceable(program: Program, routes: dict) -> list:
    """Each send of a handler that the cluster cannot sequence: one into a
    serializable handler's mailbox or into its reply mailbox."""
    out = []
    for h in program.handlers:
        for s in _sends(prepared(h).stmts):
            route = routes[s.mailbox]
            if route.sequenced:
                out.append(f"handler {h.name!r} sends to serializable handler "
                           f"{s.mailbox!r}, whose requests must be clients'")
            elif route.kind == "reply" and routes[route.handler].sequenced:
                what = ("returns a value" if route.handler == h.name
                        else f"sends to {s.mailbox!r}")
                out.append(f"handler {h.name!r} {what}, but serializable "
                           f"handler {route.handler!r} replies with its "
                           "request's status alone")
    return out


def _sends(stmts):
    return (s for s in flat_statements(stmts) if isinstance(s, Send))
