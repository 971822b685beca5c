"""Lowering: turn a validated program into a deployable plan.

The plan names one node role per handler role, assigns each mailbox a
routing rule, and records the compiled operator chains and query strata for
inspection. The routes are the ones `sim.Cluster` runs, so `analyze
--inspect` prints what the simulator does. Lowering refuses programs that
validation, stratification, or recursive-group compilation reject, so
anything that lowers cleanly is executable by both backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Optional

from .analysis import metaconsistency_conflicts, stratify
from .ir import Program, kept, response_mailbox, validate
from .runtime import compile_queries


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
    """

    mailbox: str
    kind: str
    role: Optional[str] = None
    handler: Optional[str] = None      # the handler a reply route answers
    sequenced: bool = False            # a sequencer decides its requests


@dataclass
class RoleGraph:
    role: str
    handlers: list                     # handler names, sorted
    serializable: list                 # handlers needing a sequencer
    query_strata: dict                 # query -> stratum
    recursive_groups: list             # sorted lists of query names
    operators: dict                    # handler/query -> operator kinds


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
                }
                for role, g in sorted(self.roles.items())
            },
            "routes": {
                m: {k: v for k, v in (("kind", r.kind), ("role", r.role),
                                      ("handler", r.handler),
                                      ("sequenced", r.sequenced or None))
                    if v is not None}
                for m, r in sorted(self.routes.items())
            },
        }


def _chain_kinds(chains) -> list:
    out = []
    for chain in chains:
        out.append("|".join(s.kind for s in chain.steps))
    return out


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
    strata = stratify(program)            # raises Unstratifiable
    compiled = compile_queries(program)   # raises NonMonotoneRecursion

    plan = LoweringPlan(program)
    qstrata = dict(strata.query_strata)
    rec_groups = [sorted(g) for g in strata.recursive_groups]

    operators = {}
    for name, qplan in compiled.plans.items():
        operators[f"query:{name}"] = _chain_kinds(qplan.chains)
    for group in compiled.groups:
        for name, qplan in group.plans.items():
            operators[f"query:{name}"] = _chain_kinds(qplan.chains)

    for h in program.handlers:
        plan.routes[h.name] = Route(
            h.name, "role", h.role,
            sequenced=h.consistency.level == "serializable")
        plan.routes[response_mailbox(h.name)] = Route(
            response_mailbox(h.name), "reply", handler=h.name)
    for sink in program.sinks:
        plan.routes[sink] = Route(sink, "client")

    for role in program.roles():
        handlers = sorted(h.name for h in program.handlers if h.role == role)
        serial = [name for name in handlers if plan.routes[name].sequenced]
        plan.roles[role] = RoleGraph(role, handlers, serial, qstrata,
                                     rec_groups, operators)
    return plan
