"""Availability and consistency synthesis.

Availability: a handler annotated to survive ``f`` failures at some domain
level gets ``f + 1`` replicas placed in distinct failure domains at that
level. Clients send to the group directly and resend a request until it
is answered (see `sim`), so no node fronts the group and no single
failure domain outside it can lose a request.

Consistency: serializable handlers are sequenced through the lowest-numbered
live replica of their group; the plan places the group, and
`sim.Cluster.sequencer` is the one place that picks the sequencer as nodes
crash and recover. The same node serves the group's reads
(`lowering.Route.read`): the `f + 1` replicas hold the data for
availability, and one of them answers a request that writes nothing. A
handler runs only on the nodes of its own group.
`facet_warnings` cross-checks the two annotations against the monotonicity
analysis.

`replication_plan` only places nodes; `scenario.build_scenario_cluster` is
the one place that turns a plan into a running `Cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

from .analysis import calm_report
from .ir import Program
from .sim import DOMAIN_LEVELS, NodeSpec


class InsufficientDomains(Exception):
    """The topology has too few distinct failure domains for a handler."""

    def __init__(self, handler, level, need, have):
        self.handler = handler
        self.level = level
        self.need = need
        self.have = have
        super().__init__(
            f"handler {handler!r} needs {need} distinct {level} domains, "
            f"topology offers {have}")


def make_topology(dcs=1, azs=3, racks=1, vms=1):
    """Full grid of failure-domain paths in dc/az/rack/vm order."""
    slots = []
    for d in range(dcs):
        for a in range(azs):
            for r in range(racks):
                for v in range(vms):
                    slots.append((f"dc{d}", f"az{a}", f"rack{r}", f"vm{v}"))
    return slots


def _level_index(level: str) -> int:
    if level not in DOMAIN_LEVELS:
        raise ValueError(f"unknown failure-domain level {level!r}")
    return DOMAIN_LEVELS.index(level)


@dataclass
class ReplicationPlan:
    nodes: list = dfield(default_factory=list)     # NodeSpec
    groups: dict = dfield(default_factory=dict)    # handler -> node ids

    def to_dict(self) -> dict:
        return {
            "nodes": [{"id": n.node_id, "role": n.role,
                       "domain": list(n.domain)}
                      for n in self.nodes],
            "groups": {h: list(ids) for h, ids in sorted(self.groups.items())},
        }


def replication_plan(program: Program, slots) -> ReplicationPlan:
    """Place replicas for every handler over the slot topology.

    One worker node is created per slot actually used; handlers sharing a
    role share those workers. Raises InsufficientDomains when a handler's
    requirement cannot be met.
    """
    slots = sorted(tuple(s) for s in slots)
    plan = ReplicationPlan()
    used: dict = {}  # slot -> node id, per role
    node_ctr = [0]

    def node_for(role: str, slot: tuple) -> str:
        key = (role, slot)
        if key not in used:
            node_ctr[0] += 1
            nid = f"n{node_ctr[0]:02d}"
            used[key] = nid
            plan.nodes.append(NodeSpec(nid, role=role, domain=slot))
        return used[key]

    for h in sorted(program.handlers, key=lambda h: h.name):
        spec = program.avail_for(h.name)
        need = spec.failures + 1
        cut = _level_index(spec.domain) + 1
        chosen = []
        seen_domains = set()
        for slot in slots:
            dom = slot[:cut]
            if dom in seen_domains:
                continue
            seen_domains.add(dom)
            chosen.append(slot)
            if len(chosen) == need:
                break
        if len(chosen) < need:
            raise InsufficientDomains(h.name, spec.domain, need, len(seen_domains))
        plan.groups[h.name] = [node_for(h.role, s) for s in chosen]
    return plan


@dataclass(frozen=True)
class FacetWarning:
    handler: str
    code: str
    message: str


def facet_warnings(program: Program) -> list:
    """Cross-check consistency annotations against the monotonicity analysis.

    - a serializable handler that is already monotone pays for coordination
      it does not need;
    - an eventual handler that is not monotone can diverge under replication
      once it has more than one replica.
    """
    report = calm_report(program)
    out = []
    for h in sorted(program.handlers, key=lambda h: h.name):
        cls = report.mono(h.name)
        if h.consistency.isolation is not None:
            out.append(FacetWarning(
                h.name, "IsolationIgnored",
                f"{h.name} requests isolation="
                f"{h.consistency.isolation}; accepted but not enforced"))
        replicas = program.avail_for(h.name).failures + 1
        if h.consistency.level == "serializable" and cls.monotone:
            out.append(FacetWarning(
                h.name, "UnneededCoordination",
                f"{h.name} is monotone; serializable sequencing is unnecessary"))
        if h.consistency.level == "eventual" and not cls.monotone and replicas > 1:
            reasons = ", ".join(r for _, r in cls.reasons)
            out.append(FacetWarning(
                h.name, "DivergenceRisk",
                f"{h.name} is replicated {replicas}x but not monotone ({reasons})"))
    return out
