"""Scenario files: a program, a cluster shape, a workload, and fault
injections, bundled with the seed that makes the run reproducible.

The program is referenced either by bundled pattern name or inline in the
program JSON format. Nodes can be listed explicitly or synthesized from the
availability annotations over a failure-domain topology.

`build_scenario_cluster` is the only code that turns a program into a
`Cluster`; `patterns.run_workload` builds a `Scenario` to get one. Both
ways of getting nodes end in one `ReplicationPlan`: explicit nodes give
each handler every node of its role. Every node is a worker: clients send
to a handler's group directly and own the resending of their requests
(see `sim`), so a node whose `behavior` is not "worker" is refused.

`load_scenario` checks each workload item in one pass, and a workload can
hold thousands of items: a check builds its error message, and any sorted
list of names in it, only on the branch that raises, and each handler's
parameter set is built once per load, not once per item.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dfield
from typing import Optional

from .facets import (InsufficientDomains, ReplicationPlan, make_topology,
                     replication_plan)
from .ir import Program
from .lowering import LoweringError
from .progjson import decode_node
from .sim import Cluster, NetworkModel, NodeSpec, domain_prefix_matches


class ScenarioError(Exception):
    """The scenario file is malformed or inconsistent."""


@dataclass
class Scenario:
    program: Program
    seed: int
    network: NetworkModel = NetworkModel()
    nodes: Optional[list] = None            # explicit NodeSpec list
    failure_domains: Optional[list] = None  # slot paths for synthesis
    workload: list = dfield(default_factory=list)
    failures: list = dfield(default_factory=list)   # (tick, domain prefix)
    max_ticks: int = 10000


def _require(cond, msg):
    if not cond:
        raise ScenarioError(msg)


def load_program(ref) -> Program:
    """Program by bundled pattern name, inline dict, or path to a JSON file."""
    from .patterns import get_pattern, pattern_names
    if isinstance(ref, str):
        if ref in pattern_names():
            return get_pattern(ref).program
        try:
            with open(ref) as f:
                ref = json.load(f)
        except OSError as exc:
            raise ScenarioError(
                f"program {ref!r} is neither a bundled pattern nor a "
                f"readable file ({exc})") from exc
    _require(isinstance(ref, dict), "program must be a name or an object")
    try:
        program = decode_node(ref)
    except Exception as exc:
        raise ScenarioError(f"bad inline program: {exc}") from exc
    _require(isinstance(program, Program),
             "bad inline program: document does not describe a program")
    return program


_SCALARS = (bool, int, str)
_ITEM_KEYS = frozenset({"tick", "client", "mailbox", "handler", "payload",
                        "fields", "message_id"})


def _field_value(v, i: int, name: str):
    """Field `name` of workload item `i` as a row holds it: a JSON array
    becomes a tuple, at any depth, so that the row is hashable; a JSON
    object, a fraction or null is refused, as no lattice orders it."""
    if isinstance(v, list):
        return tuple(_field_value(x, i, name) for x in v)
    if isinstance(v, dict):
        raise ScenarioError(f"workload[{i}]: field {name!r} holds an object; "
                            f"fields hold scalars and arrays")
    if not isinstance(v, _SCALARS):
        raise ScenarioError(f"workload[{i}]: field {name!r} holds "
                            f"{json.dumps(v)}; fields hold bools, integers, "
                            f"strings and arrays of them")
    return v


def _count(v, where: str) -> int:
    """`v` if it is a non-negative integer, else a ScenarioError naming
    `where`; a JSON fraction is refused, not truncated."""
    if type(v) is not int or v < 0:
        raise ScenarioError(f"{where} must be a non-negative integer, "
                            f"got {json.dumps(v)}")
    return v


def _string(v, where: str) -> str:
    """`v` if it is a string, else a ScenarioError naming `where`."""
    if not isinstance(v, str):
        raise ScenarioError(f"{where} must be a string, got {json.dumps(v)}")
    return v


def _domain(v, where: str) -> tuple:
    """A failure-domain path: a JSON array of strings."""
    if not (isinstance(v, list) and all(isinstance(x, str) for x in v)):
        raise ScenarioError(f"{where} must be an array of strings, "
                            f"got {json.dumps(v)}")
    return tuple(v)


def load_scenario(source) -> Scenario:
    """Parse a scenario from a dict, JSON text, or file path."""
    if isinstance(source, str):
        if source.lstrip().startswith("{"):
            raw = json.loads(source)
        else:
            with open(source) as f:
                raw = json.load(f)
    else:
        raw = source
    _require(isinstance(raw, dict), "scenario must be an object")
    _require("program" in raw, "scenario needs a 'program'")
    _require("seed" in raw, "scenario needs an explicit 'seed'")
    _require(type(raw["seed"]) is int, "'seed' must be an integer")

    program = load_program(raw["program"])

    net = raw.get("network", {})
    _require(isinstance(net, dict), "'network' must be an object")
    dup_prob = net.get("dup_prob", 0.0)
    if type(dup_prob) not in (int, float) or not 0 <= dup_prob <= 1:
        raise ScenarioError(f"network.dup_prob must be a number in [0, 1], "
                            f"got {json.dumps(dup_prob)}")
    try:
        network = NetworkModel(
            delay_min=_count(net.get("delay_min", 1), "network.delay_min"),
            delay_max=_count(net.get("delay_max", 20), "network.delay_max"),
            dup_prob=dup_prob)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    nodes = None
    if "nodes" in raw:
        _require(isinstance(raw["nodes"], list), "'nodes' must be an array")
        nodes = []
        for i, n in enumerate(raw["nodes"]):
            _require(isinstance(n, dict) and "id" in n and "domain" in n,
                     "each node needs 'id' and 'domain'")
            for key in ("id", "role"):
                _string(n.get(key, ""), f"nodes[{i}].{key}")
            if n.get("behavior", "worker") != "worker":
                raise ScenarioError(
                    f"nodes[{i}].behavior must be \"worker\", got "
                    f"{json.dumps(n['behavior'])}: clients resend their own "
                    f"requests, and no node fronts a group")
            nodes.append(NodeSpec(n["id"], role=n.get("role", "main"),
                                  domain=_domain(n["domain"],
                                                 f"nodes[{i}].domain")))
    failure_domains = None
    if "failure_domains" in raw:
        paths = raw["failure_domains"]
        if not isinstance(paths, list):
            raise ScenarioError(f"'failure_domains' must be an array of "
                                f"domain paths, got {json.dumps(paths)}")
        failure_domains = [_domain(d, f"failure_domains[{i}]")
                           for i, d in enumerate(paths)]

    workload = []
    params = {h.name: frozenset(h.param_names) for h in program.handlers}
    for i, item in enumerate(raw.get("workload", [])):
        if not isinstance(item, dict):
            raise ScenarioError(f"workload[{i}] must be an object")
        if not _ITEM_KEYS.issuperset(item):
            raise ScenarioError(f"workload[{i}]: unknown keys "
                                f"{sorted(set(item) - _ITEM_KEYS)}")
        mailbox = item.get("mailbox", item.get("handler"))
        if mailbox is None:
            raise ScenarioError(f"workload[{i}] needs a 'mailbox'")
        if type(mailbox) is not str:
            _string(mailbox, f"workload[{i}]."  # raises
                    f"{'mailbox' if 'mailbox' in item else 'handler'}")
        if mailbox not in params:
            raise ScenarioError(f"workload[{i}]: no handler {mailbox!r}")
        payload = item.get("payload", item.get("fields", {}))
        if not isinstance(payload, dict):
            raise ScenarioError(f"workload[{i}]: payload must be an object")
        if not params[mailbox].issuperset(payload):
            raise ScenarioError(
                f"workload[{i}]: unknown fields "
                f"{sorted(set(payload) - params[mailbox])} for {mailbox!r}")
        tick = item.get("tick", 0)
        if type(tick) is not int or tick < 0:
            _count(tick, f"workload[{i}].tick")  # raises
        client = item.get("client", "client")
        if type(client) is not str:
            _string(client, f"workload[{i}].client")  # raises
        message_id = item.get("message_id")
        if type(message_id) is not str and "message_id" in item:
            _string(message_id, f"workload[{i}].message_id")  # raises
        fields = dict(payload)
        for name, v in fields.items():
            if type(v) not in _SCALARS:
                fields[name] = _field_value(v, i, name)
        workload.append({
            "tick": tick,
            "client": client,
            "handler": mailbox,
            "fields": fields,
            "message_id": message_id,
        })

    failures = []
    for i, item in enumerate(raw.get("failures", [])):
        _require(isinstance(item, dict) and "tick" in item
                 and "domain" in item,
                 f"failures[{i}] needs 'tick' and 'domain'")
        failures.append((_count(item["tick"], f"failures[{i}].tick"),
                         _domain(item["domain"], f"failures[{i}].domain")))

    return Scenario(
        program=program,
        seed=raw["seed"],
        network=network,
        nodes=nodes,
        failure_domains=failure_domains,
        workload=workload,
        failures=failures,
        max_ticks=_count(raw.get("max_ticks", 10000), "'max_ticks'"),
    )


def build_scenario_cluster(sc: Scenario, backend: str = "graph",
                           seed: Optional[int] = None,
                           trace_path=None) -> Cluster:
    """Materialize the cluster and schedule workload and failures.

    Raises ScenarioError when the program does not lower, a handler has no
    node to run on or a failure names a domain that holds no node."""
    if sc.nodes is None:
        try:
            plan = replication_plan(sc.program,
                                    sc.failure_domains or make_topology())
        except InsufficientDomains as exc:
            raise ScenarioError(str(exc)) from exc
    else:
        plan = ReplicationPlan(nodes=list(sc.nodes))
        for h in sc.program.handlers:
            group = sorted(n.node_id for n in sc.nodes if n.role == h.role)
            _require(group,
                     f"handler {h.name!r}: no worker node has role {h.role!r}")
            plan.groups[h.name] = group
    for i, (_, prefix) in enumerate(sc.failures):
        _require(any(domain_prefix_matches(n.domain, prefix)
                     for n in plan.nodes),
                 f"failures[{i}]: no node under failure domain {list(prefix)}")
    try:
        cluster = Cluster(sc.program, plan.nodes, plan.groups,
                          network=sc.network,
                          seed=seed if seed is not None else sc.seed,
                          backend=backend, trace_path=trace_path)
    except LoweringError as exc:
        raise ScenarioError(f"lowering failed: {exc}") from exc
    for req in sc.workload:
        cluster.schedule_request(req["tick"], req["client"], req["handler"],
                                 req["fields"], message_id=req.get("message_id"))
    for tick, prefix in sc.failures:
        cluster.schedule_failure(tick, prefix)
    return cluster


def run_scenario(sc: Scenario, backend: str = "graph",
                 seed: Optional[int] = None, trace_path=None) -> Cluster:
    cluster = build_scenario_cluster(sc, backend=backend, seed=seed,
                                     trace_path=trace_path)
    try:
        cluster.run_to_quiescence(max_ticks=sc.max_ticks)
    finally:
        cluster.close()
    return cluster
