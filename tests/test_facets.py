"""Replica placement over failure domains and annotation cross-checks."""

import pytest

from latticeflow.facets import (
    InsufficientDomains, facet_warnings, make_topology, replication_plan,
)
from latticeflow.ir import (
    Assign, AvailSpec, BinOp, ConsistencySpec, Data, DataDecl, Handler, Lit,
    MergeMutation, Program, TargetPath, Var,
)
from latticeflow.lowering import lower
from latticeflow.patterns import covid_tracker
from latticeflow.sim import Cluster


def planned_cluster(p, plan) -> Cluster:
    return Cluster(p, plan.nodes, plan.groups)


def prog(handlers, availability=None):
    return Program(
        "t",
        data=(DataDecl("acc", "var", shape="set"),
              DataDecl("n", "var", scalar="int", init=0)),
        handlers=tuple(handlers),
        availability=availability or {})


def mono_handler(name="h", **kw):
    return Handler(name, {"x": "int"},
                   (MergeMutation(TargetPath("acc"), Var("x")),), **kw)


def test_topology_is_a_full_grid():
    slots = make_topology(dcs=2, azs=3, racks=1, vms=2)
    assert len(slots) == 12
    assert slots[0] == ("dc0", "az0", "rack0", "vm0")
    assert len(set(slots)) == 12


def test_replicas_land_in_distinct_domains():
    p = prog([mono_handler()], {"h": AvailSpec("az", 2)})
    plan = replication_plan(p, make_topology())
    group = plan.groups["h"]
    assert len(group) == 3
    domains = {next(s.domain[1] for s in plan.nodes if s.node_id == n)
               for n in group}
    assert len(domains) == 3


def test_rack_level_spreading():
    p = prog([mono_handler()], {"h": AvailSpec("rack", 1)})
    plan = replication_plan(p, make_topology(azs=1, racks=4))
    group = plan.groups["h"]
    doms = [next(tuple(s.domain[:3]) for s in plan.nodes if s.node_id == n)
            for n in group]
    assert len(group) == 2 and len(set(doms)) == 2


def test_insufficient_domains_is_reported():
    p = prog([mono_handler()], {"h": AvailSpec("az", 3)})
    with pytest.raises(InsufficientDomains) as exc:
        replication_plan(p, make_topology(azs=3))
    assert exc.value.handler == "h"
    assert exc.value.need == 4 and exc.value.have == 3


def test_unreplicated_handler_gets_no_proxy():
    # nor does a replicated one: clients send to a group directly, so no
    # node stands outside the topology in front of the replicas
    p = prog([mono_handler("a"), mono_handler("b")],
             {"a": AvailSpec("az", 0), "b": AvailSpec("az", 2)})
    slots = make_topology()
    plan = replication_plan(p, slots)
    assert len(plan.groups["a"]) == 1 and len(plan.groups["b"]) == 3
    assert {s.domain for s in plan.nodes} <= set(slots)
    assert {s.node_id for s in plan.nodes} == \
        set(plan.groups["a"]) | set(plan.groups["b"])
    assert set(plan.to_dict()) == {"nodes", "groups"}


def test_sequencer_is_synthesized_for_serializable_handlers():
    h = Handler("spend", {},
                (Assign(TargetPath("n"), BinOp("-", Data("n"), Lit(1))),),
                consistency=ConsistencySpec("serializable"))
    p = prog([h], {"spend": AvailSpec("az", 2)})
    plan = replication_plan(p, make_topology())
    assert lower(p).routes["spend"].sequenced
    assert planned_cluster(p, plan).sequencer("spend") in plan.groups["spend"]
    assert plan.to_dict()["groups"]["spend"] == plan.groups["spend"]


def test_handlers_sharing_a_role_share_workers():
    p = prog([mono_handler("a"), mono_handler("b")],
             {"default": AvailSpec("az", 1)})
    plan = replication_plan(p, make_topology())
    assert plan.groups["a"] == plan.groups["b"]


def test_covid_plan_matches_annotations():
    p = covid_tracker().program
    plan = replication_plan(p, make_topology())
    assert len(plan.groups["vaccinate"]) == 3   # tolerates 2 az failures
    assert len(plan.groups["estimate"]) == 2    # tolerates 1
    routes = lower(p).routes
    assert routes["vaccinate"].sequenced and not routes["estimate"].sequenced
    assert (planned_cluster(p, plan).sequencer("vaccinate")
            in plan.groups["vaccinate"])


# --- warnings ----------------------------------------------------------------

def test_unneeded_coordination_warning():
    h = mono_handler(consistency=ConsistencySpec("serializable"))
    warnings = facet_warnings(prog([h], {"h": AvailSpec("az", 1)}))
    assert any(w.code == "UnneededCoordination" for w in warnings)


def test_divergence_risk_warning_needs_replication():
    messy = Handler("h", {"x": "int"},
                    (Assign(TargetPath("n"), Var("x")),))
    replicated = facet_warnings(prog([messy], {"h": AvailSpec("az", 1)}))
    assert any(w.code == "DivergenceRisk" for w in replicated)
    solo = facet_warnings(prog([messy], {"h": AvailSpec("az", 0)}))
    assert not any(w.code == "DivergenceRisk" for w in solo)


def test_isolation_annotation_is_accepted_but_flagged():
    h = mono_handler(consistency=ConsistencySpec(
        "serializable", isolation="snapshot"))
    warnings = facet_warnings(prog([h], {"h": AvailSpec("az", 1)}))
    assert any(w.code == "IsolationIgnored" for w in warnings)


def test_clean_program_raises_no_flags():
    assert facet_warnings(covid_tracker().program) == []
