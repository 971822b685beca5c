"""Deterministic network simulation: delays, duplication, failures."""

import collections
import functools
import json
import random
from dataclasses import replace

import pytest
from conftest import DEMO, client_statuses

from latticeflow.eval import EvalContext
from latticeflow.facets import make_topology, replication_plan
from latticeflow.ir import (
    MESSAGE_ID, Assign, AvailSpec, BinOp, ConsistencySpec, Data, DataDecl,
    Handler, Lit, MergeMutation, Program, Record, Return, Send, TargetPath,
    UdfCall, UdfDecl, Var,
)
from latticeflow.lowering import lower
from latticeflow.patterns import (
    covid_tracker, covid_workload, get_pattern, pattern_names, run_workload,
)
from latticeflow.runtime import compile_queries
from latticeflow.scenario import (
    Scenario, build_scenario_cluster, load_scenario,
)
from latticeflow.sim import Cluster, NetworkModel, NoQuiescence, trace_text
from latticeflow.state import FixpointDivergence, Row
from latticeflow.transducer import Transducer


def covid_cluster(seed, network=None, dup=0.0):
    pat = covid_tracker()
    net = network or NetworkModel(1, 8, dup)
    return run_workload(pat.program, covid_workload(seed), seed=seed,
                        network=net)


def test_same_seed_is_byte_identical():
    a, b = covid_cluster(3), covid_cluster(3)
    assert trace_text(a) == trace_text(b)
    assert a.dump_states() == b.dump_states()
    assert a.response_log == b.response_log


def test_different_seed_changes_the_schedule():
    assert trace_text(covid_cluster(3)) != trace_text(covid_cluster(4))


def test_network_model_rejects_bad_delays():
    with pytest.raises(ValueError):
        NetworkModel(0, 5)
    with pytest.raises(ValueError):
        NetworkModel(4, 2)


def test_delivery_takes_at_least_one_tick():
    cluster = covid_cluster(1)
    issued = {ev.detail["message_id"]: ev.tick
              for ev in cluster.trace if ev.kind == "Injected"}
    assert issued and cluster.response_log
    for tick, client, mid, payload, fresh in cluster.response_log:
        # request went client -> worker -> client: two hops, one tick each
        assert tick >= issued[mid] + 2


def test_duplicates_are_deduplicated():
    plain = covid_cluster(6)
    noisy = covid_cluster(6, network=NetworkModel(1, 8, 1.0))
    assert plain.dump_states() == noisy.dump_states()
    for cluster in (plain, noisy):
        fresh_mids = [mid for (_t, _c, mid, _p, fresh)
                      in cluster.response_log if fresh]
        assert sorted(fresh_mids) == sorted(set(fresh_mids))
        assert set(fresh_mids) == set(cluster.request_payload)


def test_crash_loses_state_but_replicas_answer():
    pat = covid_tracker()
    cluster = build_scenario_cluster(
        Scenario(pat.program, seed=9, network=NetworkModel(1, 4, 0.0)))
    cluster.schedule_request(0, "c1", "add_person",
                             {"pid": 1, "name": "a", "country": "x"})
    cluster.schedule_request(8, "c1", "trace", {"pid": 1})
    cluster.schedule_failure(6, ("dc0", "az0"))
    cluster.run_to_quiescence()
    assert any(mid in cluster.responses.get("c1", {})
               for mid in cluster.request_payload)
    assert any(ev.kind == "Crashed" for ev in cluster.trace)


def test_no_live_replica_is_logged():
    pat = covid_tracker()
    cluster = build_scenario_cluster(
        Scenario(pat.program, seed=2, network=NetworkModel(1, 3, 0.0)))
    for az in ("az0", "az1", "az2"):
        cluster.schedule_failure(1, ("dc0", az))
    cluster.schedule_request(5, "c1", "add_person",
                             {"pid": 1, "name": "a", "country": "x"})
    cluster.run_to_quiescence()
    assert any(ev.kind == "NoLiveReplica" for ev in cluster.trace)
    assert cluster.responses.get("c1", {}) == {}
    # the client resends while no node is live, then gives up, so the run
    # quiesces: the last resend is 14 + 28 + 56 + 112 + 224 ticks after the
    # request, and the give-up one wait of 448 after that
    [(mid, _)] = cluster.request_payload.items()
    assert [(ev.tick, ev.kind) for ev in cluster.trace
            if ev.kind in ("Retransmitted", "GaveUp")] == [
        (5 + 14, "Retransmitted"), (5 + 42, "Retransmitted"),
        (5 + 98, "Retransmitted"), (5 + 210, "Retransmitted"),
        (5 + 434, "Retransmitted"), (5 + 882, "GaveUp")]
    assert [ev.detail for ev in cluster.trace if ev.kind == "GaveUp"] == [
        {"mailbox": "add_person", "message_id": mid, "resends": 5}]


def _demo_with_every_zone_down(max_ticks, trace_path=None):
    """The demo's first request, on a slow network, with every node of the
    cluster crashed at tick 1: its client resends it five times into no
    live replica and gives up 63 waits of 202 ticks after it, at 12726."""
    with open(DEMO) as f:
        raw = json.load(f)
    raw["workload"] = raw["workload"][:1]
    raw["network"]["delay_max"] = 50
    raw["failures"] = [{"tick": 1, "domain": ["dc0"]}]
    raw["max_ticks"] = max_ticks
    sc = load_scenario(raw)
    return sc, build_scenario_cluster(sc, seed=1, trace_path=trace_path)


def test_the_idle_fast_forward_stops_at_the_tick_limit():
    sc, cluster = _demo_with_every_zone_down(10000)
    with pytest.raises(NoQuiescence):
        cluster.run_to_quiescence(max_ticks=sc.max_ticks)
    assert cluster.tick == 10000
    assert max(ev.tick for ev in cluster.trace) < 10000
    assert not any(ev.kind == "GaveUp" for ev in cluster.trace)

    sc, cluster = _demo_with_every_zone_down(20000)
    assert cluster.run_to_quiescence(max_ticks=sc.max_ticks) == 12728
    assert [(ev.tick, ev.kind) for ev in cluster.trace
            if ev.kind == "GaveUp"] == [(12726, "GaveUp")]


def test_a_duplicate_of_a_decided_request_is_answered_with_its_status():
    """Every message is duplicated, so the second copy of each request
    reaches a node that has decided it or applied its record: it is
    traced `Deduplicated` and answered again with the status the log
    recorded, where `delta is None` means rejected."""
    pat = covid_tracker(coordinated=True, vaccine_count=2)
    cluster = build_scenario_cluster(
        Scenario(pat.program, seed=3, network=NetworkModel(1, 6, 1.0)))
    cluster.schedule_request(0, "c1", "add_person",
                             {"pid": 1, "name": "a", "country": "x"})
    vaccinations(cluster, 4, 5)
    cluster.run_to_quiescence()
    logged = {mid: "rejected" if delta is None else "accepted"
              for record in cluster.log["vaccinate"] for mid, delta in record}
    assert sorted(logged.values()) == ["accepted"] * 2 + ["rejected"] * 3
    answers = collections.defaultdict(list)
    for _t, _c, mid, payload, _f in cluster.response_log:
        if mid in logged:
            answers[mid].append(payload["status"])
    assert set(answers) == set(logged)
    assert all(set(v) == {logged[mid]} for mid, v in answers.items())
    assert any(len(v) > 1 for v in answers.values())
    assert client_statuses(cluster) == logged


def test_a_handler_that_sends_no_reply_is_never_resent():
    # no mpi_collectives handler replies, so no client owns a request,
    # though no request is ever answered
    pat = get_pattern("mpi_collectives")
    cluster = run_workload(pat.program, pat.workload(seed=4), seed=4)
    assert not any(lower(pat.program).routes[h].replies
                   for h, _p in cluster.request_payload.values())
    assert cluster.request_payload and not cluster.response_log
    assert not _events(cluster, "Retransmitted")
    assert not _events(cluster, "GaveUp")
    assert pat.observe(cluster) == pat.oracle(pat.workload(seed=4))


def test_a_request_reaches_only_its_own_group():
    # `a` has one replica and shares its role with the three of `b`; with
    # that replica down, a request for `a` goes to no node of `b`
    program = Program(
        "shared", data=(DataDecl("acc", "var", shape="set"),),
        handlers=tuple(Handler(name, {"x": "int"},
                               (MergeMutation(TargetPath("acc"), Var("x")),))
                       for name in ("a", "b")),
        availability={"a": AvailSpec("az", 0), "b": AvailSpec("az", 2)})
    cluster = build_scenario_cluster(
        Scenario(program, seed=1, network=NetworkModel(1, 3, 0.0)))
    [only] = cluster.groups["a"]
    assert len(cluster.groups["b"]) == 3 and only in cluster.groups["b"]
    cluster.schedule_failure(0, cluster.specs[only].domain)
    mid = cluster.schedule_request(1, "c1", "a", {"x": 1})
    cluster.run_to_quiescence()
    assert [(ev.node, ev.detail) for _, ev in _events(cluster,
                                                      "NoLiveReplica")] == [
        (None, {"mailbox": "a", "message_id": mid})]
    assert not _events(cluster, "Sent")
    assert all(node.state.vars["acc"].elems == frozenset()
               for node in cluster.nodes.values())


def test_retransmission_recovers_a_dropped_request():
    # vaccinate goes to its sequencer n01; when n01 dies with the request
    # in flight, the request is dropped, and its client resends it, to
    # n02 now, a first wait of 4 * 6 + 2 ticks after it sent it
    pat = covid_tracker(vaccine_count=5)
    found = 0
    for seed in range(30):
        cluster = build_scenario_cluster(
            Scenario(pat.program, seed=seed, network=NetworkModel(2, 6, 0.0)))
        cluster.schedule_request(0, "c1", "add_person",
                                 {"pid": 1, "name": "a", "country": "x"})
        mid = cluster.schedule_request(3, "c1", "vaccinate", {"pid": 1})
        cluster.schedule_failure(7, ("dc0", "az0"))
        cluster.run_to_quiescence()
        assert len(cluster.responses.get("c1", {})) == 2
        if not any(ev.kind == "Dropped" and ev.detail["message_id"] == mid
                   for ev in cluster.trace):
            continue
        found += 1
        [(at, resend)] = [(i, ev)
                          for i, ev in _events(cluster, "Retransmitted")
                          if ev.detail["message_id"] == mid]
        assert (resend.tick, resend.node) == (3 + 26, "client:c1")
        assert resend.detail == {"mailbox": "vaccinate", "message_id": mid,
                                 "attempt": 1}
        sent = cluster.trace[at + 1]
        assert (sent.kind, sent.detail["dest"]) == ("Sent", "n02")
    assert found > 0


def test_unmatched_failure_domain_raises():
    cluster = build_scenario_cluster(Scenario(covid_tracker().program, seed=0))
    with pytest.raises(KeyError):
        cluster.inject_failure(("dc9",))


def test_guard_blocked_messages_still_quiesce():
    from latticeflow.patterns import get_pattern
    pat = get_pattern("actors")
    # do_m for an actor that was never spawned stays blocked forever
    workload = [{"tick": 0, "client": "c1", "handler": "do_m",
                 "fields": {"actor_id": "ghost", "m": "poke"}}]
    cluster = run_workload(pat.program, workload, seed=0)
    assert cluster.tick < 10000


def test_recovered_node_rejoins_empty():
    pat = covid_tracker()
    cluster = build_scenario_cluster(
        Scenario(pat.program, seed=5, network=NetworkModel(1, 3, 0.0)))
    cluster.schedule_request(0, "c1", "add_person",
                             {"pid": 1, "name": "a", "country": "x"})
    cluster.run_to_quiescence()
    victim = sorted(cluster.nodes)[0]
    before = cluster.node_state(victim)
    cluster.inject_failure(cluster.specs[victim].domain)
    cluster.recover(victim)
    after = cluster.node_state(victim)
    assert before != after
    assert after["tables"]["people"] == {} or after["tables"]["people"] == []


def vaccinations(cluster, tick, count):
    for i in range(count):
        cluster.schedule_request(tick + i, "c1", "vaccinate", {"pid": 1})


def test_a_recovered_node_applies_the_records_issued_after_it_rejoined():
    """A recovered node replays the commit log as it rejoins, so it holds
    the stock and the ids of the two doses given before, and of the person
    only the field those records wrote; it then applies the record issued
    after it rejoined, which decides the last two doses in one batch, and
    ends at the sequencer's stock."""
    pat = covid_tracker(coordinated=True, vaccine_count=5)
    cluster = build_scenario_cluster(
        Scenario(pat.program, seed=6, network=NetworkModel(1, 3, 0.0)))
    cluster.schedule_request(0, "c1", "add_person",
                             {"pid": 1, "name": "a", "country": "x"})
    vaccinations(cluster, 3, 1)
    cluster.run_to_quiescence()
    cluster.inject_failure(cluster.specs["n03"].domain)
    vaccinations(cluster, cluster.tick, 1)
    cluster.run_to_quiescence()
    cluster.recover("n03")
    node = cluster.nodes["n03"]
    assert node.applied == {"vaccinate": 2}
    assert node.status == {"m000002": "accepted", "m000003": "accepted"}
    assert node.state.vars["vaccine_count"] == 3
    person = node.state.tables["people"][(1,)]
    assert (person["name"], person["vaccinated"]) == (None, True)
    vaccinations(cluster, cluster.tick, 2)
    cluster.run_to_quiescence()
    assert node.applied == cluster.nodes["n01"].applied == {"vaccinate": 3}
    assert [len(r) for r in cluster.log["vaccinate"]] == [1, 1, 2]
    assert [cluster.nodes[n].state.vars["vaccine_count"]
            for n in ("n01", "n02", "n03")] == [1, 1, 1]
    assert node.state.tables["people"][(1,)]["vaccinated"] is True


def test_no_commit_record_is_held_after_quiescence():
    """Every message is duplicated, and still each backup applies each
    record once, traced as one `Applied` event, and every replica ends at
    the log's tail. A node built on the log afterwards replays it to the
    replicas' stock."""
    pat = covid_tracker(coordinated=True, vaccine_count=3)
    cluster = build_scenario_cluster(
        Scenario(pat.program, seed=0, network=NetworkModel(1, 6, 1.0)))
    for pid in (1, 2):
        cluster.schedule_request(0, "c1", "add_person",
                                 {"pid": pid, "name": "a", "country": "x"})
    vaccinations(cluster, 4, 5)
    cluster.run_to_quiescence()
    assert len(cluster.log["vaccinate"]) == 3
    applied = [(ev.node, ev.detail["seq"]) for ev in cluster.trace
               if ev.kind == "Applied"]
    assert sorted(applied) == [(n, seq) for n in ("n02", "n03")
                               for seq in range(3)]
    for node in cluster.nodes.values():
        assert node.applied == {"vaccinate": 3}
        assert node.state.vars["vaccine_count"] == 0
    replayed = Transducer(pat.program, log=cluster.log)
    assert replayed.applied == {"vaccinate": 3}
    assert replayed.state.vars["vaccine_count"] == 0


def test_the_issued_count_follows_a_batch_decided_out_of_id_order():
    """Two requests whose ids sort against their arrival order reach the
    sequencer n01 in one tick, which decides both in one record that names
    them in decision order; the log's length, the count of records issued,
    follows n01's applied prefix, so its gate reopens for the third
    request."""
    pat = covid_tracker(coordinated=True, vaccine_count=5)
    cluster = build_scenario_cluster(
        Scenario(pat.program, seed=0, network=NetworkModel(1, 1, 0.0)))
    cluster.schedule_request(0, "c1", "add_person",
                             {"pid": 1, "name": "a", "country": "x"})
    for mid in ("b", "a"):
        cluster.schedule_request(4, "c1", "vaccinate", {"pid": 1},
                                 message_id=mid)
    cluster.schedule_request(12, "c1", "vaccinate", {"pid": 1},
                             message_id="c")
    while cluster.tick < 40:
        cluster.step()
        assert len(cluster.log["vaccinate"]) == \
            cluster.nodes["n01"].applied.get("vaccinate", 0)
    assert [[mid for mid, _ in r]
            for r in cluster.log["vaccinate"]] == [["b", "a"], ["c"]]
    applied = [(ev.detail["handler"], ev.detail["seq"],
                ev.detail["message_ids"])
               for ev in cluster.trace
               if ev.kind == "Applied" and ev.node == "n02"]
    assert applied == [("vaccinate", 0, ["b", "a"]),
                       ("vaccinate", 1, ["c"])]
    assert set(cluster.responses["c1"]) == set(cluster.request_payload)


def test_every_node_of_a_program_runs_one_compiled_handler():
    """A handler's expressions are compiled once per program: a run with
    three replicas of each handler, and a node that crashed and recovered
    and then ran more requests, keep as many compiled expressions as a run
    with one replica."""
    three = covid_tracker().program
    one = replace(three, availability={"default": AvailSpec("az", 0)})
    sizes = []
    for program in (one, three):
        cluster = run_workload(program, covid_workload(2), seed=2)
        sizes.append(len(compile_queries(program).handler_exprs))
    assert len(cluster.nodes) > len(run_workload(one, []).nodes)
    victim = sorted(cluster.nodes)[0]
    cluster.inject_failure(cluster.specs[victim].domain)
    cluster.recover(victim)
    for i, (handler, fields) in enumerate(
            (("add_person", {"pid": 9, "name": "z", "country": "x"}),
             ("add_contact", {"pid": 9, "contact": 1}))):
        cluster.schedule_request(cluster.tick + i, "c1", handler, fields)
    cluster.run_to_quiescence()
    assert any(e.kind == "Recovered" for e in cluster.trace)
    sizes.append(len(compile_queries(three).handler_exprs))
    assert sizes[0] > 0 and sizes == [sizes[0]] * 3


def test_recovered_node_keeps_the_round_cap(monkeypatch):
    monkeypatch.setattr(EvalContext, "max_rounds", 3)
    program = covid_tracker().program
    plan = replication_plan(program, make_topology())
    cluster = Cluster(program, plan.nodes, plan.groups)
    victim = sorted(cluster.nodes)[0]
    cluster.inject_failure(cluster.specs[victim].domain)
    cluster.recover(victim)
    node = cluster.nodes[victim]
    # a contact chain 0-1-...-5 needs more than three rounds to close
    for i in range(6):
        node.deliver("add_person", Row(pid=i, name=str(i), country="x",
                                       **{MESSAGE_ID: f"p{i}"}))
    for i in range(5):
        node.deliver("add_contact", Row(pid=i, contact=i + 1,
                                        **{MESSAGE_ID: f"c{i}"}))
    node.tick()
    node.deliver("trace", Row(pid=0, **{MESSAGE_ID: "t0"}))
    with pytest.raises(FixpointDivergence):
        node.tick()


def test_requests_scheduled_mid_run_keep_their_schedule_order():
    cluster = build_scenario_cluster(Scenario(
        covid_tracker().program, seed=4,
        network=NetworkModel(1, 3, 0.0)))
    cluster.schedule_request(0, "c1", "add_person",
                             {"pid": 1, "name": "a", "country": "x"})
    mids = [cluster.schedule_request(10, "c1", "trace", {"pid": 1})
            for _ in range(3)]
    cluster.step()
    # scheduled after the queue has shrunk: must not share a tie-break
    mids.append(cluster.schedule_request(10, "c1", "trace", {"pid": 1}))
    cluster.run_to_quiescence()
    injected = [ev.detail["message_id"] for ev in cluster.trace
                if ev.kind == "Injected" and ev.tick == 10]
    assert injected == mids
    assert set(mids) <= set(cluster.responses["c1"])

@pytest.mark.parametrize("value, kind", [
    (["a"], "list"), ({"a": 1}, "dict"), ({"a"}, "set"),
    ((["a"],), "list"), ((1, Row(a={"b"})), "set")],
    ids=["list", "dict", "set", "list-in-tuple", "set-in-row-in-tuple"])
def test_a_request_field_that_is_not_hashable_is_refused_when_scheduled(
        value, kind):
    cluster = build_scenario_cluster(Scenario(
        covid_tracker().program, seed=4,
        network=NetworkModel(1, 3, 0.0)))
    with pytest.raises(ValueError, match=f"request to 'add_person': field "
                       f"'name' holds a {kind}, which is not hashable"):
        cluster.schedule_request(0, "c1", "add_person",
                                 {"pid": 1, "name": value, "country": "x"})
    assert cluster.pending_injections == [] and cluster.request_payload == {}


def test_scheduling_in_a_past_tick_is_rejected():
    cluster = build_scenario_cluster(Scenario(
        covid_tracker().program, seed=4,
        network=NetworkModel(1, 3, 0.0)))
    for _ in range(5):
        cluster.step()
    with pytest.raises(ValueError):
        cluster.schedule_request(2, "c1", "trace", {"pid": 1})
    with pytest.raises(ValueError):
        cluster.schedule_failure(2, ("dc0", "az0"))
    assert cluster.pending_injections == []
    assert cluster.pending_failures == []
    # the current tick has not run yet, so it still takes requests
    mid = cluster.schedule_request(5, "c1", "add_person",
                                   {"pid": 1, "name": "a", "country": "x"})
    cluster.run_to_quiescence()
    assert [ev.tick for ev in cluster.trace if ev.kind == "Injected"] == [5]
    assert list(cluster.responses["c1"]) == [mid]

def _events(cluster, kind):
    return [(i, ev) for i, ev in enumerate(cluster.trace) if ev.kind == kind]


def _crash_and_recover_run(cls, seed):
    rng = random.Random(seed)
    program = covid_tracker(vaccine_count=4).program
    plan = replication_plan(program, make_topology())
    cluster = cls(program, plan.nodes, plan.groups,
                  seed=seed, network=NetworkModel(1, 6, 0.2))
    for pid in range(6):
        cluster.schedule_request(rng.randrange(4), "c1", "add_person",
                                 {"pid": pid, "name": str(pid), "country": "x"})
    for _ in range(30):
        handler = rng.choice(("add_contact", "trace", "vaccinate"))
        fields = {"pid": rng.randrange(6)}
        if handler == "add_contact":
            fields["contact"] = rng.randrange(6)
        cluster.schedule_request(rng.randrange(4, 40), rng.choice(("c1", "c2")),
                                 handler, fields)
    for _ in range(60):
        roll = rng.random()
        down = sorted(n for n, up in cluster.alive.items() if not up)
        if roll < 0.12:
            # one node, or every worker at once
            domains = [cluster.specs[n].domain for n in sorted(cluster.specs)]
            cluster.inject_failure(rng.choice(domains + [("dc0",)]))
        elif roll < 0.3 and down:
            cluster.recover(rng.choice(down))
        cluster.step()
    for nid in sorted(n for n, up in cluster.alive.items() if not up):
        cluster.recover(nid)
    cluster.run_to_quiescence()
    return cluster


def test_the_trace_file_and_trace_text_agree(tmp_path):
    """The trace file is written as the run goes, `trace_text` after it,
    both from each event's `to_json`; they must match byte for byte, and
    each event's `detail` must hold what its JSON line holds. A crash and
    recovery run and a run whose client gives up cover every kind."""
    recovered = tmp_path / "recovered.jsonl"
    cluster = _crash_and_recover_run(
        functools.partial(Cluster, trace_path=recovered), 0)
    cluster.record_state_dump()
    runs = [(recovered, cluster)]
    given_up = tmp_path / "given-up.jsonl"
    sc, cluster = _demo_with_every_zone_down(20000, trace_path=given_up)
    cluster.run_to_quiescence(max_ticks=sc.max_ticks)
    runs.append((given_up, cluster))
    kinds = set()
    for path, cluster in runs:
        cluster.close()
        assert path.read_text() == trace_text(cluster)
        for ev in cluster.trace:
            assert json.loads(ev.to_json()) == {
                "tick": ev.tick, "kind": ev.kind, "node": ev.node,
                "detail": ev.detail}
            kinds.add(ev.kind)
    assert kinds == {
        "Applied", "Crashed", "Deduplicated", "Delivered", "Dropped",
        "Duplicated", "GaveUp", "Injected", "NoLiveReplica", "Recovered",
        "Response", "Retransmitted", "Sent", "StateDump", "TickCompleted"}


def _assert_answered_once_or_given_up(cluster):
    """Each request of a handler that replies has one fresh answer, or
    none and one `GaveUp`, traced while no node of its group was live;
    no request is answered with two statuses. Judged from the trace and
    the responses alone."""
    fresh = collections.Counter(mid for _t, _c, mid, _p, is_fresh
                                in cluster.response_log if is_fresh)
    statuses = {}
    for _t, _c, mid, payload, _f in cluster.response_log:
        if "status" in payload:
            statuses.setdefault(mid, set()).add(payload["status"])
    assert all(len(v) == 1 for v in statuses.values()), statuses
    alive, gave_up = set(cluster.nodes), {}
    for ev in cluster.trace:
        if ev.kind == "Crashed":
            alive.discard(ev.node)
        elif ev.kind == "Recovered":
            alive.add(ev.node)
        elif ev.kind == "GaveUp":
            mid = ev.detail["message_id"]
            assert mid not in gave_up, mid
            group = set(cluster.groups[ev.detail["mailbox"]])
            gave_up[mid] = not alive & group
    for mid, (handler, _payload) in cluster.request_payload.items():
        if not cluster.routes[handler].replies:
            continue
        if mid in gave_up:
            assert gave_up[mid] and fresh[mid] == 0, mid
        else:
            assert fresh[mid] == 1, mid


def test_every_request_is_answered_once_across_crashes_and_recoveries():
    """Crashes of single nodes and of every worker at once lose requests
    in flight and queued; the clients resend them, so each is answered
    once, with one status, or given up only while its group is down."""
    resent = 0
    for seed in range(20):
        cluster = _crash_and_recover_run(Cluster, seed)
        _assert_answered_once_or_given_up(cluster)
        resent += len(_events(cluster, "Retransmitted"))
    assert resent


class _LogChecked(Cluster):
    """Counts, after every step, the live replicas of a sequenced handler
    that have not applied the whole commit log."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.lagging = 0

    def step(self):
        active = super().step()
        self.lagging += sum(
            self.nodes[nid].applied.get(h, 0) != len(records)
            for h, records in self.log.items() for nid in self.live_group(h))
        return active


def test_every_live_replica_holds_the_whole_log_after_each_step():
    """A replica learns each decision by reading the log as it grows, so
    no live replica lags the log's tail after any step, crashes and
    recoveries included."""
    records = 0
    for seed in range(40):
        cluster = _crash_and_recover_run(_LogChecked, seed)
        assert cluster.lagging == 0, seed
        records += len(cluster.log["vaccinate"])
    assert records


def test_every_message_lost_to_a_crash_is_dropped_with_an_event():
    """Each message on the network to a node as it crashes, duplicates
    included, is removed with one `Dropped` event naming the node, the
    mailbox and the message id; judged from the `Sent`, `Duplicated` and
    `Crashed` events alone. No event of the network carries a commit
    record."""
    dropped = 0
    for seed in range(12):
        cluster = _crash_and_recover_run(Cluster, seed)
        crashed_at = {}
        expected, seen = collections.Counter(), collections.Counter()
        for ev in cluster.trace:
            if ev.kind == "Crashed":
                crashed_at.setdefault(ev.node, []).append(ev.tick)
            elif ev.kind == "Dropped":
                seen[ev.tick, ev.node, ev.detail["mailbox"],
                     ev.detail["message_id"]] += 1
        for ev in cluster.trace:
            if ev.kind in ("Sent", "Duplicated", "Dropped"):
                assert "message_ids" not in ev.detail, seed
            if ev.kind not in ("Sent", "Duplicated"):
                continue
            dest, due = ev.detail["dest"], ev.detail["deliver_tick"]
            # the first crash of the destination while the message flies
            lost = [t for t in crashed_at.get(dest, ())
                    if ev.tick < t <= due][:1]
            for t in lost:
                expected[t, dest, ev.detail["mailbox"],
                         ev.detail["message_id"]] += 1
        assert seen == expected, seed
        dropped += sum(seen.values())
    assert dropped


def _vaccinations_across_a_demotion(seed, cls=Cluster):
    """Twenty vaccinations against three doses, while one zone's node
    crashes and recovers, on a cluster of class `cls`; returns the cluster
    and that node's id. When the node is the sequencer, the replica
    promoted in its place still holds requests as the recovered node takes
    the role back."""
    rng = random.Random(seed)
    program = covid_tracker(coordinated=True, vaccine_count=3).program
    plan = replication_plan(program, make_topology())
    cluster = cls(program, plan.nodes, plan.groups,
                  seed=seed, network=NetworkModel(1, 6, 0.2))
    for pid in range(3):
        cluster.schedule_request(0, "c1", "add_person",
                                 {"pid": pid, "name": str(pid), "country": "x"})
    for i in range(12):
        cluster.schedule_request(4 + i // 3, "c1", "vaccinate",
                                 {"pid": rng.randrange(3)})
    for pid in range(3, 6):
        cluster.schedule_request(25, "c1", "add_person",
                                 {"pid": pid, "name": str(pid), "country": "x"})
    for i in range(8):
        cluster.schedule_request(27 + i // 3, "c1", "vaccinate",
                                 {"pid": 3 + rng.randrange(3)})
    zone = rng.choice(("az0", "az1", "az2"))
    down = rng.randint(5, 12)
    back = down + rng.randint(2, 8)
    cluster.schedule_failure(down, ("dc0", zone))
    [victim] = [n for n in cluster.nodes if cluster.specs[n].domain[1] == zone]
    while cluster.tick < 60:
        if cluster.tick == back:
            cluster.recover(victim)
        cluster.step()
    cluster.run_to_quiescence()
    return cluster, victim


def _assert_stock_kept(cluster, stock):
    """The clients heard at most `stock` doses accepted, and every live
    replica holds one `vaccine_count`."""
    accepted = sum(cluster.request_payload[mid][0] == "vaccinate"
                   and payload["status"] == "accepted"
                   for box in cluster.responses.values()
                   for mid, payload in box.items())
    assert accepted <= stock
    assert len({node.state.vars["vaccine_count"]
                for nid, node in cluster.nodes.items()
                if cluster.alive[nid]}) == 1


def _assert_answered_and_agreed(cluster, victim):
    """Each request has one fresh response, no request two statuses, the
    replicas that never crashed the same state, at most the three doses in
    stock accepted and one stock on every live replica."""
    fresh, statuses = {}, {}
    for _tick, _client, mid, payload, is_fresh in cluster.response_log:
        fresh[mid] = fresh.get(mid, 0) + is_fresh
        if "status" in payload:
            statuses.setdefault(mid, set()).add(payload["status"])
    assert fresh == dict.fromkeys(cluster.request_payload, 1)
    assert all(len(s) == 1 for s in statuses.values())
    a, b = sorted(n for n in cluster.nodes if n != victim)
    assert cluster.node_state(a) == cluster.node_state(b)
    _assert_stock_kept(cluster, 3)


def _replayed(cluster, victim):
    """The trace after `victim`'s recovery, split at the end of the
    `Applied` events of the records it replayed as it rejoined."""
    [(back_at, _)] = _events(cluster, "Recovered")
    after = cluster.trace[back_at + 1:]
    cut = next((i for i, ev in enumerate(after)
                if (ev.kind, ev.node) != ("Applied", victim)), len(after))
    return after[:cut], after[cut:]


@pytest.mark.parametrize("seed", [28, 35, 42])
def test_a_demoted_sequencer_s_decisions_are_answered_and_shipped(seed):
    """At seed 28 the sequencer n01 is down from tick 5 to tick 10; n02,
    promoted meanwhile, keeps deciding the requests it holds after n01
    takes the role back. Each decision is answered and the other
    replicas, n01 included, apply its record from the log, n01 after the
    records it replayed as it rejoined, so no request waits for an answer
    that never comes and the replicas that never crashed agree."""
    cluster, victim = _vaccinations_across_a_demotion(seed, _DecisionLog)
    assert victim == "n01"
    [back] = [ev.tick for ev in cluster.trace if ev.kind == "Recovered"]
    assert any(d[1] != victim and d[0] >= back for d in cluster.decisions)
    _replay, later = _replayed(cluster, victim)
    assert any((ev.kind, ev.node) == ("Applied", victim) for ev in later)
    _assert_answered_and_agreed(cluster, victim)


def test_every_crash_and_recovery_leaves_each_request_answered():
    for seed in range(100):
        _assert_answered_and_agreed(*_vaccinations_across_a_demotion(seed))


def test_a_recovered_sequencer_decides_on_the_stock_it_replayed():
    """At seed 28 the sequencer n01 is down from tick 5 to 10 while n02,
    promoted, accepts the three doses in stock. n01 rejoins holding the
    three records issued meanwhile, replayed from the commit log and each
    traced `Applied` as it rejoins, and applies each later one, traced
    `Applied`, as n02 appends it. It takes the role back and decides the
    last eleven requests and rejects them all; a node that rejoined with
    the initial stock would accept three more."""
    cluster, victim = _vaccinations_across_a_demotion(28, _DecisionLog)
    assert victim == "n01"
    assert [(ev.tick, ev.kind) for ev in cluster.trace
            if ev.kind in ("Crashed", "Recovered")] == [(5, "Crashed"),
                                                        (10, "Recovered")]
    replay, later = _replayed(cluster, victim)
    assert [ev.detail["seq"] for ev in replay] == [0, 1, 2]
    assert [ev.detail["message_ids"] for ev in replay] == [
        [mid for mid, _ in record] for record in cluster.log["vaccinate"][:3]]
    assert [ev.detail["seq"] for ev in later
            if ev.kind == "Applied" and ev.node == "n01"] == [3, 4]
    assert collections.Counter((d[1], d[3]) for d in cluster.decisions) == {
        ("n02", "accepted"): 3, ("n02", "rejected"): 6,
        ("n01", "rejected"): 11}
    _assert_answered_and_agreed(cluster, victim)


class _DecisionLog(Cluster):
    """Keeps every decision of every node as (tick, node, message id,
    status)."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.decisions = []

    def _serial_results(self, nid, result):
        self.decisions += [(self.tick, nid, mid, status)
                           for mid, status in sorted(result.statuses.items())]
        super()._serial_results(nid, result)


def _sequencer_crash_run(seed, crash_tick):
    """One dose and four requests for it from tick 4, while the zone of
    the sequencer n01 crashes at `crash_tick`; no message is duplicated."""
    program = covid_tracker(coordinated=True, vaccine_count=1).program
    plan = replication_plan(program, make_topology())
    cluster = _DecisionLog(program, plan.nodes, plan.groups, seed=seed,
                           network=NetworkModel(1, 6, 0.0))
    cluster.schedule_request(0, "c1", "add_person",
                             {"pid": 1, "name": "a", "country": "x"})
    for i in range(4):
        cluster.schedule_request(4 + i, f"c{i}", "vaccinate", {"pid": 1})
    cluster.schedule_failure(crash_tick, ("dc0", "az0"))
    cluster.run_to_quiescence()
    return cluster


def _assert_deduplicated_at_the_promoted_node(cluster, mid, status):
    """n01 decided `mid` as `status` in the tick before it crashed, and
    n02 applied n01's record from the log as n01 appended it. Once the run
    is over, the client submits `mid` again, under the same id, and the
    copy goes to n02, the sequencer now: it is traced `Deduplicated` as it
    reaches n02 and answered with the status the log holds. Every request
    is decided once, each has one fresh answer, and `mid` two answers with
    one status."""
    [(decided_at, node, _mid, decided)] = [d for d in cluster.decisions
                                           if d[2] == mid]
    assert (node, decided) == ("n01", status)
    [crash] = [ev.tick for ev in cluster.trace if ev.kind == "Crashed"]
    assert crash == decided_at + 1
    client, (handler, payload) = (cluster.client_of[mid],
                                  cluster.request_payload[mid])
    fields = {k: v for k, v in payload.items() if k != MESSAGE_ID}
    cluster.schedule_request(cluster.tick, client, handler, fields,
                             message_id=mid)
    cluster.run_to_quiescence()
    at_n02 = [(ev.tick, ev.kind)
              for ev in cluster.trace if ev.node == "n02" and mid in
              (ev.detail.get("message_id"), *ev.detail.get("message_ids", ()))]
    [(applied, first), (arrived, then)] = at_n02
    assert (first, then) == ("Applied", "Deduplicated")
    assert applied == decided_at < arrived
    requests = [m for m, (h, _p) in cluster.request_payload.items()
                if h == "vaccinate"]
    assert sorted(d[2] for d in cluster.decisions) == sorted(requests)
    assert any(d[1] == "n02" for d in cluster.decisions)
    fresh = collections.Counter(m for _t, _c, m, _p, is_fresh
                                in cluster.response_log if is_fresh)
    assert fresh == dict.fromkeys(cluster.request_payload, 1)
    answers = collections.Counter(m for _t, _c, m, _p, _f
                                  in cluster.response_log if m in requests)
    assert answers == {m: 1 + (m == mid) for m in requests}
    assert {p["status"] for _t, _c, m, p, _f in cluster.response_log
            if m == mid} == {status}


def test_a_retransmission_of_an_accepted_request_is_deduplicated():
    # n01 accepts m000002 at tick 10 and crashes at 11
    _assert_deduplicated_at_the_promoted_node(_sequencer_crash_run(5, 11),
                                              "m000002", "accepted")


def test_a_request_rejected_before_the_crash_is_not_decided_again():
    # n01 rejects m000005 at tick 11 and crashes at 12
    _assert_deduplicated_at_the_promoted_node(_sequencer_crash_run(1, 12),
                                              "m000005", "rejected")


def _resubmit_sequenced(cluster):
    """Submit every sequenced request again under its own id, as a client
    that restarted and lost track of its answers would, and run to
    quiescence."""
    for mid, (handler, payload) in sorted(cluster.request_payload.items()):
        if cluster.routes[handler].sequenced:
            fields = {k: v for k, v in payload.items() if k != MESSAGE_ID}
            cluster.schedule_request(cluster.tick, cluster.client_of[mid],
                                     handler, fields, message_id=mid)
    cluster.run_to_quiescence()


def test_no_request_is_decided_twice_while_every_worker_crashes():
    """A schedule that at times crashes every worker, after which every
    sequenced request is submitted again under its own id, sends copies of
    decided requests to nodes that rejoined empty after the decision; a
    recovered node replays the commit log, so it holds the status of every
    request that the records issued before it rejoined decided, and each
    sequenced request is decided at most once and answered with one
    status; nor are more than the four doses in stock accepted, and the
    replicas hold one stock."""
    redecided = 0
    for seed in range(40):
        cluster = _crash_and_recover_run(_DecisionLog, seed)
        _resubmit_sequenced(cluster)
        decided = collections.Counter(d[2] for d in cluster.decisions)
        assert all(n == 1 for n in decided.values()), seed
        _assert_stock_kept(cluster, 4)
        statuses = {}
        for _t, _c, mid, payload, _f in cluster.response_log:
            if "status" in payload:
                statuses.setdefault(mid, set()).add(payload["status"])
        assert all(len(v) == 1 for v in statuses.values()), seed
        back = {}
        for ev in cluster.trace:
            if ev.kind == "Recovered":
                back[ev.node] = ev.tick
            elif ev.kind == "Deduplicated" and ev.node in back:
                redecided += any(d[2] == ev.detail["message_id"]
                                 and d[0] < back[ev.node]
                                 for d in cluster.decisions)
    # the schedules send a decided request to a node that rejoined since
    assert redecided


def test_a_request_decided_before_its_whole_group_crashed_is_not_decided_again():
    """n01 accepts m000002 at tick 9 and crashes at 10, and n02 and n03
    at 11. Once the client has the answer, it submits m000002 again under
    its id at 13, when no node is live; n01 rejoins, and the client's
    resend at 39, the first wait of 4 * 6 + 2 ticks later, reaches it.
    n01 replayed the commit log as it rejoined and takes the request as
    decided: it is decided once, and the copy is answered with its
    status."""
    program = covid_tracker(coordinated=True, vaccine_count=3).program
    plan = replication_plan(program, make_topology())
    cluster = _DecisionLog(program, plan.nodes, plan.groups, seed=0,
                           network=NetworkModel(1, 6, 0.0))
    cluster.schedule_request(0, "c1", "add_person",
                             {"pid": 1, "name": "a", "country": "x"})
    mid = cluster.schedule_request(4, "c1", "vaccinate", {"pid": 1})
    while not cluster.decisions:
        cluster.step()
    assert cluster.decisions == [(9, "n01", mid, "accepted")]
    cluster.inject_failure(("dc0", "az0"))
    cluster.step()
    cluster.inject_failure(("dc0",))
    while mid not in cluster.responses["c1"]:
        cluster.step()
    cluster.schedule_request(cluster.tick, "c1", "vaccinate", {"pid": 1},
                             message_id=mid)
    cluster.step()
    cluster.recover("n01")
    cluster.run_to_quiescence()
    assert cluster.decisions == [(9, "n01", mid, "accepted")]
    events = [(ev.tick, ev.kind, ev.node)
              for ev in cluster.trace
              if ev.kind in ("NoLiveReplica", "Retransmitted", "Deduplicated",
                             "GaveUp")
              and ev.detail["message_id"] == mid]
    assert events == [(13, "NoLiveReplica", None),
                      (39, "Retransmitted", "client:c1"),
                      (43, "Deduplicated", "n01")]
    assert client_statuses(cluster) == {mid: "accepted"}
    assert [p["status"] for _t, _c, m, p, _f in cluster.response_log
            if m == mid] == ["accepted", "accepted"]


# --- reads --------------------------------------------------------------------

def test_trace_is_the_only_read_of_the_bundled_patterns():
    assert [(name, mailbox) for name in pattern_names()
            for mailbox, route in sorted(lower(get_pattern(name).program)
                                         .routes.items())
            if route.read] == [("covid_tracker", "trace")]


def test_a_handler_is_a_read_only_when_it_does_nothing_but_reply():
    """A read replies and every desugared statement is a send to its own
    reply mailbox; a handler that writes, sends to a sink, calls a UDF,
    sends no reply or is sequenced is not one."""
    ok = Return(Lit("ok"))
    handlers = {
        "get": (Return(Data("acc")),),
        "get_some": (Return(Data("acc"), when=BinOp(">", Var("x"), Lit(0))),),
        "put": (MergeMutation(TargetPath("acc"), Var("x")), ok),
        "set_n": (Assign(TargetPath("n"), Var("x")), ok),
        "tell": (Send("out", Record(v=Var("x"))), ok),
        "score": (UdfCall("f", (Var("x"),), binder="s"), Return(Var("s"))),
        "quiet": (MergeMutation(TargetPath("acc"), Var("x")),),
    }
    program = Program(
        "reads",
        data=(DataDecl("acc", "var", shape="set"),
              DataDecl("n", "var", scalar="int", init=0)),
        handlers=tuple(Handler(name, {"x": "int"}, body)
                       for name, body in handlers.items())
        # a sequenced request's one reply is its status, so `take` replies
        # though it has no statement
        + (Handler("take", {}, (),
                   consistency=ConsistencySpec("serializable")),),
        udfs=(UdfDecl("f", 1, fn=lambda x: x),),
        sinks=("out",))
    routes = lower(program).routes
    assert {h.name for h in program.handlers if routes[h.name].read} == {
        "get", "get_some"}
    assert routes["take"].replies and routes["put"].replies
    assert not routes["quiet"].replies


def _one_trace(backend="graph", crash_tick=None):
    """Two people in contact, then one `trace` request at tick 8, on
    covid's three replicas n01, n02 and n03 over a network of delays 2 to
    6; n01's zone crashes at `crash_tick` if one is given."""
    cluster = build_scenario_cluster(
        Scenario(covid_tracker().program, seed=1,
                 network=NetworkModel(2, 6, 0.0)), backend=backend)
    for pid in (1, 2):
        cluster.schedule_request(0, "c1", "add_person",
                                 {"pid": pid, "name": str(pid), "country": "x"})
    cluster.schedule_request(1, "c1", "add_contact", {"pid": 1, "contact": 2})
    if crash_tick is not None:
        cluster.schedule_failure(crash_tick, ("dc0", "az0"))
    mid = cluster.schedule_request(8, "c1", "trace", {"pid": 1})
    cluster.run_to_quiescence()
    return cluster, mid


def _hops(cluster, mid):
    return [(ev.tick, ev.kind, ev.node or ev.detail.get("dest"))
            for ev in cluster.trace
            if ev.kind in ("Sent", "Delivered", "Dropped", "Retransmitted")
            and ev.detail.get("message_id") == mid
            and ev.detail.get("mailbox") == "trace"]


@pytest.mark.parametrize("backend", ["graph", "interp"])
def test_a_read_reaches_one_live_replica(backend):
    """A read goes to its group's lowest-numbered live replica alone, which
    answers it once; only that node keeps views of the recursive query it
    reads (the interpreter keeps none)."""
    cluster, mid = _one_trace(backend)
    assert cluster.groups["trace"] == ["n01", "n02", "n03"]
    assert [(kind, node) for _t, kind, node in _hops(cluster, mid)] == [
        ("Sent", "n01"), ("Delivered", "n01")]
    assert [nid for nid, node in sorted(cluster.nodes.items())
            if node.views] == (["n01"] if backend == "graph" else [])
    assert [(p["payload"], fresh) for _t, _c, m, p, fresh
            in cluster.response_log if m == mid] == [(frozenset({2}), True)]


def test_a_read_reaches_the_next_live_replica_after_a_crash():
    cluster, mid = _one_trace(crash_tick=4)
    assert [(kind, node) for _t, kind, node in _hops(cluster, mid)] == [
        ("Sent", "n02"), ("Delivered", "n02")]
    assert [fresh for _t, _c, m, _p, fresh in cluster.response_log
            if m == mid] == [True]


def test_a_read_dropped_by_a_crash_is_answered_once_after_one_resend():
    """The read leaves at tick 8 for n01, which crashes at 9, before any
    delivery, since every delay is at least 2; the client resends it a
    first wait of 4 * 6 + 2 ticks later, to n02, which answers it."""
    cluster, mid = _one_trace(crash_tick=9)
    hops = _hops(cluster, mid)
    assert [(kind, node) for _t, kind, node in hops] == [
        ("Sent", "n01"), ("Dropped", "n01"), ("Retransmitted", "client:c1"),
        ("Sent", "n02"), ("Delivered", "n02")]
    assert hops[2][0] == 8 + 26
    assert [(p["payload"], fresh) for _t, _c, m, p, fresh
            in cluster.response_log if m == mid] == [(frozenset({2}), True)]
