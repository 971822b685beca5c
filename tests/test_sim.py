"""Deterministic network simulation: delays, duplication, failures."""

import random
from dataclasses import replace

import pytest

from latticeflow.facets import make_topology, replication_plan
from latticeflow.ir import (
    MESSAGE_ID, AvailSpec, DataDecl, Handler, MergeMutation, Program,
    TargetPath, Var,
)
from latticeflow.patterns import covid_tracker, covid_workload, run_workload
from latticeflow.runtime import compile_queries
from latticeflow.scenario import Scenario, build_scenario_cluster
from latticeflow.sim import Cluster, NetworkModel, NoQuiescence, trace_text
from latticeflow.state import FixpointDivergence, Row


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
    # vaccinate routes through its sequencer; when that node dies with the
    # request in flight, the proxy retries against the next live replica
    pat = covid_tracker(vaccine_count=5)
    found = 0
    for seed in range(30):
        cluster = build_scenario_cluster(
            Scenario(pat.program, seed=seed, network=NetworkModel(2, 6, 0.0)))
        cluster.schedule_request(0, "c1", "add_person",
                                 {"pid": 1, "name": "a", "country": "x"})
        cluster.schedule_request(0, "c1", "vaccinate", {"pid": 1})
        cluster.schedule_failure(7, ("dc0", "az0"))
        cluster.run_to_quiescence()
        assert len(cluster.responses.get("c1", {})) == 2
        if any(ev.kind == "Retransmitted" for ev in cluster.trace):
            found += 1
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
    """A recovered node starts its applied prefix at the records issued as
    it rejoins, so it applies the later ones and ends at the sequencer's
    stock, though it missed the person and the doses given before."""
    pat = covid_tracker(coordinated=True, vaccine_count=5)
    cluster = build_scenario_cluster(
        Scenario(pat.program, seed=1, network=NetworkModel(1, 3, 0.0)))
    cluster.schedule_request(0, "c1", "add_person",
                             {"pid": 1, "name": "a", "country": "x"})
    vaccinations(cluster, 3, 1)
    cluster.run_to_quiescence()
    cluster.inject_failure(cluster.specs["n03"].domain)
    vaccinations(cluster, cluster.tick, 1)
    cluster.run_to_quiescence()
    cluster.recover("n03")
    assert cluster.nodes["n03"].applied == {"vaccinate": 2}
    vaccinations(cluster, cluster.tick, 2)
    cluster.run_to_quiescence()
    node = cluster.nodes["n03"]
    assert node.applied == cluster.nodes["n01"].applied == {"vaccinate": 4}
    assert not any(node.held.values())
    assert [cluster.nodes[n].state.vars["vaccine_count"]
            for n in ("n01", "n02", "n03")] == [1, 1, 1]
    assert node.state.tables["people"][(1,)]["vaccinated"] is True


def test_no_commit_record_is_held_after_quiescence():
    """Every message is duplicated, so every record reaches each backup
    twice; the copy below the applied prefix is dropped, not held, and
    leaves no trace event."""
    pat = covid_tracker(coordinated=True, vaccine_count=3)
    cluster = build_scenario_cluster(
        Scenario(pat.program, seed=2, network=NetworkModel(1, 6, 1.0)))
    for pid in (1, 2):
        cluster.schedule_request(0, "c1", "add_person",
                                 {"pid": pid, "name": "a", "country": "x"})
    vaccinations(cluster, 4, 5)
    cluster.run_to_quiescence()
    assert cluster._commit_seq == {"vaccinate": 3}
    ordered = [ev.detail["ordered"] for ev in cluster.trace
               if ev.kind == "Delivered" and "ordered" in ev.detail]
    assert sorted(ordered) == [0, 0, 1, 1, 2, 2]
    for node in cluster.nodes.values():
        assert node.applied == {"vaccinate": 3}
        assert not any(node.held.values())


def test_a_tick_that_only_applies_commit_records_is_active():
    """A record applied as it is delivered is the node's work in that tick,
    so the tick is active and the idle fast-forward does not skip the
    next one."""
    pat = covid_tracker(coordinated=True, vaccine_count=5)
    cluster = build_scenario_cluster(
        Scenario(pat.program, seed=0, network=NetworkModel(1, 6, 0.0)))
    cluster.schedule_request(0, "c1", "add_person",
                             {"pid": 1, "name": "a", "country": "x"})
    vaccinations(cluster, 8, 1)
    cluster.run_to_quiescence()
    ticks = {}
    for ev in cluster.trace:
        ticks.setdefault(ev.tick, []).append(ev)
    applying = [evs[-1] for evs in ticks.values()
                if all("ordered" in ev.detail for ev in evs[:-1])
                and len(evs) > 1]
    assert applying
    assert all(ev.kind == "TickCompleted" and ev.detail["active"]
               for ev in applying)


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


def test_recovered_node_keeps_the_round_cap():
    program = covid_tracker().program
    plan = replication_plan(program, make_topology())
    cluster = Cluster(program, plan.nodes, plan.groups, proxies=plan.proxies,
                      max_rounds=3)
    victim = sorted(cluster.nodes)[0]
    cluster.inject_failure(cluster.specs[victim].domain)
    cluster.recover(victim)
    node = cluster.nodes[victim]
    assert node.max_rounds == 3
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


def _orphaned_then_recovered(handler, fields):
    """A request whose every recipient crashes before the proxy's forward
    arrives must be sent again, to n02 alone, once n02 recovers."""
    cluster = build_scenario_cluster(Scenario(
        covid_tracker().program, seed=1,
        network=NetworkModel(3, 3, 0.0)))
    mid = cluster.schedule_request(0, "c1", handler, fields)
    # the proxy forwards at tick 3; every replica crashes before delivery
    for az in ("az0", "az1", "az2"):
        cluster.schedule_failure(4, ("dc0", az))
    for _ in range(9):
        cluster.step()
    [(lost_at, lost)] = _events(cluster, "NoLiveReplica")
    assert (lost.tick, lost.detail["message_id"]) == (4, mid)
    cluster.recover("n02")
    cluster.run_to_quiescence()
    [(recovered_at, _)] = _events(cluster, "Recovered")
    [(retried_at, retried)] = _events(cluster, "Retransmitted")
    assert lost_at < recovered_at < retried_at
    assert retried.detail == {"mailbox": handler, "message_id": mid,
                              "dests": ["n02"]}
    fresh = [m for (_t, _c, m, _p, is_fresh) in cluster.response_log
             if is_fresh]
    assert fresh == [mid]


def test_a_request_orphaned_by_crashes_is_retransmitted_after_recovery():
    # the sequencer n01 is the only recipient
    _orphaned_then_recovered("vaccinate", {"pid": 1})


def test_a_request_is_retransmitted_to_a_recipient_that_crashed_and_recovered():
    # all three replicas are recipients, n02 among them; it recovers empty
    _orphaned_then_recovered("add_person",
                             {"pid": 1, "name": "a", "country": "x"})


class _FullScanCluster(Cluster):
    """Checks every pending request on every tick, as the proxy once did."""

    def _proxy_retry(self, nid):
        st = self.proxy_state[nid]
        active = False
        for mid in sorted(st.pending):
            if self._retry_entry(nid, mid, st.pending[mid]):
                active = True
        return active


def _crash_and_recover_run(cls, seed):
    rng = random.Random(seed)
    program = covid_tracker(vaccine_count=4).program
    plan = replication_plan(program, make_topology())
    cluster = cls(program, plan.nodes, plan.groups, proxies=plan.proxies,
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


def test_narrowed_proxy_retries_match_a_full_scan():
    kinds = {"NoLiveReplica": 0, "Retransmitted": 0, "Recovered": 0}
    for seed in range(12):
        narrowed = _crash_and_recover_run(Cluster, seed)
        full = _crash_and_recover_run(_FullScanCluster, seed)
        assert trace_text(narrowed) == trace_text(full), seed
        for ev in narrowed.trace:
            if ev.kind in kinds:
                kinds[ev.kind] += 1
    # the schedules exercise every path the narrowing skips work on
    assert all(kinds.values()), kinds
