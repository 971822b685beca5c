"""Benchmark workloads: seeded input generators, set-up, the timed phase and
the correctness gates.

Every workload is a class with the same four steps:

- ``inputs(seed)`` makes the inputs from the seed alone. The program under
  test receives only these inputs.
- ``setup(inputs)`` does everything before the first tick or query:
  program construction, ``ir.validate``, ``calm_report``, ``stratify``,
  ``lower``, ``solve`` on ``sample_machines()``, and the cluster or context
  build with its inputs loaded.
- ``run(built)`` is the timed phase. It returns the wall seconds it took
  and the work it completed.
- ``check(inputs, built, done)`` judges the finished run against a
  reference that lives here or is a sequential model. It never raises on a
  program defect; it returns counts and problem strings.

The simulated workloads go through ``scenario.load_scenario`` and
``scenario.build_scenario_cluster``, the path ``latticeflow simulate``
takes, and time ``Cluster.run_to_quiescence`` on its own. The simulator runs
an open loop on its simulated clock: each request is injected at its
scheduled tick whatever the replies.
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections import deque

from latticeflow.analysis import calm_report, stratify
from latticeflow.interp import InterpContext
from latticeflow.ir import (
    BinOp, ClassDecl, Comp, Data, DataDecl, Field, Gen, Handler, Lit,
    MakeRow, MergeMutation, Program, QueryDef, Return, TargetPath, TupleOf,
    Var, validate,
)
from latticeflow.lowering import lower
from latticeflow.patterns import covid_oracle, covid_program, sample_machines
from latticeflow.planner import solve
from latticeflow.runtime import GraphContext, compile_queries
from latticeflow.scenario import build_scenario_cluster, load_scenario
from latticeflow.state import NodeState, Row, canonical_state


class SetupError(Exception):
    """The program or scenario was rejected before the first tick."""


def analyze(program: Program):
    """The static checks every workload pays for before it runs."""
    report = validate(program)
    if not report.ok:
        raise SetupError("validation failed: "
                         + "; ".join(f"{e.code}: {e.message}" for e in report))
    calm_report(program)
    stratify(program)
    lower(program)
    solve(program, sample_machines())


# Graph shapes (the contact trees, the closure graphs) are drawn once from
# this fixed seed and the workload seed relabels their nodes, so the work a
# run does does not depend on the seed while every label, hash and sort order
# does. A fresh random graph per seed changes the depth and size of the
# recursive queries, and with them the run time: fresh contact trees per
# seed moved monotone_reads' rate by 8% between seeds.
STRUCTURE_SEED = 0


def relabel(rng: random.Random, n: int) -> list:
    """A seeded bijection from shape positions 0..n-1 to labels."""
    labels = list(range(n))
    rng.shuffle(labels)
    return labels


# --- simulated covid workloads ------------------------------------------------

COUNTRIES = ("ar", "br", "cl", "de", "fr", "in", "jp", "ke")

def outbreak_contacts(rng: random.Random, people: int, contacts: int,
                      clusters: int) -> list:
    """Contacts that grow `clusters` random trees over people 1..`people`.

    Each contact links a person not yet in contact with anyone to a random
    member of one cluster, taking the clusters in turn. The reachable set
    then grows smoothly, by one person per contact, so when a contact
    reaches a replica shifts the cost of a read only a little; merging two
    large components would make it jump."""
    fresh = list(range(1, people + 1))
    rng.shuffle(fresh)
    members = [[fresh.pop()] for _ in range(clusters)]
    out = []
    for i in range(contacts):
        tree = members[i % clusters]
        new = fresh.pop()
        out.append((new, rng.choice(tree)))
        tree.append(new)
    return out


class _Simulated:
    """A covid_tracker scenario run to quiescence on the simulator."""

    name = ""
    params: dict = {}

    def setup(self, inputs: dict):
        program = covid_program(coordinated=True,
                                vaccine_count=inputs["vaccine_count"])
        analyze(program)
        sc = load_scenario(inputs["scenario"])
        # An inline program in a scenario file does not load (load_program
        # hands a dict to program_from_json, which wants text), so the
        # scenario names the bundled pattern and the program built with this
        # workload's parameters replaces it.
        sc = dataclasses.replace(sc, program=program)
        return sc, build_scenario_cluster(sc)

    def run(self, built) -> tuple:
        sc, cluster = built
        t0 = time.perf_counter()
        try:
            cluster.run_to_quiescence(max_ticks=sc.max_ticks)
        finally:
            cluster.close()
        wall = time.perf_counter() - t0
        return wall, {"requests": fresh_responses(cluster)}

    def sizes(self, inputs: dict) -> dict:
        counts = {}
        for req in inputs["scenario"]["workload"]:
            counts[req["mailbox"]] = counts.get(req["mailbox"], 0) + 1
        return {"requests": len(inputs["scenario"]["workload"]),
                "by_handler": dict(sorted(counts.items()))}

    def sim_counts(self, built) -> dict:
        """Simulated counts; they repeat exactly for a given seed."""
        _sc, cluster = built
        return sim_counts(cluster)


def fresh_responses(cluster) -> int:
    return sum(1 for *_rest, fresh in cluster.response_log if fresh)


def _scenario(seed, network, workload, failures=(), max_ticks=20000) -> dict:
    return {
        "program": "covid_tracker",
        "seed": seed,
        "network": network,
        "workload": workload,
        "failures": [{"tick": t, "domain": list(d)} for t, d in failures],
        "max_ticks": max_ticks,
    }


def _request(tick, client, mailbox, payload) -> dict:
    return {"tick": tick, "client": client, "mailbox": mailbox,
            "payload": payload}


class MonotoneReads(_Simulated):
    name = "monotone_reads"
    params = {
        "program": "covid_tracker()",
        "topology": "make_topology(): 3 AZs, 3 replicas plus a proxy",
        "network": {"delay_min": 1, "delay_max": 3, "dup_prob": 0.1},
        "people": 160, "contacts": 70, "clusters": 2, "trace_every": 2,
        "per_tick": 5, "clients": 2,
    }

    def inputs(self, seed: int) -> dict:
        p = self.params
        shape = random.Random(f"{self.name}:{STRUCTURE_SEED}")
        contacts = outbreak_contacts(shape, p["people"], p["contacts"],
                                     p["clusters"])
        diagnosed = shape.choice(contacts)[0]
        rng = random.Random(f"{self.name}:{seed}")
        pid = {i + 1: label + 1
               for i, label in enumerate(relabel(rng, p["people"]))}
        contacts = [(pid[a], pid[b]) for a, b in contacts]
        diagnosed = pid[diagnosed]
        reqs = []
        for i in range(1, p["people"] + 1):
            reqs.append(("add_person", {"pid": i, "name": f"p{i}",
                                        "country": rng.choice(COUNTRIES)}))
        for i, (a, b) in enumerate(contacts, 1):
            reqs.append(("add_contact", {"pid": a, "contact": b}))
            if i % p["trace_every"] == 0:
                reqs.append(("trace", {"pid": a}))
        workload = [_request(i // p["per_tick"], f"c{i % p['clients'] + 1}",
                             mailbox, payload)
                    for i, (mailbox, payload) in enumerate(reqs)]
        # the diagnose waits until every contact has reached every replica
        # (two hops of at most delay_max ticks each), so the alerts it sends
        # are fully determined by the final contact graph
        settle = workload[-1]["tick"] + 2 * p["network"]["delay_max"] + 1
        workload.append(_request(settle, "c1", "diagnose",
                                 {"pid": diagnosed}))
        return {"vaccine_count": 0,
                "scenario": _scenario(seed, p["network"], workload)}

    def check(self, inputs: dict, built, done: dict) -> dict:
        _sc, cluster = built
        workload = [{"tick": r["tick"], "handler": r["mailbox"],
                     "fields": r["payload"]}
                    for r in inputs["scenario"]["workload"]]
        expected = covid_oracle(workload)
        problems = []
        for nid in sorted(cluster.nodes):
            if not cluster.alive.get(nid):
                continue
            got = replica_people(cluster, nid)
            if got != expected["people"]:
                bad = sorted(k for k in set(got) | set(expected["people"])
                             if got.get(k) != expected["people"].get(k))
                problems.append(f"replica {nid} differs from covid_oracle "
                                f"on people {bad[:5]}")
        alerts = tuple(sorted({m["person"] for m in
                               cluster.sink_outputs.get("alert", [])}))
        if alerts != expected["alerts"]:
            problems.append(f"alerts {len(alerts)} differ from covid_oracle "
                            f"{len(expected['alerts'])}")
        failed = unanswered(cluster, problems)
        # reads of a monotone query may lag but never exceed the final graph
        reach = final_reachability(workload)
        for mid, payload in first_responses(cluster).items():
            handler, req = cluster.request_payload[mid]
            if handler != "trace":
                continue
            answer = payload["payload"]
            allowed = reach.get(req["pid"], frozenset()) - {req["pid"]}
            if not answer <= allowed:
                failed += 1
                problems.append(f"trace {mid} for pid {req['pid']} returned "
                                f"{sorted(answer - allowed)[:5]} beyond the "
                                f"final reachable set")
        return {"attempted": len(cluster.request_payload), "failed": failed,
                "problems": problems,
                "divergent_replicas": divergent_replicas(cluster)}


class SequencedFailover(_Simulated):
    name = "sequenced_failover"
    params = {
        "program": "covid_tracker(coordinated=True, vaccine_count=700)",
        "topology": "make_topology(): 3 AZs, 3 replicas plus a proxy",
        "network": {"delay_min": 1, "delay_max": 6, "dup_prob": 0.2},
        "vaccine_count": 700, "people": 50, "person_ticks": 3,
        "vaccinate": 1500, "vaccinate_from_tick": 7, "per_tick": 4,
        "clients": 8, "max_pid": 55,
        "crash": {"tick": 150, "domain": ["dc0", "az0"]},
    }

    def inputs(self, seed: int) -> dict:
        p = self.params
        rng = random.Random(f"{self.name}:{seed}")
        workload = []
        for pid in range(1, p["people"] + 1):
            workload.append(_request(
                (pid - 1) * p["person_ticks"] // p["people"], "c0",
                "add_person", {"pid": pid, "name": f"p{pid}",
                               "country": rng.choice(COUNTRIES)}))
        for i in range(p["vaccinate"]):
            workload.append(_request(
                p["vaccinate_from_tick"] + i // p["per_tick"],
                f"c{i % p['clients']}", "vaccinate",
                {"pid": rng.randint(1, p["max_pid"])}))
        crash = (p["crash"]["tick"], tuple(p["crash"]["domain"]))
        return {"vaccine_count": p["vaccine_count"],
                "scenario": _scenario(seed, p["network"], workload, [crash])}

    def check(self, inputs: dict, built, done: dict) -> dict:
        """Serial model: at most vaccine_count accepted, only known pids
        accepted, every request answered. Violations are failed operations;
        they do not abort the run."""
        _sc, cluster = built
        problems = []
        failed = unanswered(cluster, problems)
        known = {r["payload"]["pid"] for r in inputs["scenario"]["workload"]
                 if r["mailbox"] == "add_person"}
        accepted = 0
        for mid, payload in sorted(first_responses(cluster).items()):
            handler, req = cluster.request_payload[mid]
            if handler != "vaccinate" or payload.get("status") != "accepted":
                continue
            accepted += 1
            if req["pid"] not in known:
                failed += 1
                problems.append(f"{mid}: accepted unknown pid {req['pid']}")
        over = accepted - inputs["vaccine_count"]
        if over > 0:
            failed += over
            problems.append(f"{accepted} doses accepted, stock was "
                            f"{inputs['vaccine_count']}")
        return {"attempted": len(cluster.request_payload), "failed": failed,
                "problems": problems, "accepted": accepted,
                "divergent_replicas": divergent_replicas(cluster)}


def first_responses(cluster) -> dict:
    out = {}
    for box in cluster.responses.values():
        out.update(box)
    return out


def unanswered(cluster, problems: list) -> int:
    """Requests without exactly one fresh response."""
    fresh = {}
    for _tick, _client, mid, _payload, is_fresh in cluster.response_log:
        if is_fresh:
            fresh[mid] = fresh.get(mid, 0) + 1
    bad = sorted(m for m in cluster.request_payload if fresh.get(m) != 1)
    if bad:
        problems.append(f"{len(bad)} requests without exactly one fresh "
                        f"response, first {bad[:5]}")
    return len(bad)


def replica_people(cluster, nid: str) -> dict:
    """The observables covid_oracle predicts, read from one replica."""
    from latticeflow.lattice import INT_MIN
    people = {}
    for (pid,), row in sorted(cluster.nodes[nid].state.tables["people"].items()):
        lk = row.get("likelihood")
        people[pid] = {
            "name": row.get("name"),
            "contacts": tuple(sorted(row.get("contacts", frozenset()))),
            "diagnosed": bool(row.get("diagnosed")),
            "likelihood": None if lk in (None, INT_MIN) else lk,
        }
    return people


def final_reachability(workload: list) -> dict:
    """pid -> every pid reachable over the final contact graph (BFS)."""
    adj = {}
    for req in workload:
        if req["handler"] == "add_contact":
            a, b = req["fields"]["pid"], req["fields"]["contact"]
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    out = {}
    for start in adj:
        seen = set()
        frontier = deque([start])
        while frontier:
            x = frontier.popleft()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        out[start] = frozenset(seen)
    return out


def divergent_replicas(cluster) -> int:
    """Live replicas whose tables and vars differ from the lowest live one."""
    live = [n for n in sorted(cluster.nodes) if cluster.alive.get(n)]
    states = [canonical_state(cluster.nodes[n].state, include_mailboxes=False)
              for n in live]
    return sum(1 for s in states[1:] if s != states[0])


def sim_counts(cluster) -> dict:
    kinds = {}
    for ev in cluster.trace:
        kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
    injected = {ev.detail["message_id"]: ev.tick for ev in cluster.trace
                if ev.kind == "Injected"}
    latencies = sorted(tick - injected[mid] for tick, _c, mid, _p, fresh
                       in cluster.response_log if fresh and mid in injected)
    return {
        "ticks": cluster.tick,
        "messages_sent": kinds.get("Sent", 0),
        "duplicated": kinds.get("Duplicated", 0),
        "deduplicated": kinds.get("Deduplicated", 0),
        "dropped": kinds.get("Dropped", 0),
        "retransmitted": kinds.get("Retransmitted", 0),
        "no_live_replica": kinds.get("NoLiveReplica", 0),
        "trace_events": len(cluster.trace),
        "requests": len(cluster.request_payload),
        "latency_ticks": latencies,
    }


# --- transitive closure on one node -------------------------------------------

def closure_program() -> Program:
    """An ``edges`` table, a ``links`` query over it and a recursive ``tc``."""
    edge = ClassDecl("Edge", {"a": "int", "b": "int"}, key=("a", "b"))
    links = QueryDef(
        "links", (),
        (Comp(TupleOf(Field(Var("e"), "a"), Field(Var("e"), "b")),
              (Gen("e", Data("edges")),)),))
    tc = QueryDef(
        "tc", (),
        (Comp(TupleOf(Var("a"), Var("b")), (Gen(("a", "b"), Data("links")),)),
         Comp(TupleOf(Var("a"), Var("c")),
              (Gen(("a", "b"), Data("tc")), Gen(("b2", "c"), Data("links"))),
              (BinOp("==", Var("b"), Var("b2")),))),
        recursive=True)
    add_edge = Handler(
        "add_edge", {"a": "int", "b": "int"},
        (MergeMutation(TargetPath("edges"),
                       MakeRow("Edge", a=Var("a"), b=Var("b"))),
         Return(Lit("ok"))))
    return Program("closure", classes=(edge,),
                   data=(DataDecl("edges", "table", cls="Edge"),),
                   queries=(links, tc), handlers=(add_edge,))


def random_graph(rng: random.Random, nodes: int, edges: int) -> list:
    """`edges` distinct directed edges without self loops."""
    out = set()
    while len(out) < edges:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            out.add((a, b))
    return sorted(out)


def bfs_closure(edges) -> frozenset:
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
    out = set()
    for start in adj:
        seen = set()
        frontier = deque([start])
        while frontier:
            x = frontier.popleft()
            for y in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        out.update((start, y) for y in seen)
    return frozenset(out)


def _loaded_snapshot(program: Program, edges):
    st = NodeState(program)
    st.tables["edges"] = {(a, b): Row(a=a, b=b) for a, b in edges}
    return st.snapshot()


class Closure:
    """Transitive closure on a single node, with no simulator.

    The graph backend evaluates ``tc`` on a wide, shallow random graph and on
    a deep, narrow chain; the interpreter oracle evaluates it on a small
    random graph, which the graph backend also evaluates, untimed, so that
    both backends are checked on it."""

    name = "closure"
    params = {
        "random": {"nodes": 360, "edges": 720},
        "chain": {"nodes": 250},
        "oracle": {"nodes": 30, "edges": 60},
    }
    GRAPH_PARTS = ("random", "chain")

    def inputs(self, seed: int) -> dict:
        p = self.params
        shape = random.Random(f"{self.name}:{STRUCTURE_SEED}")
        shapes = {
            "random": random_graph(shape, p["random"]["nodes"],
                                   p["random"]["edges"]),
            "chain": [(i, i + 1) for i in range(p["chain"]["nodes"] - 1)],
            "oracle": random_graph(shape, p["oracle"]["nodes"],
                                   p["oracle"]["edges"]),
        }
        rng = random.Random(f"{self.name}:{seed}")
        out = {}
        for part, edges in shapes.items():
            label = relabel(rng, p[part]["nodes"])
            out[part] = sorted((label[a], label[b]) for a, b in edges)
        return out

    def sizes(self, inputs: dict) -> dict:
        return {part: {"edges": len(edges)} for part, edges in inputs.items()}

    def setup(self, inputs: dict):
        program = closure_program()
        analyze(program)
        compiled = compile_queries(program)
        graph = {part: GraphContext(program,
                                    _loaded_snapshot(program, inputs[part]),
                                    compiled)
                 for part in self.GRAPH_PARTS + ("oracle",)}
        oracle = InterpContext(program, _loaded_snapshot(program,
                                                         inputs["oracle"]))
        return graph, oracle

    def run(self, built) -> tuple:
        graph, oracle = built
        facts, seconds = {}, {}
        for part in self.GRAPH_PARTS:
            t0 = time.perf_counter()
            facts[part] = graph[part].query_value("tc")
            seconds[part] = time.perf_counter() - t0
        t0 = time.perf_counter()
        facts["interp"] = oracle.query_value("tc")
        seconds["interp"] = time.perf_counter() - t0
        wall = sum(seconds.values())
        graph_s = sum(seconds[p] for p in self.GRAPH_PARTS)
        graph_facts = sum(len(facts[p]) for p in self.GRAPH_PARTS)
        return wall, {
            "requests": len(facts),
            "facts": {p: len(v) for p, v in facts.items()},
            "facts_per_s": graph_facts / graph_s,
            "oracle_facts_per_s": len(facts["interp"]) / seconds["interp"],
            "values": facts,
        }

    def check(self, inputs: dict, built, done: dict) -> dict:
        graph, _oracle = built
        values = dict(done["values"])
        values["graph:oracle"] = graph["oracle"].query_value("tc")
        expect = {"random": bfs_closure(inputs["random"]),
                  "chain": bfs_closure(inputs["chain"]),
                  "interp": bfs_closure(inputs["oracle"])}
        expect["graph:oracle"] = expect["interp"]
        problems = [f"tc on {part} has {len(values[part])} facts, BFS gives "
                    f"{len(want)}"
                    for part, want in expect.items() if values[part] != want]
        return {"attempted": len(expect), "failed": len(problems),
                "problems": problems, "divergent_replicas": 0}


WORKLOADS = {w.name: w for w in (MonotoneReads(), SequencedFailover(),
                                 Closure())}
