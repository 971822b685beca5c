"""Bundled example programs.

Each pattern couples a Program with a seeded workload generator, a pure
sequential oracle computing the expected observable outcome, and an
`observe` function extracting the same observables from a finished cluster.
Tests compare oracle(workload) against observe(cluster) exactly.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable

from .ir import (
    Assign, AvailSpec, BinOp, ClassDecl, Comp, ConsistencySpec, Data,
    DataDecl, Field, Fold, Gen, Handler, In, Index, Len, Lit, Lookup,
    MakeRow, MergeMutation, MESSAGE_ID, Not, Program, QueryDef, RangeOf,
    Record, Return, Send, Slice, TargetSpec, TupleOf, UdfCall, UdfDecl, Var,
)
from .progjson import register_udf

V = Var
L = Lit


def _eq(a, b):
    return BinOp("==", a, b)


def _ne(a, b):
    return BinOp("!=", a, b)


@dataclass
class PatternProgram:
    name: str
    program: Program
    workload: Callable        # seed -> list of request dicts
    oracle: Callable          # workload -> observable dict
    observe: Callable         # finished Cluster -> observable dict


# --- covid tracker -----------------------------------------------------------

def _covid_predict(symptoms):
    return (symptoms * 37 + 11) % 100


register_udf("covid_predict", _covid_predict)


def covid_program(coordinated: bool = True, vaccine_count: int = 0) -> Program:
    person = ClassDecl(
        "Person",
        {"pid": "int", "name": "str", "country": "str", "contacts": "set",
         "diagnosed": "bool", "vaccinated": "bool", "likelihood": "max"},
        key="pid", partition="country")

    contact_edges = QueryDef(
        "contact_edges", (),
        (Comp(TupleOf(Field(V("p"), "pid"), V("c")),
              (Gen("p", Data("people")), Gen("c", Field(V("p"), "contacts")))),))
    reachable = QueryDef(
        "reachable", (),
        (Comp(TupleOf(V("a"), V("b")), (Gen(("a", "b"), Data("contact_edges")),)),
         Comp(TupleOf(V("a"), V("c")),
              (Gen(("a", "b"), Data("reachable")),
               Gen(("b2", "c"), Data("contact_edges"))),
              (_eq(V("b"), V("b2")),))),
        recursive=True)

    add_person = Handler(
        "add_person", {"pid": "int", "name": "str", "country": "str"},
        (MergeMutation(
            _t("people"),
            MakeRow("Person", pid=V("pid"), name=V("name"), country=V("country"))),
         Return(L("ok"))))

    add_contact = Handler(
        "add_contact", {"pid": "int", "contact": "int"},
        (MergeMutation(_t("people", V("pid"), "contacts"), V("contact")),
         MergeMutation(_t("people", V("contact"), "contacts"), V("pid")),
         Return(L("ok"))))

    trace = Handler(
        "trace", {"pid": "int"},
        (Return(Fold("set", Comp(V("p2"), (Gen(("a", "p2"), Data("reachable")),),
                                 (_eq(V("a"), V("pid")),
                                  _ne(V("p2"), V("pid")))))),))

    diagnose = Handler(
        "diagnose", {"pid": "int"},
        (MergeMutation(_t("people", V("pid"), "diagnosed"), L(True)),
         Send("alert", Comp(Record(person=V("p2")),
                            (Gen(("a", "p2"), Data("reachable")),),
                            (_eq(V("a"), V("pid")), _ne(V("p2"), V("pid"))))),
         Return(L("ok"))))

    estimate = Handler(
        "estimate", {"pid": "int", "symptoms": "int"},
        (UdfCall("covid_predict", (V("symptoms"),), binder="score"),
         MergeMutation(_t("people", V("pid"), "likelihood"), V("score")),
         Return(V("score"))))

    vaccinate = Handler(
        "vaccinate", {"pid": "int"},
        (Assign(_t("vaccine_count"), BinOp("-", Data("vaccine_count"), L(1))),
         # gated so an unknown pid does not conjure a row and thereby
         # satisfy the membership invariant below
         MergeMutation(_t("people", V("pid"), "vaccinated"), L(True),
                       when=In(V("pid"), Comp(Field(V("p"), "pid"),
                                              (Gen("p", Data("people")),))))),
        consistency=ConsistencySpec(
            "serializable" if coordinated else "eventual",
            invariants=(
                BinOp(">=", Data("vaccine_count"), L(0)),
                In(V("pid"), Comp(Field(V("p"), "pid"),
                                  (Gen("p", Data("people")),))))
            if coordinated else ()))

    return Program(
        "covid_tracker",
        classes=(person,),
        data=(DataDecl("people", "table", cls="Person"),
              DataDecl("vaccine_count", "var", scalar="int", init=vaccine_count)),
        queries=(contact_edges, reachable),
        handlers=(add_person, add_contact, trace, diagnose, estimate, vaccinate),
        udfs=(UdfDecl("covid_predict", 1, monotone=True, fn=_covid_predict),),
        sinks=("alert",),
        availability={"default": AvailSpec("az", 2),
                      "estimate": AvailSpec("az", 1)},
        targets={"default": TargetSpec(100.0, 0.01),
                 "estimate": TargetSpec(100.0, 0.1, ("GPU",))},
    )


def _t(data, key=None, field=None):
    from .ir import TargetPath
    return TargetPath(data, key, field)


def covid_workload(seed: int) -> list:
    """Monotone-only workload: people, contacts, estimates, diagnoses."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    out = []
    tick = 0
    for pid in range(1, n + 1):
        out.append({"tick": tick, "client": "c1", "handler": "add_person",
                    "fields": {"pid": pid, "name": f"p{pid}",
                               "country": rng.choice(["ar", "br", "cl"])}})
    for _ in range(rng.randint(2, n + 2)):
        a, b = rng.sample(range(1, n + 1), 2)
        out.append({"tick": rng.randint(1, 3), "client": "c1",
                    "handler": "add_contact",
                    "fields": {"pid": a, "contact": b}})
    for _ in range(rng.randint(1, 2)):
        out.append({"tick": rng.randint(4, 6), "client": "c2",
                    "handler": "estimate",
                    "fields": {"pid": rng.randint(1, n),
                               "symptoms": rng.randint(0, 9)}})
    out.append({"tick": rng.randint(6, 8), "client": "c2",
                "handler": "diagnose", "fields": {"pid": rng.randint(1, n)}})
    return out


def covid_oracle(workload: list) -> dict:
    """Sequential reference: adjacency BFS for alerts, direct table state."""
    people: dict = {}
    contacts: dict = {}
    for req in sorted(workload, key=lambda r: (r["tick"],)):
        h, f = req["handler"], req["fields"]
        if h == "add_person":
            p = people.setdefault(f["pid"], {
                "name": None, "country": None, "diagnosed": False,
                "vaccinated": False, "likelihood": None})
            p["name"], p["country"] = f["name"], f["country"]
        elif h == "add_contact":
            contacts.setdefault(f["pid"], set()).add(f["contact"])
            contacts.setdefault(f["contact"], set()).add(f["pid"])
        elif h == "estimate":
            p = people.get(f["pid"])
            score = _covid_predict(f["symptoms"])
            if p is not None:
                p["likelihood"] = max(p["likelihood"] or 0, score)
        elif h == "diagnose":
            if f["pid"] in people:
                people[f["pid"]]["diagnosed"] = True
    alerts = set()
    for req in workload:
        if req["handler"] != "diagnose":
            continue
        start = req["fields"]["pid"]
        seen = {start}
        frontier = deque([start])
        while frontier:
            x = frontier.popleft()
            for y in contacts.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        alerts |= seen - {start}
    return {
        "alerts": tuple(sorted(alerts)),
        "people": {
            pid: {
                "name": p["name"],
                "contacts": tuple(sorted(contacts.get(pid, set()))),
                "diagnosed": p["diagnosed"],
                "likelihood": p["likelihood"],
            }
            for pid, p in sorted(people.items())
        },
    }


def covid_observe(cluster) -> dict:
    from .lattice import INT_MIN
    nid = min(n for n in cluster.nodes if cluster.alive.get(n))
    tables = cluster.nodes[nid].state.tables
    alerts = {m["person"] for m in cluster.sink_outputs.get("alert", [])}
    people = {}
    for (pid,), row in sorted(tables["people"].items()):
        lk = row.get("likelihood")
        people[pid] = {
            "name": row.get("name"),
            "contacts": tuple(sorted(row.get("contacts", frozenset()))),
            "diagnosed": bool(row.get("diagnosed")),
            "likelihood": None if lk in (None, INT_MIN) else lk,
        }
    return {"alerts": tuple(sorted(alerts)), "people": people}


def covid_tracker(coordinated: bool = True, vaccine_count: int = 0) -> PatternProgram:
    return PatternProgram(
        "covid_tracker",
        covid_program(coordinated=coordinated, vaccine_count=vaccine_count),
        covid_workload, covid_oracle, covid_observe)


# --- actors ------------------------------------------------------------------

def _m_pre(msg):
    return ("pre", msg)


def _m_post(state, newmsg):
    return ("post", state, newmsg)


register_udf("m_pre", _m_pre)
register_udf("m_post", _m_post)


def actors_program() -> Program:
    actor = ClassDecl(
        "Actor", {"actor_id": "str", "state": "opaque", "waiting": "bool"},
        key="actor_id")
    result = ClassDecl(
        "ActorResult", {"actor_id": "str", "value": "opaque"}, key="actor_id")

    actor_ids = Comp(Field(V("a"), "actor_id"), (Gen("a", Data("actors")),))

    spawn = Handler(
        "spawn", {},
        (MergeMutation(_t("actors"),
                       MakeRow("Actor", actor_id=V(MESSAGE_ID))),
         Return(V(MESSAGE_ID))))

    # RPC entry: runs the first half of the method, saves the continuation
    # state, and flips the waiting flag so further work blocks on mybox
    do_m = Handler(
        "do_m", {"actor_id": "str", "msg": "int"},
        (UdfCall("m_pre", (V("msg"),), binder="st"),
         Assign(_t("actors", V("actor_id"), "state"), V("st")),
         Assign(_t("actors", V("actor_id"), "waiting"), L(True))),
        guard=BinOp("and",
                    In(V("actor_id"), actor_ids),
                    Not(Field(Lookup("actors", V("actor_id")), "waiting"))))

    # mid-method receive: only fires while the actor is waiting; other
    # messages stay buffered in the mailbox
    mybox = Handler(
        "mybox", {"actor_id": "str", "newmsg": "int"},
        (UdfCall("m_post",
                 (Field(Lookup("actors", V("actor_id")), "state"), V("newmsg")),
                 binder="res"),
         MergeMutation(_t("results"),
                       MakeRow("ActorResult", actor_id=V("actor_id"),
                               value=V("res"))),
         Assign(_t("actors", V("actor_id"), "waiting"), L(False)),
         Return(V("res"))),
        guard=Field(Lookup("actors", V("actor_id")), "waiting"))

    return Program(
        "actors",
        classes=(actor, result),
        data=(DataDecl("actors", "table", cls="Actor"),
              DataDecl("results", "table", cls="ActorResult")),
        handlers=(spawn, do_m, mybox),
        udfs=(UdfDecl("m_pre", 1, fn=_m_pre), UdfDecl("m_post", 2, fn=_m_post)),
        availability={"default": AvailSpec("az", 0)},
    )


def actors_workload(seed: int) -> list:
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    out = []
    for i in range(k):
        aid = f"actor{i}"
        msg = rng.randint(0, 99)
        newmsg = rng.randint(0, 99)
        out.append({"tick": 0, "client": "c1", "handler": "spawn",
                    "fields": {}, "message_id": aid})
        out.append({"tick": 2, "client": "c1", "handler": "do_m",
                    "fields": {"actor_id": aid, "msg": msg}})
        out.append({"tick": 4, "client": "c1", "handler": "mybox",
                    "fields": {"actor_id": aid, "newmsg": newmsg}})
    return out


def actors_oracle(workload: list) -> dict:
    results = {}
    state = {}
    for req in sorted(workload, key=lambda r: r["tick"]):
        f = req["fields"]
        if req["handler"] == "do_m":
            state[f["actor_id"]] = _m_pre(f["msg"])
        elif req["handler"] == "mybox":
            results[f["actor_id"]] = _m_post(state[f["actor_id"]], f["newmsg"])
    return {"results": dict(sorted(results.items()))}


def actors_observe(cluster) -> dict:
    nid = min(n for n in cluster.nodes if cluster.alive.get(n))
    tables = cluster.nodes[nid].state.tables
    return {"results": {aid: row["value"]
                        for (aid,), row in sorted(tables["results"].items())}}


def actor_patterns() -> PatternProgram:
    return PatternProgram("actors", actors_program(), actors_workload,
                          actors_oracle, actors_observe)


# --- promises / futures ------------------------------------------------------

def _future_fn(x):
    return x * x + 1


register_udf("future_fn", _future_fn)

FUTURE_FANOUT = 4


def futures_program() -> Program:
    future = ClassDecl("Future", {"handle": "int", "result": "max"}, key="handle")

    # eager dispatch: all promises start immediately on the engine role
    kickoff = Handler(
        "kickoff", {},
        (Assign(_t("waiting"), L(True)),
         Send("compute", Comp(Record(handle=V("i"), arg=V("i")),
                              (Gen("i", RangeOf(L(FUTURE_FANOUT))),)))))

    compute = Handler(
        "compute", {"handle": "int", "arg": "int"},
        (UdfCall("future_fn", (V("arg"),), binder="r"),
         Send("fulfill", Record(handle=V("handle"), result=V("r")))),
        role="engine")

    fulfill = Handler(
        "fulfill", {"handle": "int", "result": "int"},
        (MergeMutation(_t("futures"),
                       MakeRow("Future", handle=V("handle"), result=V("result"))),))

    finish = Handler(
        "finish", {},
        (Return(Fold("array_agg",
                     Comp(TupleOf(Field(V("f"), "handle"), Field(V("f"), "result")),
                          (Gen("f", Data("futures")),)))),
         Assign(_t("waiting"), L(False))),
        guard=BinOp(">=",
                    Len(Comp(Field(V("f"), "handle"), (Gen("f", Data("futures")),))),
                    L(FUTURE_FANOUT)))

    return Program(
        "futures",
        classes=(future,),
        data=(DataDecl("futures", "table", cls="Future"),
              DataDecl("waiting", "var", scalar="bool", init=False)),
        handlers=(kickoff, compute, fulfill, finish),
        udfs=(UdfDecl("future_fn", 1, monotone=True, fn=_future_fn),),
        availability={"default": AvailSpec("az", 0)},
    )


def futures_workload(seed: int) -> list:
    return [
        {"tick": 0, "client": "c1", "handler": "kickoff", "fields": {}},
        {"tick": 1, "client": "c1", "handler": "finish", "fields": {}},
    ]


def futures_oracle(workload: list) -> dict:
    return {"result": tuple(_future_fn(i) for i in range(FUTURE_FANOUT))}


def futures_observe(cluster) -> dict:
    for client, box in sorted(cluster.responses.items()):
        for mid, payload in sorted(box.items()):
            if "payload" in payload and isinstance(payload["payload"], tuple):
                return {"result": payload["payload"]}
    return {"result": None}


def futures_pattern() -> PatternProgram:
    return PatternProgram("futures", futures_program(), futures_workload,
                          futures_oracle, futures_observe)


# --- MPI collectives ---------------------------------------------------------

def mpi_program() -> Program:
    agent = ClassDecl("Agent", {"aid": "int"}, key="aid")
    out_row = ClassDecl("OutRow", {"req_id": "int", "aid": "int", "data": "opaque"},
                        key=("req_id", "aid"))
    part = ClassDecl("Part", {"req_id": "int", "ix": "int", "val": "int"},
                     key=("req_id", "ix"))
    vec_part = ClassDecl("VecPart", {"req_id": "int", "src": "int", "arr": "opaque"},
                         key=("req_id", "src"))
    done_row = ClassDecl("DoneRow", {"req_id": "int", "op": "str"},
                         key=("req_id", "op"))

    def part_rows(req):
        return Comp(TupleOf(Field(V("g"), "ix"), Field(V("g"), "val")),
                    (Gen("g", Data("gparts")),),
                    (_eq(Field(V("g"), "req_id"), req),))

    def arrived(req, acount):
        # count of distinct contributor indexes; duplicate-insensitive
        return BinOp(">=",
                     Len(Comp(Field(V("g"), "ix"), (Gen("g", Data("gparts")),),
                              (_eq(Field(V("g"), "req_id"), req),))),
                     acount)

    def not_done(req, op):
        return In(TupleOf(req, L(op)),
                  Comp(TupleOf(Field(V("d"), "req_id"), Field(V("d"), "op")),
                       (Gen("d", Data("done")),)),
                  negated=True)

    def tombstone(op):
        return MergeMutation(
            _t("done"), MakeRow("DoneRow", req_id=V("req_id"), op=L(op)))

    # setup races with requests over the network: anything that iterates the
    # agents table waits until all agents are registered
    agents_ready = BinOp(
        ">=",
        Len(Comp(Field(V("a"), "aid"), (Gen("a", Data("agents")),))),
        V("acount"))

    setup = Handler(
        "setup", {"acount": "int"},
        (MergeMutation(_t("agents"),
                       Comp(MakeRow("Agent", aid=V("i")),
                            (Gen("i", RangeOf(V("acount"))),))),))

    bcast = Handler(
        "bcast", {"req_id": "int", "arr": "opaque", "acount": "int"},
        (MergeMutation(_t("bcast_out"),
                       Comp(MakeRow("OutRow", req_id=V("req_id"),
                                    aid=Field(V("a"), "aid"), data=V("arr")),
                            (Gen("a", Data("agents")),))),),
        guard=agents_ready)

    chunk = BinOp("//", Len(V("arr")), V("acount"))
    scatter = Handler(
        "scatter", {"req_id": "int", "arr": "opaque", "acount": "int"},
        (MergeMutation(
            _t("scatter_out"),
            Comp(MakeRow("OutRow", req_id=V("req_id"), aid=V("i"),
                         data=Slice(V("arr"),
                                    BinOp("*", V("i"), chunk),
                                    BinOp("*", BinOp("+", V("i"), L(1)), chunk))),
                 (Gen("i", RangeOf(V("acount"))),)),
            when=BinOp(">", chunk, L(1))),
         MergeMutation(
            _t("scatter_out"),
            Comp(MakeRow("OutRow", req_id=V("req_id"), aid=V("i"),
                         data=TupleOf(Index(V("arr"), V("i")))),
                 (Gen("i", RangeOf(Len(V("arr")))),)),
            when=BinOp("<=", chunk, L(1)))))

    put = Handler(
        "put", {"req_id": "int", "ix": "int", "val": "int"},
        (MergeMutation(_t("gparts"),
                       MakeRow("Part", req_id=V("req_id"), ix=V("ix"),
                               val=V("val"))),))

    gather = Handler(
        "gather", {"req_id": "int", "acount": "int"},
        (Send("gather_result",
              Record(req_id=V("req_id"),
                     data=Fold("array_agg", part_rows(V("req_id"))))),
         tombstone("gather")),
        guard=BinOp("and", arrived(V("req_id"), V("acount")),
                    not_done(V("req_id"), "gather")))

    reduce = Handler(
        "reduce", {"req_id": "int", "acount": "int"},
        (Send("reduce_result",
              Record(req_id=V("req_id"),
                     value=Fold("sum", part_rows(V("req_id"))))),
         tombstone("reduce")),
        guard=BinOp("and", arrived(V("req_id"), V("acount")),
                    not_done(V("req_id"), "reduce")))

    allgather = Handler(
        "allgather", {"req_id": "int", "acount": "int"},
        (MergeMutation(
            _t("allgather_out"),
            Comp(MakeRow("OutRow", req_id=V("req_id"), aid=Field(V("a"), "aid"),
                         data=Fold("array_agg", part_rows(V("req_id")))),
                 (Gen("a", Data("agents")),))),
         tombstone("allgather")),
        guard=BinOp("and", agents_ready,
                    BinOp("and", arrived(V("req_id"), V("acount")),
                          not_done(V("req_id"), "allgather"))))

    allreduce = Handler(
        "allreduce", {"req_id": "int", "acount": "int"},
        (MergeMutation(
            _t("allreduce_out"),
            Comp(MakeRow("OutRow", req_id=V("req_id"), aid=Field(V("a"), "aid"),
                         data=Fold("sum", part_rows(V("req_id")))),
                 (Gen("a", Data("agents")),))),
         tombstone("allreduce")),
        guard=BinOp("and", agents_ready,
                    BinOp("and", arrived(V("req_id"), V("acount")),
                          not_done(V("req_id"), "allreduce"))))

    vput = Handler(
        "vput", {"req_id": "int", "src": "int", "arr": "opaque"},
        (MergeMutation(_t("vparts"),
                       MakeRow("VecPart", req_id=V("req_id"), src=V("src"),
                               arr=V("arr"))),))

    # alltoall as an n-squared scatter composition: destination d collects
    # element d of every source's vector, ordered by source
    vec_arrived = BinOp(
        ">=",
        Len(Comp(Field(V("v"), "src"), (Gen("v", Data("vparts")),),
                 (_eq(Field(V("v"), "req_id"), V("req_id")),))),
        V("acount"))
    alltoall = Handler(
        "alltoall", {"req_id": "int", "acount": "int"},
        (MergeMutation(
            _t("alltoall_out"),
            Comp(MakeRow(
                "OutRow", req_id=V("req_id"), aid=V("dst"),
                data=Fold("array_agg",
                          Comp(TupleOf(Field(V("v"), "src"),
                                       Index(Field(V("v"), "arr"), V("dst"))),
                               (Gen("v", Data("vparts")),),
                               (_eq(Field(V("v"), "req_id"), V("req_id")),)))),
                 (Gen("dst", RangeOf(V("acount"))),))),
         tombstone("alltoall")),
        guard=BinOp("and", vec_arrived, not_done(V("req_id"), "alltoall")))

    return Program(
        "mpi_collectives",
        classes=(agent, out_row, part, vec_part, done_row),
        data=(DataDecl("agents", "table", cls="Agent"),
              DataDecl("gparts", "table", cls="Part"),
              DataDecl("vparts", "table", cls="VecPart"),
              DataDecl("done", "table", cls="DoneRow"),
              DataDecl("bcast_out", "table", cls="OutRow"),
              DataDecl("scatter_out", "table", cls="OutRow"),
              DataDecl("allgather_out", "table", cls="OutRow"),
              DataDecl("allreduce_out", "table", cls="OutRow"),
              DataDecl("alltoall_out", "table", cls="OutRow")),
        handlers=(setup, bcast, scatter, put, gather, reduce, allgather,
                  allreduce, vput, alltoall),
        sinks=("gather_result", "reduce_result"),
        availability={"default": AvailSpec("az", 0)},
    )


def mpi_workload(seed: int) -> list:
    rng = random.Random(seed)
    acount = rng.choice([2, 3, 4, 8])
    out = [{"tick": 0, "client": "c1", "handler": "setup",
            "fields": {"acount": acount}}]
    arr = tuple(rng.randrange(100) for _ in range(acount * rng.choice([2, 3])))
    out.append({"tick": 1, "client": "c1", "handler": "bcast",
                "fields": {"req_id": 1, "arr": arr, "acount": acount}})
    out.append({"tick": 1, "client": "c1", "handler": "scatter",
                "fields": {"req_id": 2, "arr": arr, "acount": acount}})
    small = tuple(rng.randrange(100) for _ in range(acount))
    out.append({"tick": 1, "client": "c1", "handler": "scatter",
                "fields": {"req_id": 3, "arr": small, "acount": acount}})
    vals = [rng.randrange(100) for _ in range(acount)]
    for req_id in (4, 5, 6, 7):  # gather, reduce, allgather, allreduce
        for i in range(acount):
            out.append({"tick": rng.randint(1, 4), "client": "c1",
                        "handler": "put",
                        "fields": {"req_id": req_id, "ix": i, "val": vals[i]}})
    out.append({"tick": 1, "client": "c1", "handler": "gather",
                "fields": {"req_id": 4, "acount": acount}})
    out.append({"tick": 1, "client": "c1", "handler": "reduce",
                "fields": {"req_id": 5, "acount": acount}})
    out.append({"tick": 1, "client": "c1", "handler": "allgather",
                "fields": {"req_id": 6, "acount": acount}})
    out.append({"tick": 1, "client": "c1", "handler": "allreduce",
                "fields": {"req_id": 7, "acount": acount}})
    vecs = {src: tuple(rng.randrange(100) for _ in range(acount))
            for src in range(acount)}
    for src, vec in vecs.items():
        out.append({"tick": rng.randint(1, 4), "client": "c1",
                    "handler": "vput",
                    "fields": {"req_id": 8, "src": src, "arr": vec}})
    out.append({"tick": 1, "client": "c1", "handler": "alltoall",
                "fields": {"req_id": 8, "acount": acount}})
    return out


def scatter_chunks(arr, acount) -> dict:
    """Reference chunking: even chunks when possible, else one element per
    agent for agents 0..len(arr)-1."""
    chunksz = len(arr) // acount
    if chunksz > 1:
        return {i: tuple(arr[i * chunksz:(i + 1) * chunksz])
                for i in range(acount)}
    return {i: (arr[i],) for i in range(len(arr))}


def mpi_oracle(workload: list) -> dict:
    acount = next(r["fields"]["acount"] for r in workload
                  if r["handler"] == "setup")
    puts: dict = {}
    vputs: dict = {}
    reqs: dict = {}
    for r in workload:
        f = r["fields"]
        if r["handler"] == "put":
            puts.setdefault(f["req_id"], {})[f["ix"]] = f["val"]
        elif r["handler"] == "vput":
            vputs.setdefault(f["req_id"], {})[f["src"]] = f["arr"]
        elif r["handler"] not in ("setup",):
            reqs[r["handler"], f["req_id"]] = f
    out = {"bcast": {}, "scatter": {}, "gather": {}, "reduce": {},
           "allgather": {}, "allreduce": {}, "alltoall": {}}
    for (h, req_id), f in sorted(reqs.items()):
        if h == "bcast":
            for aid in range(acount):
                out["bcast"][(req_id, aid)] = f["arr"]
        elif h == "scatter":
            for aid, chunk in scatter_chunks(f["arr"], f["acount"]).items():
                out["scatter"][(req_id, aid)] = chunk
        elif h == "gather":
            vals = puts[req_id]
            out["gather"][req_id] = tuple(vals[ix] for ix in sorted(vals))
        elif h == "reduce":
            out["reduce"][req_id] = sum(puts[req_id].values())
        elif h == "allgather":
            vals = puts[req_id]
            arrv = tuple(vals[ix] for ix in sorted(vals))
            for aid in range(acount):
                out["allgather"][(req_id, aid)] = arrv
        elif h == "allreduce":
            total = sum(puts[req_id].values())
            for aid in range(acount):
                out["allreduce"][(req_id, aid)] = total
        elif h == "alltoall":
            vecs = vputs[req_id]
            for dst in range(f["acount"]):
                out["alltoall"][(req_id, dst)] = tuple(
                    vecs[src][dst] for src in sorted(vecs))
    return out


def mpi_observe(cluster) -> dict:
    nid = min(n for n in cluster.nodes if cluster.alive.get(n))
    tables = cluster.nodes[nid].state.tables

    def rows(name, field):
        return {(req, aid): row[field]
                for (req, aid), row in sorted(tables[name].items())}

    gather = {m["req_id"]: m["data"]
              for m in cluster.sink_outputs.get("gather_result", [])}
    reduce_ = {m["req_id"]: m["value"]
               for m in cluster.sink_outputs.get("reduce_result", [])}
    return {
        "bcast": rows("bcast_out", "data"),
        "scatter": rows("scatter_out", "data"),
        "gather": gather,
        "reduce": reduce_,
        "allgather": rows("allgather_out", "data"),
        "allreduce": rows("allreduce_out", "data"),
        "alltoall": rows("alltoall_out", "data"),
    }


def mpi_collectives() -> PatternProgram:
    return PatternProgram("mpi_collectives", mpi_program(), mpi_workload,
                          mpi_oracle, mpi_observe)


# --- registry / helpers ------------------------------------------------------

def sample_machines():
    from .planner import MachineType
    return [
        MachineType("small", capacity=1, price=0.0005),
        MachineType("medium", capacity=4, price=0.002),
        MachineType("gpu", capacity=8, price=0.02, features=("GPU",)),
    ]


_PATTERNS = {
    "covid_tracker": covid_tracker,
    "actors": actor_patterns,
    "futures": futures_pattern,
    "mpi_collectives": mpi_collectives,
}


def pattern_names():
    return sorted(_PATTERNS)


def get_pattern(name: str) -> PatternProgram:
    if name not in _PATTERNS:
        raise KeyError(f"unknown pattern {name!r}; "
                       f"available: {', '.join(pattern_names())}")
    return _PATTERNS[name]()


def run_workload(program, workload, seed=0, backend="graph", network=None,
                 trace_path=None):
    """Build a replicated cluster, inject the workload, run to quiescence."""
    from .scenario import Scenario, build_scenario_cluster
    from .sim import NetworkModel
    sc = Scenario(program, seed, network or NetworkModel(1, 3, 0.0),
                  workload=workload, max_ticks=20000)
    cluster = build_scenario_cluster(sc, backend=backend, trace_path=trace_path)
    cluster.run_to_quiescence(max_ticks=sc.max_ticks)
    return cluster
