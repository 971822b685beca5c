"""Shared builders: a transitive-closure program, a program that validates
but does not lower, the handler loops and query bodies that validation
refuses, a handler with an invariant at a chosen consistency, random
graphs, a breadth-first-search reachability oracle, a one-node cluster,
the statuses that a cluster's clients heard, the demo scenario's path,
each lattice shape's order, and a strategy drawing every plain value."""

import collections
import random
from pathlib import Path

from hypothesis import strategies as st

from latticeflow.interp import InterpContext
from latticeflow.ir import (
    BinOp, ClassDecl, Comp, ConsistencySpec, Data, DataDecl, Field, ForEach,
    Gen, Handler, In, Len, Lit, MakeRow, MergeMutation, Not, Program,
    QueryDef, Return, TargetPath, TupleOf, Var,
)
from latticeflow.lattice import order_key
from latticeflow.runtime import GraphContext, compile_queries
from latticeflow.sim import Cluster, NetworkModel, NodeSpec
from latticeflow.state import NodeState, Row

DEMO = Path(__file__).resolve().parent.parent / "demos" / "covid_scenario.json"


def closure_program() -> Program:
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
    return Program(
        "closure",
        classes=(edge,),
        data=(DataDecl("edges", "table", cls="Edge"),),
        queries=(links, tc),
        handlers=(add_edge,))


def unlowerable_program(case: str) -> Program:
    """A program whose recursive query `r` validates but does not lower,
    one for each `case` (see `runtime.compile_queries`):
    - ``negated-self``: `r` keeps the elements of `acc`, and of `r` itself
      those not in `r`. That is a negative edge inside a recursive group,
      which stratification refuses;
    - ``negated-base-var``: the same, with those not in the base var
      `blocked`. That is no edge between queries, and only the
      classification of the recursive rule's body refuses it;
    - ``member-read``: `r` keeps the elements of `acc` below 2, and each
      `x` of `acc` with `x - 1` in `r`. The rule reads `r` by membership,
      not by a generator of its own, which a delta pass never feeds.
    Handler `put` merges into `acc`, and `get` returns `r`."""
    x, acc = Var("x"), Data("acc")
    if case == "member-read":
        rules = (Comp(x, (Gen("x", acc),), (BinOp("<", x, Lit(2)),)),
                 Comp(x, (Gen("x", acc),),
                      (In(BinOp("-", x, Lit(1)), Data("r")),)))
    else:
        negated = {"negated-self": "r", "negated-base-var": "blocked"}[case]
        rules = (Comp(x, (Gen("x", acc),)),
                 Comp(x, (Gen("x", Data("r")),),
                      (Not(In(x, Data(negated))),)))
    return Program(
        "unlowerable",
        data=(DataDecl("acc", "var", shape="set"),
              DataDecl("blocked", "var", shape="set")),
        queries=(QueryDef("r", (), rules, recursive=True),),
        handlers=(Handler("put", {"x": "int"},
                          (MergeMutation(TargetPath("acc"), x),)),
                  Handler("get", {}, (Return(Data("r")),))))


def capped_set_program(level: str) -> Program:
    """One set var `s` and one handler `add` at consistency `level`, which
    merges `x` into `s` under the invariant `len(s) <= 2`."""
    cap = BinOp("<=", Len(Data("s")), Lit(2))
    return Program(
        "capped",
        data=(DataDecl("s", "var", shape="set"),),
        handlers=(Handler("add", {"x": "int"},
                          (MergeMutation(TargetPath("s"), Var("x")),),
                          consistency=ConsistencySpec(level, (cap,))),))


def random_edges(rng: random.Random, max_nodes=50, density=0.08):
    n = rng.randint(2, max_nodes)
    edges = set()
    for _ in range(int(n * n * density) + 1):
        edges.add((rng.randrange(n), rng.randrange(n)))
    return sorted(edges)


def bfs_closure(edges) -> frozenset:
    """Reachability pairs by breadth-first search from every node."""
    adj = {}
    nodes = set()
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        nodes.update((a, b))
    out = set()
    for start in nodes:
        seen = set()
        frontier = [start]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj.get(x, ()):
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        out.update((start, y) for y in seen)
    return frozenset(out)


def loaded_state(program: Program, edges) -> NodeState:
    st = NodeState(program)
    st.tables["edges"] = {(a, b): Row(a=a, b=b) for a, b in edges}
    return st


def closure_contexts(edges):
    """(interp_ctx, graph_ctx) over the same loaded snapshot."""
    p = closure_program()
    snap = loaded_state(p, edges).snapshot()
    return (InterpContext(p, snap),
            GraphContext(p, snap, compile_queries(p)))


def one_node_cluster(program: Program, backend: str = "graph") -> Cluster:
    """A cluster of one worker, ``n1``, hosting every handler, on a network
    that delivers each message one tick after it is sent."""
    return Cluster(program, [NodeSpec("n1")],
                   {h.name: ["n1"] for h in program.handlers},
                   network=NetworkModel(1, 1), backend=backend)


def client_statuses(cluster, handler: str = "vaccinate") -> dict:
    """The status of each request of `handler`, from its client's first
    fresh response; asserts that every request has exactly one fresh
    response."""
    fresh = collections.Counter(
        mid for _t, _c, mid, _p, is_fresh in cluster.response_log if is_fresh)
    assert fresh == dict.fromkeys(cluster.request_payload, 1)
    return {mid: cluster.responses[cluster.client_of[mid]][mid]["status"]
            for mid, (h, _payload) in cluster.request_payload.items()
            if h == handler}


def loop_program(*body):
    """A handler `put` with `body`, beside a handler `other` and a set var
    `acc`."""
    return Program(
        "loops", data=(DataDecl("acc", "var", shape="set"),),
        handlers=(Handler("put", {"x": "int"}, body),
                  Handler("other", {"x": "int"}, (MergeMutation(
                      TargetPath("acc"), Var("x")),))))


def merge_field(binder):
    return MergeMutation(TargetPath("acc"), Field(Var(binder), "x"))


# a loop over the handler's own mailbox validated and ran; one nested in it
# read the whole snapshot mailbox, messages the guard rejected included; one
# over another mailbox validated, then `analyze` raised a TypeError
LOOPS = {
    "top-level": ForEach("put", "m", (merge_field("m"),)),
    "nested": ForEach("put", "m", (ForEach("put", "n", (merge_field("n"),)),)),
    "other-mailbox": ForEach("other", "m", (merge_field("m"),)),
}


# the graph backend read a bare `Data` body as one fact, the set, and the
# interpreter as the set's elements
BARE_BODIES = {"data": Data("acc"), "tuple": TupleOf(Lit(1), Lit(2))}


# every plain value: None, scalars, and tuples, frozensets and rows of them
ORDERED_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3).map(tuple)
                   | st.frozensets(inner, max_size=3)
                   | st.dictionaries(st.sampled_from("abc"), inner,
                                     max_size=3).map(Row)),
    max_leaves=12)


def below(shape, a, b) -> bool:
    """Whether lattice value `a` is at or below `b` in the order of
    `shape`, defined from what each shape means rather than by
    `lattice.join`: a write-once value is above None, and of two that
    differ the larger by `order_key` is above."""
    if shape == "bool_or":
        return not a or b
    if shape == "max":
        return a <= b
    if shape == "min":
        return a >= b
    if shape == "set":
        return a <= b
    if shape == "write_once":
        return a is None or a == b or (
            b is not None and order_key(a) < order_key(b))
    if shape[0] == "map":
        return all(k in b and below(shape[1], v, b[k]) for k, v in a.items())
    return below(shape[1], a[0], b[0]) and below(shape[2], a[1], b[1])
