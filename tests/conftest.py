"""Shared builders: a transitive-closure program, random graphs, a
breadth-first-search reachability oracle, and a one-node cluster."""

import random

from latticeflow.interp import InterpContext
from latticeflow.ir import (
    BinOp, ClassDecl, Comp, Data, DataDecl, Field, Gen, Handler, Lit,
    MakeRow, MergeMutation, Program, QueryDef, Return, TargetPath, TupleOf,
    Var,
)
from latticeflow.runtime import GraphContext, compile_queries
from latticeflow.sim import Cluster, NetworkModel, NodeSpec
from latticeflow.state import NodeState, Row


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
