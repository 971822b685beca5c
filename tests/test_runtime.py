"""Single-node execution: backends, fixpoints, tick atomicity."""

import collections
import collections.abc
import copy
import itertools
import pickle
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (ORDERED_VALUES, bfs_closure, closure_contexts,
                      closure_program, loaded_state, one_node_cluster,
                      unlowerable_program)
from latticeflow.analysis import query_graph
from latticeflow.eval import (MISSING, EvalContext, bind, eval_expr,
                              iter_source, truthy)
from latticeflow.interp import InterpContext
from latticeflow import lattice, runtime
from latticeflow.ir import (
    ARITH, MAX_GENERATORS, Assign, BinOp, ClassDecl, Comp, ConsistencySpec,
    Data, DataDecl, Delete,
    Field, Fold, Gen, Handler, In, Index, Len, Lit, Lookup, MakeRow,
    MergeMutation, Not, Program, QueryDef, RangeOf, Return, Send, Record, Slice,
    TargetPath, TupleOf, UdfCall, UdfDecl, Var, Expr, MESSAGE_ID, REPLY_TO,
    response_mailbox, validate, walk_expr,
)
from latticeflow.runtime import (
    GraphContext, NonMonotoneRecursion, compile_comp, compile_queries,
)
from latticeflow.lattice import INT_MIN, ShapeMismatch, order_key
from latticeflow.lowering import lower
from latticeflow.patterns import covid_program
from latticeflow.state import (
    Effects, FixpointDivergence, NodeState, Row, UdfFailure,
    canonical_state,
)
from latticeflow.transducer import Transducer


def counter_program(**handler_kw):
    return Program(
        "counter",
        data=(DataDecl("acc", "var", shape="set"),
              DataDecl("n", "var", scalar="int", init=1)),
        handlers=(Handler("add", {"x": "int"},
                          (MergeMutation(TargetPath("acc"), Var("x")),
                           Return(Len(Data("acc")))), **handler_kw),))


def request(i, **fields):
    return Row(dict(fields), **{MESSAGE_ID: f"m{i}"})


# --- query backends ----------------------------------------------------------

def test_backends_match_bfs_on_random_graphs():
    rng = random.Random(4)
    for _ in range(30):
        edges = [(rng.randrange(12), rng.randrange(12))
                 for _ in range(rng.randint(1, 20))]
        ic, gc = closure_contexts(edges)
        expect = bfs_closure(edges)
        assert ic.query_value("tc") == expect
        assert gc.query_value("tc") == expect


def test_delta_iteration_needs_no_more_rounds_than_naive():
    rng = random.Random(5)
    for _ in range(20):
        edges = [(i, i + 1) for i in range(rng.randint(2, 30))]
        rng.shuffle(edges)
        ic, gc = closure_contexts(edges)
        ic.query_value("tc")
        gc.query_value("tc")
        assert max(gc.rounds.values()) <= max(ic.rounds.values())


class CountingReads(InterpContext):
    """An interpreter that counts the collections it reads, by name."""

    def __init__(self, program, snapshot):
        super().__init__(program, snapshot)
        self.reads = collections.Counter()

    def collection(self, name):
        self.reads[name] += 1
        return super().collection(name)


def test_the_oracle_stays_naive():
    """The interpreter re-evaluates every body in every round and reads
    `links` once for the first body and once per `tc` row for the second,
    as its nested loops are written; a semi-naive round or a source
    hoisted out of its loop changes these counts, taken at a commit whose
    interpreter recursed once per row."""
    p = closure_program()
    for n in (2, 5, 10):
        chain = InterpContext(p, loaded_state(
            p, [(i, i + 1) for i in range(n - 1)]).snapshot())
        chain.query_value("tc")
        assert chain.rounds == {"tc": n}
    cycle = CountingReads(p, loaded_state(
        p, [(0, 1), (1, 2), (2, 0), (2, 3)]).snapshot())
    assert len(cycle.query_value("tc")) == 12
    assert cycle.rounds == {"tc": 4}
    assert cycle.reads == {"links": 28, "edges": 1, "tc": 4}


def test_a_udf_fold_agrees_on_both_backends():
    """A `udf:` fold calls its UDF on the values in sorted order, first on
    the first two and then on the result and the next, on both backends;
    one value folds to itself and none to MISSING."""
    program = Program(
        "folds", data=(DataDecl("s", "var", shape="set"),
                       DataDecl("none", "var", shape="set")),
        udfs=(UdfDecl("cat", 2, fn=lambda a, b: f"({a}{b})"),))
    state = NodeState(program)
    state.vars["s"] = frozenset({3, 1, 2})
    tens = Comp(BinOp("*", Var("x"), Lit(10)), (Gen("x", Data("s")),))
    one = Comp(Var("x"), (Gen("x", Data("s")),), (BinOp("==", Var("x"),
                                                         Lit(2)),))
    for source, want in ((Data("s"), "((12)3)"), (tens, "((1020)30)"),
                         (one, 2), (Data("none"), MISSING)):
        graph, interp = both_backends(program, state)
        fold = Fold("udf:cat", source)
        assert graph.eval(fold, {}) == interp.eval(fold, {}) == want
        assert len(graph.udf_memo) == len(interp.udf_memo)


# --- compiled chains against the interpreter ---------------------------------

ITEM = ClassDecl("Item", {"k": "int", "v": "int", "tags": "set"}, key="k")
CHAIN_PROGRAM = Program(
    "chains", classes=(ITEM,),
    data=(DataDecl("items", "table", cls="Item"),
          DataDecl("nums", "var", shape="set"),
          DataDecl("pairs", "var", shape="set"),
          DataDecl("empty", "var", shape="set")),
    # a query result is a frozenset, the source a probe or a join indexes
    queries=(QueryDef("halves", (), (Comp(
        TupleOf(Var("h"), BinOp("//", Var("h"), Lit(2))),
        (Gen("h", Data("nums")),)),)),))
# key -1 is never an item, so a lookup of it is MISSING
ABSENT = Field(Lookup("items", Lit(-1)), "v")
# raises ZeroDivisionError where it is evaluated when z is 0; wherever it is
# drawn among the filters, both backends reach it with the same rows, since
# each filter sees only the rows that passed the filters before it
TRIPWIRE = BinOp("!=", BinOp("//", Lit(1), Var("z")), Lit(7))


@st.composite
def chain_cases(draw):
    """(comprehension, outer env, snapshot) over `CHAIN_PROGRAM`. Names the
    comprehension binds are fresh; `n`, `z` (ints) and `o` (a row with no
    `tags`) are bound outside it, and only the tripwire reads `z`. A later
    generator may yield nothing (`empty`), raise in its source
    (``range(1 // x)`` over an earlier int, which may be 0) or fail to bind
    (a pair binder over `nums`)."""
    names = itertools.count()

    def pick(options):
        return draw(st.sampled_from(options))

    def int_expr(ints, rows, depth):
        kinds = ["lit"] + ["var", "var"] * bool(ints)
        kinds += ["field", "field", "absent"] * bool(rows)
        if depth < 3:
            kinds += ["lookup", "plus", "index", "len"] * bool(rows)
            kinds += ["lookup", "plus", "index", "fold"]
        kind = pick(kinds)
        if kind == "lit":
            return Lit(draw(st.integers(0, 4)))
        if kind == "var":
            return Var(pick(ints))
        if kind == "field":
            return Field(Var(pick(rows)), pick(("k", "v")))
        if kind == "absent":
            return Field(Var(pick(rows)), "absent")
        if kind == "len":
            return Len(Field(Var(pick(rows)), "tags"))
        if kind == "lookup":
            return Field(Lookup("items", int_expr(ints, rows, depth + 1)), "v")
        if kind == "plus":
            return BinOp("+", int_expr(ints, rows, depth + 1),
                         int_expr(ints, rows, depth + 1))
        if kind == "index":
            return Index(TupleOf(int_expr(ints, rows, depth + 1),
                                 int_expr(ints, rows, depth + 1)),
                         Lit(draw(st.integers(0, 2))))
        return Fold(pick(("count", "sum", "max", "min")),
                    comp(ints, rows, depth + 1))

    def bool_expr(ints, rows, depth):
        kinds = ["cmp", "in", "key_in"]
        if depth < 3:
            kinds += ["and_or", "missing_left", "not"]
        kind = pick(kinds)
        if kind == "cmp":
            return BinOp(pick(("==", "!=", "<", "<=")),
                         int_expr(ints, rows, depth), int_expr(ints, rows, depth))
        if kind == "in":
            colls = [Data("nums")] + [Field(Var(r), "tags") for r in rows]
            if depth < 2:
                colls.append(comp(ints, rows, depth + 1))
            return In(int_expr(ints, rows, depth), pick(colls),
                      negated=draw(st.booleans()))
        if kind == "key_in":
            # `k` is the key of `items`: a key membership
            item = f"x{next(names)}"
            return In(int_expr(ints, rows, depth),
                      Comp(Field(Var(item), pick(("k", "k", "v"))),
                           (Gen(item, Data("items")),)),
                      negated=draw(st.booleans()))
        if kind == "and_or":
            return BinOp(pick(("and", "or")), bool_expr(ints, rows, depth + 1),
                         bool_expr(ints, rows, depth + 1))
        if kind == "missing_left":
            return BinOp(pick(("and", "or")), BinOp("==", ABSENT, Lit(0)),
                         bool_expr(ints, rows, depth + 1))
        return Not(bool_expr(ints, rows, depth + 1))

    def comp(ints, rows, depth):
        outer_ints, outer_rows = list(ints), list(rows)
        ints, rows, gens, filters = list(ints), list(rows), [], []
        local_ints, local_rows = [], []
        for i in range(draw(st.integers(1, 3 if depth == 0 else 2))):
            name = f"x{next(names)}"
            inner_rows = [r for r in rows if r != "o"]
            source = pick(["items", "nums", "pairs", "halves"]
                          + ["tags"] * bool(inner_rows)
                          + ["empty", "unbound"] * bool(i)
                          + ["range"] * bool(i and local_ints))
            if source in ("empty", "range"):
                gens.append(Gen(name, Data("empty") if source == "empty"
                                else RangeOf(BinOp("//", Lit(1),
                                                   Var(pick(local_ints))))))
                new = Var(name)
            elif source == "unbound":
                other = f"x{next(names)}"
                gens.append(Gen((name, other), Data("nums")))
                new = Var(pick((name, other)))
                ints.append(other)
                local_ints.append(other)
            elif source == "items":
                gens.append(Gen(name, Data("items")))
                new = Field(Var(name), pick(("k", "v")))
            elif source in ("pairs", "halves"):
                other = f"x{next(names)}"
                gens.append(Gen((name, other), Data(source)))
                new = Var(pick((name, other)))
                ints.append(other)
                local_ints.append(other)
            else:
                gens.append(Gen(name, Data("nums") if source == "nums"
                                else Field(Var(pick(inner_rows)), "tags")))
                new = Var(name)
            if i and draw(st.booleans()):
                # linked to an earlier generator: a hash join when the other
                # side reads only names this comprehension bound
                earlier = [Var(x) for x in local_ints] + [
                    Field(Var(r), f) for r in local_rows for f in ("k", "v")]
                filters.append(BinOp("==", new, pick(earlier + [
                    int_expr(ints, rows, 2)])))
            elif source not in ("tags", "range") and draw(st.booleans()):
                # fixed by names bound outside: a probe, either side
                key = int_expr(outer_ints, outer_rows, 3)
                filters.append(BinOp("==", *pick(((new, key), (key, new)))))
            (rows if source == "items" else ints).append(name)
            (local_rows if source == "items" else local_ints).append(name)
        for _ in range(draw(st.integers(0, 2))):
            filters.append(bool_expr(ints, rows, depth))
        if depth == 0 and draw(st.booleans()):
            # before a probe or join filter, it leaves the generator a scan
            filters.insert(draw(st.integers(0, len(filters))), TRIPWIRE)
        output = int_expr(ints, rows, depth)
        if depth == 0 and draw(st.booleans()):
            output = pick((TupleOf(output, int_expr(ints, rows, depth)),
                           Record(out=output)))
        return Comp(output, gens, filters)

    cmp = comp(["n"], ["o"], 0)
    env = {"n": draw(st.integers(0, 4)), "z": draw(st.integers(0, 1)),
           "o": Row(k=draw(st.integers(0, 4)), v=draw(st.integers(0, 4)))}
    small = st.integers(0, 4)
    items = draw(st.dictionaries(small, st.tuples(small, st.frozensets(small)),
                                 min_size=2, max_size=5))
    state = NodeState(CHAIN_PROGRAM)
    state.tables["items"] = {(k,): Row(k=k, v=v, tags=tags)
                             for k, (v, tags) in items.items()}
    state.vars["nums"] = draw(st.frozensets(small, min_size=2, max_size=5))
    state.vars["pairs"] = draw(
        st.frozensets(st.tuples(small, small), min_size=2, max_size=6))
    return cmp, env, state.snapshot()


def outcome(ctx, comp, env):
    """The comprehension's value, or the class of the error it raises: a
    division by zero, or a `BindError` or other `TypeError`."""
    try:
        return ctx.eval_comp(comp, env)
    except (ZeroDivisionError, TypeError) as err:
        return type(err)


def raisers(comp) -> int:
    """How many parts of a drawn case can raise: the tripwire, a generator
    over ``range(1 // x)`` and a pair binder over `nums`."""
    n = 0
    for e in walk_expr(comp):
        if e == TRIPWIRE:
            n += 1
        elif isinstance(e, Comp):
            n += sum(isinstance(g.source, RangeOf) or (
                isinstance(g.binder, tuple) and g.source == Data("nums"))
                for g in e.gens)
    return n


@settings(max_examples=300, deadline=None)
@given(chain_cases())
def test_compiled_chains_match_the_interpreter(case):
    comp, env, snapshot = case
    graph = GraphContext(CHAIN_PROGRAM, snapshot,
                         compile_queries(CHAIN_PROGRAM))
    interp = InterpContext(CHAIN_PROGRAM, snapshot)
    seen = outcome(graph, comp, dict(env)), outcome(interp, comp, dict(env))
    if seen[0] != seen[1]:
        # both may raise, each a different error, only in a case that can
        # raise in two places: which a run meets first is evaluation order,
        # which the backends do not share. Both run each row through every
        # level, but the graph backend iterates a set in its own order, not
        # sorted, and a join indexes its whole source, binding each item and
        # computing its key, before the first row probes it
        assert all(isinstance(v, type) for v in seen) and raisers(comp) > 1


@pytest.mark.parametrize("body", [
    Comp(Var("x"), (Gen("x", Data("acc")),),
         (Not(In(Var("x"), Data("odd"))),)),
    # classify_expression calls a count monotone; only the edge label
    # rejects it
    Comp(Fold("count", Data("odd")), (Gen("x", Data("acc")),)),
], ids=["negation", "count-over-self"])
def test_nonmonotone_recursion_rejected(body):
    bad = QueryDef("odd", (), (body,), recursive=True)
    p = Program("bad",
                data=(DataDecl("acc", "var", shape="set"),),
                queries=(bad,))
    with pytest.raises(NonMonotoneRecursion):
        compile_queries(p)


def test_a_recursive_rule_that_negates_a_base_var_is_refused_by_its_body():
    """Negating a base var inside a recursive rule adds no edge between
    queries, so the edge check passes it; the classification of the rule
    body refuses it. The refusal keeps a resumed fixpoint sound: a grown
    `blocked` would remove facts, which a resume never does (see
    `runtime.apply_fixpoint`)."""
    program = unlowerable_program("negated-base-var")
    assert query_graph(program).bad_edge is None
    with pytest.raises(NonMonotoneRecursion, match="non-monotone rule body "
                       "in recursive query r"):
        compile_queries(program)


@pytest.mark.parametrize("read", [
    In(BinOp("-", Var("x"), Lit(1)), Data("r")),
    In(BinOp("-", Var("x"), Lit(1)), Comp(Var("y"), (Gen("y", Data("r")),))),
], ids=["membership", "nested-generator"])
def test_a_recursive_rule_that_reads_a_member_not_by_a_generator_is_refused(
        read):
    """A semi-naive pass feeds a delta only to a generator of the rule
    itself, so a rule that reads a member of its recursive group any other
    way would never see the member grow; the graph backend cannot evaluate
    it, and compile_queries refuses it, naming the query and the member.
    The interpreter, which reruns every rule each round, answers it."""
    program = unlowerable_program("member-read")
    r = program.query_map["r"][0]
    program = replace(program, queries=(replace(r, bodies=(
        r.bodies[0], replace(r.bodies[1], filters=(read,)))),))
    assert validate(program).ok and query_graph(program).bad_edge is None
    with pytest.raises(NonMonotoneRecursion, match="recursive query r reads "
                       "r, a member of its group, other than by its own "
                       "generator"):
        compile_queries(program)
    state = NodeState(program)
    state.vars["acc"] = frozenset({1, 2, 3, 5})
    assert InterpContext(program, state.snapshot()).query_value("r") \
        == frozenset({1, 2, 3})


def test_fixpoint_round_cap(monkeypatch):
    monkeypatch.setattr(EvalContext, "max_rounds", 3)
    edges = [(i, i + 1) for i in range(10)]
    ic, gc = closure_contexts(edges)
    with pytest.raises(FixpointDivergence):
        ic.query_value("tc")
    with pytest.raises(FixpointDivergence):
        gc.query_value("tc")


# --- tick semantics ----------------------------------------------------------

def test_reads_see_the_pre_tick_snapshot():
    t = Transducer(counter_program())
    t.deliver("add", request(0, x=7))
    t.deliver("add", request(1, x=8))
    r = t.tick()
    # both responses report the count before either merge landed
    replies = [s.payload for s in r.sends
               if s.mailbox == response_mailbox("add")]
    assert [p["payload"] for p in replies] == [0, 0]
    assert t.state.vars["acc"] == frozenset({7, 8})


def test_self_sends_arrive_next_tick():
    p = Program(
        "relay",
        data=(DataDecl("acc", "var", shape="set"),),
        handlers=(
            Handler("front", {"x": "int"},
                    (Send("back", Record(x=Var("x"))),)),
            Handler("back", {"x": "int"},
                    (MergeMutation(TargetPath("acc"), Var("x")),)),
        ))
    c = one_node_cluster(p)
    c.schedule_request(0, "c1", "front", {"x": 3})
    c.step()  # the request arrives at tick 1
    c.step()  # front runs and sends to back
    node = c.nodes["n1"]
    assert node.state.vars["acc"] == frozenset()
    c.step()
    assert node.state.vars["acc"] == frozenset({3})


def test_udf_memoized_within_a_tick():
    calls = []
    p = Program(
        "memo",
        data=(DataDecl("acc", "var", shape="set"),),
        udfs=(UdfDecl("f", 1, fn=lambda x: calls.append(x) or x * 2),),
        handlers=(Handler("go", {"x": "int"},
                          (UdfCall("f", (Var("x"),), binder="y"),
                           MergeMutation(TargetPath("acc"), Var("y")))),))
    t = Transducer(p)
    t.deliver("go", request(0, x=5))
    t.deliver("go", request(1, x=5))
    r = t.tick()
    assert r.udf_invocations == 1 and calls == [5]
    # a later tick evaluates against fresh state, so it may call again
    t.deliver("go", request(2, x=5))
    t.tick()
    assert calls == [5, 5]


@pytest.mark.parametrize("backend", ["graph", "interp"])
def test_a_tick_counts_the_udf_calls_of_every_context_it_builds(backend):
    """Three requests decided in one tick each run on a context of their
    own, the one before's check context or a fresh one, and every one of
    them shares the tick's UDF memo, which counts their calls."""
    calls = []
    p = Program(
        "gate",
        data=(DataDecl("n", "var", scalar="int", init=0),),
        udfs=(UdfDecl("f", 1, fn=lambda x: calls.append(x) or x),),
        handlers=(Handler(
            "take", {"x": "int"},
            (UdfCall("f", (Var("x"),), binder="y"),
             Assign(TargetPath("n"), Var("y"))),
            consistency=ConsistencySpec("serializable")),))
    t = Transducer(p, backend=backend)
    for i in range(3):
        t.deliver("take", request(i, x=i))
    r = t.tick()
    assert r.statuses == {"m0": "accepted", "m1": "accepted",
                          "m2": "accepted"}
    assert calls == [0, 1, 2] and r.udf_invocations == 3


@pytest.mark.parametrize("backend", ["graph", "interp"])
def test_deleting_a_var_resets_it(backend):
    """Deleting a lattice var resets it to its bottom, and a scalar var to
    None; the next tick's reads see the reset."""
    p = Program(
        "reset",
        data=(DataDecl("acc", "var", shape="set", init=frozenset({1, 2})),
              DataDecl("n", "var", scalar="int", init=3),
              DataDecl("seen", "var", shape="set")),
        handlers=(
            Handler("reset", {},
                    (Delete(TargetPath("acc")), Delete(TargetPath("n")))),
            Handler("look", {}, (MergeMutation(TargetPath("seen"), TupleOf(
                Len(Data("acc")), BinOp("==", Data("n"), Lit(None)))),))))
    t = Transducer(p, backend=backend)
    t.deliver("reset", request(0))
    assert t.tick().fired == ["reset"]
    assert t.state.vars["acc"] == lattice.bottom("set")
    assert t.state.vars["n"] is None
    t.deliver("look", request(1))
    t.tick()
    assert t.state.vars["seen"] == frozenset({(0, True)})


@pytest.mark.parametrize("backend", ["graph", "interp"])
def test_a_statement_with_a_missing_operand_does_nothing(backend):
    """A statement whose UDF argument, key or value is MISSING (here a field
    of a row no key holds) calls no UDF, writes nothing and sends nothing;
    an assignment into a lattice var stores its value lifted into the var's
    shape."""
    calls = []
    p = Program(
        "missing", classes=(ITEM,),
        data=(DataDecl("items", "table", cls="Item"),
              DataDecl("n", "var", scalar="int", init=0),
              DataDecl("s", "var", shape="set")),
        udfs=(UdfDecl("f", 1, fn=lambda x: calls.append(x) or x),))
    t = Transducer(p, backend=backend)
    ctx = t._context(t.state.snapshot())
    absent = Field(Lookup("items", Lit(-1)), "v")
    row = TargetPath("items", key=absent, field="v")
    env, eff = {}, Effects()
    for s in (UdfCall("f", (absent,), binder="y"),
              MergeMutation(row, Lit(1)),                    # key
              MergeMutation(TargetPath("s"), absent),        # merge value
              MergeMutation(TargetPath("items"), absent),
              Assign(TargetPath("n"), absent),               # assign value
              Assign(row, Lit(1)),                           # key
              Delete(TargetPath("items", key=absent)),       # key
              Send("out", absent)):                          # send value
        t._run_stmt(s, env, ctx, eff)
    assert calls == [] and env == {}
    assert eff == Effects()
    t._run_stmt(Assign(TargetPath("s"), Lit(frozenset({1, 2}))), env, ctx,
                eff)
    assert eff.assigns == {("s", None, None): frozenset({1, 2})}


@pytest.mark.parametrize("backend", ["graph", "interp"])
def test_a_udf_a_request_and_its_invariant_call_alike_runs_once(backend):
    """`take`'s statement and its invariant both call `add(1, 2)`: the
    request's context and its check context share the tick's UDF memo, so
    `add` runs once in the tick, and again only in a later tick."""
    calls = []
    p = Program(
        "sums",
        data=(DataDecl("s", "var", shape="set", init=frozenset({1, 2})),
              DataDecl("n", "var", scalar="int", init=0)),
        udfs=(UdfDecl("add", 2,
                      fn=lambda a, b: calls.append((a, b)) or a + b),),
        handlers=(Handler(
            "take", {"x": "int"},
            (UdfCall("add", (Var("x"), Lit(2)), binder="y"),
             Assign(TargetPath("n"), Var("y"))),
            consistency=ConsistencySpec("serializable", invariants=(
                BinOp("==", Data("n"), Fold("udf:add", Data("s"))),))),))
    t = Transducer(p, backend=backend)
    t.deliver("take", request(0, x=1))
    r = t.tick()
    assert (r.statuses, r.udf_invocations) == ({"m0": "accepted"}, 1)
    assert calls == [(1, 2)]
    t.deliver("take", request(1, x=1))
    assert t.tick().udf_invocations == 1 and calls == [(1, 2)] * 2


def test_batching_does_not_change_final_state():
    msgs = [{"x": v} for v in [4, 9, 1, 9, 2]]

    def run(schedule):
        c = one_node_cluster(counter_program())
        for tick, batch in enumerate(schedule):
            for m in batch:
                c.schedule_request(tick, "c1", "add", m)
        c.run_to_quiescence()
        return c.node_state("n1", include_mailboxes=False)

    one_shot = run([msgs])
    for i in range(1, len(msgs)):
        assert run([msgs[:i], msgs[i:]]) == one_shot
    assert run([[m] for m in msgs]) == one_shot


def test_serializable_accepts_then_rejects():
    spend = Handler(
        "spend", {},
        (Assign(TargetPath("n"), BinOp("-", Data("n"), Lit(1))),
         Return(Lit("done"))),
        consistency=ConsistencySpec(
            "serializable", invariants=(BinOp(">=", Data("n"), Lit(0)),)))
    p = Program("stock",
                data=(DataDecl("n", "var", scalar="int", init=1),),
                handlers=(spend,))
    t = Transducer(p)
    t.deliver("spend", request(0))
    t.deliver("spend", request(1))
    statuses = {}
    for _ in range(3):
        statuses.update(t.tick().statuses)
    assert sorted(statuses.values()) == ["accepted", "rejected"]
    assert t.state.vars["n"] == 0


def test_serializable_reject_leaves_state_untouched():
    spend = Handler(
        "spend", {},
        (Assign(TargetPath("n"), BinOp("-", Data("n"), Lit(5))),),
        consistency=ConsistencySpec(
            "serializable", invariants=(BinOp(">=", Data("n"), Lit(0)),)))
    p = Program("stock",
                data=(DataDecl("n", "var", scalar="int", init=1),),
                handlers=(spend,))
    t = Transducer(p)
    t.deliver("spend", request(0))
    r = t.tick()
    assert r.statuses == {"m0": "rejected"}
    assert t.state.vars["n"] == 1
    assert not t.has_pending_input()


# --- rows ------------------------------------------------------------------------

def test_row_reads_are_dicts_own():
    for name in ("get", "__getitem__", "__contains__", "__iter__", "__len__",
                 "items"):
        assert getattr(Row, name) is getattr(dict, name), name
    assert isinstance(Row(a=1), collections.abc.Mapping)


@pytest.mark.parametrize("mutate", [
    lambda r: r.__setitem__("a", 2), lambda r: r.__delitem__("a"),
    lambda r: r.update(a=2), lambda r: r.pop("a"), lambda r: r.popitem(),
    lambda r: r.setdefault("c", 3), lambda r: r.clear(),
    lambda r: r.__ior__({"a": 2}),
], ids=["setitem", "delitem", "update", "pop", "popitem", "setdefault",
        "clear", "ior"])
def test_row_refuses_every_mutator(mutate):
    r = Row(a=1, b=2)
    with pytest.raises(TypeError):
        mutate(r)
    assert r == Row(a=1, b=2) and list(r.items()) == [("a", 1), ("b", 2)]
    assert hash(r) == hash(Row(a=1, b=2))


def test_row_equals_only_a_row():
    r, d = Row(a=1), {"a": 1}
    assert r != d and d != r
    assert not r == d and not d == r
    assert r == Row(a=1) and not r != Row(a=1)
    assert r != Row(a=2) and not r == Row(a=2)


def test_row_hash_is_the_sorted_items_hash():
    r = Row(b=frozenset({1}), a=(1, "x"), c=None)
    assert hash(r) == hash(tuple(sorted(r.items())))
    # a row is hashed on first use, so an unhashable value is refused there
    # (a UDF's result is refused where it enters: see
    # test_a_udf_result_that_is_not_hashable_is_refused_with_its_node)
    unhashable = Row(x=[1])
    with pytest.raises(TypeError):
        hash(unhashable)
    # a copy hashes alike whether the row was hashed before it was copied
    for hashed in (False, True):
        r = Row(a=1, b=Row(c=frozenset({2})))
        if hashed:
            hash(r)
        for other in (copy.copy(r), pickle.loads(pickle.dumps(r))):
            assert hash(other) == hash(r) == hash(tuple(sorted(r.items())))


def test_row_survives_copy_and_pickle():
    r = Row(a=1, b=Row(c=frozenset({2})))
    for other in (copy.copy(r), copy.deepcopy(r),
                  pickle.loads(pickle.dumps(r))):
        assert type(other) is Row and other == r and hash(other) == hash(r)


def test_row_updated_leaves_the_row_unchanged():
    r = Row(a=1)
    assert r.updated(b=2) == Row(a=1, b=2)
    assert r == Row(a=1) and repr(r) == "Row(a=1)"


# --- copy-on-write state ---------------------------------------------------------

def ledger_program() -> Program:
    """A serializable `spend` that takes one from `n`, refused below zero,
    and tags an item; an eventual `note` tags a row of `log`."""
    spend = Handler(
        "spend", {"k": "int"},
        (Assign(TargetPath("n"), BinOp("-", Data("n"), Lit(1))),
         MergeMutation(TargetPath("items", Var("k"), "tags"), Lit(1))),
        consistency=ConsistencySpec(
            "serializable", invariants=(BinOp(">=", Data("n"), Lit(0)),)))
    note = Handler("note", {"k": "int"},
                   (MergeMutation(TargetPath("log", Var("k"), "tags"), Lit(1)),))
    return Program("ledger", classes=(ITEM,),
                   data=(DataDecl("items", "table", cls="Item"),
                         DataDecl("log", "table", cls="Item"),
                         DataDecl("n", "var", scalar="int", init=1)),
                   handlers=(spend, note))


def test_a_snapshot_or_fork_is_unchanged_by_a_later_commit_and_deliver():
    state = NodeState(ledger_program())
    state.commit(Effects(table_merges=[
        ("items", Row(k=k, v=0, tags=frozenset())) for k in (1, 2)]))
    state.deliver("note", request(0, k=1))
    snap, fork = state.snapshot(), state.fork()
    held = (dict(snap.tables["items"]), dict(snap.tables["log"]),
            list(snap.mailboxes["note"]), dict(snap.vars))

    state.commit(Effects(
        table_merges=[("items", Row(k=3, v=0, tags=frozenset()))],
        field_merges=[("items", (1,), "tags", frozenset({5})),
                      ("log", (1,), "tags", frozenset({5}))],
        assigns={("items", (2,), "v"): 7, ("n", None, None): 0},
        deletes=[("items", (2,)), ("log", None)],
        consumed={"note": [request(0, k=1)]}))
    state.deliver("note", request(1, k=2))
    state.deliver("spend", request(2, k=2))
    assert (snap.tables["items"], snap.tables["log"], snap.mailboxes["note"],
            snap.vars) == held
    assert (fork.tables["items"], fork.tables["log"], fork.mailboxes["note"],
            fork.vars) == held

    fork.commit(Effects(field_merges=[("items", (3,), "tags", frozenset({6}))],
                        consumed={"note": [request(0, k=1)]}))
    fork.deliver("spend", request(3, k=3))
    assert state.tables["items"].keys() == {(1,), (3,)}
    assert state.tables["items"][(3,)]["tags"] == frozenset()
    assert state.mailboxes["note"] == [request(1, k=2)]
    assert state.mailboxes["spend"] == [request(2, k=2)]


def test_a_serializable_request_replaces_only_the_tables_it_wrote():
    t = Transducer(ledger_program())
    t.deliver("note", request(0, k=1))
    t.tick()
    tables = dict(t.state.tables)

    t.deliver("spend", request(1, k=1))
    assert t.tick().statuses == {"m1": "accepted"}
    assert t.state.tables["items"] is not tables["items"]
    assert t.state.tables["log"] is tables["log"]
    tables = dict(t.state.tables)

    t.deliver("spend", request(2, k=2))
    assert t.tick().statuses == {"m2": "rejected"}
    assert all(t.state.tables[name] is table for name, table in tables.items())
    assert (2,) not in t.state.tables["items"] and t.state.vars["n"] == 0


class CountingTransducer(Transducer):
    """Counts the evaluation contexts it builds."""

    contexts = 0

    def _context(self, snapshot):
        self.contexts += 1
        return super()._context(snapshot)


@pytest.mark.parametrize("backend", ["graph", "interp"])
def test_a_lone_request_builds_only_its_fork_and_check_contexts(
        backend, monkeypatch):
    """A sequencer tick whose only input is one request builds no tick
    context and commits no empty effects: the request's two contexts are
    one over the node's state, which its statements read, and its
    invariant check's over its fork, and it commits the fork, plus, when
    rejected, the request's consumption."""
    commits = []
    commit = NodeState.commit

    def counted(state, eff):
        commits.append(state)
        commit(state, eff)

    monkeypatch.setattr(NodeState, "commit", counted)
    t = CountingTransducer(covid_program(coordinated=True, vaccine_count=1),
                           backend=backend)

    def tick(mailbox, *ids, **fields):
        for i in ids:
            t.deliver(mailbox, request(i, **fields))
        t.contexts = 0
        commits.clear()
        return t.tick().statuses

    assert tick("add_person", 0, pid=1, name="ana", country="ar") == {}
    assert (t.contexts, commits) == (1, [t.state])

    assert tick("vaccinate", 1, pid=1) == {"m1": "accepted"}
    assert (t.contexts, len(commits)) == (2, 1)
    assert commits[0] is not t.state   # the fork's, adopted as the state
    assert t.state.vars["vaccine_count"] == 0

    assert tick("vaccinate", 2, pid=1) == {"m2": "rejected"}
    assert (t.contexts, len(commits)) == (2, 2)
    assert commits[1] is t.state and t.state.vars["vaccine_count"] == 0

    # a backlog is decided in the same tick; after each rejection the next
    # request reads a fresh context
    assert tick("vaccinate", 3, 4, pid=1) == {"m3": "rejected",
                                              "m4": "rejected"}
    assert (t.contexts, len(commits)) == (4, 4)
    assert t.state.mailboxes["vaccinate"] == []


@pytest.mark.parametrize("backend", ["graph", "interp"])
def test_a_tick_decides_the_whole_backlog_in_arrival_order(backend):
    """Five requests against three doses in one tick: each runs on the
    state the one before left, so the first three are accepted and the
    last two rejected, and all five ship in one commit record in decision
    order. The batch builds one context over the node's state, one check
    context per request, and one fresh context after m4's rejection, since
    m5 is still pending; an accepted request's check context is the next
    request's."""
    t = CountingTransducer(covid_program(coordinated=True, vaccine_count=3),
                           backend=backend)
    t.deliver("add_person", request(0, pid=1, name="ana", country="ar"))
    t.tick()
    for i in range(1, 6):
        t.deliver("vaccinate", request(i, pid=1))
    t.contexts = 0
    result = t.tick()
    assert result.statuses == {"m1": "accepted", "m2": "accepted",
                               "m3": "accepted", "m4": "rejected",
                               "m5": "rejected"}
    [record] = result.records.values()
    assert list(result.records) == ["vaccinate"]
    assert t.log == {"vaccinate": [record]}
    assert [(mid, delta is not None) for mid, delta in record] == \
        [("m1", True), ("m2", True), ("m3", True), ("m4", False),
         ("m5", False)]
    assert (result.fired, t.contexts) == (["vaccinate"], 7)
    assert t.state.mailboxes["vaccinate"] == []
    assert t.state.vars["vaccine_count"] == 0


def test_a_guard_consumes_only_the_messages_it_picked():
    # the picked messages do not head the mailbox, so commit cannot consume
    # them as a prefix
    t = Transducer(counter_program(guard=BinOp(">=", Var("x"), Lit(5))))
    for i, x in enumerate((1, 7, 2, 9, 3)):
        t.deliver("add", request(i, x=x))
    assert t.tick().fired == ["add"]
    assert [m["x"] for m in t.state.mailboxes["add"]] == [1, 2, 3]
    assert t.state.vars["acc"] == frozenset({7, 9})


def gate_program(n: int, amount) -> Program:
    """`take` subtracts `amount` from `n` while `n >= 1`, and no request
    may leave `n` below 0."""
    return Program(
        "gate", data=(DataDecl("n", "var", scalar="int", init=n),),
        handlers=(Handler(
            "take", {"x": "int"},
            (Assign(TargetPath("n"), BinOp("-", Data("n"), amount)),),
            guard=BinOp(">=", Data("n"), Lit(1)),
            consistency=ConsistencySpec(
                "serializable",
                invariants=(BinOp(">=", Data("n"), Lit(0)),))),))


def test_a_guarded_request_is_picked_on_the_state_the_last_decision_left():
    # the guard and m1's statement read one context over the node's state,
    # and the guard reads m1's check context for the next request, so m2
    # stays pending in the tick that accepts m1: its guard reads the state
    # m1 left
    for backend in ("graph", "interp"):
        t = CountingTransducer(gate_program(1, Lit(1)), backend=backend)
        t.deliver("take", request(1, x=1))
        t.deliver("take", request(2, x=1))
        assert t.tick().statuses == {"m1": "accepted"}
        assert t.contexts == 2
        assert [m[MESSAGE_ID] for m in t.state.mailboxes["take"]] == ["m2"]
        t.contexts = 0
        result = t.tick()
        assert (result.statuses, result.fired, t.contexts) == ({}, [], 1)
        assert [m[MESSAGE_ID] for m in t.state.mailboxes["take"]] == ["m2"]


@pytest.mark.parametrize("backend", ["graph", "interp"])
def test_after_a_rejection_the_guard_reads_the_node_s_state(backend):
    """m1 would leave `n` at -1 and is rejected; the guard then reads a
    fresh context over the node's state, where `n` is still 2, not the
    rejected fork's check context, so m2 and m3 are taken in the same
    tick, and m4 waits on the state m3 left."""
    t = CountingTransducer(gate_program(2, Var("x")), backend=backend)
    for i, x in enumerate((3, 1, 1, 1), start=1):
        t.deliver("take", request(i, x=x))
    assert t.tick().statuses == {"m1": "rejected", "m2": "accepted",
                                 "m3": "accepted"}
    # one over the node's state, one check per request, and the fresh one
    assert t.contexts == 1 + 3 + 1
    assert [m[MESSAGE_ID] for m in t.state.mailboxes["take"]] == ["m4"]
    assert t.state.vars["n"] == 0


@pytest.mark.parametrize("backend", ["graph", "interp"])
def test_a_guard_reads_the_eventual_effects_its_tick_committed(backend):
    """An eventual `close` and a `take` guarded by `not closed` arrive in
    one tick: the tick commits `closed` <- true before `take` is picked,
    so the guard reads it and `take` stays pending, as in a serial order
    that runs `close` first."""
    p = Program(
        "door",
        data=(DataDecl("closed", "var", shape="bool_or"),
              DataDecl("n", "var", scalar="int", init=0)),
        handlers=(
            Handler("close", {},
                    (MergeMutation(TargetPath("closed"), Lit(True)),)),
            Handler("take", {"x": "int"}, (Assign(TargetPath("n"), Var("x")),),
                    guard=Not(Data("closed")),
                    consistency=ConsistencySpec("serializable"))))
    t = Transducer(p, backend=backend)
    t.deliver("close", request(0))
    t.deliver("take", request(1, x=1))
    result = t.tick()
    assert (result.fired, result.statuses) == (["close"], {})
    assert t.state.vars["closed"] is True
    assert [m[MESSAGE_ID] for m in t.state.mailboxes["take"]] == ["m1"]
    assert t.state.vars["n"] == 0


@pytest.mark.parametrize("backend", ["graph", "interp"])
def test_a_guarded_request_stops_the_guard_at_the_first_pass(backend):
    """Each decision runs the guard on the pending messages only up to the
    first that passes: m0-m2 fail it before each of the 197 decisions and
    once more when no message passes."""

    class GuardCounting(Transducer):
        guards = 0

        def _context(self, snapshot):
            ctx = super()._context(snapshot)
            guard, inner = self.prepared["take"].guard, ctx.eval

            def counted(expr, env):
                self.guards += expr is guard
                return inner(expr, env)

            ctx.eval = counted
            return ctx

    p = Program(
        "gate", data=(DataDecl("n", "var", scalar="int", init=0),),
        handlers=(Handler(
            "take", {"x": "int"}, (Assign(TargetPath("n"), Var("x")),),
            guard=BinOp(">=", Var("x"), Lit(3)),
            consistency=ConsistencySpec("serializable")),))
    t = GuardCounting(p, backend=backend)
    for i in range(200):
        t.deliver("take", request(i, x=i))
    assert t.tick().statuses == {f"m{i}": "accepted" for i in range(3, 200)}
    assert t.guards == 197 * 4 + 3
    assert [m["x"] for m in t.state.mailboxes["take"]] == [0, 1, 2]


@pytest.mark.parametrize("backend", ["graph", "interp"])
def test_a_backup_applies_a_commit_record_without_a_context(backend):
    """Each of the sequencer's ticks appends a commit record of its
    decisions to the log it shares with the backup: the committed effects
    of an accepted request, None for a rejected one. A backup catches up
    by committing the log from its applied prefix to the tail, with no
    context, guard or invariant, even where its own state would reject the
    request (it has no row for the person); at the tail it applies
    nothing. It takes every decided id, the rejected one too, and a
    pending copy of a decided request leaves its mailbox as it catches up.
    A node built on the log once it holds every record replays it and ends
    in the same state, and a node that has read none of it catches up as
    its tick starts, so it decides on the stock the log left."""
    program = covid_program(coordinated=True, vaccine_count=2)
    log = {}
    sequencer = Transducer(program, backend=backend, log=log)
    backup = CountingTransducer(program, backend=backend, log=log)
    stale = Transducer(program, backend=backend, log=log)
    sequencer.deliver("add_person", request(0, pid=1, name="ana", country="ar"))
    sequencer.tick()

    def decide(i, status):
        sequencer.deliver("vaccinate", request(i, pid=1))
        result = sequencer.tick()
        assert result.statuses == {f"m{i}": status}
        return result.records["vaccinate"]

    records = [decide(1, "accepted"), decide(2, "accepted")]
    # a copy of m2 that reached the backup before it read the log
    assert backup.take_request("vaccinate", request(2, pid=1))
    assert backup.catch_up("vaccinate") == (range(0, 2), ["m2"])
    assert backup.catch_up("vaccinate") == (range(2, 2), [])
    records.append(decide(3, "rejected"))
    assert log == {"vaccinate": records}
    assert records[2] == (("m3", None),)
    assert backup.catch_up("vaccinate") == (range(2, 3), [])
    assert backup.status == {"m1": "accepted", "m2": "accepted",
                             "m3": "rejected"}
    assert not backup.take_request("vaccinate", request(3, pid=1))
    assert (backup.contexts, backup.applied) == (0, {"vaccinate": 3})
    assert backup.state.vars["vaccine_count"] == 0
    assert backup.state.tables["people"] == {
        (1,): Row(pid=1, name=None, country=None, contacts=frozenset(),
                  diagnosed=False, vaccinated=True, likelihood=INT_MIN)}
    assert not backup.has_pending_input()
    late = CountingTransducer(program, backend=backend, log=log)
    assert (late.contexts, late.applied, late.status) == \
        (0, {"vaccinate": 3}, backup.status)
    assert late.state.vars == backup.state.vars
    assert late.state.tables == backup.state.tables
    assert stale.applied == {}
    stale.deliver("add_person", request(4, pid=1, name="ana", country="ar"))
    stale.deliver("vaccinate", request(5, pid=1))
    assert stale.tick().statuses == {"m5": "rejected"}
    assert stale.applied == {"vaccinate": 4} and log["vaccinate"][3] == \
        (("m5", None),)


def test_a_failing_tick_names_the_handlers_it_is_blamed_on():
    """A handler that raises is named alone, and a var merge of the wrong
    shape raises in the handler that buffers it, not in the commit."""
    p = Program(
        "blame", data=(DataDecl("hi", "var", shape="max"),
                       DataDecl("acc", "var", shape="set")),
        udfs=(UdfDecl("boom", 1, fn=lambda x: 1 // 0),),
        handlers=(
            Handler("bump", {"v": "int"},
                    (MergeMutation(TargetPath("hi"), Var("v")),)),
            Handler("put", {"x": "int"},
                    (MergeMutation(TargetPath("acc"), Var("x")),)),
            Handler("crash", {"x": "int"}, (UdfCall("boom", (Var("x"),)),),
                    consistency=ConsistencySpec("serializable"))))
    t = Transducer(p)
    t.deliver("bump", request(0, v="abc"))
    t.deliver("put", request(1, x=1))
    with pytest.raises(ShapeMismatch) as info:
        t.tick()
    assert info.value.handlers == ("bump",)

    t = Transducer(p)
    t.deliver("put", request(0, x=1))
    t.deliver("crash", request(1, x=1))
    with pytest.raises(UdfFailure) as info:
        t.tick()
    assert info.value.handlers == ("crash",)


SCORE = ClassDecl("Score", {"k": "int", "m": "max", "s": "set", "b": "bool"},
                  key="k")


def score_program(*body):
    """A handler `put` with `body` over a table `scores` whose rows hold a
    max, a set and a bool field, beside a handler `other` that fires in
    the same tick."""
    return Program(
        "scores", classes=(SCORE,),
        data=(DataDecl("scores", "table", cls="Score"),
              DataDecl("acc", "var", shape="set")),
        handlers=(Handler("put", {"k": "int", "v": "opaque"}, body),
                  Handler("other", {"x": "int"}, (MergeMutation(
                      TargetPath("acc"), Var("x")),))))


@pytest.mark.parametrize("backend", ["graph", "interp"])
def test_the_first_row_merged_under_a_key_holds_lifted_fields(backend):
    """A merged row's fields are lifted into their shapes by the handler
    that merges it. The first row under a key was stored as it came, a
    scalar in a set field and a string in a max field, and only a second
    merge of the key raised."""
    t = Transducer(score_program(MergeMutation(TargetPath("scores"), MakeRow(
        "Score", k=Var("k"), m=Var("v"), s=Var("v")))), backend=backend)
    t.deliver("put", request(0, k=1, v=5))
    t.tick()
    assert t.state.tables["scores"] == {
        (1,): Row(k=1, m=5, s=frozenset({5}), b=False)}
    t.deliver("put", request(1, k=2, v="s"))
    t.deliver("other", request(2, x=1))
    with pytest.raises(ShapeMismatch, match="'s' into a max") as info:
        t.tick()
    assert info.value.handlers == ("put",)
    assert (2,) not in t.state.tables["scores"]


@pytest.mark.parametrize("backend", ["graph", "interp"])
def test_a_keyed_assign_is_lifted_into_its_field_s_shape(backend):
    """A keyed assignment's value is lifted as a merge's is: a scalar
    assigned to a set field is stored as a one-element set, and a string
    assigned to a max field raises in its handler, where it was stored."""
    t = Transducer(score_program(
        Assign(TargetPath("scores", Var("k"), "m"), Var("v")),
        Assign(TargetPath("scores", Var("k"), "s"), Var("v"))),
        backend=backend)
    t.deliver("put", request(0, k=1, v=3))
    t.tick()
    assert t.state.tables["scores"] == {
        (1,): Row(k=1, m=3, s=frozenset({3}), b=False)}
    t.deliver("put", request(1, k=1, v="s"))
    t.deliver("other", request(2, x=1))
    with pytest.raises(ShapeMismatch, match="'s' into a max") as info:
        t.tick()
    assert info.value.handlers == ("put",)
    assert t.state.tables["scores"][(1,)]["m"] == 3


@pytest.mark.parametrize("backend", ["graph", "interp"])
def test_an_ill_shaped_field_merge_is_blamed_on_its_handler_alone(backend):
    """A field merge's value is lifted by the handler that merges it, as a
    var merge's is, so a value of the wrong shape is not blamed on every
    eventual handler whose effects the tick's commit joins."""
    t = Transducer(score_program(MergeMutation(
        TargetPath("scores", Var("k"), "m"), Var("v"))), backend=backend)
    t.deliver("other", request(0, x=1))
    t.deliver("put", request(1, k=1, v="s"))
    with pytest.raises(ShapeMismatch, match="'s' into a max") as info:
        t.tick()
    assert info.value.handlers == ("put",)


@pytest.mark.parametrize("backend", ["graph", "interp"])
def test_a_set_merged_into_a_var_of_another_shape_merges_element_wise(
        backend):
    """A mailbox-quantified merge hands a var the set of its per-message
    values, so a set merged into a max var joins each element."""
    p = Program("top", data=(DataDecl("hi", "var", shape="max"),),
                handlers=(Handler("put", {"n": "int"}, (MergeMutation(
                    TargetPath("hi"),
                    Comp(Var("x"), (Gen("x", RangeOf(Var("n"))),))),)),))
    t = Transducer(p, backend=backend)
    t.deliver("put", request(0, n=4))
    t.tick()
    assert t.state.vars["hi"] == 3


def every_shape_program() -> Program:
    """A var of each lattice shape, three of them with an `init`, and a
    handler `put` that merges its `x` into each."""
    x = Var("x")
    merges = {
        "acc": x, "hi": x, "lo": x, "flag": BinOp(">", x, Lit(1)),
        "first": x, "best": Record(a=x, b=BinOp("-", Lit(0), x)),
        "pr": TupleOf(x, x),
    }
    return Program(
        "shapes",
        data=(DataDecl("acc", "var", shape="set", init=[0]),
              DataDecl("hi", "var", shape="max"),
              DataDecl("lo", "var", shape="min", init=2),
              DataDecl("flag", "var", shape="bool_or"),
              DataDecl("first", "var", shape="write_once"),
              DataDecl("best", "var", shape=("map", "max"),
                       init=(("c", 7),)),
              DataDecl("pr", "var", shape=("pair", "set", "min"))),
        handlers=(Handler("put", {"x": "int"}, tuple(
            MergeMutation(TargetPath(name), e)
            for name, e in merges.items())),))


def test_a_var_of_each_shape_ends_alike_on_both_backends():
    """Each lattice var holds its plain value, and the final-state dump
    encodes it as it encodes any other value: a set and a map tagged, in
    sorted order, a pair as a tuple, a scalar as itself."""
    dumps = []
    for backend in ("graph", "interp"):
        c = one_node_cluster(every_shape_program(), backend=backend)
        for tick, x in enumerate((3, 1, 2)):
            c.schedule_request(tick, "c1", "put", {"x": x})
        c.run_to_quiescence()
        dumps.append(c.dump_states())
    assert dumps[0] == dumps[1]
    assert dumps[0]["n1"]["vars"] == {
        "acc": {"set": [0, 1, 2, 3]},
        "hi": 3,
        "lo": 1,
        "flag": True,
        "first": 3,
        "best": {"map": [["a", 3], ["b", -1], ["c", 7]]},
        "pr": {"tuple": [{"set": [1, 2, 3]}, 1]},
    }


def test_backends_agree_on_transducer_runs():
    rng = random.Random(11)
    for trial in range(10):
        pairs = [(rng.randrange(8), rng.randrange(8))
                 for _ in range(rng.randint(1, 12))]
        states = []
        for backend in ("interp", "graph"):
            c = one_node_cluster(closure_program(), backend=backend)
            for a, b in pairs:
                c.schedule_request(0, "c1", "add_edge", {"a": a, "b": b})
            c.run_to_quiescence()
            states.append(c.node_state("n1", include_mailboxes=False))
        assert states[0] == states[1], pairs


def test_statement_order_is_immaterial_for_monotone_bodies():
    stmts = (MergeMutation(TargetPath("acc"), Var("x")),
             MergeMutation(TargetPath("acc"), BinOp("+", Var("x"), Lit(100))),
             Send("out", Record(v=Var("x"))))
    finals = set()
    for perm in itertools.permutations(stmts):
        p = Program("perm",
                    data=(DataDecl("acc", "var", shape="set"),),
                    handlers=(Handler("go", {"x": "int"}, perm),),
                    sinks=("out",))
        c = one_node_cluster(p)
        c.schedule_request(0, "c1", "go", {"x": 1})
        c.run_to_quiescence()
        finals.add((repr(c.node_state("n1", include_mailboxes=False)),
                    tuple(c.sink_outputs.get("out", ()))))
    assert len(finals) == 1


# --- views kept across ticks -------------------------------------------------

def edited_closure_program() -> Program:
    """Paths that start with an edge or a shortcut and go on along edges and
    jumps; ticks can add and delete edges, add edges tentatively, add
    shortcuts, the base facts of `tc`, and add, clear or delete a node's
    jump targets. The rule for odd targets joins through a generator over
    `edges` and the rule for even targets through an `In` on it, so each
    resume path alone derives part of the result. `jumps` is a query over
    the rows of `hops`, which a merge replaces by a larger row, an
    assignment by an empty one and a deletion drops, and the rule that
    reads it joins right after a scan of `tc`. `low_jumps` filters each
    `hops` row before it reads the row's targets, a filter ahead of a later
    generator in a rule the graph backend keeps per table row."""
    e, p, c = Var("e"), Var("p"), Var("c")
    edge = ClassDecl("Edge", {"a": "int", "b": "int"}, key=("a", "b"))
    hop = ClassDecl("Hop", {"a": "int", "to": "set"}, key="a")

    def row(a, b):
        return MakeRow("Edge", a=a, b=b)

    def parity(x, bit):
        return BinOp("==", BinOp("%", x, Lit(2)), Lit(bit))

    tc = QueryDef(
        "tc", (),
        (Comp(e, (Gen("e", Data("edges")),)),
         Comp(row(Field(p, "a"), Field(e, "b")),
              (Gen("p", Data("tc")), Gen("e", Data("edges"))),
              (BinOp("==", Field(p, "b"), Field(e, "a")),
               parity(Field(e, "b"), 1))),
         Comp(row(Field(p, "a"), c),
              (Gen("p", Data("tc")), Gen("c", RangeOf(Lit(NODES)))),
              (In(row(Field(p, "b"), c), Data("edges")), parity(c, 0))),
         Comp(row(Field(p, "a"), c),
              (Gen("p", Data("tc")), Gen(("b", "c"), Data("jumps"))),
              (BinOp("==", Field(p, "b"), Var("b")),))),
        recursive=True)
    jumps = QueryDef(
        "jumps", (),
        (Comp(TupleOf(Field(Var("h"), "a"), Var("t")),
              (Gen("h", Data("hops")), Gen("t", Field(Var("h"), "to")))),))
    low_jumps = QueryDef(
        "low_jumps", (),
        (Comp(TupleOf(Field(Var("h"), "a"), Var("t")),
              (Gen("h", Data("hops")), Gen("t", Field(Var("h"), "to"))),
              (BinOp("<", Field(Var("h"), "a"), Lit(NODES // 2)),)),))
    new = row(Var("a"), Var("b"))
    params = {"a": "int", "b": "int"}
    return Program(
        "edited_closure",
        classes=(edge, hop),
        data=(DataDecl("edges", "table", cls="Edge"),
              DataDecl("tc", "table", cls="Edge"),
              DataDecl("hops", "table", cls="Hop")),
        queries=(tc, jumps, low_jumps),
        handlers=(
            Handler("link", params, (MergeMutation(TargetPath("edges"), new),)),
            Handler("cut", params,
                    (Delete(TargetPath("edges", TupleOf(Var("a"), Var("b")))),)),
            # accepted unless the new edge closes a cycle through itself
            Handler("link_acyclic", params,
                    (MergeMutation(TargetPath("edges"), new),),
                    consistency=ConsistencySpec("serializable", invariants=(
                        In(row(Var("b"), Var("a")), Data("tc"), negated=True),))),
            Handler("shortcut", params, (MergeMutation(TargetPath("tc"), new),)),
            Handler("hop", params, (MergeMutation(
                TargetPath("hops", Var("a"), "to"), Var("b")),)),
            # every clear of one node writes the same value, so two in one
            # tick do not conflict
            Handler("unhop", params, (Assign(
                TargetPath("hops", Var("a"), "to"), Lit(frozenset())),)),
            Handler("drop", params,
                    (Delete(TargetPath("hops", Var("a"))),)),
        ))


NODES = 6


def paths(edges, shortcuts, hops=None) -> frozenset:
    """(a, c) where a starts an edge or a shortcut to b and c is b or is
    reachable from b by breadth-first search over the edges and the jumps
    that `hops` rows hold."""
    jumps = [(h["a"], t) for h in (hops or {}).values() for t in h["to"]]
    reach = bfs_closure(list(edges) + jumps)
    return frozenset((a, c) for a, b in set(edges) | set(shortcuts)
                     for c in range(NODES) if c == b or (b, c) in reach)


ticks = st.lists(
    st.lists(st.tuples(st.sampled_from(("link", "cut", "link_acyclic",
                                        "shortcut", "hop", "unhop",
                                        "drop")),
                       st.integers(0, NODES - 1), st.integers(0, NODES - 1)),
             max_size=4),
    min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(ticks)
def test_kept_views_match_a_fresh_evaluation(schedule):
    program = edited_closure_program()
    t = Transducer(program)
    [low] = t.compiled.plans["low_jumps"].chains
    mid = itertools.count()
    for batch in schedule:
        for handler, a, b in batch:
            t.deliver(handler, request(next(mid), a=a, b=b))
        t.tick()
        snap = t.state.snapshot()
        fresh = GraphContext(program, snap, t.compiled)
        interp = InterpContext(program, snap)
        kept = t._context(snap)
        for q in ("jumps", "low_jumps", "tc"):
            assert kept.query_value(q) == fresh.query_value(q) \
                == interp.query_value(q)
        assert {(r["a"], r["b"]) for r in kept.query_value("tc")} == paths(
            snap.tables["edges"], snap.tables["tc"], snap.tables["hops"])


def test_a_resume_pass_agrees_with_a_fresh_evaluation_after_each_edit():
    """A grown `jumps` or `edges` is joined with the stored `tc` by the
    rule's one plan: a scan of `tc`, then a join. After every tick the
    facts are a fresh context's and the interpreter's. A tick that
    recomputes from the base facts takes a fresh context's rounds, and one
    that resumes takes fewer. The `jumps` join keeps its index of the
    query across ticks, while the `edges` join, whose source is a table,
    keeps none."""
    t = Transducer(edited_closure_program())
    joins = [s.op_id for c in t.compiled.groups[0].plans["tc"].chains
             for s in c.steps if s.kind == "hashjoin"]
    assert len(joins) == 2  # the rules that join `edges` and `jumps`
    mid = itertools.count()

    def change(before, after):
        if after is before:
            return None if after is None else "kept"
        if before is None:
            return "built"
        return "grown" if after[1] is before[1] else "rebuilt"

    # each tick's edits, its rounds, whether it recomputes, and what it does
    # to the kept indexes of the `edges` and `jumps` joins
    for edits, rounds, scratch, changes in (
            ((("link", 0, 1), ("hop", 1, 2)), 3, True, (None, "built")),
            ((("hop", 2, 3),), 2, False, (None, "grown")),
            ((("shortcut", 5, 3), ("hop", 3, 0)), 4, False, (None, "grown")),
            ((("cut", 0, 1),), 3, True, (None, "grown")),
            ((("hop", 3, 4),), 2, False, (None, "grown")),
            ((("link", 4, 5),), 2, False, (None, "grown"))):  # `edges` grew
        before = [t.views.get(j) for j in joins]
        for handler, a, b in edits:
            t.deliver(handler, request(next(mid), a=a, b=b))
        t.tick()
        snap = t.state.snapshot()
        ctx = t._context(snap)
        fresh = GraphContext(t.program, snap, t.compiled)
        assert ctx.query_value("tc") == fresh.query_value("tc") \
            == InterpContext(t.program, snap).query_value("tc")
        assert ctx.rounds == {"tc": rounds}
        assert (rounds == fresh.rounds["tc"]) if scratch \
            else (rounds < fresh.rounds["tc"])
        after = [t.views.get(j) for j in joins]
        assert tuple(map(change, before, after)) == changes


def test_kept_views_diverge_exactly_when_a_fresh_evaluation_does(
        monkeypatch):
    # a chain grown one edge per tick passes the cap at its third edge;
    # shortcuts then bring every path back to one edge
    monkeypatch.setattr(EvalContext, "max_rounds", 3)
    program = edited_closure_program()
    compiled = compile_queries(program)
    t = Transducer(program)
    chain = [(i, i + 1) for i in range(5)]
    shortcuts = [(a, b) for a in range(6) for b in range(a + 2, 6)]

    def outcome(ctx):
        try:
            return ctx.query_value("tc")
        except FixpointDivergence:
            return "diverged"

    seen = []
    for i, (a, b) in enumerate(chain + shortcuts):
        t.deliver("link", request(i, a=a, b=b))
        t.tick()
        snap = t.state.snapshot()
        fresh = outcome(GraphContext(program, snap, compiled))
        assert outcome(t._context(snap)) == fresh
        seen.append(fresh == "diverged")
    assert seen[:2] == [False, False] and seen[2] and not seen[-1]


def test_a_view_whose_input_is_read_whole_is_recomputed_when_it_grows():
    # every fact carries the size of `acc`, so the facts of a smaller `acc`
    # are not below the new result and resuming from them would keep them
    sized = QueryDef(
        "sized", (),
        (Comp(TupleOf(Var("x"), Len(Data("acc"))), (Gen("x", Data("acc")),)),
         Comp(Var("s"), (Gen("s", Data("sized")),))),
        recursive=True)
    p = Program("sized",
                data=(DataDecl("acc", "var", shape="set"),),
                queries=(sized,),
                handlers=(Handler("add", {"x": "int"},
                                  (MergeMutation(TargetPath("acc"), Var("x")),)),))
    t = Transducer(p)
    for i, x in enumerate((4, 7, 9)):
        t.deliver("add", request(i, x=x))
        t.tick()
        snap = t.state.snapshot()
        kept = t._context(snap).query_value("sized")
        assert kept == InterpContext(p, snap).query_value("sized")
        assert {n for _, n in kept} == {i + 1}


# a recursive rule of `reach` reads the table `nodes` outside its
# generators: by key, by a key membership, whose comprehension is nested in
# the rule, or under a fold; whether a grown `nodes` resumes the kept view
GATES = {
    "lookup": (Lookup("nodes", Field(Var("e"), "b")), True),
    "member": (In(Field(Var("e"), "b"),
                  Comp(Field(Var("n"), "k"), (Gen("n", Data("nodes")),))),
               True),
    "fold": (BinOp(">=", Fold("count", Comp(
        Var("n"), (Gen("n", Data("nodes")),),
        (BinOp("==", Field(Var("n"), "k"), Field(Var("e"), "b")),))), Lit(1)),
             False),
}


@pytest.mark.parametrize("gate, resumes", GATES.values(), ids=GATES.keys())
def test_a_rule_that_reads_a_table_by_element_resumes_as_it_grows(
        monkeypatch, gate, resumes):
    """`reach` follows edges into the nodes that `nodes` admits. A rule
    that reads `nodes` element by element resumes the kept view as `nodes`
    grows, and one that reads it under a fold recomputes from the base
    facts (see `analysis.rule_reads`); the graph backend answers like the
    interpreter after each tick."""
    e = Var("e")
    reach = QueryDef("reach", (), (
        Comp(TupleOf(Field(e, "a"), Field(e, "b")), (Gen("e", Data("edges")),)),
        Comp(TupleOf(Var("a"), Field(e, "b")),
             (Gen(("a", "b"), Data("reach")), Gen("e", Data("edges"))),
             (BinOp("==", Var("b"), Field(e, "a")), gate))), recursive=True)
    p = Program(
        "gated",
        classes=(ClassDecl("Edge", {"a": "int", "b": "int"}, key=("a", "b")),
                 ClassDecl("Node", {"k": "int"}, key="k")),
        data=(DataDecl("edges", "table", cls="Edge"),
              DataDecl("nodes", "table", cls="Node")),
        queries=(reach,),
        handlers=(
            Handler("link", {"a": "int", "b": "int"}, (MergeMutation(
                TargetPath("edges"), MakeRow("Edge", a=Var("a"), b=Var("b"))),)),
            Handler("admit", {"k": "int"}, (MergeMutation(
                TargetPath("nodes"), MakeRow("Node", k=Var("k"))),))))
    assert validate(p).ok
    [group] = compile_queries(p).groups
    assert ("nodes" in group.value_reads) is not resumes
    calls = collections.Counter()
    for name in ("_first_round", "_resume_round"):
        monkeypatch.setattr(runtime, name, lambda *args, f=getattr(
            runtime, name), name=name: calls.update([name]) or f(*args))
    t, mid = Transducer(p), itertools.count()
    for edits in ((("link", 1, 2), ("link", 2, 3), ("link", 3, 4)),
                  (("admit", 3),), (("admit", 4),),
                  (("link", 4, 5), ("admit", 5))):
        for handler, *args in edits:
            fields = dict(zip(("a", "b"), args)) if handler == "link" \
                else {"k": args[0]}
            t.deliver(handler, request(next(mid), **fields))
        t.tick()
        snap = t.state.snapshot()
        value = t._context(snap).query_value("reach")
        assert value == InterpContext(p, snap).query_value("reach")
    assert value == {(1, 2), (2, 3), (3, 4), (4, 5), (1, 3), (1, 4), (2, 4),
                     (1, 5), (2, 5), (3, 5)}
    assert calls == ({"_first_round": 1, "_resume_round": 3} if resumes
                     else {"_first_round": 4})


# --- one binding rule ----------------------------------------------------------

def both_backends(program, state):
    snap = state.snapshot()
    return (GraphContext(program, snap, compile_queries(program)),
            InterpContext(program, snap))


def chain_state(**var_elems):
    state = NodeState(CHAIN_PROGRAM)
    for name, elems in var_elems.items():
        state.vars[name] = frozenset(elems)
    return state


def test_a_repeated_binder_is_refused_instead_of_shadowed():
    # the graph backend used to test the first `x` and then bind the second,
    # giving {3, 4} where the interpreter gives frozenset()
    probe = Comp(Var("x"), (Gen("x", Data("nums")), Gen("x", Data("pairs"))),
                 (BinOp("==", Var("x"), Lit(1)),))
    graph, _ = both_backends(CHAIN_PROGRAM, chain_state(nums={1}, pairs={3, 4}))
    with pytest.raises(ValueError, match="binds 'x' twice"):
        graph.eval_comp(probe, {})


@pytest.mark.parametrize("comp", [
    Comp(Var("p"), (Gen(("p", "q"), Data("pairs")),)),
    # the join's build side unpacks the item to compute its key
    Comp(Var("p"), (Gen("x", Data("nums")), Gen(("p", "q"), Data("pairs"))),
         (BinOp("==", Var("p"), Var("x")),)),
], ids=["expand", "hashjoin"])
def test_a_wrong_length_tuple_item_raises_on_both_backends(comp):
    messages = []
    for ctx in both_backends(CHAIN_PROGRAM,
                             chain_state(nums={1}, pairs={(1, 2, 3)})):
        with pytest.raises(TypeError) as err:
            ctx.eval_comp(comp, {})
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0] == "binder ('p', 'q') needs 2 values, got (1, 2, 3)"


def test_a_json_list_of_the_right_length_binds():
    comp = Comp(TupleOf(Var("q"), Var("p")), (Gen(("p", "q"), Var("src")),))
    for ctx in both_backends(CHAIN_PROGRAM, chain_state()):
        assert ctx.eval_comp(comp, {"src": ([1, 2], (3, 4))}) == {(2, 1), (4, 3)}
        with pytest.raises(TypeError, match=r"needs 2 values, got \[5\]"):
            ctx.eval_comp(comp, {"src": ([5],)})


X, Z = Var("x"), Var("z")
ONE_OVER_X = BinOp("//", Lit(1), X)


@pytest.mark.parametrize("comp, pairs, expect", [
    # the guard on the outer `z` runs before the probe key that divides by it
    (Comp(X, (Gen("x", Data("nums")),),
          (BinOp("!=", Z, Lit(0)), BinOp("==", X, BinOp("//", Lit(1), Z)))),
     set(), frozenset()),
    # the join key divides by `x` only on rows that passed `x != 0`
    (Comp(X, (Gen("x", Data("nums")), Gen("i", Data("items"))),
          (BinOp("!=", X, Lit(0)),
           BinOp("==", Field(Var("i"), "k"), ONE_OVER_X))),
     set(), {1}),
    # a filter over `x` alone, and a join key, run at the level that binds
    # their names, ahead of a generator that yields nothing, on both
    # backends
    (Comp(X, (Gen("x", Data("nums")), Gen("t", Data("pairs"))),
          (BinOp("==", ONE_OVER_X, Lit(1)),)),
     set(), ZeroDivisionError),
    (Comp(X, (Gen("x", Data("nums")), Gen("i", Data("items")),
              Gen("t", Data("pairs"))),
          (BinOp("==", Field(Var("i"), "k"), ONE_OVER_X),)),
     set(), ZeroDivisionError),
    # and when that generator yields
    (Comp(X, (Gen("x", Data("nums")), Gen("t", Data("pairs"))),
          (BinOp("==", ONE_OVER_X, Lit(1)),)),
     {(1, 1)}, ZeroDivisionError),
], ids=["outer-guard", "join-guard", "filter-ahead", "join-ahead", "raises"])
def test_a_filter_sees_only_rows_that_passed_the_filters_before_it(
        comp, pairs, expect):
    state = chain_state(nums={0, 1}, pairs=pairs)
    state.tables["items"] = {(1,): Row(k=1, v=0, tags=frozenset())}
    for ctx in both_backends(CHAIN_PROGRAM, state):
        assert outcome(ctx, comp, {"z": 0}) == expect


def test_a_recursive_rule_filters_its_delta_before_a_later_generator():
    # the fixpoint's delta feeds the rule, whose filter runs at `x`'s level,
    # before `pairs` is read: it raises whether or not `pairs` yields
    r = QueryDef("r", (), (
        Comp(X, (Gen("x", Data("nums")),)),
        Comp(X, (Gen("x", Data("r")), Gen("t", Data("pairs"))),
             (BinOp("==", ONE_OVER_X, Lit(1)),))), recursive=True)
    p = Program("ahead", data=CHAIN_PROGRAM.data, queries=(r,))
    for pairs, expect in ((set(), ZeroDivisionError),
                          ({(1, 1)}, ZeroDivisionError)):
        state = NodeState(p)
        state.vars["nums"] = frozenset({0, 1})
        state.vars["pairs"] = frozenset(pairs)
        for ctx in both_backends(p, state):
            try:
                assert ctx.query_value("r") == expect
            except ZeroDivisionError:
                assert expect is ZeroDivisionError


# --- the interpreter's inline filters and outputs ------------------------------

def by_eval_expr(ctx, comp, env):
    """A comprehension's value with every source, filter and output evaluated
    by `eval_expr`, row by row: what the interpreter's inline shapes must
    give."""
    rows = [env]
    for gen in comp.gens:
        rows = [bind(r, gen.binder, item) for r in rows
                for item in iter_source(eval_expr(gen.source, r, ctx))]
    out = set()
    for r in rows:
        if all(truthy(eval_expr(f, r, ctx)) for f in comp.filters):
            v = eval_expr(comp.output, r, ctx)
            if v is not MISSING:
                out.add(v)
    return frozenset(out)


def inline_state():
    return chain_state(nums={1, 2, 3, 5}, pairs={(1, 2), (2, 2), (3, 1), (5, 3)})


O, P, Q = Var("o"), Var("p"), Var("q")
GEN_X, GEN_PQ = Gen("x", Data("nums")), Gen(("p", "q"), Data("pairs"))


@pytest.mark.parametrize("op", sorted(ARITH))
@pytest.mark.parametrize("outside", [2, MISSING], ids=["bound", "missing"])
def test_a_name_against_a_name_filters_like_eval_expr(op, outside):
    comps = [
        # a name bound outside against one the generator binds, both ways
        Comp(X, (GEN_X,), (BinOp(op, O, X),)),
        Comp(X, (GEN_X,), (BinOp(op, X, O),)),
        # a name from an earlier generator against the last one's
        Comp(TupleOf(X, Q), (GEN_X, GEN_PQ), (BinOp(op, X, P),)),
        Comp(TupleOf(X, Q), (GEN_X, GEN_PQ), (BinOp(op, Q, X),)),
    ]
    for comp in comps:
        values = {outcome(ctx, comp, {"o": outside})
                  for ctx in both_backends(CHAIN_PROGRAM, inline_state())}
        ctx = InterpContext(CHAIN_PROGRAM, inline_state().snapshot())
        try:
            want = by_eval_expr(ctx, comp, {"o": outside})
        except ZeroDivisionError:
            want = ZeroDivisionError
        assert values == {want}, comp
        if outside is MISSING and O in (comp.filters[0].left,
                                        comp.filters[0].right):
            assert want == frozenset()


def test_an_inline_filter_raises_on_an_unbound_name_like_eval_expr():
    interp = InterpContext(CHAIN_PROGRAM, inline_state().snapshot())
    for f in (BinOp("<", X, Var("nope")), BinOp("<", Var("nope"), X)):
        with pytest.raises(KeyError, match="nope"):
            eval_expr(f, {"x": 1}, interp)
        with pytest.raises(KeyError, match="nope"):
            interp.eval_comp(Comp(X, (GEN_X,), (f,)), {})


@pytest.mark.parametrize("f, expect", [
    # the right operand is never bound: a filter that read it would raise
    (BinOp("and", Var("no"), Var("nope")), frozenset()),
    (BinOp("or", Var("yes"), Var("nope")), frozenset({1, 2, 3, 5})),
], ids=["and", "or"])
def test_and_or_filters_still_short_circuit(f, expect):
    comp = Comp(X, (GEN_X,), (f,))
    env = {"no": False, "yes": True}
    interp = InterpContext(CHAIN_PROGRAM, inline_state().snapshot())
    assert interp.eval_comp(comp, dict(env)) == expect
    assert by_eval_expr(interp, comp, dict(env)) == expect


@pytest.mark.parametrize("output", [
    X, O, TupleOf(X, O), TupleOf(O, Q, P), TupleOf(),
], ids=["name", "outside-name", "pair", "triple", "empty-tuple"])
@pytest.mark.parametrize("outside", [2, MISSING], ids=["bound", "missing"])
def test_a_name_output_gives_what_eval_expr_gives(output, outside):
    comp = Comp(output, (GEN_X, GEN_PQ), (BinOp("<=", X, P),))
    interp = InterpContext(CHAIN_PROGRAM, inline_state().snapshot())
    want = by_eval_expr(interp, comp, {"o": outside})
    for ctx in both_backends(CHAIN_PROGRAM, inline_state()):
        assert ctx.eval_comp(comp, {"o": outside}) == want
    if outside is MISSING and O in getattr(output, "items", (output,)):
        # a name or a tuple holding MISSING contributes nothing
        assert want == frozenset()
    else:
        assert want


def test_a_missing_item_is_no_output():
    # a tuple source may hold MISSING; a row that binds it outputs nothing
    comp = Comp(TupleOf(X, O), (Gen("x", Var("src")),))
    interp = InterpContext(CHAIN_PROGRAM, inline_state().snapshot())
    env = {"src": (1, MISSING, 3), "o": 0}
    assert interp.eval_comp(comp, dict(env)) == {(1, 0), (3, 0)}
    assert interp.eval_comp(Comp(X, comp.gens), dict(env)) == {1, 3}
    assert by_eval_expr(interp, comp, dict(env)) == {(1, 0), (3, 0)}


@pytest.mark.parametrize("output", [
    X, TupleOf(X, O), BinOp("+", X, Lit(1)), Lit("any"),
], ids=["name", "pair", "arith", "literal"])
def test_a_missing_item_binds_alike_on_both_backends(output):
    # a slot bound from a named collection never holds MISSING; one bound
    # from another source may, and a chain's inline code tests it
    comp = Comp(output, (Gen("x", Var("src")),))
    env = {"src": (1, MISSING, 3), "o": 0}
    graph, interp = both_backends(CHAIN_PROGRAM, inline_state())
    assert graph.eval_comp(comp, dict(env)) == interp.eval_comp(comp, dict(env))


@pytest.mark.parametrize("e", [
    # an operator or a tuple evaluates every operand before it tests them
    # for MISSING, so 1 // 0 raises beside a MISSING operand
    BinOp("+", O, BinOp("//", Lit(1), X)),
    BinOp("+", BinOp("//", Lit(1), X), O),
    TupleOf(O, BinOp("//", Lit(1), X)),
    TupleOf(BinOp("//", Lit(1), X), Field(O, "k")),
    # a field of MISSING is MISSING, and reads nothing
    BinOp("==", Field(O, "k"), X),
    BinOp("-", Field(Field(O, "k"), "v"), Var("n")),
], ids=["right", "left", "tuple", "tuple-field", "field", "field-of-field"])
@pytest.mark.parametrize("outside", [Row(k=Row(v=1)), MISSING],
                         ids=["bound", "missing"])
def test_inline_code_keeps_the_missing_rules(e, outside):
    """A chain's function writes names, literals, field reads, operators and
    tuples inline, as filters and outputs, and gives what the interpreter
    gives, raising where it raises."""
    state = chain_state(nums={0, 1, 2})
    for comp in (Comp(e, (GEN_X,)), Comp(X, (GEN_X,), (e,))):
        env = {"o": outside, "n": 1}
        assert {outcome(ctx, comp, dict(env))
                for ctx in both_backends(CHAIN_PROGRAM, state)} == {
            outcome(InterpContext(CHAIN_PROGRAM, state.snapshot()), comp,
                    dict(env))}, comp


# --- order keys ------------------------------------------------------------------

def old_order_key(v):
    """The order of plain values written out apart from `lattice.order_key`:
    a Row, then a frozenset, then a tuple, then None, then a scalar by kind
    and value, each tested in that order."""
    if isinstance(v, Row):
        return (6, tuple((k, old_order_key(x)) for k, x in sorted(v.items())))
    if isinstance(v, frozenset):
        return (5, tuple(sorted(old_order_key(x) for x in v)))
    if isinstance(v, tuple):
        return (4, tuple(old_order_key(x) for x in v))
    if v is None:
        return (-1, 0)
    return ({bool: 0, int: 1, str: 2}[type(v)], v)


@settings(max_examples=300, deadline=None)
@given(ORDERED_VALUES, st.frozensets(ORDERED_VALUES, max_size=5))
def test_the_order_key_keeps_its_rule(v, values):
    assert order_key(v) == old_order_key(v)
    assert list(iter_source(values)) == sorted(values, key=old_order_key)


@settings(max_examples=300, deadline=None)
@given(ORDERED_VALUES, ORDERED_VALUES)
def test_the_order_key_is_total(a, b):
    """Any two plain values compare, without raising, and only equal values
    share a key, so every sort of them has one outcome."""
    ka, kb = order_key(a), order_key(b)
    assert (ka < kb) + (ka == kb) + (ka > kb) == 1
    if ka == kb:
        assert a == b
    assert sorted([a, b], key=order_key) == sorted([b, a], key=order_key)


def test_the_state_lists_a_mailbox_in_the_one_order():
    """A mailbox's messages are listed in `order_key` order, as a table's
    rows and a set's elements are; sorted by their JSON text, 10 came
    before 9."""
    p = Program("box", handlers=(Handler("put", {"n": "opaque"}, ()),))
    state = NodeState(p)
    for n in ("9", 10, 9):
        state.deliver("put", Row(n=n))
    assert canonical_state(state)["mailboxes"] == {"put": [
        {"row": {"n": 9}}, {"row": {"n": 10}}, {"row": {"n": "9"}}]}


# --- reading vars ---------------------------------------------------------------

def test_a_query_includes_the_set_var_of_its_name():
    p = Program("q", data=(DataDecl("q", "var", shape="set", init=[1, 2]),),
                queries=(QueryDef("q", (), (Comp(Lit(3), ()),)),))
    for ctx in both_backends(p, NodeState(p)):
        assert ctx.query_value("q") == {1, 2, 3}


def test_a_tuple_merged_into_a_set_is_one_element():
    p = Program(
        "sets", classes=(ITEM,),
        data=(DataDecl("items", "table", cls="Item"),
              DataDecl("acc", "var", shape="set")),
        handlers=(Handler("add", {"k": "int"}, (
            MergeMutation(TargetPath("acc"), TupleOf(Lit(1), Lit(None))),
            MergeMutation(TargetPath("items", Var("k"), "tags"),
                          TupleOf(Lit(1), Lit(None))))),))
    for backend in ("graph", "interp"):
        t = Transducer(p, backend=backend)
        t.deliver("add", request(0, k=7))
        t.tick()
        assert t.state.vars["acc"] == {(1, None)}
        assert t.state.tables["items"][(7,)]["tags"] == {(1, None)}


# --- access paths ----------------------------------------------------------------

def test_a_probe_over_a_kept_view_stays_right():
    """The index a probe keeps of `tc` grows with it, is rebuilt after a
    deletion, and is rebuilt again when a context reads the node's state
    after a fork's larger one; every answer is the interpreter's."""
    program = edited_closure_program()
    t = Transducer(program)
    probe = Comp(Field(Var("p"), "b"), (Gen("p", Data("tc")),),
                 (BinOp("==", Var("x"), Field(Var("p"), "a")),))
    mid = itertools.count()

    def index_after(state):
        snap = state.snapshot()
        ctx = t._context(snap)
        for x in range(NODES):
            assert ctx.eval_comp(probe, {"x": x}) == \
                InterpContext(program, snap).eval_comp(probe, {"x": x})
        [step] = [s for s in t.compiled.handler_expr(probe, None).steps
                  if s.kind == "hashjoin"]
        return t.views[step.op_id][1]

    def tick(*edits):
        for handler, a, b in edits:
            t.deliver(handler, request(next(mid), a=a, b=b))
        t.tick()
        return index_after(t.state)

    built = tick(("link", 0, 1), ("link", 1, 2))
    assert tick(("link", 2, 3)) is built                  # grown
    assert index_after(t.state) is built                  # reused
    rebuilt = tick(("cut", 1, 2))
    assert rebuilt is not built
    fork = t.state.fork()
    fork.tables["edges"] = {**fork.tables["edges"], (3, 4): Row(a=3, b=4)}
    assert index_after(fork) is rebuilt                   # grown in the fork
    assert index_after(t.state) is not rebuilt            # and dropped
    tick(("link_acyclic", 1, 0))                          # a cycle: rejected
    assert (1, 0) not in t.state.tables["edges"]
    tick(("link_acyclic", 3, 5))
    assert (3, 5) in t.state.tables["edges"]


def test_a_scan_then_join_agrees_with_the_interpreter():
    """A scan of `halves` joined with `items` on a key over the scan's names
    runs as one plan, whatever the sizes of the two sources: with fewer
    items than halves, as many, none, or an item key that cannot be
    hashed, every answer is the interpreter's. An empty scan reads no other
    source, so no item's key is evaluated and no item is unpacked."""
    # an item's key is its `v`, or the list [0] when it has a tag
    key = Index(TupleOf(Field(Var("i"), "v"), Lit([0])),
                Len(Field(Var("i"), "tags")))
    comp = Comp(TupleOf(Var("h"), Field(Var("i"), "k")),
                (Gen(("h", "half"), Data("halves")), Gen("i", Data("items"))),
                (BinOp("==", Var("half"), key),))
    compiled = compile_queries(CHAIN_PROGRAM)
    chain = compiled.handler_expr(
        comp, lambda c: compile_comp(c, CHAIN_PROGRAM))
    assert [s.kind for s in chain.steps] == [
        "expand", "hashjoin", "project"]

    def answer(nums, vs, tagged=()):
        state = chain_state(nums=nums)
        state.tables["items"] = {
            (k,): Row(k=k, v=v, tags=frozenset({0} if k in tagged else ()))
            for k, v in enumerate(vs)}
        snap = state.snapshot()
        graph = GraphContext(CHAIN_PROGRAM, snap, compiled)
        value = graph.eval_comp(comp, {})
        assert value == InterpContext(CHAIN_PROGRAM, snap).eval_comp(comp, {})
        return value

    for nums, vs, tagged, expect in (
            (range(6), (1, 2), (), {(2, 0), (3, 0), (4, 1), (5, 1)}),
            (range(10), (1, 4), (), {(2, 0), (3, 0), (8, 1), (9, 1)}),
            (range(4, 8), (2, 3), (), {(4, 0), (5, 0), (6, 1), (7, 1)}),
            (range(4, 8), (), (), frozenset()),
            (range(4, 8), (2, 2, 3, 3), (), {(4, 0), (5, 0), (4, 1), (5, 1),
                                            (6, 2), (7, 2), (6, 3), (7, 3)}),
            (range(4, 8), (2, 3), (0,), {(6, 1), (7, 1)})):
        assert answer(nums, vs, tagged) == expect
    # an empty scan reads no other source, so no item's key is evaluated and
    # no item is unpacked: 1 // 0 and a row bound to (a, b) would raise
    state = chain_state(nums=())
    state.tables["items"] = {(0,): Row(k=0, v=0, tags=frozenset())}
    snap = state.snapshot()
    for empty in (
            Comp(TupleOf(Var("h"), Field(Var("i"), "k")), comp.gens,
                 (BinOp("==", Var("half"),
                        BinOp("//", Lit(1), Field(Var("i"), "v"))),)),
            Comp(Var("h"), (comp.gens[0], Gen(("a", "b"), Data("items"))),
                 (BinOp("==", Var("half"), Var("a")),))):
        graph = GraphContext(CHAIN_PROGRAM, snap, compiled)
        assert graph.eval_comp(empty, {}) == frozenset() == \
            InterpContext(CHAIN_PROGRAM, snap).eval_comp(empty, {})


def test_a_scan_a_join_and_a_third_generator_agree_with_the_interpreter():
    """A scan, a join on the scan's names and a third generator joined on
    the scan's: the one plan runs them in the order written, with the
    interpreter's answer, when the join's source is the smaller."""
    comp = Comp(TupleOf(Var("h"), Var("q")),
                (Gen(("h", "half"), Data("halves")), Gen("i", Data("items")),
                 Gen(("p", "q"), Data("pairs"))),
                (BinOp("==", Var("half"), Field(Var("i"), "k")),
                 BinOp("==", Var("p"), Var("h"))))
    state = chain_state(nums=range(8), pairs={(h, h * 10) for h in range(8)})
    state.tables["items"] = {(k,): Row(k=k, v=0, tags=frozenset())
                             for k in (1, 3)}
    graph, interp = both_backends(CHAIN_PROGRAM, state)
    assert graph.eval_comp(comp, {}) == interp.eval_comp(comp, {}) == \
        {(2, 20), (3, 30), (6, 60), (7, 70)}
    assert [s.kind for s in compile_comp(comp, CHAIN_PROGRAM).steps] == [
        "expand", "hashjoin", "hashjoin", "project"]


@pytest.mark.parametrize("gens, own", [
    ((Gen(("h", "half"), Data("halves")),), Var("h")),   # a kept index
    ((Gen("h", Data("items")),), Field(Var("h"), "k")),  # a table
    # a join: `key` is bound by the comprehension, from `keys`
    ((Gen("key", Var("keys")), Gen("h", Data("items"))), Field(Var("h"), "k")),
], ids=["query", "table", "join"])
def test_an_unhashable_join_key_is_compared_like_the_interpreter(gens, own):
    # a list cannot be looked up in an index, so the join compares it with
    # each item, as the interpreter's filter does
    state = chain_state(nums={1, 2})
    state.tables["items"] = {(k,): Row(k=k, v=k, tags=frozenset())
                             for k in (1, 2)}
    comp = Comp(Lit("hit"), gens, (BinOp("==", own, Var("key")),))
    for key, expect in (([1, 2], frozenset()), (2, {"hit"})):
        for ctx in both_backends(CHAIN_PROGRAM, state):
            assert ctx.eval_comp(comp, {"key": key, "keys": (key,)}) == expect
    kinds = [s.kind for s in compile_comp(comp, CHAIN_PROGRAM).steps]
    assert kinds[-2:] == ["hashjoin", "project"]


def test_a_join_whose_source_keys_cannot_be_hashed_is_probed_by_rows():
    # payloads as JSON carries them, lists, bound by a tuple binder: a list
    # cannot key a dict, so the join's index of the mailbox is a list of
    # (key, entries), and each row's key, a list or a tuple, is compared
    # with every one of them
    box = ([1, [1, 2]], [2, [1, 2]], [3, [3]], [4, (3,)])
    comp = Comp(TupleOf(Var("i"), Var("j")),
                (Gen(("i", "a"), Data("box")), Gen(("j", "b"), Data("box"))),
                (BinOp("==", Var("b"), Var("a")),))
    assert [s.kind for s in compile_comp(comp, CHAIN_PROGRAM).steps] == \
        ["expand", "hashjoin", "project"]
    for ctx in both_backends(CHAIN_PROGRAM, chain_state()):
        ctx.firing["box"] = box
        assert ctx.eval_comp(comp, {}) == {(1, 1), (1, 2), (2, 1), (2, 2),
                                           (3, 3), (4, 4)}


def test_a_join_on_two_missing_keys_pairs_nothing():
    # MISSING == MISSING is no match for the interpreter's filter; the join
    # used to pair every row whose key was absent with every such item
    state = chain_state()
    state.tables["items"] = {(k,): Row(k=k, v=0, tags=frozenset())
                             for k in (1, 2)}
    comp = Comp(TupleOf(Field(Var("x"), "k"), Field(Var("y"), "k")),
                (Gen("x", Data("items")), Gen("y", Data("items"))),
                (BinOp("==", Field(Var("x"), "absent"),
                       Field(Var("y"), "absent")),))
    for ctx in both_backends(CHAIN_PROGRAM, state):
        assert ctx.eval_comp(comp, {}) == frozenset()


def test_a_key_membership_answers_like_the_interpreter():
    """`x in {i.k for i in items}` reads the table's dict on the graph
    backend, in a chain and in a handler statement; a list raises on both
    backends, as a set membership of it does."""
    state = chain_state(nums={0, 1, 2, 3})
    state.tables["items"] = {(k,): Row(k=k, v=0, tags=frozenset())
                             for k in (1, 3)}
    keys = Comp(Field(Var("i"), "k"), (Gen("i", Data("items")),))
    member = In(Var("x"), keys)
    in_chain = Comp(Var("y"), (Gen("y", Data("nums")),),
                    (In(Var("y"), keys),))
    for ctx in both_backends(CHAIN_PROGRAM, state):
        comps = []
        eval_comp = ctx.eval_comp
        ctx.eval_comp = lambda e, *args: comps.append(e) or eval_comp(e, *args)
        assert [ctx.eval(member, {"x": x}) for x in range(4)] == \
            [False, True, False, True]
        assert ctx.eval(In(Var("x"), keys, negated=True), {"x": 3}) is False
        assert ctx.eval(member, {"x": MISSING}) is MISSING
        assert eval_comp(in_chain, {}) == {1, 3}
        with pytest.raises(TypeError, match="unhashable"):
            ctx.eval(member, {"x": [1]})
        # only the interpreter builds the set of keys
        assert bool(comps) == isinstance(ctx, InterpContext)
        # `v` is not the key: its values are {0}
        values = Comp(Field(Var("i"), "v"), (Gen("i", Data("items")),))
        assert ctx.eval(In(Var("x"), values), {"x": 1}) is False


def test_a_handler_expression_evaluates_alike_on_both_backends():
    """`ctx.eval` at a handler's top level gives the same value on both
    backends for each of the 17 expression kinds, with MISSING operands and
    an `and` or `or` whose right side would raise and is not reached. A
    comprehension evaluated
    there, or directly under such an expression, compiles to the chain
    `compile_comp` gives it on its own, and the graph backend's `eval` and
    `eval_comp` share it."""
    state = chain_state(nums={0, 1, 2, 3}, pairs={(1, 2), (3, 4)})
    state.tables["items"] = {(k,): Row(k=k, v=k * 10, tags=frozenset({k}))
                             for k in (1, 3)}
    x, one, boom = Var("x"), Lit(1), BinOp("//", Lit(1), Lit(0))
    nums, items = Data("nums"), Data("items")
    keys = Comp(Field(Var("i"), "k"), (Gen("i", items),))
    scan_join = Comp(TupleOf(Var("h"), Field(Var("i"), "v")),
                     (Gen(("h", "half"), Data("halves")), Gen("i", items)),
                     (BinOp("==", Var("half"), Field(Var("i"), "k")),))
    exprs = [
        one, x, Data("halves"), nums, items, Data("pairs"),
        Field(Lookup("items", x), "v"), ABSENT, Field(ABSENT, "v"),
        Lookup("items", ABSENT),
        BinOp("+", x, one), BinOp("+", ABSENT, one), BinOp("==", x, ABSENT),
        BinOp("and", Lit(0), boom), BinOp("and", ABSENT, boom),
        BinOp("and", x, BinOp("<", x, Lit(5))),
        BinOp("or", Lit(3), boom), BinOp("or", Lit(0), ABSENT),
        BinOp("or", x, Lit("y")),
        Not(x), Not(ABSENT),
        In(x, nums), In(x, keys), In(x, keys, negated=True),
        In(ABSENT, keys), In(x, Field(Lookup("items", Lit(-1)), "tags")),
        TupleOf(x, one), TupleOf(x, ABSENT),
        Record((("a", x), ("b", Lit("s")))), Record((("a", ABSENT),)),
        MakeRow("Item", (("k", x),)), MakeRow("Item", (("k", ABSENT),)),
        Comp(BinOp("*", Var("n"), x), (Gen("n", nums),),
             (BinOp(">", Var("n"), Lit(0)),)),
        Comp(Var("a"), (Gen(("a", "b"), Data("pairs")),),
             (BinOp("==", Var("b"), BinOp("+", Var("a"), one)),)),
        scan_join, Comp(Var("i"), (Gen("i", RangeOf(x)),),
                        (In(Var("i"), keys),)),
        Fold("count", scan_join), In(TupleOf(Lit(3), Lit(30)), scan_join),
        Fold("count", nums), Fold("sum", nums), Fold("max", keys),
        Fold("min", Comp(Var("n"), (Gen("n", nums),),
                         (BinOp(">", Var("n"), Lit(9)),))),
        Fold("set", ABSENT), Fold("sum", RangeOf(x)),
        Len(nums), Len(ABSENT), RangeOf(x), RangeOf(ABSENT),
        Index(TupleOf(x, one), Lit(1)), Index(TupleOf(x, one), Lit(5)),
        Index(ABSENT, Lit(0)), Index(Lookup("items", Lit(1)), Lit("nope")),
        Slice(nums, one, Lit(3)), Slice(nums, ABSENT, one),
    ]
    assert {type(e) for e in exprs} == set(Expr.__args__)
    graph, interp = both_backends(CHAIN_PROGRAM, state)
    chains = []
    eval_comp = graph.eval_comp
    graph.eval_comp = lambda e, env, slots=(), chain=None: \
        chains.append((e, chain)) or eval_comp(e, env, slots, chain)
    for e in exprs:
        for v in (0, 1, 2):
            assert graph.eval(e, {"x": v}) == interp.eval(e, {"x": v}), e
    assert graph.eval(In(x, keys), {"x": 2}) is False
    for e in (BinOp("or", Lit(0), boom), BinOp("and", one, boom)):
        for ctx in (graph, interp):
            with pytest.raises(ZeroDivisionError):
                ctx.eval(e, {})
    # a comprehension directly under another expression passes its chain;
    # one evaluated alone is kept on `compiled`
    assert any(c is not None for e, c in chains if e is scan_join)
    for comp, chain in chains:
        chain = chain or graph.compiled.handler_expr(comp, None)
        alone = compile_comp(comp, CHAIN_PROGRAM)
        assert [s.kind for s in chain.steps] == [s.kind for s in alone.steps]
    assert graph.eval_comp(scan_join, {}) == graph.eval(scan_join, {}) \
        == interp.eval(scan_join, {})


# each operator as Python writes it: the reference for both backends
PYTHON_OPS = {
    "+": lambda a, b: a + b, "-": lambda a, b: a - b,
    "*": lambda a, b: a * b, "//": lambda a, b: a // b,
    "%": lambda a, b: a % b, "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b, "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b, ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def op_outcome(ctx, comp, env):
    try:
        return ctx.eval_comp(comp, env)
    except (ZeroDivisionError, TypeError) as exc:
        return type(exc)


@pytest.mark.parametrize("op", sorted(PYTHON_OPS))
def test_each_operator_evaluates_like_python_on_both_backends(op):
    """An arithmetic or comparison operator, as a filter and as an output,
    with its right operand a name bound outside or a literal: int operands
    give Python's value, a zero divisor or an int against a str raises
    Python's error, and a MISSING operand contributes nothing."""
    nums = {-3, 0, 2, 5}
    state = chain_state(nums=nums)
    x, fn = Var("x"), PYTHON_OPS[op]
    outcomes = {}
    for y in (2, -3, 0, "s"):
        try:
            want = (frozenset(v for v in nums if fn(v, y)),
                    frozenset(fn(v, y) for v in nums))
        except (ZeroDivisionError, TypeError) as exc:
            want = (type(exc), type(exc))
        for right in (Var("y"), Lit(y)):
            e = BinOp(op, x, right)
            for ctx in both_backends(CHAIN_PROGRAM, state):
                got = (op_outcome(ctx, Comp(x, (Gen("x", Data("nums")),),
                                            (e,)), {"y": y}),
                       op_outcome(ctx, Comp(e, (Gen("x", Data("nums")),)),
                                  {"y": y}))
                assert got == want, (e, y)
        outcomes[y] = want[1]
    if op in ("//", "%"):
        assert outcomes[0] is ZeroDivisionError
    if op == "<":
        assert outcomes["s"] is TypeError
    for e in (BinOp(op, x, ABSENT), BinOp(op, ABSENT, x)):
        for ctx in both_backends(CHAIN_PROGRAM, state):
            assert ctx.eval_comp(Comp(x, (Gen("x", Data("nums")),), (e,)),
                                 {}) == frozenset()
            assert ctx.eval_comp(Comp(e, (Gen("x", Data("nums")),)),
                                 {}) == frozenset()


def test_a_handler_reads_the_reply_address_of_its_message():
    """`_reply_to`, which validation lets a handler read, is the field of
    the message that carries it, in a `Return` and in a `when`, whether
    the handler's statements are quantified over its mailbox or run once
    per message; it used to be unbound and fail the first tick."""
    sent = BinOp("!=", Var(REPLY_TO), Lit("c2"))
    p = Program(
        "echo",
        data=(DataDecl("seen", "var", shape="set"),
              DataDecl("n", "var", scalar="int", init=0)),
        handlers=(
            Handler("echo", {"x": "int"}, (
                Return(Var(REPLY_TO)),
                MergeMutation(TargetPath("seen"),
                              TupleOf(Var("x"), Var(REPLY_TO)), when=sent))),
            Handler("each", {"x": "int"}, (
                Assign(TargetPath("n"), Lit(1)),
                Return(TupleOf(Var("x"), Var(REPLY_TO)), when=sent)))))
    assert validate(p).ok
    for backend in ("graph", "interp"):
        t = Transducer(p, backend=backend)
        for i, handler in enumerate(("echo", "echo", "each", "each")):
            t.deliver(handler, request(i, x=i, **{REPLY_TO: f"c{i % 2 + 1}"}))
        result = t.tick()
        assert sorted((m.mailbox, m.payload["payload"])
                      for m in result.sends) == [
            ("each<response>", (2, "c1")),
            ("echo<response>", "c1"), ("echo<response>", "c2")]
        assert t.state.vars["seen"] == {(0, "c1")}


# A filter over earlier names runs before a later generator, on both
# backends, so neither evaluates that generator's source, nor binds its
# items, for a row the filter rejects.
@pytest.mark.parametrize("comp, expect", [
    (Comp(Var("x"), (Gen("x", Data("nums")),
                     Gen("t", RangeOf(BinOp("//", Lit(1), Var("x"))))),
          (BinOp("!=", Var("x"), Lit(0)),)), {1}),
    (Comp(Var("x"), (Gen("x", Data("nums")), Gen(("a", "b"), Data("pairs"))),
          (BinOp("==", Var("x"), Lit(5)),)), frozenset()),
], ids=["range", "binder"])
def test_a_later_generator_meets_only_rows_that_passed_the_filters_before_it(
        comp, expect):
    for ctx in both_backends(CHAIN_PROGRAM,
                             chain_state(nums={0, 1}, pairs={7})):
        assert ctx.eval_comp(comp, {}) == expect


def test_a_tuple_key_is_one_value_of_a_one_field_key():
    """A one-field key holds a tuple as one value, in a keyed write, a
    `Lookup` and a key membership, on both backends; a two-field key given
    anything but a pair raises `ShapeMismatch`."""
    edge = ClassDecl("Edge", {"a": "int", "b": "int", "w": "int"},
                     key=("a", "b"))
    p = Program(
        "keys", classes=(ITEM, edge),
        data=(DataDecl("items", "table", cls="Item"),
              DataDecl("edges", "table", cls="Edge")),
        handlers=(
            Handler("put", {"a": "int", "b": "int"}, (MergeMutation(
                TargetPath("items", TupleOf(Var("a"), Var("b")), "tags"),
                Var("a")),)),
            Handler("weigh", {"a": "int"}, (MergeMutation(
                TargetPath("edges", Var("a"), "w"), Var("a")),))))
    pair = TupleOf(Lit(1), Lit(2))
    keys = Comp(Field(Var("i"), "k"), (Gen("i", Data("items")),))
    for backend in ("graph", "interp"):
        t = Transducer(p, backend=backend)
        t.deliver("put", request(0, a=1, b=2))
        t.tick()
        assert t.state.tables["items"] == {
            ((1, 2),): Row(k=(1, 2), v=None, tags=frozenset({1}))}
        ctx = t._context(t.state.snapshot())
        assert eval_expr(Field(Lookup("items", pair), "tags"), {}, ctx) == {1}
        assert eval_expr(Lookup("items", Lit(1)), {}, ctx) is MISSING
        assert [eval_expr(In(Var("x"), keys), {"x": x}, ctx)
                for x in ((1, 2), 1, (1,))] == [True, False, False]
        with pytest.raises(lattice.ShapeMismatch, match="needs 2 values"):
            eval_expr(Lookup("edges", Lit(1)), {}, ctx)
        t.deliver("weigh", request(1, a=1))
        with pytest.raises(lattice.ShapeMismatch, match="needs 2 values"):
            t.tick()


def test_an_eventual_handler_with_an_empty_mailbox_never_fires():
    """An eventual handler runs only on eligible messages, and a tick with
    no pending eventual message builds no context: every desugared
    statement loops over the messages or reads the mailbox, so even a keyed
    merge, whose key reads no message, creates no row on an idle tick."""
    p = Program(
        "idle", classes=(ITEM,),
        data=(DataDecl("items", "table", cls="Item"),),
        handlers=(Handler("touch", {"x": "int"}, (MergeMutation(
            TargetPath("items", Lit(1), "tags"),
            Comp(Field(Var("m"), "x"), (Gen("m", Data("touch")),))),),
            guard=BinOp(">=", Var("x"), Lit(5))),))
    for backend in ("graph", "interp"):
        t = Transducer(p, backend=backend)
        build = t._context
        t._context = lambda snapshot: pytest.fail("a context was built")
        assert t.tick().fired == []
        t._context = build
        t.deliver("touch", request(0, x=1))
        assert t.tick().fired == []
        assert t.state.tables["items"] == {}
        t.deliver("touch", request(1, x=7))
        assert t.tick().fired == ["touch"]
        # the comprehension over the mailbox reads the eligible message
        assert t.state.tables["items"] == {
            (1,): Row(k=1, v=None, tags=frozenset({7}))}
        assert t.state.mailboxes["touch"] == [request(0, x=1)]


# --- generated chain functions ---------------------------------------------------

# strings that would change a program if a chain's text held them as code
HOSTILE = ('"); import os; ("', "\n", "__import__")


def hostile_program() -> Program:
    """A program whose literals, table rows, a binder name and a handler's
    literals hold Python source."""
    note = ClassDecl("Note", {"k": "int", "text": "str"}, key=("k",))
    text = Field(Var("n"), "text")
    marked = QueryDef("marked", (), (
        Comp(TupleOf(text, Lit(HOSTILE[0])), (Gen("n", Data("notes")),),
             (BinOp("!=", text, Lit(HOSTILE[1])),)),
        Comp(TupleOf(Var("__import__"), Lit(HOSTILE[2])),
             (Gen(("__import__", "t"), Data("pairs")),),
             (BinOp("==", Var("t"), Lit(HOSTILE[2])),)),
        Comp(TupleOf(text, Var("t")),
             (Gen("n", Data("notes")), Gen(("u", "t"), Data("pairs"))),
             (BinOp("==", Var("u"), text),))))
    said = Var("text")
    jot = Handler("jot", {"text": "str"}, (Return(TupleOf(
        said, Lit(HOSTILE[0]), Field(Lookup("notes", Lit(0)), "text"))),),
        guard=BinOp("!=", said, Lit(HOSTILE[1])))
    return Program("hostile", classes=(note,),
                   data=(DataDecl("notes", "table", cls="Note"),
                         DataDecl("pairs", "var", shape="set")),
                   queries=(marked,), handlers=(jot,))


def test_generated_code_holds_no_value_of_the_program():
    """Literals, row values and names that hold Python source reach a
    chain's or a handler expression's function only as entries of its
    namespace: its text, as `analyze --inspect` prints it, holds no string
    and no name of the program, and the graph backend gives the
    interpreter's value. The same program compiled again reuses each
    chain's code object."""
    program = hostile_program()
    state = NodeState(program)
    state.tables["notes"] = {(k,): Row(k=k, text=text)
                             for k, text in enumerate(HOSTILE + ("plain",))}
    state.vars["pairs"] = frozenset((a, b) for a in HOSTILE for b in HOSTILE)
    snap = state.snapshot()
    compiled = compile_queries(program)
    value = GraphContext(program, snap, compiled).query_value("marked")
    assert value == InterpContext(program, snap).query_value("marked")
    assert len(value) == 10
    chains = compiled.plans["marked"].chains
    assert [s.kind for s in chains[1].steps] == ["hashjoin", "project"]
    for chain in chains:
        for word in ("'", '"', "import", "text", "notes", "pairs"):
            assert word not in chain.source
    again = compile_queries(hostile_program()).plans["marked"].chains
    for chain, twin in zip(chains, again, strict=True):
        assert twin.source == chain.source and twin.fn is not chain.fn
        assert twin.fn.__code__ is chain.fn.__code__
    [role] = lower(program).to_dict()["roles"].values()
    texts = role["source"]["handler:jot"]
    assert [t[0] for t in texts] == ["def expr(env, ctx):",
                                     "def chain(env, ctx, sources, slots):"]
    for word in ("'", '"', "import", "text", "notes"):
        assert not any(word in line for t in texts for line in t)
    replies = []
    for backend in ("graph", "interp"):
        t = Transducer(program, backend=backend)
        t.state.tables = state.tables
        for i, text in enumerate(HOSTILE):
            t.deliver("jot", request(i, text=text))
        replies.append(sorted(m.payload["payload"] for m in t.tick().sends))
    assert replies[0] == replies[1] == sorted(
        (text, HOSTILE[0], HOSTILE[0]) for text in HOSTILE
        if text != HOSTILE[1])


def test_deep_junctions_and_operators_compile():
    """The most generators, joined, with a last filter of 30 right-nested
    `and`s and `or`s and an output 60 operators deep that looks up rows,
    compile and give the interpreter's value: a skipped operand adds no
    block and no parenthesis."""
    xs = [Var(f"x{i}") for i in range(MAX_GENERATORS)]
    gens = [Gen(x.name, Data("nums")) for x in xs]
    joins = [BinOp("==", xs[i], xs[i - 1]) for i in range(1, len(xs))]
    last = BinOp("<", xs[-1], Lit(3))
    for k in range(30):
        leaf = BinOp("==" if k % 3 else "!=", xs[k % len(xs)], Lit(k % 4))
        last = BinOp("and" if k % 2 else "or", leaf, last)
    output = xs[0]
    for k in range(60):
        row = Lookup("items", xs[k % len(xs)])
        output = BinOp(("+", "-", "*")[k % 3], output,
                       Field(row, "v") if k % 2 else Lit(k % 5))
    comp = Comp(output, gens, joins + [last])
    state = chain_state(nums={0, 1, 2, 3})
    state.tables["items"] = {(k,): Row(k=k, v=k + 1, tags=frozenset())
                             for k in (1, 2)}
    graph, interp = both_backends(CHAIN_PROGRAM, state)
    want = interp.eval_comp(comp, {})
    assert graph.eval_comp(comp, {}) == want != frozenset()


def test_the_most_generators_and_many_filters_compile():
    """A chain's function nests one loop per generator and no block per
    filter: the most generators `ir.validate` allows compile, with a hundred
    filters, and give the interpreter's value; one more is refused."""
    gens = [Gen(f"x{i}", Data("nums")) for i in range(MAX_GENERATORS)]
    joins = [BinOp("==", Var(f"x{i}"), Var(f"x{i - 1}"))
             for i in range(1, MAX_GENERATORS)]
    bounds = [BinOp("<", Var("x0"), Lit(k)) for k in range(3, 103)]
    comp = Comp(Var(f"x{MAX_GENERATORS - 1}"), gens, joins + bounds)
    graph, interp = both_backends(CHAIN_PROGRAM, chain_state(nums={1, 2}))
    assert graph.eval_comp(comp, {}) == interp.eval_comp(comp, {}) == {1, 2}
    with pytest.raises(ValueError, match="more than"):
        compile_comp(Comp(Var("x0"), gens + [Gen("y", Data("nums"))]),
                     CHAIN_PROGRAM)
