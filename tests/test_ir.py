"""Program validation, desugaring, and JSON round-trips."""

from dataclasses import replace

import pytest

from conftest import BARE_BODIES, LOOPS, loop_program
from latticeflow.ir import (
    MAX_GENERATORS, Assign, BinOp, ClassDecl, Comp, ConsistencySpec, Data,
    DataDecl, Field, ForEach, Gen, Handler, In, Len, Lit, Lookup, MakeRow,
    MergeMutation, Program, QueryDef, Record, Return, Send, TargetPath,
    UdfCall, UdfDecl, ValidationEntry, Var, desugar_handler,
    response_mailbox, validate,
)
from latticeflow.lowering import LoweringError
from latticeflow.patterns import get_pattern, pattern_names
from latticeflow.progjson import program_from_json, program_to_json
from latticeflow.sim import Cluster, NodeSpec


def tiny_program(**kw):
    defaults = dict(
        name="tiny",
        classes=(ClassDecl("Item", {"k": "int", "v": "set"}, key="k"),),
        data=(DataDecl("items", "table", cls="Item"),),
        handlers=(Handler("put", {"k": "int", "v": "int"},
                          (MergeMutation(TargetPath("items", Var("k"), "v"),
                                         Var("v")),
                           Return(Lit("ok")))),),
    )
    defaults.update(kw)
    return Program(**defaults)


def test_valid_program_passes():
    assert validate(tiny_program()).ok


def test_unknown_collection_rejected():
    p = tiny_program(queries=(QueryDef("q", (), (Comp(
        Var("x"), (Gen("x", Data("nope")),)),)),))
    rep = validate(p)
    assert any(e.code == "UnresolvedName" for e in rep)


def test_unbound_variable_rejected():
    p = tiny_program(handlers=(Handler("h", {}, (Return(Var("ghost")),)),))
    assert any(e.code == "UnresolvedName" for e in validate(p))


def test_merge_into_scalar_var_rejected():
    p = tiny_program(
        data=(DataDecl("items", "table", cls="Item"),
              DataDecl("n", "var", scalar="int", init=0)),
        handlers=(Handler("h", {"x": "int"},
                          (MergeMutation(TargetPath("n"), Var("x")),)),))
    assert any(e.code == "NotALattice" for e in validate(p))


def test_merge_into_opaque_field_rejected():
    p = tiny_program(
        classes=(ClassDecl("Item", {"k": "int", "v": "opaque"}, key="k"),))
    assert any(e.code == "NotALattice" for e in validate(p))


def test_udf_binder_visible_to_later_statements():
    p = tiny_program(
        udfs=(UdfDecl("f", 1, fn=lambda x: x),),
        handlers=(Handler("h", {"x": "int"},
                          (UdfCall("f", (Var("x"),), binder="y"),
                           Return(Var("y")))),))
    assert validate(p).ok


def test_udf_arity_checked():
    p = tiny_program(
        udfs=(UdfDecl("f", 2, fn=lambda a, b: a),),
        handlers=(Handler("h", {"x": "int"},
                          (UdfCall("f", (Var("x"),), binder="y"),)),))
    assert any(e.code == "ArityMismatch" for e in validate(p))


def test_duplicate_names_rejected():
    p = tiny_program(handlers=(
        Handler("h", {}, (Return(Lit(1)),)),
        Handler("h", {}, (Return(Lit(2)),))))
    assert any(e.code == "DuplicateName" for e in validate(p))


def test_availability_must_name_real_handler():
    p = tiny_program(availability={"ghost": __import__(
        "latticeflow.ir", fromlist=["AvailSpec"]).AvailSpec("az", 1)})
    assert any(e.code == "UnknownHandlerRef" for e in validate(p))


def test_desugar_produces_foreach_for_keyed_merge():
    h = tiny_program().handlers[0]
    stmts = desugar_handler(h)
    assert len(stmts) == 1 and isinstance(stmts[0], ForEach)
    assert stmts[0].mailbox == "put"


def test_a_desugared_loop_is_refused_as_a_handler_body():
    """`desugar_handler` writes a `ForEach`, the compiler's next stage, which
    is no source form: a pattern whose handler body is its own desugared
    form fails validation with one `ForEachInHandler` per loop."""
    loops = 0
    for name in pattern_names():
        p = get_pattern(name).program
        for h in p.handlers:
            stmts = desugar_handler(h)
            n = sum(isinstance(s, ForEach) for s in stmts)
            again = replace(p, handlers=tuple(
                replace(o, body=tuple(stmts)) if o is h else o
                for o in p.handlers))
            codes = [e.code for e in validate(again)]
            assert codes.count("ForEachInHandler") == n, h.name
            loops += n
    assert loops


@pytest.mark.parametrize("loop", LOOPS.values(), ids=LOOPS.keys())
def test_a_loop_in_a_handler_body_is_refused(loop):
    assert validate(loop_program(loop)).entries == (ValidationEntry(
        "ForEachInHandler", f"handler put: a loop over mailbox "
        f"{loop.mailbox!r} is desugared form, not a statement"),)
    # the surface form of the first loop is valid
    assert validate(loop_program(MergeMutation(TargetPath("acc"),
                                               Var("x")))).ok


@pytest.mark.parametrize("body", BARE_BODIES.values(), ids=BARE_BODIES.keys())
def test_a_query_body_that_is_not_a_comprehension_is_refused(body):
    p = replace(loop_program(), queries=(QueryDef("q", (), (body,)),))
    assert validate(p).entries == (ValidationEntry(
        "QueryBodyNotComprehension", f"query q: a rule body is a "
        f"{type(body).__name__}, not a comprehension"),)
    comp = Comp(Var("a"), (Gen("a", Data("acc")),))
    assert validate(replace(p, queries=(QueryDef("q", (), (comp,)),))).ok


def test_return_becomes_response_send():
    h = Handler("ask", {}, (Return(Lit(5)),))
    stmts = desugar_handler(h)
    assert isinstance(stmts[0], Send)
    assert stmts[0].mailbox == response_mailbox("ask")


def test_quantified_merge_prepends_mailbox_generator():
    h = Handler("add", {"x": "int"},
                (MergeMutation(TargetPath("items"),
                               MakeRow("Item", k=Var("x"))),))
    stmts = desugar_handler(h)
    s = stmts[0]
    assert isinstance(s, MergeMutation) and isinstance(s.expr, Comp)
    assert s.expr.gens[0].source == Data("add")


def test_json_roundtrip_all_patterns():
    for name in pattern_names():
        p = get_pattern(name).program
        assert program_from_json(program_to_json(p)) == p


def test_json_roundtrip_preserves_annotations():
    p = get_pattern("covid_tracker").program
    q = program_from_json(program_to_json(p))
    assert q.avail_for("vaccinate") == p.avail_for("vaccinate")
    assert q.target_for("estimate").features == ("GPU",)
    assert q.handler_map["vaccinate"].consistency.level == "serializable"


def test_json_reattaches_registered_udfs():
    p = get_pattern("futures").program
    q = program_from_json(program_to_json(p))
    fn = q.udf_map["future_fn"].fn
    assert fn is not None and fn(3) == p.udf_map["future_fn"].fn(3)


def test_a_comprehension_that_binds_a_name_twice_is_rejected():
    probe = Comp(Var("x"), (Gen("x", Data("items")), Gen("x", Data("items"))),
                 (BinOp("==", Var("x"), Lit(1)),))
    pair = Comp(Var("x"), (Gen(("x", "x"), Data("items")),))
    for body in (probe, pair):
        rep = validate(tiny_program(queries=(QueryDef("q", (), (body,)),)))
        assert [e.code for e in rep] == ["RepeatedBinder"], rep.entries
        assert "binds 'x' twice" in rep.entries[0].message


def test_a_comprehension_with_too_many_generators_is_rejected():
    def body(n):
        return Comp(Var("x0"), [Gen(f"x{i}", Data("items")) for i in range(n)])

    queries = (QueryDef("q", (), (body(MAX_GENERATORS),)),)
    assert validate(tiny_program(queries=queries)).ok
    queries = (QueryDef("q", (), (body(MAX_GENERATORS + 1),)),)
    rep = validate(tiny_program(queries=queries))
    assert [e.code for e in rep] == ["TooManyGenerators"], rep.entries


def test_the_message_id_is_reserved_as_a_parameter():
    # the cluster writes a request's message id; a record literal may still
    # carry one, and no other field name is reserved
    p = tiny_program(
        classes=(ClassDecl("Item", {"k": "int", "_effects": "int"}, key="k"),),
        handlers=(Handler("h", {"_ordered": "int", "_message_id": "str"}, (
            Send("h", Record(_ordered=Lit(1), _message_id=Lit("m1"))),)),))
    assert [(e.code, e.message) for e in validate(p)] == [
        ("ReservedField", "handler h: parameter '_message_id' is reserved")]


def put(*stmts):
    """`tiny_program`'s one handler, `put`, with body `stmts`."""
    return (Handler("put", {"k": "int", "v": "int"}, stmts),)


ITEM = ClassDecl("Item", {"k": "int", "v": "set"}, key="k")
COUNTER = (DataDecl("items", "table", cls="Item"),
           DataDecl("n", "var", scalar="int", init=0))


@pytest.mark.parametrize("kw, code, message", [
    (dict(classes=(replace(ITEM, key=("id",)),)),
     "BadKey", "class Item: key field 'id' not declared"),
    (dict(classes=(replace(ITEM, partition="zone"),)),
     "BadPartition", "class Item: partition field 'zone' not declared"),
    (dict(classes=(replace(ITEM, fields=(("k", "int"), ("v", "list"))),),
          handlers=()),
     "BadFieldType", "class Item.v: 'list'"),
    (dict(data=(DataDecl("items", "table", cls="Thing"),), handlers=()),
     "UnknownClass", "table items: class 'Thing' undeclared"),
    (dict(handlers=put(MergeMutation(TargetPath("items"),
                                     MakeRow("Thing", k=Var("k"))))),
     "UnknownClass", "handler put: class 'Thing'"),
    (dict(data=(DataDecl("items", "table", cls="Item"),
                DataDecl("log", "list"))),
     "BadDataKind", "log: kind 'list'"),
    (dict(data=COUNTER,
          handlers=put(Assign(TargetPath("n", Var("k")), Var("v")))),
     "NotATable", "handler put: keyed target on var 'n'"),
    (dict(handlers=put(Assign(TargetPath("ghost"), Var("v")))),
     "UnresolvedName", "handler put: unknown data 'ghost'"),
    (dict(data=COUNTER, handlers=put(Return(Lookup("n", Var("k"))))),
     "UnresolvedName", "handler put: lookup on non-table 'n'"),
    (dict(handlers=put(Send("ghost", Record(k=Var("k"))))),
     "UnresolvedName", "handler put: send to unknown mailbox 'ghost'"),
    (dict(handlers=put(UdfCall("ghost", (Var("k"),)))),
     "UnresolvedName", "handler put: unknown udf 'ghost'"),
    (dict(data=(DataDecl("items", "table", cls="Item"),
                DataDecl("seen", "var", shape="set")),
          queries=(QueryDef("seen", (), (Comp(Field(Var("i"), "k"),
                                              (Gen("i", Data("items")),)),)),),
          handlers=put(MergeMutation(TargetPath("seen"), Var("k")))),
     "QueryVarMergeConflict",
     "query 'seen' replaces var also merge-mutated in put"),
], ids=["BadKey", "BadPartition", "BadFieldType", "UnknownClass-table",
        "UnknownClass-row", "BadDataKind", "NotATable", "unknown-target",
        "lookup-on-var", "unknown-mailbox", "unknown-udf",
        "QueryVarMergeConflict"])
def test_each_validation_code_names_its_fault(kw, code, message):
    assert [(e.code, e.message) for e in validate(tiny_program(**kw))] == [
        (code, message)]


def test_handler_invariants_are_validated():
    p = get_pattern("covid_tracker").program
    bad = ConsistencySpec("serializable", invariants=(
        In(Var("nope"), Data("no_such_table")),))
    handlers = tuple(replace(h, consistency=bad) if h.name == "vaccinate"
                     else h for h in p.handlers)
    rep = validate(replace(p, handlers=handlers))
    assert sorted(e.message for e in rep) == [
        "handler vaccinate invariant: unbound variable 'nope'",
        "handler vaccinate invariant: unknown collection 'no_such_table'",
    ]
    # the invariant sees what the guard sees: the params and the message ids
    ok = ConsistencySpec("serializable", invariants=(
        BinOp("!=", Var("_message_id"), Var("pid")),))
    handlers = tuple(replace(h, consistency=ok) if h.name == "vaccinate"
                     else h for h in p.handlers)
    assert validate(replace(p, handlers=handlers)).ok


@pytest.mark.parametrize("stmt", [
    Assign(TargetPath("items", Lit(1), "k"), Lit(5)),
    MergeMutation(TargetPath("items", Var("k"), "k"), Var("v")),
], ids=["assign", "merge"])
def test_a_write_to_a_key_field_is_rejected(stmt):
    # the row would stay stored under key (1,) while its `k` said 5, so a
    # lookup by key and a scan of the `k` fields would disagree
    p = tiny_program(handlers=(Handler("put", {"k": "int", "v": "int"},
                                       (stmt,)),))
    # (merging into the int field is also a NotALattice)
    found = [e.message for e in validate(p) if e.code == "KeyFieldWrite"]
    assert found == ["handler put: write to key field items.k"]
    for name in pattern_names():
        assert validate(get_pattern(name).program).ok, name


def mailbox_clash_program(name: str = "items") -> Program:
    """A table `items` (one row, k=7) and a query `seen`; handler `name`
    merges the `k` of each message in its mailbox into `got`."""
    return tiny_program(
        data=(DataDecl("items", "table", cls="Item"),
              DataDecl("got", "var", shape="set")),
        queries=(QueryDef("seen", (), (Comp(Field(Var("i"), "k"),
                                            (Gen("i", Data("items")),)),)),),
        handlers=(Handler(name, {"k": "int"}, (MergeMutation(
            TargetPath("got"),
            Comp(Field(Var("m"), "k"), (Gen("m", Data(name)),))),)),))


@pytest.mark.parametrize("name, kind", [("items", "data"), ("seen", "query")])
def test_a_handler_named_like_a_collection_is_rejected(name, kind):
    # the comprehension over the handler's mailbox would read the table or
    # the query of the same name: with a row k=7 and a message k=1, both
    # backends merged {7} into `got`
    rep = validate(mailbox_clash_program(name))
    assert [(e.code, e.message) for e in rep] == [
        ("HandlerNameClash", f"handler {name!r} has the name of a {kind}")]
    assert validate(mailbox_clash_program("put")).ok


def queued_program() -> Program:
    """Serializable `take`, whose statement assigns, and whose invariant
    reads, the size of a query over `take`'s own mailbox."""
    queued = Comp(Field(Var("m"), "x"), (Gen("m", Data("take")),))
    return tiny_program(
        data=(DataDecl("n", "var", scalar="int", init=0),),
        queries=(QueryDef("queued", (), (queued,)),),
        handlers=(Handler(
            "take", {"x": "int"},
            (Assign(TargetPath("n"), Len(Data("queued"))),),
            consistency=ConsistencySpec("serializable", invariants=(
                BinOp(">=", Len(Data("queued")), Lit(0)),))),))


@pytest.mark.parametrize("backend", ["graph", "interp"])
def test_a_query_over_a_mailbox_is_rejected(backend):
    # a context memoizes a query's value once, but a mailbox shows the
    # invariants every pending message and the statements only the firing
    # one: run on its predecessor's check context, the second of three
    # requests decided in one tick would assign n = 2, not 1
    rep = validate(queued_program())
    assert [(e.code, e.message) for e in rep] == [
        ("QueryReadsMailbox", "query queued: reads mailbox 'take'")]
    with pytest.raises(LoweringError, match="QueryReadsMailbox"):
        Cluster(queued_program(), [NodeSpec("n1")],
                {"take": ["n1"]}, backend=backend)
