"""Program validation, desugaring, and JSON round-trips."""

from dataclasses import replace

import pytest

from latticeflow.ir import (
    Assign, BinOp, ClassDecl, Comp, ConsistencySpec, Data, DataDecl, Field,
    ForEach, Gen, Handler, In, Lit, MakeRow, MergeMutation, Program, QueryDef,
    Record, Return, Send, TargetPath, UdfCall, UdfDecl, Var, desugar_handler,
    response_mailbox, validate,
)
from latticeflow.patterns import get_pattern, pattern_names
from latticeflow.progjson import program_from_json, program_to_json


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


def test_desugar_is_idempotent():
    for name in pattern_names():
        for h in get_pattern(name).program.handlers:
            once = desugar_handler(h)
            again = desugar_handler(Handler(h.name, h.params, tuple(once),
                                            consistency=h.consistency,
                                            guard=h.guard, role=h.role))
            assert once == again, h.name


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


def test_commit_record_fields_are_reserved():
    # a sequenced replica takes a message with `_ordered` for a commit
    # record; a record literal may still carry a message id
    p = tiny_program(
        classes=(ClassDecl("Item", {"k": "int", "_effects": "int"}, key="k"),),
        handlers=(Handler("h", {"_ordered": "int", "_message_id": "str"}, (
            Send("h", Record(_ordered=Lit(1), _message_id=Lit("m1"))),)),))
    assert sorted((e.code, e.message) for e in validate(p)) == [
        ("ReservedField", "class Item: field '_effects' is reserved"),
        ("ReservedField", "handler h: parameter '_message_id' is reserved"),
        ("ReservedField", "handler h: parameter '_ordered' is reserved"),
        ("ReservedField", "handler h: record field '_ordered' is reserved"),
    ]


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
