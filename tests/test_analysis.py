"""Monotonicity classification, stratification, and cross-handler checks."""

import collections
from dataclasses import replace

import pytest

from latticeflow import analysis, ir
from latticeflow.analysis import (
    MetaconsistencyConflict, Read, Unstratifiable, calm_report,
    classify_handler, metaconsistency_conflicts, rule_reads, stratify,
)
from latticeflow.facets import facet_warnings
from latticeflow.ir import (
    Assign, BinOp, ClassDecl, Comp, ConsistencySpec, Data, DataDecl, Delete,
    Field, Fold, Gen, Handler, In, Index, Len, Lit, Lookup, MergeMutation,
    Not, Program, QueryDef, Return, Slice, TargetPath, TupleOf, UdfCall,
    UdfDecl, Var, validate,
)
from latticeflow.lowering import lower
from latticeflow.patterns import covid_program, get_pattern, sample_machines
from latticeflow.planner import solve
from latticeflow.scenario import build_scenario_cluster, load_scenario


def prog(handlers=(), queries=(), data=(), udfs=()):
    base_data = (DataDecl("acc", "var", shape="set"),
                 DataDecl("n", "var", scalar="int", init=0)) + tuple(data)
    return Program("t", data=base_data, handlers=tuple(handlers),
                   queries=tuple(queries), udfs=tuple(udfs))


def cls_of(p, name="h"):
    return classify_handler(p.handler_map[name], p)


def test_merge_is_monotone():
    p = prog([Handler("h", {"x": "int"},
                      (MergeMutation(TargetPath("acc"), Var("x")),))])
    assert cls_of(p).monotone


def test_assign_is_not_monotone():
    p = prog([Handler("h", {"x": "int"},
                      (Assign(TargetPath("n"), Var("x")),))])
    c = cls_of(p)
    assert not c.monotone
    assert any(rule == "assignment" for _, rule in c.reasons)


def test_delete_is_not_monotone():
    p = prog([Handler("h", {}, (Delete(TargetPath("acc")),))])
    assert any(rule == "deletion" for _, rule in cls_of(p).reasons)


def test_negation_is_not_monotone():
    p = prog([Handler("h", {"x": "int"},
                      (Return(Not(In(Var("x"), Data("acc")))),))])
    assert any(rule == "negation" for _, rule in cls_of(p).reasons)


def test_extrema_fold_is_not_monotone():
    p = prog([Handler("h", {}, (Return(Fold("max", Data("acc"))),))])
    assert any("non-monotone-fold" in rule for _, rule in cls_of(p).reasons)


def test_count_fold_is_monotone_source():
    p = prog([Handler("h", {},
                      (MergeMutation(TargetPath("acc"),
                                     Fold("set", Data("acc"))),))])
    assert cls_of(p).monotone


def test_scalar_var_read_is_not_monotone():
    p = prog([Handler("h", {}, (Return(Data("n")),))])
    assert any(rule == "scalar-var-read" for _, rule in cls_of(p).reasons)


def test_threshold_comparison_is_monotone():
    p = prog([Handler("h", {"k": "int"},
                      (MergeMutation(TargetPath("acc"), Var("k"),
                                     when=BinOp(">=", Len(Data("acc")),
                                                Lit(3))),))])
    assert cls_of(p).monotone


def test_threshold_flipped_orientation():
    p = prog([Handler("h", {"k": "int"},
                      (MergeMutation(TargetPath("acc"), Var("k"),
                                     when=BinOp("<", Lit(3),
                                                Len(Data("acc")))),))])
    assert cls_of(p).monotone


def test_non_threshold_state_comparison_is_not_monotone():
    # an == test against state can become false as state grows
    p = prog([Handler("h", {"k": "int"},
                      (MergeMutation(TargetPath("acc"), Var("k"),
                                     when=BinOp("==", Len(Data("acc")),
                                                Lit(3))),))])
    assert any(rule == "state-comparison" for _, rule in cls_of(p).reasons)


def test_threshold_with_stateful_bound_is_not_monotone():
    p = prog([Handler("h", {"k": "int"},
                      (MergeMutation(TargetPath("acc"), Var("k"),
                                     when=BinOp(">=", Len(Data("acc")),
                                                Data("n"))),))])
    assert not cls_of(p).monotone


SCALAR_TEST = BinOp("==", Data("n"), Lit(0))
THRESHOLD = BinOp(">=", Len(Data("acc")), Lit(3))


@pytest.mark.parametrize("when, guard, reasons", [
    (SCALAR_TEST, None, (("handler h stmt 0", "state-comparison"),
                         ("handler h stmt 0", "scalar-var-read"))),
    (THRESHOLD, None, ()),
    (None, SCALAR_TEST, (("handler h guard", "state-comparison"),
                         ("handler h guard", "scalar-var-read"))),
    (None, THRESHOLD, ()),
], ids=["scalar-when", "threshold-when", "scalar-guard", "threshold-guard"])
def test_a_condition_is_classified_like_any_expression(when, guard, reasons):
    """A merge gated on a comparison with a scalar var is not monotone, for
    the reasons `classify_expression` gives its `when`; a threshold, which
    it calls monotone, leaves the merge monotone. A handler's guard is
    classified the same way. The merge is keyed, so it runs once per
    message and keeps its `when` (a keyless one's becomes a filter of the
    comprehension it desugars to)."""
    item = ClassDecl("Item", {"k": "int", "tags": "set"}, key="k")
    p = prog([Handler("h", {"k": "int"},
                      (MergeMutation(TargetPath("items", Var("k"), "tags"),
                                     Var("k"), when=when),), guard=guard)],
             data=[DataDecl("items", "table", cls="Item")])
    p = replace(p, classes=(item,))
    assert validate(p).ok
    assert cls_of(p).reasons == reasons
    assert cls_of(p).monotone is (reasons == ())


def test_message_only_comparison_is_monotone():
    p = prog([Handler("h", {"a": "int", "b": "int"},
                      (MergeMutation(TargetPath("acc"), Var("a"),
                                     when=BinOp(">", Var("a"), Var("b"))),))])
    assert cls_of(p).monotone


def test_undeclared_udf_is_not_monotone():
    p = prog([Handler("h", {"x": "int"},
                      (UdfCall("f", (Var("x"),), binder="y"),
                       MergeMutation(TargetPath("acc"), Var("y"))))],
             udfs=[UdfDecl("f", 1, monotone=False, fn=lambda x: x)])
    assert any(rule == "undeclared-udf" for _, rule in cls_of(p).reasons)


def test_declared_monotone_udf_is_trusted():
    p = prog([Handler("h", {"x": "int"},
                      (UdfCall("f", (Var("x"),), binder="y"),
                       MergeMutation(TargetPath("acc"), Var("y"))))],
             udfs=[UdfDecl("f", 1, monotone=True, fn=lambda x: x)])
    assert cls_of(p).monotone
    assert "f" in calm_report(p).trusted_udfs


@pytest.mark.parametrize("monotone, reasons", [
    (True, ()), (False, (("handler h stmt 0", "undeclared-udf-fold"),)),
], ids=["declared-monotone", "not-declared-monotone"])
def test_a_udf_fold_is_monotone_only_by_declaration(monotone, reasons):
    p = prog([Handler("h", {}, (MergeMutation(
        TargetPath("acc"), Fold("udf:join", Data("acc"))),))],
             udfs=[UdfDecl("join", 2, monotone=monotone)])
    assert validate(p).ok
    assert cls_of(p).reasons == reasons and cls_of(p).monotone is monotone


def test_calm_coordination_free_requires_eventual():
    p = prog([
        Handler("mono", {"x": "int"},
                (MergeMutation(TargetPath("acc"), Var("x")),)),
        Handler("serial", {"x": "int"},
                (MergeMutation(TargetPath("acc"), Var("x")),),
                consistency=ConsistencySpec("serializable")),
        Handler("messy", {"x": "int"}, (Assign(TargetPath("n"), Var("x")),)),
    ])
    rep = calm_report(p)
    assert rep.coordination("mono") == "CoordinationFree"
    assert rep.coordination("serial") == "NeedsCoordination"
    assert rep.coordination("messy") == "NeedsCoordination"


def test_covid_classification():
    rep = calm_report(get_pattern("covid_tracker").program)
    assert set(rep.coordination_free) == {
        "add_contact", "add_person", "diagnose", "estimate", "trace"}
    assert rep.needs_coordination == ("vaccinate",)


# --- stratification ----------------------------------------------------------

def edge_q(name, src):
    return QueryDef(name, (), (Comp(Var("x"), (Gen("x", Data(src)),)),))


def test_negation_in_cycle_rejected():
    q1 = QueryDef("a", (), (Comp(
        Var("x"), (Gen("x", Data("b")),),
        (Not(In(Var("x"), Data("a"))),)),), recursive=True)
    q2 = edge_q("b", "a")
    p = prog(queries=[q1, q2])
    with pytest.raises(Unstratifiable):
        stratify(p)


def test_aggregation_in_cycle_rejected():
    q = QueryDef("a", (), (Comp(
        Fold("count", Data("a")), (Gen("x", Data("acc")),)),), recursive=True)
    with pytest.raises(Unstratifiable):
        stratify(prog(queries=[q]))


def test_negation_across_strata_allowed():
    q1 = edge_q("base", "acc")
    q2 = QueryDef("diff", (), (Comp(
        Var("x"), (Gen("x", Data("acc")),),
        (Not(In(Var("x"), Data("base"))),)),))
    sa = stratify(prog(queries=[q1, q2]))
    assert sa.strata["diff"] > sa.strata["base"]


def test_recursive_group_detected():
    p = get_pattern("covid_tracker").program
    sa = stratify(p)
    assert any("reachable" in g for g in sa.recursive_groups)
    assert not sa.is_recursive("contact_edges")


X = Var("x")
READ_CASES = {
    "generator": ((), X, ()),
    "nested-generator": (
        (In(X, Comp(Var("y"), (Gen("y", Data("c")),))),), X,
        (Read("c", "pos", False, False),)),
    "in-collection": ((In(X, Data("c")),), X,
                      (Read("c", "pos", False, False),)),
    "negated-in": ((In(X, Data("c"), negated=True),), X,
                   (Read("c", "neg", True, False),)),
    "not": ((Not(In(X, Data("c"))),), X, (Read("c", "neg", True, False),)),
    "fold": ((BinOp(">=", Fold("count", Data("c")), Lit(1)),), X,
             (Read("c", "agg", True, False),)),
    "len": ((BinOp(">=", Len(Data("c")), Lit(1)),), X,
            (Read("c", "agg", True, False),)),
    "negated-fold": ((Not(BinOp(">=", Fold("count", Data("c")), Lit(1))),), X,
                     (Read("c", "neg", True, False),)),
    "fold-of-a-negation": (
        (BinOp(">=", Fold("count", Comp(
            Var("y"), (Gen("y", Data("c")),), (Not(In(Var("y"), Data("d"))),))),
            Lit(1)),), X,
        (Read("c", "agg", True, False), Read("d", "neg", True, False))),
    "index-and-slice": (
        (BinOp("==", Index(Data("c"), Lit(0)), X),
         In(X, Slice(Data("d"), Lit(0), Lit(2)))), X,
        (Read("c", "pos", True, False), Read("d", "pos", True, False))),
    "lookup": ((BinOp("==", Field(Lookup("t", X), "v"), Data("c")),), X,
               (Read("t", "pos", False, False), Read("c", "pos", True, False))),
    "output": ((), TupleOf(X, Data("c")), (Read("c", "pos", True, False),)),
    "bare-data-in-a-filter": ((BinOp("==", Data("c"), Lit(1)),), X,
                              (Read("c", "pos", True, False),)),
}


@pytest.mark.parametrize("filters, output, reads", READ_CASES.values(),
                         ids=READ_CASES.keys())
def test_rule_reads_records_each_reference_once(filters, output, reads):
    """Each reference of a rule to a named collection is one record, in
    `_children` order after the generator's own `g`: its edge label (a
    negation wins over a fold), whether it reads the collection as one
    value, and whether a generator of the rule ranges over it."""
    body = Comp(output, (Gen("x", Data("g")),), filters)
    assert rule_reads(body) == (Read("g", "pos", False, True),) + reads


def test_strata_follow_the_longest_path_through_a_recursive_component():
    """`base` <-neg- `n1` <-neg- `n2`; the recursive component {m1, m2}
    reads `n1` positively and counts `n2`, so it sits one above `n2`; `top`
    reads `m1` positively and negates `base`, and `last` counts `m2`."""
    def q(name, source, *filters, recursive=False):
        return QueryDef(name, (), (Comp(X, (Gen("x", Data(source)),),
                                        filters),), recursive=recursive)
    count = BinOp(">=", Fold("count", Data("n2")), Lit(1))
    m1 = QueryDef("m1", (), (Comp(X, (Gen("x", Data("n1")),)),
                             Comp(X, (Gen("x", Data("m2")),))),
                  recursive=True)
    p = prog(queries=[
        q("base", "acc"),
        q("n1", "acc", Not(In(X, Data("base")))),
        q("n2", "acc", In(X, Data("n1"), negated=True)),
        m1, q("m2", "m1", count, recursive=True),
        q("top", "m1", Not(In(X, Data("base")))),
        q("last", "acc", BinOp(">=", Len(Data("m2")), Lit(1)))])
    sa = stratify(p)
    assert sa.strata == {"base": 0, "n1": 1, "n2": 2, "m1": 3, "m2": 3,
                         "top": 3, "last": 4}
    assert sa.recursive_groups == (frozenset({"m1", "m2"}),)


# --- metaconsistency ---------------------------------------------------------

def test_serializable_reading_dirty_data_conflicts():
    p = prog([
        Handler("messy", {"x": "int"}, (Assign(TargetPath("n"), Var("x")),)),
        Handler("serial", {},
                (MergeMutation(TargetPath("acc"), Data("n")),),
                consistency=ConsistencySpec("serializable")),
    ])
    conflicts = metaconsistency_conflicts(p)
    assert conflicts == [MetaconsistencyConflict("serial", "messy", "n")]


def test_a_read_through_queries_conflicts():
    # `serial` reads `n` only inside `above`, which it reads through `top`
    above = QueryDef("above", (), (Comp(Var("x"), (Gen("x", Data("acc")),),
                                        (BinOp(">", Var("x"), Data("n")),)),))
    top = QueryDef("top", (), (Comp(Var("x"), (Gen("x", Data("above")),)),))
    p = prog([
        Handler("messy", {"x": "int"}, (Assign(TargetPath("n"), Var("x")),)),
        Handler("serial", {},
                (MergeMutation(TargetPath("acc"), Data("top")),),
                consistency=ConsistencySpec("serializable")),
    ], queries=[above, top])
    assert metaconsistency_conflicts(p) == [
        MetaconsistencyConflict("serial", "messy", "n")]


def test_a_read_through_a_lookup_conflicts():
    # `serial` reads the table `people` only by key, in its guard, which
    # passes for a known person
    person = ClassDecl("Person", {"pid": "int", "name": "str"}, key="pid")
    p = prog([
        Handler("drop", {"pid": "int"},
                (Delete(TargetPath("people", Var("pid"))),)),
        Handler("serial", {"pid": "int"},
                (MergeMutation(TargetPath("acc"), Var("pid")),),
                consistency=ConsistencySpec("serializable"),
                guard=Lookup("people", Var("pid"))),
    ], data=[DataDecl("people", "table", cls="Person")])
    p = replace(p, classes=(person,))
    assert validate(p).ok
    assert metaconsistency_conflicts(p) == [
        MetaconsistencyConflict("serial", "drop", "people")]


def test_monotone_writers_do_not_conflict():
    p = prog([
        Handler("grow", {"x": "int"},
                (MergeMutation(TargetPath("acc"), Var("x")),)),
        Handler("serial", {"x": "int"},
                (MergeMutation(TargetPath("acc"), Var("x")),),
                consistency=ConsistencySpec("serializable")),
    ])
    assert metaconsistency_conflicts(p) == []


def test_invariant_reads_count():
    p = prog([
        Handler("messy", {"x": "int"}, (Assign(TargetPath("n"), Var("x")),)),
        Handler("serial", {"x": "int"},
                (MergeMutation(TargetPath("acc"), Var("x")),),
                consistency=ConsistencySpec(
                    "serializable",
                    invariants=(BinOp(">=", Data("n"), Lit(0)),))),
    ])
    assert len(metaconsistency_conflicts(p)) == 1


def test_patterns_are_conflict_free():
    from latticeflow.patterns import pattern_names
    for name in pattern_names():
        assert metaconsistency_conflicts(get_pattern(name).program) == []


def test_a_program_is_validated_once_and_each_handler_classified_once(
        monkeypatch):
    """What `latticeflow analyze` and a benchmark set-up run, and then the
    cluster build, share one validation report and one verdict per handler,
    kept on the program: lowering does not validate again, and the report,
    the metaconsistency check and the replication plan do not each
    classify every handler."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ir, "_validate", counted("validate", ir._validate))
    monkeypatch.setattr(analysis, "classify_handler",
                        counted("classify", analysis.classify_handler))
    program = covid_program(coordinated=True, vaccine_count=2)
    assert validate(program).ok
    calm_report(program)
    facet_warnings(program)
    metaconsistency_conflicts(program)
    stratify(program)
    lower(program)
    solve(program, sample_machines())
    sc = load_scenario({"program": "covid_tracker", "seed": 1, "workload": [
        {"tick": 0, "handler": "add_person",
         "fields": {"pid": 1, "name": "ana", "country": "ar"}}]})
    build_scenario_cluster(replace(sc, program=program)).close()
    assert calls == {"validate": 1, "classify": len(program.handlers)}
