"""Command-line entry points and exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from conftest import (BARE_BODIES, DEMO, LOOPS, capped_set_program,
                      loop_program, unlowerable_program)

from latticeflow.cli import (
    EXIT_CLOSED_PIPE, EXIT_INFEASIBLE, EXIT_NO_QUIESCENCE, EXIT_OK,
    EXIT_RUNTIME, EXIT_VALIDATION, main,
)
from latticeflow.ir import (
    Assign, AvailSpec, BinOp, ClassDecl, Comp, ConsistencySpec, Data,
    DataDecl, Fold, Gen, Handler, Lit, MergeMutation, Program, QueryDef,
    Record, Return, Send, TargetPath, TupleOf, UdfDecl, Var,
)
from latticeflow import progjson
from latticeflow.patterns import covid_program
from latticeflow.progjson import program_to_json
from latticeflow.scenario import ScenarioError, load_scenario, run_scenario
from latticeflow.sim import trace_text
from latticeflow.state import UdfFailure


def scenario_dict(**kw):
    sc = {
        "program": "covid_tracker",
        "seed": 3,
        "network": {"delay_min": 1, "delay_max": 4},
        "workload": [
            {"tick": 0, "client": "c1", "handler": "add_person",
             "fields": {"pid": 1, "name": "ana", "country": "ar"}},
            {"tick": 4, "client": "c1", "handler": "trace",
             "fields": {"pid": 1}},
        ],
    }
    sc.update(kw)
    return sc


def write_scenario(tmp_path, **kw):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_dict(**kw)))
    return str(path)


def test_analyze_pattern(capsys):
    assert main(["analyze", "covid_tracker"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "vaccinate" in out and "NeedsCoordination" in out
    assert "CoordinationFree" in out


def test_analyze_inspect_prints_plan(capsys):
    assert main(["analyze", "mpi_collectives", "--inspect"]) == EXIT_OK
    assert '"routes"' in capsys.readouterr().out


def run_in_a_new_process(*args, hash_seed="0", **kw):
    """The CLI run with `args` in a process of its own, from the source
    tree, under PYTHONHASHSEED `hash_seed`."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "latticeflow", *args],
                          env=env, timeout=120, **kw)


def test_inspect_prints_each_rules_function_alike_under_any_hash_seed():
    out = [run_in_a_new_process("analyze", "covid_tracker", "--inspect",
                                hash_seed=seed, check=True,
                                capture_output=True).stdout
           for seed in ("1", "2")]
    assert out[0] == out[1]
    plan = json.loads(out[0][out[0].index(b"\n{") + 1:])
    [role] = plan["roles"].values()
    first, joined = role["source"]["query:reachable"]
    assert first[0] == joined[0] == "def chain(env, ctx, sources, slots):"
    # one plan per rule: the chain's function, then its join's index
    # function, and no other that runs in its place
    assert joined.count("def chain(env, ctx, sources, slots):") == 1
    assert [line for line in joined if line.startswith("def ")] == [
        "def chain(env, ctx, sources, slots):",
        "def index(items, env, ctx, out):"]


def test_a_closed_pipe_ends_without_a_traceback():
    """As `analyze --inspect | head -1` may: the reader is gone before the
    output ends, here before the process writes anything."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = run_in_a_new_process("analyze", "covid_tracker", "--inspect",
                                    stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert done.returncode == EXIT_CLOSED_PIPE
    assert b"Traceback" not in done.stderr
    assert b"BrokenPipeError" not in done.stderr


def test_analyze_unknown_program():
    assert main(["analyze", "no_such_thing"]) == EXIT_VALIDATION


def test_simulate_scenario(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["simulate", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "quiesced at tick" in out
    assert "response c1/" in out


def test_simulate_trace_and_inspect(tmp_path, capsys):
    path = write_scenario(tmp_path)
    trace = tmp_path / "trace.jsonl"
    assert main(["simulate", path, "--trace", str(trace),
                 "--inspect"]) == EXIT_OK
    lines = trace.read_text().strip().splitlines()
    assert lines and all(json.loads(ln)["kind"] for ln in lines)
    assert '"tables"' in capsys.readouterr().out


def test_simulate_seed_override_is_deterministic(tmp_path, capsys):
    path = write_scenario(tmp_path)
    outs = []
    for _ in range(2):
        assert main(["simulate", path, "--seed", "9"]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert main(["simulate", path, "--seed", "10"]) == EXIT_OK
    assert capsys.readouterr().out != outs[0]


def test_simulate_multiple_seeds(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["simulate", path, "--seeds", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("quiesced at tick") == 3


def test_simulate_with_no_seed_to_run_is_an_input_error(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["simulate", path, "--seeds", "0"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: --seeds 0: runs no seed\n")


def test_a_trace_path_that_cannot_be_written_is_an_input_error(tmp_path,
                                                                capsys):
    path = write_scenario(tmp_path)
    trace = tmp_path / "missing" / "t.jsonl"
    assert main(["simulate", path, "--trace", str(trace)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(trace) in err


def test_simulate_interp_backend_agrees(tmp_path, capsys):
    path = write_scenario(tmp_path)
    assert main(["simulate", path, "--backend", "graph"]) == EXIT_OK
    graph_out = capsys.readouterr().out
    assert main(["simulate", path, "--backend", "interp"]) == EXIT_OK
    assert capsys.readouterr().out == graph_out


def test_simulate_rejects_bad_scenario(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(scenario_dict(seed="not-an-int")))
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    path.write_text(json.dumps({"program": "covid_tracker"}))
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    path.write_text("{ not json")
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    late = dict(scenario_dict()["workload"][0], tick=-4)
    for fields in ({"failures": [{"tick": -1, "domain": ["dc0", "az0"]}]},
                   {"workload": [late]}):
        path.write_text(json.dumps(scenario_dict(**fields)))
        assert main(["simulate", str(path)]) == EXIT_VALIDATION


def test_simulate_unknown_workload_field(tmp_path):
    sc = scenario_dict()
    sc["workload"][0]["frobnicate"] = 1
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sc))
    assert main(["simulate", str(path)]) == EXIT_VALIDATION


def test_simulate_no_quiescence(tmp_path):
    path = write_scenario(tmp_path, max_ticks=1)
    assert main(["simulate", path]) == EXIT_NO_QUIESCENCE


def test_inline_program_simulates_like_the_named_pattern():
    inline = json.loads(program_to_json(covid_program()))
    traces = []
    for program in ("covid_tracker", inline):
        sc = load_scenario(scenario_dict(program=program))
        traces.append(trace_text(run_scenario(sc)))
    assert traces[0] == traces[1]


def test_simulate_reports_a_failing_udf_without_a_traceback(tmp_path, capsys):
    text = program_to_json(covid_program()).replace('"covid_predict"',
                                                    '"not_registered"')
    sc = scenario_dict(program=json.loads(text))
    sc["workload"].append({"tick": 2, "client": "c1", "handler": "estimate",
                           "fields": {"pid": 1, "symptoms": 3}})
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sc))
    assert main(["simulate", str(path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"seed 3: UdfFailure at tick \d+ on node n\d+ in handler estimate: "
        r"udf 'not_registered' has no host implementation\n", err), err


def test_a_udf_result_that_is_not_hashable_is_refused_with_its_node(
        tmp_path, capsys, monkeypatch):
    """A `covid_predict` that returns a list fails where its result enters,
    in the demo's `estimate` request, not where a row holding it is first
    hashed."""
    monkeypatch.setitem(progjson._UDF_REGISTRY, "covid_predict",
                        lambda symptoms: [symptoms])
    raw = json.loads(DEMO.read_text())
    raw["program"] = json.loads(program_to_json(covid_program()))
    with pytest.raises(UdfFailure, match="udf 'covid_predict' returned a "
                       "value that is not hashable") as info:
        run_scenario(load_scenario(raw))
    assert info.value.node_id.startswith("n") and info.value.tick >= 6
    assert info.value.handlers == ("estimate",)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(raw))
    assert main(["simulate", str(path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"seed 7: UdfFailure at tick \d+ on node n\d+ in handler estimate: "
        r"udf 'covid_predict' returned a value that is not hashable "
        r"\(unhashable type: 'list'\)\n", err), err


@pytest.mark.parametrize("case, kind", [
    ("negated-self", "Unstratifiable"),
    ("negated-base-var", "NonMonotoneRecursion"),
    ("member-read", "NonMonotoneRecursion"),
], ids=["negated-self", "negated-base-var", "member-read"])
def test_a_program_that_validates_but_does_not_lower_is_an_input_error(
        tmp_path, capsys, case, kind):
    """`simulate` reports such a program in one `error:` line and exits 2
    on either backend, and `analyze` in one `lowering failed:` line,
    neither with a traceback."""
    program = json.loads(program_to_json(unlowerable_program(case)))
    path = write_scenario(tmp_path, program=program, workload=[
        {"tick": 0, "client": "c1", "handler": "put", "fields": {"x": x}}
        for x in (1, 2, 3, 5)] + [
        {"tick": 4, "client": "c1", "handler": "get", "fields": {}}])
    for backend in ("graph", "interp"):
        assert main(["simulate", path, "--backend", backend]) \
            == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: lowering failed: {kind}: [^\n]+\n",
                            err), err
    program_path = tmp_path / "program.json"
    program_path.write_text(json.dumps(program))
    assert main(["analyze", str(program_path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert re.fullmatch(rf"lowering failed: {kind}: [^\n]+\n", err), err


def test_an_invariant_on_a_handler_that_is_not_serializable_is_invalid(
        tmp_path, capsys):
    """Only the sequencer checks invariants, so one declared on an eventual
    handler would never be checked: `analyze` and `simulate` refuse it in
    one `invalid:` line, and accept the same handler when serializable."""
    program = json.loads(program_to_json(capped_set_program("eventual")))
    program_path = tmp_path / "program.json"
    program_path.write_text(json.dumps(program))
    scenario_path = write_scenario(tmp_path, program=program, workload=[
        {"tick": 0, "client": "c1", "handler": "add", "fields": {"x": x}}
        for x in range(5)])
    line = ("invalid: InvariantWithoutSequencing: handler add: invariants "
            "are checked only on a serializable handler, and this one is "
            "'eventual'\n")
    for argv in (["analyze", str(program_path)], ["simulate", scenario_path]):
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == line
    program_path.write_text(program_to_json(capped_set_program("serializable")))
    assert main(["analyze", str(program_path)]) == EXIT_OK


@pytest.mark.parametrize("fields, message", [
    ({"failures": [{"tick": 2, "domain": ["dc0", "az0"]},
                   {"tick": 5, "domain": ["dc7"]}]},
     "error: failures[1]: no node under failure domain ['dc7']\n"),
    ({"failure_domains": [["dc0", "az0", "rack0", "vm0"],
                          ["dc0", "az1", "rack0", "vm0"]]},
     "error: handler 'add_contact' needs 3 distinct az domains, "
     "topology offers 2\n"),
    ({"nodes": [{"id": "w1", "role": "backup", "domain": ["dc0", "az0"]}]},
     "error: handler 'add_person': no worker node has role 'main'\n"),
], ids=["unmatched-failure-domain", "too-few-domains", "handler-without-node"])
def test_simulate_rejects_a_cluster_it_cannot_build(tmp_path, capsys, fields,
                                                    message):
    path = write_scenario(tmp_path, **fields)
    assert main(["simulate", path]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == message
    assert captured.out == ""


def person(**payload):
    return {"tick": 0, "client": "c1", "handler": "add_person",
            "fields": dict({"pid": 1, "name": "ana", "country": "ar"},
                           **payload)}


def failure(tick, domain=None):
    return {"failures": [{"tick": tick,
                          "domain": ["dc0", "az0"] if domain is None
                          else domain}]}


@pytest.mark.parametrize("fields, message", [
    ({"workload": [dict(person(), tick="a")]},
     'workload[0].tick must be a non-negative integer, got "a"'),
    ({"workload": [dict(person(), tick=0.7)]},
     "workload[0].tick must be a non-negative integer, got 0.7"),
    (failure("a"), 'failures[0].tick must be a non-negative integer, got "a"'),
    (failure(0.7), "failures[0].tick must be a non-negative integer, got 0.7"),
    (failure(2, domain="dc0"),
     'failures[0].domain must be an array of strings, got "dc0"'),
    ({"max_ticks": "x"},
     "'max_ticks' must be a non-negative integer, got \"x\""),
    ({"max_ticks": 1.5}, "'max_ticks' must be a non-negative integer, got 1.5"),
    ({"seed": True}, "'seed' must be an integer"),
    ({"nodes": [{"id": "w1", "domain": 5}]},
     "nodes[0].domain must be an array of strings, got 5"),
    ({"nodes": [{"id": 5, "domain": ["dc0", "az0"]}]},
     "nodes[0].id must be a string, got 5"),
    ({"failure_domains": 3},
     "'failure_domains' must be an array of domain paths, got 3"),
    ({"network": {"dup_prob": "x"}},
     'network.dup_prob must be a number in [0, 1], got "x"'),
    ({"network": {"delay_min": 1.5}},
     "network.delay_min must be a non-negative integer, got 1.5"),
    ({"workload": [person(pid=1.5)]},
     "workload[0]: field 'pid' holds 1.5; fields hold bools, integers, "
     "strings and arrays of them"),
    ({"workload": [person(pid=None)]},
     "workload[0]: field 'pid' holds null; fields hold bools, integers, "
     "strings and arrays of them"),
    ({"workload": [person(name=["ana", [None]])]},
     "workload[0]: field 'name' holds null; fields hold bools, integers, "
     "strings and arrays of them"),
    ({"workload": [person(), 5]}, "workload[1] must be an object"),
    ({"workload": [dict(person(), zeta=1, alpha=2)]},
     "workload[0]: unknown keys ['alpha', 'zeta']"),
    ({"workload": [{"tick": 0, "fields": {"pid": 1}}]},
     "workload[0] needs a 'mailbox'"),
    ({"workload": [dict(person(), handler="vaccinat")]},
     "workload[0]: no handler 'vaccinat'"),
    ({"workload": [dict(person(), fields=[1])]},
     "workload[0]: payload must be an object"),
    ({"workload": [person(zip=1, age=2)]},
     "workload[0]: unknown fields ['age', 'zip'] for 'add_person'"),
    ({"workload": [dict(person(), tick=-1)]},
     "workload[0].tick must be a non-negative integer, got -1"),
    ({"workload": [person(pid={"n": 1})]},
     "workload[0]: field 'pid' holds an object; fields hold scalars and "
     "arrays"),
    # an item with two faults is refused for the first check it fails
    ({"workload": [{"tick": -1, "frob": 1}]},
     "workload[0]: unknown keys ['frob']"),
    ({"workload": [{"tick": 0, "handler": "nope", "fields": 3}]},
     "workload[0]: no handler 'nope'"),
    ({"workload": [dict(person(age=None), tick=0.5)]},
     "workload[0]: unknown fields ['age'] for 'add_person'"),
    ({"workload": [dict(person(pid=None), tick=0.5)]},
     "workload[0].tick must be a non-negative integer, got 0.5"),
    ({"workload": [person(pid=None, name={})]},
     "workload[0]: field 'pid' holds null; fields hold bools, integers, "
     "strings and arrays of them"),
    # an item's mailbox, client and id are strings: a list used to end in a
    # traceback, and a list client or a numeric id to load
    ({"workload": [dict(person(), mailbox=["add_person"])]},
     'workload[0].mailbox must be a string, got ["add_person"]'),
    ({"workload": [dict(person(), client=["x"])]},
     'workload[0].client must be a string, got ["x"]'),
    ({"workload": [dict(person(), message_id=["x"])]},
     'workload[0].message_id must be a string, got ["x"]'),
    ({"workload": [dict(person(), message_id=7)]},
     "workload[0].message_id must be a string, got 7"),
], ids=["tick-text", "tick-fraction", "failure-tick-text",
        "failure-tick-fraction", "failure-domain-text", "max-ticks-text",
        "max-ticks-fraction", "seed-bool", "node-domain-number",
        "node-id-number", "failure-domains-number", "dup-prob-text",
        "delay-fraction", "payload-fraction", "payload-null",
        "payload-nested-null", "item-number", "item-unknown-keys",
        "item-no-mailbox", "item-unknown-handler", "payload-array",
        "payload-unknown-fields", "tick-negative", "payload-object",
        "unknown-keys-and-tick", "unknown-handler-and-payload",
        "unknown-fields-and-tick", "tick-and-null-field",
        "null-field-and-object-field", "mailbox-array", "client-array",
        "message-id-array", "message-id-number"])
def test_a_malformed_scenario_field_is_named_without_a_traceback(
        tmp_path, capsys, fields, message):
    # a value of the wrong type is refused with its field named: it used to
    # end in a traceback, be truncated, be split into letters, or load and
    # then fail in `simulate --inspect`
    path = write_scenario(tmp_path, **fields)
    assert main(["simulate", path, "--inspect"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_explicit_nodes_build_groups_and_refuse_a_proxy():
    nodes = [{"id": f"w{i}", "domain": ["dc0", f"az{i}"]} for i in range(3)]
    sc = load_scenario(scenario_dict(nodes=nodes))
    cluster = run_scenario(sc)
    handlers = ("add_contact", "add_person", "diagnose", "estimate", "trace",
                "vaccinate")
    assert cluster.groups == {h: ["w0", "w1", "w2"] for h in handlers}
    fresh = [mid for (_t, _c, mid, _p, is_fresh) in cluster.response_log
             if is_fresh]
    assert sorted(fresh) == sorted(cluster.request_payload)
    assert len(fresh) == len(sc.workload)
    # clients resend their own requests, so no node fronts a group
    nodes.append({"id": "edge", "domain": ["edge-dc"], "role": "edge",
                  "behavior": "proxy"})
    with pytest.raises(ScenarioError, match=r"^nodes\[3\]\.behavior "):
        load_scenario(scenario_dict(nodes=nodes))


def test_plan_defaults_are_feasible(tmp_path, capsys):
    out_path = tmp_path / "plan.json"
    assert main(["plan", "covid_tracker",
                 "--dump-plan", str(out_path)]) == EXIT_OK
    plan = json.loads(out_path.read_text())
    assert plan["objective"] == "min_instances"
    assert {e["handler"] for e in plan["entries"]} >= {"vaccinate", "estimate"}


def test_plan_infeasible_without_gpu(tmp_path, capsys):
    catalog = [{"name": "small", "capacity": 1, "price": 0.0005}]
    mpath = tmp_path / "machines.json"
    mpath.write_text(json.dumps(catalog))
    assert main(["plan", "covid_tracker",
                 "--machines", str(mpath)]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "estimate" in err and "features" in err


def test_a_plan_path_that_cannot_be_written_is_an_input_error(tmp_path,
                                                               capsys):
    out_path = tmp_path / "missing" / "plan.json"
    assert main(["plan", "covid_tracker",
                 "--dump-plan", str(out_path)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(out_path) in captured.err


@pytest.mark.parametrize("catalog, message", [
    ({"a": 1}, "a machine catalog is a list of objects"),
    ([{"name": "big", "capacity": "big", "price": 1}],
     "could not convert string to float: 'big'"),
    ([{"name": "small", "price": 1}], "a machine has no field 'capacity'"),
    ([{"name": "idle", "capacity": 0, "price": 1}],
     "machine 'idle' has capacity 0, not above 0"),
    ([{"name": "x", "capacity": 4, "price": -1}],
     "machine 'x' has price -1, below 0"),
    ([{"name": "x", "capacity": 4, "price": float("nan")}],
     "machine 'x' has price nan, not a finite number"),
    ([{"name": "x", "capacity": float("inf"), "price": 1}],
     "machine 'x' has capacity inf, not a finite number"),
])
def test_a_malformed_machine_catalog_is_an_input_error(tmp_path, capsys,
                                                       catalog, message):
    mpath = tmp_path / "machines.json"
    mpath.write_text(json.dumps(catalog))
    assert main(["plan", "covid_tracker",
                 "--machines", str(mpath)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {mpath}: {message}\n"


def test_plan_budget_infeasible(capsys):
    assert main(["plan", "covid_tracker", "--budget", "0.0"]) == EXIT_INFEASIBLE
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
def test_a_budget_that_is_not_a_finite_number_is_an_input_error(capsys,
                                                                budget):
    # every comparison with nan is false, so a nan budget passed each check
    # and the plan came out as if there were none
    assert main(["plan", "covid_tracker",
                 f"--budget={budget}"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: budget {budget} is not a finite number\n"
    assert captured.out == ""


def test_plan_objective_flag(capsys):
    assert main(["plan", "covid_tracker",
                 "--objective", "max_throughput"]) == EXIT_OK
    plan = json.loads(capsys.readouterr().out)
    assert plan["objective"] == "max_throughput"


def test_list_patterns(capsys):
    assert main(["list-patterns"]) == EXIT_OK
    out = capsys.readouterr().out
    for name in ("covid_tracker", "actors", "futures", "mpi_collectives"):
        assert name in out


@pytest.mark.parametrize("target", [
    TargetPath("hi"),
    TargetPath("scores", Var("k"), "hi"),
], ids=["max-var", "max-field"])
def test_simulate_reports_a_value_that_does_not_fit_its_lattice(
        tmp_path, capsys, target):
    program = Program(
        "bump", classes=(ClassDecl("Score", {"k": "int", "hi": "max"},
                                   key="k"),),
        data=(DataDecl("scores", "table", cls="Score"),
              DataDecl("hi", "var", shape="max")),
        handlers=(Handler("bump", {"k": "int", "v": "int"},
                          (MergeMutation(target, Var("v")),)),))
    sc = scenario_dict(program=json.loads(program_to_json(program)),
                       workload=[{"tick": 0, "client": "c1", "handler": "bump",
                                  "fields": {"k": 1, "v": "abc"}}])
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sc))
    assert main(["simulate", str(path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"seed 3: ShapeMismatch at tick \d+ on node n\d+ in handler bump: "
        r"cannot merge 'abc' into a max lattice\n", err), err


def test_simulate_reports_a_tuple_of_the_wrong_length(tmp_path, capsys):
    program = Program(
        "triples",
        data=(DataDecl("acc", "var", shape="set"),
              DataDecl("out", "var", shape="set")),
        handlers=(
            Handler("put", {"x": "int"}, (MergeMutation(
                TargetPath("acc"), TupleOf(Var("x"), Var("x"), Var("x"))),)),
            Handler("get", {}, (MergeMutation(TargetPath("out"), Comp(
                Var("a"), (Gen(("a", "b"), Data("acc")),))),))))
    sc = scenario_dict(program=json.loads(program_to_json(program)),
                       workload=[{"tick": 0, "client": "c1", "handler": "put",
                                  "fields": {"x": 1}},
                                 {"tick": 5, "client": "c1", "handler": "get",
                                  "fields": {}}])
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sc))
    assert main(["simulate", str(path)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"seed 3: BindError at tick \d+ on node n\d+ in handler get: "
        r"binder \('a', 'b'\) "
        r"needs 2 values, got \(1, 1, 1\)\n", err), err


def triples_scenario(fields):
    """A scenario whose handler binds (a, b, c) over each element of its
    param `ps`."""
    program = Program(
        "triples",
        data=(DataDecl("acc", "var", shape="set"),),
        handlers=(Handler("put", {"ps": "opaque"}, (MergeMutation(
            TargetPath("acc"), Comp(TupleOf(Var("c"), Var("b"), Var("a")),
                                    (Gen(("a", "b", "c"), Var("ps")),))),)),))
    return scenario_dict(program=json.loads(program_to_json(program)),
                         workload=[{"tick": 0, "client": "c1",
                                    "handler": "put", "fields": fields}])


def test_json_arrays_in_a_payload_arrive_as_tuples(tmp_path, capsys):
    # a list in a payload made the row unhashable, and simulate exited 1
    path = tmp_path / "s.json"
    path.write_text(json.dumps(triples_scenario({"ps": [[1, 2, 3]]})))
    assert main(["simulate", str(path), "--inspect"]) == EXIT_OK
    state = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert {node["vars"]["acc"]["lattice"]["value"][0]["tuple"] == [3, 2, 1]
            for node in state.values()} == {True}
    sc = load_scenario(triples_scenario({"ps": [[1, [2, [3]]], []]}))
    assert sc.workload[0]["fields"] == {"ps": ((1, (2, (3,))), ())}


def test_a_handler_named_like_its_data_is_a_validation_error(tmp_path,
                                                              capsys):
    # a comprehension over the mailbox `acc` would read the set var
    program = Program(
        "clash",
        data=(DataDecl("acc", "var", shape="set"),),
        handlers=(Handler("acc", {"x": "int"},
                          (MergeMutation(TargetPath("acc"), Var("x")),)),))
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario_dict(
        program=json.loads(program_to_json(program)),
        workload=[{"tick": 0, "client": "c1", "handler": "acc",
                   "fields": {"x": 1}}])))
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "invalid: HandlerNameClash: handler 'acc' has the name of a data\n")


def test_an_unknown_operator_is_a_validation_error(tmp_path, capsys):
    # `**` validated ok and raised a bare KeyError at the first tick, which
    # is no NODE_FAILURES exception, so simulate ended in a traceback
    program = Program(
        "square",
        data=(DataDecl("acc", "var", shape="set"),),
        handlers=(Handler("square", {"x": "int"}, (MergeMutation(
            TargetPath("acc"), BinOp("**", Var("x"), Lit(2))),)),))
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario_dict(
        program=json.loads(program_to_json(program)),
        workload=[{"tick": 0, "client": "c1", "handler": "square",
                   "fields": {"x": 3}}])))
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "invalid: UnknownOperator: handler square: unknown operator '**'\n")


def test_a_request_field_named_like_an_old_record_field_is_ordinary(
        tmp_path, capsys):
    # commit records once shared a replica's mailbox with requests, and a
    # request with this field was taken for one; records now reach
    # replicas through the commit log alone
    program = Program(
        "stock",
        data=(DataDecl("n", "var", scalar="int", init=5),),
        handlers=(Handler("spend", {"_ordered": "int"}, (Assign(
            TargetPath("n"), BinOp("-", Data("n"), Lit(1))),),
            consistency=ConsistencySpec("serializable")),),
        availability={"spend": AvailSpec("az", 2)})
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario_dict(
        program=json.loads(program_to_json(program)),
        workload=[{"tick": 0, "client": "c1", "handler": "spend",
                   "fields": {"_ordered": 0}}])))
    assert main(["simulate", str(path)]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert '"status": "accepted"' in captured.out


def test_a_program_that_does_not_lower_is_an_input_error(tmp_path, capsys):
    # the serializable handler reads `n`, which an eventual handler assigns
    program = Program(
        "dirty",
        data=(DataDecl("acc", "var", shape="set"),
              DataDecl("n", "var", scalar="int", init=0)),
        handlers=(
            Handler("messy", {"x": "int"},
                    (Assign(TargetPath("n"), Var("x")),)),
            Handler("serial", {},
                    (MergeMutation(TargetPath("acc"), Data("n")),),
                    consistency=ConsistencySpec("serializable"))))
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario_dict(
        program=json.loads(program_to_json(program)),
        workload=[{"tick": 0, "client": "c1", "handler": "messy",
                   "fields": {"x": 1}}])))
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: lowering failed: MetaconsistencyConflict: serializable "
        "handler 'serial' reads 'n', which non-monotone eventual handler "
        "'messy' mutates\n")


def simulate_inline(tmp_path, program, workload, **kw):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario_dict(
        program=json.loads(program_to_json(program)), workload=[
            {"tick": tick, "client": "c1", "handler": handler,
             "fields": fields} for tick, handler, fields in workload],
        **kw)))
    return main(["simulate", str(path)])


def stock_program(n, *handlers, returns=False):
    """A serializable `spend` that takes one of `n` units, returning the
    stock left if `returns`, next to `handlers`, each with three replicas."""
    spend = Handler(
        "spend", {},
        (Assign(TargetPath("n"), BinOp("-", Data("n"), Lit(1))),)
        + ((Return(Data("n")),) if returns else ()),
        consistency=ConsistencySpec(
            "serializable", invariants=(BinOp(">=", Data("n"), Lit(0)),)))
    return Program(
        "stock", data=(DataDecl("n", "var", scalar="int", init=n),),
        handlers=(spend,) + handlers,
        availability={h.name: AvailSpec("az", 2) for h in (spend,) + handlers})


def test_a_send_into_a_serializable_mailbox_does_not_lower(tmp_path, capsys):
    # node-sent requests carry no message id: the sequencer took the second
    # one for a duplicate of the first, and only it spent a unit
    program = stock_program(5, Handler("kick", {"k": "int"},
                                       (Send("spend", Record()),)))
    assert simulate_inline(tmp_path, program, [(0, "kick", {"k": 1}),
                                               (9, "kick", {"k": 2})],
                           network={"delay_min": 1, "delay_max": 3}) \
        == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: lowering failed: NotSequenceable: handler 'kick' sends to "
        "serializable handler 'spend', whose requests must be clients'\n")


def test_a_return_from_a_serializable_handler_does_not_lower(tmp_path,
                                                             capsys):
    # the accepted client got the returned value and the proxy dropped its
    # status as a duplicate reply
    program = stock_program(1, returns=True)
    assert simulate_inline(tmp_path, program, [(0, "spend", {}),
                                               (0, "spend", {})]) \
        == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: lowering failed: NotSequenceable: handler 'spend' returns a "
        "value, but serializable handler 'spend' replies with its request's "
        "status alone\n")


@pytest.mark.parametrize("kind, message", [
    ("merge", "UnknownFold: handler ask: unknown fold kind 'merge'"),
    ("bogus", "UnknownFold: handler ask: unknown fold kind 'bogus'"),
    ("udf:nope", "UnresolvedName: handler ask: fold by unknown udf 'nope'"),
    ("udf:one", "ArityMismatch: handler ask: fold by udf one needs 2 args, "
                "it takes 1"),
], ids=["merge", "bogus", "undeclared-udf", "unary-udf"])
def test_a_fold_that_cannot_run_is_a_validation_error(tmp_path, capsys, kind,
                                                      message):
    # each failed once the fold saw two values: the first three with a
    # traceback, the unary UDF as a node failure (exit 5)
    program = Program(
        "folds", data=(DataDecl("s", "var", shape="set"),),
        udfs=(UdfDecl("one", 1),),
        handlers=(Handler("add", {"x": "int"},
                          (MergeMutation(TargetPath("s"), Var("x")),)),
                  Handler("ask", {}, (Return(Fold(kind, Data("s"))),))))
    assert simulate_inline(tmp_path, program, [(0, "add", {"x": 1}),
                                               (0, "add", {"x": 2}),
                                               (5, "ask", {})]) \
        == EXIT_VALIDATION
    assert capsys.readouterr().err == f"invalid: {message}\n"


def test_two_assigns_of_one_var_in_a_tick_fail_the_node(tmp_path, capsys):
    program = Program(
        "last", data=(DataDecl("n", "var", scalar="int", init=0),),
        handlers=(Handler("put", {"x": "int"},
                          (Assign(TargetPath("n"), Var("x")),)),))
    assert simulate_inline(tmp_path, program, [(0, "put", {"x": 1}),
                                               (0, "put", {"x": 2})],
                           network={"delay_min": 1, "delay_max": 1}) \
        == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"seed 3: AmbiguousAssign at tick \d+ on node n\d+ in handler put: "
        r"conflicting assignments to \('n', None, None\): 1 vs 2\n", err), err


# each ended `simulate` in a traceback and exit 1: a Python error of a
# handler's own expression, or a statement's value of the wrong kind, was
# no node failure
FAILING_STATEMENTS = {
    "division-by-zero": (
        MergeMutation(TargetPath("acc"), BinOp("//", Lit(1), Var("x"))),
        "ZeroDivisionError: integer division or modulo by zero"),
    "str-plus-int": (
        MergeMutation(TargetPath("acc"), BinOp("+", Lit("a"), Var("x"))),
        r'TypeError: can only concatenate str \(not "int"\) to str'),
    "merge-non-row": (MergeMutation(TargetPath("items"), Var("x")),
                      "merge into table 'items' needs rows, got 0"),
    "send-non-record": (Send("out", Var("x")),
                        "send to 'out' needs records, got 0"),
}


@pytest.mark.parametrize("stmt, message", FAILING_STATEMENTS.values(),
                         ids=FAILING_STATEMENTS.keys())
def test_a_handler_that_raises_fails_its_node(tmp_path, capsys, stmt,
                                              message):
    program = Program(
        "raises", classes=(ClassDecl("Item", {"k": "int"}, key="k"),),
        data=(DataDecl("acc", "var", shape="set"),
              DataDecl("items", "table", cls="Item")),
        handlers=(Handler("put", {"x": "int"}, (stmt,)),), sinks=("out",))
    assert simulate_inline(tmp_path, program, [(0, "put", {"x": 0})]) \
        == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert re.fullmatch(r"seed 3: HandlerError at tick \d+ on node n\d+ in "
                        rf"handler put: {message}\n", err), err


@pytest.mark.parametrize("program", [
    *(loop_program(loop) for loop in LOOPS.values()),
    *(replace(loop_program(), queries=(QueryDef("q", (), (body,)),))
      for body in BARE_BODIES.values()),
], ids=[*LOOPS, *BARE_BODIES])
def test_analyze_refuses_a_loop_or_a_bare_query_body(tmp_path, capsys,
                                                     program):
    # at first each validated; the loop over another mailbox then ended
    # `analyze` in a traceback, and the bare bodies read differently on
    # the two backends
    path = tmp_path / "p.json"
    path.write_text(program_to_json(program))
    assert main(["analyze", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert re.fullmatch(r"invalid: (ForEachInHandler|QueryBodyNotComprehension)"
                        r": [^\n]*\n", err), err


def test_an_object_in_a_payload_is_refused(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(triples_scenario({"ps": [{"a": 1}]})))
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: workload[0]: field 'ps' holds an object; fields hold "
        "scalars and arrays\n")


# sha256 of the demo's trace at seed 9; any change to what a run does or to
# how the trace is written moves it
DEMO_TRACE_SHA256 = \
    "042eb8cf650edd4ece8a91330eae33f6d33f5e4c8a1673ae6689af06dab3e48c"


def test_the_demo_trace_is_byte_identical(tmp_path):
    trace = tmp_path / "trace.jsonl"
    assert main(["simulate", str(DEMO), "--seed", "9",
                 "--trace", str(trace)]) == EXIT_OK
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == DEMO_TRACE_SHA256


def trace_in_a_new_process(tmp_path, scenario, hash_seed, *args):
    """sha256 of the trace `simulate` writes for `scenario` in a process of
    its own under PYTHONHASHSEED `hash_seed`: operators iterate sets in hash
    order, which that seed changes, and only a new process can try another."""
    trace = tmp_path / "trace.jsonl"
    run_in_a_new_process("simulate", str(scenario), *args, "--trace",
                         str(trace), hash_seed=hash_seed, check=True,
                         capture_output=True)
    return hashlib.sha256(trace.read_bytes()).hexdigest()


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_the_demo_trace_does_not_depend_on_the_hash_seed(tmp_path, hash_seed):
    assert trace_in_a_new_process(tmp_path, DEMO, hash_seed, "--seed", "9") \
        == DEMO_TRACE_SHA256


def sequenced_scenario() -> dict:
    """Eighteen serializable `vaccinate` requests, three a tick, queue at the
    sequencer with six doses in stock, and one in five names a pid that is
    no person, so some are accepted and some rejected; messages are
    duplicated, and the sequencer's zone crashes while requests wait."""
    workload = [{"tick": 0, "client": "c0", "handler": "add_person",
                 "fields": {"pid": pid, "name": f"p{pid}", "country": country}}
                for pid, country in ((1, "ar"), (2, "br"), (3, "cl"), (4, "ar"))]
    workload += [{"tick": 3 + i // 3, "client": f"c{i % 3}",
                  "handler": "vaccinate", "fields": {"pid": 1 + i % 5}}
                 for i in range(18)]
    program = covid_program(coordinated=True, vaccine_count=6)
    return scenario_dict(
        program=json.loads(program_to_json(program)), seed=5,
        network={"delay_min": 1, "delay_max": 6, "dup_prob": 0.2},
        workload=workload, failures=[{"tick": 9, "domain": ["dc0", "az0"]}])


# sha256 of the trace of `sequenced_scenario`, which the demo's trace does
# not cover: it has no serializable request
SEQUENCED_TRACE_SHA256 = \
    "52fbd22763776cfe1215037770f815600dabfefe4be3588660df16729178bc13"


def test_the_sequenced_trace_is_byte_identical(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sequenced_scenario()))
    trace = tmp_path / "trace.jsonl"
    assert main(["simulate", str(path), "--trace", str(trace)]) == EXIT_OK
    out = capsys.readouterr().out
    assert '"status": "accepted"' in out and '"status": "rejected"' in out
    assert '"kind": "Crashed"' in trace.read_text()
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == \
        SEQUENCED_TRACE_SHA256


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_the_sequenced_trace_does_not_depend_on_the_hash_seed(tmp_path,
                                                               hash_seed):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(sequenced_scenario()))
    assert trace_in_a_new_process(tmp_path, path, hash_seed) == \
        SEQUENCED_TRACE_SHA256
