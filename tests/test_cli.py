"""Command-line entry points and exit codes."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from latticeflow.cli import (
    EXIT_INFEASIBLE, EXIT_NO_QUIESCENCE, EXIT_OK, EXIT_RUNTIME,
    EXIT_VALIDATION, main,
)
from latticeflow.ir import (
    Assign, AvailSpec, BinOp, ClassDecl, Comp, ConsistencySpec, Data,
    DataDecl, Gen, Handler, Lit, MergeMutation, Program, TargetPath, TupleOf,
    Var,
)
from latticeflow.patterns import covid_program
from latticeflow.progjson import program_to_json
from latticeflow.scenario import load_scenario, run_scenario
from latticeflow.sim import trace_text


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
], ids=["tick-text", "tick-fraction", "failure-tick-text",
        "failure-tick-fraction", "failure-domain-text", "max-ticks-text",
        "max-ticks-fraction", "seed-bool", "node-domain-number",
        "node-id-number", "failure-domains-number", "dup-prob-text",
        "delay-fraction", "payload-fraction", "payload-null",
        "payload-nested-null"])
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


def test_explicit_nodes_build_groups_and_a_proxy():
    nodes = [{"id": f"w{i}", "domain": ["dc0", f"az{i}"]} for i in range(3)]
    nodes.append({"id": "edge", "domain": ["proxy-dc"], "role": "proxy",
                  "behavior": "proxy"})
    sc = load_scenario(scenario_dict(nodes=nodes))
    cluster = run_scenario(sc)
    handlers = ("add_contact", "add_person", "diagnose", "estimate", "trace",
                "vaccinate")
    assert cluster.groups == {h: ["w0", "w1", "w2"] for h in handlers}
    assert cluster.proxies == {h: "edge" for h in handlers}
    fresh = [mid for (_t, _c, mid, _p, is_fresh) in cluster.response_log
             if is_fresh]
    assert sorted(fresh) == sorted(cluster.request_payload)
    assert len(fresh) == len(sc.workload)


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


def test_plan_budget_infeasible(capsys):
    assert main(["plan", "covid_tracker", "--budget", "0.0"]) == EXIT_INFEASIBLE
    assert "budget" in capsys.readouterr().err


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


def test_a_reserved_request_field_is_a_validation_error(tmp_path, capsys):
    # the sequencer's replicas took the request for a commit record, and the
    # run ended in KeyError: '_effects'
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
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "invalid: ReservedField: handler spend: parameter '_ordered' is "
        "reserved\n")


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


def test_an_object_in_a_payload_is_refused(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(triples_scenario({"ps": [{"a": 1}]})))
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: workload[0]: field 'ps' holds an object; fields hold "
        "scalars and arrays\n")


DEMO = Path(__file__).resolve().parent.parent / "demos" / "covid_scenario.json"
# sha256 of the demo's trace at seed 9; any change to what a run does or to
# how the trace is written moves it
DEMO_TRACE_SHA256 = \
    "3a682accf2b51ea5c1b634b136d59293c1f7e0e275148a7e556ec8138677d677"


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
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
    subprocess.run([sys.executable, "-m", "latticeflow.cli", "simulate",
                    str(scenario), *args, "--trace", str(trace)],
                   env=env, check=True, capture_output=True, timeout=120)
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
    "243a44706dcd1f8556459cd22aa0bd71dca71f69015e63fe931e24bfc8f56ac5"


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
