"""Deployment solver vs the exhaustive reference, and plan checking."""

import random

import pytest

from latticeflow.ir import (
    DataDecl, Handler, Lit, MergeMutation, Program, Return, TargetPath,
    TargetSpec, Var,
)
from latticeflow.patterns import covid_tracker, sample_machines
from latticeflow.planner import (
    CostModel, HandlerLoad, Infeasible, MachineType, ModelError,
    backtrack_signal, solve, verify,
)
from planner_reference import brute_force, plan_delta, replan


def placement_program(targets):
    handlers = tuple(
        Handler(name, {"x": "int"},
                (MergeMutation(TargetPath("acc"), Var("x")),))
        for name in sorted(targets) if name != "default")
    return Program("place",
                   data=(DataDecl("acc", "var", shape="set"),),
                   handlers=handlers, targets=targets)


def random_problem(rng):
    machines = [MachineType(f"m{i}",
                            capacity=rng.choice([1, 2, 4, 8]),
                            price=rng.choice([0.001, 0.004, 0.02]),
                            features=rng.choice([(), ("GPU",)]))
                for i in range(rng.randint(1, 3))]
    targets = {}
    loads = {}
    for i in range(rng.randint(1, 4)):
        name = f"h{i}"
        targets[name] = TargetSpec(
            latency_ms=rng.choice([20.0, 60.0, 200.0, None]),
            cost_units=rng.choice([0.002, 0.01, 0.1, None]),
            features=rng.choice([(), ("GPU",)]))
        loads[name] = HandlerLoad(base_ms=rng.choice([50.0, 150.0, 400.0]),
                                  fixed_ms=rng.choice([0.0, 5.0]),
                                  rate=rng.choice([0.5, 1.0, 3.0]))
    return placement_program(targets), machines, CostModel(loads)


def test_solver_matches_exhaustive_search():
    rng = random.Random(17)
    solved = 0
    for trial in range(60):
        program, machines, model = random_problem(rng)
        budget = rng.choice([None, 0.01, 0.05, 1.0])
        objective = rng.choice(["min_instances", "max_throughput"])
        try:
            want = brute_force(program, machines, objective, model,
                               budget=budget, n_cap=5)
        except Infeasible:
            with pytest.raises(Infeasible):
                solve(program, machines, objective, model,
                      budget=budget, n_cap=5)
            continue
        got = solve(program, machines, objective, model,
                    budget=budget, n_cap=5)
        assert got.to_dict() == want.to_dict(), trial
        assert verify(got, program, machines, model, budget=budget) == []
        solved += 1
    assert solved >= 20


def test_latency_bound_forces_scale_out():
    p = placement_program({"h": TargetSpec(30.0, None)})
    m = MachineType("m", capacity=1, price=0.001)
    plan = solve(p, [m], model=CostModel({"h": HandlerLoad(100.0, 5.0)}))
    e = plan.entries[0]
    assert e.count == 4 and e.latency_ms == 30.0


def test_feature_requirement_restricts_machines():
    p = placement_program({"h": TargetSpec(None, None, ("GPU",))})
    plain = MachineType("cheap", 8, 0.0001)
    gpu = MachineType("gpu", 8, 0.02, ("GPU",))
    plan = solve(p, [plain, gpu])
    assert plan.entries[0].machine == "gpu"


def test_infeasible_carries_backtrack_advice():
    p = placement_program({"a": TargetSpec(1.0, None),
                           "b": TargetSpec(None, 0.0001)})
    m = MachineType("m", capacity=1, price=0.01)
    model = CostModel({"a": HandlerLoad(100.0, 5.0),
                       "b": HandlerLoad(100.0, 5.0)})
    with pytest.raises(Infeasible) as exc:
        solve(p, [m], model=model, n_cap=4)
    sig = backtrack_signal(exc.value)
    assert [r.handler for r in sig] == ["a", "b"]
    assert sig[0].binding == ("latency",)   # fixed_ms alone exceeds the bound
    assert sig[1].binding == ("cost",)
    assert all(r.suggestion for r in sig)


def test_global_budget_is_a_coupled_constraint():
    targets = {"a": TargetSpec(None, None), "b": TargetSpec(20.0, None)}
    p = placement_program(targets)
    machines = [MachineType("small", 1, 0.001), MachineType("big", 16, 0.01)]
    model = CostModel({"a": HandlerLoad(10.0, 0.0),
                       "b": HandlerLoad(160.0, 0.0)})
    free = solve(p, machines, model=model)
    tight = solve(p, machines, model=model,
                  budget=free.total_cost)
    assert verify(tight, p, machines, model, budget=free.total_cost) == []
    with pytest.raises(Infeasible) as exc:
        solve(p, machines, model=model, budget=0.0005)
    assert backtrack_signal(exc.value)[0].binding == ("budget",)


def test_verify_catches_a_doctored_plan():
    p = placement_program({"h": TargetSpec(30.0, None)})
    m = MachineType("m", 1, 0.001)
    model = CostModel({"h": HandlerLoad(100.0, 5.0)})
    plan = solve(p, [m], model=model)
    plan.entries[0] = plan.entries[0].__class__(
        "h", "m", 1, 105.0, 0.001, 1.0)  # undersized by hand
    problems = verify(plan, p, [m], model)
    assert problems and "latency" in problems[0]


def test_replan_reports_instance_delta():
    p = placement_program({"h": TargetSpec(30.0, None)})
    m = MachineType("m", 1, 0.001)
    model = CostModel({"h": HandlerLoad(100.0, 5.0)})
    before = solve(p, [m], model=model)
    hotter = CostModel({"h": HandlerLoad(200.0, 5.0)})
    after, delta = replan(before, p, [m], model=hotter)
    assert after.entries[0].count == 8
    assert delta == {"m": 4}
    same, delta2 = replan(after, p, [m], model=hotter)
    assert delta2 == {}
    assert plan_delta(before, after) == {"m": 4}


def test_misshapen_cost_model_is_rejected():
    class Bad(CostModel):
        def latency_ms(self, handler, m, n):
            return 10.0 * n  # slower as it scales out

    p = placement_program({"h": TargetSpec(None, None)})
    with pytest.raises(ModelError):
        solve(p, [MachineType("m", 1, 0.001)], model=Bad())


def test_unknown_objective_rejected():
    p = placement_program({"h": TargetSpec(None, None)})
    with pytest.raises(ValueError):
        solve(p, [MachineType("m", 1, 0.001)], objective="cheapest")


def test_covid_fits_the_sample_catalog():
    p = covid_tracker().program
    plan = solve(p, sample_machines())
    assert verify(plan, p, sample_machines()) == []
    by_handler = {e.handler: e for e in plan.entries}
    assert by_handler["estimate"].machine == "gpu"
    no_gpu = [m for m in sample_machines() if "GPU" not in m.features]
    with pytest.raises(Infeasible) as exc:
        solve(p, no_gpu)
    assert any(r.handler == "estimate" and "features" in r.binding
               for r in backtrack_signal(exc.value))
