"""Planner helpers only the tests use: the exhaustive reference that
`planner.solve` is checked against, and re-planning with its instance
delta."""

import itertools
from typing import Optional

from latticeflow.ir import Program
from latticeflow.planner import (
    OBJECTIVES, BacktrackRequest, CostModel, DeployPlan, Infeasible,
    _candidates, _plan_key, solve,
)


def brute_force(program: Program, machines, objective: str = "min_instances",
                model: CostModel = None, budget: Optional[float] = None,
                n_cap: int = 64) -> DeployPlan:
    """Exhaustive reference solver; exponential, for cross-checking only."""
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    model = model or CostModel()
    handlers = sorted(h.name for h in program.handlers)
    if not handlers:
        raise Infeasible("program has no handlers to place")
    options = [_candidates(h, program, machines, model, n_cap) for h in handlers]
    best = None
    best_key = None
    for combo in itertools.product(*options):
        if budget is not None and sum(e.cost for e in combo) > budget + 1e-12:
            continue
        key = _plan_key(objective, combo)
        if best_key is None or key < best_key:
            best_key = key
            best = list(combo)
    if best is None:
        raise Infeasible(
            "no assignment satisfies the global budget",
            requests=(BacktrackRequest(None, ("budget",),
                                       "raise the global budget"),))
    return DeployPlan(objective, best)


def plan_delta(previous: DeployPlan, current: DeployPlan) -> dict:
    """Instance-count change per machine type between two plans."""
    counts: dict = {}
    for e in current.entries:
        counts[e.machine] = counts.get(e.machine, 0) + e.count
    for e in previous.entries:
        counts[e.machine] = counts.get(e.machine, 0) - e.count
    return {m: d for m, d in sorted(counts.items()) if d != 0}


def replan(previous: DeployPlan, program: Program, machines,
           model: CostModel = None, budget: Optional[float] = None,
           n_cap: int = 64):
    """Solve against changed inputs and report the instance delta.

    Returns (plan, delta) where delta maps machine type to the net change
    in instance count versus the previous plan. Infeasibility propagates.
    """
    plan = solve(program, machines, previous.objective, model, budget, n_cap)
    return plan, plan_delta(previous, plan)
