"""Deployment planning.

Each handler is assigned one machine type and an instance count subject to
its latency bound, its cost bound, and any required machine features, with
an optional global cost budget coupling the handlers. The default analytic
cost model is

    latency(n)    = base_ms / (capacity * n) + fixed_ms
    cost(n)       = n * price * duration
    throughput(n) = rate * capacity * n

The solver is branch and bound over handlers with per-handler lower bounds;
`brute_force` solves the same problem by exhaustive enumeration and exists
to cross-check the solver. All tie-breaks are lexicographic and
deterministic: fewer instances, then lower cost, then machine name.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Optional

from .ir import Program

OBJECTIVES = ("min_instances", "max_throughput")


class ModelError(Exception):
    """The cost model violates a required shape property."""


@dataclass(frozen=True)
class MachineType:
    name: str
    capacity: float
    price: float
    features: tuple = ()

    def __init__(self, name, capacity, price, features=()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "capacity", float(capacity))
        object.__setattr__(self, "price", float(price))
        object.__setattr__(self, "features", tuple(features))


@dataclass(frozen=True)
class HandlerLoad:
    base_ms: float = 150.0    # single-capacity service time
    fixed_ms: float = 5.0     # network floor, unaffected by scale
    rate: float = 1.0         # requests per time unit


class CostModel:
    """Analytic model; subclass to override the three curves."""

    def __init__(self, loads=None, duration: float = 1.0):
        self.loads = dict(loads or {})
        self.duration = duration

    def load(self, handler: str) -> HandlerLoad:
        return self.loads.get(handler, HandlerLoad())

    def latency_ms(self, handler: str, m: MachineType, n: int) -> float:
        ld = self.load(handler)
        return ld.base_ms / (m.capacity * n) + ld.fixed_ms

    def cost(self, handler: str, m: MachineType, n: int) -> float:
        return n * m.price * self.duration

    def throughput(self, handler: str, m: MachineType, n: int) -> float:
        return self.load(handler).rate * m.capacity * n

    def check_shape(self, handlers, machines, samples=(1, 2, 4, 8, 16)):
        """Latency must not increase with n; cost and throughput must not
        decrease. Bounds pruning is unsound otherwise."""
        for h in handlers:
            for m in machines:
                for a, b in zip(samples, samples[1:]):
                    if self.latency_ms(h, m, b) > self.latency_ms(h, m, a) + 1e-9:
                        raise ModelError(
                            f"latency increases with scale for {h} on {m.name}")
                    if self.cost(h, m, b) < self.cost(h, m, a) - 1e-9:
                        raise ModelError(
                            f"cost decreases with scale for {h} on {m.name}")
                    if self.throughput(h, m, b) < self.throughput(h, m, a) - 1e-9:
                        raise ModelError(
                            f"throughput decreases with scale for {h} on {m.name}")


@dataclass(frozen=True)
class PlanEntry:
    handler: str
    machine: str
    count: int
    latency_ms: float
    cost: float
    throughput: float


@dataclass
class DeployPlan:
    objective: str
    entries: list = dfield(default_factory=list)

    @property
    def total_instances(self) -> int:
        return sum(e.count for e in self.entries)

    @property
    def total_cost(self) -> float:
        return sum(e.cost for e in self.entries)

    @property
    def total_throughput(self) -> float:
        return sum(e.throughput for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "entries": [
                {"handler": e.handler, "machine": e.machine, "count": e.count,
                 "latency_ms": round(e.latency_ms, 6),
                 "cost": round(e.cost, 9),
                 "throughput": round(e.throughput, 6)}
                for e in self.entries
            ],
            "total_instances": self.total_instances,
            "total_cost": round(self.total_cost, 9),
            "total_throughput": round(self.total_throughput, 6),
        }


@dataclass(frozen=True)
class BacktrackRequest:
    """Advice attached to an infeasibility: which constraint to relax."""

    handler: Optional[str]
    binding: tuple  # constraint names, e.g. ("latency", "cost")
    suggestion: str


class Infeasible(Exception):
    def __init__(self, message, requests=(), at_cap=False):
        super().__init__(message)
        self.requests = tuple(requests)
        self.at_cap = at_cap


def backtrack_signal(exc: Infeasible) -> tuple:
    """Structured retry advice, sorted by handler name."""
    return tuple(sorted(exc.requests, key=lambda r: (r.handler or "", r.binding)))


def _candidates(handler: str, program: Program, machines, model: CostModel,
                n_cap: int):
    """Feasible (machine, n) options for one handler, or raise Infeasible."""
    target = program.target_for(handler)
    opts = []
    blocked = set()
    capped = False
    for m in sorted(machines, key=lambda m: m.name):
        if not set(target.features) <= set(m.features):
            blocked.add("features")
            continue
        for n in range(1, n_cap + 1):
            lat = model.latency_ms(handler, m, n)
            cost = model.cost(handler, m, n)
            ok = True
            if target.latency_ms is not None and lat > target.latency_ms:
                blocked.add("latency")
                ok = False
                if n == n_cap:
                    capped = True
            if target.cost_units is not None and cost > target.cost_units:
                blocked.add("cost")
                ok = False
                break  # cost only grows with n
            if ok:
                opts.append(PlanEntry(handler, m.name, n, lat, cost,
                                      model.throughput(handler, m, n)))
    if not opts:
        binding = tuple(sorted(blocked)) or ("machines",)
        bt = BacktrackRequest(
            handler, binding,
            f"relax {' or '.join(binding)} for handler {handler!r}"
            + (f" or raise the instance cap past {n_cap}" if capped else ""))
        raise Infeasible(
            f"no feasible placement for handler {handler!r} "
            f"(binding: {', '.join(binding)})",
            requests=(bt,), at_cap=capped and blocked == {"latency"})
    return opts


def _entry_key(objective: str, e: PlanEntry):
    if objective == "min_instances":
        return (e.count, e.cost, e.machine)
    # max_throughput: larger is better; negate for minimization
    return (-e.throughput, e.cost, e.count, e.machine)


def _plan_key(objective: str, entries) -> tuple:
    # the per-entry tail breaks ties between plans whose totals coincide
    total_cost = sum(e.cost for e in entries)
    tail = tuple((e.machine, e.count) for e in entries)
    if objective == "min_instances":
        return (sum(e.count for e in entries), total_cost, tail)
    return (-sum(e.throughput for e in entries), total_cost,
            sum(e.count for e in entries), tail)


def solve(program: Program, machines, objective: str = "min_instances",
          model: CostModel = None, budget: Optional[float] = None,
          n_cap: int = 64) -> DeployPlan:
    """Optimal assignment by branch and bound; deterministic tie-breaks."""
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    model = model or CostModel()
    handlers = sorted(h.name for h in program.handlers)
    if not handlers:
        raise Infeasible("program has no handlers to place")
    model.check_shape(handlers, machines)

    options = {}
    failures = []
    at_cap = False
    for h in handlers:
        try:
            options[h] = sorted(_candidates(h, program, machines, model, n_cap),
                                key=lambda e: _entry_key(objective, e))
        except Infeasible as exc:
            failures.extend(exc.requests)
            at_cap = at_cap or exc.at_cap
    if failures:
        raise Infeasible(
            "no feasible placement for handlers: "
            + ", ".join(sorted(r.handler for r in failures)),
            requests=failures, at_cap=at_cap)
    # per-handler lower bounds for pruning
    best_key = {h: _entry_key(objective, options[h][0]) for h in handlers}
    min_cost = {h: min(e.cost for e in options[h]) for h in handlers}

    if budget is not None:
        floor = sum(min_cost.values())
        if floor > budget + 1e-12:
            raise Infeasible(
                f"cheapest placement costs {floor:.6g}, budget is {budget:.6g}",
                requests=(BacktrackRequest(
                    None, ("budget",),
                    f"raise the global budget to at least {floor:.6g}"),))

    incumbent = {"entries": None, "key": None}

    def bound_tail(i: int) -> tuple:
        obj0 = sum(best_key[h][0] for h in handlers[i:])
        return obj0

    def descend(i: int, chosen: list, spent: float):
        if i == len(handlers):
            key = _plan_key(objective, chosen)
            if incumbent["key"] is None or key < incumbent["key"]:
                incumbent["key"] = key
                incumbent["entries"] = list(chosen)
            return
        if incumbent["key"] is not None:
            partial = sum(_entry_key(objective, e)[0] for e in chosen)
            if partial + bound_tail(i) > incumbent["key"][0]:
                return
        h = handlers[i]
        remaining_floor = sum(min_cost[x] for x in handlers[i + 1:])
        for e in options[h]:
            if budget is not None and spent + e.cost + remaining_floor > budget + 1e-12:
                continue
            chosen.append(e)
            descend(i + 1, chosen, spent + e.cost)
            chosen.pop()

    descend(0, [], 0.0)
    if incumbent["entries"] is None:
        raise Infeasible(
            "no assignment satisfies the global budget",
            requests=(BacktrackRequest(None, ("budget",),
                                       "raise the global budget"),))
    return DeployPlan(objective, incumbent["entries"])


def brute_force(program: Program, machines, objective: str = "min_instances",
                model: CostModel = None, budget: Optional[float] = None,
                n_cap: int = 64) -> DeployPlan:
    """Exhaustive reference solver; exponential, for cross-checking only."""
    import itertools
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


def verify(plan: DeployPlan, program: Program, machines, model: CostModel = None,
           budget: Optional[float] = None) -> list:
    """Re-check every constraint against a finished plan; returns violations."""
    model = model or CostModel()
    by_name = {m.name: m for m in machines}
    problems = []
    placed = {e.handler for e in plan.entries}
    for h in program.handlers:
        if h.name not in placed:
            problems.append(f"handler {h.name!r} is not placed")
    for e in plan.entries:
        m = by_name.get(e.machine)
        if m is None:
            problems.append(f"{e.handler}: unknown machine {e.machine!r}")
            continue
        target = program.target_for(e.handler)
        if e.count < 1:
            problems.append(f"{e.handler}: count must be positive")
        if not set(target.features) <= set(m.features):
            problems.append(f"{e.handler}: machine {m.name} lacks "
                            f"{sorted(set(target.features) - set(m.features))}")
        lat = model.latency_ms(e.handler, m, e.count)
        if target.latency_ms is not None and lat > target.latency_ms + 1e-9:
            problems.append(f"{e.handler}: latency {lat:.3f}ms exceeds "
                            f"{target.latency_ms}ms")
        cost = model.cost(e.handler, m, e.count)
        if target.cost_units is not None and cost > target.cost_units + 1e-12:
            problems.append(f"{e.handler}: cost {cost:.6g} exceeds "
                            f"{target.cost_units}")
    if budget is not None and plan.total_cost > budget + 1e-12:
        problems.append(f"total cost {plan.total_cost:.6g} exceeds budget {budget}")
    return problems


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
