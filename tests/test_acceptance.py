"""End-to-end guarantees, each checked against an independent reference:
algebraic laws in bulk, confluence under network nondeterminism, coordination
where (and only where) it is needed, failure tolerance, backend agreement,
solver optimality, and bit-level reproducibility."""

import itertools
import random
import time

import pytest

from conftest import bfs_closure, client_statuses, closure_contexts
from latticeflow.ir import TargetSpec
from latticeflow.lattice import (
    BoolOr, MapUnion, MaxInt, MinInt, Pair, SetUnion, WriteOnce, leq, merge,
)
from latticeflow.patterns import (
    covid_tracker, covid_workload, get_pattern, run_workload, sample_machines,
    scatter_chunks,
)
from latticeflow.planner import (
    CostModel, HandlerLoad, Infeasible, MachineType, backtrack_signal,
    brute_force, solve, verify,
)
from latticeflow.sim import NetworkModel, trace_text


# lattice algebra -------------------------------------------------------------

def test_lattice_laws_hold_for_a_thousand_cases_per_variant():
    rng = random.Random(991)

    def rand(shape):
        if shape == "bool_or":
            return BoolOr(rng.random() < 0.5)
        if shape == "max":
            return MaxInt(rng.randint(-10**12, 10**12))
        if shape == "min":
            return MinInt(rng.randint(-10**12, 10**12))
        if shape == "set":
            return SetUnion(rng.sample(range(60), rng.randint(0, 8)))
        if shape == "write_once":
            return WriteOnce(rng.choice((None, True, rng.randint(-9, 9),
                                         rng.choice("xyz"), (1, "x"))))
        if shape[0] == "map":
            return MapUnion({k: rand(shape[1])
                             for k in rng.sample(range(10), rng.randint(0, 5))})
        return Pair(rand(shape[1]), rand(shape[2]))

    shapes = ["bool_or", "max", "min", "set", "write_once",
              ("map", "set"), ("pair", "max", ("map", "min")),
              ("pair", "write_once", "bool_or")]
    start = time.monotonic()
    for shape in shapes:
        for _ in range(1000):
            a, b, c = rand(shape), rand(shape), rand(shape)
            ab = merge(a, b)
            assert ab == merge(b, a)                      # commutative
            assert merge(ab, c) == merge(a, merge(b, c))  # associative
            assert merge(a, a) == a                       # idempotent
            assert leq(a, ab) and leq(b, ab)              # join is an upper bound
            assert leq(a, b) == (ab == b)                 # leq agrees with merge
    assert time.monotonic() - start < 10.0


# confluence ------------------------------------------------------------------

def test_monotone_workloads_are_confluent_across_schedules():
    """100 random delivery schedules with 30% duplication all land on the
    one outcome the sequential reference predicts."""
    start = time.monotonic()
    covid = covid_tracker()
    covid_pat = get_pattern("covid_tracker")
    workload = covid_workload(0)
    expect = covid_pat.oracle(workload)
    mpi = get_pattern("mpi_collectives")
    mpi_workload_fixed = mpi.workload(0)
    mpi_expect = mpi.oracle(mpi_workload_fixed)
    for seed in range(100):
        cluster = run_workload(covid.program, workload, seed=seed,
                               network=NetworkModel(1, 6, 0.3))
        assert covid_pat.observe(cluster) == expect, seed
        # replicas that receive every handler's writes agree exactly
        shared = cluster.groups["estimate"]
        states = [cluster.node_state(n, include_mailboxes=False)
                  for n in shared if cluster.alive.get(n)]
        assert all(s == states[0] for s in states), seed

        mc = run_workload(mpi.program, mpi_workload_fixed, seed=seed,
                          network=NetworkModel(1, 6, 0.3))
        assert mpi.observe(mc) == mpi_expect, seed
    assert time.monotonic() - start < 60.0


# coordination witness --------------------------------------------------------

OVERSELL_WORKLOAD = [
    {"tick": 0, "client": "c1", "handler": "add_person",
     "fields": {"pid": 1, "name": "a", "country": "x"}},
    {"tick": 6, "client": "c1", "handler": "vaccinate", "fields": {"pid": 1}},
    {"tick": 6, "client": "c2", "handler": "vaccinate", "fields": {"pid": 1}},
]


def stock_counts(cluster):
    return [cluster.nodes[n].state.vars["vaccine_count"]
            for n in sorted(cluster.nodes) if cluster.alive.get(n)]


def test_unsequenced_decrements_violate_the_stock_invariant():
    pat = covid_tracker(coordinated=False, vaccine_count=1)
    for seed in range(1000):
        cluster = run_workload(pat.program, OVERSELL_WORKLOAD, seed=seed)
        counts = stock_counts(cluster)
        if any(c < 0 for c in counts) or len(set(counts)) > 1:
            return  # violation or divergence observed
    pytest.fail("no invariant violation in 1000 schedules")


def test_sequenced_decrements_never_violate_the_stock_invariant():
    pat = covid_tracker(coordinated=True, vaccine_count=1)
    for seed in range(1000):
        cluster = run_workload(pat.program, OVERSELL_WORKLOAD, seed=seed)
        counts = stock_counts(cluster)
        assert all(c >= 0 for c in counts), seed
        assert len(set(counts)) == 1, seed
        assert sorted(client_statuses(cluster).values()) == \
            ["accepted", "rejected"]


# serial equivalence ----------------------------------------------------------

def test_vaccinate_outcomes_match_an_actual_serial_order():
    doses = 3
    known = (1, 2)
    requests = {"v1": 1, "v2": 1, "v3": 2, "v4": 2, "v5": 7, "v6": 8}

    # reference: apply the six requests one at a time in every permutation
    admissible = set()
    for perm in itertools.permutations(sorted(requests)):
        n = doses
        statuses = {}
        vaccinated = set()
        for mid in perm:
            pid = requests[mid]
            if n - 1 >= 0 and pid in known:
                n -= 1
                vaccinated.add(pid)
                statuses[mid] = "accepted"
            else:
                statuses[mid] = "rejected"
        admissible.add((tuple(sorted(statuses.items())), n,
                        tuple(sorted(vaccinated))))

    pat = covid_tracker(vaccine_count=doses)
    workload = [{"tick": 0, "client": "c0", "handler": "add_person",
                 "fields": {"pid": pid, "name": f"p{pid}", "country": "x"}}
                for pid in known]
    workload += [{"tick": 10, "client": mid, "handler": "vaccinate",
                  "fields": {"pid": pid}, "message_id": mid}
                 for mid, pid in sorted(requests.items())]
    seen = set()
    for seed in range(100):
        cluster = run_workload(pat.program, workload, seed=seed,
                               network=NetworkModel(1, 6, 0.2))
        statuses = tuple(sorted(client_statuses(cluster).items()))
        replicas = [cluster.nodes[n].state
                    for n in cluster.groups["vaccinate"]
                    if cluster.alive.get(n)]
        counts = {st.vars["vaccine_count"] for st in replicas}
        assert len(counts) == 1, seed  # replicas applied the same order
        shots = {tuple(sorted(pid for (pid,), row in st.tables["people"].items()
                              if row.get("vaccinated"))) for st in replicas}
        assert len(shots) == 1, seed
        outcome = (statuses, counts.pop(), shots.pop())
        assert outcome in admissible, (seed, outcome)
        seen.add(outcome)
    assert len(seen) > 1  # schedules actually exercised different orders


# sequenced replication -------------------------------------------------------

# one person, one dose, four requests for it; delays of 1-6 let a commit
# record reach a backup before the person's row does, or reach a promoted
# sequencer after the next request
ONE_DOSE_WORKLOAD = [
    {"tick": 0, "client": "c0", "handler": "add_person",
     "fields": {"pid": 1, "name": "a", "country": "x"}},
] + [{"tick": 6 + i, "client": f"c{i + 1}", "handler": "vaccinate",
      "fields": {"pid": 1}} for i in range(4)]


def one_dose_cluster(seed, crash_tick=None):
    from latticeflow.scenario import Scenario, build_scenario_cluster
    pat = covid_tracker(coordinated=True, vaccine_count=1)
    failures = [] if crash_tick is None else [(crash_tick, ("dc0", "az0"))]
    cluster = build_scenario_cluster(Scenario(
        pat.program, seed, NetworkModel(1, 6, 0.2),
        workload=ONE_DOSE_WORKLOAD, failures=failures))
    cluster.run_to_quiescence()
    return cluster


def live_replica_states(cluster):
    return [cluster.node_state(n, include_mailboxes=False)
            for n in cluster.groups["vaccinate"] if cluster.alive.get(n)]


def accepted_doses(cluster):
    return sum(1 for box in cluster.responses.values()
               for mid, reply in box.items()
               if cluster.request_payload[mid][0] == "vaccinate"
               and reply["status"] == "accepted")


@pytest.mark.parametrize("seed", [5, 42, 610])
def test_backups_apply_the_sequencers_decision(seed):
    """A backup applies the effects that the sequencer committed, so it
    agrees with the sequencer even when the person's row reaches it after
    the record that vaccinates that person (these seeds diverged when
    backups re-ran the handler and its invariants)."""
    cluster = one_dose_cluster(seed)
    states = live_replica_states(cluster)
    assert len(states) == 3
    assert all(s == states[0] for s in states), seed
    assert accepted_doses(cluster) == 1


@pytest.mark.parametrize("seed,crash_tick",
                         [(0, 13), (3, 11), (5, 10), (42, 12), (260, 9)])
def test_a_promoted_sequencer_accepts_no_dose_twice(seed, crash_tick):
    """The sequencer's zone crashes while requests wait. Its successor
    decides only once it has applied every record issued before, so no
    client hears "accepted" for a dose already given (each case told two
    clients so when a promoted sequencer decided on a stale state)."""
    cluster = one_dose_cluster(seed, crash_tick)
    assert accepted_doses(cluster) <= 1, (seed, crash_tick)
    states = live_replica_states(cluster)
    assert all(s == states[0] for s in states), (seed, crash_tick)


# availability ----------------------------------------------------------------

SURVIVABLE_WORKLOAD = [
    {"tick": 0, "client": "c1", "handler": "add_person",
     "fields": {"pid": 1, "name": "a", "country": "x"}},
    {"tick": 2, "client": "c1", "handler": "diagnose", "fields": {"pid": 1}},
    {"tick": 4, "client": "c2", "handler": "vaccinate", "fields": {"pid": 1}},
    {"tick": 12, "client": "c2", "handler": "trace", "fields": {"pid": 1}},
]


def test_any_two_zone_failures_still_answer_every_request():
    from latticeflow.scenario import Scenario, build_scenario_cluster
    pat = covid_tracker(vaccine_count=5)
    for pair in itertools.combinations(("az0", "az1", "az2"), 2):
        for seed in range(10):
            cluster = build_scenario_cluster(Scenario(
                pat.program, seed=seed,
                network=NetworkModel(1, 4, 0.0)))
            for req in SURVIVABLE_WORKLOAD:
                cluster.schedule_request(req["tick"], req["client"],
                                         req["handler"], req["fields"])
            for az in pair:
                cluster.schedule_failure(7, ("dc0", az))
            cluster.run_to_quiescence()
            fresh = [mid for (_t, _c, mid, _p, f) in cluster.response_log if f]
            assert sorted(fresh) == sorted(cluster.request_payload), \
                (pair, seed)


def test_three_zone_failures_may_lose_requests_but_say_so():
    from latticeflow.scenario import Scenario, build_scenario_cluster
    pat = covid_tracker(vaccine_count=5)
    lost = 0
    for seed in range(10):
        cluster = build_scenario_cluster(
            Scenario(pat.program, seed=seed, network=NetworkModel(1, 4, 0.0)))
        for req in SURVIVABLE_WORKLOAD:
            cluster.schedule_request(req["tick"], req["client"],
                                     req["handler"], req["fields"])
        for az in ("az0", "az1", "az2"):
            cluster.schedule_failure(3, ("dc0", az))
        cluster.run_to_quiescence()
        fresh = {mid for (_t, _c, mid, _p, f) in cluster.response_log if f}
        missing = set(cluster.request_payload) - fresh
        if missing:
            lost += 1
            assert any(ev.kind == "NoLiveReplica" for ev in cluster.trace), seed
        # the run quiesces: each client gives up, once, every request it
        # never heard an answer to
        gave_up = [ev.detail["message_id"] for ev in cluster.trace
                   if ev.kind == "GaveUp"]
        assert sorted(gave_up) == sorted(missing), seed
    assert lost > 0


# collectives -----------------------------------------------------------------

def wide_collective_workload(seed):
    rng = random.Random(seed)
    acount = rng.choice([2, 4, 8, 16, 32, 64])
    out = [{"tick": 0, "client": "c1", "handler": "setup",
            "fields": {"acount": acount}}]
    arr = tuple(rng.randrange(1000) for _ in range(acount * rng.choice([2, 3])))
    out.append({"tick": 1, "client": "c1", "handler": "bcast",
                "fields": {"req_id": 1, "arr": arr, "acount": acount}})
    out.append({"tick": 1, "client": "c1", "handler": "scatter",
                "fields": {"req_id": 2, "arr": arr, "acount": acount}})
    vals = [rng.randrange(1000) for _ in range(acount)]
    for req_id, h in ((4, "gather"), (5, "reduce"),
                      (6, "allgather"), (7, "allreduce")):
        for i in range(acount):
            out.append({"tick": rng.randint(1, 4), "client": "c1",
                        "handler": "put",
                        "fields": {"req_id": req_id, "ix": i, "val": vals[i]}})
        out.append({"tick": 1, "client": "c1", "handler": h,
                    "fields": {"req_id": req_id, "acount": acount}})
    return out


def test_collectives_match_sequential_folds_up_to_64_agents():
    pat = get_pattern("mpi_collectives")
    for seed in range(50):
        workload = wide_collective_workload(seed)
        cluster = run_workload(pat.program, workload, seed=seed)
        got = pat.observe(cluster)
        want = pat.oracle(workload)
        for op in ("bcast", "scatter", "gather", "reduce",
                   "allgather", "allreduce"):
            assert got[op] == want[op], (seed, op)


def test_scatter_splits_evenly_or_element_wise():
    pat = get_pattern("mpi_collectives")

    def run_scatter(arr, acount):
        workload = [
            {"tick": 0, "client": "c1", "handler": "setup",
             "fields": {"acount": acount}},
            {"tick": 1, "client": "c1", "handler": "scatter",
             "fields": {"req_id": 1, "arr": arr, "acount": acount}},
        ]
        cluster = run_workload(pat.program, workload, seed=0)
        return {aid: chunk for (req, aid), chunk
                in pat.observe(cluster)["scatter"].items()}

    eight = tuple(range(10, 18))
    assert run_scatter(eight, 4) == {
        0: (10, 11), 1: (12, 13), 2: (14, 15), 3: (16, 17)}
    assert run_scatter(eight, 4) == scatter_chunks(eight, 4)
    four = tuple(range(20, 24))
    assert run_scatter(four, 4) == {0: (20,), 1: (21,), 2: (22,), 3: (23,)}
    assert run_scatter(four, 4) == scatter_chunks(four, 4)


# reachability ----------------------------------------------------------------

def test_reachability_agrees_with_breadth_first_search():
    rng = random.Random(70)
    for _ in range(100):
        n = rng.randint(2, 50)
        edges = sorted({(rng.randrange(n), rng.randrange(n))
                        for _ in range(rng.randint(1, 3 * n))})
        ic, gc = closure_contexts(edges)
        expect = bfs_closure(edges)
        assert ic.query_value("tc") == expect
        assert gc.query_value("tc") == expect
        # the delta-driven fixpoint never needs more passes than the naive one
        assert max(gc.rounds.values()) <= max(ic.rounds.values())


# backend agreement -----------------------------------------------------------

def test_operator_graph_backend_matches_the_direct_interpreter():
    # the bundled programs, on their own workloads
    for name in ("actors", "covid_tracker", "futures", "mpi_collectives"):
        pat = get_pattern(name)
        for seed in range(2):
            workload = pat.workload(seed)
            runs = [run_workload(pat.program, workload, seed=seed,
                                 backend=b) for b in ("graph", "interp")]
            assert runs[0].dump_states() == runs[1].dump_states(), (name, seed)
            assert runs[0].responses == runs[1].responses, (name, seed)
            assert pat.observe(runs[0]) == pat.observe(runs[1]), (name, seed)
    # and 50 fresh randomized workloads
    covid = get_pattern("covid_tracker")
    mpi = get_pattern("mpi_collectives")
    for seed in range(25):
        for pat in (covid, mpi):
            workload = pat.workload(1000 + seed)
            runs = [run_workload(pat.program, workload, seed=seed,
                                 backend=b) for b in ("graph", "interp")]
            assert runs[0].dump_states() == runs[1].dump_states(), seed
            assert runs[0].responses == runs[1].responses, seed


# deployment optimality -------------------------------------------------------

def grid_problem(rng):
    machines = [MachineType(f"m{i}",
                            capacity=rng.choice([1, 2, 4, 8, 16]),
                            price=rng.choice([0.0005, 0.002, 0.02]),
                            features=rng.choice([(), ("GPU",), ("SSD",)]))
                for i in range(rng.randint(1, 3))]
    targets = {}
    loads = {}
    for i in range(rng.randint(1, 4)):
        targets[f"h{i}"] = TargetSpec(
            latency_ms=rng.choice([15.0, 40.0, 120.0, None]),
            cost_units=rng.choice([0.001, 0.01, 0.1, None]),
            features=rng.choice([(), ("GPU",)]))
        loads[f"h{i}"] = HandlerLoad(
            base_ms=rng.choice([30.0, 150.0, 600.0]),
            fixed_ms=rng.choice([0.0, 5.0, 12.0]),
            rate=rng.choice([0.5, 1.0, 4.0]))
    from test_planner import placement_program
    return placement_program(targets), machines, CostModel(loads)


def test_optimizer_matches_exhaustive_search_over_the_grid():
    rng = random.Random(90)
    agree = 0
    for trial in range(150):
        program, machines, model = grid_problem(rng)
        budget = rng.choice([None, None, 0.005, 0.05, 1.0])
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
        agree += 1
    assert agree >= 50


def test_default_targets_fit_the_sample_catalog_and_need_the_gpu():
    program = covid_tracker().program
    plan = solve(program, sample_machines())
    assert verify(plan, program, sample_machines()) == []
    by_handler = {e.handler: e for e in plan.entries}
    assert by_handler["estimate"].machine == "gpu"
    without_gpu = [m for m in sample_machines() if "GPU" not in m.features]
    with pytest.raises(Infeasible) as exc:
        solve(program, without_gpu)
    sig = backtrack_signal(exc.value)
    assert any(r.handler == "estimate" and "features" in r.binding
               for r in sig)


# determinism -----------------------------------------------------------------

def test_identical_seeds_reproduce_the_run_byte_for_byte(tmp_path):
    pat = covid_tracker()
    workload = covid_workload(4)

    def run(seed, tag):
        path = tmp_path / f"trace-{tag}.jsonl"
        cluster = run_workload(pat.program, workload, seed=seed,
                               network=NetworkModel(1, 7, 0.2),
                               trace_path=str(path))
        cluster.record_state_dump()
        cluster.close()
        return path.read_bytes(), cluster.dump_states(), cluster.response_log

    t1, s1, r1 = run(42, "a")
    t2, s2, r2 = run(42, "b")
    assert t1 == t2
    assert s1 == s2 and r1 == r2
    t3, s3, _r3 = run(43, "c")
    assert t3 != t1
