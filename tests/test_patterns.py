"""End-to-end pattern workloads checked against their reference models."""

import pytest

from conftest import client_statuses
from latticeflow.analysis import calm_report
from latticeflow.ir import validate
from latticeflow.patterns import (
    covid_tracker, get_pattern, pattern_names, run_workload, scatter_chunks,
)
from latticeflow.sim import NetworkModel


ALL = tuple(pattern_names())


@pytest.mark.parametrize("name", ALL)
def test_pattern_validates(name):
    assert validate(get_pattern(name).program).ok


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("backend", ["graph", "interp"])
def test_workload_matches_oracle(name, backend):
    pat = get_pattern(name)
    for seed in range(3):
        workload = pat.workload(seed)
        cluster = run_workload(pat.program, workload, seed=seed,
                               backend=backend)
        assert pat.observe(cluster) == pat.oracle(workload), (name, seed)


@pytest.mark.parametrize("name", ALL)
def test_workload_survives_message_duplication(name):
    pat = get_pattern(name)
    workload = pat.workload(0)
    cluster = run_workload(pat.program, workload, seed=5,
                           network=NetworkModel(1, 6, 0.5))
    assert pat.observe(cluster) == pat.oracle(workload)


def test_unknown_pattern_name():
    with pytest.raises(KeyError):
        get_pattern("nope")


def test_scatter_chunking_reference():
    assert scatter_chunks(tuple(range(8)), 4) == {
        0: (0, 1), 1: (2, 3), 2: (4, 5), 3: (6, 7)}
    assert scatter_chunks(tuple(range(4)), 4) == {
        0: (0,), 1: (1,), 2: (2,), 3: (3,)}


def test_vaccinate_is_the_only_coordinated_covid_handler():
    rep = calm_report(covid_tracker().program)
    assert rep.needs_coordination == ("vaccinate",)


def test_uncoordinated_vaccinate_oversells():
    workload = [
        {"tick": 0, "client": "c1", "handler": "add_person",
         "fields": {"pid": 1, "name": "a", "country": "x"}},
        {"tick": 6, "client": "c1", "handler": "vaccinate",
         "fields": {"pid": 1}},
        {"tick": 6, "client": "c2", "handler": "vaccinate",
         "fields": {"pid": 1}},
    ]
    bad = 0
    for seed in range(25):
        pat = covid_tracker(coordinated=False, vaccine_count=1)
        cluster = run_workload(pat.program, workload, seed=seed)
        counts = [cluster.nodes[n].state.vars["vaccine_count"]
                  for n in cluster.nodes if cluster.alive.get(n)]
        if any(c < 0 for c in counts):
            bad += 1
    assert bad > 0


def test_coordinated_vaccinate_never_oversells():
    workload = [
        {"tick": 0, "client": "c1", "handler": "add_person",
         "fields": {"pid": 1, "name": "a", "country": "x"}},
        {"tick": 6, "client": "c1", "handler": "vaccinate",
         "fields": {"pid": 1}},
        {"tick": 6, "client": "c2", "handler": "vaccinate",
         "fields": {"pid": 1}},
    ]
    for seed in range(25):
        pat = covid_tracker(coordinated=True, vaccine_count=1)
        cluster = run_workload(pat.program, workload, seed=seed)
        counts = [cluster.nodes[n].state.vars["vaccine_count"]
                  for n in cluster.nodes if cluster.alive.get(n)]
        assert all(c >= 0 for c in counts), seed
        assert sorted(client_statuses(cluster).values()) == \
            ["accepted", "rejected"]


def test_vaccinating_an_unknown_person_is_rejected():
    pat = covid_tracker(vaccine_count=3)
    workload = [{"tick": 0, "client": "c1", "handler": "vaccinate",
                 "fields": {"pid": 99}}]
    cluster = run_workload(pat.program, workload, seed=1)
    assert list(client_statuses(cluster).values()) == ["rejected"]


def test_actor_messages_wait_for_spawn():
    pat = get_pattern("actors")
    workload = [
        {"tick": 0, "client": "c1", "handler": "spawn",
         "fields": {"kind": "counter"}, "message_id": "actorA"},
        {"tick": 0, "client": "c1", "handler": "do_m",
         "fields": {"actor_id": "actorA", "msg": 7}},
    ]
    cluster = run_workload(pat.program, workload, seed=2)
    obs = pat.observe(cluster)
    assert obs == pat.oracle(workload)
