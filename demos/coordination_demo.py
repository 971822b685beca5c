"""Show why the vaccinate handler needs coordination.

Runs the same two-request workload (one dose left, two takers) first with
the serializable annotation, then with it stripped. The coordinated run
always admits exactly one request; the uncoordinated run oversells. Exits 1
unless every coordinated run leaves no dose on any replica and answers one
request accepted and the other rejected.
"""

import sys

from latticeflow.patterns import covid_tracker, run_workload
from latticeflow.sim import NetworkModel


WORKLOAD = [
    {"tick": 0, "client": "c1", "handler": "add_person",
     "fields": {"pid": 1, "name": "ana", "country": "ar"}},
    {"tick": 5, "client": "c1", "handler": "vaccinate", "fields": {"pid": 1}},
    {"tick": 5, "client": "c2", "handler": "vaccinate", "fields": {"pid": 1}},
]


def run(coordinated: bool, seed: int):
    """The doses left on each replica, and the statuses the clients got."""
    pat = covid_tracker(coordinated=coordinated, vaccine_count=1)
    cluster = run_workload(pat.program, WORKLOAD, seed=seed,
                           network=NetworkModel(1, 5, 0.0))
    counts = sorted(cluster.nodes[n].state.vars["vaccine_count"]
                    for n in sorted(cluster.nodes))
    statuses = sorted(payload["status"]
                      for box in cluster.responses.values()
                      for payload in box.values() if "status" in payload)
    return counts, statuses


def main():
    failed = False
    for seed in range(5):
        counts, statuses = run(True, seed)
        print(f"seed {seed} coordinated:   counts={counts} statuses={statuses}")
        if set(counts) != {0} or statuses != ["accepted", "rejected"]:
            failed = True
        counts, _ = run(False, seed)
        flag = "  <-- negative stock!" if any(c < 0 for c in counts) else ""
        print(f"seed {seed} uncoordinated: counts={counts}{flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
