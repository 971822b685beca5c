"""Run every MPI-style collective on the cluster simulator and print the
outputs next to the sequential reference. Exits 1 when any output differs
from the reference."""

import pprint
import sys

from latticeflow.patterns import mpi_collectives, run_workload


def main():
    pat = mpi_collectives()
    workload = pat.workload(seed=4)
    cluster = run_workload(pat.program, workload, seed=4)
    got = pat.observe(cluster)
    want = pat.oracle(workload)
    mismatched = [op for op in sorted(got) if got[op] != want[op]]
    for op in sorted(got):
        status = "MISMATCH" if op in mismatched else "ok"
        print(f"--- {op} [{status}]")
        pprint.pprint(got[op])
    print(f"quiesced at tick {cluster.tick}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
