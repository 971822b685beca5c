"""Determinism self-check for the benchmark's simulated workloads.

    python3 -m pytest -q bench/test_determinism.py

Two traced runs of one seed must give identical simulated counts, and a
different seed must change the network schedule.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import workloads  # noqa: E402
from latticeflow.sim import trace_text  # noqa: E402
from run import fingerprint  # noqa: E402
from tracing import Tracer, instrument, layer_metrics  # noqa: E402

SIMULATED = ("monotone_reads", "sequenced_failover")
# every per-layer metric that counts simulated or evaluated work; the timing
# metrics (``_s``, ``_ms``) are left out because wall time never repeats
COUNTED = (
    "sim.ticks", "sim.messages_sent", "sim.duplicated", "sim.deduplicated",
    "sim.dropped", "sim.retransmitted", "sim.no_live_replica",
    "sim.trace_events", "sim.proxy_pending_max", "sim.latency_ticks_p50",
    "sim.latency_ticks_p99", "sim.divergent_replicas",
    "runtime.fixpoint_calls", "runtime.fixpoint_rounds", "runtime.op_rows",
    "runtime.eval_comp_calls", "eval.table_rows_calls",
    "transducer.ticks", "transducer.handlers_fired", "transducer.accepted",
    "transducer.rejected", "state.snapshot_calls",
    "state.mailbox_depth_p50", "state.mailbox_depth_max",
)


def traced_run(name: str, seed: int):
    w = workloads.WORKLOADS[name]
    inputs = w.inputs(seed)
    tracer = Tracer()
    with instrument(tracer, extra_modules=(workloads,)):
        built = w.setup(inputs)
        w.run(built)
    verdict = w.check(inputs, built, {})
    counts = w.sim_counts(built)
    metrics = layer_metrics(tracer, counts, verdict["divergent_replicas"])
    observed = {k: metrics[k] for k in COUNTED}
    observed["latency_ticks"] = counts["latency_ticks"]
    observed["inputs_sha256"] = fingerprint(inputs)
    return observed, trace_text(built[1])


@pytest.mark.parametrize("name", SIMULATED)
def test_one_seed_repeats_every_simulated_count(name):
    first, first_trace = traced_run(name, 11)
    second, second_trace = traced_run(name, 11)
    assert first == second
    assert first_trace == second_trace


@pytest.mark.parametrize("name", SIMULATED)
def test_another_seed_changes_the_schedule(name):
    first, first_trace = traced_run(name, 11)
    other, other_trace = traced_run(name, 12)
    assert first["inputs_sha256"] != other["inputs_sha256"]
    assert first_trace != other_trace


def test_inputs_depend_on_the_seed_alone():
    for name, w in workloads.WORKLOADS.items():
        assert fingerprint(w.inputs(5)) == fingerprint(w.inputs(5)), name
