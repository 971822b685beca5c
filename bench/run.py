"""latticeflow benchmark: three seeded workloads, checked against references.

    python3 bench/run.py --workload monotone_reads --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

Run from the root of a checkout; the program is imported from ``src/``.
Each run makes its inputs from ``--seed``, warms up, then repeats set-up plus
the timed phase for ``--seconds``. Every iteration is checked against its
reference. The end-to-end times are in reference-scaled seconds: each
iteration times the fixed kernel of ``reference.py`` just before and after
the workload, and its times are multiplied by ``NOMINAL_S`` over the kernel's
mean time, so that the drifting speed of a shared host cancels out. The result
holds the median over iterations; the wall-clock figures are printed in the
summary and kept in the run record. ``--workload all`` runs each workload in
its own process, one after the other.

With ``--trace 0`` the last line of standard output is the end-to-end
result; with ``--trace 1`` traced and untraced iterations alternate, the
result holds the per-layer metrics of the traced ones, and the spans of the
last traced iteration are written to ``bench/out/``.

Exit codes: 0 success, 1 a gate of ``monotone_reads`` or ``closure``
disagreed with its reference, 2 the program could not be set up.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
NAMES = ("monotone_reads", "sequenced_failover", "closure")
GATED = ("monotone_reads", "closure")   # a mismatch here exits nonzero
WARMUP = 3          # untimed set-ups and kernel runs before the first
                    # iteration
SETUP_EXTRA = 3     # set-ups timed with each iteration besides the one that
                    # precedes its timed phase
REFERENCE_RUNS = 3  # kernel runs just before and just after each iteration
MIN_ITERATIONS = 3

EXIT_OK, EXIT_MISMATCH, EXIT_SETUP = 0, 1, 2


def fingerprint(inputs) -> str:
    canonical = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine()}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def median(values):
    return statistics.median(values) if values else 0.0


def timed_setup(w, inputs):
    t0 = time.perf_counter()
    built = w.setup(inputs)
    return time.perf_counter() - t0, built


def iterate(w, inputs, record: dict, problems: list):
    """One iteration: set-ups and the timed phase, checked, between runs of
    the reference kernel. Returns (set-up wall times, wall_s, done, scale),
    where `scale` turns this iteration's wall seconds into reference-scaled
    seconds."""
    gc.collect()
    kernel = [reference.measure() for _ in range(REFERENCE_RUNS)]
    setups = [timed_setup(w, inputs)[0] for _ in range(SETUP_EXTRA)]
    setup_s, built = timed_setup(w, inputs)
    setups.append(setup_s)
    wall, done = w.run(built)
    kernel += [reference.measure() for _ in range(REFERENCE_RUNS)]
    tally(w.check(inputs, built, done), record, problems)
    return setups, wall, done, reference.NOMINAL_S / statistics.mean(kernel)


def tally(verdict: dict, record: dict, problems: list):
    record["attempted"] += verdict["attempted"]
    record["failed"] += verdict["failed"]
    problems.extend(p for p in verdict["problems"] if p not in problems)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS, SetupError

    w = WORKLOADS[name]
    inputs = w.inputs(seed)
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "params": w.params,
              "sizes": w.sizes(inputs), "inputs_sha256": fingerprint(inputs),
              **environment(), "attempted": 0, "failed": 0}
    problems: list = []
    try:
        for _ in range(WARMUP):
            timed_setup(w, inputs)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SETUP
    for _ in range(WARMUP):
        reference.measure()

    if trace:
        metrics = traced_runs(w, inputs, seconds, record, problems)
    else:
        metrics = plain_runs(w, inputs, seconds, record, problems)

    correct = not problems and record["failed"] == 0
    record.update(correct=correct, problems=problems[:20], metrics=metrics)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    units = declared_units(trace)
    report(record, metrics, {**units, **EXTRA_UNITS})
    for p in problems[:20]:
        print(f"  problem: {p}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {k: {"value": metrics[k], "unit": unit}
                                  for k, unit in units.items()}}))
    if problems and name in GATED:
        return EXIT_MISMATCH
    return EXIT_OK


def iterations(seconds: float):
    """Yield once per iteration while the next one, if it takes as long as
    the last one did, still ends within `seconds` of the start."""
    start = last = time.perf_counter()
    n = 0
    while True:
        now = time.perf_counter()
        if n >= MIN_ITERATIONS and 2 * now - last - start > seconds:
            return
        last = now
        yield
        n += 1


def plain_runs(w, inputs, seconds, record, problems) -> dict:
    s = {k: [] for k in ("requests", "wall_s", "scale", "setup_wall_s",
                         "requests_per_s", "setup_s", "facts_per_s",
                         "oracle_facts_per_s")}
    for _ in iterations(seconds):
        setups, wall, done, scale = iterate(w, inputs, record, problems)
        s["requests"].append(done["requests"])
        s["wall_s"].append(wall)
        s["scale"].append(scale)
        s["setup_wall_s"] += setups
        s["requests_per_s"].append(done["requests"] / (wall * scale))
        s["setup_s"] += [t * scale for t in setups]
        if "facts_per_s" in done:
            s["facts_per_s"].append(done["facts_per_s"] / scale)
            s["oracle_facts_per_s"].append(done["oracle_facts_per_s"] / scale)
    record["iterations"] = len(s["wall_s"])
    record["samples"] = s
    record["wall_clock"] = {
        "requests_per_s": median([n / t for n, t in zip(s["requests"],
                                                       s["wall_s"])]),
        "setup_s": median(s["setup_wall_s"]),
    }
    metrics = {"requests_per_s": median(s["requests_per_s"]),
               "setup_s": median(s["setup_s"]), "peak_rss_mb": peak_rss_mb()}
    if s["facts_per_s"]:
        metrics["facts_per_s"] = median(s["facts_per_s"])
        metrics["oracle_facts_per_s"] = median(s["oracle_facts_per_s"])
    return metrics


def traced_runs(w, inputs, seconds, record, problems) -> dict:
    """Alternate untraced and traced iterations; report the per-layer
    metrics of the traced ones and the overhead between the two."""
    import workloads
    from tracing import ROOT as ROOT_SPAN, Tracer, instrument, layer_metrics

    plain, traced, layers, gaps = [], [], [], []
    tracer = None
    for _ in iterations(seconds):
        setups, wall, _done, _scale = iterate(w, inputs, record, problems)
        plain.append(setups[-1] + wall)

        tracer = Tracer()
        gc.collect()
        with instrument(tracer, extra_modules=(workloads,)):
            root = tracer.open(ROOT_SPAN)
            built = w.setup(inputs)
            _wall, done = w.run(built)
            tracer.close(root)
        verdict = w.check(inputs, built, done)
        tally(verdict, record, problems)
        traced_wall = tracer.spans[root][2] - tracer.spans[root][1]
        traced.append(traced_wall)
        counts = w.sim_counts(built) if hasattr(w, "sim_counts") else {}
        layers.append(layer_metrics(tracer, counts,
                                    verdict["divergent_replicas"]))
        by_layer = tracer.layer_self_s()
        gaps.append(traced_wall - sum(t for layer, t in by_layer.items()
                                      if layer != "bench"))
        record.setdefault("layer_self_s", []).append(by_layer)

    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"{w.name}-seed{record['seed']}-spans.json"))
    metrics = {k: median([m[k] for m in layers]) for k in layers[0]}
    overhead = median(traced) - median(plain)
    unattributed = median(gaps)
    metrics.update({
        "trace.wall_s": median(traced),
        "trace.untraced_wall_s": median(plain),
        "trace.overhead_share": overhead / median(plain),
        # traced wall time outside every layer span: the layers' self times
        # add up to the traced wall time up to this share
        "trace.unattributed_s": unattributed,
        "trace.unattributed_share": unattributed / median(traced),
        "trace.spans": len(tracer.spans),
    })
    record["iterations"] = len(traced)
    record["samples"] = {"untraced_wall_s": plain, "traced_wall_s": traced}
    return metrics


# metrics printed in the summary that BENCHMARK.json does not declare
EXTRA_UNITS = {"facts_per_s": "1/s", "oracle_facts_per_s": "1/s",
               "failed_share": "share"}


def declared_units(trace: bool) -> dict:
    """name -> unit of every metric BENCHMARK.json declares for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def report(record: dict, metrics: dict, units: dict):
    """Human-readable summary: every metric by name, with its unit."""
    print(f"{record['workload']} seed {record['seed']}: "
          f"{record['iterations']} iterations, inputs {record['sizes']}, "
          f"sha256 {record['inputs_sha256'][:16]}, python {record['python']},"
          f" nproc {record['nproc']}")
    attempted = record["attempted"]
    share = record["failed"] / attempted if attempted else 0.0
    rows = dict(metrics)
    if not record["trace"]:
        rows["failed_share"] = share
    for key, value in rows.items():
        print(f"  {key:32s} {value:>14.6g} {units[key]}")
    for key, value in record.get("wall_clock", {}).items():
        print(f"  {key + ' (wall clock)':32s} {value:>14.6g} {units[key]}")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = EXIT_OK
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, check=False)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "latticeflow")):
        print(f"error: no latticeflow package under {src}", file=sys.stderr)
        return EXIT_SETUP
    sys.path[:0] = [src, HERE]
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
