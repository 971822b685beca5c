"""Command-line interface.

Subcommands:
  analyze        validate a program and print its coordination report
  simulate       run a scenario file on the deterministic cluster simulator
  plan           compute an optimal deployment plan
  list-patterns  show the bundled example programs

Exit codes: 0 success, 2 validation or input error, 3 the simulation did
not reach quiescence, 4 the deployment problem is infeasible, 5 a node
failed while the simulation ran (a UDF failed, a fixpoint diverged, an
assignment was ambiguous, a lattice shape mismatched or an integer
overflowed), 141 the reader of standard output closed it before the
output ended (as ``| head`` does), the status a shell gives a process
that SIGPIPE ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_QUIESCENCE = 3
EXIT_INFEASIBLE = 4
EXIT_RUNTIME = 5
EXIT_CLOSED_PIPE = 141


def _load_program(ref):
    from .scenario import load_program
    return load_program(ref)


def cmd_analyze(args) -> int:
    from .analysis import calm_report, metaconsistency_conflicts
    from .facets import facet_warnings
    from .ir import validate
    from .lowering import lower
    from .scenario import ScenarioError

    try:
        program = _load_program(args.program)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    report = validate(program)
    if not report.ok:
        for e in report:
            print(f"invalid: {e.code}: {e.message}", file=sys.stderr)
        return EXIT_VALIDATION

    calm = calm_report(program)
    print(f"program: {program.name}")
    print(calm.render_table())
    for w in facet_warnings(program):
        print(f"warning: {w.code}: {w.message}")
    for c in metaconsistency_conflicts(program):
        print(f"conflict: {c}", file=sys.stderr)

    try:
        plan = lower(program)
    except Exception as exc:
        print(f"lowering failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.inspect:
        print(json.dumps(plan.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_simulate(args) -> int:
    from .ir import validate
    from .scenario import ScenarioError, load_scenario, run_scenario
    from .sim import NODE_FAILURES, NoQuiescence
    from .state import encode_value

    if args.seeds < 1:
        print(f"error: --seeds {args.seeds}: runs no seed", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        sc = load_scenario(args.scenario)
    except (ScenarioError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    report = validate(sc.program)
    if not report.ok:
        for e in report:
            print(f"invalid: {e.code}: {e.message}", file=sys.stderr)
        return EXIT_VALIDATION

    base_seed = args.seed if args.seed is not None else sc.seed
    seeds = [base_seed + i for i in range(args.seeds)]
    for i, seed in enumerate(seeds):
        trace_path = args.trace if args.trace and len(seeds) == 1 else (
            f"{args.trace}.{seed}" if args.trace else None)
        try:
            cluster = run_scenario(sc, backend=args.backend, seed=seed,
                                   trace_path=trace_path)
        except (ScenarioError, OSError) as exc:   # OSError: the trace path
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except NoQuiescence as exc:
            print(f"seed {seed}: no quiescence: {exc}", file=sys.stderr)
            return EXIT_NO_QUIESCENCE
        except NODE_FAILURES as exc:
            where = (f" at tick {exc.tick} on node {exc.node_id}"
                     if hasattr(exc, "node_id") else "")
            handlers = getattr(exc, "handlers", ())
            if handlers:
                where += (f" in handler{'s' if len(handlers) > 1 else ''} "
                          f"{', '.join(handlers)}")
            print(f"seed {seed}: {type(exc).__name__}{where}: {exc}",
                  file=sys.stderr)
            return EXIT_RUNTIME
        print(f"seed {seed}: quiesced at tick {cluster.tick}")
        for client, box in sorted(cluster.responses.items()):
            for mid, payload in sorted(box.items()):
                body = {k: encode_value(v) for k, v in payload.items()}
                print(f"  response {client}/{mid}: "
                      + json.dumps(body, sort_keys=True))
        for sink, msgs in sorted(cluster.sink_outputs.items()):
            for m in msgs:
                body = {k: encode_value(v) for k, v in m.items()}
                print(f"  sink {sink}: " + json.dumps(body, sort_keys=True))
        if args.inspect:
            print(json.dumps(cluster.dump_states(), indent=2, sort_keys=True))
    return EXIT_OK


def _load_machines(path):
    """The machine catalog at `path`, a JSON list of objects with `name`,
    `capacity`, `price` and optional `features`, or the sample catalog;
    ValueError for a file that does not hold one."""
    from .patterns import sample_machines
    from .planner import MachineType
    if path is None:
        return sample_machines()
    with open(path) as f:
        raw = json.load(f)
    if not isinstance(raw, list) or not all(isinstance(m, dict) for m in raw):
        raise ValueError(f"{path}: a machine catalog is a list of objects")
    try:
        machines = [MachineType(m["name"], m["capacity"], m["price"],
                                tuple(m.get("features", ()))) for m in raw]
    except KeyError as exc:
        raise ValueError(f"{path}: a machine has no field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    for m in machines:
        for field, value in (("capacity", m.capacity), ("price", m.price)):
            if not math.isfinite(value):
                raise ValueError(f"{path}: machine {m.name!r} has {field} "
                                 f"{value:g}, not a finite number")
        if not m.capacity > 0:   # the cost model divides by it
            raise ValueError(f"{path}: machine {m.name!r} has capacity "
                             f"{m.capacity:g}, not above 0")
        if m.price < 0:
            raise ValueError(f"{path}: machine {m.name!r} has price "
                             f"{m.price:g}, below 0")
    return machines


def cmd_plan(args) -> int:
    from .planner import (CostModel, Infeasible, ModelError, backtrack_signal,
                          solve)
    from .scenario import ScenarioError

    try:
        program = _load_program(args.program)
        machines = _load_machines(args.machines)
    except (ScenarioError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        plan = solve(program, machines, objective=args.objective,
                     model=CostModel(), budget=args.budget)
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        for req in backtrack_signal(exc):
            where = req.handler or "<global>"
            print(f"  {where}: binding={','.join(req.binding)}: "
                  f"{req.suggestion}", file=sys.stderr)
        return EXIT_INFEASIBLE

    out = json.dumps(plan.to_dict(), indent=2, sort_keys=True)
    if args.dump_plan:
        try:
            with open(args.dump_plan, "w") as f:
                f.write(out + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        print(f"plan written to {args.dump_plan}")
    else:
        print(out)
    return EXIT_OK


def cmd_list_patterns(args) -> int:
    from .patterns import get_pattern, pattern_names
    for name in pattern_names():
        pat = get_pattern(name)
        handlers = ", ".join(sorted(h.name for h in pat.program.handlers))
        print(f"{name}: {handlers}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="latticeflow",
        description="lattice-typed dataflow: analyze, simulate, and plan")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="validate and classify a program")
    pa.add_argument("program",
                    help="bundled pattern name or program JSON file")
    pa.add_argument("--inspect", action="store_true",
                    help="print the lowered operator plan")
    pa.set_defaults(fn=cmd_analyze)

    ps = sub.add_parser("simulate", help="run a scenario deterministically")
    ps.add_argument("scenario", help="scenario JSON file")
    ps.add_argument("--seed", type=int, default=None,
                    help="override the scenario seed")
    ps.add_argument("--seeds", type=int, default=1,
                    help="run N consecutive seeds")
    ps.add_argument("--trace", default=None,
                    help="write a JSON-lines event trace to this path")
    ps.add_argument("--backend", choices=("graph", "interp"), default="graph")
    ps.add_argument("--inspect", action="store_true",
                    help="dump final node states")
    ps.set_defaults(fn=cmd_simulate)

    pp = sub.add_parser("plan", help="compute a deployment plan")
    pp.add_argument("program",
                    help="bundled pattern name or program JSON file")
    pp.add_argument("--machines", default=None,
                    help="machine catalog JSON file (default: sample catalog)")
    pp.add_argument("--objective", choices=("min_instances", "max_throughput"),
                    default="min_instances")
    pp.add_argument("--budget", type=float, default=None,
                    help="global cost budget across all handlers")
    pp.add_argument("--dump-plan", default=None,
                    help="write the plan JSON to this path")
    pp.set_defaults(fn=cmd_plan)

    pl = sub.add_parser("list-patterns", help="show bundled programs")
    pl.set_defaults(fn=cmd_list_patterns)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # nothing more can be written; the interpreter flushes stdout again
        # as it exits, so it is pointed at the null device first
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE


if __name__ == "__main__":
    sys.exit(main())
