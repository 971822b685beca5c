"""Span tracing for the per-layer split, installed from the benchmark's own
files around the public entry points of each latticeflow module.

A span has a name, a start, an end, a parent span and attributes. A span's
self time is its duration minus the time its child spans cover. The layer
is the part of the name before the first dot, which is the module the entry
point lives in. Spans stay in memory and are written out at the end.

Nothing here is active outside the ``instrument`` block, so the untraced
iterations that give the end-to-end metrics run the program unwrapped.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

from latticeflow import (analysis, eval as lf_eval, facets, interp, ir,
                         lowering, patterns, planner, runtime, scenario, sim,
                         state, transducer)
from latticeflow.ir import MESSAGE_ID

ROOT = "bench.iteration"


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, attrs]
        self._child = []     # time covered by each span's children
        self._stack = []
        self.self_s = {}     # span name -> summed self time
        self.calls = {}      # span name -> number of spans
        self.counts = {}     # counter name -> value
        self.samples = {}    # sample name -> list of values
        self.node_of = {}    # id(Transducer) -> node id
        self.node = None     # node whose tick is running
        self._prev_facts = {}

    def open(self, name: str, attrs=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, attrs])
        self._child.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        dur = end - span[1]
        name = span[0]
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - self._child[idx]
        self.calls[name] = self.calls.get(name, 0) + 1
        if span[3] >= 0:
            self._child[span[3]] += dur

    def count(self, name: str, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def sample(self, name: str, value):
        self.samples.setdefault(name, []).append(value)

    def fresh_facts(self, key, facts: frozenset) -> int:
        """Facts not returned by this node's previous evaluation."""
        prev = self._prev_facts.get(key, frozenset())
        self._prev_facts[key] = facts
        return len(facts - prev)

    def durations(self, name: str) -> list:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def layer_self_s(self) -> dict:
        out = {}
        for name, t in self.self_s.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def write(self, path: str):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "attrs"],
                       "spans": [[n, s, e, p, a]
                                 for n, s, e, p, a in self.spans]}, f)


def _spanned(tracer: Tracer, name: str, fn, attrs=None, after=None):
    """Wrap `fn` in a span; `attrs(args)` names it, `after` sees the result."""

    def wrapper(*args, **kw):
        before = attrs(args) if attrs else None
        idx = tracer.open(name, before)
        try:
            result = fn(*args, **kw)
        finally:
            tracer.close(idx)
        if after is not None:
            after(args, result, before)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _counted(fn, on_call):
    def wrapper(*args, **kw):
        on_call(args)
        return fn(*args, **kw)

    wrapper.__wrapped__ = fn
    return wrapper


def _bindings(fn, extra_modules):
    """Every (module, attribute) that refers to the function `fn`; names
    imported with ``from x import f`` are separate bindings."""
    mods = [m for n, m in list(sys.modules.items())
            if n.startswith("latticeflow")] + list(extra_modules)
    return [(m, attr) for m in mods for attr, v in list(vars(m).items())
            if v is fn]


@contextmanager
def instrument(tracer: Tracer, extra_modules=()):
    """Install the wrappers for the duration of the block. `extra_modules`
    are modules outside the package whose imported names are wrapped too."""
    patched = []
    try:
        _install(tracer, extra_modules, patched)
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def _install(tracer: Tracer, extra_modules, patched: list):
    def patch(owner, attr, wrapper):
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch_function(fn, name, **kw):
        wrapper = _spanned(tracer, name, fn, **kw)
        for owner, attr in _bindings(fn, extra_modules):
            patch(owner, attr, wrapper)

    def patch_method(cls, attr, name, **kw):
        patch(cls, attr, _spanned(tracer, name, vars(cls)[attr], **kw))

    # --- set-up layers ---------------------------------------------------
    def built(args, cluster, _attrs):
        for nid, node in cluster.nodes.items():
            tracer.node_of[id(node)] = nid

    for fn, name, kw in (
            (patterns.covid_program, "program.construct", {}),
            (ir.validate, "ir.validate", {}),
            (analysis.calm_report, "analysis.calm_report", {}),
            (analysis.stratify, "analysis.stratify", {}),
            (lowering.lower, "lowering.lower", {}),
            (planner.solve, "planner.solve", {}),
            (facets.replication_plan, "facets.replication_plan", {}),
            (scenario.load_scenario, "scenario.load", {}),
            (scenario.build_scenario_cluster, "scenario.build",
             {"after": built}),
            (runtime.compile_queries, "runtime.compile_queries", {})):
        patch_function(fn, name, **kw)
    for m in extra_modules:
        if hasattr(m, "closure_program"):
            patch_function(m.closure_program, "program.construct")

    # --- sim -------------------------------------------------------------
    def after_step(args, _active, _attrs):
        cluster = args[0]
        pending = [len(st.pending) for st in cluster.proxy_state.values()]
        tracer.sample("proxy_pending", max(pending, default=0))

    patch_method(sim.Cluster, "step", "sim.step",
                 attrs=lambda a: {"tick": a[0].tick}, after=after_step)
    patch_method(sim.Cluster, "run_to_quiescence", "sim.run")

    # --- transducer --------------------------------------------------------
    tick = vars(transducer.Transducer)["tick"]

    def traced_tick(node):
        pending = [m.get(MESSAGE_ID) for h in node.handlers
                   for m in node.state.mailboxes.get(h.name, ())]
        nid = tracer.node_of.get(id(node), "local")
        tracer.sample("mailbox_depth", len(pending))
        attrs = {"node": nid, "consumed": None}
        idx = tracer.open("transducer.tick", attrs)
        outer, tracer.node = tracer.node, nid
        try:
            result = tick(node)
        finally:
            tracer.node = outer
            tracer.close(idx)
        left = {m.get(MESSAGE_ID) for h in node.handlers
                for m in node.state.mailboxes.get(h.name, ())}
        attrs["consumed"] = [mid for mid in pending if mid not in left]
        tracer.count("transducer.ticks")
        tracer.count("transducer.handlers_fired", len(result.fired))
        for status in result.statuses.values():
            tracer.count(f"transducer.{status}")
        tracer.count("transducer.udf_invocations", result.udf_invocations)
        return result

    patch(transducer.Transducer, "tick", traced_tick)

    # --- runtime ---------------------------------------------------------
    def after_fixpoint(args, result, attrs):
        totals, rounds = result
        ctx = args[1]
        node = tracer.node or f"ctx{id(ctx)}"
        facts = 0
        for q, v in totals.items():
            facts += len(v)
            tracer.count("runtime.fresh_facts",
                         tracer.fresh_facts((node, q), v))
        tracer.count("runtime.fixpoint_calls")
        tracer.count("runtime.fixpoint_rounds", rounds)
        tracer.count("runtime.fixpoint_facts", facts)
        tracer.count("runtime.fixpoint_project_rows",
                     tracer.counts.get("runtime.project_rows", 0)
                     - attrs.pop("project_rows_before"))

    def fixpoint_attrs(args):
        return {"group": ",".join(sorted(args[0].scc)),
                "project_rows_before":
                    tracer.counts.get("runtime.project_rows", 0)}

    patch_function(runtime.apply_fixpoint, "runtime.apply_fixpoint",
                   attrs=fixpoint_attrs, after=after_fixpoint)

    def query_group(args):
        ctx, name = args[0], args[1]
        group = ctx.compiled.group_of.get(name)
        return {"group": ",".join(sorted(group.scc)) if group else name}

    patch_method(runtime.GraphContext, "query_value", "runtime.query_value",
                 attrs=query_group)

    def on_note(args):
        tracer.count("runtime.op_rows", args[2])
        if args[1].startswith("project"):
            tracer.count("runtime.project_rows", args[2])

    patch(runtime.GraphContext, "note",
          _counted(vars(runtime.GraphContext)["note"], on_note))
    patch_method(runtime.GraphContext, "eval_comp", "runtime.eval_comp")

    # --- eval, interp ----------------------------------------------------
    patch_method(lf_eval.EvalContext, "table_rows", "eval.table_rows")
    patch_method(lf_eval.EvalContext, "collection", "eval.collection")

    def interp_before(args):
        return {"group": args[1], "known": set(args[0].rounds)}

    def interp_after(args, _value, attrs):
        known = attrs.pop("known")
        for group, rounds in args[0].rounds.items():
            if group not in known:
                tracer.count("interp.rounds", rounds)

    patch_method(interp.InterpContext, "query_value", "interp.query_value",
                 attrs=interp_before, after=interp_after)

    # --- state -----------------------------------------------------------
    patch_method(state.NodeState, "snapshot", "state.snapshot")
    patch_method(state.NodeState, "fork", "state.fork")
    patch_method(state.NodeState, "commit", "state.commit")


def percentile(values, q: float):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer: Tracer, sim_counts: dict, divergent: int) -> dict:
    """The per-layer metrics of one traced iteration."""
    s, c = tracer.self_s, tracer.counts
    fixpoint_facts = c.get("runtime.fixpoint_facts", 0)
    project_rows = c.get("runtime.fixpoint_project_rows", 0)
    requests = sim_counts.get("requests", 0)
    tick_ms = [d * 1000 for d in tracer.durations("sim.step")]
    depth = tracer.samples.get("mailbox_depth", [])
    lat = sim_counts.get("latency_ticks", [])
    out = {
        "ir.validate_s": s.get("ir.validate", 0.0),
        "analysis.calm_report_s": s.get("analysis.calm_report", 0.0),
        "analysis.stratify_s": s.get("analysis.stratify", 0.0),
        "lowering.lower_s": s.get("lowering.lower", 0.0),
        "planner.solve_s": s.get("planner.solve", 0.0),
        "facets.replication_plan_s": s.get("facets.replication_plan", 0.0),
        "scenario.load_s": s.get("scenario.load", 0.0),
        "scenario.build_s": s.get("scenario.build", 0.0),
        "runtime.compile_queries_s": s.get("runtime.compile_queries", 0.0),
        "runtime.query_value_s": s.get("runtime.query_value", 0.0),
        "runtime.apply_fixpoint_s": s.get("runtime.apply_fixpoint", 0.0),
        "runtime.fixpoint_calls": c.get("runtime.fixpoint_calls", 0),
        "runtime.fixpoint_rounds": c.get("runtime.fixpoint_rounds", 0),
        "runtime.op_rows": c.get("runtime.op_rows", 0),
        "runtime.eval_comp_s": s.get("runtime.eval_comp", 0.0),
        "runtime.eval_comp_calls": tracer.calls.get("runtime.eval_comp", 0),
        "runtime.fresh_fact_ratio":
            c.get("runtime.fresh_facts", 0) / fixpoint_facts
            if fixpoint_facts else 0.0,
        "runtime.useful_row_ratio":
            fixpoint_facts / project_rows if project_rows else 0.0,
        "eval.table_rows_calls": tracer.calls.get("eval.table_rows", 0),
        "eval.table_rows_s": s.get("eval.table_rows", 0.0),
        "eval.collection_calls": tracer.calls.get("eval.collection", 0),
        "eval.collection_s": s.get("eval.collection", 0.0),
        "interp.query_value_s": s.get("interp.query_value", 0.0),
        "interp.rounds": c.get("interp.rounds", 0),
        "transducer.tick_self_s": s.get("transducer.tick", 0.0),
        "transducer.ticks": c.get("transducer.ticks", 0),
        "transducer.handlers_fired": c.get("transducer.handlers_fired", 0),
        "transducer.accepted": c.get("transducer.accepted", 0),
        "transducer.rejected": c.get("transducer.rejected", 0),
        "transducer.udf_invocations": c.get("transducer.udf_invocations", 0),
        "state.snapshot_s": s.get("state.snapshot", 0.0),
        "state.snapshot_calls": tracer.calls.get("state.snapshot", 0),
        "state.fork_s": s.get("state.fork", 0.0),
        "state.commit_s": s.get("state.commit", 0.0),
        "state.mailbox_depth_p50": percentile(depth, 50),
        "state.mailbox_depth_max": max(depth, default=0),
        "sim.step_self_s": s.get("sim.step", 0.0) + s.get("sim.run", 0.0),
        "sim.ticks": sim_counts.get("ticks", 0),
        "sim.tick_ms_p50": percentile(tick_ms, 50),
        "sim.tick_ms_p99": percentile(tick_ms, 99),
        "sim.messages_per_request":
            sim_counts.get("messages_sent", 0) / requests if requests else 0.0,
        "sim.proxy_pending_max": max(tracer.samples.get("proxy_pending", []),
                                     default=0),
        "sim.latency_ticks_p50": percentile(lat, 50),
        "sim.latency_ticks_p99": percentile(lat, 99),
        "sim.divergent_replicas": divergent,
    }
    for key in ("messages_sent", "duplicated", "deduplicated", "dropped",
                "retransmitted", "no_live_replica", "trace_events"):
        out[f"sim.{key}"] = sim_counts.get(key, 0)
    return out
