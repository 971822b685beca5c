"""Monotonicity classification, stratification, and the coordination report.

The classifier is strictly syntactic and conservative: assignment, deletion,
negation, extrema extraction, and undeclared UDFs are never Monotone.
Threshold comparisons (a growing count or merge compared with ``>=`` against
a state-free bound) are treated as monotone: once true they stay true.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .ir import (
    Assign, BinOp, Data, Delete, Fold, ForEach, In, Len, Lookup,
    MergeMutation, Not, Program, Return, Send, UdfCall, kept, prepared,
    statement_exprs, walk_expr, _children,
)

MONOTONE_FOLDS = ("count", "set", "merge")


@dataclass(frozen=True)
class MonoClass:
    monotone: bool
    reasons: Tuple[Tuple[str, str], ...] = ()  # (location, rule)

    def __post_init__(self):
        if not self.monotone and not self.reasons:
            raise ValueError("NonMonotone requires at least one reason")

    @staticmethod
    def mono() -> "MonoClass":
        return MonoClass(True)

    @staticmethod
    def non(where: str, rule: str) -> "MonoClass":
        return MonoClass(False, ((where, rule),))

    def __and__(self, other: "MonoClass") -> "MonoClass":
        if self.monotone and other.monotone:
            return MonoClass.mono()
        return MonoClass(False, self.reasons + other.reasons)


def _scalar_vars(p: Program) -> set:
    return {d.name for d in p.data if d.kind == "var" and d.shape is None}


def _reads_state(e, p: Program) -> bool:
    # only collection references count; folds over pure message data do not
    return any(isinstance(s, (Data, Lookup)) for s in walk_expr(e))


def _is_threshold(e: BinOp, p: Program) -> bool:
    """count/merge-style growing value >= state-free bound (or flipped)."""
    if e.op in (">=", ">"):
        grow, bound = e.left, e.right
    elif e.op in ("<=", "<"):
        bound, grow = e.left, e.right
    else:
        return False
    if _reads_state(bound, p):
        return False
    if isinstance(grow, Len):
        return classify_expression(grow.expr, p).monotone
    if isinstance(grow, Fold) and grow.kind in MONOTONE_FOLDS:
        return classify_expression(grow.source, p).monotone
    return False


def classify_expression(e, p: Program, where: str = "expr") -> MonoClass:
    scalars = _scalar_vars(p)

    def rec(e) -> MonoClass:
        if isinstance(e, Data):
            if e.name in scalars:
                return MonoClass.non(where, "scalar-var-read")
            return MonoClass.mono()
        if isinstance(e, Not):
            return MonoClass.non(where, "negation") & rec(e.expr)
        if isinstance(e, In) and e.negated:
            return MonoClass.non(where, "negation") & rec(e.item) & rec(e.coll)
        if isinstance(e, Fold):
            inner = rec(e.source)
            if e.kind in MONOTONE_FOLDS:
                return inner
            if e.kind.startswith("udf:"):
                u = p.udf_map.get(e.kind[4:])
                if u is not None and u.monotone:
                    return inner
                return MonoClass.non(where, "undeclared-udf-fold") & inner
            return MonoClass.non(where, f"non-monotone-fold:{e.kind}") & inner
        if isinstance(e, BinOp):
            if e.op in ("and", "or", "+", "-", "*", "//", "%"):
                return rec(e.left) & rec(e.right)
            if _is_threshold(e, p):
                return MonoClass.mono()
            if _reads_state(e.left, p) or _reads_state(e.right, p):
                return (MonoClass.non(where, "state-comparison")
                        & rec(e.left) & rec(e.right))
            return rec(e.left) & rec(e.right)
        # structural nodes: monotone iff children are
        out = MonoClass.mono()
        for child in _children(e):
            out = out & rec(child)
        return out

    return rec(e)


def classify_statement(s, p: Program, where: str = "stmt") -> MonoClass:
    if isinstance(s, ForEach):
        out = MonoClass.mono()
        for inner in s.body:
            out = out & classify_statement(inner, p, where)
        return out
    when = getattr(s, "when", None)
    base = MonoClass.mono()
    if when is not None:
        cls = classify_expression(when, p, where)
        if not cls.monotone and not (isinstance(when, BinOp) and _is_threshold(when, p)):
            base = base & cls
    if isinstance(s, MergeMutation):
        out = base & classify_expression(s.expr, p, where)
        if s.target.key is not None:
            out = out & classify_expression(s.target.key, p, where)
        return out
    if isinstance(s, Assign):
        return MonoClass.non(where, "assignment") & base
    if isinstance(s, Delete):
        return MonoClass.non(where, "deletion") & base
    if isinstance(s, (Send, Return)):
        # a send is an asynchronous merge into a mailbox
        return base & classify_expression(s.expr, p, where)
    if isinstance(s, UdfCall):
        u = p.udf_map.get(s.udf)
        out = base
        for a in s.args:
            out = out & classify_expression(a, p, where)
        if u is None or not u.monotone:
            return MonoClass.non(where, "undeclared-udf") & out
        return out
    raise TypeError(f"unknown statement: {s!r}")


def classify_handler(h, p: Program) -> MonoClass:
    out = MonoClass.mono()
    if h.guard is not None:
        cls = classify_expression(h.guard, p, f"handler {h.name} guard")
        if not (isinstance(h.guard, BinOp) and _is_threshold(h.guard, p)):
            out = out & cls
    for i, s in enumerate(prepared(h).stmts):
        out = out & classify_statement(s, p, f"handler {h.name} stmt {i}")
    return out


# --- CALM report -------------------------------------------------------------

@dataclass(frozen=True)
class CalmReport:
    handlers: Tuple[Tuple[str, MonoClass, str], ...]  # (name, class, coordination)
    trusted_udfs: Tuple[str, ...]  # declared-monotone, trusted unverified

    def coordination(self, handler: str) -> str:
        for name, _, coord in self.handlers:
            if name == handler:
                return coord
        raise KeyError(handler)

    def mono(self, handler: str) -> MonoClass:
        for name, cls, _ in self.handlers:
            if name == handler:
                return cls
        raise KeyError(handler)

    @property
    def coordination_free(self) -> Tuple[str, ...]:
        return tuple(n for n, _, c in self.handlers if c == "CoordinationFree")

    @property
    def needs_coordination(self) -> Tuple[str, ...]:
        return tuple(n for n, _, c in self.handlers if c == "NeedsCoordination")

    def render_table(self) -> str:
        lines = [f"{'handler':24} {'monotone':9} coordination"]
        for name, cls, coord in self.handlers:
            lines.append(f"{name:24} {str(cls.monotone).lower():9} {coord}")
            for where, rule in cls.reasons:
                lines.append(f"{'':24}   - {rule} ({where})")
        return "\n".join(lines)


def calm_report(p: Program) -> CalmReport:
    """Classify every handler: coordination-free iff monotone and eventual."""
    rows = []
    for h in sorted(p.handlers, key=lambda h: h.name):
        cls = classify_handler(h, p)
        free = cls.monotone and h.consistency.level == "eventual"
        rows.append((h.name, cls, "CoordinationFree" if free else "NeedsCoordination"))
    trusted = tuple(sorted(u.name for u in p.udfs if u.monotone))
    return CalmReport(tuple(rows), trusted)


def _handler_writes(h, p: Program) -> set:
    out = set()

    def visit(s):
        if isinstance(s, ForEach):
            for inner in s.body:
                visit(inner)
        elif isinstance(s, (MergeMutation, Assign, Delete)):
            out.add(s.target.data)

    for s in prepared(h).stmts:
        visit(s)
    return out


def _handler_reads(h, p: Program) -> set:
    out, prep = set(), prepared(h)
    exprs = [e for e in (prep.guard, *prep.invariants) if e is not None]
    for s in prep.stmts:
        exprs.extend(statement_exprs(s))
    qmap = p.query_map
    seen_queries = set()

    def note(name):
        if name in qmap and name not in seen_queries:
            seen_queries.add(name)
            for qd in qmap[name]:
                for body in qd.bodies:
                    exprs.append(body)
        out.add(name)

    while exprs:
        e = exprs.pop()
        for sub in walk_expr(e):
            if isinstance(sub, Data):
                note(sub.name)
            elif isinstance(sub, Lookup):
                note(sub.data)
    return out


@dataclass(frozen=True)
class MetaconsistencyConflict:
    serializable_handler: str
    eventual_handler: str
    data: str

    def __str__(self):
        return (f"serializable handler {self.serializable_handler!r} reads "
                f"{self.data!r}, which non-monotone eventual handler "
                f"{self.eventual_handler!r} mutates")


def metaconsistency_conflicts(p: Program) -> list:
    """A serializable handler must not read state that a non-monotone
    eventual handler mutates; the sequencer's serial order would not extend
    to those writes."""
    conflicts = []
    serial = [h for h in p.handlers if h.consistency.level == "serializable"]
    if not serial:
        return conflicts
    dirty = []  # (handler name, write set)
    for h in p.handlers:
        if h.consistency.level != "eventual":
            continue
        if classify_handler(h, p).monotone:
            continue
        dirty.append((h.name, _handler_writes(h, p)))
    for sh in sorted(serial, key=lambda h: h.name):
        reads = _handler_reads(sh, p)
        for name, writes in sorted(dirty):
            for d in sorted(reads & writes):
                conflicts.append(MetaconsistencyConflict(sh.name, name, d))
    return conflicts


# --- stratification ----------------------------------------------------------

class Unstratifiable(Exception):
    def __init__(self, cycle, label):
        self.cycle = tuple(sorted(cycle))
        self.label = label
        super().__init__(f"{label} inside recursive cycle {self.cycle}")


@dataclass(frozen=True)
class StratumAssignment:
    query_strata: Tuple[Tuple[str, int], ...]
    recursive_groups: Tuple[frozenset, ...]

    @property
    def strata(self) -> dict:
        return dict(self.query_strata)

    def is_recursive(self, qname: str) -> bool:
        return any(qname in g for g in self.recursive_groups)


def _query_edges(p: Program):
    """(q, dep, label) for each query-to-query reference."""
    qnames = set(p.query_map)
    edges = []

    def walk(e, neg: bool, agg: bool, q: str):
        if isinstance(e, (Data, Lookup)):
            name = e.name if isinstance(e, Data) else e.data
            if name in qnames:
                label = "neg" if neg else ("agg" if agg else "pos")
                edges.append((q, name, label))
        if isinstance(e, Not):
            walk(e.expr, True, agg, q)
            return
        if isinstance(e, In):
            walk(e.item, neg, agg, q)
            walk(e.coll, e.negated or neg, agg, q)
            return
        if isinstance(e, (Fold, Len)):
            for c in _children(e):
                walk(c, neg, True, q)
            return
        for c in _children(e):
            walk(c, neg, agg, q)

    for qname, defs in p.query_map.items():
        for qd in defs:
            for body in qd.bodies:
                walk(body, False, False, qname)
    return edges


def _sccs(nodes, edges):
    """Tarjan strongly connected components, deterministic order."""
    adj = {n: [] for n in nodes}
    for a, b, _ in edges:
        if b in adj:
            adj[a].append(b)
    index = {}
    low = {}
    on_stack = set()
    stack = []
    out = []
    counter = [0]

    def strongconnect(v):
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        for w in adj[v]:
            if w not in index:
                strongconnect(w)
                low[v] = min(low[v], low[w])
            elif w in on_stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = set()
            while True:
                w = stack.pop()
                on_stack.discard(w)
                comp.add(w)
                if w == v:
                    break
            out.append(frozenset(comp))

    for v in sorted(nodes):
        if v not in index:
            strongconnect(v)
    return out


@dataclass(frozen=True)
class QueryGraph:
    """The query dependency graph that stratification and both backends read.

    `bad_edge` is the first edge labelled ``neg`` or ``agg`` between two
    members of a recursive SCC, taking the SCCs in Tarjan order; a program
    with one can be neither stratified nor evaluated by fixpoint."""

    edges: tuple                  # (query, dependency, label)
    sccs: tuple                   # frozensets in Tarjan order
    comp_of: dict                 # query -> its SCC
    recursive: frozenset          # SCCs with a cycle, self-loops included
    bad_edge: Optional[tuple]


def query_graph(p: Program) -> QueryGraph:
    """The program's query graph, computed once per program object and
    kept on it (see `ir.kept`)."""
    return kept(p, "_query_graph", _build_query_graph)


def _build_query_graph(p: Program) -> QueryGraph:
    edges = tuple(_query_edges(p))
    comps = _sccs(sorted(p.query_map), edges)
    comp_of = {q: comp for comp in comps for q in comp}
    recursive = set()
    bad_edge = None
    for comp in comps:
        inner = [e for e in edges if e[0] in comp and e[1] in comp]
        if len(comp) > 1 or any(a == b for a, b, _ in inner):
            recursive.add(comp)
            if bad_edge is None:
                bad_edge = next((e for e in inner if e[2] != "pos"), None)
    return QueryGraph(edges, tuple(comps), comp_of, frozenset(recursive),
                      bad_edge)


def stratify(p: Program) -> StratumAssignment:
    """Assign strata; negation/aggregation may never occur inside a cycle."""
    qnames = sorted(p.query_map)
    graph = query_graph(p)
    edges, comp_of = graph.edges, graph.comp_of
    if graph.bad_edge is not None:
        a, _, label = graph.bad_edge
        raise Unstratifiable(comp_of[a], label)

    # condensation longest path: +1 across neg/agg edges
    strata = {q: 0 for q in qnames}
    changed = True
    rounds = 0
    while changed:
        changed = False
        rounds += 1
        if rounds > len(qnames) + len(edges) + 2:
            raise Unstratifiable(qnames, "stratum-cycle")
        for a, b, label in edges:
            if comp_of[a] == comp_of[b]:
                continue
            need = strata[b] + (1 if label != "pos" else 0)
            if strata[a] < need:
                strata[a] = need
                for q in comp_of[a]:
                    if strata[q] < need:
                        strata[q] = need
                changed = True

    return StratumAssignment(
        tuple(sorted(strata.items())),
        tuple(sorted(graph.recursive, key=lambda c: sorted(c))),
    )

