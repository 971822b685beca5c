"""Deterministic multi-node simulator.

A cluster runs one transducer per worker node over a simulated network with
seeded random delays and optional duplication. Messages are never lost to a
live node; nodes fail crash-stop, losing their queued messages and the
in-flight messages addressed to them, each traced as `Dropped`. Reruns with
the same seed and scenario are byte-identical, including the emitted trace.

Messages carry no sender, so a message that a node sent before it crashed
is still delivered: crash-stop loses what the crashed node held, not what
it had already put on the network.

Messages go where the program's lowered plan (`lowering.lower`) routes
their mailbox, so the plan `analyze --inspect` prints is the one the
cluster runs. A handler's requests reach only the nodes of its own group.
A sequenced (serializable) handler sends them to its sequencer, the
lowest-numbered live replica, and so does a read (`lowering.Route.read`, a
handler that does nothing but reply), whose client needs one answer. The
same node serves every read, so its kept query views resume by the delta
and the other replicas never evaluate them; a read lost with that node is
resent by its client to the next live replica. Any other handler fans its
requests out to every live replica. `Cluster.sequencer` picks the node for
routing and for nothing else. A request whose group has no live node is
traced as `NoLiveReplica`.

A node decides a sequenced request by its own rule (see `transducer`): it
first brings itself to the tail of the handler's commit log, then
decides its whole backlog in one tick, which makes one record of every
accepted and rejected decision, appended to the log. Decisions reach the
other replicas through the log alone, never over the network: as a node
appends a record, the cluster brings each other live replica of the
handler to the log's tail (`Transducer.catch_up`), tracing each record
it applies as `Applied` (the node, the handler, the record's sequence
number and the ids it decided), and answers each client. A replica that
catches up keeps the status of every request the records decided, so a
retransmission of a decided request is traced as `Deduplicated` wherever
it lands: on arrival, or as the replica catches up if it was already
pending there. The statuses live on the nodes; the cluster keeps no
table of outcomes.

The failure model: the commit log (`Cluster.log`, handler -> the records
issued, in sequence order) is durable and outlives every node's crash,
as a replicated log service would, and every live replica reads each
record as it is appended; every other piece of a node's state is lost
when it crashes. A recovered node rejoins empty and replays the log, so
it holds the sequenced state and the request statuses of every record
issued before it rejoined, each record it replays traced as `Applied`,
and a retransmission that reaches it after every replica that decided or
applied the request has crashed is not decided again. It holds none of
the eventual data written before it rejoined, so a recovered
lowest-numbered replica answers reads without that data.

A client is the end point of retries. It owns each request whose handler
replies (`lowering.Route.replies`: a sequenced handler, or one that sends
to its own reply mailbox) until it hears an answer, and resends it
straight to the handler's group on a timer, traced as `Retransmitted`
with the client as its node: first `4 * delay_max + 2` ticks after the
request, time for two round trips, then after twice the previous wait.
After `RESENDS` resends it waits once more and gives up, traced as one
`GaveUp`, so every run quiesces, also while a group stays down. A
request of a handler that sends no reply is never resent. A node that
deduplicates a request it has decided answers it again with the status it
keeps (`Transducer.status`), so a resend of a decided request is
answered by whichever replica it reaches.

A tick's cost does not grow with the backlog of requests. Scheduled
requests wait in a queue ordered by (tick, schedule order), messages on
the network in a heap ordered by (delivery tick, send order), and resends
in a heap ordered by (due tick, message id); a tick takes only what is
due from the head of each. Scheduling a request or a failure for a tick
that has already run raises ValueError. Node ids are sorted once, since a
recovery keeps its node's id.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Optional

from .ir import MESSAGE_ID, Handler, Program, response_mailbox
from .lowering import lower
from .state import Row, canonical_state
from .transducer import NODE_FAILURES, QUEUED, Transducer

# resends of a request before its client gives up. The waits double, so
# the give-up comes 63 first waits after the request: 5166 ticks under the
# default network (delay_max 20), inside a scenario's default max_ticks of
# 10000, where a sixth resend would put it at 10414, past it. The last
# resend goes out 31 first waits after the request, which outlasts every
# outage of tests/test_sim.py's crash-and-recover schedules many times.
RESENDS = 5


class NoQuiescence(Exception):
    """The cluster still had activity at the tick limit."""


@dataclass(frozen=True)
class NodeSpec:
    node_id: str
    role: str = "main"            # the role of the handlers it runs
    domain: tuple = ()            # failure-domain path, in `ir.DOMAIN_LEVELS` order


class TraceEvent(tuple):
    """One trace event, kept as the tuple ``(tick, kind, node, names,
    values)``: `names` are its detail's field names and `values` their
    values, in order. Emitting one builds no dict and encodes nothing: the
    `detail` dict is built when read, and the JSON line when written
    (`to_json`), so an untraced run pays for neither."""

    __slots__ = ()

    tick = property(itemgetter(0))
    kind = property(itemgetter(1))
    node = property(itemgetter(2))      # None for the network and the tick

    @property
    def detail(self) -> dict:
        # strict: an emit that passes more or fewer values than names fails
        # here, not by silently losing a field
        return dict(zip(self[3], self[4], strict=True))

    def to_json(self) -> str:
        return json.dumps({"tick": self[0], "kind": self[1], "node": self[2],
                           "detail": self.detail}, sort_keys=True)


# the detail of a `Sent` or `Duplicated` event
_POSTED = ("dest", "mailbox", "deliver_tick", "message_id")


@dataclass(frozen=True)
class NetworkModel:
    delay_min: int = 1
    delay_max: int = 20
    dup_prob: float = 0.0

    def __post_init__(self):
        if self.delay_min < 1 or self.delay_max < self.delay_min:
            raise ValueError("delays must satisfy 1 <= min <= max")


class _InFlight(NamedTuple):
    # ordered by (deliver_tick, seq) in the in-flight heap; seq is unique,
    # so no two compare further
    deliver_tick: int
    seq: int
    dest: str                      # node id, "client:<id>" or "sink"
    mailbox: str
    payload: Row


def domain_prefix_matches(domain: tuple, prefix: tuple) -> bool:
    return tuple(domain[:len(prefix)]) == tuple(prefix)


def _unhashable(value) -> Optional[str]:
    """The type name of the first list, dict or set in `value`, looking into
    tuples and rows, or None; it hashes nothing."""
    if isinstance(value, (tuple, Row)):
        inner = value.values() if isinstance(value, Row) else value
        return next(filter(None, map(_unhashable, inner)), None)
    return type(value).__name__ if isinstance(value, (list, dict, set)) else None


def check_fields(h: Handler, fields: dict):
    """ValueError unless each of `fields`, a request's to `h`, holds a
    value of its parameter's type (see `Handler.typed_params`)."""
    for name, want in h.typed_params:
        if name in fields and type(fields[name]) is not want:
            raise ValueError(f"field {name!r} of {h.name!r} must be of type "
                             f"{want.__name__}, got {fields[name]!r}")


class Cluster:
    def __init__(self, program: Program, nodes, groups, network=None,
                 seed: int = 0, backend: str = "graph",
                 trace_path=None):
        """groups: handler name -> ordered list of worker node ids.
        Raises `lowering.LoweringError` for a program that does not lower."""
        self.program = program
        self.routes = lower(program).routes  # mailbox -> lowering.Route
        self.network = network or NetworkModel()
        self.rng = random.Random(seed)
        self.backend = backend
        self.groups = {h: list(ids) for h, ids in groups.items()}
        self.specs = {s.node_id: s for s in nodes}
        self.log: dict = {}                  # handler -> commit records issued,
                                             # in sequence order; outlives crashes
        self.nodes = {s.node_id: self._worker(s) for s in nodes}
        # always empty; bench/tracing.py still reads it on every step
        self.proxy_state: dict = {}
        self.alive = {s.node_id: True for s in nodes}
        self._node_ids = sorted(self.nodes)   # a recovery keeps the ids
        self.tick = 0
        self.in_flight: list = []            # heap of _InFlight
        self._seq = 0
        self._mid = 0
        self.trace: list = []
        self._trace_file = open(trace_path, "w") if trace_path else None
        self.pending_injections: list = []   # heap of (tick, order, client, mailbox, payload)
        self._order = 0                      # schedule order, never repeats
        self.pending_failures: list = []     # (tick, domain prefix)
        self.client_of: dict = {}            # message_id -> client id
        self.responses: dict = {}            # client -> {message_id: payload}
        self.response_log: list = []         # every response delivery, in order
        self.sink_outputs: dict = {}         # sink mailbox -> payload list
        self.request_payload: dict = {}      # message_id -> (mailbox, payload)
        self.outstanding: dict = {}          # message_id -> (due tick, resends
                                             # so far) of each owned request
                                             # not yet answered
        self._resends: list = []             # heap of (due tick, message_id);
                                             # an entry whose tick is not the
                                             # request's due tick is stale
        self._first_wait = 4 * self.network.delay_max + 2

    # --- bookkeeping --------------------------------------------------------
    def _emit(self, kind, node, names, *values):
        """Trace event `kind` at `node`, whose detail maps `names` to
        `values` in order."""
        ev = TraceEvent((self.tick, kind, node, names, values))
        self.trace.append(ev)
        if self._trace_file:
            self._trace_file.write(ev.to_json() + "\n")

    def close(self):
        if self._trace_file:
            self._trace_file.close()
            self._trace_file = None

    def _worker(self, spec: NodeSpec) -> Transducer:
        """A worker node on the cluster's commit log; it replays the records
        issued so far (see `transducer.Transducer`)."""
        return Transducer(self.program, role=spec.role, backend=self.backend,
                          log=self.log)

    def new_message_id(self) -> str:
        self._mid += 1
        return f"m{self._mid:06d}"

    def live_group(self, handler: str) -> list:
        return [n for n in self.groups.get(handler, []) if self.alive.get(n)]

    def sequencer(self, handler: str) -> Optional[str]:
        live = self.live_group(handler)
        return min(live) if live else None

    # --- workload -----------------------------------------------------------
    def schedule_request(self, tick: int, client: str, handler: str, fields: dict,
                         message_id: Optional[str] = None):
        """Inject a request to `handler` from `client` at `tick`. A field
        holding a list, dict or set at any depth is refused by its type,
        not by hashing the row, which a node's tick would do far from here."""
        if tick < self.tick:
            raise ValueError(f"tick {tick} has passed; now {self.tick}")
        for name, value in fields.items():
            if isinstance(value, (list, dict, set, tuple)) and (
                    kind := _unhashable(value)) is not None:
                raise ValueError(f"request to {handler!r}: field {name!r} "
                                 f"holds a {kind}, which is not hashable")
        if (h := self.program.handler_map.get(handler)) is not None:
            check_fields(h, fields)
        mid = message_id or self.new_message_id()
        payload = Row(fields, **{MESSAGE_ID: mid})
        self.client_of[mid] = client
        self.request_payload[mid] = (handler, payload)
        self._order += 1
        heapq.heappush(self.pending_injections,
                       (tick, self._order, client, handler, payload))
        return mid

    def inject_failure(self, domain_prefix):
        """Crash-stop every node under the failure-domain prefix."""
        prefix = tuple(domain_prefix)
        matched = False
        for nid, spec in sorted(self.specs.items()):
            if domain_prefix_matches(spec.domain, prefix):
                matched = True
                if self.alive.get(nid):
                    self.alive[nid] = False
                    self._emit("Crashed", nid, ("domain",), list(spec.domain))
        if not matched:
            raise KeyError(f"no node under failure domain {prefix!r}")
        # in-flight messages to crashed nodes are lost, each with an event;
        # a sorted list is a heap
        kept = []
        for m in sorted(self.in_flight):
            if (m.dest == "sink" or m.dest.startswith("client:")
                    or self.alive.get(m.dest)):
                kept.append(m)
            else:
                self._emit("Dropped", m.dest, ("mailbox", "message_id"),
                           m.mailbox, m.payload.get(MESSAGE_ID))
        self.in_flight = kept

    def schedule_failure(self, tick: int, domain_prefix):
        if tick < self.tick:
            raise ValueError(f"tick {tick} has passed; now {self.tick}")
        self.pending_failures.append((tick, tuple(domain_prefix)))

    def recover(self, node_id: str):
        """Crash-stop recovery: the node rejoins with empty state but for
        the commit log, which it replays (see `_worker`), tracing each
        record it replays as `Applied`."""
        spec = self.specs[node_id]
        node = self.nodes[node_id] = self._worker(spec)
        self.alive[node_id] = True
        self._emit("Recovered", node_id, ("domain",), list(spec.domain))
        for handler, applied in sorted(node.applied.items()):
            self._trace_applied(node_id, handler, range(applied))

    # --- message routing ----------------------------------------------------
    def _dests(self, route, payload: Row) -> list:
        """Where a message on `route` goes: a request to its handler's
        sequencer if sequenced or a read, else to every live replica; a
        reply to the client that issued the request; anything else to the
        sink."""
        if route.kind == "role":
            if route.sequenced or route.read:
                seq = self.sequencer(route.mailbox)
                return [seq] if seq else []
            return self.live_group(route.mailbox)
        if route.kind == "reply":
            client = self.client_of.get(payload.get(MESSAGE_ID))
            return [f"client:{client}"] if client is not None else []
        return ["sink"]

    def _post(self, dest: str, mailbox: str, payload: Row):
        # randrange(lo, hi + 1) is randint(lo, hi)'s own body, so the draws
        # are the same
        net = self.network
        delay = self.rng.randrange(net.delay_min, net.delay_max + 1)
        self._seq += 1
        heapq.heappush(self.in_flight, _InFlight(
            self.tick + delay, self._seq, dest, mailbox, payload))
        self._emit("Sent", None, _POSTED, dest, mailbox, self.tick + delay,
                   payload.get(MESSAGE_ID))
        if net.dup_prob and self.rng.random() < net.dup_prob:
            delay2 = self.rng.randrange(net.delay_min, net.delay_max + 1)
            self._seq += 1
            heapq.heappush(self.in_flight, _InFlight(
                self.tick + delay2, self._seq, dest, mailbox, payload))
            self._emit("Duplicated", None, _POSTED, dest, mailbox,
                       self.tick + delay2, payload.get(MESSAGE_ID))

    def _route(self, mailbox: str, payload: Row):
        route = self.routes[mailbox]
        dests = self._dests(route, payload)
        if not dests and route.kind == "role":
            self._emit("NoLiveReplica", None, ("mailbox", "message_id"),
                       mailbox, payload.get(MESSAGE_ID))
        for dest in dests:
            self._post(dest, mailbox, payload)

    # --- delivery -----------------------------------------------------------
    def _deliver_due(self):
        """Deliver the due messages in (deliver_tick, seq) order, popped
        from the heap; a delivery posts at most an answer, due a tick
        later at the earliest, so none becomes due. Every destination is
        up: nothing is posted to a crashed node, and `inject_failure`
        drops what was on its way to one. No message carries a commit
        record: decisions reach replicas through the commit log (see
        `_serial_results`)."""
        heap = self.in_flight
        while heap and heap[0].deliver_tick <= self.tick:
            m = heapq.heappop(heap)
            if m.dest == "sink":
                self.sink_outputs.setdefault(m.mailbox, []).append(m.payload)
                self._emit("Delivered", "sink", ("mailbox",), m.mailbox)
            elif m.dest.startswith("client:"):
                self._deliver_client(m)
            else:
                self._deliver_worker(m)

    def _deliver_client(self, m: _InFlight):
        client = m.dest.split(":", 1)[1]
        mid = m.payload.get(MESSAGE_ID)
        box = self.responses.setdefault(client, {})
        fresh = mid not in box
        if fresh:
            box[mid] = m.payload
        self.outstanding.pop(mid, None)
        self.response_log.append((self.tick, client, mid, m.payload, fresh))
        self._emit("Response", None, ("client", "message_id", "duplicate"),
                   client, mid, not fresh)

    def _deliver_worker(self, m: _InFlight):
        """Deliver `m` to its worker; a sequenced request whose id the node
        has taken before is traced `Deduplicated` and dropped, and answered
        with its status if the node knows it decided."""
        node = self.nodes[m.dest]
        mid = m.payload.get(MESSAGE_ID)
        if not self.routes[m.mailbox].sequenced:
            node.deliver(m.mailbox, m.payload)
        elif not node.take_request(m.mailbox, m.payload):
            self._emit("Deduplicated", m.dest, ("mailbox", "message_id"),
                       m.mailbox, mid)
            status = node.status[mid]
            if status != QUEUED:
                self._route(response_mailbox(m.mailbox),
                            Row({MESSAGE_ID: mid, "status": status}))
            return
        self._emit("Delivered", m.dest, ("mailbox", "message_id"),
                   m.mailbox, mid)

    # --- tick ---------------------------------------------------------------
    def step(self) -> bool:
        """One global tick. Returns True if anything happened."""
        active = False
        for (t, prefix) in sorted(self.pending_failures):
            if t == self.tick:
                self.inject_failure(prefix)
                active = True
        self.pending_failures = [x for x in self.pending_failures
                                 if x[0] > self.tick]
        queue = self.pending_injections
        while queue and queue[0][0] <= self.tick:
            _, _, client, mailbox, payload = heapq.heappop(queue)
            mid = payload.get(MESSAGE_ID)
            self._emit("Injected", None, ("client", "mailbox", "message_id"),
                       client, mailbox, mid)
            self._route(mailbox, payload)
            if self.routes[mailbox].replies:
                self._await(mid, self.tick + self._first_wait, 0)
            active = True
        self._deliver_due()
        if self._resend_due():
            active = True

        for nid in self._node_ids:
            if not self.alive.get(nid):
                continue
            node = self.nodes[nid]
            if not node.has_pending_input():
                continue
            try:
                result = node.tick()
            except NODE_FAILURES as exc:
                exc.node_id, exc.tick = nid, self.tick
                raise
            if result.fired or result.sends:
                active = True
            for out in result.sends:
                self._route(out.mailbox, out.payload)
            self._serial_results(nid, result)
        self._emit("TickCompleted", None, ("active",), active)
        self.tick += 1
        return active

    def _resend_due(self) -> bool:
        """Resend each owned request whose wait ends this tick and that is
        still unanswered, or give it up after `RESENDS` resends; whether
        any was."""
        heap, active = self._resends, False
        while heap and heap[0][0] <= self.tick:
            due, mid = heapq.heappop(heap)
            if not self._owned(due, mid):
                continue
            sent = self.outstanding[mid][1]
            active = True
            client = f"client:{self.client_of[mid]}"
            mailbox, payload = self.request_payload[mid]
            if sent == RESENDS:
                del self.outstanding[mid]
                self._emit("GaveUp", client,
                           ("mailbox", "message_id", "resends"),
                           mailbox, mid, sent)
                continue
            sent += 1
            self._emit("Retransmitted", client,
                       ("mailbox", "message_id", "attempt"),
                       mailbox, mid, sent)
            self._route(mailbox, payload)
            self._await(mid, self.tick + (self._first_wait << sent), sent)
        return active

    def _await(self, mid: str, due: int, sent: int):
        """Set the timer of `mid`, owned after `sent` resends, for `due`."""
        self.outstanding[mid] = (due, sent)
        heapq.heappush(self._resends, (due, mid))

    def _next_resend(self) -> Optional[int]:
        """The due tick of the first resend of a request still unanswered,
        dropping the heap's head entries of answered ones."""
        heap = self._resends
        while heap and not self._owned(*heap[0]):
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def _owned(self, due: int, mid: str) -> bool:
        """Whether the timer (due, mid) is live: `mid` is not answered nor
        submitted again since it was set."""
        entry = self.outstanding.get(mid)
        return entry is not None and entry[0] == due

    def _trace_applied(self, nid: str, handler: str, seqs):
        log = self.log[handler]
        for seq in seqs:
            self._emit("Applied", nid, ("handler", "seq", "message_ids"),
                       handler, seq, [mid for mid, _ in log[seq]])

    def _serial_results(self, nid: str, result):
        """For each handler whose log node `nid` appended a record to, bring
        the handler's other live replicas to the log's tail, tracing each
        record a replica applies as `Applied` and each pending copy of a
        decided request it drops as `Deduplicated`; then answer the
        requests `nid` decided, in decision order."""
        for handler, record in sorted(result.records.items()):
            for backup in self.live_group(handler):
                if backup == nid:
                    continue
                applied, removed = self.nodes[backup].catch_up(handler)
                self._trace_applied(backup, handler, applied)
                for mid in removed:
                    self._emit("Deduplicated", backup,
                               ("mailbox", "message_id"), handler, mid)
            for mid, _ in record:
                reply = Row({MESSAGE_ID: mid, "status": result.statuses[mid]})
                self._route(response_mailbox(handler), reply)

    # --- run loop -----------------------------------------------------------
    def _has_work(self) -> bool:
        return bool(self.in_flight or self.pending_injections
                    or self.outstanding)

    def run_to_quiescence(self, max_ticks: int = 10000) -> int:
        """Step until a tick does nothing and no work is left; the tick it
        ends at. Raises `NoQuiescence` if work is left at `max_ticks`."""
        idle_streak = 0
        while self.tick < max_ticks:
            # idle fast-forward: nothing can happen until the next due
            # event, and no tick runs at or past the limit
            if idle_streak > 0:
                resend = self._next_resend()
                due = ([m.deliver_tick for m in self.in_flight[:1]]
                       + [x[0] for x in self.pending_injections[:1]]
                       + [x[0] for x in self.pending_failures]
                       + ([resend] if resend is not None else []))
                if due and min(due) > self.tick:
                    self.tick = min(min(due), max_ticks)
                    if self.tick == max_ticks:
                        break
            active = self.step()
            if active:
                idle_streak = 0
            else:
                idle_streak += 1
                if not self._has_work():
                    return self.tick
        if self._has_work():
            raise NoQuiescence(f"still active after {max_ticks} ticks")
        return self.tick

    # --- inspection ---------------------------------------------------------
    def node_state(self, node_id: str, **kw) -> dict:
        return canonical_state(self.nodes[node_id].state, **kw)

    def dump_states(self) -> dict:
        out = {}
        for nid in sorted(self.nodes):
            out[nid] = self.node_state(nid)
        return out

    def record_state_dump(self):
        for nid in sorted(self.nodes):
            if self.alive.get(nid):
                self._emit("StateDump", nid, ("state",), self.node_state(nid))


def trace_text(cluster: Cluster) -> str:
    return "\n".join(ev.to_json() for ev in cluster.trace) + "\n"
