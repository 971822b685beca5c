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
cluster runs. A handler's requests reach only the nodes of its own group:
a replicated handler fans them out to every live replica, and a sequenced
(serializable) one sends them to its sequencer, the lowest-numbered live
replica; `Cluster.sequencer` picks it for routing and for nothing else. A
request whose group has no live node is traced as `NoLiveReplica`.

A node decides a sequenced request by its own rule (see `transducer`): it
first brings itself to the tail of the handler's commit log, then
decides its whole backlog in one tick, which makes one record of every
accepted and rejected decision, appended to the log. Decisions reach the
other replicas through the log alone, never over the network: as a node
appends a record, the cluster brings each other live replica of the
handler to the log's tail (`Transducer.catch_up`), tracing each record
it applies as `Applied` (the node, the handler, the record's sequence
number and the ids it decided), and answers each client. A replica that
catches up takes every request id the records decided, so a
retransmission of a decided request is traced as `Deduplicated` wherever
it lands: on arrival, or as the replica catches up if it was already
pending there.

The failure model: the commit log (`Cluster.log`, handler -> the records
issued, in sequence order) is durable and outlives every node's crash,
as a replicated log service would, and every live replica reads each
record as it is appended; every other piece of a node's state is lost
when it crashes. A recovered node rejoins empty and replays the log, so
it holds the sequenced state and the decided request ids of every record
issued before it rejoined, and a retransmission that reaches it after
every replica that decided or applied the request has crashed is not
decided again. It holds none of the eventual data written before it
rejoined.

A tick's cost does not grow with the backlog of requests. Scheduled
requests wait in a queue ordered by (tick, schedule order), and messages on
the network in a heap ordered by (delivery tick, send order); a tick takes
only what is due from the head of each. Scheduling a request or a failure
for a tick that has already run raises ValueError. Node and proxy ids are
sorted once, since a recovery keeps its node's id. A proxy retransmits a
request when every replica it was sent to has crashed since, recovered or
not: a crash removes the crashed node from the recipients of each pending
request and marks a request that it leaves with none as an orphan, and a
proxy's tick retries only its orphans. A request forwarded to no live
node is an orphan from the start. An orphan whose group has no live node
leaves the proxy's orphans once that is traced, and only a recovery of a
node of its group marks it again, so a tick costs nothing for the
requests waiting out an outage.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .ir import MESSAGE_ID, Program, response_mailbox
from .lowering import lower
from .state import Row, canonical_state
from .transducer import NODE_FAILURES, Transducer

DOMAIN_LEVELS = ("dc", "az", "rack", "vm")


class NoQuiescence(Exception):
    """The cluster still had activity at the tick limit."""


@dataclass(frozen=True)
class NodeSpec:
    node_id: str
    role: str = "main"            # worker role, or "proxy"
    domain: tuple = ()            # failure-domain path, dc/az/rack/vm order
    behavior: str = "worker"      # "worker" | "proxy"


@dataclass
class TraceEvent:
    tick: int
    kind: str
    node: Optional[str]
    detail: dict

    def to_json(self) -> str:
        return json.dumps(
            {"tick": self.tick, "kind": self.kind, "node": self.node,
             "detail": self.detail},
            sort_keys=True)


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


class _ProxyState:
    """Client-facing fan-out node: forwards each request id to the replica
    group, retransmits its orphans, and forwards the first response per
    request id back to the client."""

    def __init__(self):
        self.inbox: list = []
        self.seen_requests: set = set()
        self.seen_responses: set = set()
        self.pending: dict = {}  # mid -> {"mailbox", "payload", "dests"};
                                 # dests: the recipients that have not crashed since
        self.orphans: set = set()  # mids in `pending` to retry: their dests are empty


class Cluster:
    def __init__(self, program: Program, nodes, groups, network=None,
                 seed: int = 0, backend: str = "graph",
                 proxies=None, trace_path=None, max_rounds: int = 10000):
        """groups: handler name -> ordered list of worker node ids.
        proxies: handler name -> proxy node id (optional per handler).
        Raises `lowering.LoweringError` for a program that does not lower."""
        self.program = program
        self.routes = lower(program).routes  # mailbox -> lowering.Route
        self.network = network or NetworkModel()
        self.rng = random.Random(seed)
        self.backend = backend
        self.max_rounds = max_rounds
        self.groups = {h: list(ids) for h, ids in groups.items()}
        self.proxies = dict(proxies or {})
        self.specs = {s.node_id: s for s in nodes}
        self.log: dict = {}                  # handler -> commit records issued,
                                             # in sequence order; outlives crashes
        self.nodes: dict = {}
        self.proxy_state: dict = {}
        for s in nodes:
            if s.behavior == "proxy":
                self.proxy_state[s.node_id] = _ProxyState()
            else:
                self.nodes[s.node_id] = self._worker(s)
        self.alive = {s.node_id: True for s in nodes}
        self._node_ids = sorted(self.nodes)   # a recovery keeps the ids
        self._proxy_ids = sorted(self.proxy_state)
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

    # --- bookkeeping --------------------------------------------------------
    def _emit(self, kind, node, **detail):
        ev = TraceEvent(self.tick, kind, node, detail)
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
                          max_rounds=self.max_rounds, log=self.log)

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
        if tick < self.tick:
            raise ValueError(f"tick {tick} has passed; now {self.tick}")
        mid = message_id or self.new_message_id()
        payload = Row(dict(fields, **{MESSAGE_ID: mid}))
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
                    self._emit("Crashed", nid, domain=list(spec.domain))
        if not matched:
            raise KeyError(f"no node under failure domain {prefix!r}")
        for st in self.proxy_state.values():
            for mid, entry in st.pending.items():
                if entry["dests"]:
                    entry["dests"] = [d for d in entry["dests"] if self.alive[d]]
                    if not entry["dests"]:
                        st.orphans.add(mid)
        # in-flight messages to crashed nodes are lost, each with an event;
        # a sorted list is a heap
        kept = []
        for m in sorted(self.in_flight):
            if (m.dest == "sink" or m.dest.startswith("client:")
                    or self.alive.get(m.dest)):
                kept.append(m)
            else:
                self._emit("Dropped", m.dest, mailbox=m.mailbox,
                           message_id=m.payload.get(MESSAGE_ID))
        self.in_flight = kept

    def schedule_failure(self, tick: int, domain_prefix):
        if tick < self.tick:
            raise ValueError(f"tick {tick} has passed; now {self.tick}")
        self.pending_failures.append((tick, tuple(domain_prefix)))

    def recover(self, node_id: str):
        """Crash-stop recovery: the node rejoins with empty state but for
        the commit log, which it replays (see `_worker`). Every proxy marks
        again the requests it holds with no live recipient whose group holds
        the node."""
        spec = self.specs[node_id]
        if spec.behavior == "proxy":
            self.proxy_state[node_id] = _ProxyState()
        else:
            self.nodes[node_id] = self._worker(spec)
        self.alive[node_id] = True
        for st in self.proxy_state.values():
            st.orphans.update(m for m, e in st.pending.items() if not e["dests"]
                              and node_id in self.groups.get(e["mailbox"], ()))
        self._emit("Recovered", node_id, domain=list(spec.domain))

    # --- message routing ----------------------------------------------------
    def _dests(self, route, payload: Row, sender: Optional[str]) -> list:
        if route.kind == "role":
            proxy = self.proxies.get(route.mailbox)
            if proxy is not None and sender is None and self.alive.get(proxy):
                return [proxy]
            return self._group_dests(route)
        if route.kind == "reply":
            proxy = self.proxies.get(route.handler)
            if proxy is not None and sender != proxy and self.alive.get(proxy):
                return [proxy]
            client = self.client_of.get(payload.get(MESSAGE_ID))
            return [f"client:{client}"] if client is not None else []
        return ["sink"]

    def _group_dests(self, route) -> list:
        """Where a request on handler route `route` goes inside the
        handler's group: its sequencer if sequenced, else every live
        replica."""
        if route.sequenced:
            seq = self.sequencer(route.mailbox)
            return [seq] if seq else []
        return self.live_group(route.mailbox)

    def _post(self, dest: str, mailbox: str, payload: Row):
        # randrange(lo, hi + 1) is randint(lo, hi)'s own body, so the draws
        # are the same
        net = self.network
        delay = self.rng.randrange(net.delay_min, net.delay_max + 1)
        self._seq += 1
        heapq.heappush(self.in_flight, _InFlight(
            self.tick + delay, self._seq, dest, mailbox, payload))
        self._emit("Sent", None, dest=dest, mailbox=mailbox,
                   deliver_tick=self.tick + delay,
                   message_id=payload.get(MESSAGE_ID))
        if net.dup_prob and self.rng.random() < net.dup_prob:
            delay2 = self.rng.randrange(net.delay_min, net.delay_max + 1)
            self._seq += 1
            heapq.heappush(self.in_flight, _InFlight(
                self.tick + delay2, self._seq, dest, mailbox, payload))
            self._emit("Duplicated", None, dest=dest, mailbox=mailbox,
                       deliver_tick=self.tick + delay2,
                       message_id=payload.get(MESSAGE_ID))

    def _route(self, mailbox: str, payload: Row, sender: Optional[str]):
        route = self.routes[mailbox]
        dests = self._dests(route, payload, sender)
        if not dests and route.kind == "role":
            self._emit("NoLiveReplica", None, mailbox=mailbox,
                       message_id=payload.get(MESSAGE_ID))
        for dest in dests:
            self._post(dest, mailbox, payload)

    # --- delivery -----------------------------------------------------------
    def _deliver_due(self):
        """Deliver the due messages in (deliver_tick, seq) order, popped
        from the heap; a delivery posts nothing, so none becomes due.
        Every destination is up: nothing is posted to a crashed node, and
        `inject_failure` drops what was on its way to one. No message
        carries a commit record: decisions reach replicas through the
        commit log (see `_serial_results`)."""
        heap = self.in_flight
        while heap and heap[0].deliver_tick <= self.tick:
            m = heapq.heappop(heap)
            if m.dest == "sink":
                self.sink_outputs.setdefault(m.mailbox, []).append(m.payload)
                self._emit("Delivered", "sink", mailbox=m.mailbox)
            elif m.dest.startswith("client:"):
                self._deliver_client(m)
            elif m.dest in self.proxy_state:
                self.proxy_state[m.dest].inbox.append((m.mailbox, m.payload))
                self._emit("Delivered", m.dest, mailbox=m.mailbox,
                           message_id=m.payload.get(MESSAGE_ID))
            else:
                self._deliver_worker(m)

    def _deliver_client(self, m: _InFlight):
        client = m.dest.split(":", 1)[1]
        mid = m.payload.get(MESSAGE_ID)
        box = self.responses.setdefault(client, {})
        fresh = mid not in box
        if fresh:
            box[mid] = m.payload
        self.response_log.append((self.tick, client, mid, m.payload, fresh))
        self._emit("Response", None, client=client, message_id=mid,
                   duplicate=not fresh)

    def _deliver_worker(self, m: _InFlight):
        """Deliver `m` to its worker; a sequenced request whose id the node
        has taken before is traced `Deduplicated` and dropped."""
        node = self.nodes[m.dest]
        mid = m.payload.get(MESSAGE_ID)
        if not self.routes[m.mailbox].sequenced:
            node.deliver(m.mailbox, m.payload)
        elif not node.take_request(m.mailbox, m.payload):
            self._emit("Deduplicated", m.dest, mailbox=m.mailbox,
                       message_id=mid)
            return
        self._emit("Delivered", m.dest, mailbox=m.mailbox, message_id=mid)

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
            self._emit("Injected", None, client=client, mailbox=mailbox,
                       message_id=payload.get(MESSAGE_ID))
            self._route(mailbox, payload, sender=None)
            active = True
        self._deliver_due()

        for nid in self._proxy_ids:
            if not self.alive.get(nid):
                continue
            if self._proxy_tick(nid):
                active = True
            if self._proxy_retry(nid):
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
                self._route(out.mailbox, out.payload, sender=nid)
            self._serial_results(nid, result)
        self._emit("TickCompleted", None, active=active)
        self.tick += 1
        return active

    def _proxy_tick(self, nid: str) -> bool:
        st = self.proxy_state[nid]
        if not st.inbox:
            return False
        inbox, st.inbox = st.inbox, []
        for mailbox, payload in inbox:
            mid = payload.get(MESSAGE_ID)
            route = self.routes[mailbox]
            if route.kind == "role":
                if mid in st.seen_requests:
                    continue
                st.seen_requests.add(mid)
                dests = self._group_dests(route)
                for dest in dests:
                    self._post(dest, mailbox, payload)
                st.pending[mid] = {"mailbox": mailbox, "payload": payload,
                                   "dests": dests}
                if not dests:
                    st.orphans.add(mid)
            else:  # a reply
                st.pending.pop(mid, None)
                st.orphans.discard(mid)
                if mid in st.seen_responses:
                    continue
                st.seen_responses.add(mid)
                client = self.client_of.get(mid)
                if client is not None:
                    self._post(f"client:{client}", mailbox, payload)
        return True

    def _proxy_retry(self, nid: str) -> bool:
        """Retransmit the orphans of proxy `nid`: the pending requests
        whose every recipient has crashed since it was sent. True if it
        had any, since each emits an event."""
        st = self.proxy_state[nid]
        orphans = sorted(st.orphans)
        for mid in orphans:
            self._retry_entry(nid, mid, st.pending[mid])
        return bool(orphans)

    def _retry_entry(self, nid: str, mid: str, entry: dict):
        """Send orphan `mid` of proxy `nid` to its group again, or trace
        that the group has no live node; either way `mid` leaves the
        orphans, until a crash or a recovery marks it again."""
        self.proxy_state[nid].orphans.discard(mid)
        dests = self._group_dests(self.routes[entry["mailbox"]])
        if not dests:
            self._emit("NoLiveReplica", nid, mailbox=entry["mailbox"],
                       message_id=mid)
            return
        for dest in dests:
            self._post(dest, entry["mailbox"], entry["payload"])
        entry["dests"] = dests
        self._emit("Retransmitted", nid, mailbox=entry["mailbox"],
                   message_id=mid, dests=list(dests))

    def _serial_results(self, nid: str, result):
        """For each handler whose log node `nid` appended a record to, bring
        the handler's other live replicas to the log's tail, tracing each
        record a replica applies as `Applied` and each pending copy of a
        decided request it drops as `Deduplicated`; then answer the
        requests `nid` decided, in decision order."""
        for handler, record in sorted(result.records.items()):
            log = self.log[handler]
            for backup in self.live_group(handler):
                if backup == nid:
                    continue
                applied, removed = self.nodes[backup].catch_up(handler)
                for seq in applied:
                    self._emit("Applied", backup, handler=handler, seq=seq,
                               message_ids=[mid for mid, _ in log[seq]])
                for mid in removed:
                    self._emit("Deduplicated", backup, mailbox=handler,
                               message_id=mid)
            for mid, _ in record:
                reply = Row({MESSAGE_ID: mid, "status": result.statuses[mid]})
                self._route(response_mailbox(handler), reply, sender=nid)

    # --- run loop -----------------------------------------------------------
    def _has_work(self) -> bool:
        if self.in_flight or self.pending_injections:
            return True
        if any(st.inbox for st in self.proxy_state.values()):
            return True
        return False

    def run_to_quiescence(self, max_ticks: int = 10000) -> int:
        idle_streak = 0
        while self.tick < max_ticks:
            # idle fast-forward: nothing can happen until the next delivery
            if idle_streak > 0:
                due = ([m.deliver_tick for m in self.in_flight[:1]]
                       + [x[0] for x in self.pending_injections[:1]]
                       + [x[0] for x in self.pending_failures])
                if due and min(due) > self.tick:
                    self.tick = min(due)
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
                self._emit("StateDump", nid, state=self.node_state(nid))


def trace_text(cluster: Cluster) -> str:
    return "\n".join(ev.to_json() for ev in cluster.trace) + "\n"
