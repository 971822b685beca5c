"""Deterministic multi-node simulator.

A cluster runs one transducer per worker node over a simulated network with
seeded random delays and optional duplication. Messages are never lost to a
live node; nodes fail crash-stop, losing their queued messages and the
in-flight messages addressed to them. Reruns with the same seed and scenario
are byte-identical, including the emitted trace.

Messages carry no sender, so a message that a node sent before it crashed
is still delivered: crash-stop loses what the crashed node held, not what
it had already put on the network.

Messages go where the program's lowered plan (`lowering.lower`) routes
their mailbox, so the plan `analyze --inspect` prints is the one the
cluster runs. A handler's requests reach only the nodes of its own group:
a replicated handler fans them out to every live replica, and a sequenced
(serializable) one sends them to its sequencer, which `Cluster.sequencer`
alone picks as the lowest-numbered live replica. A request whose group has
no live node is traced as `NoLiveReplica`.

Each accepted request goes to the other live replicas as a commit record
that carries the effects the sequencer committed (a `state.Delta`) and its
sequence number; a replica applies the records in sequence order as they
are delivered, drops a duplicate below its applied prefix, and never
re-runs the handler (see `transducer`). A node decides a
request only when its applied prefix equals the number of records issued
for the handler, so a replica promoted by a crash first applies the records
still on their way to it. A recovered node rejoins empty and starts its
prefix at the count issued when it recovers. The count of records issued
(`_commit_seq`) and the decided outcomes (`_committed`) are still kept by
the cluster, not by any node.

A tick's cost does not grow with the backlog of requests. Scheduled
requests wait in a queue ordered by (tick, schedule order), and messages on
the network in a heap ordered by (delivery tick, send order); a tick takes
only what is due from the head of each. Scheduling a request or a failure
for a tick that has already run raises ValueError. Node and proxy ids are
sorted once, since a recovery keeps its node's id. A proxy retransmits a
request when every replica it was sent to has crashed since, recovered or
not: each node has an incarnation number that every crash bumps, and the
proxy records the one each recipient had when it sent. Since only a crash
or a recovery can orphan a request that had a live recipient, the proxy
rescans all of its pending requests only in a tick where a node crashed or
recovered, and otherwise checks just the requests that arrived in that
tick.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .ir import MESSAGE_ID, ORDERED, Program, response_mailbox
from .lowering import lower
from .state import Row, canonical_state
from .transducer import NODE_FAILURES, Transducer, commit_record

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
    group, retransmits when every recipient has crashed, and forwards the
    first response per request id back to the client."""

    def __init__(self):
        self.inbox: list = []
        self.seen_requests: set = set()
        self.seen_responses: set = set()
        self.pending: dict = {}  # mid -> {"mailbox", "payload", "dests", "dead_logged"};
                                 # dests holds (node id, incarnation) pairs
        self.added: list = []    # mids put in `pending` since the last retry check
        self.checked_at = -1     # the cluster's liveness count at that check


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
        self._commit_seq: dict = {}          # handler -> commit records issued
        self.nodes: dict = {}
        self.proxy_state: dict = {}
        for s in nodes:
            if s.behavior == "proxy":
                self.proxy_state[s.node_id] = _ProxyState()
            else:
                self.nodes[s.node_id] = self._worker(s)
        self.alive = {s.node_id: True for s in nodes}
        self.incarnation = {s.node_id: 0 for s in nodes}  # bumped by a crash
        self._node_ids = sorted(self.nodes)   # a recovery keeps the ids
        self._proxy_ids = sorted(self.proxy_state)
        self.tick = 0
        self.in_flight: list = []            # heap of _InFlight
        self._seq = 0
        self._mid = 0
        self.trace: list = []
        self.trace_path = trace_path
        self._trace_file = open(trace_path, "w") if trace_path else None
        self.pending_injections: list = []   # heap of (tick, order, client, mailbox, payload)
        self._order = 0                      # schedule order, never repeats
        self._liveness = 0                   # crashes and recoveries so far
        self.pending_failures: list = []     # (tick, domain prefix)
        self.client_of: dict = {}            # message_id -> client id
        self.responses: dict = {}            # client -> {message_id: payload}
        self.response_log: list = []         # every response delivery, in order
        self.sink_outputs: dict = {}         # sink mailbox -> payload list
        self.request_payload: dict = {}      # message_id -> (mailbox, payload)
        self._serial_seen: dict = {}         # node -> set of message ids
        self._committed: dict = {}           # message id -> accepted/rejected

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
        """A worker node; its applied prefix starts at the records issued
        so far (see `transducer.Transducer`)."""
        return Transducer(self.program, role=spec.role, backend=self.backend,
                          max_rounds=self.max_rounds, issued=self._commit_seq)

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
                    self.incarnation[nid] += 1
                    self._liveness += 1
                    self._emit("Crashed", nid, domain=list(spec.domain))
        if not matched:
            raise KeyError(f"no node under failure domain {prefix!r}")
        # in-flight messages to crashed nodes are lost
        self.in_flight = [m for m in self.in_flight
                          if m.dest in ("sink",)
                          or m.dest.startswith("client:")
                          or self.alive.get(m.dest)]
        heapq.heapify(self.in_flight)

    def schedule_failure(self, tick: int, domain_prefix):
        if tick < self.tick:
            raise ValueError(f"tick {tick} has passed; now {self.tick}")
        self.pending_failures.append((tick, tuple(domain_prefix)))

    def recover(self, node_id: str):
        """Crash-stop recovery: the node rejoins with empty state, and
        applies only the commit records issued from now on."""
        spec = self.specs[node_id]
        if spec.behavior == "proxy":
            self.proxy_state[node_id] = _ProxyState()
        else:
            self.nodes[node_id] = self._worker(spec)
        self.alive[node_id] = True
        self._liveness += 1
        self._serial_seen.pop(node_id, None)
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
    def _deliver_due(self) -> bool:
        """Deliver the due messages in (deliver_tick, seq) order, popped
        from the heap; a delivery posts nothing, so none becomes due.
        True if a node applied a commit record, which makes the tick
        active as the decision it replays did."""
        heap = self.in_flight
        applied = False
        while heap and heap[0].deliver_tick <= self.tick:
            m = heapq.heappop(heap)
            if m.dest == "sink":
                self.sink_outputs.setdefault(m.mailbox, []).append(m.payload)
                self._emit("Delivered", "sink", mailbox=m.mailbox)
                continue
            if m.dest.startswith("client:"):
                self._deliver_client(m)
                continue
            if not self.alive.get(m.dest):
                self._emit("Dropped", m.dest, mailbox=m.mailbox,
                           message_id=m.payload.get(MESSAGE_ID))
                continue
            if m.dest in self.proxy_state:
                self.proxy_state[m.dest].inbox.append((m.mailbox, m.payload))
                self._emit("Delivered", m.dest, mailbox=m.mailbox,
                           message_id=m.payload.get(MESSAGE_ID))
                continue
            if self._deliver_worker(m):
                applied = True
        return applied

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

    def _deliver_worker(self, m: _InFlight) -> bool:
        """Deliver `m` to its worker; True if it applied commit records."""
        node = self.nodes[m.dest]
        payload = m.payload
        if self.routes[m.mailbox].sequenced:
            if ORDERED in payload:
                # commit records apply strictly in sequence order, as they
                # arrive; a duplicate of an applied one is dropped unseen
                applied = node.apply_record(m.mailbox, payload)
                for record in applied:
                    self._emit("Delivered", m.dest, mailbox=m.mailbox,
                               ordered=record[ORDERED],
                               message_id=record.get(MESSAGE_ID))
                return bool(applied)
            seen = self._serial_seen.setdefault(m.dest, set())
            mid = payload.get(MESSAGE_ID)
            # a retransmission may reach a new sequencer after the original
            # already decided; the decided outcome must not run twice
            if mid in seen or mid in self._committed:
                self._emit("Deduplicated", m.dest, mailbox=m.mailbox,
                           message_id=mid)
                return False
            seen.add(mid)
        node.deliver(m.mailbox, payload)
        self._emit("Delivered", m.dest, mailbox=m.mailbox,
                   message_id=payload.get(MESSAGE_ID))
        return False

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
        if self._deliver_due():
            active = True

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
                                   "dests": self._addressed(dests),
                                   "dead_logged": False}
                st.added.append(mid)
            else:  # a reply
                st.pending.pop(mid, None)
                if mid in st.seen_responses:
                    continue
                st.seen_responses.add(mid)
                client = self.client_of.get(mid)
                if client is not None:
                    self._post(f"client:{client}", mailbox, payload)
        return True

    def _proxy_retry(self, nid: str) -> bool:
        """Retransmit pending requests whose recipients have all crashed.

        Only a crash or a recovery changes what an entry that was already
        checked would do, so all of `pending` is checked only in a tick
        after the liveness count moved; otherwise only the entries added
        since the last check are."""
        st = self.proxy_state[nid]
        if st.checked_at != self._liveness:
            st.checked_at = self._liveness
            mids = sorted(st.pending)
        else:
            mids = sorted(mid for mid in st.added if mid in st.pending)
        st.added = []
        active = False
        for mid in mids:
            if self._retry_entry(nid, mid, st.pending[mid]):
                active = True
        return active

    def _addressed(self, dests) -> tuple:
        return tuple((d, self.incarnation[d]) for d in dests)

    def _retry_entry(self, nid: str, mid: str, entry: dict) -> bool:
        """Retransmit one pending request of proxy `nid` if no node it was
        last sent to is up in the incarnation it was sent to; True if that
        emitted anything."""
        if any(self.alive.get(d) and self.incarnation[d] == inc
               for d, inc in entry["dests"]):
            return False
        dests = self._group_dests(self.routes[entry["mailbox"]])
        if not dests:
            if entry["dead_logged"]:
                return False
            entry["dead_logged"] = True
            self._emit("NoLiveReplica", nid, mailbox=entry["mailbox"],
                       message_id=mid)
            return True
        for dest in dests:
            self._post(dest, entry["mailbox"], entry["payload"])
        entry["dests"] = self._addressed(dests)
        entry["dead_logged"] = False
        self._emit("Retransmitted", nid, mailbox=entry["mailbox"],
                   message_id=mid, dests=list(dests))
        return True

    def _serial_results(self, nid: str, result):
        """Answer the requests that sequencer `nid` decided, and ship each
        accepted one's effects to the other live replicas as the next
        commit record, which the sequencer's own prefix already counts."""
        for mid, status in sorted(result.statuses.items()):
            entry = self.request_payload.get(mid)
            if entry is None:
                continue  # not a client's request
            handler = entry[0]
            if self.sequencer(handler) != nid:
                continue
            self._committed[mid] = status
            if status == "accepted":
                seq = self._commit_seq.get(handler, 0)
                self._commit_seq[handler] = seq + 1
                self.nodes[nid].applied[handler] = seq + 1
                record = commit_record(mid, seq, result.deltas[mid])
                for backup in self.live_group(handler):
                    if backup != nid:
                        self._post(backup, handler, record)
            reply = Row({MESSAGE_ID: mid, "status": status})
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
