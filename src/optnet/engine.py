"""Deterministic message-passing runtime for optimization networks.

A network is a set of nodes with typed input and output ports plus the
connections between them. Execution proceeds in rounds: every node with
pending input handles exactly one message per round (from its first
non-empty input port, oldest message first), a round with more than
one delivery runs its handlers on a thread pool when workers > 1, and
all emitted messages are routed in a single merge step ordered by node
declaration order. Because the merge order and the per-node random
streams are independent of scheduling, a run produces bit-identical
results for any worker count.

Output ports left unconnected are sinks; whatever is emitted there is
collected and returned. run_network is the one way a message enters,
moves through and leaves a network, and it owns the routing tables of a
run: input queues, routes, sinks, and correlation ids that count each
output port's messages from 0. Every run starts from an entry payload:
round 0 is one node's handle_entry alone, before any queue holds a
message. Each node gets one context per run, holding its random stream
and its emit buffer. A termination rule checks itself when it is built.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._rng import substream
from .errors import (
    DeadlockError,
    HandlerFailureError,
    InvalidConfigError,
    UnconnectedPortError,
)
from .payloads import PAYLOAD_KINDS


@dataclass(frozen=True)
class Port:
    name: str
    kind: str


class Node:
    """Base class for network nodes.

    Subclasses declare input_ports and output_ports (tuples of Port) and
    implement handle(port_name, payload, ctx). A node that must act
    before any message arrives implements handle_entry(payload, ctx);
    only such a node can be a run's entry. Handlers emit through
    ctx.emit(port_name, payload) and draw randomness only from ctx.rng,
    never from module-level generators, so a node's behavior depends
    only on its state, its messages, and its own stream.
    """

    input_ports: tuple[Port, ...] = ()
    output_ports: tuple[Port, ...] = ()

    def __init__(self, node_id: str):
        self.id = str(node_id)

    def handle(self, port_name: str, payload, ctx) -> None:
        raise NotImplementedError(
            f"node {self.id!r} does not handle input messages")

    def handle_entry(self, payload, ctx) -> None:
        raise NotImplementedError(
            f"node {self.id!r} does not accept an entry payload")

    def input_port(self, name: str) -> Port | None:
        for p in self.input_ports:
            if p.name == name:
                return p
        return None

    def output_port(self, name: str) -> Port | None:
        for p in self.output_ports:
            if p.name == name:
                return p
        return None


@dataclass(frozen=True)
class Connection:
    """Directed edge from a node's output port to a node's input port."""

    src_node: str
    src_port: str
    dst_node: str
    dst_port: str

    def __str__(self):
        return (f"{self.src_node}.{self.src_port} -> "
                f"{self.dst_node}.{self.dst_port}")


@dataclass(frozen=True)
class TopologyError:
    """A structural problem found by validate(): code names the rule,
    connection is the index of the connection it concerns, if any."""

    code: str
    detail: str
    connection: int | None = None

    def __str__(self):
        return f"{self.code}: {self.detail}"


@dataclass
class Topology:
    """Nodes plus connections; declaration order is the canonical order
    used for scheduling and routing."""

    nodes: list[Node] = field(default_factory=list)
    connections: list[Connection] = field(default_factory=list)

    def add(self, node: Node) -> Node:
        self.nodes.append(node)
        return node

    def connect(self, src_node: str, src_port: str, dst_node: str,
                dst_port: str) -> None:
        self.connections.append(
            Connection(src_node, src_port, dst_node, dst_port))

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    def entry_node(self, node_id: str) -> Node:
        """The node an entry payload goes to; InvalidConfigError unless
        one is declared and its class overrides Node.handle_entry."""
        node = next((n for n in self.nodes if n.id == node_id), None)
        if node is None or type(node).handle_entry is Node.handle_entry:
            raise InvalidConfigError(f"entry node {node_id!r} " + (
                "is not in the topology" if node is None
                else "takes no entry payload"))
        return node

    def sinks(self, wanted=()) -> list[tuple[str, str]]:
        """The output ports no connection leaves from, the sinks, as
        (node id, port name) in declaration order; UnconnectedPortError
        if a (node, port) of wanted is not one of them."""
        wired = {(c.src_node, c.src_port) for c in self.connections}
        sinks = [(n.id, p.name) for n in self.nodes for p in n.output_ports
                 if (n.id, p.name) not in wired]
        for want in wanted:
            if tuple(want) not in sinks:
                raise UnconnectedPortError(
                    f"termination waits on {want[0]}.{want[1]}, which is "
                    f"not an unconnected output port")
        return sinks

    def validate(self) -> list[TopologyError]:
        """Check structural rules; an empty list means the topology is
        runnable. Problems are returned, not raised, so callers can
        report all of them at once."""
        errors: list[TopologyError] = []
        by_id: dict[str, Node] = {}
        for n in self.nodes:
            if n.id in by_id:
                errors.append(TopologyError(
                    "DuplicateNodeId", f"node id {n.id!r} declared twice"))
            by_id[n.id] = n
            seen_ports: set[str] = set()
            for p in list(n.input_ports) + list(n.output_ports):
                if p.name in seen_ports:
                    errors.append(TopologyError(
                        "DuplicatePort",
                        f"port name {p.name!r} reused on node {n.id!r}"))
                seen_ports.add(p.name)
                if p.kind not in PAYLOAD_KINDS:
                    errors.append(TopologyError(
                        "UnknownKind",
                        f"port {n.id}.{p.name} declares kind {p.kind!r}"))
        firsts: dict[tuple, int] = {}  # (side, node, port) -> connection
        for i, c in enumerate(self.connections):
            src = by_id.get(c.src_node)
            dst = by_id.get(c.dst_node)
            if src is None or src.output_port(c.src_port) is None:
                errors.append(TopologyError(
                    "MissingEndpoint",
                    f"{c}: no output port {c.src_node}.{c.src_port}", i))
                continue
            if dst is None or dst.input_port(c.dst_port) is None:
                errors.append(TopologyError(
                    "MissingEndpoint",
                    f"{c}: no input port {c.dst_node}.{c.dst_port}", i))
                continue
            src_kind = src.output_port(c.src_port).kind
            dst_kind = dst.input_port(c.dst_port).kind
            if src_kind != dst_kind:
                errors.append(TopologyError(
                    "KindMismatch",
                    f"{c}: {src_kind!r} flows into {dst_kind!r}", i))
            first = firsts.setdefault(("in", c.dst_node, c.dst_port), i)
            if first != i:
                errors.append(TopologyError(
                    "DuplicateWriter", f"input {c.dst_node}.{c.dst_port} fed "
                    f"by both {self.connections[first]} and {c}", i))
            first = firsts.setdefault(("out", c.src_node, c.src_port), i)
            if first != i:
                errors.append(TopologyError(
                    "DuplicateRoute", f"output {c.src_node}.{c.src_port} wired "
                    f"to both {self.connections[first]} and {c}", i))
        return errors

    def check_valid(self) -> None:
        """Raise InvalidConfigError naming every problem validate finds."""
        problems = self.validate()
        if problems:
            raise InvalidConfigError(
                "topology is invalid: " + "; ".join(str(p) for p in problems))


@dataclass(frozen=True)
class MessageBudget:
    """Stop once exactly this many messages have been handled (the entry
    payload counts as one); at least one."""

    limit: int

    def __post_init__(self):
        if self.limit < 1:
            raise InvalidConfigError("message budget must be at least 1")


@dataclass(frozen=True)
class SinksEmitted:
    """Stop once every listed (node, port) sink has collected at least
    one payload; at least one is listed, or the run would stop before
    its entry is delivered."""

    ports: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.ports:
            raise InvalidConfigError(
                "sink termination needs at least one (node, port) sink")


@dataclass(frozen=True)
class TraceEvent:
    round_index: int
    event: str  # "deliver" or "emit"
    node: str
    port: str
    kind: str
    correlation_id: int


@dataclass
class NetworkRun:
    """Everything a finished run reports.

    sink_outputs maps each unconnected output port to the payloads
    emitted there, in emission order. Message conservation holds, the
    entry payload counting one: 1 + messages_produced == messages_handled
    + messages_remaining + total sink payloads. rngs maps each node id to
    the random stream its handlers drew from, left where the run ended,
    so follow-up work can continue a node's stream.
    """

    sink_outputs: dict[tuple[str, str], list]
    rounds: int
    messages_handled: int
    messages_produced: int
    messages_remaining: int
    stopped_by: str  # "budget" or "sinks"
    node_message_counts: dict[str, int]
    rngs: dict[str, np.random.Generator]
    trace: list[TraceEvent] = field(default_factory=list)

    def sink(self, node_id: str, port_name: str) -> list:
        return self.sink_outputs.get((node_id, port_name), [])


class NodeContext:
    """Hands a handler its node's random stream and an emit buffer.

    run_network builds one context per node per run and drains emitted
    after every round.
    """

    def __init__(self, node: Node, rng: np.random.Generator):
        self._node = node
        self._ports = {p.name: p for p in node.output_ports}
        self.rng = rng
        self.emitted: list[tuple[str, object]] = []

    def emit(self, port_name: str, payload) -> None:
        port = self._ports.get(port_name)
        if port is None:
            raise InvalidConfigError(
                f"node {self._node.id!r} has no output port {port_name!r}")
        if not PAYLOAD_KINDS[port.kind](payload):
            raise InvalidConfigError(
                f"payload {type(payload).__name__} does not match kind "
                f"{port.kind!r} of {self._node.id}.{port_name}")
        self.emitted.append((port_name, payload))


def _invoke(delivery) -> None:
    """Run the handler of one (node, ctx, port name, (correlation id,
    payload)) delivery; port name None marks the entry payload."""
    node, ctx, port_name, (_, payload) = delivery
    try:
        if port_name is None:
            node.handle_entry(payload, ctx)
        else:
            node.handle(port_name, payload, ctx)
    except Exception as exc:
        raise HandlerFailureError(node.id, exc) from exc


def run_network(topology: Topology, termination,
                entry: tuple[str, object], seed: int = 0,
                workers: int = 1, trace: bool = False) -> NetworkRun:
    """Execute a validated topology until the termination rule fires.

    termination is a MessageBudget or SinksEmitted instance. entry is
    (node_id, payload): round 0 is that node's handle_entry alone, and
    later rounds move messages. Each node draws randomness from its own
    stream derived from (seed, node id), so results do not depend on
    scheduling or worker count.

    Raises InvalidConfigError for an invalid topology or an entry that
    Topology.entry_node refuses, UnconnectedPortError if SinksEmitted
    names a port that is not a sink, DeadlockError if the network drains
    with the termination rule unmet, and HandlerFailureError if a
    handler raises.
    """
    topology.check_valid()
    if workers < 1:
        raise InvalidConfigError("workers must be at least 1")
    if not isinstance(termination, (MessageBudget, SinksEmitted)):
        raise InvalidConfigError(
            "termination must be MessageBudget or SinksEmitted")
    # routing tables: each input port's queue of (correlation id, payload)
    # pairs; each output port's route, to the queue it feeds or, left
    # unconnected, to its sink's list of pairs; its next correlation id
    queues = {(n.id, p.name): deque() for n in topology.nodes
              for p in n.input_ports}
    route = {(c.src_node, c.src_port): queues[(c.dst_node, c.dst_port)]
             for c in topology.connections}
    correlation = {(n.id, p.name): 0 for n in topology.nodes
                   for p in n.output_ports}

    # resolve the rule once: a message limit, or the sink lists to watch
    limit: int | None = None
    wanted = ()
    if isinstance(termination, MessageBudget):
        limit = termination.limit
    else:
        wanted = tuple(map(tuple, termination.ports))
    sinks = {port: [] for port in topology.sinks(wanted)}
    route.update(sinks)
    watched = [sinks[want] for want in wanted]

    handled = 0
    produced = 0
    rounds = 0
    events: list[TraceEvent] = []
    node_counts = {n.id: 0 for n in topology.nodes}
    rngs = {n.id: substream(seed, "node", n.id) for n in topology.nodes}
    contexts = {n.id: NodeContext(n, rngs[n.id]) for n in topology.nodes}
    # each node with its context and its input queues in declaration order
    slots = [(n, contexts[n.id], [(p.name, queues[(n.id, p.name)])
                                  for p in n.input_ports])
             for n in topology.nodes]
    kinds = {(n.id, p.name): p.kind for n in topology.nodes
             for p in (*n.input_ports, *n.output_ports)}

    # round 0 is the entry delivery alone: every queue starts empty
    entry_node, entry_payload = entry
    node = topology.entry_node(entry_node)
    batch = [(node, contexts[node.id], None, (0, entry_payload))]

    def met() -> str | None:
        if limit is not None:
            return "budget" if handled >= limit else None
        return "sinks" if all(watched) else None

    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        while True:
            reason = met()
            if reason is not None:
                return NetworkRun(
                    {k: [p for _, p in v] for k, v in sinks.items()}, rounds,
                    handled, produced, sum(len(q) for q in queues.values()),
                    reason, node_counts, rngs, events)

            if rounds:
                # pick at most one message per node, in canonical order
                batch = []
                for node, ctx, inbox in slots:
                    for port_name, q in inbox:
                        if q:
                            batch.append((node, ctx, port_name, q.popleft()))
                            break
            if not batch:
                raise DeadlockError(
                    "network drained before the termination rule was met")
            if limit is not None and len(batch) > limit - handled:
                # deliver exactly limit messages: put the overflow back
                room = limit - handled
                for node, _, port_name, item in batch[room:]:
                    queues[(node.id, port_name)].appendleft(item)
                del batch[room:]

            if trace:
                for node, _, port_name, (cid, _) in batch:
                    if port_name is None:
                        events.append(TraceEvent(rounds, "deliver", node.id,
                                                 "<entry>", "entry", 0))
                    else:
                        events.append(TraceEvent(
                            rounds, "deliver", node.id, port_name,
                            kinds[(node.id, port_name)], cid))

            if pool is not None and len(batch) > 1:
                list(pool.map(_invoke, batch))
            else:
                for delivery in batch:
                    _invoke(delivery)
            handled += len(batch)

            # deterministic merge: canonical node order, emission order
            for node, ctx, _, _ in batch:
                node_counts[node.id] += 1
                for port_name, payload in ctx.emitted:
                    source = (node.id, port_name)
                    cid = correlation[source]
                    correlation[source] = cid + 1
                    route[source].append((cid, payload))
                    if trace:
                        events.append(TraceEvent(
                            rounds, "emit", node.id, port_name,
                            kinds[(node.id, port_name)], cid))
                produced += len(ctx.emitted)
                ctx.emitted.clear()
            rounds += 1
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
