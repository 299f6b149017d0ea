"""Message-passing engine: validation, routing, scheduling, accounting."""

import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optnet.engine import (
    Connection,
    MessageBudget,
    Node,
    NodeContext,
    Port,
    SinksEmitted,
    Topology,
    TopologyError,
    TraceEvent,
    run_network,
)
from optnet.errors import (
    DeadlockError,
    HandlerFailureError,
    InvalidConfigError,
    UnconnectedPortError,
)
from optnet.data import FeatureMask
from optnet.networks import (
    OlsModelNode,
    RegressionOrchestratorNode,
    build_feature_selection_topology,
)
from optnet.osga import BinaryGenomeSpec, OsgaParams, drive, osga_stream
from optnet.payloads import PAYLOAD_KINDS
from optnet._rng import substream


class Producer(Node):
    output_ports = (Port("out", "scalar-quality"),)


class Consumer(Node):
    input_ports = (Port("in", "scalar-quality"),)

    def handle(self, port_name, payload, ctx):
        pass


class Echo(Node):
    """Self-loop building block: re-emits whatever arrives, plus one."""

    input_ports = (Port("in", "scalar-quality"),)
    output_ports = (Port("out", "scalar-quality"),)

    def handle_entry(self, payload, ctx):
        ctx.emit("out", payload)

    def handle(self, port_name, payload, ctx):
        ctx.emit("out", payload + 1.0)


def echo_loop():
    topo = Topology()
    topo.add(Echo("echo"))
    topo.connect("echo", "out", "echo", "in")
    return topo


# ---------------------------------------------------------------------------
# Topology validation

def codes(topo):
    return [e.code for e in topo.validate()]


def test_valid_topology_has_no_errors():
    topo = Topology()
    topo.add(Producer("p"))
    topo.add(Consumer("c"))
    topo.connect("p", "out", "c", "in")
    assert topo.validate() == []


def test_duplicate_node_id():
    topo = Topology()
    topo.add(Producer("a"))
    topo.add(Producer("a"))
    assert "DuplicateNodeId" in codes(topo)


def test_duplicate_port_name_across_directions():
    class Clashing(Node):
        input_ports = (Port("p", "scalar-quality"),)
        output_ports = (Port("p", "scalar-quality"),)

    topo = Topology()
    topo.add(Clashing("n"))
    assert "DuplicatePort" in codes(topo)


def test_unknown_payload_kind():
    class Odd(Node):
        output_ports = (Port("out", "mystery"),)

    topo = Topology()
    topo.add(Odd("n"))
    errors = topo.validate()
    assert [e.code for e in errors] == ["UnknownKind"]
    assert "mystery" in errors[0].detail


def test_every_checked_kind_has_a_batch_kind_that_checks_each_element():
    singles = {k for k in PAYLOAD_KINDS
               if k != "run-result" and not k.endswith("-batch")}
    assert set(PAYLOAD_KINDS) == singles | {"run-result"} \
        | {f"{k}-batch" for k in singles}
    check = PAYLOAD_KINDS["scalar-quality-batch"]
    assert check((1.0, 2, np.float64(3.0)))
    for bad in ((), [1.0], 1.0, (1.0, "x"), (1.0, True)):
        assert not check(bad)
    mask = FeatureMask.from_indices((0,), 2)
    assert PAYLOAD_KINDS["feature-mask-batch"]((mask, mask))
    assert not PAYLOAD_KINDS["feature-mask-batch"]((mask, 1.0))


def test_missing_endpoints():
    topo = Topology()
    topo.add(Producer("p"))
    topo.add(Consumer("c"))
    topo.connect("p", "nope", "c", "in")
    topo.connect("p", "out", "c", "nope")
    topo.connect("ghost", "out", "c", "in")
    assert codes(topo) == ["MissingEndpoint"] * 3


def test_kind_mismatch():
    class MaskConsumer(Node):
        input_ports = (Port("in", "feature-mask"),)

    topo = Topology()
    topo.add(Producer("p"))
    topo.add(MaskConsumer("c"))
    topo.connect("p", "out", "c", "in")
    errors = topo.validate()
    assert [e.code for e in errors] == ["KindMismatch"]
    assert "flows into" in errors[0].detail
    assert str(errors[0]).startswith("KindMismatch: ")


def test_duplicate_writer():
    topo = Topology()
    topo.add(Producer("p1"))
    topo.add(Producer("p2"))
    topo.add(Consumer("c"))
    topo.connect("p1", "out", "c", "in")
    topo.connect("p2", "out", "c", "in")
    assert codes(topo) == ["DuplicateWriter"]


def test_duplicate_route():
    """An output port has one route; a second connection from it would
    silently replace the first, so validate() refuses it."""

    class Stimulus(Producer):
        def handle_entry(self, payload, ctx):
            ctx.emit("out", payload)

    topo = Topology()
    topo.add(Stimulus("s"))
    topo.add(Consumer("a"))
    topo.add(Consumer("b"))
    topo.connect("s", "out", "a", "in")
    topo.connect("s", "out", "b", "in")
    errors = topo.validate()
    assert [(e.code, e.connection) for e in errors] == [("DuplicateRoute", 1)]
    assert errors[0].detail == ("output s.out wired to both s.out -> a.in "
                                "and s.out -> b.in")
    with pytest.raises(InvalidConfigError, match="DuplicateRoute"):
        run_network(topo, MessageBudget(2), entry=("s", 1.0))


def test_connection_problems_carry_the_connection_index():
    topo = Topology()
    topo.add(Producer("p"))
    topo.add(Producer("p"))  # a node problem concerns no connection
    topo.add(Consumer("c"))
    topo.connect("p", "out", "c", "in")
    topo.connect("p", "nope", "c", "in")
    topo.connect("p", "out", "c", "in")
    assert [(e.code, e.connection) for e in topo.validate()] == [
        ("DuplicateNodeId", None), ("MissingEndpoint", 1),
        ("DuplicateWriter", 2), ("DuplicateRoute", 2)]


def test_entry_node_must_take_an_entry_payload():
    """A node whose class keeps Node.handle_entry is refused as the entry
    before round 0, so no handler runs."""
    handled = []

    class Listener(Node):
        input_ports = (Port("in", "scalar-quality"),)

        def handle(self, port_name, payload, ctx):
            handled.append(payload)

    topo = echo_loop()
    topo.add(Listener("l"))
    assert topo.entry_node("echo") is topo.node("echo")
    with pytest.raises(InvalidConfigError,
                       match="^entry node 'l' takes no entry payload$"):
        run_network(topo, MessageBudget(3), entry=("l", 0.0))
    with pytest.raises(InvalidConfigError,
                       match="^entry node 'ghost' is not in the topology$"):
        topo.entry_node("ghost")
    assert handled == []


def test_message_to_a_node_without_handle_fails_the_run():
    class Deaf(Node):
        input_ports = (Port("in", "scalar-quality"),)

    topo = Topology()
    topo.add(Echo("e"))
    topo.add(Deaf("d"))
    topo.connect("e", "out", "d", "in")
    with pytest.raises(HandlerFailureError) as info:
        run_network(topo, MessageBudget(2), entry=("e", 0.0))
    assert info.value.node_id == "d"
    assert isinstance(info.value.original, NotImplementedError)
    assert "does not handle input messages" in str(info.value)


def test_network_rejects_invalid_topology():
    topo = Topology()
    topo.add(Producer("a"))
    topo.add(Producer("a"))
    with pytest.raises(InvalidConfigError, match="DuplicateNodeId"):
        run_network(topo, MessageBudget(1), entry=("a", None))


def test_topology_node_lookup():
    topo = Topology()
    node = topo.add(Producer("p"))
    assert topo.node("p") is node
    with pytest.raises(KeyError):
        topo.node("missing")


def test_connection_str():
    c = Connection("a", "out", "b", "in")
    assert str(c) == "a.out -> b.in"
    assert str(TopologyError("X", "y")) == "X: y"


# ---------------------------------------------------------------------------
# Handler contexts

def test_node_context_emit_validation():
    ctx = NodeContext(Producer("p"), substream(0, "t"))
    with pytest.raises(InvalidConfigError, match="no output port"):
        ctx.emit("missing", 1.0)
    with pytest.raises(InvalidConfigError, match="does not match kind"):
        ctx.emit("out", object())
    ctx.emit("out", 3.5)
    assert ctx.emitted == [("out", 3.5)]


# ---------------------------------------------------------------------------
# run_network argument validation

def test_run_network_argument_validation():
    topo = echo_loop()
    with pytest.raises(InvalidConfigError, match="workers"):
        run_network(topo, MessageBudget(3), entry=("echo", 0.0), workers=0)
    with pytest.raises(InvalidConfigError, match="termination"):
        run_network(topo, "whenever", entry=("echo", 0.0))
    with pytest.raises(InvalidConfigError, match="budget"):
        run_network(topo, MessageBudget(0), entry=("echo", 0.0))
    with pytest.raises(InvalidConfigError, match="entry node"):
        run_network(topo, MessageBudget(3), entry=("ghost", 0.0))


def test_sinks_termination_must_name_sinks():
    topo = echo_loop()  # echo.out is connected, so it is not a sink
    with pytest.raises(UnconnectedPortError, match="echo.out"):
        run_network(topo, SinksEmitted((("echo", "out"),)),
                    entry=("echo", 0.0))


def test_sinks_termination_needs_a_port():
    """With no sinks to wait on, the entry would be counted nowhere; the
    rule is refused before round 0 runs any handler."""
    entered = []

    class Recorder(Node):
        output_ports = (Port("out", "scalar-quality"),)

        def handle_entry(self, payload, ctx):
            entered.append(payload)

    topo = Topology()
    topo.add(Recorder("r"))
    with pytest.raises(InvalidConfigError, match="at least one"):
        run_network(topo, SinksEmitted(()), entry=("r", 0.0))
    with pytest.raises(InvalidConfigError, match="at least one"):
        run_network(echo_loop(), SinksEmitted(()), entry=("echo", 0.0))
    assert entered == []


def test_termination_rules_check_themselves():
    """A rule no run could meet is refused where it is built, with the
    wording a run would give."""
    for limit in (0, -2):
        with pytest.raises(InvalidConfigError,
                           match="^message budget must be at least 1$"):
            MessageBudget(limit)
    with pytest.raises(InvalidConfigError, match=r"^sink termination needs "
                       r"at least one \(node, port\) sink$"):
        SinksEmitted(())
    assert MessageBudget(1).limit == 1
    assert SinksEmitted((("a", "out"),)).ports == (("a", "out"),)


def test_every_run_has_an_entry():
    with pytest.raises(TypeError, match="entry"):
        run_network(echo_loop(), MessageBudget(3))


# ---------------------------------------------------------------------------
# Execution semantics

def test_echo_loop_budget_accounting():
    run = run_network(echo_loop(), MessageBudget(5), entry=("echo", 0.0))
    assert run.stopped_by == "budget"
    assert run.rounds == 5
    assert run.messages_handled == 5
    assert run.messages_produced == 5
    assert run.messages_remaining == 1
    assert run.node_message_counts == {"echo": 5}
    # entry + produced == handled + remaining + sunk
    assert 1 + 5 == 5 + 1 + 0


def test_budget_puts_batch_overflow_back():
    """With two nodes ready each round and one message of budget left,
    the second delivery must return to its queue unconsumed."""

    class Fan(Node):
        output_ports = (Port("left", "scalar-quality"),
                        Port("right", "scalar-quality"))

        def handle_entry(self, payload, ctx):
            ctx.emit("left", payload)
            ctx.emit("right", payload)

    class Relay(Node):
        input_ports = (Port("start", "scalar-quality"),
                       Port("loop", "scalar-quality"))
        output_ports = (Port("out", "scalar-quality"),)

        def handle(self, port_name, payload, ctx):
            ctx.emit("out", payload + 1.0)

    topo = Topology()
    topo.add(Fan("fan"))
    topo.add(Relay("a1"))
    topo.add(Echo("a2"))
    topo.add(Relay("b1"))
    topo.add(Echo("b2"))
    topo.connect("fan", "left", "a1", "start")
    topo.connect("fan", "right", "b1", "start")
    topo.connect("a1", "out", "a2", "in")
    topo.connect("a2", "out", "a1", "loop")
    topo.connect("b1", "out", "b2", "in")
    topo.connect("b2", "out", "b1", "loop")
    run = run_network(topo, MessageBudget(4), entry=("fan", 0.0))
    assert run.messages_handled == 4
    # round 2 has room for one of [a2, b2]; declaration order keeps a2
    assert run.node_message_counts == {"fan": 1, "a1": 1, "a2": 1,
                                       "b1": 1, "b2": 0}
    assert run.messages_produced == 5
    assert run.messages_remaining == 2
    assert run.rounds == 3
    assert (1 + run.messages_produced
            == run.messages_handled + run.messages_remaining)


def test_sinks_termination_and_collection():
    class Doubler(Node):
        input_ports = (Port("in", "scalar-quality"),)
        output_ports = (Port("twice", "scalar-quality"),)

        def handle_entry(self, payload, ctx):
            ctx.emit("twice", payload * 2.0)

    topo = Topology()
    topo.add(Doubler("d"))
    run = run_network(topo, SinksEmitted((("d", "twice"),)),
                      entry=("d", 21.0))
    assert run.stopped_by == "sinks"
    assert run.sink("d", "twice") == [42.0]
    assert run.sink("d", "absent") == []
    assert run.messages_remaining == 0
    # conservation with one sunk payload
    assert (1 + run.messages_produced
            == run.messages_handled + run.messages_remaining + 1)


def test_deadlock_when_network_drains():
    class Quiet(Node):
        output_ports = (Port("out", "scalar-quality"),)

        def handle_entry(self, payload, ctx):
            pass  # swallows the stimulus

    topo = Topology()
    topo.add(Quiet("q"))
    with pytest.raises(DeadlockError):
        run_network(topo, SinksEmitted((("q", "out"),)), entry=("q", 0.0))


def test_handler_failure_is_wrapped():
    class Broken(Node):
        input_ports = (Port("in", "scalar-quality"),)
        output_ports = (Port("out", "scalar-quality"),)

        def handle_entry(self, payload, ctx):
            ctx.emit("out", payload)

        def handle(self, port_name, payload, ctx):
            raise ValueError("boom")

    topo = Topology()
    topo.add(Broken("b"))
    topo.connect("b", "out", "b", "in")
    with pytest.raises(HandlerFailureError) as info:
        run_network(topo, MessageBudget(5), entry=("b", 0.0))
    assert info.value.node_id == "b"
    assert isinstance(info.value.original, ValueError)
    assert "boom" in str(info.value)


def build_rng_fanout():
    """Entry fans out to two transformers that each mix in their own
    random stream; both feed sinks. Exercises parallel handling."""

    class Fan(Node):
        output_ports = (Port("a", "scalar-quality"),
                        Port("b", "scalar-quality"))

        def handle_entry(self, payload, ctx):
            for _ in range(5):
                ctx.emit("a", payload)
                ctx.emit("b", payload)

    class Jitter(Node):
        input_ports = (Port("in", "scalar-quality"),)
        output_ports = (Port("out", "scalar-quality"),)

        def handle(self, port_name, payload, ctx):
            ctx.emit("out", payload + float(ctx.rng.random()))

    topo = Topology()
    topo.add(Fan("fan"))
    topo.add(Jitter("ja"))
    topo.add(Jitter("jb"))
    topo.connect("fan", "a", "ja", "in")
    topo.connect("fan", "b", "jb", "in")
    return topo


def test_worker_count_invariance():
    termination = MessageBudget(11)  # entry + 10 transforms
    solo = run_network(build_rng_fanout(), termination, entry=("fan", 1.0),
                       seed=7, workers=1)
    pooled = run_network(build_rng_fanout(), termination, entry=("fan", 1.0),
                         seed=7, workers=8)
    assert solo.sink_outputs == pooled.sink_outputs
    assert solo.rounds == pooled.rounds
    assert solo.messages_handled == pooled.messages_handled
    assert solo.messages_produced == pooled.messages_produced
    assert solo.node_message_counts == pooled.node_message_counts
    assert len(solo.sink("ja", "out")) == 5
    assert len(solo.sink("jb", "out")) == 5


def test_node_streams_depend_on_seed():
    termination = MessageBudget(11)
    first = run_network(build_rng_fanout(), termination, entry=("fan", 1.0),
                        seed=0)
    second = run_network(build_rng_fanout(), termination, entry=("fan", 1.0),
                         seed=1)
    assert first.sink("ja", "out") != second.sink("ja", "out")


def test_trace_events():
    run = run_network(echo_loop(), MessageBudget(3), entry=("echo", 0.0),
                      trace=True)
    deliveries = [e for e in run.trace if e.event == "deliver"]
    emissions = [e for e in run.trace if e.event == "emit"]
    assert deliveries[0].port == "<entry>"
    assert deliveries[0].kind == "entry"
    assert deliveries[0].round_index == 0
    assert [e.port for e in deliveries[1:]] == ["in", "in"]
    assert [e.correlation_id for e in deliveries[1:]] == [0, 1]
    assert [e.correlation_id for e in emissions] == [0, 1, 2]
    assert all(e.kind == "scalar-quality" for e in emissions)
    assert [e.round_index for e in emissions] == [0, 1, 2]


def test_trace_off_by_default():
    run = run_network(echo_loop(), MessageBudget(3), entry=("echo", 0.0))
    assert run.trace == []


def test_first_nonempty_input_port_wins():
    """A node with two input ports consumes from the first declared one
    until it is empty, preserving per-port FIFO order."""
    received = []

    class TwoIn(Node):
        input_ports = (Port("high", "scalar-quality"),
                       Port("low", "scalar-quality"))
        output_ports = (Port("seen", "scalar-quality"),)

        def handle(self, port_name, payload, ctx):
            received.append((port_name, payload))
            ctx.emit("seen", payload)

    class Feeder(Node):
        output_ports = (Port("h", "scalar-quality"),
                        Port("l", "scalar-quality"))

        def handle_entry(self, payload, ctx):
            ctx.emit("l", 1.0)
            ctx.emit("l", 2.0)
            ctx.emit("h", 10.0)
            ctx.emit("h", 20.0)

    topo = Topology()
    topo.add(Feeder("f"))
    topo.add(TwoIn("t"))
    topo.connect("f", "h", "t", "high")
    topo.connect("f", "l", "t", "low")
    run = run_network(topo, MessageBudget(5), entry=("f", 0.0))
    assert received == [("high", 10.0), ("high", 20.0), ("low", 1.0),
                        ("low", 2.0)]
    assert run.sink("t", "seen") == [10.0, 20.0, 1.0, 2.0]


# ---------------------------------------------------------------------------
# Pinned behaviour of the routing and termination tables

def _run_digest(run):
    """SHA-256 over every trace event and the run's counters; the 1
    stands for the entry payload, which every run has."""
    h = hashlib.sha256()
    for e in run.trace:
        h.update(repr((e.round_index, e.event, e.node, e.port, e.kind,
                       e.correlation_id)).encode())
    h.update(repr((run.rounds, run.messages_handled, run.messages_produced,
                   run.messages_remaining, 1, run.stopped_by,
                   sorted(run.node_message_counts.items()))).encode())
    return h.hexdigest()


# digests of the mask search sending one message per search batch on
# every edge of its loop
PINNED_RUN_DIGESTS = {
    "sinks": "7b901dc20308308b8c8889f9ca06901996789d74ff26ffbac721c5f739547d23",
    "budget":
        "83f79153d74548febe4547c7371882a7a718a802f9ff5006e7293626866fbb22",
}


def _twin_search(partitioned, params, seed):
    """The mask search of build_feature_selection_topology without the
    engine: its RunResult and the sizes of its stream's batches."""
    orchestrator = RegressionOrchestratorNode("orchestrator", partitioned)
    model = OlsModelNode("model")
    sizes = []

    def evaluate(batch):
        sizes.append(len(batch))
        return [orchestrator.score(model.fit_problem(
            orchestrator.make_problem(FeatureMask(genome)), None))
            for genome in batch]

    stream = osga_stream(BinaryGenomeSpec(partitioned.base.n_features, 0.1),
                         params, substream(seed, "node", "selector"))
    return drive(stream, evaluate), sizes


def _run_result_key(result):
    """Everything a RunResult holds, comparable with ==."""
    return (result.best.genome.tobytes(), result.best.fitness,
            result.evaluations, result.generations, result.terminated_by,
            result.best_history, result.pressure_history,
            [(ind.genome.tobytes(), ind.fitness)
             for ind in result.population], result.nonfinite_fitness)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("rule, termination", [
    ("sinks", SinksEmitted((("selector", "result"),))),
    ("budget", MessageBudget(37)),
])
def test_feature_selection_trace_is_pinned(small_partitioned, rule,
                                           termination, workers):
    params = OsgaParams(population_size=8, max_evaluations=120,
                        max_selection_pressure=20.0)
    run = run_network(build_feature_selection_topology(small_partitioned,
                                                       params),
                      termination, entry=("selector", None), seed=5,
                      workers=workers, trace=True)
    assert run.stopped_by == rule
    assert _run_digest(run) == PINNED_RUN_DIGESTS[rule]
    if rule == "sinks":
        twin, sizes = _twin_search(small_partitioned, params, seed=5)
        # the entry, then a mask, problem, model and quality batch per step
        assert run.messages_handled == 1 + 4 * len(sizes)
        assert run.node_message_counts == {
            "selector": 1 + len(sizes), "orchestrator": 2 * len(sizes),
            "model": len(sizes)}
        assert _run_result_key(run.sink("selector", "result")[0]) \
            == _run_result_key(twin)


@pytest.mark.parametrize("port, payload, message", [
    ("missing", 1.0, "node 'p' has no output port 'missing'"),
    ("out", "text", "payload str does not match kind 'scalar-quality' "
                    "of p.out"),
])
def test_bad_emit_messages_in_a_run(port, payload, message):
    class BadEmitter(Node):
        output_ports = (Port("out", "scalar-quality"),)

        def handle_entry(self, entry, ctx):
            ctx.emit(port, payload)

    with pytest.raises(InvalidConfigError) as direct:
        NodeContext(BadEmitter("p"), substream(0, "t")).emit(port, payload)
    assert str(direct.value) == message
    topo = Topology()
    topo.add(BadEmitter("p"))
    with pytest.raises(HandlerFailureError) as info:
        run_network(topo, MessageBudget(1), entry=("p", None))
    assert isinstance(info.value.original, InvalidConfigError)
    assert str(info.value.original) == message


# ---------------------------------------------------------------------------
# Scheduling invariants on random topologies

MAX_HOPS = 8


class Hub(Node):
    """1-2 inputs, 1-2 outputs. The entry goes out on every output; each
    later message is re-emitted fanout times (0 absorbs, 1 relays, 2
    fans out) on outputs drawn from the node's stream, one hop further,
    until MAX_HOPS, so every run ends."""

    def __init__(self, node_id, n_in, n_out, fanout):
        super().__init__(node_id)
        self.input_ports = tuple(Port(f"in{i}", "scalar-quality")
                                 for i in range(n_in))
        self.output_ports = tuple(Port(f"out{i}", "scalar-quality")
                                  for i in range(n_out))
        self.fanout = fanout

    def handle_entry(self, payload, ctx):
        for port in self.output_ports:
            ctx.emit(port.name, payload)

    def handle(self, port_name, payload, ctx):
        if payload >= MAX_HOPS:
            return
        for _ in range(self.fanout):
            pick = int(ctx.rng.integers(len(self.output_ports)))
            ctx.emit(self.output_ports[pick].name, payload + 1.0)


@st.composite
def random_networks(draw):
    """A topology of 1-5 hubs wired at random (self-loops and rings
    included, unwired outputs become sinks) plus a termination rule."""
    topo = Topology()
    free_inputs = []
    for i in range(draw(st.integers(1, 5))):
        hub = topo.add(Hub(f"h{i}", draw(st.integers(1, 2)),
                           draw(st.integers(1, 2)),
                           draw(st.sampled_from((0, 1, 2, 2)))))
        free_inputs += [(hub.id, p.name) for p in hub.input_ports]
    sinks = []
    for hub in topo.nodes:
        for port in hub.output_ports:
            choice = draw(st.integers(-1, len(free_inputs) - 1))
            if choice < 0:
                sinks.append((hub.id, port.name))
            else:
                topo.connect(hub.id, port.name, *free_inputs.pop(choice))
    if sinks and draw(st.booleans()):
        watched = draw(st.lists(st.sampled_from(sinks), min_size=1,
                                max_size=len(sinks), unique=True))
        return topo, SinksEmitted(tuple(watched))
    return topo, MessageBudget(draw(st.integers(1, 30)))


def _run_or_deadlock(topo, termination, workers):
    try:
        return run_network(topo, termination, entry=("h0", 0.0), seed=3,
                           workers=workers, trace=True)
    except DeadlockError:
        return None


@settings(max_examples=200, deadline=None, database=None)
@given(random_networks())
def test_random_topologies_keep_the_scheduling_invariants(network):
    topo, termination = network
    solo = _run_or_deadlock(topo, termination, workers=1)
    pooled = _run_or_deadlock(topo, termination, workers=2)
    if solo is None:
        assert pooled is None
        return
    assert pooled.trace == solo.trace
    for counter in ("rounds", "messages_handled", "messages_produced",
                    "messages_remaining", "stopped_by",
                    "node_message_counts", "sink_outputs"):
        assert getattr(pooled, counter) == getattr(solo, counter)

    sunk = sum(len(v) for v in solo.sink_outputs.values())
    assert (1 + solo.messages_produced
            == solo.messages_handled + solo.messages_remaining + sunk)
    deliveries = [e for e in solo.trace if e.event == "deliver"]
    assert (sum(solo.node_message_counts.values()) == solo.messages_handled
            == len(deliveries))
    assert max(Counter((e.round_index, e.node)
                       for e in deliveries).values()) == 1
    # round 0 is the entry delivery and nothing else
    assert [e for e in deliveries if e.round_index == 0] == [
        TraceEvent(0, "deliver", "h0", "<entry>", "entry", 0)]
    if isinstance(termination, MessageBudget):
        assert solo.messages_handled == termination.limit
    # routing: each source port numbers its emissions 0, 1, 2, ... in
    # trace order, and every non-entry delivery carries an id already
    # emitted on the port that feeds it
    feeds = {(c.dst_node, c.dst_port): (c.src_node, c.src_port)
             for c in topo.connections}
    emitted = {}
    for e in solo.trace:
        if e.event == "emit":
            ids = emitted.setdefault((e.node, e.port), [])
            assert e.correlation_id == len(ids)
            ids.append(e.correlation_id)
        elif e.port != "<entry>":
            assert e.correlation_id in emitted[feeds[(e.node, e.port)]]
