"""Config documents: run, experiment (benchmark) and analyze configs.

All three share the block readers here; a benchmark's analysis block
and an analyze document both read into one AnalysisSpec. A run config
is a YAML key/value tree with four top-level sections:

    seed: 7                  # master seed, default 0
    workers: 1               # engine worker count, default 1
    data:                    # exactly one of benchmark / csv
      benchmark:             # synthetic dataset (all keys optional)
        n_observations: 1000
        n_features: 100
        n_relevant: 15
        weight_low: 0.0
        weight_high: 10.0
        noise_variance_fraction: 0.20
        seed: 3              # dataset seed, defaults to the master seed
      # csv:
      #   path: dataset.csv
      #   target_column: y
      #   ground_truth: dataset.truth.json   # optional sidecar
      partition:
        ratios: [0.25, 0.375, 0.375]
        seed: 0              # defaults to the master seed
    network:
      nodes:                 # name -> kind + parameters
        selector:
          kind: feature-selection
          population_size: 100
          max_evaluations: 10000
        orchestrator:
          kind: regression-orchestrator
        model:
          kind: ols-model
      connections:           # "srcNode.srcPort -> dstNode.dstPort"
        - selector.mask -> orchestrator.mask
        - orchestrator.problem -> model.problem
        - model.model -> orchestrator.model
        - orchestrator.quality -> selector.quality
      entry: selector        # node whose handle_entry starts the run
      termination:           # exactly one of sinks / budget
        sinks: [selector.result]
        # budget: 500

Unknown keys, values of the wrong type, numbers that are not finite or
exceed the largest float (1e300 is a cap that never fires), workers
below 1, and values a block's validate() rejects (a budget below the
population) raise ConfigFileError naming the field, before anything runs;
a mapping that repeats a key is invalid YAML, named with its line.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from typing import get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .analysis import (
    AnalysisReport,
    AnalysisTask,
    ElasticNetRecipe,
    FeatureSelectionRecipe,
    ForestRecipe,
    OlsRecipe,
    optimization_analysis_network,
    strict_json_doc,
)
from .data import (
    DEFAULT_PARTITION_RATIOS,
    BenchmarkConfig,
    FeatureMask,
    GroundTruth,
    PartitionedDataset,
    benchmark_feature_names,
    generate_benchmark,
    largest_remainder_counts,
    load_csv,
    load_ground_truth,
    partition,
)
from .engine import MessageBudget, SinksEmitted, Topology, run_network
from .errors import ConfigFileError, InvalidConfigError, UnconnectedPortError
from .forest import ForestConfig, ForestModel
from .linear import LinearModel
from .networks import (
    FeatureSelectionNode,
    FitnessConfig,
    ForestModelNode,
    InnerGridSearch,
    InnerOsgaSearch,
    InnerTuningModelNode,
    NetworkResult,
    OlsModelNode,
    RegressionOrchestratorNode,
)
from .osga import (
    BinaryGenomeSpec,
    Individual,
    OsgaParams,
    RealGenomeSpec,
    RunResult,
    check_search,
)
from .payloads import ModelWithQuality, ParameterVector, RegressionProblem

# ---------------------------------------------------------------------------
# Connection strings

def parse_connection(text: str) -> tuple[str, str, str, str]:
    """Split "srcNode.srcPort -> dstNode.dstPort" into its four parts."""
    if not isinstance(text, str):
        raise ConfigFileError(f"connection must be a string, got {text!r}")
    if "->" not in text:
        raise ConfigFileError(f"connection {text!r} lacks an '->' arrow")
    left, _, right = text.partition("->")
    return (*_parse_endpoint(left.strip(), "connection source"),
            *_parse_endpoint(right.strip(), "connection destination"))


def _parse_endpoint(text: str, where: str) -> tuple[str, str]:
    node, dot, port = text.partition(".")
    if not dot or not node or not port or "." in port:
        raise ConfigFileError(f"{where}: {text!r} must be 'node.port'")
    return node, port


# ---------------------------------------------------------------------------
# YAML files

class _UniqueKeyLoader(yaml.SafeLoader):
    """A SafeLoader that refuses a repeated key; << merges may override."""

    def construct_mapping(self, node, deep=False):
        keys = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)
        seen = set()
        for key_node in keys:
            key = self.construct_object(key_node, deep=True)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return mapping


def config_doc_from_yaml(text: str) -> dict:
    """Parse YAML text into a config mapping (None parses to {}); a
    mapping that repeats a key at any depth is invalid YAML."""
    try:
        doc = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = f" at line {mark.line + 1}" if mark is not None else ""
        raise ConfigFileError(f"invalid YAML{loc}: {exc}") from exc
    return _mapping(doc, "config")


def load_config_doc(path) -> dict:
    """Read and parse a YAML config file of any document type."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigFileError(f"cannot read config: {exc}") from exc
    return config_doc_from_yaml(text)


# ---------------------------------------------------------------------------
# Schema helpers

def _mapping(doc, where: str, allowed=None) -> dict:
    """doc as a mapping (None reads as {}), its keys checked if allowed
    is given."""
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigFileError("must be a mapping", field=where)
    for key in doc if allowed is not None else ():
        if key not in allowed:
            raise ConfigFileError(f"unknown key {key!r}", field=where)
    return doc


def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


_SCALARS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
            str: ((str,), "a string")}


def _typed(value, hint, where: str):
    """Check a YAML value against a field annotation.

    Handles int, float, str, tuples of those, and `X | None`. Lists
    become tuples and the items of float lists become floats; scalars
    come back as given. A bool is never a number, and an integer too
    large for a float is not a float.
    """
    args = get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        hint = next(a for a in args if a is not type(None))
        args = get_args(hint)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigFileError("must be a list", field=where)
        if args[-1] is not Ellipsis and len(value) != len(args):
            raise ConfigFileError(f"must be a {len(args)}-item list",
                                  field=where)
        items = tuple(_typed(v, args[0], f"{where}[{i}]")
                      for i, v in enumerate(value))
        return tuple(map(float, items)) if args[0] is float else items
    types, name = _SCALARS[hint]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigFileError(f"must be {name}, got {value!r}", field=where)
    if type(value) is int and hint is float \
            and abs(value) > sys.float_info.max:
        raise ConfigFileError("too large for a float", field=where)
    return value


def _values(cls, doc: dict, where: str, keys) -> dict:
    """The doc's values for those of keys it has, each checked against
    the annotation of the same-named field of cls."""
    hints = get_type_hints(cls)
    return {k: _typed(doc[k], hints[k], f"{where}.{k}" if where else k)
            for k in keys if k in doc}


def _read(cls, doc: dict, where: str, keys=None, check=None, **fixed):
    """Build cls from the doc's values for keys (default: every field of
    cls) plus fixed; a float that is not finite, or a failed check
    (default: cls.validate), names where."""
    values = _values(cls, doc, where, keys or _field_names(cls))
    _check_finite(values.values(), where)
    obj = cls(**values, **fixed)
    check = check or getattr(cls, "validate", None)
    if check is not None:
        try:
            check(obj)
        except InvalidConfigError as exc:
            raise ConfigFileError(str(exc), field=where) from exc
    return obj


def _check_finite(values, where: str) -> None:
    """Every float in values, and in its tuples, is finite."""
    for v in values:
        if isinstance(v, tuple):
            _check_finite(v, where)
        elif isinstance(v, float) and not math.isfinite(v):
            raise ConfigFileError(f"must be finite, got {v!r}", field=where)


def _check_workers(cfg) -> None:
    if cfg.workers < 1:
        raise ConfigFileError("must be at least 1", field="workers")


def _read_block(cls, doc, where: str):
    """A block that holds exactly the fields of cls."""
    return _read(cls, _mapping(doc, where, _field_names(cls)), where)


def _read_osga(doc: dict, where: str, genome) -> OsgaParams:
    """Search settings that osga.check_search passes for genome."""
    return _read(OsgaParams, doc, where,
                 check=lambda params: check_search(genome, params))


# ---------------------------------------------------------------------------
# Block readers shared by the document types

_BENCH_KEYS = _field_names(BenchmarkConfig)
_FOREST_KEYS = _field_names(ForestConfig)
_OSGA_KEYS = _field_names(OsgaParams)
_FITNESS_KEYS = _field_names(FitnessConfig)
_SELECTOR_KEYS = _OSGA_KEYS + ("init_one_probability",)
_ENET_KEYS = ("penalties", "l1_ratios")
_GRID_KEYS = ("sample_ratios", "feature_ratios", "n_trees_options")
_BOUND_KEYS = ("sample_ratio_bounds", "feature_ratio_bounds",
               "n_trees_bounds")
_NESTED_KEYS = ("search", "budget", "osga") + _GRID_KEYS + _BOUND_KEYS
_MODE_KEYS = {"grid": _GRID_KEYS, "osga": _BOUND_KEYS + ("osga",)}


def inner_search_from_options(options: dict, where: str
                              ) -> InnerGridSearch | InnerOsgaSearch:
    """Turn a config block into an inner forest-tuning search."""
    mode = options.get("search", "grid")
    if mode not in ("grid", "osga"):
        raise ConfigFileError(
            f"search must be 'grid' or 'osga', got {mode!r}", field=where)
    other = "osga" if mode == "grid" else "grid"
    bad = [k for k in _MODE_KEYS[other] if k in options]
    if bad:
        raise ConfigFileError(f"keys {bad} require search: {other}",
                              field=where)
    if mode == "grid":
        return _read(InnerGridSearch, options, where)
    sub = _mapping(options.get("osga"), f"{where}.osga", _OSGA_KEYS)
    params = {"params": _read_osga(sub, f"{where}.osga", RealGenomeSpec)} \
        if sub else {}
    return _read(InnerOsgaSearch, options, where, _BOUND_KEYS + ("budget",),
                 **params)


def _read_feature_selection(doc: dict, where: str) -> FeatureSelectionRecipe:
    """A mask search: the settings of a feature-selection recipe, of a
    benchmark's fs-network block, or of a feature-selection node (whose
    fitness settings belong to the orchestrator and stay default)."""
    # the genome length is the dataset's, known only once data is loaded
    spec = _read(BinaryGenomeSpec, doc, where, ("init_one_probability",),
                 length=1)
    return FeatureSelectionRecipe(
        _read_osga(doc, where, BinaryGenomeSpec),
        _read(FitnessConfig, doc, where),
        init_one_probability=spec.init_one_probability)


#: recipe kind -> (option keys, reader of a block holding only those keys)
_RECIPE_KINDS = {
    "ols": ((), lambda doc, where: OlsRecipe()),
    "elastic-net": (_ENET_KEYS, lambda doc, where: _read(
        ElasticNetRecipe, doc, where, _ENET_KEYS)),
    "random-forest": (_FOREST_KEYS, lambda doc, where: ForestRecipe(
        _read(ForestConfig, doc, where))),
    "feature-selection": (_SELECTOR_KEYS + _FITNESS_KEYS,
                          _read_feature_selection),
}


def _recipe_block(kind: str, doc, where: str, extra_keys=()):
    """A recipe of kind from a block of its options (plus extra_keys)."""
    keys, read = _RECIPE_KINDS[kind]
    return read(_mapping(doc, where, extra_keys + keys), where)


def recipe_from_doc(doc, where: str = "recipe"):
    """A recipe is a kind string or a mapping with a 'kind' key."""
    if isinstance(doc, str):
        doc = {"kind": doc}
    kind = _mapping(doc, where).get("kind")
    if not isinstance(kind, str) or kind not in _RECIPE_KINDS:
        raise ConfigFileError(f"recipe kind must be one of "
                              f"{list(_RECIPE_KINDS)}, got {kind!r}",
                              field=where)
    return _recipe_block(kind, doc, f"{where}.{kind}", ("kind",))


def _recipes(doc, where: str) -> tuple:
    if not isinstance(doc, list):
        raise ConfigFileError("must be a list", field=where)
    if not doc:
        raise ConfigFileError("at least one recipe required", field=where)
    return tuple(recipe_from_doc(r, f"{where}[{i}]")
                 for i, r in enumerate(doc))


# ---------------------------------------------------------------------------
# Node registry

@dataclass(frozen=True)
class NodeKind:
    """One entry of the node-type registry: the node class, whose
    input_ports and output_ports are the kind's ports, its option keys,
    its options reader and the rest of its constructor's arguments."""

    node: type
    option_keys: tuple[str, ...]
    read: object  # (options, where) -> settings, or ConfigFileError
    args: object  # (settings, PartitionedDataset) -> arguments after node_id


NODE_KINDS: dict[str, NodeKind] = {
    "feature-selection": NodeKind(
        FeatureSelectionNode, _SELECTOR_KEYS, _read_feature_selection,
        lambda recipe, partitioned: (BinaryGenomeSpec(
            partitioned.base.n_features,
            init_one_probability=recipe.init_one_probability),
            recipe.params)),
    "regression-orchestrator": NodeKind(
        RegressionOrchestratorNode, _FITNESS_KEYS,
        lambda options, where: _read(FitnessConfig, options, where),
        lambda fitness, partitioned: (partitioned, fitness)),
    "ols-model": NodeKind(
        OlsModelNode, (), lambda options, where: None,
        lambda settings, partitioned: ()),
    "random-forest-model": NodeKind(
        ForestModelNode, _FOREST_KEYS,
        lambda options, where: _read(ForestConfig, options, where),
        lambda config, partitioned: (config,)),
    "nested-tuning-model": NodeKind(
        InnerTuningModelNode, _NESTED_KEYS, inner_search_from_options,
        lambda search, partitioned: (search,)),
}


# ---------------------------------------------------------------------------
# Topology documents

@dataclass
class NodeSpec:
    """A node's kind and the settings its kind's reader made of its
    options."""

    kind: str
    settings: object


@dataclass
class TopologySpec:
    """Parsed, validated form of a network: block."""

    nodes: dict[str, NodeSpec]
    connections: tuple[tuple[str, str, str, str], ...]

    def declared(self) -> Topology:
        """The network before any data is made: each node is its kind's
        class carrying only its id, all that validate and entry_node read."""
        topo = Topology()
        for name, ns in self.nodes.items():
            topo.add(object.__new__(NODE_KINDS[ns.kind].node)).id = name
        for c in self.connections:
            topo.connect(*c)
        return topo


def topology_spec_from_doc(doc) -> TopologySpec:
    doc = _mapping(doc, "network", ("nodes", "connections"))
    nodes_doc = _mapping(doc.get("nodes"), "network.nodes")
    if not nodes_doc:
        raise ConfigFileError("at least one node required",
                              field="network.nodes")
    nodes: dict[str, NodeSpec] = {}
    for name, node_doc in nodes_doc.items():
        _typed(name, str, "network.nodes")
        node_where = f"network.nodes.{name}"
        node_doc = _mapping(node_doc, node_where)
        if "kind" not in node_doc:
            raise ConfigFileError("missing 'kind'", field=node_where)
        kind = node_doc["kind"]
        if not isinstance(kind, str) or kind not in NODE_KINDS:
            raise ConfigFileError(
                f"unknown node kind {kind!r}; known: "
                f"{sorted(NODE_KINDS)}", field=node_where)
        options = _mapping({k: v for k, v in node_doc.items() if k != "kind"},
                           node_where, NODE_KINDS[kind].option_keys)
        nodes[name] = NodeSpec(kind, NODE_KINDS[kind].read(options,
                                                           node_where))
    raw_conns = doc.get("connections") or []
    if not isinstance(raw_conns, list):
        raise ConfigFileError("must be a list", field="network.connections")
    spec = TopologySpec(nodes, tuple(parse_connection(c) for c in raw_conns))
    for p in spec.declared().validate():
        raise ConfigFileError(str(p), field="network" if p.connection is None
                              else f"network.connections[{p.connection}]")
    return spec


def build_topology(spec: TopologySpec,
                   partitioned: PartitionedDataset) -> Topology:
    """The declared network with its nodes made through the registry."""
    topo = spec.declared()
    for i, (name, ns) in enumerate(spec.nodes.items()):
        kind = NODE_KINDS[ns.kind]
        topo.nodes[i] = kind.node(name, *kind.args(ns.settings, partitioned))
    return topo


# ---------------------------------------------------------------------------
# Data section

@dataclass
class CsvSpec:
    """A data.csv block; ground_truth is an optional sidecar path."""

    path: str | None = None
    target_column: str = "y"
    ground_truth: str | None = None

    def validate(self) -> None:
        if self.path is None:
            raise InvalidConfigError("missing 'path'")


@dataclass
class PartitionSpec:
    """A data.partition block; seed None takes the master seed."""

    ratios: tuple[float, float, float] = DEFAULT_PARTITION_RATIOS
    seed: int | None = None

    def validate(self) -> None:
        largest_remainder_counts(0, self.ratios)


@dataclass
class DataSpec:
    """Where the dataset comes from and how it is partitioned."""

    benchmark: BenchmarkConfig | None = None
    benchmark_seed: int | None = None
    csv: CsvSpec | None = None
    partition: PartitionSpec = field(default_factory=PartitionSpec)


def data_spec_from_doc(doc, where: str = "data") -> DataSpec:
    doc = _mapping(doc, where, ("benchmark", "csv", "partition"))
    if ("benchmark" in doc) == ("csv" in doc):
        raise ConfigFileError("exactly one of benchmark/csv required",
                              field=where)
    spec = DataSpec()
    if "benchmark" in doc:
        b_where = f"{where}.benchmark"
        b = _mapping(doc["benchmark"], b_where, _BENCH_KEYS + ("seed",))
        spec.benchmark = _read(BenchmarkConfig, b, b_where)
        if "seed" in b:
            spec.benchmark_seed = _typed(b["seed"], int, f"{b_where}.seed")
    else:
        spec.csv = _read_block(CsvSpec, doc["csv"], f"{where}.csv")
    spec.partition = _read_block(PartitionSpec, doc.get("partition"),
                                 f"{where}.partition")
    return spec


def load_experiment_data(spec: DataSpec, default_seed: int = 0
                         ) -> tuple[PartitionedDataset, GroundTruth | None]:
    """Materialize the dataset a config describes and partition it. A
    CSV's ground-truth sidecar must name distinct columns of the CSV."""
    truth = None
    if spec.benchmark is not None:
        ds_seed = spec.benchmark_seed
        if ds_seed is None:
            ds_seed = default_seed
        dataset, truth = generate_benchmark(spec.benchmark, seed=ds_seed)
    else:
        dataset = load_csv(spec.csv.path, spec.csv.target_column)
        if spec.csv.ground_truth is not None:
            truth = load_ground_truth(spec.csv.ground_truth)
            idx, d = truth.true_indices, dataset.n_features
            if len(set(idx)) < len(idx) \
                    or not all(0 <= i < d for i in idx):
                raise ConfigFileError(
                    f"ground truth {spec.csv.ground_truth}: true_indices "
                    f"must be distinct columns 0 to {d - 1} of the CSV, "
                    f"got {list(idx)}")
    p_seed = spec.partition.seed
    if p_seed is None:
        p_seed = default_seed
    return partition(dataset, spec.partition.ratios, seed=p_seed), truth


# ---------------------------------------------------------------------------
# Whole run configs

@dataclass
class NetworkRunConfig:
    """Everything needed to execute one configured network."""

    data: DataSpec
    topology: TopologySpec
    entry: str
    termination: MessageBudget | SinksEmitted
    seed: int = 0
    workers: int = 1


def _termination(doc, declared: Topology) -> MessageBudget | SinksEmitted:
    """The engine's rule of a network.termination block, which holds
    exactly one of sinks (node.port sinks of declared) and budget."""
    where = "network.termination"
    block = _mapping(doc, where, ("sinks", "budget"))
    sinks = _typed(block.get("sinks"), tuple[str, ...] | None,
                   f"{where}.sinks")
    budget = _typed(block.get("budget"), int | None, f"{where}.budget")
    if (sinks is None) == (budget is None):
        raise ConfigFileError("exactly one of sinks/budget required",
                              field=where)
    try:
        rule = MessageBudget(budget) if sinks is None else SinksEmitted(
            tuple(_parse_endpoint(s, f"{where}.sinks") for s in sinks))
    except InvalidConfigError as exc:
        raise ConfigFileError(str(exc), field=where) from exc
    try:
        declared.sinks(() if sinks is None else rule.ports)
    except UnconnectedPortError as exc:
        raise ConfigFileError(str(exc), field=f"{where}.sinks") from exc
    return rule


def run_config_from_doc(doc) -> NetworkRunConfig:
    doc = _mapping(doc, "config", ("seed", "workers", "data", "network"))
    for key in ("data", "network"):
        if key not in doc:
            raise ConfigFileError(f"missing section {key!r}", field="config")
    net = _mapping(doc["network"], "network",
                   ("nodes", "connections", "entry", "termination"))
    topo_spec = topology_spec_from_doc(
        {"nodes": net.get("nodes"), "connections": net.get("connections")})
    if "entry" not in net:
        raise ConfigFileError("missing 'entry'", field="network")
    entry = _typed(net["entry"], str, "network.entry")
    declared = topo_spec.declared()
    try:
        declared.entry_node(entry)
    except InvalidConfigError as exc:
        raise ConfigFileError(str(exc), field="network.entry") from exc
    termination = _termination(net.get("termination"), declared)
    return _read(
        NetworkRunConfig, doc, "", ("seed", "workers"), _check_workers,
        data=data_spec_from_doc(doc["data"]),
        topology=topo_spec,
        entry=entry,
        termination=termination)


# ---------------------------------------------------------------------------
# Experiment configs (optnet benchmark / generate)

METHOD_NAMES = ("full-ols", "oracle-ols", "elastic-net-grid",
                "fs-network-ols", "fs-network-rf", "nested-rf",
                "optimization-analysis")
DEFAULT_METHODS = ("full-ols", "oracle-ols", "elastic-net-grid",
                   "fs-network-ols")
DEFAULT_RECIPES = (OlsRecipe(),
                   ForestRecipe(ForestConfig(n_trees=10, max_depth=8)))


def observed_bounds(partitioned: list[PartitionedDataset],
                    input_names) -> np.ndarray:
    """Per-input [min, max] over the train and validation rows of every
    dataset that carries the input. Raises ConfigFileError at task.bounds
    for an input that no dataset carries or that takes one value only on
    those rows, since neither gives a range to search."""
    search_rows = [(p.base.feature_names,
                    np.vstack((p.train_xy()[0], p.validation_xy()[0])))
                   for p in partitioned]
    bounds = np.empty((len(input_names), 2))
    for i, name in enumerate(input_names):
        cols = [X[:, names.index(name)] for names, X in search_rows
                if name in names]
        if not cols:
            raise ConfigFileError(
                f"input {name!r} appears in no dataset; give explicit bounds",
                field="task.bounds")
        col = np.concatenate(cols)
        lo, hi = float(col.min()), float(col.max())
        if lo == hi:
            raise ConfigFileError(
                f"input {name!r} is constant in the data; give explicit "
                f"bounds", field="task.bounds")
        bounds[i] = (lo, hi)
    return bounds


@dataclass
class AnalysisSpec:
    """An optimization analysis: the pool's recipes, the models kept per
    target output, the input search (None: optimize_inputs' default)
    and the settings task_for builds the task from."""

    recipes: tuple = DEFAULT_RECIPES
    subset_size: int = 1
    search: OsgaParams | None = None
    targets: tuple[float, ...] | None = None
    input_names: tuple[str, ...] | None = None
    bounds: tuple[tuple[float, float], ...] | None = None
    fixed: dict[str, float] = field(default_factory=dict)
    free_inputs: object = "true"

    def task_for(self, partitioned: list[PartitionedDataset],
                 truth: GroundTruth | None) -> AnalysisTask:
        """The task on partitioned, one dataset per target output. None
        takes the first dataset's train-target mean plus one std, names,
        or observed bounds. Inputs outside free_inputs ("all", "true" for
        truth's informative ones, or names) are fixed at 0, and fixed
        pins values over that. A target count, bounds rows or names that
        do not match the data raise ConfigFileError naming the field."""
        first = partitioned[0]
        names = self.input_names
        if names is None:
            names = first.base.feature_names
        targets = self.targets
        if targets is None:
            _, y_train = first.train_xy()
            targets = (float(np.mean(y_train) + np.std(y_train)),)
        elif len(targets) != len(partitioned):
            raise ConfigFileError(f"{len(targets)} targets for "
                                  f"{len(partitioned)} datasets",
                                  field="task.targets")
        if self.bounds is None:
            bounds = observed_bounds(partitioned, names)
        elif len(self.bounds) != len(names):
            raise ConfigFileError(f"{len(self.bounds)} rows for "
                                  f"{len(names)} inputs", field="task.bounds")
        else:
            bounds = np.asarray(self.bounds, dtype=np.float64)
        if self.free_inputs == "all":
            free = set(names)
        elif self.free_inputs == "true":
            if truth is None:
                raise InvalidConfigError(
                    "free_inputs 'true' needs ground truth; pass a name list")
            free = {first.base.feature_names[i] for i in truth.true_indices}
        else:
            free = set(self.free_inputs)
            _check_known(free, names, "analysis.free_inputs")
        _check_known(self.fixed, names, "task.fixed")
        fixed = {n: 0.0 for n in names if n not in free}
        fixed.update(self.fixed)
        return AnalysisTask(names, bounds, targets, fixed)

    def run(self, partitioned: list[PartitionedDataset],
            truth: GroundTruth | None, seed: int,
            workers: int = 1) -> AnalysisReport:
        """optimization_analysis_network on task_for(partitioned, truth)."""
        return optimization_analysis_network(
            partitioned, self.recipes, self.subset_size,
            self.task_for(partitioned, truth), self.search, seed=seed,
            workers=workers)


def _check_known(given, known, where: str) -> None:
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ConfigFileError(f"{unknown} are not input names", field=where)


def _analysis_spec(doc: dict, where: str, task: dict, task_where: str,
                   free_inputs: str) -> AnalysisSpec:
    """An AnalysisSpec of doc's recipes, subset_size and search at where
    ("" for an analyze document's top level) and of task's other fields
    at task_where, free_inputs defaulting to the one given."""
    def at(key):
        return f"{where}.{key}" if where else key
    fixed = _mapping(task.get("fixed"), f"{task_where}.fixed")
    free_inputs = task.get("free_inputs", free_inputs)
    if isinstance(free_inputs, list):
        free_inputs = _typed(free_inputs, tuple[str, ...],
                             f"{task_where}.free_inputs")
    elif free_inputs not in ("true", "all"):
        raise ConfigFileError(
            "free_inputs must be 'true', 'all', or a name list",
            field=f"{task_where}.free_inputs")
    spec = AnalysisSpec(
        free_inputs=free_inputs,
        fixed={_typed(k, str, f"{task_where}.fixed"):
               float(_typed(v, float, f"{task_where}.fixed.{k}"))
               for k, v in fixed.items()},
        **_values(AnalysisSpec, doc, where, ("subset_size",)),
        **_values(AnalysisSpec, task, task_where,
                  ("targets", "input_names", "bounds")))
    if "recipes" in doc:
        spec.recipes = _recipes(doc["recipes"], at("recipes"))
    n = len(spec.recipes)
    if not 1 <= spec.subset_size <= n:
        raise ConfigFileError(f"must lie in [1, {n}] for {n} recipes, "
                              f"got {spec.subset_size}",
                              field=at("subset_size"))
    if "search" in doc:
        spec.search = _read_osga(_mapping(doc["search"], at("search"),
                                          _OSGA_KEYS),
                                 at("search"), RealGenomeSpec)
    if spec.targets == ():
        raise ConfigFileError("at least one target required",
                              field=f"{task_where}.targets")
    _check_finite(spec.targets or (), f"{task_where}.targets")
    _check_finite(spec.fixed.values(), f"{task_where}.fixed")
    if spec.input_names and \
            len(set(spec.input_names)) < len(spec.input_names):
        raise ConfigFileError("must be unique",
                              field=f"{task_where}.input_names")
    for i, (lo, hi) in enumerate(spec.bounds or ()):
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigFileError(f"must be finite with lo < hi, got "
                                  f"[{lo}, {hi}]",
                                  field=f"{task_where}.bounds[{i}]")
    return spec


@dataclass
class ExperimentConfig:
    """Everything cmd_benchmark needs: seeds, methods, and their knobs."""

    seeds: tuple[int, ...] = (0,)
    methods: tuple[str, ...] = DEFAULT_METHODS
    benchmark: BenchmarkConfig = field(default_factory=BenchmarkConfig)
    ratios: tuple[float, float, float] = DEFAULT_PARTITION_RATIOS
    workers: int = 1
    fs_network: FeatureSelectionRecipe = field(
        default_factory=FeatureSelectionRecipe)
    elastic_net: ElasticNetRecipe = field(default_factory=ElasticNetRecipe)
    forest: ForestConfig = field(
        default_factory=lambda: ForestConfig(n_trees=25))
    inner_search: object = None
    analysis: AnalysisSpec = field(default_factory=AnalysisSpec)

    def validate(self) -> None:
        if not self.seeds:
            raise ConfigFileError("at least one seed required", field="seeds")
        if not self.methods:
            raise ConfigFileError("at least one method required",
                                  field="methods")
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise ConfigFileError(
                    f"unknown method {m!r}; known: {list(METHOD_NAMES)}",
                    field="methods")
        for name in ("seeds", "methods"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ConfigFileError(f"{name} must be unique", field=name)
        _check_workers(self)
        self.benchmark.validate()
        if self.analysis.free_inputs not in ("true", "all"):
            _check_known(self.analysis.free_inputs,
                         benchmark_feature_names(self.benchmark.n_features),
                         "analysis.free_inputs")


_EXPERIMENT_KEYS = ("seeds", "methods", "benchmark", "partition", "workers",
                    "fs-network", "elastic-net", "forest", "nested",
                    "analysis")


def experiment_config_from_doc(doc) -> ExperimentConfig:
    doc = _mapping(doc, "config", _EXPERIMENT_KEYS)
    cfg = ExperimentConfig(
        benchmark=_read_block(BenchmarkConfig, doc.get("benchmark"),
                              "benchmark"),
        ratios=_read(PartitionSpec, _mapping(doc.get("partition"),
                                             "partition", ("ratios",)),
                     "partition").ratios,
        fs_network=_recipe_block("feature-selection", doc.get("fs-network"),
                                 "fs-network"),
        elastic_net=_recipe_block("elastic-net", doc.get("elastic-net"),
                                  "elastic-net"),
        **_values(ExperimentConfig, doc, "", ("seeds", "methods", "workers")))
    if "forest" in doc:
        cfg.forest = _read_block(ForestConfig, doc["forest"], "forest")
    if "nested" in doc:
        cfg.inner_search = inner_search_from_options(
            _mapping(doc["nested"], "nested", _NESTED_KEYS), "nested")
    if "analysis" in doc:  # its task keys sit in the block itself
        a = _mapping(doc["analysis"], "analysis", (
            "targets", "subset_size", "recipes", "search", "free_inputs"))
        cfg.analysis = _analysis_spec(a, "analysis", a, "analysis", "true")
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Analyze configs (optnet analyze)

@dataclass
class AnalyzeConfig:
    """A parsed analyze document: one dataset per target output."""

    datasets: tuple[DataSpec, ...]
    analysis: AnalysisSpec
    seed: int = 0
    workers: int = 1


_ANALYZE_KEYS = ("seed", "workers", "subset_size", "datasets", "recipes",
                 "task", "search")


def analyze_config_from_doc(doc) -> AnalyzeConfig:
    doc = _mapping(doc, "config", _ANALYZE_KEYS)
    datasets = doc.get("datasets")
    if not isinstance(datasets, list) or not datasets:
        raise ConfigFileError("datasets must be a non-empty list",
                              field="datasets")
    task = _mapping(doc.get("task"), "task", ("input_names", "bounds",
                                              "targets", "fixed",
                                              "free_inputs"))
    if task.get("targets") is None:
        raise ConfigFileError("missing 'targets'", field="task")
    return _read(AnalyzeConfig, doc, "", ("seed", "workers"), _check_workers,
                 datasets=tuple(data_spec_from_doc(d, f"datasets[{i}]")
                                for i, d in enumerate(datasets)),
                 analysis=_analysis_spec(doc, "", task, "task", "all"))


# ---------------------------------------------------------------------------
# Payload serialization

# type -> ("type" tag or None, rendered fields); a field is an attribute
# name or a (name, getter) pair for a derived value. NetworkResult leaves
# out wall_time, so every rendering is replay-stable.
_DOC_FIELDS = {
    LinearModel: ("linear-model", ("feature_names", "weights", "intercept",
                                   "rank_deficient", "converged")),
    ForestModel: ("forest-model", (
        ("n_trees", lambda m: len(m.trees)),
        ("n_nodes", lambda m: [t.n_nodes for t in m.trees]),
        "feature_names", ("config", lambda m: asdict(m.config)))),
    ModelWithQuality: ("model-with-quality", (
        "label", "train_mae", "validation_mae", "test_mae", "n_features",
        "flags", "model")),
    ParameterVector: ("parameter-vector", ("names", "values")),
    Individual: (None, ("genome", "fitness")),
    RunResult: ("run-result", ("best", "evaluations", "generations",
                               "terminated_by", "best_history",
                               "pressure_history")),
    NetworkResult: ("network-result", (
        "best_mask", "best_model", "best_fitness", "evaluations",
        "generations", "terminated_by", "penalty_per_feature", "seed",
        "best_history", "pressure_history")),
    RegressionProblem: ("regression-problem", (
        ("n_train", lambda p: p.train_features.shape[0]),
        ("n_validation", lambda p: p.validation_features.shape[0]),
        "feature_names", "mask")),
}


def payload_doc(obj):
    """JSON-able rendering of any payload the engine can carry.

    Masks and binary genomes render as 0/1 strings. Forests render as a
    shape summary; their trees stay in memory only. Everything here is
    a pure function of the run outputs, so serialized results are
    byte-stable across replays.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    if isinstance(obj, FeatureMask):
        return obj.to_string()
    if isinstance(obj, np.ndarray):
        if obj.dtype == bool:
            return "".join("1" if b else "0" for b in obj)
        return obj.tolist()
    for cls in type(obj).__mro__:
        if cls in _DOC_FIELDS:
            tag, entries = _DOC_FIELDS[cls]
            doc = {} if tag is None else {"type": tag}
            for entry in entries:
                name, get = (entry, None) if isinstance(entry, str) else entry
                doc[name] = payload_doc(
                    getattr(obj, name) if get is None else get(obj))
            return doc
    if isinstance(obj, dict):
        return {str(k): payload_doc(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [payload_doc(v) for v in obj]
    return repr(obj)


# ---------------------------------------------------------------------------
# Execution and reports

@dataclass
class ConfiguredRunReport:
    """Outcome of run_configured or run_analysis: embedded config,
    stable result, timing.

    The result section is a pure function of the config, so replaying
    the embedded config reproduces it byte for byte; wall-clock timing
    lives outside it. In the result a non-finite float reads null.
    """

    config_doc: dict
    result_doc: dict
    wall_time: float

    def __post_init__(self):
        self.result_doc = strict_json_doc(self.result_doc)

    def to_doc(self) -> dict:
        return {
            "config": self.config_doc,
            "result": self.result_doc,
            "timing": {"wall_time": self.wall_time},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")


def run_configured(doc) -> ConfiguredRunReport:
    """Build the network a run document describes, run it, and package
    the outcome.

    The report embeds the document as given; its result section is a
    pure function of it.
    """
    started = time.perf_counter()
    cfg = run_config_from_doc(doc)
    partitioned, _ = load_experiment_data(cfg.data, cfg.seed)
    topo = build_topology(cfg.topology, partitioned)
    run = run_network(topo, cfg.termination, entry=(cfg.entry, None),
                      seed=cfg.seed, workers=cfg.workers)
    result_doc = {
        "sinks": {
            f"{node}.{port}": [payload_doc(p) for p in payloads]
            for (node, port), payloads in sorted(run.sink_outputs.items())
        },
        "rounds": run.rounds,
        "messages_handled": run.messages_handled,
        "messages_produced": run.messages_produced,
        "messages_remaining": run.messages_remaining,
        "stopped_by": run.stopped_by,
        "node_message_counts": dict(sorted(
            run.node_message_counts.items())),
    }
    return ConfiguredRunReport(doc, result_doc, time.perf_counter() - started)


def run_analysis(doc) -> ConfiguredRunReport:
    """Run the analysis pipeline an analyze document describes.

    The report embeds the document as given; its result section is a
    pure function of it.
    """
    started = time.perf_counter()
    cfg = analyze_config_from_doc(doc)
    loaded = [load_experiment_data(spec, cfg.seed) for spec in cfg.datasets]
    # the first dataset's ground truth, for free_inputs "true"
    report = cfg.analysis.run([partitioned for partitioned, _ in loaded],
                              loaded[0][1], cfg.seed, cfg.workers)
    return ConfiguredRunReport(doc, report.to_json_dict(),
                               time.perf_counter() - started)


def replay_report(report_doc: dict) -> ConfiguredRunReport:
    """Re-run the document a run or analyze report embeds; its result
    section must come back identical. Only an analyze document has
    datasets."""
    if "config" not in report_doc:
        raise ConfigFileError("report lacks an embedded config")
    doc = report_doc["config"]
    run = run_analysis if isinstance(doc, dict) and "datasets" in doc \
        else run_configured
    return run(doc)
