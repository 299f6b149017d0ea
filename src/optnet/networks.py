"""Concrete optimization networks built from the generic engine.

The central network couples three nodes in a loop: a search node
(SearchNode) steps a genetic search over masks, an orchestrator turns
each mask into a projected regression problem and scores fitted models
into a scalar fitness (validation error plus a per-feature penalty),
and a model node fits whatever regressor it wraps and scores it with
quality. Each step of the search stream is one message on every edge
of the loop: a batch of masks, of problems, of fitted models and of
fitnesses. Swapping the model node switches the learning algorithm
without touching the rest; replacing it with a node that internally
runs a second network, a search node over forest settings and a forest
builder that scores them, gives nested hyperparameter tuning.

The model node is a ModelNode, built in or supplied by the user, and
is wired under its own id: fit_batch answers a batch, by default with
fit_problem once per problem in order, and fit_problem alone serves the
winner's refit and the twin.

A search-time problem views the orchestrator's whole problem and gathers
its columns only when a model node first reads them. The OLS node
answers a repeated mask from its memo, and solves a new one from the
Gram matrix (linear.OlsGram) it builds for each orchestrator's first
problem, reading no column either way; no other node builds one. Its
fit_batch solves a batch's new masks of one size in one stacked solve,
with the bits of solving each alone. The forest node's fit_batch grows
the forests of a batch's masks in one pass over the source's train rows
(forest.fit_random_forests), each from the seed fit_problem will draw
for it, and fit_problem hands each out by that seed and its mask's bits.
A search-time fit is scored on its validation rows alone (train_mae None).
The winner's final refit is an exact fit_ols on its gathered columns,
and with_test_mae scores it on the test rows of the columns the search
selected, whatever names the model carries. Both scorers predict
through predict_any, the only switch on model family.

A plain-loop twin of the feature-selection network (same nodes, no
engine) is provided as an oracle: both paths share one search stream and
must produce bit-identical results. The final refit continues the model
node's own stream from where the search left it, so the twin property
holds for any model node, including ones users supply.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from copy import deepcopy
from dataclasses import astuple, dataclass, field, replace

import numpy as np

from ._rng import substream
from .data import FeatureMask, PartitionedDataset
from .engine import Node, Port, SinksEmitted, Topology, run_network
from .errors import InfeasibleBoundsError, InvalidConfigError, \
    ShapeMismatchError
from .forest import ForestConfig, ForestModel, fit_random_forest, \
    fit_random_forests, predict_forest
from .linear import LinearModel, OlsGram, fit_ols, mae, predict, \
    predict_each_row
from .osga import (
    BinaryGenomeSpec,
    OsgaParams,
    RealGenomeSpec,
    RunResult,
    advance,
    check_search,
    drive,
    osga_stream,
    per_genome,
)
from .payloads import ModelWithQuality, ParameterVector, RegressionProblem


@dataclass
class FitnessConfig:
    """How a fitted model's quality folds into a mask's fitness.

    Fitness is validation MAE plus penalty_per_feature times the number
    of selected features. penalty_per_feature None resolves, per
    dataset, to 1% of the constant model's validation MAE divided by the
    total feature count, so the penalty is scale-free.
    """

    penalty_per_feature: float | None = None

    def validate(self) -> None:
        if self.penalty_per_feature is not None \
                and not self.penalty_per_feature >= 0:
            raise InvalidConfigError("penalty_per_feature must be >= 0")

    def resolve(self, train_target: np.ndarray,
                validation_target: np.ndarray, n_features: int) -> float:
        if self.penalty_per_feature is not None:
            return float(self.penalty_per_feature)
        constant = float(np.mean(train_target))
        base = float(np.mean(np.abs(validation_target - constant)))
        return 0.01 * base / max(n_features, 1)


@dataclass
class NetworkResult:
    """Outcome of a feature-selection run (network or direct loop).

    wall_time is excluded from equality so two runs can be compared for
    bit-identical search results.
    """

    best_mask: FeatureMask
    best_model: ModelWithQuality
    best_fitness: float
    evaluations: int
    generations: int
    terminated_by: str
    penalty_per_feature: float
    seed: int
    best_history: tuple[float, ...]
    pressure_history: tuple[float, ...]
    wall_time: float = field(compare=False, default=0.0)


# ---------------------------------------------------------------------------
# Nodes

class SearchNode(Node):
    """Steps the evaluation stream self.stream(ctx.rng), started on
    entry, one round-trip per batch: the batch goes out as
    self.encode(batch) on the first output port, and its fitnesses come
    back, in order, on "quality". The stream's return value goes out on
    "result". A subclass declares its output ports, stream and encode.
    """

    input_ports = (Port("quality", "scalar-quality-batch"),)

    def handle_entry(self, payload, ctx) -> None:
        self._stream = self.stream(ctx.rng)
        self._step(ctx, None)

    def handle(self, port_name: str, payload, ctx) -> None:
        self._step(ctx, payload)

    def _step(self, ctx, fitnesses) -> None:
        batch, result = advance(self._stream, fitnesses)
        if batch is None:
            ctx.emit("result", result)
        else:
            ctx.emit(self.output_ports[0].name, self.encode(batch))


class FeatureSelectionNode(SearchNode):
    """Runs the genetic mask search: emits each batch's masks on "mask"
    and the final RunResult on "result"."""

    output_ports = (Port("mask", "feature-mask-batch"),
                    Port("result", "run-result"))

    def __init__(self, node_id: str, genome_spec: BinaryGenomeSpec,
                 params: OsgaParams):
        super().__init__(node_id)
        self.genome_spec = genome_spec
        self.params = params

    def stream(self, rng: np.random.Generator):
        return osga_stream(self.genome_spec, self.params, rng)

    def encode(self, batch) -> tuple[FeatureMask, ...]:
        return tuple(map(FeatureMask, batch))

    # its own entries: the benchmark's tracer wraps both per class
    handle_entry, handle = SearchNode.handle_entry, SearchNode.handle


class RegressionOrchestratorNode(Node):
    """Translates masks into projected regression problems and model
    results into scalar fitness values, a batch per message, element by
    element.

    Train and validation rows are read once at construction, into the
    whole problem every search-time problem is a view of; the test
    partition is never touched here, which keeps the search honest.
    """

    input_ports = (Port("mask", "feature-mask-batch"),
                   Port("model", "model-with-quality-batch"))
    output_ports = (Port("problem", "regression-problem-batch"),
                    Port("quality", "scalar-quality-batch"))

    def __init__(self, node_id: str, partitioned: PartitionedDataset,
                 fitness: FitnessConfig | None = None):
        super().__init__(node_id)
        fitness = fitness or FitnessConfig()
        fitness.validate()
        w = self._whole = RegressionProblem.whole(partitioned)
        self.penalty_per_feature = fitness.resolve(
            w.train_target, w.validation_target, len(w.feature_names))

    @property
    def n_features(self) -> int:
        return len(self._whole.feature_names)

    def make_problem(self, mask: FeatureMask) -> RegressionProblem:
        """The search-time problem of mask; its columns and names are
        gathered on first read (RegressionProblem.projected)."""
        if len(mask) != self.n_features:
            raise ShapeMismatchError(
                f"mask of {len(mask)} bits for {self.n_features} features")
        return RegressionProblem.projected(self._whole, mask)

    def score(self, result: ModelWithQuality) -> float:
        return result.validation_mae \
            + self.penalty_per_feature * result.n_features

    def handle(self, port_name: str, payload, ctx) -> None:
        if port_name == "mask":
            ctx.emit("problem", tuple(map(self.make_problem, payload)))
        else:
            ctx.emit("quality", tuple(map(self.score, payload)))


class ModelNode(Node):
    """Base of the model nodes: answers a batch of problems with their
    fits, one message each way.

    A model node takes a regression-problem-batch on "problem" and emits
    fit_batch's fits, in order, as one model-with-quality-batch on
    "model". A subclass implements fit_problem(problem, rng), which fits
    one problem; the winner's refit and the plain-loop twin call it
    directly. fit_batch's default calls it once per problem, in order,
    on the node's stream, so a subclass that overrides only fit_problem
    is called exactly as the twin calls it. A subclass may override
    fit_batch to fit a batch together, provided its fits, its state and
    its stream end as that loop leaves them.
    """

    input_ports = (Port("problem", "regression-problem-batch"),)
    output_ports = (Port("model", "model-with-quality-batch"),)

    def fit_batch(self, problems, rng) -> list[ModelWithQuality]:
        return [self.fit_problem(p, rng) for p in problems]

    def handle(self, port_name: str, payload, ctx) -> None:
        ctx.emit("model", tuple(self.fit_batch(payload, ctx.rng)))


#: Masks whose fits an OlsModelNode keeps. Offspring selection revisits
#: a mask a median 74-87 evaluations after its previous visit in the
#: flagship search; the last 1 024 masks catch about 92 % of the repeats.
OLS_MEMO_SIZE = 1024


class OlsModelNode(ModelNode):
    """Fits an ordinary least-squares model per problem.

    A problem of a new source (an orchestrator's whole problem) empties
    the memo and builds the Gram matrix of the source's train rows. The
    fit draws no randomness, so the node keeps the fits of the last
    OLS_MEMO_SIZE masks and hands a repeated mask its earlier
    ModelWithQuality before any column is gathered. A new non-empty mask
    is solved from the Gram matrix (OlsGram.solve_stacked) and scored
    from the source's transposed validation columns, again gathering
    none; the empty mask, and every mask of a design whose Gram matrix
    or sub-system is refused, is fitted with fit_ols and scored by
    quality. Any other problem, such as the final refit, is fitted with
    fit_ols from its own arrays and never memoized. fits counts the fits
    made and hits the fits reused.

    fit_batch first solves the batch's distinct non-empty masks that
    the memo lacks together, each size's masks in one stacked solve,
    with the bits of solving each as a stack of one; fit_problem then
    takes such a mask's fit where it would fit it, so fits, hits and the
    memo's order are those of the per-problem loop.
    """

    def __init__(self, node_id: str):
        super().__init__(node_id)
        self.fits = 0
        self.hits = 0
        self._memo: OrderedDict[bytes, ModelWithQuality] = OrderedDict()
        self._memo_source: RegressionProblem | None = None
        self._gram: OlsGram | None = None
        self._columns_t = None  # the source's validation columns, transposed
        self._solved: dict[bytes, ModelWithQuality] = {}

    def _use_source(self, source: RegressionProblem) -> None:
        if source is not self._memo_source:
            self._gram = OlsGram(source.train_features, source.train_target)
            self._memo.clear()
            self._memo_source = source
            self._columns_t = np.ascontiguousarray(
                source.validation_features.T)
            self._solved = {}

    def fit_problem(self, problem: RegressionProblem,
                    rng: np.random.Generator) -> ModelWithQuality:
        source, key, fitted = problem.source, None, None
        if source is not None:
            self._use_source(source)
            key = problem.mask.bits.tobytes()
            fitted = self._memo.get(key)
            if fitted is not None:
                self._memo.move_to_end(key)
                self.hits += 1
                return fitted
            fitted = self._solved.pop(key, None)
            if fitted is None:
                fitted = self._solve_stacked((problem,)).get(key)
        if fitted is None:
            fitted = quality(fit_ols(problem.train_features,
                                     problem.train_target,
                                     problem.feature_names), problem, "ols")
        self.fits += 1
        if key is not None:
            self._memo[key] = fitted
            if len(self._memo) > OLS_MEMO_SIZE:
                self._memo.popitem(last=False)
        return fitted

    def fit_batch(self, problems, rng) -> list[ModelWithQuality]:
        source = problems[0].source if problems else None
        if source is not None \
                and all(p.source is source for p in problems):
            self._use_source(source)
            self._solved = self._solve_stacked(problems)
        return super().fit_batch(problems, rng)

    def _solve_stacked(self, problems) -> dict[bytes, ModelWithQuality]:
        """The fits of the distinct non-empty masks of problems that the
        memo lacks, each size's masks in one stacked solve and scored on
        the validation rows; a size whose solve is refused is left out."""
        by_size: dict[int, dict[bytes, np.ndarray]] = {}
        for p in problems:
            key = p.mask.bits.tobytes()
            if key not in self._memo:
                columns = np.flatnonzero(p.mask.bits)
                if len(columns):
                    by_size.setdefault(len(columns), {})[key] = columns
        source, solved = self._memo_source, {}
        for size, masks in by_size.items():
            columns = np.stack(list(masks.values()))
            coef = self._gram.solve_stacked(columns)
            if coef is None:
                continue
            weights, intercepts = coef[:, :-1], coef[:, -1]
            validation = _stacked_mae(self._columns_t, columns, weights,
                                      intercepts, source.validation_target)
            name = source.feature_names.__getitem__
            for key, cols, w, b, v in zip(masks, columns.tolist(), weights,
                                          intercepts, validation):
                model = LinearModel(w, b, tuple(map(name, cols)))
                solved[key] = ModelWithQuality(model, None, v,
                                               n_features=size, label="ols")
        return solved

    # its own entry, like fit_problem: the benchmark's tracer wraps both
    # per model-node class
    handle = ModelNode.handle


#: Elements (8 bytes each) of one gather of _stacked_mae: a size's masks
#: are scored in chunks of at most this many gathered values, at least
#: one mask each, so the gather's memory does not grow with the batch.
GATHER_ELEMENTS = 1 << 19


def _stacked_mae(columns_t: np.ndarray, columns: np.ndarray,
                 weights: np.ndarray, intercepts: np.ndarray,
                 target: np.ndarray) -> list[float]:
    """The MAE on target of each linear model (weights[i],
    intercepts[i]) on the columns[i] of X = columns_t.T, with the bits of
    mae(predict(model, X[:, columns[i]]), target): the gather of the
    transposed columns keeps each product's summation order, and each
    row's sum is mae's pairwise sum. Each model's product is its own, so
    chunking the gather leaves every bit as it is."""
    b, k = columns.shape
    step = max(1, GATHER_ELEMENTS // (k * len(target)))
    maes = []
    for lo in range(0, b, step):
        hi = lo + step
        predicted = (columns_t[columns[lo:hi]].transpose(0, 2, 1)
                     @ weights[lo:hi, :, None])[:, :, 0] \
            + intercepts[lo:hi, None]
        maes += (np.add.reduce(np.abs(predicted - target), axis=1)
                 / len(target)).tolist()
    return maes


class ForestModelNode(ModelNode):
    """Fits a random forest per problem; each fit draws a fresh seed
    from the node's stream so repeated fits are independent but the
    whole sequence is reproducible. fits counts the problems fitted and
    nodes_grown the tree nodes of the forests among them.

    fit_batch grows the forests of a batch's search-time problems of one
    source together (forest.fit_random_forests), with the seeds that
    fit_problem will draw: it draws them in batch order from a copy of
    the node's stream. Each forest is kept under its source, seed, mask
    bits and settings, and fit_problem takes it where it would grow that
    forest; a subclass whose fit_problem draws otherwise finds none and
    grows its own, so the fits are those of the per-problem loop.
    """

    def __init__(self, node_id: str, config: ForestConfig | None = None):
        super().__init__(node_id)
        self.config = config or ForestConfig()
        self.config.validate()
        self.fits = 0
        self.nodes_grown = 0
        self._grown: dict[tuple, ForestModel] = {}

    def _grown_key(self, problem: RegressionProblem, seed: int) -> tuple:
        return (problem.source, seed, problem.mask.bits.tobytes(),
                astuple(self.config))

    def fit_problem(self, problem: RegressionProblem,
                    rng: np.random.Generator) -> ModelWithQuality:
        fit_seed = int(rng.integers(np.iinfo(np.int64).max))
        if problem.train_features.shape[1] == 0:
            # degenerate empty mask: constant model, mirrors OLS behavior
            model = fit_ols(problem.train_features, problem.train_target, ())
        else:
            model = None if problem.source is None else self._grown.pop(
                self._grown_key(problem, fit_seed), None)
            if model is None:
                model = fit_random_forest(problem.train_features,
                                          problem.train_target, self.config,
                                          fit_seed, problem.feature_names)
            self.nodes_grown += sum(tree.n_nodes for tree in model.trees)
        self.fits += 1
        return quality(model, problem, "random-forest")

    def fit_batch(self, problems, rng) -> list[ModelWithQuality]:
        seeds = deepcopy(rng)  # the seeds fit_problem will draw
        jobs: dict[RegressionProblem, dict[tuple, np.ndarray]] = {}
        for p in problems:
            seed = int(seeds.integers(np.iinfo(np.int64).max))
            if p.source is not None and p.mask.bits.any():
                jobs.setdefault(p.source, {})[self._grown_key(p, seed)] = \
                    np.flatnonzero(p.mask.bits)
        self._grown = {}
        for source, grown in jobs.items():
            self._grown.update(zip(grown, fit_random_forests(
                source.train_features, source.train_target, self.config,
                [(key[1], columns) for key, columns in grown.items()],
                source.feature_names)))
        return super().fit_batch(problems, rng)

    handle = ModelNode.handle


# ---------------------------------------------------------------------------
# Feature-selection network and its plain-loop twin

def _make_model_node(model) -> ModelNode:
    if model == "ols":
        return OlsModelNode("model")
    if isinstance(model, ForestConfig):
        return ForestModelNode("model", model)
    if isinstance(model, ModelNode) \
            and callable(getattr(model, "fit_problem", None)):
        return model
    raise InvalidConfigError(
        "model must be 'ols', a ForestConfig, or a ModelNode with "
        f"fit_problem(problem, rng), got {model!r}")


def build_feature_selection_topology(
        partitioned: PartitionedDataset, params: OsgaParams,
        fitness: FitnessConfig | None = None, model="ols",
        init_one_probability: float = 0.1) -> Topology:
    """Wire selector, orchestrator, and model node, under its own id,
    into the search loop."""
    genome_spec = BinaryGenomeSpec(partitioned.base.n_features,
                                   init_one_probability)
    topo = Topology()
    topo.add(FeatureSelectionNode("selector", genome_spec, params))
    topo.add(RegressionOrchestratorNode("orchestrator", partitioned, fitness))
    model_id = topo.add(_make_model_node(model)).id
    topo.connect("selector", "mask", "orchestrator", "mask")
    topo.connect("orchestrator", "problem", model_id, "problem")
    topo.connect(model_id, "model", "orchestrator", "model")
    topo.connect("orchestrator", "quality", "selector", "quality")
    return topo


def predict_any(model, features: np.ndarray,
                each_row: bool = False) -> np.ndarray:
    """Predict with either model family; the one place that picks one.

    With each_row, every row has the bits of predicting it alone: a
    forest's rows are independent anyway, and a linear model then uses
    predict_each_row.
    """
    if isinstance(model, ForestModel):
        return predict_forest(model, features)
    return (predict_each_row if each_row else predict)(model, features)


def quality(model, problem: RegressionProblem,
            label: str) -> ModelWithQuality:
    """model's validation MAE on problem, and its train MAE unless problem
    is a search-time one (source set); n_features is the number of
    columns model reads."""
    return ModelWithQuality(
        model,
        train_mae=None if problem.source is not None else mae(
            predict_any(model, problem.train_features), problem.train_target),
        validation_mae=mae(predict_any(model, problem.validation_features),
                           problem.validation_target),
        n_features=len(problem.feature_names),
        label=label)


def with_test_mae(result: ModelWithQuality, partitioned: PartitionedDataset,
                  columns: np.ndarray) -> ModelWithQuality:
    """result scored once, after its search, on the given columns of the
    test rows: those its search selected, whatever names its model has."""
    test_x, test_y = partitioned.test_xy()
    return replace(result, test_mae=mae(
        predict_any(result.model, test_x[:, columns]), test_y))


def _final_result(run: RunResult, orchestrator: RegressionOrchestratorNode,
                  model_node, model_rng, partitioned: PartitionedDataset,
                  compute_test_mae: bool, seed: int,
                  started: float) -> NetworkResult:
    best_mask = FeatureMask(run.best.genome)
    # replace gathers the columns and drops the source: an exact refit
    refit = model_node.fit_problem(
        replace(orchestrator.make_problem(best_mask)), model_rng)
    if compute_test_mae:
        refit = with_test_mae(refit, partitioned,
                              np.flatnonzero(best_mask.bits))
    return NetworkResult(
        best_mask, refit, run.best.fitness, run.evaluations,
        run.generations, run.terminated_by,
        orchestrator.penalty_per_feature, seed,
        run.best_history, run.pressure_history,
        wall_time=time.perf_counter() - started)


def feature_selection_network(
        partitioned: PartitionedDataset, params: OsgaParams | None = None,
        fitness: FitnessConfig | None = None, model="ols", seed: int = 0,
        workers: int = 1, compute_test_mae: bool = True,
        init_one_probability: float = 0.1) -> NetworkResult:
    """Run the mask-search network to completion.

    model is "ols", a ForestConfig, or a ModelNode with
    fit_problem(problem, rng), whose fit_batch must answer a batch as
    fit_problem answers each problem in turn; it runs under its own id
    and stream. The refit of the winner and the plain-loop twin call
    fit_problem directly.

    The test partition is read exactly once, after the search, to score
    the winning model; pass compute_test_mae=False to skip even that.
    """
    started = time.perf_counter()
    params = params or OsgaParams()
    topo = build_feature_selection_topology(partitioned, params, fitness,
                                            model, init_one_probability)
    run = run_network(topo, SinksEmitted((("selector", "result"),)),
                      entry=("selector", None), seed=seed, workers=workers)
    ga_result: RunResult = run.sink("selector", "result")[0]
    _, orchestrator, model_node = topo.nodes
    return _final_result(ga_result, orchestrator, model_node,
                         run.rngs[model_node.id], partitioned,
                         compute_test_mae, seed, started)


def feature_selection_direct(
        partitioned: PartitionedDataset, params: OsgaParams | None = None,
        fitness: FitnessConfig | None = None, model="ols", seed: int = 0,
        compute_test_mae: bool = True,
        init_one_probability: float = 0.1) -> NetworkResult:
    """Plain-loop twin of feature_selection_network.

    Takes its nodes from build_feature_selection_topology and uses the
    same stream derivations but no message engine, so its NetworkResult
    must be bit-identical to the network's for equal arguments. It
    refuses, before its search, the topologies run_network refuses.
    """
    started = time.perf_counter()
    params = params or OsgaParams()
    topo = build_feature_selection_topology(partitioned, params, fitness,
                                            model, init_one_probability)
    topo.check_valid()
    selector, orchestrator, model_node = topo.nodes
    model_rng = substream(seed, "node", model_node.id)

    def evaluate(genome) -> float:
        problem = orchestrator.make_problem(FeatureMask(genome))
        return orchestrator.score(model_node.fit_problem(problem, model_rng))

    ga_result: RunResult = drive(
        selector.stream(substream(seed, "node", "selector")),
        per_genome(evaluate))
    return _final_result(ga_result, orchestrator, model_node, model_rng,
                         partitioned, compute_test_mae, seed, started)


# ---------------------------------------------------------------------------
# Nested hyperparameter tuning

def _forest_config(point) -> ForestConfig:
    """The forest settings of a (sample_ratio, feature_ratio, n_trees)
    point, the tree count rounded."""
    r, m, t = point
    return ForestConfig(n_trees=int(round(float(t))), sample_ratio=float(r),
                        feature_ratio=float(m))


@dataclass
class InnerGridSearch:
    """Grid over forest settings searched for every mask.

    Cells are visited sample_ratio-major, then feature_ratio, then
    n_trees. If the grid exceeds the budget the tail is skipped and the
    returned quality is flagged "budget-exhausted". validate refuses any
    cell that ForestConfig.validate refuses.
    """

    sample_ratios: tuple[float, ...] = (0.5, 0.7, 0.9)
    feature_ratios: tuple[float, ...] = (0.3, 0.5, 0.8)
    n_trees_options: tuple[int, ...] = (10, 25, 50)
    budget: int = 30

    def validate(self) -> None:
        if not (self.sample_ratios and self.feature_ratios
                and self.n_trees_options):
            raise InvalidConfigError("inner grid axes must be non-empty")
        if self.budget < 1:
            raise InvalidConfigError("inner budget must be at least 1")
        for cell in self.cells():
            _forest_config(cell).validate()

    def cells(self):
        for r in self.sample_ratios:
            for m in self.feature_ratios:
                for t in self.n_trees_options:
                    yield (float(r), float(m), int(t))

    def stream(self, rng: np.random.Generator):
        cells = list(self.cells())
        yield [np.array([r, m, float(t)]) for r, m, t in cells[:self.budget]]
        return len(cells) > self.budget


@dataclass
class InnerOsgaSearch:
    """Continuous search over (sample_ratio, feature_ratio, n_trees).

    The tree count travels as a real gene and is rounded when a forest
    is built. The search budget is the smaller of budget and the
    params' own evaluation budget. validate refuses bounds with lo > hi
    or with a corner, tree count rounded, that ForestConfig refuses.
    """

    params: OsgaParams = field(default_factory=lambda: OsgaParams(
        population_size=6, max_evaluations=30, elitism=1,
        crossover_kind="arithmetic", max_selection_pressure=20.0))
    sample_ratio_bounds: tuple[float, float] = (0.3, 1.0)
    feature_ratio_bounds: tuple[float, float] = (0.1, 1.0)
    n_trees_bounds: tuple[int, int] = (5, 60)
    budget: int = 30

    def validate(self) -> None:
        if self.budget < 1:
            raise InvalidConfigError("inner budget must be at least 1")
        check_search(RealGenomeSpec, self._budgeted_params())
        spec = self._spec()
        try:
            spec.validate()
        except InfeasibleBoundsError as exc:
            raise InvalidConfigError(str(exc)) from exc
        for corner in spec.bounds.T:
            _forest_config(corner).validate()

    def _budgeted_params(self) -> OsgaParams:
        return replace(self.params, max_evaluations=min(
            self.budget, self.params.max_evaluations))

    def _spec(self) -> RealGenomeSpec:
        return RealGenomeSpec(np.array([
            self.sample_ratio_bounds, self.feature_ratio_bounds,
            [float(b) for b in self.n_trees_bounds]]), sigma_fraction=0.2)

    def stream(self, rng: np.random.Generator):
        run = yield from osga_stream(self._spec(), self._budgeted_params(),
                                     rng)
        return run.terminated_by == "budget"


class ForestParamSearchNode(SearchNode):
    """Inner-network search node: emits search.stream's batches of forest
    settings on "params", and on "result" whether its budget cut it
    short."""

    output_ports = (Port("params", "parameter-vector-batch"),
                    Port("result", "run-result"))

    def __init__(self, node_id: str, search):
        super().__init__(node_id)
        self.stream = search.stream

    def encode(self, batch) -> tuple[ParameterVector, ...]:
        names = ("sample_ratio", "feature_ratio", "n_trees")
        return tuple(ParameterVector(values, names) for values in batch)


class ForestBuilderNode(Node):
    """Inner-network worker: builds one forest per (sample_ratio,
    feature_ratio, n_trees) vector of a batch, in order, each from a seed
    drawn from the node's stream and labelled with its settings, replies
    with their validation MAEs, and keeps the first with the lowest as
    best. ForestConfig.validate refuses bad settings, and __init__ a
    problem with no column."""

    input_ports = (Port("params", "parameter-vector-batch"),)
    output_ports = (Port("quality", "scalar-quality-batch"),)

    def __init__(self, node_id: str, problem: RegressionProblem):
        super().__init__(node_id)
        if problem.train_features.shape[1] == 0:
            raise InvalidConfigError("a forest needs at least one column")
        self.problem = problem
        self.best: ModelWithQuality | None = None

    def handle(self, port_name: str, payload, ctx) -> None:
        built = [self._build(params.values, ctx.rng) for params in payload]
        for fitted in built:
            if self.best is None \
                    or fitted.validation_mae < self.best.validation_mae:
                self.best = fitted
        ctx.emit("quality", tuple(fitted.validation_mae for fitted in built))

    def _build(self, values, rng) -> ModelWithQuality:
        c = _forest_config(values)
        fitted = ForestModelNode("fit", c).fit_problem(self.problem, rng)
        return replace(fitted, label=(
            f"tuned-forest(sample_ratio={c.sample_ratio:.2f},"
            f"feature_ratio={c.feature_ratio:.2f},n_trees={c.n_trees})"))


class InnerTuningModelNode(ModelNode):
    """Model node whose fit runs an entire inner network per problem, a
    search node and a forest builder in a loop: the builder's best
    forest, flagged "budget-exhausted" if the budget cut the search
    short."""

    def __init__(self, node_id: str,
                 search: InnerGridSearch | InnerOsgaSearch | None = None):
        super().__init__(node_id)
        self.search = search or InnerGridSearch()
        self.search.validate()

    def fit_problem(self, problem: RegressionProblem,
                    rng: np.random.Generator) -> ModelWithQuality:
        inner_seed = int(rng.integers(np.iinfo(np.int64).max))
        if problem.train_features.shape[1] == 0:  # as the forest node does
            model = fit_ols(problem.train_features, problem.train_target, ())
            return quality(model, problem, "ols")
        topo = Topology()
        topo.add(ForestParamSearchNode("search", self.search))
        builder = topo.add(ForestBuilderNode("builder", problem))
        topo.connect("search", "params", "builder", "params")
        topo.connect("builder", "quality", "search", "quality")
        run = run_network(topo, SinksEmitted((("search", "result"),)),
                          entry=("search", None), seed=inner_seed)
        if run.sink("search", "result")[0]:
            return replace(builder.best, flags=("budget-exhausted",))
        return builder.best
