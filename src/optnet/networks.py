"""Concrete optimization networks built from the generic engine.

The central network couples three nodes in a loop: a feature-selection
node runs a genetic search over masks, an orchestrator turns each mask
into a projected regression problem and scores fitted models into a
scalar fitness (validation error plus a per-feature penalty), and a
model node fits whatever regressor it wraps and scores it with quality.
Swapping the model node switches the learning algorithm without
touching the rest; replacing it with a node that internally runs a
second network gives nested hyperparameter tuning.

A search-time problem views the orchestrator's whole problem and gathers
its columns only when a model node first reads them. The OLS node
answers a repeated mask from its memo, reading no column, and solves a
new one from the Gram matrix (linear.OlsGram) it builds for each
orchestrator's first problem; no other node builds one. The winner's
final refit is an exact fit_ols on its gathered columns, and
with_test_mae scores it on the test rows of the columns the search
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
from dataclasses import dataclass, field, replace

import numpy as np

from ._rng import substream
from .data import FeatureMask, PartitionedDataset
from .engine import Node, Port, SinksEmitted, Topology, run_network
from .errors import InfeasibleBoundsError, InvalidConfigError, \
    ShapeMismatchError
from .forest import ForestConfig, ForestModel, fit_random_forest, \
    predict_forest
from .linear import OlsGram, fit_ols, mae, predict, predict_each_row
from .osga import (
    BinaryGenomeSpec,
    OsgaParams,
    RealGenomeSpec,
    RunResult,
    advance,
    check_search,
    drive,
    one_by_one,
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

class FeatureSelectionNode(Node):
    """Runs the genetic mask search, one evaluation round-trip at a time:
    each batch of the search stream goes out one mask per message.

    Emits masks on "mask", receives their fitness on "quality", and
    emits the final RunResult on "result" when the search terminates.
    """

    input_ports = (Port("quality", "scalar-quality"),)
    output_ports = (Port("mask", "feature-mask"),
                    Port("result", "run-result"))

    def __init__(self, node_id: str, genome_spec: BinaryGenomeSpec,
                 params: OsgaParams):
        super().__init__(node_id)
        self.genome_spec = genome_spec
        self.params = params
        self._stream = None

    def handle_entry(self, payload, ctx) -> None:
        self._stream = one_by_one(
            osga_stream(self.genome_spec, self.params, ctx.rng))
        self._advance(ctx, None)

    def handle(self, port_name: str, payload, ctx) -> None:
        self._advance(ctx, payload)

    def _advance(self, ctx, fitness) -> None:
        genome, result = advance(self._stream, fitness)
        if genome is None:
            ctx.emit("result", result)
        else:
            ctx.emit("mask", FeatureMask(genome))


class RegressionOrchestratorNode(Node):
    """Translates masks into projected regression problems and model
    results into scalar fitness values.

    Train and validation rows are read once at construction, into the
    whole problem every search-time problem is a view of; the test
    partition is never touched here, which keeps the search honest.
    """

    input_ports = (Port("mask", "feature-mask"),
                   Port("model", "model-with-quality"))
    output_ports = (Port("problem", "regression-problem"),
                    Port("quality", "scalar-quality"))

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
            ctx.emit("problem", self.make_problem(payload))
        else:
            ctx.emit("quality", self.score(payload))


#: Masks whose fits an OlsModelNode keeps. Offspring selection revisits
#: a mask a median 74-87 evaluations after its previous visit in the
#: flagship search; the last 1 024 masks catch about 92 % of the repeats.
OLS_MEMO_SIZE = 1024


class OlsModelNode(Node):
    """Fits an ordinary least-squares model per problem.

    A problem of a new source (an orchestrator's whole problem) empties
    the memo and builds the Gram matrix of the source's train rows. Each
    search-time problem of that source is scored by OlsGram.solve, or by
    fit_ols where the solve refuses the mask. The fit draws no
    randomness, so the node keeps the fits of the last OLS_MEMO_SIZE
    masks and hands a repeated mask its earlier ModelWithQuality before
    any column is gathered. Any other problem, such as the final refit,
    is fitted with fit_ols from its own arrays and never memoized. fits
    counts the fits made and hits the fits reused.
    """

    input_ports = (Port("problem", "regression-problem"),)
    output_ports = (Port("model", "model-with-quality"),)

    def __init__(self, node_id: str):
        super().__init__(node_id)
        self.fits = 0
        self.hits = 0
        self._memo: OrderedDict[bytes, ModelWithQuality] = OrderedDict()
        self._memo_source: RegressionProblem | None = None
        self._gram: OlsGram | None = None

    def fit_problem(self, problem: RegressionProblem,
                    rng: np.random.Generator) -> ModelWithQuality:
        source, key = problem.source, None
        if source is not None:
            if source is not self._memo_source:
                self._gram = OlsGram(source.train_features,
                                     source.train_target)
                self._memo.clear()
                self._memo_source = source
            key = problem.mask.bits.tobytes()
            fitted = self._memo.get(key)
            if fitted is not None:
                self._memo.move_to_end(key)
                self.hits += 1
                return fitted
        fitted = self._fit(problem)
        self.fits += 1
        if key is not None:
            self._memo[key] = fitted
            if len(self._memo) > OLS_MEMO_SIZE:
                self._memo.popitem(last=False)
        return fitted

    def _fit(self, problem: RegressionProblem) -> ModelWithQuality:
        names = problem.feature_names
        model = None if problem.source is None else self._gram.solve(
            np.flatnonzero(problem.mask.bits), names)
        if model is None:
            model = fit_ols(problem.train_features, problem.train_target,
                            names)
        return quality(model, problem, "ols")

    def handle(self, port_name: str, payload, ctx) -> None:
        ctx.emit("model", self.fit_problem(payload, ctx.rng))


class ForestModelNode(Node):
    """Fits a random forest per problem; each fit draws a fresh seed
    from the node's stream so repeated fits are independent but the
    whole sequence is reproducible."""

    input_ports = (Port("problem", "regression-problem"),)
    output_ports = (Port("model", "model-with-quality"),)

    def __init__(self, node_id: str, config: ForestConfig | None = None):
        super().__init__(node_id)
        self.config = config or ForestConfig()
        self.config.validate()

    def fit_problem(self, problem: RegressionProblem,
                    rng: np.random.Generator) -> ModelWithQuality:
        fit_seed = int(rng.integers(np.iinfo(np.int64).max))
        if problem.train_features.shape[1] == 0:
            # degenerate empty mask: constant model, mirrors OLS behavior
            model = fit_ols(problem.train_features, problem.train_target, ())
        else:
            model = fit_random_forest(problem.train_features,
                                      problem.train_target, self.config,
                                      fit_seed, problem.feature_names)
        return quality(model, problem, "random-forest")

    def handle(self, port_name: str, payload, ctx) -> None:
        ctx.emit("model", self.fit_problem(payload, ctx.rng))


# ---------------------------------------------------------------------------
# Feature-selection network and its plain-loop twin

def _make_model_node(model) -> Node:
    if model == "ols" or model is None:
        return OlsModelNode("model")
    if isinstance(model, ForestConfig):
        return ForestModelNode("model", model)
    if isinstance(model, Node):
        if not callable(getattr(model, "fit_problem", None)):
            raise InvalidConfigError(
                f"model node {model.id!r} has no fit_problem(problem, rng)")
        return model
    raise InvalidConfigError(
        f"model must be 'ols', a ForestConfig, or a Node, got {model!r}")


def build_feature_selection_topology(
        partitioned: PartitionedDataset, params: OsgaParams,
        fitness: FitnessConfig | None = None, model="ols",
        init_one_probability: float = 0.1) -> Topology:
    """Wire selector, orchestrator, and model node into the search loop."""
    genome_spec = BinaryGenomeSpec(partitioned.base.n_features,
                                   init_one_probability)
    topo = Topology()
    topo.add(FeatureSelectionNode("selector", genome_spec, params))
    topo.add(RegressionOrchestratorNode("orchestrator", partitioned, fitness))
    topo.add(_make_model_node(model))
    topo.connect("selector", "mask", "orchestrator", "mask")
    topo.connect("orchestrator", "problem", "model", "problem")
    topo.connect("model", "model", "orchestrator", "model")
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
    """model's train and validation MAE on problem, as a search sees it;
    n_features is the number of columns model reads."""
    return ModelWithQuality(
        model,
        train_mae=mae(predict_any(model, problem.train_features),
                      problem.train_target),
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

    model is "ols" (or None), a ForestConfig, or a model Node whose
    fit_problem(problem, rng) returns what its handle emits: the refit
    of the winner and the plain-loop twin call fit_problem directly.

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
    return _final_result(ga_result, topo.node("orchestrator"),
                         topo.node("model"), run.rngs["model"], partitioned,
                         compute_test_mae, seed, started)


def feature_selection_direct(
        partitioned: PartitionedDataset, params: OsgaParams | None = None,
        fitness: FitnessConfig | None = None, model="ols", seed: int = 0,
        compute_test_mae: bool = True,
        init_one_probability: float = 0.1) -> NetworkResult:
    """Plain-loop twin of feature_selection_network.

    Uses the same node objects and the same stream derivations but no
    message engine, so its NetworkResult must be bit-identical to the
    network's for equal arguments.
    """
    started = time.perf_counter()
    params = params or OsgaParams()
    genome_spec = BinaryGenomeSpec(partitioned.base.n_features,
                                   init_one_probability)
    selector_rng = substream(seed, "node", "selector")
    model_rng = substream(seed, "node", "model")
    orchestrator = RegressionOrchestratorNode("orchestrator", partitioned,
                                              fitness)
    model_node = _make_model_node(model)

    def evaluate(genome) -> float:
        problem = orchestrator.make_problem(FeatureMask(genome))
        return orchestrator.score(model_node.fit_problem(problem, model_rng))

    ga_result: RunResult = drive(
        osga_stream(genome_spec, params, selector_rng), per_genome(evaluate))
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


class ForestParamSearchNode(Node):
    """Inner-network search node: proposes forest settings, receives the
    fitted candidates back, and finally emits the one with the lowest
    validation MAE, flagged "budget-exhausted" if the budget cut the
    search short. It reads nothing of a candidate's model.

    The settings come from search.stream(rng), an evaluation stream
    stepped one candidate at a time through osga.one_by_one: its batches
    hold (sample_ratio, feature_ratio, n_trees) value arrays, it takes
    each candidate's validation MAE back, and it finishes with whether
    its budget cut it short.
    """

    input_ports = (Port("candidate", "model-with-quality"),)
    output_ports = (Port("params", "parameter-vector"),
                    Port("result", "model-with-quality"))

    _NAMES = ("sample_ratio", "feature_ratio", "n_trees")

    def __init__(self, node_id: str, search):
        super().__init__(node_id)
        self.search = search
        self.best: ModelWithQuality | None = None
        self._stream = None

    def handle_entry(self, payload, ctx) -> None:
        self._stream = one_by_one(self.search.stream(ctx.rng))
        self._advance(ctx, None)

    def handle(self, port_name: str, payload, ctx) -> None:
        if self.best is None \
                or payload.validation_mae < self.best.validation_mae:
            self.best = payload
        self._advance(ctx, payload.validation_mae)

    def _advance(self, ctx, fitness: float | None) -> None:
        values, truncated = advance(self._stream, fitness)
        if values is None:
            flags = ("budget-exhausted",) if truncated else ()
            ctx.emit("result", replace(self.best,
                                       flags=self.best.flags + flags))
        else:
            ctx.emit("params", ParameterVector(values, self._NAMES))


class ForestBuilderNode(Node):
    """Inner-network worker: builds one forest per (sample_ratio,
    feature_ratio, n_trees) parameter vector, labelled with its settings;
    ForestConfig.validate refuses bad settings, and __init__ a problem
    with no column."""

    input_ports = (Port("params", "parameter-vector"),)
    output_ports = (Port("fitted", "model-with-quality"),)

    def __init__(self, node_id: str, problem: RegressionProblem):
        super().__init__(node_id)
        if problem.train_features.shape[1] == 0:
            raise InvalidConfigError("a forest needs at least one column")
        self.problem = problem

    def handle(self, port_name: str, payload, ctx) -> None:
        c = _forest_config(payload.values)
        fitted = ForestModelNode("fit", c).fit_problem(self.problem, ctx.rng)
        ctx.emit("fitted", replace(fitted, label=(
            f"tuned-forest(sample_ratio={c.sample_ratio:.2f},"
            f"feature_ratio={c.feature_ratio:.2f},n_trees={c.n_trees})")))


class InnerTuningModelNode(Node):
    """Model node whose fit runs an entire inner network per problem."""

    input_ports = (Port("problem", "regression-problem"),)
    output_ports = (Port("model", "model-with-quality"),)

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
        topo.add(ForestBuilderNode("builder", problem))
        topo.connect("search", "params", "builder", "params")
        topo.connect("builder", "fitted", "search", "candidate")
        run = run_network(topo, SinksEmitted((("search", "result"),)),
                          entry=("search", None), seed=inner_seed)
        return run.sink("search", "result")[0]

    def handle(self, port_name: str, payload, ctx) -> None:
        ctx.emit("model", self.fit_problem(payload, ctx.rng))


def nested_tuning_network(
        partitioned: PartitionedDataset, params: OsgaParams | None = None,
        fitness: FitnessConfig | None = None,
        inner: InnerGridSearch | InnerOsgaSearch | None = None, seed: int = 0,
        workers: int = 1, compute_test_mae: bool = True,
        init_one_probability: float = 0.1) -> NetworkResult:
    """Feature-selection network whose model node tunes forest settings
    through an inner network for every mask it receives."""
    return feature_selection_network(
        partitioned, params, fitness,
        model=InnerTuningModelNode("model", inner), seed=seed,
        workers=workers, compute_test_mae=compute_test_mae,
        init_one_probability=init_one_probability)
