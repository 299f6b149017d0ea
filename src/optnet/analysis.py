"""Input optimization against fitted models, as a three-stage network.

Given one dataset per target output, the first stage fits a pool of
candidate models per output from declared recipes, the second stage
picks the most promising subset (one model per output), and the third
stage searches for input values that push every selected model's
prediction to its target. Suitability of a subset is measured by the
inverse-problem residual: the sum of squared deviations between model
outputs and targets at the best found inputs.

A recipe (OLS, elastic-net grid, random forest, or a mask search with
any model node) builds one model through Recipe.fit, scored as a model
node scores it and then once on the test rows, on the columns its
search selected. The pool fits every recipe this way, and so do the
`optnet benchmark` methods built on recipes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from ._rng import stream_seed, substream
from .data import PartitionedDataset
from .engine import Node, Port, SinksEmitted, Topology, run_network
from .errors import (
    InfeasibleBoundsError,
    InvalidConfigError,
    InvalidSubsetSizeError,
    ModelInputMismatchError,
    OptnetError,
)
from .forest import ForestConfig
from .linear import grid_search_elastic_net
from .networks import (
    FitnessConfig,
    ForestModelNode,
    OlsModelNode,
    feature_selection_network,
    predict_any,
    quality,
    with_test_mae,
)
from .osga import OsgaParams, RealGenomeSpec, drive, osga_stream
# bound here for code that wraps them in analysis by name
# (perfbench/tracing.py does); this module calls none of them
from .linear import fit_ols, predict  # noqa: F401
from .osga import osga_minimize  # noqa: F401
from .payloads import ModelWithQuality, RegressionProblem


# ---------------------------------------------------------------------------
# Recipes and the model pool

class Recipe:
    """How to build one model from a partitioned dataset: a subclass's
    _search fits it from the train and validation rows, and returns it
    with the evaluations it spent and the dataset columns it reads."""

    def fit(self, partitioned: PartitionedDataset, seed: int,
            workers: int = 1) -> tuple[ModelWithQuality, int]:
        """The recipe's model, labelled and scored once on the test rows
        (on the columns its search selected), and the evaluations it
        spent; workers is the engine worker count of a network search."""
        result, evaluations, columns = self._search(partitioned, seed, workers)
        return replace(with_test_mae(result, partitioned, columns),
                       label=self.label), evaluations

    def _search(self, partitioned: PartitionedDataset, seed: int,
                workers: int) -> tuple[ModelWithQuality, int, np.ndarray]:
        raise NotImplementedError


@dataclass
class OlsRecipe(Recipe):
    label: str = "ols"

    def _search(self, partitioned, seed, workers):
        fitted = OlsModelNode("pool").fit_problem(  # draws nothing
            RegressionProblem.whole(partitioned), None)
        return replace(fitted, n_features=fitted.model.n_selected), 1, \
            np.arange(partitioned.base.n_features)


@dataclass
class ElasticNetRecipe(Recipe):
    """The grid search's best cell; every cell that fits is one
    evaluation."""

    penalties: tuple[float, ...] | None = None
    l1_ratios: tuple[float, ...] | None = None
    label: str = "elastic-net"

    def _search(self, partitioned, seed, workers):
        grid = grid_search_elastic_net(partitioned, self.penalties,
                                       self.l1_ratios, compute_test_mae=False)
        fitted = quality(grid.best_model, RegressionProblem.whole(partitioned),
                         self.label)
        return replace(fitted, n_features=fitted.model.n_selected), \
            sum(c.ok for c in grid.cells), \
            np.arange(partitioned.base.n_features)


@dataclass
class ForestRecipe(Recipe):
    config: ForestConfig = field(default_factory=ForestConfig)
    label: str = "random-forest"

    def _search(self, partitioned, seed, workers):
        node = ForestModelNode("pool", self.config)
        return node.fit_problem(RegressionProblem.whole(partitioned),
                                substream(seed, "pool-forest")), \
            1, np.arange(partitioned.base.n_features)


@dataclass
class FeatureSelectionRecipe(Recipe):
    """A mask search; model is what feature_selection_network takes: "ols",
    a ForestConfig or a ModelNode."""

    params: OsgaParams = field(default_factory=OsgaParams)
    fitness: FitnessConfig = field(default_factory=FitnessConfig)
    model: object = "ols"
    init_one_probability: float = 0.1
    label: str = "feature-selection"

    def _search(self, partitioned, seed, workers):
        net = feature_selection_network(
            partitioned, self.params, self.fitness, self.model, seed=seed,
            workers=workers, compute_test_mae=False,
            init_one_probability=self.init_one_probability)
        return net.best_model, net.evaluations, \
            np.flatnonzero(net.best_mask.bits)


@dataclass
class PoolEntry:
    """One recipe outcome: a quality-annotated model or a recorded error."""

    label: str
    result: ModelWithQuality | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.result is not None


def build_model_pool(partitioned: PartitionedDataset, recipes,
                     seed: int = 0) -> list[PoolEntry]:
    """Fit every recipe on the dataset; failures become flagged entries
    instead of aborting the pool."""
    if not recipes:
        raise InvalidConfigError("at least one recipe is required")
    entries: list[PoolEntry] = []
    for i, recipe in enumerate(recipes):
        recipe_seed = stream_seed(seed, "pool", i)
        try:
            entries.append(PoolEntry(recipe.label,
                                     recipe.fit(partitioned, recipe_seed)[0]))
        except OptnetError as exc:
            entries.append(PoolEntry(recipe.label, None, str(exc)))
    return entries


def select_model_subset(pool: list[PoolEntry], k: int) -> list[PoolEntry]:
    """Pick the k pool entries of lowest validation MAE.

    Ties fall back to fewer features, then to recipe order. Failed
    entries never qualify.
    """
    usable = [e for e in pool if e.ok]
    if not 1 <= k <= len(usable):
        raise InvalidSubsetSizeError(
            f"k={k} not satisfiable from {len(usable)} usable pool entries")
    order = sorted(range(len(usable)),
                   key=lambda i: (usable[i].result.validation_mae,
                                  usable[i].result.n_features, i))
    return [usable[i] for i in order[:k]]


# ---------------------------------------------------------------------------
# Input optimization

@dataclass
class AnalysisTask:
    """The inverse problem: reach target outputs within input bounds.

    input_names orders the full input vector; bounds is one (lo, hi)
    row per input; fixed_inputs pins chosen inputs to constants,
    excluding them from the search.
    """

    input_names: tuple[str, ...]
    bounds: np.ndarray
    target_outputs: tuple[float, ...]
    fixed_inputs: dict[str, float] = field(default_factory=dict)

    def validate(self) -> None:
        if len(set(self.input_names)) != len(self.input_names):
            raise InvalidConfigError("input names must be unique")
        b = np.asarray(self.bounds, dtype=np.float64)
        if b.ndim != 2 or b.shape[1] != 2 \
                or b.shape[0] != len(self.input_names):
            raise InvalidConfigError(
                "bounds must be one (lo, hi) pair per input name")
        if not np.all(np.isfinite(b)) or np.any(b[:, 0] >= b[:, 1]):
            raise InfeasibleBoundsError(
                "bounds must be finite with lo < hi")
        unknown = set(self.fixed_inputs) - set(self.input_names)
        if unknown:
            raise InvalidConfigError(
                f"fixed inputs {sorted(unknown)} are not task inputs")
        if not self.target_outputs:
            raise InvalidConfigError("at least one target output required")
        for what, values in (("target outputs", self.target_outputs),
                             ("fixed inputs", self.fixed_inputs.values())):
            if not np.all(np.isfinite(list(values))):
                raise InvalidConfigError(f"{what} must be finite")


@dataclass
class InputOptimizationResult:
    """The best inputs found and how the search ended; nonfinite_fitness
    counts the evaluations whose residual came back NaN or infinite."""

    inputs: dict[str, float]
    residual: float
    model_outputs: tuple[float, ...]
    evaluations: int
    terminated_by: str
    nonfinite_fitness: int = 0


def _model_column_picker(model, input_names: tuple[str, ...]):
    names = getattr(model, "feature_names", None)
    if names is None:
        raise ModelInputMismatchError(
            f"model {type(model).__name__} exposes no feature names")
    missing = [n for n in names if n not in input_names]
    if missing:
        raise ModelInputMismatchError(
            f"model needs inputs {missing} absent from the task")
    idx = np.array([input_names.index(n) for n in names], dtype=np.intp)
    return idx


def optimize_inputs(models, task: AnalysisTask,
                    search: OsgaParams | None = None,
                    seed: int = 0) -> InputOptimizationResult:
    """Search input space so each model's output approaches its target.

    models is one fitted model per target output (bare models or
    ModelWithQuality wrappers). Minimizes the summed squared deviation
    over the free inputs; fixed inputs stay pinned. Lower residual is
    better; zero means every target is met exactly.
    """
    task.validate()
    models = [m.model if isinstance(m, ModelWithQuality) else m
              for m in models]
    if len(models) != len(task.target_outputs):
        raise InvalidConfigError(
            f"{len(models)} models for {len(task.target_outputs)} targets")
    pickers = [_model_column_picker(m, task.input_names) for m in models]
    targets = np.asarray(task.target_outputs, dtype=np.float64)
    bounds = np.asarray(task.bounds, dtype=np.float64)

    full = np.zeros(len(task.input_names))
    free = []
    for i, name in enumerate(task.input_names):
        if name in task.fixed_inputs:
            full[i] = float(task.fixed_inputs[name])
        else:
            free.append(i)
    if not free:
        raise InvalidConfigError("every input is fixed; nothing to search")
    free = np.array(free, dtype=np.intp)

    def outputs_at(rows_free: np.ndarray) -> np.ndarray:
        """Every model's output (columns) at every row of free inputs,
        with the bits of scoring each row on its own."""
        X = full[None, :].repeat(len(rows_free), axis=0)
        X[:, free] = rows_free
        outs = np.empty((len(rows_free), len(models)))
        for j, (m, idx) in enumerate(zip(models, pickers)):
            outs[:, j] = predict_any(m, X[:, idx], each_row=True)
        return outs

    def residuals(batch) -> list[float]:
        with np.errstate(over="ignore"):  # past the float range: +inf
            d = outputs_at(np.array(batch)) - targets
            return (d[:, None, :] @ d[:, :, None])[:, 0, 0].tolist()

    search = search or OsgaParams(
        population_size=50, max_evaluations=20000,
        crossover_kind="simulated-binary", max_selection_pressure=50.0,
        target_fitness=1e-12)
    spec = RealGenomeSpec(bounds[free], sigma_fraction=0.05)
    run = drive(osga_stream(spec, search, substream(seed, "input-search")),
                residuals)
    best_free = run.best.genome
    outs = outputs_at(best_free[None, :])[0]
    inputs = {}
    for i, name in enumerate(task.input_names):
        if name in task.fixed_inputs:
            inputs[name] = float(task.fixed_inputs[name])
    for pos, i in enumerate(free):
        inputs[task.input_names[i]] = float(best_free[pos])
    return InputOptimizationResult(inputs, run.best.fitness,
                                   tuple(float(o) for o in outs),
                                   run.evaluations, run.terminated_by,
                                   run.nonfinite_fitness)


# ---------------------------------------------------------------------------
# The three-stage network

class ModelPoolNode(Node):
    """Stage one: builds one recipe pool per target output.

    The same pools go out twice: downstream to selection and to the
    record port, normally left unconnected so the run collects them.
    """

    output_ports = (Port("pools", "run-result"),
                    Port("record", "run-result"))

    def __init__(self, node_id: str, datasets, recipes, seed: int):
        super().__init__(node_id)
        self.datasets = datasets
        self.recipes = recipes
        self.seed = seed

    def handle_entry(self, payload, ctx) -> None:
        pools = [build_model_pool(ds, self.recipes,
                                  stream_seed(self.seed, "output", i))
                 for i, ds in enumerate(self.datasets)]
        ctx.emit("pools", pools)
        ctx.emit("record", pools)


class SubsetSelectionNode(Node):
    """Stage two: one model per output, best validation error first."""

    input_ports = (Port("pools", "run-result"),)
    output_ports = (Port("subsets", "run-result"),)

    def __init__(self, node_id: str, k: int):
        super().__init__(node_id)
        self.k = k

    def handle(self, port_name: str, payload, ctx) -> None:
        subsets = [select_model_subset(pool, self.k) for pool in payload]
        ctx.emit("subsets", subsets)


class InputSearchNode(Node):
    """Stage three: ranks candidate model combinations by inverse-problem
    residual and reports the winner."""

    input_ports = (Port("subsets", "run-result"),)
    output_ports = (Port("report", "run-result"),)

    def __init__(self, node_id: str, task: AnalysisTask,
                 search: OsgaParams | None, seed: int):
        super().__init__(node_id)
        self.task = task
        self.search = search
        self.seed = seed

    def handle(self, port_name: str, payload, ctx) -> None:
        subsets: list[list[PoolEntry]] = payload
        n_outputs = len(subsets)
        if n_outputs != len(self.task.target_outputs):
            raise InvalidConfigError(
                f"{n_outputs} datasets for "
                f"{len(self.task.target_outputs)} target outputs")
        width = min(len(s) for s in subsets)
        ranked = []
        for rank_i in range(width):
            combo = [subsets[j][rank_i] for j in range(n_outputs)]
            result = optimize_inputs([e.result for e in combo], self.task,
                                     self.search,
                                     stream_seed(self.seed, "combo", rank_i))
            ranked.append((combo, result))
        ranked.sort(key=lambda cr: cr[1].residual)
        ctx.emit("report", ranked)


def strict_json_doc(doc):
    """doc through a JSON round trip, each non-finite float read as None,
    so that it dumps as strict JSON."""
    return json.loads(json.dumps(doc), parse_constant=lambda name: None)


@dataclass
class AnalysisReport:
    """Full record of a three-stage run, ready for JSON."""

    pools: list[list[PoolEntry]]
    ranked: list[tuple[list[PoolEntry], InputOptimizationResult]]
    task: AnalysisTask
    seed: int
    subset_size: int

    @property
    def best_inputs(self) -> dict[str, float]:
        return self.ranked[0][1].inputs

    @property
    def best_residual(self) -> float:
        return self.ranked[0][1].residual

    def to_json_dict(self) -> dict:
        def entry_doc(e: PoolEntry) -> dict:
            if not e.ok:
                return {"label": e.label, "error": e.error}
            return {
                "label": e.label,
                "train_mae": e.result.train_mae,
                "validation_mae": e.result.validation_mae,
                "test_mae": e.result.test_mae,
                "n_features": e.result.n_features,
                "flags": list(e.result.flags),
            }

        return {
            "task": {
                "input_names": list(self.task.input_names),
                "bounds": np.asarray(self.task.bounds).tolist(),
                "target_outputs": list(self.task.target_outputs),
                "fixed_inputs": dict(self.task.fixed_inputs),
            },
            "seed": self.seed,
            "subset_size": self.subset_size,
            "pools": [[entry_doc(e) for e in pool] for pool in self.pools],
            "ranked": [
                {
                    "models": [e.label for e in combo],
                    "inputs": result.inputs,
                    "residual": result.residual,
                    "model_outputs": list(result.model_outputs),
                    "evaluations": result.evaluations,
                    "terminated_by": result.terminated_by,
                }
                for combo, result in self.ranked
            ],
        }

    def to_json(self) -> str:
        """Strict JSON: a non-finite float, such as a residual past the
        float range, is written as null."""
        return json.dumps(strict_json_doc(self.to_json_dict()), indent=2,
                          sort_keys=True)


def optimization_analysis_network(datasets, recipes, k: int,
                                  task: AnalysisTask,
                                  search: OsgaParams | None = None,
                                  seed: int = 0,
                                  workers: int = 1) -> AnalysisReport:
    """Run pool construction, subset selection, and input search as a
    three-node pipeline.

    datasets is one PartitionedDataset per target output. The report
    ranks the tried model combinations by residual, best first.
    """
    datasets = list(datasets)
    if len(datasets) != len(task.target_outputs):
        raise InvalidConfigError(
            f"{len(datasets)} datasets for {len(task.target_outputs)} "
            f"target outputs")
    task.validate()
    topo = Topology()
    topo.add(ModelPoolNode("pools", datasets, recipes, seed))
    topo.add(SubsetSelectionNode("selection", k))
    topo.add(InputSearchNode("optimizer", task, search, seed))
    topo.connect("pools", "pools", "selection", "pools")
    topo.connect("selection", "subsets", "optimizer", "subsets")
    run = run_network(topo,
                      SinksEmitted((("optimizer", "report"),
                                    ("pools", "record"))),
                      entry=("pools", None), seed=seed, workers=workers)
    ranked = run.sink("optimizer", "report")[0]
    pools = run.sink("pools", "record")[0]
    return AnalysisReport(pools, ranked, task, seed, k)
