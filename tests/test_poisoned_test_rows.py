"""No search reads the test rows: replacing them changes nothing but
test_mae.

Every entry point that searches or fits runs on a small partitioned
dataset and on its poisoned twin, whose test rows hold arbitrary finite
features and targets on the same partition indices (within 1e6, so that
scoring the winner on them stays inside the float range). The two
results must be the same bit for bit once their test_mae fields are set
aside. Writing a search that reads a test row, by any route, breaks
this.
"""

import copy
import dataclasses
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from optnet.analysis import (
    ElasticNetRecipe,
    FeatureSelectionRecipe,
    ForestRecipe,
    OlsRecipe,
)
from optnet.cli import METHODS
from optnet.data import (
    BenchmarkConfig,
    Dataset,
    PartitionedDataset,
    generate_benchmark,
    partition,
)
from optnet.forest import ForestConfig
from optnet.linear import grid_search_elastic_net
from optnet.netconfig import AnalysisSpec, ExperimentConfig
from optnet.networks import (
    InnerGridSearch,
    InnerTuningModelNode,
    OlsModelNode,
    feature_selection_direct,
    feature_selection_network,
)
from optnet.osga import OsgaParams

SEED = 3
BENCH = BenchmarkConfig(n_observations=40, n_features=5, n_relevant=2,
                        weight_low=1.0, weight_high=5.0,
                        noise_variance_fraction=0.2)
PARAMS = OsgaParams(population_size=6, max_evaluations=24,
                    max_selection_pressure=10.0)
FOREST = ForestConfig(n_trees=3, max_depth=3)
INNER = InnerGridSearch(sample_ratios=(0.8,), feature_ratios=(1.0,),
                        n_trees_options=(2, 3), budget=2)
# a target-set input search, so that the evaluation count, all that the
# benchmark method reports of it, depends on the bounds
ANALYSIS = AnalysisSpec(
    recipes=(OlsRecipe(), ForestRecipe(FOREST)),
    search=OsgaParams(population_size=6, max_evaluations=60,
                      max_selection_pressure=10.0,
                      crossover_kind="arithmetic", target_fitness=1e-2),
    free_inputs="all")
CONFIG = ExperimentConfig(
    fs_network=FeatureSelectionRecipe(params=PARAMS),
    elastic_net=ElasticNetRecipe((0.01, 0.3), (0.5, 1.0)),
    forest=FOREST, inner_search=INNER, analysis=ANALYSIS)


class DrawingOlsNode(OlsModelNode):
    """A user model node whose fit draws from its stream."""

    def fit_problem(self, problem, rng):
        fitted = super().fit_problem(problem, rng)
        return replace(fitted, validation_mae=fitted.validation_mae
                       + 1e-9 * rng.random())


def fs_network(model):
    """The mask search with a fresh copy of model on each call."""
    return lambda p, truth: feature_selection_network(
        p, PARAMS, model=copy.deepcopy(model), seed=SEED)


def recipe_fit(recipe):
    return lambda p, truth: recipe.fit(p, SEED)


def cli_method(name):
    return lambda p, truth: METHODS[name](p, truth, CONFIG, SEED)


ENTRY_POINTS = {
    "fs-network-ols": fs_network("ols"),
    "fs-network-forest": fs_network(FOREST),
    "fs-network-nested": fs_network(InnerTuningModelNode("model", INNER)),
    "fs-network-user-node": fs_network(DrawingOlsNode("model")),
    "fs-direct-user-node": lambda p, truth: feature_selection_direct(
        p, PARAMS, model=DrawingOlsNode("model"), seed=SEED),
    "grid-search-elastic-net": lambda p, truth: grid_search_elastic_net(
        p, (0.01, 0.3), (0.5, 1.0)),
    "recipe-ols": recipe_fit(OlsRecipe()),
    "recipe-elastic-net": recipe_fit(CONFIG.elastic_net),
    "recipe-forest": recipe_fit(ForestRecipe(FOREST)),
    "recipe-feature-selection": recipe_fit(CONFIG.fs_network),
    "analysis-task": lambda p, truth: ANALYSIS.task_for([p], truth),
    "analysis-network": lambda p, truth: ANALYSIS.run([p], truth, SEED),
    **{f"cli-{name}": cli_method(name) for name in METHODS},
}


def exact(obj):
    """obj as nested tuples of exact values, with every test_mae field
    and every field outside equality (a wall time) set aside."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(
            (f.name, exact(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)
            if f.compare and f.name != "test_mae")
    if isinstance(obj, np.ndarray):
        assert obj.dtype != object
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (list, tuple)):
        return tuple(exact(v) for v in obj)
    if isinstance(obj, dict):
        return tuple((k, exact(v)) for k, v in obj.items())
    assert isinstance(obj, (str, int, np.integer, np.bool_, type(None))), \
        type(obj)
    return obj


@lru_cache(maxsize=None)
def clean():
    dataset, truth = generate_benchmark(BENCH, seed=SEED)
    return partition(dataset, seed=SEED), truth


@lru_cache(maxsize=None)
def clean_result(entry: str):
    return exact(ENTRY_POINTS[entry](*clean()))


def poisoned(p: PartitionedDataset, features, target) -> PartitionedDataset:
    """p with its test rows' features and target replaced."""
    X, y = np.array(p.base.features), np.array(p.base.target)
    X[p.test_indices], y[p.test_indices] = features, target
    return PartitionedDataset(Dataset(X, y, p.base.feature_names),
                              p.train_indices, p.validation_indices,
                              p.test_indices)


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def poison(draw):
    n_test = clean()[0].sizes[2]
    return (draw(arrays(np.float64, (n_test, BENCH.n_features),
                        elements=finite)),
            draw(arrays(np.float64, n_test, elements=finite)))


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=poison())
def test_results_ignore_the_test_rows(entry, rows):
    p, truth = clean()
    twin = poisoned(p, *rows)
    assert exact(ENTRY_POINTS[entry](twin, truth)) == clean_result(entry)


def test_exact_tells_apart_what_equality_would_not():
    assert exact(0.0) != exact(-0.0)
    assert exact(np.zeros(2)) != exact(np.zeros(2, dtype=np.float32))
    assert exact(np.float64(0.5)) == exact(0.5)


def test_the_poisoned_twin_differs_on_the_test_rows_only():
    p, _ = clean()
    n_test = p.sizes[2]
    twin = poisoned(p, np.full((n_test, BENCH.n_features), 7.0),
                    np.full(n_test, -7.0))
    for part in ("train_xy", "validation_xy"):
        for a, b in zip(getattr(p, part)(), getattr(twin, part)()):
            assert np.array_equal(a, b)
    assert np.all(twin.test_xy()[0] == 7.0)
    assert np.all(twin.test_xy()[1] == -7.0)
    assert not np.array_equal(p.test_xy()[1], twin.test_xy()[1])
