"""Model pools, subset selection, and inverse input optimization."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from optnet.analysis import (
    AnalysisTask,
    ElasticNetRecipe,
    FeatureSelectionRecipe,
    ForestRecipe,
    OlsRecipe,
    PoolEntry,
    build_model_pool,
    optimization_analysis_network,
    optimize_inputs,
    select_model_subset,
)
from optnet.errors import (
    HandlerFailureError,
    InfeasibleBoundsError,
    InvalidConfigError,
    InvalidSubsetSizeError,
    ModelInputMismatchError,
)
from optnet import networks
from optnet.engine import Node, Port
from optnet._rng import substream
from optnet.forest import ForestConfig, fit_random_forest
from optnet.linear import LinearModel, fit_ols, mae
from optnet.osga import OsgaParams, RealGenomeSpec, osga_minimize
from optnet.payloads import ModelWithQuality

SMALL_SEARCH = OsgaParams(population_size=20, max_evaluations=2000,
                          crossover_kind="simulated-binary",
                          max_selection_pressure=30.0, target_fitness=1e-10)


def line_model():
    X = np.linspace(0.0, 5.0, 30).reshape(-1, 1)
    return fit_ols(X, 2.0 * X[:, 0] + 1.0, ("x",))


# ---------------------------------------------------------------------------
# Model pools

def test_pool_covers_all_recipe_families(small_partitioned):
    recipes = (
        OlsRecipe(),
        ElasticNetRecipe(penalties=(0.001, 0.01), l1_ratios=(0.5,)),
        ForestRecipe(ForestConfig(n_trees=3)),
        FeatureSelectionRecipe(
            params=OsgaParams(population_size=8, max_evaluations=80,
                              max_selection_pressure=15.0)),
    )
    pool = build_model_pool(small_partitioned, recipes, seed=0)
    assert [e.label for e in pool] == ["ols", "elastic-net", "random-forest",
                                      "feature-selection"]
    for entry in pool:
        assert entry.ok, entry.error
        assert entry.result.test_mae is not None
        assert np.isfinite(entry.result.validation_mae)


def test_pool_records_failures_and_continues(small_partitioned):
    recipes = (ElasticNetRecipe(penalties=(-1.0,)), OlsRecipe())
    pool = build_model_pool(small_partitioned, recipes, seed=0)
    assert not pool[0].ok
    assert "failed" in pool[0].error
    assert pool[1].ok


def test_recipe_fit_counts_evaluations_and_scores_like_the_network(
        small_partitioned):
    params = OsgaParams(population_size=8, max_evaluations=60)
    recipe = FeatureSelectionRecipe(params, init_one_probability=0.4,
                                    label="fs")
    fitted, evaluations = recipe.fit(small_partitioned, 3, workers=2)
    net = networks.feature_selection_network(small_partitioned, params,
                                             seed=3, init_one_probability=0.4)
    assert evaluations == net.evaluations
    assert fitted == replace(net.best_model, label="fs")
    assert OlsRecipe().fit(small_partitioned, 0)[1] == 1
    assert ForestRecipe(ForestConfig(n_trees=2)).fit(small_partitioned,
                                                     0)[1] == 1
    # the cell with a negative penalty fails; the other one counts
    enet = ElasticNetRecipe(penalties=(0.01, -1.0), l1_ratios=(0.5,))
    assert enet.fit(small_partitioned, 0)[1] == 1


class NamelessModelNode(Node):
    """A user model node whose models keep the default names x0, x1, ...
    of the columns they were fitted on, not the dataset's names."""

    input_ports = (Port("problem", "regression-problem"),)
    output_ports = (Port("model", "model-with-quality"),)

    def __init__(self, forest: bool):
        super().__init__("model")
        self.forest = forest

    def fit_problem(self, problem, rng):
        X, y = problem.train_features, problem.train_target
        if self.forest and X.shape[1]:
            model = fit_random_forest(X, y, ForestConfig(n_trees=3),
                                      int(rng.integers(2 ** 31)))
        else:
            model = fit_ols(X, y)
        val_x, val_y = problem.validation_features, problem.validation_target
        return ModelWithQuality(
            model, mae(networks.predict_any(model, X), y),
            mae(networks.predict_any(model, val_x), val_y),
            n_features=X.shape[1])

    def handle(self, port_name, payload, ctx):
        ctx.emit("model", self.fit_problem(payload, ctx.rng))


@pytest.mark.parametrize("forest", [False, True])
def test_recipe_scores_a_user_node_on_the_columns_its_search_selected(
        small_partitioned, forest):
    params = OsgaParams(population_size=8, max_evaluations=60)
    net = networks.feature_selection_network(
        small_partitioned, params, model=NamelessModelNode(forest), seed=0,
        init_one_probability=0.4)
    # the winner's default names spell other columns than it was fitted on
    names = net.best_model.model.feature_names
    assert names != tuple(small_partitioned.base.feature_names[i]
                          for i in net.best_mask.indices)
    recipe = FeatureSelectionRecipe(params, model=NamelessModelNode(forest),
                                    init_one_probability=0.4)
    fitted, _ = recipe.fit(small_partitioned, 0)
    assert fitted.test_mae == net.best_model.test_mae


def test_pool_requires_recipes(small_partitioned):
    with pytest.raises(InvalidConfigError):
        build_model_pool(small_partitioned, (), seed=0)


# ---------------------------------------------------------------------------
# Subset selection

def quality(validation_mae, n_features, train_mae=0.0):
    return ModelWithQuality(None, train_mae=train_mae,
                            validation_mae=validation_mae,
                            n_features=n_features)


def test_subset_selection_default_criterion_and_ties():
    pool = [
        PoolEntry("a", quality(0.5, 3)),
        PoolEntry("b", quality(0.2, 2)),
        PoolEntry("c", quality(0.2, 1)),
        PoolEntry("d", quality(0.9, 1)),
    ]
    picked = select_model_subset(pool, 2)
    assert [e.label for e in picked] == ["c", "b"]  # fewer features first


def test_subset_selection_tie_falls_back_to_order():
    pool = [PoolEntry("first", quality(0.3, 2)),
            PoolEntry("second", quality(0.3, 2))]
    assert [e.label for e in select_model_subset(pool, 2)] \
        == ["first", "second"]


def test_subset_selection_custom_criterion():
    pool = [PoolEntry("a", quality(0.1, 1, train_mae=0.9)),
            PoolEntry("b", quality(0.9, 1, train_mae=0.1))]
    picked = select_model_subset(pool, 1, criterion=lambda r: r.train_mae)
    assert picked[0].label == "b"


def test_subset_selection_skips_failures_and_checks_size():
    pool = [PoolEntry("broken", None, "it failed"),
            PoolEntry("ok", quality(0.4, 1))]
    assert [e.label for e in select_model_subset(pool, 1)] == ["ok"]
    with pytest.raises(InvalidSubsetSizeError):
        select_model_subset(pool, 2)  # only one usable entry
    with pytest.raises(InvalidSubsetSizeError):
        select_model_subset(pool, 0)


# ---------------------------------------------------------------------------
# Task validation

def test_analysis_task_validation():
    good = AnalysisTask(("x",), np.array([[0.0, 1.0]]), (1.0,))
    good.validate()
    with pytest.raises(InvalidConfigError, match="pair per input"):
        AnalysisTask(("x",), np.array([[0.0, 1.0], [0.0, 1.0]]),
                     (1.0,)).validate()
    with pytest.raises(InfeasibleBoundsError):
        AnalysisTask(("x",), np.array([[1.0, 0.0]]), (1.0,)).validate()
    with pytest.raises(InfeasibleBoundsError):
        AnalysisTask(("x",), np.array([[0.0, np.inf]]), (1.0,)).validate()
    with pytest.raises(InvalidConfigError, match="not task inputs"):
        AnalysisTask(("x",), np.array([[0.0, 1.0]]), (1.0,),
                     fixed_inputs={"z": 0.0}).validate()
    with pytest.raises(InvalidConfigError, match="target output"):
        AnalysisTask(("x",), np.array([[0.0, 1.0]]), ()).validate()
    two = np.array([[0.0, 1.0]] * 2)
    for target in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidConfigError,
                           match="target outputs must be finite"):
            AnalysisTask(("x", "y"), two, (1.0, target)).validate()
        with pytest.raises(InvalidConfigError,
                           match="fixed inputs must be finite"):
            AnalysisTask(("x", "y"), two, (1.0,),
                         fixed_inputs={"y": target}).validate()
    repeated = AnalysisTask(("x", "y", "x"), np.array([[0.0, 1.0]] * 3),
                            (1.0,))
    with pytest.raises(InvalidConfigError, match="must be unique"):
        repeated.validate()
    with pytest.raises(InvalidConfigError, match="must be unique"):
        optimize_inputs([line_model()], repeated, seed=0)


# ---------------------------------------------------------------------------
# Input optimization

def test_line_model_inverts_to_analytic_solution():
    task = AnalysisTask(("x",), np.array([[0.0, 5.0]]), (7.0,))
    result = optimize_inputs([line_model()], task, seed=0)
    assert result.inputs["x"] == pytest.approx(3.0, abs=1e-2)
    assert result.residual < 1e-6
    assert result.model_outputs[0] == pytest.approx(7.0, abs=1e-2)
    assert result.terminated_by in ("pressure", "budget", "target")


def test_unreachable_target_lands_on_boundary():
    task = AnalysisTask(("x",), np.array([[0.0, 5.0]]), (100.0,))
    result = optimize_inputs([line_model()], task, seed=0)
    assert result.inputs["x"] == pytest.approx(5.0, abs=1e-3)
    assert result.residual == pytest.approx((11.0 - 100.0) ** 2, rel=1e-3)


def test_fixed_inputs_stay_pinned():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 5, size=(60, 2))
    model = fit_ols(X, X[:, 0] + 10.0 * X[:, 1], ("x0", "x1"))
    task = AnalysisTask(("x0", "x1"),
                        np.array([[0.0, 5.0], [0.0, 5.0]]), (8.0,),
                        fixed_inputs={"x1": 0.5})
    result = optimize_inputs([model], task, seed=1)
    assert result.inputs["x1"] == 0.5
    assert result.inputs["x0"] == pytest.approx(3.0, abs=1e-2)
    assert result.residual < 1e-6


def test_two_by_two_linear_system():
    rng = np.random.default_rng(3)
    U = rng.uniform(-5, 5, size=(80, 2))
    m_sum = fit_ols(U, U[:, 0] + U[:, 1], ("u", "v"))
    m_diff = fit_ols(U, U[:, 0] - U[:, 1], ("u", "v"))
    task = AnalysisTask(("u", "v"),
                        np.array([[-5.0, 5.0], [-5.0, 5.0]]), (3.0, 1.0))
    result = optimize_inputs([m_sum, m_diff], task, seed=2)
    assert result.inputs["u"] == pytest.approx(2.0, abs=1e-3)
    assert result.inputs["v"] == pytest.approx(1.0, abs=1e-3)
    assert result.residual < 1e-8


def test_input_search_counts_residuals_that_overflow():
    """A residual past the float range scores as inf; the result counts
    every such evaluation, and none of them wins."""
    task = AnalysisTask(("x",), np.array([[-2.0, 2.0]]), (0.0,))
    search = OsgaParams(population_size=20, max_evaluations=400,
                        crossover_kind="simulated-binary",
                        max_selection_pressure=1000.0)
    # (1e154 x)^2 overflows for |x| above about 1.34, a third of the box
    some = LinearModel(np.array([1e154]), 0.0, ("x",))
    # outputs of 1e300 or more overflow when squared anywhere but x = 0
    every = LinearModel(np.array([1e300]), 1e300, ("x",))
    with np.errstate(over="ignore", invalid="ignore"):
        partly = optimize_inputs([some], task, search, seed=0)
        wholly = optimize_inputs([every], task, search, seed=0)
    assert 0 < partly.nonfinite_fitness < partly.evaluations
    assert math.isfinite(partly.residual)
    assert wholly.nonfinite_fitness == wholly.evaluations == 400
    assert wholly.residual == math.inf
    assert optimize_inputs([line_model()], task, search,
                           seed=0).nonfinite_fitness == 0


def test_optimize_inputs_accepts_quality_wrappers():
    wrapped = ModelWithQuality(line_model(), train_mae=0.0,
                               validation_mae=0.0, n_features=1)
    task = AnalysisTask(("x",), np.array([[0.0, 5.0]]), (7.0,))
    result = optimize_inputs([wrapped], task, seed=0)
    assert result.inputs["x"] == pytest.approx(3.0, abs=1e-2)


def test_optimize_inputs_error_cases():
    task = AnalysisTask(("x",), np.array([[0.0, 5.0]]), (7.0,))
    with pytest.raises(InvalidConfigError, match="models for"):
        optimize_inputs([line_model(), line_model()], task)
    with pytest.raises(ModelInputMismatchError, match="no feature names"):
        optimize_inputs([object()], task)
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, size=(20, 1))
    stranger = fit_ols(X, X[:, 0], ("z",))
    with pytest.raises(ModelInputMismatchError, match="needs inputs"):
        optimize_inputs([stranger], task)
    fully_fixed = AnalysisTask(("x",), np.array([[0.0, 5.0]]), (7.0,),
                               fixed_inputs={"x": 1.0})
    with pytest.raises(InvalidConfigError, match="nothing to search"):
        optimize_inputs([line_model()], fully_fixed)


def ols_and_forest(partitioned):
    """An OLS and a forest model on the same inputs, and a task that asks
    each for its training mean."""
    X, y = partitioned.train_xy()
    names = partitioned.base.feature_names
    models = [fit_ols(X, y, names),
              fit_random_forest(X, y, ForestConfig(n_trees=5, max_depth=4),
                                seed=0, feature_names=names)]
    bounds = np.column_stack([X.min(axis=0), X.max(axis=0)])
    task = AnalysisTask(names, bounds, (float(y.mean()), float(y.mean())))
    return models, task


def _one_row_residual(models, task):
    """The input search's fitness as it was scored before batching: one
    predict per model per candidate."""
    idx = [np.array([task.input_names.index(n) for n in m.feature_names])
           for m in models]

    def residual(x):
        row = x.reshape(1, -1)
        d = np.array([float(networks.predict_any(m, row[:, i])[0])
                      for m, i in zip(models, idx)]) \
            - np.asarray(task.target_outputs)
        return float(d @ d)
    return residual


@pytest.mark.parametrize("target", [None, 1e-10])
def test_input_search_scores_each_batch_with_one_forest_call(
        small_partitioned, monkeypatch, target):
    """Without a target the forest sees each batch of candidates in one
    call; with one, any candidate might end the search, so the batches
    are single candidates. Either way the search is the one that scores
    a candidate at a time."""
    models, task = ols_and_forest(small_partitioned)
    search = OsgaParams(population_size=20, max_evaluations=600,
                        crossover_kind="simulated-binary",
                        max_selection_pressure=30.0, target_fitness=target)
    calls = []
    predict_forest = networks.predict_forest

    def counting(model, features):
        calls.append(features.shape[0])
        return predict_forest(model, features)

    monkeypatch.setattr(networks, "predict_forest", counting)
    result = optimize_inputs(models, task, search, seed=4)
    assert calls[-1] == 1  # the winner, scored once more for the report
    searched = calls[:-1]
    assert sum(searched) == result.evaluations
    if target is None:
        assert searched[0] == search.population_size
        assert len(searched) <= result.evaluations / 4
    else:
        assert searched == [1] * result.evaluations

    monkeypatch.setattr(networks, "predict_forest", predict_forest)
    reference = osga_minimize(
        _one_row_residual(models, task),
        RealGenomeSpec(task.bounds, sigma_fraction=0.05), search,
        rng=substream(4, "input-search"))
    assert result.residual == reference.best.fitness
    assert list(result.inputs.values()) == reference.best.genome.tolist()
    assert result.evaluations == reference.evaluations
    assert result.terminated_by == reference.terminated_by


# ---------------------------------------------------------------------------
# Three-stage network

def analysis_setup(partitioned):
    dataset = partitioned.base
    bounds = np.column_stack([dataset.features.min(axis=0),
                              dataset.features.max(axis=0)])
    _, y_train = partitioned.train_xy()
    task = AnalysisTask(dataset.feature_names, bounds,
                       (float(np.mean(y_train)),))
    recipes = (OlsRecipe(), ElasticNetRecipe(penalties=(0.001, 0.01),
                                             l1_ratios=(0.5,)))
    return task, recipes


def test_analysis_network_report(small_partitioned):
    task, recipes = analysis_setup(small_partitioned)
    report = optimization_analysis_network(small_partitioned, recipes, 2,
                                           task, SMALL_SEARCH, seed=0)
    assert [[e.ok for e in pool] for pool in report.pools] == [[True, True]]
    assert len(report.ranked) == 2
    residuals = [r.residual for _, r in report.ranked]
    assert residuals == sorted(residuals)
    assert report.best_residual < 1e-6
    assert sorted(report.best_inputs) == [f"x{i}" for i in range(8)]
    doc = report.to_json_dict()
    assert doc["subset_size"] == 2
    assert len(doc["ranked"]) == 2
    assert doc["ranked"][0]["models"] in (["ols"], ["elastic-net"])
    json.loads(report.to_json())


def test_analysis_network_is_deterministic(small_partitioned):
    task, recipes = analysis_setup(small_partitioned)
    first = optimization_analysis_network(small_partitioned, recipes, 1,
                                          task, SMALL_SEARCH, seed=3)
    second = optimization_analysis_network(small_partitioned, recipes, 1,
                                           task, SMALL_SEARCH, seed=3)
    assert first.to_json() == second.to_json()


# SHA-256 of AnalysisReport.to_json() for the OLS + forest run below. The
# forest misses the target, so its input search scores evaluations
# through single-row forest predictions until the selection pressure
# stops it (1 375 of the 2 000); a change to their bits, to how the
# forest grows, to the search or to the report layout changes the
# digest.
_OLS_FOREST_REPORT = (
    "3e3a1bf1e3bd44ddf941598da3955bcebf54c83f2d2ac88ad724e893d99bdaf9")


def test_ols_forest_analysis_matches_golden_digest(small_partitioned):
    task, _ = analysis_setup(small_partitioned)
    recipes = (OlsRecipe(), ForestRecipe(ForestConfig(n_trees=5,
                                                      max_depth=4)))
    report = optimization_analysis_network(small_partitioned, recipes, 2,
                                           task, SMALL_SEARCH, seed=0)
    assert [[e.label for e in combo] for combo, _ in report.ranked] == [
        ["ols"], ["random-forest"]]
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == _OLS_FOREST_REPORT


def test_analysis_network_mismatched_datasets(small_partitioned):
    task, recipes = analysis_setup(small_partitioned)
    with pytest.raises(InvalidConfigError, match="datasets for"):
        optimization_analysis_network([small_partitioned, small_partitioned],
                                      recipes, 1, task, SMALL_SEARCH)


def test_analysis_network_oversized_subset(small_partitioned):
    task, recipes = analysis_setup(small_partitioned)
    with pytest.raises(HandlerFailureError) as info:
        optimization_analysis_network(small_partitioned, recipes, 5, task,
                                      SMALL_SEARCH, seed=0)
    assert isinstance(info.value.original, InvalidSubsetSizeError)


def test_failed_pool_entries_render_in_report(small_partitioned):
    bounds = np.column_stack([
        small_partitioned.base.features.min(axis=0),
        small_partitioned.base.features.max(axis=0)])
    _, y_train = small_partitioned.train_xy()
    task = AnalysisTask(small_partitioned.base.feature_names, bounds,
                       (float(np.mean(y_train)),))
    recipes = (OlsRecipe(), ElasticNetRecipe(penalties=(-1.0,)))
    report = optimization_analysis_network(small_partitioned, recipes, 1,
                                           task, SMALL_SEARCH, seed=0)
    doc = report.to_json_dict()
    assert doc["pools"][0][1].keys() == {"label", "error"}
    assert len(report.ranked) == 1
