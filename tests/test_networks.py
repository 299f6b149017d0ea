"""Feature-selection network, its plain-loop twin, and nested tuning."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optnet import networks
from optnet.data import (
    BenchmarkConfig,
    Dataset,
    FeatureMask,
    generate_benchmark,
    partition,
)
from optnet.engine import Node, NodeContext
from optnet.errors import InvalidConfigError, ShapeMismatchError
from optnet.forest import ForestConfig, ForestModel
from optnet.linear import LinearModel, fit_ols, mae, predict
from optnet.networks import (
    FitnessConfig,
    ForestBuilderNode,
    ForestModelNode,
    InnerGridSearch,
    InnerOsgaSearch,
    InnerTuningModelNode,
    NetworkResult,
    OlsModelNode,
    RegressionOrchestratorNode,
    _make_model_node,
    feature_selection_direct,
    feature_selection_network,
    nested_tuning_network,
)
from optnet.osga import OsgaParams
from optnet.payloads import ModelWithQuality, ParameterVector
from optnet.payloads import RegressionProblem
from optnet._rng import substream
from test_linear import GRAM_TOLERANCE

SMALL_PARAMS = OsgaParams(population_size=12, max_evaluations=240,
                          max_selection_pressure=30.0)
TINY_PARAMS = OsgaParams(population_size=8, max_evaluations=120,
                         max_selection_pressure=20.0)


# ---------------------------------------------------------------------------
# Fitness configuration

def test_fitness_config_validation():
    FitnessConfig(0.0).validate()
    with pytest.raises(InvalidConfigError):
        FitnessConfig(-0.1).validate()
    with pytest.raises(InvalidConfigError):
        FitnessConfig(float("nan")).validate()


def test_fitness_default_resolves_to_scale_free_penalty(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    _, train_y = small_partitioned.train_xy()
    _, val_y = small_partitioned.validation_xy()
    base = np.mean(np.abs(val_y - np.mean(train_y)))
    expected = 0.01 * base / small_partitioned.base.n_features
    assert orchestrator.penalty_per_feature == pytest.approx(expected)


def test_fitness_explicit_penalty_and_score(small_partitioned):
    orchestrator = RegressionOrchestratorNode(
        "o", small_partitioned, FitnessConfig(penalty_per_feature=0.5))
    assert orchestrator.penalty_per_feature == 0.5
    quality = ModelWithQuality(None, train_mae=0.0, validation_mae=1.0,
                               n_features=3)
    assert orchestrator.score(quality) == pytest.approx(2.5)


def test_orchestrator_projects_problems(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    mask = FeatureMask.from_indices((1, 4), 8)
    problem = orchestrator.make_problem(mask)
    train_x, train_y = small_partitioned.train_xy()
    assert np.array_equal(problem.train_features, train_x[:, [1, 4]])
    assert np.array_equal(problem.train_target, train_y)
    assert problem.feature_names == ("x1", "x4")
    assert problem.mask == mask
    val_x, _ = small_partitioned.validation_xy()
    assert np.array_equal(problem.validation_features, val_x[:, [1, 4]])
    with pytest.raises(ShapeMismatchError):
        orchestrator.make_problem(FeatureMask.from_indices((1,), 7))


def test_replaced_problem_is_fitted_from_its_own_arrays(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    projected = orchestrator.make_problem(FeatureMask.from_indices((1, 4), 8))
    doubled = replace(projected, train_features=2 * projected.train_features)
    assert doubled.source is None and projected.source is not None
    fitted = OlsModelNode("model").fit_problem(doubled, None)
    assert fitted.model == fit_ols(doubled.train_features,
                                   projected.train_target, ("x1", "x4"))


# ---------------------------------------------------------------------------
# Model-node factory

def test_make_model_node_variants():
    assert isinstance(_make_model_node("ols"), OlsModelNode)
    assert isinstance(_make_model_node(None), OlsModelNode)
    config = ForestConfig(n_trees=3)
    forest_node = _make_model_node(config)
    assert isinstance(forest_node, ForestModelNode)
    assert forest_node.config is config
    custom = OlsModelNode("model")
    assert _make_model_node(custom) is custom
    with pytest.raises(InvalidConfigError):
        _make_model_node(42)


class HandleOnlyNode(Node):
    """A model node with a handler but no fit_problem for the refit."""

    input_ports = OlsModelNode.input_ports
    output_ports = OlsModelNode.output_ports

    def handle(self, port_name, payload, ctx):
        raise AssertionError("the search must not start")


@pytest.mark.parametrize("run", [feature_selection_network,
                                 feature_selection_direct])
def test_model_node_without_fit_problem_is_refused_before_the_search(
        small_partitioned, run):
    with pytest.raises(InvalidConfigError, match="fit_problem"):
        run(small_partitioned, TINY_PARAMS, model=HandleOnlyNode("model"))


# ---------------------------------------------------------------------------
# End-to-end search behavior

def test_search_finds_single_true_feature(toy_dataset):
    partitioned = partition(toy_dataset, seed=0)
    result = feature_selection_network(
        partitioned,
        OsgaParams(population_size=8, max_evaluations=160,
                   max_selection_pressure=20.0),
        FitnessConfig(penalty_per_feature=0.05),
        seed=0, init_one_probability=0.4)
    assert result.best_mask.to_string() == "100"
    assert result.best_model.label == "ols"
    assert result.best_model.n_features == 1
    assert result.best_fitness == pytest.approx(0.05, abs=1e-6)
    assert result.penalty_per_feature == 0.05
    assert result.evaluations <= 160
    assert result.terminated_by in ("pressure", "budget", "target")


def test_huge_penalty_drives_mask_empty(small_partitioned):
    result = feature_selection_network(
        small_partitioned, TINY_PARAMS, FitnessConfig(penalty_per_feature=1e9),
        seed=0)
    assert result.best_mask.n_selected == 0
    assert result.best_model.n_features == 0
    assert isinstance(result.best_model.model, LinearModel)
    assert result.best_model.model.weights.shape == (0,)


def test_zero_penalty_recorded(small_partitioned):
    result = feature_selection_network(
        small_partitioned, TINY_PARAMS, FitnessConfig(penalty_per_feature=0.0),
        seed=1)
    assert result.penalty_per_feature == 0.0
    assert result.best_fitness == pytest.approx(
        result.best_model.validation_mae)


def test_fitness_decomposition_for_ols(small_partitioned):
    """The final refit repeats a deterministic fit, so the stored best
    fitness must equal the refit model's validation error plus the
    feature penalty."""
    result = feature_selection_network(small_partitioned, SMALL_PARAMS, seed=2)
    recomposed = (result.best_model.validation_mae
                  + result.penalty_per_feature * result.best_model.n_features)
    assert result.best_fitness == pytest.approx(recomposed, abs=1e-12)


# ---------------------------------------------------------------------------
# Twin equivalence and scheduling invariance

def test_network_matches_direct_loop_ols(small_partitioned):
    net = feature_selection_network(small_partitioned, SMALL_PARAMS, seed=5)
    direct = feature_selection_direct(small_partitioned, SMALL_PARAMS, seed=5)
    assert net == direct
    assert net.best_history == direct.best_history
    assert net.best_model.test_mae == direct.best_model.test_mae


def test_network_matches_direct_loop_forest(small_partitioned):
    config = ForestConfig(n_trees=5, sample_ratio=0.8, feature_ratio=0.7)
    net = feature_selection_network(small_partitioned, TINY_PARAMS,
                                    model=config, seed=3)
    direct = feature_selection_direct(small_partitioned, TINY_PARAMS,
                                      model=config, seed=3)
    assert net == direct
    assert net.best_model.label == "random-forest"


class JitteredOlsNode(OlsModelNode):
    """A user model node whose fit draws from its stream: it breaks
    validation ties with a tiny random jitter."""

    def fit_problem(self, problem, rng):
        fitted = super().fit_problem(problem, rng)
        return replace(fitted, validation_mae=fitted.validation_mae
                       + 1e-9 * rng.random())


class ExtraDrawForestNode(ForestModelNode):
    """A user forest node that makes one more draw per fit than the
    built-in one."""

    def fit_problem(self, problem, rng):
        rng.random()
        return super().fit_problem(problem, rng)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("make_node", [
    lambda: JitteredOlsNode("model"),
    lambda: ExtraDrawForestNode("model", ForestConfig(n_trees=3)),
], ids=["ols-subclass", "forest-subclass"])
def test_user_model_node_drawing_randomness_matches_twin(
        small_partitioned, make_node, workers):
    """The refit continues the model node's live stream, so the twin
    property holds for nodes the network knows nothing about."""
    net = feature_selection_network(small_partitioned, TINY_PARAMS,
                                    model=make_node(), seed=3,
                                    workers=workers)
    direct = feature_selection_direct(small_partitioned, TINY_PARAMS,
                                      model=make_node(), seed=3)
    assert net == direct


# ---------------------------------------------------------------------------
# OLS fit memo

def _fresh_fit(problem):
    return OlsModelNode("fresh").fit_problem(problem, substream(0, "x"))


@settings(max_examples=100, deadline=None, database=None)
@given(bound=st.integers(1, 6),
       pool=st.lists(st.integers(0, 255), min_size=2, max_size=12,
                     unique=True),
       picks=st.lists(st.integers(0, 11), min_size=1, max_size=60))
def test_memo_returns_what_a_fresh_fit_returns(small_partitioned, bound,
                                               pool, picks):
    """Any mask sequence, with repeats and evictions, gets the fits a
    fresh node would make, and hits follow a least-recently-used memo."""
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    node = OlsModelNode("model")
    recent: list[bytes] = []  # oracle: most recently used last
    with mock.patch.object(networks, "OLS_MEMO_SIZE", bound):
        for pick in picks:
            code = pool[pick % len(pool)]
            mask = FeatureMask(np.array([(code >> b) & 1 for b in range(8)]))
            problem = orchestrator.make_problem(mask)
            key = mask.bits.tobytes()
            hits = node.hits
            assert node.fit_problem(problem, None) == _fresh_fit(problem)
            assert node.hits - hits == (key in recent)
            if key in recent:
                recent.remove(key)
            recent = (recent + [key])[-bound:]
    assert node.hits + node.fits == len(picks)


def test_memo_evicts_past_its_bound():
    dataset, _ = generate_benchmark(
        BenchmarkConfig(n_observations=40, n_features=11, n_relevant=2),
        seed=2)
    orchestrator = RegressionOrchestratorNode("o", partition(dataset, seed=2))
    node = OlsModelNode("model")
    masks = [FeatureMask(np.array([(i >> b) & 1 for b in range(11)]))
             for i in range(networks.OLS_MEMO_SIZE + 1)]
    for mask in masks:
        node.fit_problem(orchestrator.make_problem(mask), None)
    assert (node.fits, node.hits) == (len(masks), 0)
    node.fit_problem(orchestrator.make_problem(masks[-1]), None)
    assert (node.fits, node.hits) == (len(masks), 1)
    oldest = orchestrator.make_problem(masks[0])
    assert node.fit_problem(oldest, None) == _fresh_fit(oldest)
    assert (node.fits, node.hits) == (len(masks) + 1, 1)


def test_memo_keeps_datasets_apart(small_benchmark):
    """Two orchestrators on different partitions project equal masks onto
    different target arrays; one node must not mix their fits."""
    dataset, _ = small_benchmark
    first = RegressionOrchestratorNode("a", partition(dataset, seed=0))
    second = RegressionOrchestratorNode("b", partition(dataset, seed=1))
    node = OlsModelNode("model")
    masks = (FeatureMask.from_indices((0, 3), 8),
             FeatureMask.from_indices((1,), 8))
    for orchestrator in (first, second, first, first):
        for mask in masks:
            problem = orchestrator.make_problem(mask)
            assert node.fit_problem(problem, None) == _fresh_fit(problem)
    assert (node.fits, node.hits) == (6, 2)
    assert node.fit_problem(first.make_problem(masks[0]), None) \
        != node.fit_problem(second.make_problem(masks[0]), None)


def test_memo_fits_problems_without_a_mask(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    node = OlsModelNode("model")
    masked = orchestrator.make_problem(FeatureMask.from_indices((1, 2), 8))
    bare = replace(masked, mask=None)
    for problem in (masked, bare, bare, masked):
        assert node.fit_problem(problem, None) == _fresh_fit(problem)
    # the unmasked fits neither hit nor empty the memo
    assert (node.fits, node.hits) == (3, 1)


def test_memo_stores_nothing_for_a_fit_that_raises(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    node = OlsModelNode("model")
    good = orchestrator.make_problem(FeatureMask.from_indices((1, 2), 8))
    features = good.train_features.copy()
    features[0, 0] = np.nan
    bad = replace(good, train_features=features)
    for _ in range(2):
        with pytest.raises(InvalidConfigError, match="finite"):
            node.fit_problem(bad, None)
    assert (node.fits, node.hits) == (0, 0)
    assert node.fit_problem(good, None) == _fresh_fit(good)
    assert (node.fits, node.hits) == (1, 0)


class MaskRecordingOlsNode(OlsModelNode):
    def __init__(self, node_id):
        super().__init__(node_id)
        self.seen: list[bytes] = []
        self.hit_flags: list[bool] = []

    def fit_problem(self, problem, rng):
        hits = self.hits
        fitted = super().fit_problem(problem, rng)
        self.seen.append(problem.mask.bits.tobytes())
        self.hit_flags.append(self.hits > hits)
        return fitted


def test_memo_counters_on_a_network_run(small_partitioned):
    node = MaskRecordingOlsNode("model")
    result = feature_selection_network(small_partitioned, TINY_PARAMS,
                                       model=node, seed=3)
    assert len(set(node.seen)) < networks.OLS_MEMO_SIZE
    # every evaluation plus the final refit
    assert node.hits + node.fits == result.evaluations + 1 == len(node.seen)
    # one fit per distinct search mask, and the winner's refit is fitted
    # afresh with fit_ols rather than answered from the memo
    assert node.fits == len(set(node.seen)) + 1
    assert node.hits > 0
    assert not node.hit_flags[-1]
    assert result == feature_selection_direct(small_partitioned, TINY_PARAMS,
                                              seed=3)


@pytest.fixture(scope="module")
def collinear_partitioned():
    """The flagship's 1000 x 100 design plus column 100, a copy of column
    0, and column 101, column 2 plus 1e-12 noise."""
    dataset, _ = generate_benchmark(BenchmarkConfig(), seed=3)
    X = dataset.features
    noise = np.random.default_rng(5).standard_normal(X.shape[0])
    X = np.column_stack([X, X[:, 0], X[:, 2] + 1e-12 * noise])
    names = dataset.feature_names + ("copy0", "near2")
    return partition(Dataset(X, dataset.target, names), seed=3)


@settings(max_examples=40, deadline=None, database=None)
@given(columns=st.sets(st.integers(0, 101), max_size=102))
def test_ols_node_fits_exactly_where_the_gram_falls_back(
        collinear_partitioned, columns):
    """The collinear pairs leave every mask to fit_ols: each gets
    fit_ols's very model, rank_deficient flag included."""
    orchestrator = RegressionOrchestratorNode("o", collinear_partitioned)
    mask = FeatureMask.from_indices(sorted(columns), 102)
    fitted = OlsModelNode("model").fit_problem(
        orchestrator.make_problem(mask), None)
    X, y = collinear_partitioned.train_xy()
    cols = list(mask.indices)
    names = tuple(collinear_partitioned.base.feature_names[i] for i in cols)
    assert fitted.model == fit_ols(X[:, cols], y, names)
    assert fitted.model.rank_deficient \
        == ({0, 100} <= columns or {2, 101} <= columns)


def test_ols_node_gives_the_empty_mask_the_constant_model(
        small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    fitted = OlsModelNode("model").fit_problem(
        orchestrator.make_problem(FeatureMask(np.zeros(8, dtype=bool))),
        None)
    _, y = small_partitioned.train_xy()
    assert fitted.model == LinearModel(np.zeros(0), float(np.mean(y)), ())


def test_memo_hit_gathers_no_column(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    node = OlsModelNode("model")
    mask = FeatureMask.from_indices((1, 4), 8)
    first = orchestrator.make_problem(mask)
    node.fit_problem(first, None)
    assert "train_features" in vars(first)
    again = orchestrator.make_problem(mask)
    assert node.fit_problem(again, None) is node.fit_problem(first, None)
    assert not {"train_features", "validation_features",
                "feature_names"} & set(vars(again))


def test_refit_test_mae_is_an_independent_fit_ols(noisy_partitioned):
    """The winner's refit is an exact fit_ols on its columns, whatever
    the Gram solve scored during the search."""
    result = feature_selection_network(noisy_partitioned, SMALL_PARAMS,
                                       seed=2)
    cols = list(result.best_mask.indices)
    X, y = noisy_partitioned.train_xy()
    X_test, y_test = noisy_partitioned.test_xy()
    model = fit_ols(X[:, cols], y)
    assert result.best_model.test_mae == mae(predict(model, X_test[:, cols]),
                                             y_test)
    assert np.array_equal(result.best_model.model.weights, model.weights)


def test_worker_count_invariance(small_partitioned):
    solo = feature_selection_network(small_partitioned, SMALL_PARAMS, seed=4,
                                     workers=1)
    pooled = feature_selection_network(small_partitioned, SMALL_PARAMS,
                                       seed=4, workers=8)
    assert solo == pooled


def test_different_seeds_differ(small_partitioned):
    a = feature_selection_network(small_partitioned, SMALL_PARAMS, seed=0)
    b = feature_selection_network(small_partitioned, SMALL_PARAMS, seed=1)
    assert a != b  # same config, different stream


def test_network_result_equality_semantics(small_partitioned):
    from dataclasses import replace
    result = feature_selection_network(small_partitioned, TINY_PARAMS, seed=0)
    slower = replace(result, wall_time=result.wall_time + 100.0)
    assert result == slower  # wall time is not part of identity
    assert result != "something else"


# ---------------------------------------------------------------------------
# Test-partition hygiene

def test_search_never_touches_test_partition(small_benchmark, monkeypatch):
    """The search reads train and validation once each and the test rows
    only to score the winner; tests/test_poisoned_test_rows.py shows that
    no other route reaches them either."""
    dataset, _ = small_benchmark
    partitioned = partition(dataset, seed=0)
    reads = []

    def counted(part):
        accessor = getattr(partitioned, part)

        def read():
            reads.append(part)
            return accessor()
        return read

    for part in ("train_xy", "validation_xy", "test_xy"):
        monkeypatch.setattr(partitioned, part, counted(part))
    result = feature_selection_network(partitioned, TINY_PARAMS, seed=0,
                                       compute_test_mae=False)
    assert sorted(reads) == ["train_xy", "validation_xy"]
    assert result.best_model.test_mae is None

    reads.clear()
    result = feature_selection_network(partitioned, TINY_PARAMS, seed=0)
    assert sorted(reads) == ["test_xy", "train_xy", "validation_xy"]
    assert reads[-1] == "test_xy"
    assert result.best_model.test_mae is not None


# ---------------------------------------------------------------------------
# Degenerate problems

def test_forest_node_empty_mask_falls_back_to_constant(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask(np.zeros(8, dtype=bool)))
    node = ForestModelNode("model", ForestConfig(n_trees=3))
    fitted = node.fit_problem(problem, substream(0, "x"))
    assert isinstance(fitted.model, LinearModel)
    assert fitted.label == "random-forest"
    assert fitted.n_features == 0


def test_inner_tuning_empty_mask_falls_back_to_ols(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask(np.zeros(8, dtype=bool)))
    node = InnerTuningModelNode("model", InnerGridSearch(budget=2))
    fitted = node.fit_problem(problem, substream(0, "x"))
    assert fitted.label == "ols"
    assert isinstance(fitted.model, LinearModel)


# ---------------------------------------------------------------------------
# Inner hyperparameter search

def test_inner_grid_cells_are_sample_major():
    grid = InnerGridSearch(sample_ratios=(0.1, 0.2), feature_ratios=(0.3,),
                           n_trees_options=(1, 2), budget=10)
    assert list(grid.cells()) == [(0.1, 0.3, 1), (0.1, 0.3, 2),
                                  (0.2, 0.3, 1), (0.2, 0.3, 2)]


def test_inner_search_validation():
    with pytest.raises(InvalidConfigError):
        InnerGridSearch(sample_ratios=()).validate()
    with pytest.raises(InvalidConfigError):
        InnerGridSearch(budget=0).validate()
    with pytest.raises(InvalidConfigError):
        InnerOsgaSearch(budget=0).validate()
    with pytest.raises(InvalidConfigError, match="initial population"):
        InnerOsgaSearch(budget=3).validate()
    with pytest.raises(InvalidConfigError):
        InnerTuningModelNode("m", InnerGridSearch(budget=0))


def test_inner_osga_search_rejects_a_crossover_its_genome_lacks():
    search = InnerOsgaSearch(params=OsgaParams(
        population_size=6, max_evaluations=30, crossover_kind="single-point",
        max_selection_pressure=20.0))
    with pytest.raises(InvalidConfigError, match="crossover_kind"):
        search.validate()


def test_inner_grid_budget_exhaustion_flagged(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask.from_indices((0, 1, 2), 8))
    node = InnerTuningModelNode("model", InnerGridSearch(budget=5))
    fitted = node.fit_problem(problem, substream(7, "x"))  # 27 cells, 5 fit
    assert "budget-exhausted" in fitted.flags
    assert fitted.label.startswith("tuned-forest(")


def test_inner_osga_budget_exhaustion_flagged(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask.from_indices((0, 1, 2), 8))
    search = InnerOsgaSearch(
        params=OsgaParams(population_size=4, max_evaluations=30,
                          crossover_kind="arithmetic",
                          max_selection_pressure=50.0),
        n_trees_bounds=(2, 6), budget=6)  # stops 2 children into gen 1
    fitted = InnerTuningModelNode("model", search).fit_problem(
        problem, substream(7, "x"))
    assert "budget-exhausted" in fitted.flags
    assert fitted.label.startswith("tuned-forest(")


def test_inner_grid_within_budget_not_flagged(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask.from_indices((0, 1), 8))
    grid = InnerGridSearch(sample_ratios=(0.7,), feature_ratios=(0.5,),
                           n_trees_options=(3, 5), budget=10)
    fitted = InnerTuningModelNode("model", grid).fit_problem(
        problem, substream(7, "x"))
    assert fitted.flags == ()
    assert isinstance(fitted.model, ForestModel)
    assert fitted.label in ("tuned-forest(sample_ratio=0.70,"
                            "feature_ratio=0.50,n_trees=3)",
                            "tuned-forest(sample_ratio=0.70,"
                            "feature_ratio=0.50,n_trees=5)")


def test_inner_osga_search_tunes_within_bounds(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask.from_indices((0, 1), 8))
    search = InnerOsgaSearch(
        params=OsgaParams(population_size=4, max_evaluations=12,
                          crossover_kind="arithmetic",
                          max_selection_pressure=10.0),
        budget=12)
    fitted = InnerTuningModelNode("model", search).fit_problem(
        problem, substream(1, "x"))
    assert fitted.label.startswith("tuned-forest(")
    assert isinstance(fitted.model, ForestModel)
    n_trees = fitted.model.config.n_trees
    assert 5 <= n_trees <= 60


def test_forest_builder_refuses_settings_out_of_range(small_partitioned):
    """The builder does not clamp: a vector ForestConfig refuses raises,
    and no forest is emitted under settings it was not asked for."""
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask.from_indices((0,), 8))
    builder = ForestBuilderNode("b", problem)
    ctx = NodeContext(builder, substream(0, "x"))
    with pytest.raises(InvalidConfigError):
        builder.handle("params", ParameterVector(
            np.array([1.5, 0.5, 0.2]),
            ("sample_ratio", "feature_ratio", "n_trees")), ctx)
    assert ctx.emitted == []


def test_nested_network_matches_direct_twin(small_partitioned):
    grid = InnerGridSearch(sample_ratios=(0.7,), feature_ratios=(0.5,),
                           n_trees_options=(3, 5), budget=4)
    osga = InnerOsgaSearch(
        params=OsgaParams(population_size=4, max_evaluations=8,
                          crossover_kind="arithmetic",
                          max_selection_pressure=10.0),
        n_trees_bounds=(2, 6), budget=8)
    params = OsgaParams(population_size=6, max_evaluations=60,
                        max_selection_pressure=15.0)
    for inner in (grid, osga):
        net = nested_tuning_network(small_partitioned, params, inner=inner,
                                    seed=2)
        direct = feature_selection_direct(
            small_partitioned, params,
            model=InnerTuningModelNode("model", inner), seed=2)
        assert net == direct, type(inner).__name__
        assert net.best_model.label.startswith("tuned-forest(")


def test_nested_network_reports_search_shape(small_partitioned):
    inner = InnerGridSearch(sample_ratios=(0.7,), feature_ratios=(0.5,),
                            n_trees_options=(3,), budget=4)
    params = OsgaParams(population_size=6, max_evaluations=40,
                        max_selection_pressure=12.0)
    result = nested_tuning_network(small_partitioned, params, inner=inner,
                                   seed=0)
    assert isinstance(result, NetworkResult)
    assert result.evaluations <= 40
    assert len(result.best_history) >= 1
    assert result.best_mask.n_selected >= 1


# Forest settings: ForestConfig.validate is the one rule, checked up front

RATIOS = st.one_of(st.sampled_from([0.0, 1e-9, 0.5, 1.0, 1.0 + 1e-9]),
                   st.floats(-0.5, 1.5))
TREE_COUNTS = st.one_of(st.integers(-2, 6), st.sampled_from([0.5, 1.5]),
                        st.floats(-1.0, 8.0))


def _ratio_ok(value) -> bool:
    return 0.0 < value <= 1.0


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(RATIOS, min_size=1, max_size=3),
       st.lists(RATIOS, min_size=1, max_size=3),
       st.lists(st.integers(-2, 6), min_size=1, max_size=3))
def test_inner_grid_refuses_exactly_the_cells_forest_config_refuses(
        samples, features, trees):
    """With a budget that covers the grid, every cell is proposed, so
    validate raises exactly when some axis value is out of range."""
    search = InnerGridSearch(tuple(samples), tuple(features), tuple(trees),
                             budget=27)
    if all(map(_ratio_ok, samples + features)) and min(trees) >= 1:
        search.validate()
    else:
        with pytest.raises(InvalidConfigError):
            search.validate()


@settings(max_examples=200, deadline=None, database=None)
@given(st.tuples(RATIOS, RATIOS), st.tuples(RATIOS, RATIOS),
       st.tuples(TREE_COUNTS, TREE_COUNTS))
def test_inner_osga_refuses_exactly_the_bounds_forest_config_refuses(
        sample_bounds, feature_bounds, tree_bounds):
    """Proposals cover the box of the bounds, the tree count rounded, so
    validate raises exactly when the box is empty or holds a setting out
    of range: round is monotone, so the lowest tree count is round(lo)."""
    search = InnerOsgaSearch(sample_ratio_bounds=sample_bounds,
                             feature_ratio_bounds=feature_bounds,
                             n_trees_bounds=tree_bounds)
    boxes = (sample_bounds, feature_bounds, tree_bounds)
    if all(lo <= hi for lo, hi in boxes) \
            and all(map(_ratio_ok, sample_bounds + feature_bounds)) \
            and round(tree_bounds[0]) >= 1:
        search.validate()
    else:
        with pytest.raises(InvalidConfigError):
            search.validate()


@pytest.mark.parametrize("search", [
    InnerGridSearch(sample_ratios=(0.5, 0.9), feature_ratios=(0.3, 1.0),
                    n_trees_options=(2, 4), budget=8),
    InnerOsgaSearch(params=OsgaParams(population_size=4, max_evaluations=12,
                                      crossover_kind="arithmetic",
                                      max_selection_pressure=10.0),
                    sample_ratio_bounds=(0.4, 1.0), n_trees_bounds=(1, 6),
                    budget=12),
], ids=["grid", "osga"])
def test_tuned_model_label_describes_its_forest(small_partitioned, search):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask.from_indices((0, 1), 8))
    fitted = InnerTuningModelNode("model", search).fit_problem(
        problem, substream(3, "x"))
    config = fitted.model.config
    assert fitted.label == (
        f"tuned-forest(sample_ratio={config.sample_ratio:.2f},"
        f"feature_ratio={config.feature_ratio:.2f},"
        f"n_trees={config.n_trees})")
    assert len(fitted.model.trees) == config.n_trees


# ---------------------------------------------------------------------------
# Only model nodes know their model

@pytest.fixture
def grams_built(monkeypatch):
    """The train features of every OlsGram networks builds."""
    built = []

    class CountingGram(networks.OlsGram):
        def __init__(self, features, target):
            built.append(features)
            super().__init__(features, target)

    monkeypatch.setattr(networks, "OlsGram", CountingGram)
    return built


@pytest.mark.parametrize("model", [
    ForestConfig(n_trees=3),
    InnerTuningModelNode("model", InnerGridSearch(
        sample_ratios=(0.7,), feature_ratios=(0.5,), n_trees_options=(2,),
        budget=1)),
], ids=["forest", "nested"])
def test_a_search_without_ols_builds_no_gram_matrix(small_partitioned,
                                                    grams_built, model):
    feature_selection_network(small_partitioned, TINY_PARAMS, model=model,
                              seed=0)
    assert grams_built == []


def test_an_ols_search_builds_one_gram_matrix(small_partitioned,
                                              grams_built):
    feature_selection_network(small_partitioned, TINY_PARAMS, seed=0)
    assert len(grams_built) == 1
    train_x, _ = small_partitioned.train_xy()
    assert np.array_equal(grams_built[0], train_x)


def test_one_ols_node_builds_a_gram_matrix_per_source_switch(
        small_benchmark, grams_built):
    """Problems of two orchestrators, alternating: each switch builds the
    new source's Gram matrix and empties the memo, so every fit is what a
    fresh node makes of its own problem."""
    dataset, _ = small_benchmark
    first = RegressionOrchestratorNode("a", partition(dataset, seed=0))
    second = RegressionOrchestratorNode("b", partition(dataset, seed=1))
    node = OlsModelNode("model")
    masks = (FeatureMask.from_indices((0, 3), 8),
             FeatureMask.from_indices((1, 2, 5), 8))
    builds = 0
    for orchestrator in (first, second, first, first, second):
        for mask in masks:
            problem = orchestrator.make_problem(mask)
            before = len(grams_built)
            fitted = node.fit_problem(problem, None)
            builds += len(grams_built) - before
            assert fitted == _fresh_fit(problem)
    assert builds == 4
    assert (node.fits, node.hits) == (8, 2)


def test_forest_builder_refuses_a_problem_with_no_column(small_partitioned):
    orchestrator = RegressionOrchestratorNode("o", small_partitioned)
    problem = orchestrator.make_problem(FeatureMask(np.zeros(8, dtype=bool)))
    with pytest.raises(InvalidConfigError, match="column"):
        ForestBuilderNode("builder", problem)


@pytest.fixture(scope="module")
def random_partitioned():
    """A 90 x 12 Gaussian design with a noisy linear target."""
    rng = np.random.default_rng(11)
    X = rng.standard_normal((90, 12))
    y = X @ rng.uniform(-3.0, 3.0, 12) + rng.standard_normal(90)
    return partition(Dataset(X, y, tuple(f"c{i}" for i in range(12))),
                     seed=11)


@settings(max_examples=60, deadline=None, database=None)
@given(code=st.one_of(st.just(0), st.just(2 ** 12 - 1),
                      st.integers(0, 2 ** 12 - 1)))
def test_the_refit_problem_is_the_eager_slice_of_the_whole(
        random_partitioned, code):
    """replace turns a search-time problem into a sourceless one with
    the whole problem's columns of the mask, and the OLS node fits both
    alike: from the Gram matrix and with fit_ols."""
    mask = FeatureMask(np.array([(code >> b) & 1 for b in range(12)]))
    orchestrator = RegressionOrchestratorNode("o", random_partitioned)
    searched = orchestrator.make_problem(mask)
    refit = replace(orchestrator.make_problem(mask))
    assert refit.source is None and searched.source is not None
    whole = RegressionProblem.whole(random_partitioned)
    keep = np.flatnonzero(mask.bits)
    for name in ("train_features", "validation_features"):
        assert np.array_equal(getattr(refit, name),
                              getattr(whole, name)[:, keep])
    for name in ("train_target", "validation_target"):
        assert np.array_equal(getattr(refit, name), getattr(whole, name))
    assert refit.feature_names == tuple(whole.feature_names[i] for i in keep)
    assert refit.mask == mask
    node = OlsModelNode("model")
    a = node.fit_problem(searched, None).model
    b = node.fit_problem(refit, None).model
    assert a.feature_names == b.feature_names
    coef_a = np.append(a.weights, a.intercept)
    coef_b = np.append(b.weights, b.intercept)
    scale = max(1.0, float(np.abs(coef_b).max()))
    assert np.abs(coef_a - coef_b).max() <= GRAM_TOLERANCE * scale
