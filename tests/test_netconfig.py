"""Declarative config parsing, reports, and replay."""

import copy
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optnet.data import FeatureMask
from optnet.forest import ForestConfig, fit_random_forest
from optnet.errors import ConfigFileError
from optnet.linear import fit_ols
from optnet.engine import MessageBudget, SinksEmitted
from optnet.netconfig import (
    InnerGridSearch,
    InnerOsgaSearch,
    build_topology,
    data_spec_from_doc,
    inner_search_from_options,
    load_config_doc,
    load_run_config,
    parse_connection,
    payload_doc,
    replay_report,
    run_config_from_doc,
    run_configured,
    topology_spec_from_doc,
)
from optnet.linear import LinearModel
from optnet.networks import (
    NetworkResult,
    feature_selection_network,
)
from optnet.osga import Individual, OsgaParams, RunResult
from optnet.payloads import (
    ModelWithQuality,
    ParameterVector,
    RegressionProblem,
)


# ---------------------------------------------------------------------------
# Connection strings

def test_parse_connection_variants():
    assert parse_connection("a.out -> b.in") == ("a", "out", "b", "in")
    assert parse_connection("a.out→b.in") == ("a", "out", "b", "in")
    assert parse_connection("  a.out  ->  b.in  ") == ("a", "out", "b", "in")


def test_parse_connection_errors():
    with pytest.raises(ConfigFileError, match="must be a string"):
        parse_connection(7)
    with pytest.raises(ConfigFileError, match="arrow"):
        parse_connection("a.out b.in")
    for bad in ("aout -> b.in", "a.out -> bin", "a. -> b.in",
                "a.out -> b.in.extra"):
        with pytest.raises(ConfigFileError, match="node.port"):
            parse_connection(bad)


# ---------------------------------------------------------------------------
# Topology documents

FS_NODES = {
    "selector": {"kind": "feature-selection", "population_size": 8,
                 "max_evaluations": 80, "max_selection_pressure": 15.0},
    "orchestrator": {"kind": "regression-orchestrator",
                     "penalty_per_feature": 0.05},
    "model": {"kind": "ols-model"},
}
FS_CONNECTIONS = [
    "selector.mask -> orchestrator.mask",
    "orchestrator.problem -> model.problem",
    "model.model -> orchestrator.model",
    "orchestrator.quality -> selector.quality",
]


def test_topology_doc_rejections():
    with pytest.raises(ConfigFileError, match="network.nodes"):
        topology_spec_from_doc({"nodes": {}})
    with pytest.raises(ConfigFileError, match="unknown key"):
        topology_spec_from_doc({"nodes": FS_NODES, "extra": 1})
    with pytest.raises(ConfigFileError, match="missing 'kind'"):
        topology_spec_from_doc({"nodes": {"n": {}}})
    with pytest.raises(ConfigFileError, match="unknown node kind"):
        topology_spec_from_doc({"nodes": {"n": {"kind": "teapot"}}})
    with pytest.raises(ConfigFileError,
                       match="network.nodes.model: unknown key"):
        topology_spec_from_doc(
            {"nodes": {"model": {"kind": "ols-model", "depth": 3}}})
    with pytest.raises(ConfigFileError, match="must be a list"):
        topology_spec_from_doc({"nodes": FS_NODES, "connections": "a.b->c.d"})


def test_build_topology_produces_valid_network(small_partitioned):
    spec = topology_spec_from_doc(
        {"nodes": FS_NODES, "connections": FS_CONNECTIONS})
    topo = build_topology(spec, small_partitioned)
    assert topo.validate() == []
    assert topo.node("orchestrator").penalty_per_feature == 0.05
    selector = topo.node("selector")
    assert selector.params.population_size == 8
    assert selector.genome_spec.length == 8


def test_forest_and_nested_node_kinds(small_partitioned):
    doc = {"nodes": {
        "rf": {"kind": "random-forest-model", "n_trees": 4,
               "sample_ratio": 0.8},
        "tuned": {"kind": "nested-tuning-model", "budget": 5,
                  "n_trees_options": [3, 5]},
    }, "connections": []}
    topo = build_topology(topology_spec_from_doc(doc), small_partitioned)
    assert topo.node("rf").config.n_trees == 4
    assert isinstance(topo.node("tuned").search, InnerGridSearch)
    assert topo.node("tuned").search.budget == 5


# ---------------------------------------------------------------------------
# Inner-search options

def test_inner_search_grid_mode():
    search = inner_search_from_options(
        {"sample_ratios": [0.5, 0.9], "budget": 7}, "n")
    assert isinstance(search, InnerGridSearch)
    assert search.sample_ratios == (0.5, 0.9)
    assert search.budget == 7


def test_inner_search_osga_mode():
    search = inner_search_from_options(
        {"search": "osga", "n_trees_bounds": [5, 20],
         "osga": {"population_size": 4, "max_evaluations": 16}}, "n")
    assert isinstance(search, InnerOsgaSearch)
    assert search.n_trees_bounds == (5, 20)
    assert search.params.population_size == 4


def test_inner_search_cross_mode_keys_rejected():
    with pytest.raises(ConfigFileError, match="require search: osga"):
        inner_search_from_options({"sample_ratio_bounds": [0.1, 1.0]}, "n")
    with pytest.raises(ConfigFileError, match="require search: grid"):
        inner_search_from_options(
            {"search": "osga", "sample_ratios": [0.5]}, "n")
    with pytest.raises(ConfigFileError, match="grid.*osga"):
        inner_search_from_options({"search": "annealing"}, "n")
    with pytest.raises(ConfigFileError, match="n.osga: unknown key"):
        inner_search_from_options(
            {"search": "osga", "osga": {"temperature": 3}}, "n")


# ---------------------------------------------------------------------------
# Data section

def test_data_spec_benchmark_round_trip():
    doc = {
        "benchmark": {"n_observations": 48, "n_features": 6, "n_relevant": 2,
                      "weight_low": 1.0, "weight_high": 5.0,
                      "noise_variance_fraction": 0.0, "seed": 1},
        "partition": {"ratios": [0.25, 0.375, 0.375], "seed": 2},
    }
    spec = data_spec_from_doc(doc)
    assert spec.benchmark.n_observations == 48
    assert spec.benchmark_seed == 1
    assert spec.partition.seed == 2


def test_data_spec_csv_round_trip():
    doc = {
        "csv": {"path": "d.csv", "target_column": "y",
                "ground_truth": "d.truth.json"},
        "partition": {"ratios": [0.5, 0.25, 0.25]},
    }
    spec = data_spec_from_doc(doc)
    assert spec.csv.path == "d.csv"
    assert spec.csv.ground_truth == "d.truth.json"
    assert spec.partition.ratios == (0.5, 0.25, 0.25)


def test_data_spec_rejections():
    with pytest.raises(ConfigFileError, match="exactly one"):
        data_spec_from_doc({})
    with pytest.raises(ConfigFileError, match="exactly one"):
        data_spec_from_doc({"benchmark": {}, "csv": {"path": "x"}})
    with pytest.raises(ConfigFileError, match="missing 'path'"):
        data_spec_from_doc({"csv": {}})
    with pytest.raises(ConfigFileError, match="3-item list"):
        data_spec_from_doc(
            {"benchmark": {}, "partition": {"ratios": [0.5, 0.5]}})
    with pytest.raises(ConfigFileError, match="data.benchmark: unknown key"):
        data_spec_from_doc({"benchmark": {"rows": 10}})


# ---------------------------------------------------------------------------
# Whole run configs

def make_run_doc(budget=None):
    termination = {"budget": budget} if budget else {
        "sinks": ["selector.result"]}
    return {
        "seed": 5,
        "workers": 1,
        "data": {
            "benchmark": {"n_observations": 48, "n_features": 6,
                          "n_relevant": 2, "weight_low": 1.0,
                          "weight_high": 5.0,
                          "noise_variance_fraction": 0.0, "seed": 1},
            "partition": {"ratios": [0.25, 0.375, 0.375]},
        },
        "network": {
            "nodes": FS_NODES,
            "connections": FS_CONNECTIONS,
            "entry": "selector",
            "termination": termination,
        },
    }


def test_run_config_round_trip():
    doc = make_run_doc()
    cfg = run_config_from_doc(doc)
    assert cfg.seed == 5
    assert cfg.entry == "selector"
    assert cfg.termination == SinksEmitted((("selector", "result"),))
    assert cfg.topology.nodes["orchestrator"].settings.penalty_per_feature \
        == 0.05
    # a report's JSON copy of the document parses to the same config
    assert run_config_from_doc(json.loads(json.dumps(doc))) == cfg


def test_run_config_budget_termination():
    cfg = run_config_from_doc(make_run_doc(budget=25))
    assert cfg.termination == MessageBudget(25)


def test_run_config_rejections():
    doc = make_run_doc()
    with pytest.raises(ConfigFileError, match="missing section 'data'"):
        run_config_from_doc({"network": doc["network"]})
    with pytest.raises(ConfigFileError, match="missing section 'network'"):
        run_config_from_doc({"data": doc["data"]})
    bad = make_run_doc()
    bad["network"]["termination"] = {"sinks": ["selector.result"],
                                    "budget": 10}
    with pytest.raises(ConfigFileError, match="exactly one of sinks/budget"):
        run_config_from_doc(bad)
    bad = make_run_doc()
    bad["network"]["termination"] = {}
    with pytest.raises(ConfigFileError, match="exactly one of sinks/budget"):
        run_config_from_doc(bad)
    bad = make_run_doc()
    del bad["network"]["entry"]
    with pytest.raises(ConfigFileError, match="missing 'entry'"):
        run_config_from_doc(bad)
    bad = make_run_doc()
    bad["network"]["termination"] = {"sinks": []}
    with pytest.raises(ConfigFileError, match="non-empty list"):
        run_config_from_doc(bad)
    bad = make_run_doc()
    bad["unknown_section"] = 1
    with pytest.raises(ConfigFileError, match="config: unknown key"):
        run_config_from_doc(bad)


def test_load_run_config_from_yaml_text():
    text = """
seed: 5
workers: 1
data:
  benchmark:
    n_observations: 48
    n_features: 6
    n_relevant: 2
    weight_low: 1.0
    weight_high: 5.0
    noise_variance_fraction: 0.0
    seed: 1
  partition:
    ratios: [0.25, 0.375, 0.375]
network:
  nodes:
    selector:
      kind: feature-selection
      population_size: 8
      max_evaluations: 80
      max_selection_pressure: 15.0
    orchestrator:
      kind: regression-orchestrator
      penalty_per_feature: 0.05
    model:
      kind: ols-model
  connections:
    - selector.mask -> orchestrator.mask
    - orchestrator.problem -> model.problem
    - model.model -> orchestrator.model
    - orchestrator.quality -> selector.quality
  entry: selector
  termination:
    sinks: [selector.result]
"""
    assert load_run_config(text) == run_config_from_doc(make_run_doc())


def test_load_run_config_reports_yaml_error_line():
    with pytest.raises(ConfigFileError, match="invalid YAML at line"):
        load_run_config("seed: 1\nnetwork: [unclosed\ndata: {}\n  bad")


def test_load_run_config_file_missing(tmp_path):
    with pytest.raises(ConfigFileError, match="cannot read config"):
        load_config_doc(tmp_path / "absent.yaml")


# ---------------------------------------------------------------------------
# Configured execution and replay

def test_run_configured_produces_report():
    report = run_configured(make_run_doc())
    assert report.config_doc == make_run_doc()
    assert report.result_doc["stopped_by"] == "sinks"
    results = report.result_doc["sinks"]["selector.result"]
    assert len(results) == 1
    assert results[0]["type"] == "run-result"
    assert results[0]["evaluations"] <= 80
    assert report.wall_time > 0.0
    assert "wall_time" not in json.loads(report.result_json())


def test_run_configured_budget_termination():
    report = run_configured(make_run_doc(budget=25))
    assert report.result_doc["stopped_by"] == "budget"
    assert report.result_doc["messages_handled"] == 25
    assert report.result_doc["sinks"]["selector.result"] == []


def test_replay_reproduces_result_bytes():
    report = run_configured(make_run_doc())
    replayed = replay_report(json.loads(report.to_json()))
    assert replayed.result_json() == report.result_json()


def test_replay_requires_embedded_config():
    with pytest.raises(ConfigFileError, match="embedded config"):
        replay_report({"result": {}})


def test_report_embeds_the_document_as_given():
    """No default is filled in and no spelling is made canonical."""
    doc = make_run_doc(budget=30)
    del doc["workers"]
    doc["network"]["connections"] = [
        c.replace(" -> ", "→") for c in FS_CONNECTIONS]
    given_doc = copy.deepcopy(doc)
    report = run_configured(doc)
    assert report.config_doc == given_doc
    assert "workers" not in json.loads(report.to_json())["config"]
    replayed = replay_report(json.loads(report.to_json()))
    assert replayed.result_json() == report.result_json()


_SELECTOR_OPTIONS = st.fixed_dictionaries({}, optional={
    "max_selection_pressure": st.sampled_from([5.0, 15.0]),
    "init_one_probability": st.sampled_from([0.2, 0.5]),
    "crossover_kind": st.sampled_from(["uniform", "single-point"]),
})


@st.composite
def run_documents(draw):
    """Small feature-selection run documents, each optional key present
    or absent."""
    population = draw(st.integers(3, 6), label="population")
    selector = {"kind": "feature-selection", "population_size": population,
                "max_evaluations": draw(st.integers(population,
                                                    4 * population)),
                **draw(_SELECTOR_OPTIONS, label="selector")}
    orchestrator = {"kind": "regression-orchestrator",
                    **draw(st.fixed_dictionaries({}, optional={
                        "penalty_per_feature": st.sampled_from([0.0, 0.05]),
                    }))}
    arrow = draw(st.sampled_from([" -> ", "→", "->"]), label="arrow")
    benchmark = {"n_observations": 40, "n_features": 5, "n_relevant": 2,
                 **draw(st.fixed_dictionaries({}, optional={
                     "seed": st.integers(0, 3),
                     "noise_variance_fraction": st.sampled_from([0.0, 0.2]),
                 }))}
    data = {"benchmark": benchmark, **draw(st.fixed_dictionaries(
        {}, optional={"partition": st.fixed_dictionaries({}, optional={
            "ratios": st.just([0.5, 0.25, 0.25]),
            "seed": st.integers(0, 3)})}))}
    # each evaluation handles four messages, so the network outlasts
    # any budget up to four per member of the initial population
    termination = draw(st.one_of(
        st.just({"sinks": ["selector.result"]}),
        st.builds(lambda n: {"budget": n}, st.integers(1, 4 * population))))
    doc = {"data": data, "network": {
        "nodes": {"selector": selector, "orchestrator": orchestrator,
                  "model": {"kind": "ols-model"}},
        "connections": [c.replace(" -> ", arrow) for c in FS_CONNECTIONS],
        "entry": "selector",
        "termination": termination,
    }}
    doc.update(draw(st.fixed_dictionaries({}, optional={
        "seed": st.integers(0, 9), "workers": st.integers(1, 2)})))
    return doc


@settings(max_examples=20, deadline=None)
@given(doc=run_documents())
def test_any_run_document_is_embedded_as_given_and_replays(doc):
    given_doc = copy.deepcopy(doc)
    report = run_configured(doc)
    assert report.config_doc == given_doc
    replayed = replay_report(json.loads(report.to_json()))
    assert replayed.config_doc == given_doc
    assert replayed.result_json() == report.result_json()


def test_report_save_and_shape(tmp_path):
    report = run_configured(make_run_doc(budget=10))
    path = tmp_path / "out.report.json"
    report.save(path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"config", "result", "timing"}
    assert doc["timing"]["wall_time"] > 0.0
    assert doc["config"] == report.config_doc


# ---------------------------------------------------------------------------
# Payload rendering

def test_payload_doc_scalars_and_arrays():
    assert payload_doc(None) is None
    assert payload_doc(3) == 3
    assert payload_doc(np.float64(2.5)) == 2.5
    assert payload_doc(FeatureMask.from_string("0101")) == "0101"
    assert payload_doc(np.array([True, False])) == "10"
    assert payload_doc(np.array([1.0, 2.0])) == [1.0, 2.0]
    assert payload_doc({"k": (1, 2)}) == {"k": [1, 2]}
    assert payload_doc(object()).startswith("<object object")


def test_payload_doc_linear_model():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 2))
    model = fit_ols(X, X[:, 0] + 1.0, ("a", "b"))
    doc = payload_doc(model)
    assert doc["type"] == "linear-model"
    assert doc["feature_names"] == ["a", "b"]
    assert doc["intercept"] == pytest.approx(1.0)
    json.dumps(doc)  # must be serializable


def test_payload_doc_forest_model():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((30, 2))
    model = fit_random_forest(X, X[:, 0], ForestConfig(n_trees=2), 0,
                              ("a", "b"))
    doc = payload_doc(model)
    assert doc["type"] == "forest-model"
    assert doc["n_trees"] == 2
    assert len(doc["n_nodes"]) == 2
    json.dumps(doc)


def test_payload_doc_quality_and_parameters():
    quality = ModelWithQuality(None, train_mae=0.1, validation_mae=0.2,
                               n_features=2, flags=("budget-exhausted",),
                               label="x")
    doc = payload_doc(quality)
    assert doc["flags"] == ["budget-exhausted"]
    assert doc["model"] is None
    vector = ParameterVector(np.array([0.5, 2.0]), ("a", "b"))
    assert payload_doc(vector)["values"] == [0.5, 2.0]
    individual = Individual(np.array([True, False]), 1.5)
    assert payload_doc(individual) == {"genome": "10", "fitness": 1.5}


def test_network_result_doc_is_replay_stable(small_partitioned):
    params = OsgaParams(population_size=8, max_evaluations=80,
                        max_selection_pressure=15.0)
    result = feature_selection_network(small_partitioned, params, seed=0)
    doc = payload_doc(result)
    assert "wall_time" not in doc
    assert doc["best_mask"] == result.best_mask.to_string()
    again = feature_selection_network(small_partitioned, params, seed=0)
    assert payload_doc(again) == doc
    json.dumps(doc)


def _rendering_samples() -> list:
    """One instance of every rendered payload and result type, plus the
    plain values payload_doc handles itself."""
    linear = LinearModel(np.array([0.5, -1.25]), 0.125, ("a", "b"),
                         rank_deficient=True, converged=False, n_sweeps=7)
    X = np.random.default_rng(1).standard_normal((30, 2))
    forest = fit_random_forest(X, X[:, 0], ForestConfig(n_trees=2,
                                                        max_depth=3),
                               0, ("a", "b"))
    quality = ModelWithQuality(linear, train_mae=0.25, validation_mae=0.5,
                               test_mae=0.75, n_features=2,
                               flags=("budget-exhausted",), label="ols")
    vector = ParameterVector(np.array([0.5, 0.25, 7.0]),
                             ("sample_ratio", "feature_ratio", "n_trees"))
    best = Individual(np.array([True, False, True]), 1.5)
    real = Individual(np.array([0.25, 0.5]), math.inf)
    run = RunResult(best, 12, 2, "pressure", (3.0, 2.0, 1.5), (1.5, 2.25),
                    (best, best))
    network = NetworkResult(FeatureMask.from_string("101"), quality,
                            np.float64(1.5), 12, 2, "budget", 0.05, 7,
                            (3.0, 1.5), (2.0,), wall_time=9.9)
    problem = RegressionProblem(np.zeros((4, 2)), np.zeros(4),
                                np.zeros((3, 2)), np.zeros(3), ("a", "b"),
                                FeatureMask.from_string("11"))
    return [linear, forest, quality, vector, best, real, run, network,
            problem, FeatureMask.from_string("0110"),
            np.array([True, False]), np.array([1.0, 2.5]),
            np.array([[1, 2], [3, 4]]), np.float64(2.5), np.int64(3),
            np.bool_(True), None, True, 4, 0.5, "s",
            {"k": (1, 2.0, None, "s"), 3: [best, False]},
            (vector, [problem.mask]), range(3)]


# SHA-256 of the samples' rendering; any change to the JSON format of a
# result, or to how the sample forest grows, moves it.
PINNED_RENDERING_DIGEST = (
    "005e913d18c49d115966b9a9a275d9acb1eaaf2b09d266188079ac7d43b9c68a")


def test_rendering_of_every_payload_type_is_pinned():
    text = json.dumps([payload_doc(o) for o in _rendering_samples()],
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() \
        == PINNED_RENDERING_DIGEST
