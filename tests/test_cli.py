"""Command-line entry points, result tables, and experiment configs."""

import copy
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import optnet
from optnet.analysis import (ElasticNetRecipe, FeatureSelectionRecipe,
                             OlsRecipe)
from optnet.cli import (
    METHODS,
    BenchmarkConfig,
    ResultRow,
    ResultTable,
    cmd_benchmark,
    cmd_analyze,
    cmd_generate,
    cmd_run,
    main,
)
from optnet.data import (Dataset, PartitionedDataset, load_csv,
                         load_ground_truth, generate_benchmark, partition)
from optnet.errors import ConfigFileError, InvalidConfigError
from optnet.forest import ForestConfig
from optnet.netconfig import (
    DEFAULT_METHODS,
    METHOD_NAMES,
    AnalysisSpec,
    ExperimentConfig,
    InnerGridSearch,
    analyze_config_from_doc,
    experiment_config_from_doc,
    recipe_from_doc,
    replay_report,
    run_analysis,
    run_config_from_doc,
)
from optnet.networks import FitnessConfig
from optnet.osga import OsgaParams
from test_netconfig import result_json

REPO_ROOT = Path(__file__).resolve().parents[1]

TINY_BENCH = {"n_observations": 48, "n_features": 6, "n_relevant": 2,
              "weight_low": 1.0, "weight_high": 5.0,
              "noise_variance_fraction": 0.0}
TINY_FS = {"population_size": 8, "max_evaluations": 80,
           "max_selection_pressure": 15.0}

RUN_CONFIG_YAML = """\
seed: 5
data:
  benchmark:
    n_observations: 48
    n_features: 6
    n_relevant: 2
    weight_low: 1.0
    weight_high: 5.0
    noise_variance_fraction: 0.0
    seed: 1
network:
  nodes:
    selector:
      kind: feature-selection
      population_size: 8
      max_evaluations: 80
      max_selection_pressure: 15.0
    orchestrator:
      kind: regression-orchestrator
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


# ---------------------------------------------------------------------------
# Result table

def sample_table():
    table = ResultTable()
    table.add(ResultRow("full-ols", 0, 0.1 + 0.2, 100, None, 1, 0.5))
    table.add(ResultRow("fs-network-ols", 0, 0.25, 16, 14, 23000, 4.25))
    return table


def test_table_rejects_duplicate_rows():
    table = sample_table()
    with pytest.raises(InvalidConfigError, match="duplicate"):
        table.add(ResultRow("full-ols", 0, 0.3, 1, None, 1, 0.1))


def test_table_csv_round_trip_is_exact():
    table = sample_table()
    text = table.to_csv()
    assert ResultTable.from_csv(text).to_csv() == text
    parsed = ResultTable.from_csv(text)
    assert parsed.rows[0].test_mae == 0.1 + 0.2  # repr floats survive
    assert parsed.rows[0].correct_features is None
    assert parsed.rows[1].correct_features == 14


def test_table_from_csv_errors():
    with pytest.raises(ConfigFileError, match="empty"):
        ResultTable.from_csv("")
    with pytest.raises(ConfigFileError, match="header"):
        ResultTable.from_csv("a,b,c\n1,2,3\n")
    header = ",".join(ResultTable.COLUMNS)
    with pytest.raises(ConfigFileError, match="bad table row"):
        ResultTable.from_csv(header + "\nfull-ols,0,0.5\n")


def test_table_format_and_means():
    table = sample_table()
    table.add_failure("nested-rf", 0, "inner budget too small")
    text = table.format()
    assert "method" in text and "full-ols" in text
    assert "per-method means" in text
    assert "FAILED nested-rf seed 0" in text
    means = table._means()
    assert "nested-rf" not in means  # nan rows never contribute
    assert means["full-ols"][3] == 1


# ---------------------------------------------------------------------------
# Experiment config documents

FULL_EXPERIMENT_DOC = {
    "seeds": [0, 1],
    "methods": ["full-ols", "fs-network-rf", "nested-rf",
                "optimization-analysis"],
    "benchmark": TINY_BENCH,
    "partition": {"ratios": [0.25, 0.375, 0.375]},
    "workers": 2,
    "fs-network": {**TINY_FS, "penalty_per_feature": 0.05,
                   "init_one_probability": 0.2},
    "elastic-net": {"penalties": [0.01, 0.1], "l1_ratios": [0.5]},
    "forest": {"n_trees": 7, "sample_ratio": 0.8},
    "nested": {"budget": 4, "n_trees_options": [3, 5]},
    "analysis": {"targets": [12.0], "subset_size": 2,
                 "recipes": ["ols", {"kind": "elastic-net",
                                     "penalties": [0.01]}],
                 "search": {"population_size": 10},
                 "free_inputs": ["x0", "x1"]},
}


def test_experiment_config_full_doc():
    cfg = experiment_config_from_doc(FULL_EXPERIMENT_DOC)
    assert cfg.seeds == (0, 1)
    assert cfg.benchmark.n_features == 6
    assert cfg.workers == 2
    assert cfg.fs_network.params.population_size == 8
    assert cfg.fs_network.fitness.penalty_per_feature == 0.05
    assert cfg.fs_network.init_one_probability == 0.2
    assert cfg.elastic_net.penalties == (0.01, 0.1)
    assert cfg.forest.n_trees == 7
    assert isinstance(cfg.inner_search, InnerGridSearch)
    assert cfg.inner_search.budget == 4
    assert cfg.analysis.targets == (12.0,)
    assert cfg.analysis.subset_size == 2
    assert isinstance(cfg.analysis.recipes[0], OlsRecipe)
    assert isinstance(cfg.analysis.recipes[1], ElasticNetRecipe)
    assert cfg.analysis.search.population_size == 10
    assert cfg.analysis.free_inputs == ("x0", "x1")


def test_experiment_config_rejections():
    with pytest.raises(ConfigFileError, match="config: unknown key"):
        experiment_config_from_doc({"surprise": 1})
    with pytest.raises(ConfigFileError, match="methods"):
        experiment_config_from_doc({"methods": []})
    with pytest.raises(ConfigFileError, match="unknown method"):
        experiment_config_from_doc({"methods": ["gradient-descent"]})
    with pytest.raises(ConfigFileError, match="seeds must be unique"):
        experiment_config_from_doc({"seeds": [1, 1]})
    with pytest.raises(ConfigFileError, match="3-item list"):
        experiment_config_from_doc({"partition": {"ratios": [0.5, 0.5]}})
    with pytest.raises(ConfigFileError, match="free_inputs"):
        experiment_config_from_doc({"analysis": {"free_inputs": "some"}})


def test_recipe_from_doc_variants_and_errors():
    assert isinstance(recipe_from_doc("ols"), OlsRecipe)
    forest = recipe_from_doc({"kind": "random-forest", "n_trees": 3})
    assert forest.config.n_trees == 3
    fs = recipe_from_doc({"kind": "feature-selection", "population_size": 6,
                          "penalty_per_feature": 0.1})
    assert fs.params.population_size == 6
    assert fs.fitness.penalty_per_feature == 0.1
    with pytest.raises(ConfigFileError, match="recipe kind"):
        recipe_from_doc("kriging")
    with pytest.raises(ConfigFileError, match="recipe.ols: unknown key"):
        recipe_from_doc({"kind": "ols", "depth": 2})


def test_fs_network_block_is_a_feature_selection_recipe():
    block = {**TINY_FS, "penalty_per_feature": 0.05,
             "init_one_probability": 0.2}
    recipe = recipe_from_doc({"kind": "feature-selection", **block})
    assert recipe.init_one_probability == 0.2
    assert experiment_config_from_doc({"fs-network": block}).fs_network \
        == recipe
    with pytest.raises(ConfigFileError,
                       match="recipe.feature-selection: init_one_probability"):
        recipe_from_doc({"kind": "feature-selection",
                         "init_one_probability": 1.5})


# ---------------------------------------------------------------------------
# generate

def test_generate_into_directory(tmp_path):
    bench = BenchmarkConfig(**TINY_BENCH)
    paths = cmd_generate(bench, tmp_path / "out", seed=1)
    csv_path, truth_path, echo_path = paths
    assert csv_path == tmp_path / "out" / "dataset.csv"
    dataset, truth = generate_benchmark(bench, seed=1)
    assert load_csv(csv_path) == dataset
    loaded_truth = load_ground_truth(truth_path)
    assert loaded_truth.true_indices == truth.true_indices
    assert loaded_truth.noise_sigma == truth.noise_sigma
    echo = yaml.safe_load(echo_path.read_text())
    assert echo["seed"] == 1
    assert echo["benchmark"]["n_features"] == 6


def test_generate_with_csv_suffix(tmp_path):
    # the whole stem names the files, dots and all
    for stem in ("mydata", "seed.7"):
        paths = cmd_generate(BenchmarkConfig(**TINY_BENCH),
                             tmp_path / f"{stem}.csv", seed=0)
        assert [p.name for p in paths] == [f"{stem}.csv", f"{stem}.truth.json",
                                          f"{stem}.config.yaml"]
        assert all(p.parent == tmp_path and p.exists() for p in paths)


def test_generate_via_main(tmp_path, capsys):
    config_path = tmp_path / "experiment.yaml"
    config_path.write_text(yaml.safe_dump({"benchmark": TINY_BENCH}))
    code = main(["generate", "--config", str(config_path), "--seed", "2",
                 "--out", str(tmp_path / "data")])
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote" in out
    assert (tmp_path / "data" / "dataset.csv").exists()


def test_generate_without_config_writes_the_default_benchmark(tmp_path,
                                                              capsys):
    assert main(["generate", "--seed", "2",
                 "--out", str(tmp_path / "data.csv")]) == 0
    dataset = load_csv(tmp_path / "data.csv")
    assert (dataset.n_rows, dataset.n_features) == (
        BenchmarkConfig().n_observations, BenchmarkConfig().n_features)
    # a directory path that runs through a file cannot be made
    assert main(["generate", "--out", str(tmp_path / "data.csv" / "d")]) == 3
    assert capsys.readouterr().err.startswith("io error: ")


# ---------------------------------------------------------------------------
# benchmark

def small_experiment(**overrides):
    cfg = ExperimentConfig(
        seeds=(0, 1),
        methods=("full-ols", "oracle-ols", "elastic-net-grid",
                 "fs-network-ols"),
        benchmark=BenchmarkConfig(**TINY_BENCH),
        fs_network=FeatureSelectionRecipe(OsgaParams(**TINY_FS),
                                          FitnessConfig(0.05)),
        elastic_net=ElasticNetRecipe((0.001, 0.01), (0.5,)),
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


def test_benchmark_row_order_and_contents():
    cfg = small_experiment()
    table = cmd_benchmark(cfg)
    expected = [(m, s) for s in cfg.seeds for m in cfg.methods]
    assert [(r.method, r.seed) for r in table.rows] == expected
    for row in table.rows:
        assert np.isfinite(row.test_mae)
        if row.method == "oracle-ols":
            assert row.correct_features == 2
            assert row.n_features == 2
        if row.method == "fs-network-ols":
            assert row.evaluations <= 80
    assert table.failures == []


def test_benchmark_failure_becomes_flagged_row():
    cfg = small_experiment(
        seeds=(0,),
        methods=("full-ols", "fs-network-ols"),
        fs_network=FeatureSelectionRecipe(
            OsgaParams(population_size=30, max_evaluations=10)))
    table = cmd_benchmark(cfg)
    assert len(table.failures) == 1
    assert table.failures[0][0] == "fs-network-ols"
    by_method = {r.method: r for r in table.rows}
    assert np.isnan(by_method["fs-network-ols"].test_mae)
    assert np.isfinite(by_method["full-ols"].test_mae)


# Every method on three seeds of a noisy TINY_BENCH, with wall_time blanked.
# A noiseless dataset would leave full-ols a test MAE of pure rounding
# error, which no relative tolerance can pin.
PINNED_BENCH_DOC = {
    "seeds": [0, 1, 2],
    "methods": list(METHOD_NAMES),
    "benchmark": {**TINY_BENCH, "noise_variance_fraction": 0.2},
    "fs-network": {**TINY_FS, "penalty_per_feature": 0.05,
                   "init_one_probability": 0.3},
    "elastic-net": {"penalties": [0.001, 0.01, 0.1], "l1_ratios": [0.5, 1.0]},
    "forest": {"n_trees": 4},
    "nested": {"budget": 3, "n_trees_options": [3, 5]},
    "analysis": {"recipes": ["ols", {"kind": "random-forest", "n_trees": 3}],
                 "search": {"population_size": 10, "max_evaluations": 200,
                            "crossover_kind": "simulated-binary"}},
}
PINNED_BENCH_CSV = """\
method,seed,test_mae,n_features,correct_features,evaluations,wall_time
full-ols,0,3.9135205866099088,6,2,1,0.0
oracle-ols,0,2.735795064778436,2,2,1,0.0
elastic-net-grid,0,3.0673647520368976,6,2,6,0.0
fs-network-ols,0,2.686518640612983,1,1,80,0.0
fs-network-rf,0,4.53171445103754,3,1,80,0.0
nested-rf,0,3.9831096703406317,1,1,80,0.0
optimization-analysis,0,4.06354737989571,6,,200,0.0
full-ols,1,1.477385208312482,6,2,1,0.0
oracle-ols,1,1.073308691159746,2,2,1,0.0
elastic-net-grid,1,1.240222461082574,5,2,6,0.0
fs-network-ols,1,1.073308691159746,2,2,80,0.0
fs-network-rf,1,1.855974316989413,3,2,80,0.0
nested-rf,1,2.287088107451191,2,2,80,0.0
optimization-analysis,1,1.4773852083124823,6,,200,0.0
full-ols,2,4.02648433803341,6,2,1,0.0
oracle-ols,2,0.9250511182500415,2,2,1,0.0
elastic-net-grid,2,2.1610867282018162,6,2,6,0.0
fs-network-ols,2,0.9250511182500415,2,2,80,0.0
fs-network-rf,2,2.350333037677334,2,2,80,0.0
nested-rf,2,1.5258198167873815,1,1,80,0.0
optimization-analysis,2,2.4691759609717594,6,,200,0.0
"""
# these two score the test rows on the column gather of the model pool,
# which may move a test MAE's last bits
LAST_BITS_MAY_MOVE = {"full-ols", "elastic-net-grid"}


def test_benchmark_table_matches_its_pinned_csv():
    table = cmd_benchmark(experiment_config_from_doc(PINNED_BENCH_DOC))
    for row in table.rows:
        row.wall_time = 0.0
    pinned = ResultTable.from_csv(PINNED_BENCH_CSV).rows
    assert len(table.rows) == len(pinned)
    for got, want in zip(table.rows, pinned):
        assert (got.method, got.seed, got.n_features, got.correct_features,
                got.evaluations) == (want.method, want.seed, want.n_features,
                                     want.correct_features, want.evaluations)
        if got.method in LAST_BITS_MAY_MOVE:
            assert got.test_mae == pytest.approx(want.test_mae, rel=1e-12,
                                                 abs=0.0)
        else:
            assert repr(got.test_mae) == repr(want.test_mae), got.method


def test_oracle_ols_needs_ground_truth(small_partitioned):
    with pytest.raises(InvalidConfigError,
                       match="^oracle-ols needs ground truth$"):
        METHODS["oracle-ols"](small_partitioned, None, small_experiment(), 0)


def test_benchmark_via_main_writes_csv(tmp_path, capsys):
    config_path = tmp_path / "experiment.yaml"
    config_path.write_text(yaml.safe_dump({
        "seeds": [0],
        "methods": ["full-ols", "oracle-ols"],
        "benchmark": TINY_BENCH,
    }))
    out_path = tmp_path / "table.csv"
    code = main(["benchmark", "--config", str(config_path),
                 "--out", str(out_path)])
    assert code == 0
    assert "per-method means" in capsys.readouterr().out
    parsed = ResultTable.from_csv(out_path.read_text())
    assert [(r.method, r.seed) for r in parsed.rows] \
        == [("full-ols", 0), ("oracle-ols", 0)]


# ---------------------------------------------------------------------------
# run

def test_cmd_run_writes_report(tmp_path):
    config_path = tmp_path / "net.yaml"
    config_path.write_text(RUN_CONFIG_YAML)
    out = cmd_run(config_path)
    assert out == tmp_path / "net.report.json"
    doc = json.loads(out.read_text())
    assert set(doc) == {"config", "result", "timing"}
    results = doc["result"]["sinks"]["selector.result"]
    assert results[0]["type"] == "run-result"
    assert results[0]["evaluations"] <= 80


def test_cmd_run_is_replayable(tmp_path):
    config_path = tmp_path / "net.yaml"
    config_path.write_text(RUN_CONFIG_YAML)
    first = json.loads(cmd_run(config_path, tmp_path / "a.json").read_text())
    second = json.loads(cmd_run(config_path, tmp_path / "b.json").read_text())
    assert first["result"] == second["result"]
    assert first["config"] == second["config"]


def test_cmd_run_seed_override_changes_embedded_config(tmp_path):
    config_path = tmp_path / "net.yaml"
    config_path.write_text(RUN_CONFIG_YAML)
    doc = json.loads(cmd_run(config_path, tmp_path / "s9.json",
                             seed=9).read_text())
    assert doc["config"]["seed"] == 9


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_overrides_are_written_into_the_embedded_document(tmp_path,
                                                          command):
    doc = {"run": RUN_DOC, "analyze": ANALYZE_DOC}[command]
    config_path = tmp_path / "doc.yaml"
    config_path.write_text(yaml.safe_dump(doc))
    out_path = tmp_path / "report.json"
    assert main([command, "--config", str(config_path), "--out",
                 str(out_path), "--seed", "4", "--workers", "2"]) == 0
    report = json.loads(out_path.read_text())
    assert report["config"] == {**doc, "seed": 4, "workers": 2}
    replayed = replay_report(report)
    assert json.loads(result_json(replayed)) == report["result"]


def test_run_via_main_exit_codes(tmp_path, capsys):
    config_path = tmp_path / "net.yaml"
    config_path.write_text(RUN_CONFIG_YAML)
    assert main(["run", "--config", str(config_path),
                 "--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()

    assert main(["run", "--config", str(tmp_path / "missing.yaml")]) == 2
    assert "config error" in capsys.readouterr().err


def test_kind_mismatch_config_exits_2_with_code_name(tmp_path, capsys):
    bad = yaml.safe_load(RUN_CONFIG_YAML)
    bad["network"]["connections"] = ["selector.mask -> orchestrator.model"]
    config_path = tmp_path / "bad.yaml"
    config_path.write_text(yaml.safe_dump(bad, sort_keys=False))
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "KindMismatch" in err
    assert "feature-mask" in err and "model-with-quality" in err


def test_runtime_failure_exits_3(tmp_path, capsys):
    doc = yaml.safe_load(RUN_CONFIG_YAML)
    # qualities go to a sink, so the selector never finishes its search
    doc["network"]["connections"].pop()
    config_path = tmp_path / "boom.yaml"
    config_path.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert main(["run", "--config", str(config_path)]) == 3
    assert capsys.readouterr().err.startswith("error: network drained")


BAD_SIDECARS = [
    (b"{not json", "Expecting property name"),
    (b"\xff\xfe", "can't decode byte 0xff"),
    (b"[0, 1]", "list indices must be integers"),
    (b'{"true_indices": [0], "noise_sigma": 0.5}', "missing 'true_weights'"),
    (b'{"true_weights": [1.0], "noise_sigma": 0.5}',
     "missing 'true_indices'"),
    (b'{"true_indices": [0], "true_weights": [1.0]}',
     "missing 'noise_sigma'"),
    (b'{"true_indices": ["0"], "true_weights": [1.0], "noise_sigma": 0.5}',
     "true_indices must list integers"),
    (b'{"true_indices": [0.0], "true_weights": [1.0], "noise_sigma": 0.5}',
     "true_indices must list integers"),
    (b'{"true_indices": 0, "true_weights": [1.0], "noise_sigma": 0.5}',
     "true_indices must list integers"),
    (b'{"true_indices": [0], "true_weights": 1.0, "noise_sigma": 0.5}',
     "true_weights numbers"),
    (b'{"true_indices": [0], "true_weights": ["1"], "noise_sigma": 0.5}',
     "true_weights numbers"),
    (b'{"true_indices": [0], "true_weights": [1.0], "noise_sigma": true}',
     "noise_sigma be a number"),
    (b'{"true_indices": [0, 1], "true_weights": [1.0], "noise_sigma": 0.5}',
     "2 indices but 1 weights"),
]


@pytest.mark.parametrize("sidecar, fault", BAD_SIDECARS, ids=[
    "bad-json", "bad-bytes", "array", "no-weights", "no-indices", "no-sigma",
    "index-str", "index-float", "indices-scalar", "weights-scalar",
    "weight-str", "sigma-bool", "count-mismatch"])
def test_malformed_ground_truth_exits_2_naming_the_file(
        tmp_path, capsys, sidecar, fault):
    csv_path, truth_path, _ = cmd_generate(BenchmarkConfig(**TINY_BENCH),
                                           tmp_path / "data.csv")
    truth_path.write_bytes(sidecar)
    doc = {**RUN_DOC, "data": {"csv": {"path": str(csv_path),
                                       "ground_truth": str(truth_path)}}}
    config_path = tmp_path / "run.yaml"
    config_path.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert main(["run", "--config", str(config_path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: ground truth {truth_path}: ")
    assert fault in err
    assert not (tmp_path / "out").exists()


def test_csv_with_a_repeated_column_exits_3_naming_it(tmp_path, capsys):
    csv_path = tmp_path / "repeated.csv"
    csv_path.write_text("a,a,y\n1.0,2.0,3.0\n")
    doc = {**RUN_DOC, "data": {"csv": {"path": str(csv_path)}}}
    config_path = tmp_path / "run.yaml"
    config_path.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert main(["run", "--config", str(config_path),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: header repeats a column")
    assert str(csv_path) in err and "column 'a'" in err


def test_csv_with_an_unnamed_column_exits_3_naming_it(tmp_path, capsys):
    csv_path = tmp_path / "unnamed.csv"
    csv_path.write_text("a,,y\n1.0,2.0,3.0\n")
    doc = {**RUN_DOC, "data": {"csv": {"path": str(csv_path)}}}
    config_path = tmp_path / "run.yaml"
    config_path.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert main(["run", "--config", str(config_path),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: header column 2 has no name")
    assert str(csv_path) in err


@pytest.mark.parametrize("command", ["run", "analyze"])
@pytest.mark.parametrize("indices", [[0, 500], [-1], [3, 3]],
                         ids=["past-the-width", "negative", "repeated"])
def test_ground_truth_outside_the_csv_exits_2_naming_the_file(
        tmp_path, capsys, command, indices):
    """A sidecar must name distinct columns of its CSV: an index past
    the width, a negative one (which would free the last column) and a
    repeated one are refused before any search runs."""
    csv_path, truth_path, _ = cmd_generate(BenchmarkConfig(**TINY_BENCH),
                                           tmp_path / "data.csv")
    truth_path.write_text(json.dumps({"true_indices": indices,
                                      "true_weights": [1.0] * len(indices),
                                      "noise_sigma": 0.5}))
    csv = {"csv": {"path": str(csv_path), "ground_truth": str(truth_path)}}
    doc = {**RUN_DOC, "data": csv} if command == "run" else {
        **ANALYZE_DOC, "datasets": [csv],
        "task": {"targets": [10.0], "free_inputs": "true"}}
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert main([command, "--config", str(config_path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: ground truth {truth_path}: "
                          "true_indices must be distinct columns 0 to 5")
    assert not (tmp_path / "out").exists()


def test_main_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


# ---------------------------------------------------------------------------
# analyze

ANALYZE_DOC = {
    "seed": 0,
    "subset_size": 1,
    "datasets": [{"benchmark": {**TINY_BENCH, "seed": 0}}],
    "recipes": ["ols"],
    "task": {"targets": [10.0]},
    "search": {"population_size": 12, "max_evaluations": 600,
               "crossover_kind": "simulated-binary",
               "max_selection_pressure": 20.0, "target_fitness": 1e-9},
}


def test_analyze_from_doc_report_shape():
    report = run_analysis(dict(ANALYZE_DOC)).to_doc()
    assert set(report) == {"config", "result", "timing"}
    assert report["config"]["seed"] == 0
    ranked = report["result"]["ranked"]
    assert len(ranked) == 1
    assert ranked[0]["models"] == ["ols"]
    assert set(ranked[0]["inputs"]) == {f"x{i}" for i in range(6)}
    first = run_analysis(dict(ANALYZE_DOC)).to_doc()["result"]
    assert first == report["result"]  # deterministic result section


def test_analyze_from_doc_errors():
    with pytest.raises(ConfigFileError, match="datasets"):
        run_analysis({"task": {"targets": [1.0]}})
    with pytest.raises(ConfigFileError, match="missing 'targets'"):
        run_analysis({"datasets": ANALYZE_DOC["datasets"], "task": {}})
    bad = dict(ANALYZE_DOC)
    bad["task"] = {"targets": [1.0], "input_names": ["nowhere"]}
    with pytest.raises(ConfigFileError, match="appears in no dataset"):
        run_analysis(bad)


def test_analyze_frees_the_informative_inputs_of_a_csv_sidecar(tmp_path):
    """free_inputs "true" reads the first dataset's ground truth: with a
    CSV's sidecar it frees the informative inputs, as listing them does,
    and fixes the rest at 0; without one the document is refused."""
    csv_path, truth_path, _ = cmd_generate(BenchmarkConfig(**TINY_BENCH),
                                           tmp_path / "data.csv", seed=1)
    informative = [f"x{i}" for i in load_ground_truth(truth_path)
                   .true_indices]
    csv = {"path": str(csv_path), "ground_truth": str(truth_path)}
    doc = {**ANALYZE_DOC, "datasets": [{"csv": csv}],
           "task": {"targets": [10.0], "free_inputs": "true"}}
    result = run_analysis(doc).result_doc
    listed = run_analysis({**doc, "task": {
        "targets": [10.0], "free_inputs": informative}}).result_doc
    assert result == listed
    inputs = result["ranked"][0]["inputs"]
    assert {n for n, v in inputs.items() if v != 0.0} == set(informative)
    del csv["ground_truth"]
    with pytest.raises(InvalidConfigError, match="needs ground truth"):
        run_analysis(doc)


def test_analyze_report_is_strict_json_when_a_residual_overflows(tmp_path):
    """A target of 1e200 squares past the float range: the residual is a
    non-finite fitness, and the report writes it as null."""
    doc = {**ANALYZE_DOC, "task": {"targets": [1e200]},
           "search": {"population_size": 10, "max_evaluations": 60,
                      "crossover_kind": "simulated-binary"}}
    config_path = tmp_path / "analysis.yaml"
    config_path.write_text(yaml.safe_dump(doc, sort_keys=False))
    out_path = tmp_path / "analysis.report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["analyze", "--config", str(config_path),
                     "--out", str(out_path)]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    report = json.loads(out_path.read_text(), parse_constant=reject)
    assert report["result"]["ranked"][0]["residual"] is None


def test_replay_reproduces_an_analyze_report_byte_for_byte(tmp_path):
    config_path = tmp_path / "analysis.yaml"
    config_path.write_text(yaml.safe_dump(ANALYZE_DOC))
    report = json.loads(cmd_analyze(config_path).read_text())
    assert report["config"] == ANALYZE_DOC
    assert result_json(replay_report(report)) \
        == json.dumps(report["result"], indent=2, sort_keys=True)


def test_analysis_report_to_json_is_strict_json():
    """AnalysisReport.to_json writes a residual past the float range as
    null, as a report's result section does."""
    spec = AnalysisSpec(recipes=(OlsRecipe(),), targets=(1e200,),
                        search=OsgaParams(population_size=10,
                                          max_evaluations=60,
                                          crossover_kind="simulated-binary"))
    data, truth = generate_benchmark(
        BenchmarkConfig(n_observations=60, n_features=6, n_relevant=2),
        seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = spec.run([partition(data, seed=0)], truth, seed=0)

    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    doc = json.loads(report.to_json(), parse_constant=reject)
    assert doc["ranked"][0]["residual"] is None


def test_analyze_via_main(tmp_path, capsys):
    config_path = tmp_path / "analysis.yaml"
    config_path.write_text(yaml.safe_dump(ANALYZE_DOC, sort_keys=False))
    out_path = tmp_path / "analysis.report.json"
    assert main(["analyze", "--config", str(config_path),
                 "--out", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert doc["result"]["ranked"][0]["models"] == ["ols"]
    assert "wrote" in capsys.readouterr().out


def test_analyze_constant_input_needs_explicit_bounds(tmp_path, capsys):
    rng = np.random.default_rng(0)
    x0 = rng.uniform(-1.0, 1.0, 80)
    lines = ["x0,x1,y"] + [f"{a:.17g},2.0,{3.0 * a:.17g}" for a in x0]
    csv_path = tmp_path / "constant.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    doc = {**ANALYZE_DOC, "datasets": [{"csv": {"path": str(csv_path)}}],
           "task": {"targets": [1.0]}}
    config_path = tmp_path / "analysis.yaml"
    config_path.write_text(yaml.safe_dump(doc, sort_keys=False))
    assert main(["analyze", "--config", str(config_path),
                 "--out", str(tmp_path / "report.json")]) == 2
    err = capsys.readouterr().err
    assert "task.bounds" in err
    assert "'x1' is constant" in err


def test_input_constant_on_the_search_rows_needs_explicit_bounds():
    """Bounds come from the train and validation rows only, so an input
    that varies on the test rows alone has no range to search."""
    rng = np.random.default_rng(0)
    shape = partition(Dataset(np.zeros((40, 2)), np.zeros(40), ("x0", "x1")),
                      seed=0)
    X = np.column_stack([rng.uniform(-1.0, 1.0, 40), np.full(40, 2.0)])
    X[shape.test_indices, 1] = rng.uniform(-5.0, 5.0, shape.sizes[2])
    p = PartitionedDataset(Dataset(X, X[:, 0].copy(), ("x0", "x1")),
                           shape.train_indices, shape.validation_indices,
                           shape.test_indices)
    assert np.ptp(p.test_xy()[0][:, 1]) > 0.0
    spec = AnalysisSpec(targets=(1.0,), free_inputs="all")
    with pytest.raises(ConfigFileError,
                       match="^task.bounds: input 'x1' is constant"):
        spec.task_for([p], None)
    bounded = replace(spec, bounds=((-1.0, 1.0), (-5.0, 5.0)))
    assert bounded.task_for([p], None).input_names == ("x0", "x1")


# ---------------------------------------------------------------------------
# Shipped example config

def test_shipped_example_config_runs_to_report(tmp_path):
    """The example config in demos/ executes end to end and produces the
    final search result at the selector sink, and its report replays.
    Full-size search, a few seconds of runtime."""
    config_path = REPO_ROOT / "demos" / "feature_selection_network.yaml"
    out = cmd_run(config_path, tmp_path / "example.report.json")
    doc = json.loads(out.read_text())
    results = doc["result"]["sinks"]["selector.result"]
    assert len(results) == 1
    assert results[0]["type"] == "run-result"
    assert results[0]["evaluations"] <= 25000
    best = results[0]["best"]["genome"]
    assert len(best) == 100
    assert doc["config"] == yaml.safe_load(config_path.read_text())
    assert replay_report(doc).to_doc()["result"] == doc["result"]


def test_shipped_analyze_config_runs_to_report(tmp_path, capsys):
    """The analyze example in demos/ runs through the CLI, embeds the
    document as given, and its report replays."""
    config_path = REPO_ROOT / "demos" / "optimization_analysis.yaml"
    out_path = tmp_path / "analysis.report.json"
    assert main(["analyze", "--config", str(config_path),
                 "--out", str(out_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    doc = json.loads(out_path.read_text())
    assert doc["config"] == yaml.safe_load(config_path.read_text())
    ranked = doc["result"]["ranked"]
    assert ranked[0]["inputs"]["x5"] == 0.0
    assert replay_report(doc).to_doc()["result"] == doc["result"]


# ---------------------------------------------------------------------------
# One config schema for run, benchmark and analyze documents

def _with(doc, path, value):
    """A deep copy of doc with the value at path replaced."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) \
            else node[key]
    node[path[-1]] = value
    return doc


BENCH_DOC = {"seeds": [0], "methods": ["full-ols"], "benchmark": TINY_BENCH}
RUN_DOC = yaml.safe_load(RUN_CONFIG_YAML)

_NET = RUN_DOC["network"]
# networks the engine's wiring rules refuse: (network block, field, problem)
WIRING_FAULTS = [
    ({**_NET, "connections": _NET["connections"][:3]
      + ["selector.result -> selector.quality"]},
     "network.connections[3]", "KindMismatch: selector.result -> "
     "selector.quality: 'run-result' flows into 'scalar-quality-batch'"),
    ({**_NET, "connections": _NET["connections"]
      + ["selector.mask -> orchestrator.mask"]},
     "network.connections[4]", "DuplicateWriter: input orchestrator.mask"),
    ({**_NET, "nodes": {**_NET["nodes"], "twin": {"kind": "ols-model"}},
      "connections": _NET["connections"]
      + ["orchestrator.problem -> twin.problem"]},
     "network.connections[4]", "DuplicateRoute: output orchestrator.problem"),
    ({**_NET, "entry": "nope"}, "network.entry",
     "entry node 'nope' is not in the topology"),
    ({**_NET, "entry": "orchestrator"}, "network.entry",
     "entry node 'orchestrator' takes no entry payload"),
]

BAD_VALUES = [
    ("benchmark", BENCH_DOC, ("workers",), "abc", "workers"),
    ("benchmark", BENCH_DOC, ("seeds",), ["a"], "seeds[0]"),
    ("benchmark", BENCH_DOC, ("benchmark", "n_features"), "ten",
     "benchmark.n_features"),
    ("benchmark", BENCH_DOC, ("elastic-net", "penalties"), 0.5,
     "elastic-net.penalties"),
    ("benchmark", BENCH_DOC, ("nested", "sample_ratios"), 0.5,
     "nested.sample_ratios"),
    ("benchmark", BENCH_DOC, ("analysis", "targets"), 3.0,
     "analysis.targets"),
    ("benchmark", BENCH_DOC, ("analysis", "recipes"), "ols",
     "analysis.recipes"),
    ("benchmark", BENCH_DOC, ("analysis", "recipes"), {"kind": "ols"},
     "analysis.recipes"),
    ("analyze", ANALYZE_DOC, ("seed",), "x", "seed"),
    ("analyze", ANALYZE_DOC, ("task", "targets"), 3.0, "task.targets"),
    ("analyze", ANALYZE_DOC, ("recipes",), "ols", "recipes"),
    ("analyze", ANALYZE_DOC, ("recipes",), {"kind": "ols"}, "recipes"),
    ("run", RUN_DOC, ("workers",), "abc", "workers"),
    ("run", RUN_DOC, ("data", "partition", "ratios"), ["a", "b", "c"],
     "data.partition.ratios[0]"),
    ("run", RUN_DOC, ("data", "benchmark", "n_features"), "ten",
     "data.benchmark.n_features"),
    ("run", RUN_DOC, ("network", "nodes", "selector", "population_size"),
     "x", "network.nodes.selector.population_size"),
    ("run", RUN_DOC,
     ("network", "nodes", "orchestrator", "penalty_per_feature"), "x",
     "network.nodes.orchestrator.penalty_per_feature"),
    # values of the right type that no run could use
    ("run", RUN_DOC, ("network", "nodes", "selector", "crossover_kind"),
     "bogus", "network.nodes.selector"),
    ("benchmark", BENCH_DOC, ("fs-network", "crossover_kind"), "arithmetic",
     "fs-network"),
    ("benchmark", BENCH_DOC, ("analysis", "search", "crossover_kind"),
     "single-point", "analysis.search"),
    ("benchmark", BENCH_DOC, ("nested",),
     {"search": "osga", "osga": {"crossover_kind": "single-point"}},
     "nested.osga"),
    ("benchmark", BENCH_DOC, ("analysis", "recipes"),
     [{"kind": "feature-selection", "crossover_kind": "arithmetic"}],
     "analysis.recipes[0].feature-selection"),
    ("benchmark", BENCH_DOC, ("analysis", "subset_size"), 3,
     "analysis.subset_size"),
    ("analyze", ANALYZE_DOC, ("search", "crossover_kind"), "single-point",
     "search"),
    ("analyze", ANALYZE_DOC, ("subset_size",), 0, "subset_size"),
    ("analyze", ANALYZE_DOC, ("subset_size",), 2, "subset_size"),
    ("analyze", ANALYZE_DOC, ("task", "bounds"), [[1.0, 0.0]],
     "task.bounds[0]"),
    ("analyze", ANALYZE_DOC, ("task", "bounds"), [[0.0, 1.0], [2.0, 2.0]],
     "task.bounds[1]"),
    ("analyze", ANALYZE_DOC, ("task", "bounds"), [[0.0, float("inf")]],
     "task.bounds[0]"),
    ("run", RUN_DOC, ("data",), {"csv": {"path": [1, 2]}}, "data.csv.path"),
    ("run", RUN_DOC, ("data", "partition", "ratios"), [0.5, 0.5, 0.5],
     "data.partition"),
    ("run", RUN_DOC, ("network", "entry"), 5, "network.entry"),
    ("run", RUN_DOC, ("network", "termination", "sinks"),
     ["orchestrator.problem"], "network.termination.sinks"),
    # search budgets too small for the initial population
    ("run", RUN_DOC, ("network", "nodes", "selector"),
     {"kind": "feature-selection", "max_evaluations": 10,
      "population_size": 20}, "network.nodes.selector"),
    ("analyze", ANALYZE_DOC, ("search",),
     {"population_size": 50, "max_evaluations": 10}, "search"),
    ("benchmark", BENCH_DOC, ("nested",), {"search": "osga", "budget": 4},
     "nested"),
    # search settings that never fire
    ("run", RUN_DOC, ("network", "nodes", "selector",
                      "max_selection_pressure"), float("nan"),
     "network.nodes.selector"),
    ("run", RUN_DOC, ("network", "nodes", "selector", "target_fitness"),
     float("nan"), "network.nodes.selector"),
    # analysis tasks no search can meet or report
    ("benchmark", BENCH_DOC, ("analysis", "targets"), [float("nan")],
     "analysis.targets"),
    ("analyze", ANALYZE_DOC, ("task", "targets"), [float("nan")],
     "task.targets"),
    ("analyze", ANALYZE_DOC, ("task", "targets"), [1.0, float("inf")],
     "task.targets"),
    ("analyze", ANALYZE_DOC, ("task", "fixed"), {"x0": float("nan")},
     "task.fixed"),
    ("analyze", ANALYZE_DOC, ("task", "input_names"),
     ["x0", "x1", "x2", "x0"], "task.input_names"),
    # an empty pool or target list is not the default one
    ("benchmark", BENCH_DOC, ("analysis", "recipes"), [], "analysis.recipes"),
    ("analyze", ANALYZE_DOC, ("recipes",), [], "recipes"),
    ("benchmark", BENCH_DOC, ("analysis", "targets"), [], "analysis.targets"),
    ("analyze", ANALYZE_DOC, ("task", "targets"), [], "task.targets"),
    # a NaN penalty would make every fitness +inf
    ("run", RUN_DOC,
     ("network", "nodes", "orchestrator", "penalty_per_feature"),
     float("nan"), "network.nodes.orchestrator"),
    # no engine runs on zero workers
    ("run", RUN_DOC, ("workers",), 0, "workers"),
    ("analyze", ANALYZE_DOC, ("workers",), 0, "workers"),
    ("benchmark", BENCH_DOC, ("workers",), 0, "workers"),
    # every number in a document is finite, so its report is strict JSON
    ("run", RUN_DOC, ("network", "nodes", "selector",
                      "max_selection_pressure"), float("inf"),
     "network.nodes.selector"),
    ("run", RUN_DOC, ("network", "nodes", "selector", "target_fitness"),
     float("-inf"), "network.nodes.selector"),
    ("run", RUN_DOC,
     ("network", "nodes", "orchestrator", "penalty_per_feature"),
     float("inf"), "network.nodes.orchestrator"),
    ("benchmark", BENCH_DOC, ("elastic-net", "penalties"),
     [0.1, float("inf")], "elastic-net"),
    ("run", RUN_DOC, ("data", "benchmark", "weight_high"), float("inf"),
     "data.benchmark"),
    # an integer too large for a float is not a float
    ("run", RUN_DOC, ("data", "partition", "ratios"), [10**400, 0, 0],
     "data.partition.ratios[0]"),
    pytest.param("run", RUN_DOC, ("data", "benchmark", "weight_high"),
                 10**400, "data.benchmark.weight_high",
                 id="run-weight_high-10**400"),
    # a benchmark table has one row per method and seed
    ("benchmark", BENCH_DOC, ("methods",), ["full-ols", "full-ols"],
     "methods"),
    # nested settings that no forest takes
    ("benchmark", BENCH_DOC, ("nested", "n_trees_options"), [0], "nested"),
    ("benchmark", BENCH_DOC, ("nested", "sample_ratios"), [1.5], "nested"),
    ("benchmark", BENCH_DOC, ("nested",),
     {"search": "osga", "sample_ratio_bounds": [1.0, 0.3]}, "nested"),
    ("benchmark", BENCH_DOC, ("nested",),
     {"search": "osga", "n_trees_bounds": [0, 5]}, "nested"),
    # networks no engine could start: refused before any data is made
    ("run", RUN_DOC, ("network", "termination"), {"budget": 0},
     "network.termination"),
    ("run", RUN_DOC, ("network", "entry"), "nope", "network.entry"),
    ("run", RUN_DOC, ("network", "connections"),
     RUN_DOC["network"]["connections"] + ["selector.mask -> nope.mask"],
     "network.connections[4]"),
    ("run", RUN_DOC, ("network", "connections"),
     ["nope.mask -> orchestrator.mask"], "network.connections[0]"),
    # analysis tasks whose names or counts do not match, refused before
    # any pool is fitted
    ("analyze", ANALYZE_DOC, ("task", "targets"), [1.0, 2.0],
     "task.targets"),
    ("analyze", ANALYZE_DOC, ("task", "bounds"), [[0.0, 1.0]], "task.bounds"),
    ("analyze", ANALYZE_DOC, ("task", "fixed"), {"nope": 1.0}, "task.fixed"),
    ("benchmark", BENCH_DOC, ("analysis", "free_inputs"), ["nope"],
     "analysis.free_inputs"),
    # ports the connected node does not have, refused before any data is
    # made
    ("run", RUN_DOC, ("network", "connections"),
     RUN_DOC["network"]["connections"]
     + ["selector.nope -> orchestrator.mask"], "network.connections[4]"),
    ("run", RUN_DOC, ("network", "connections"),
     ["selector.mask -> orchestrator.nope"], "network.connections[0]"),
    # a benchmark table needs a seed to have rows
    ("benchmark", BENCH_DOC, ("seeds",), [], "seeds"),
    # wiring that Topology.validate or Topology.entry_node refuses
    *[("run", RUN_DOC, ("network",), network, field)
      for network, field, _ in WIRING_FAULTS],
]


@pytest.mark.parametrize("command, base, path, value, field", BAD_VALUES)
def test_wrong_typed_value_exits_2_naming_the_field(
        tmp_path, capsys, command, base, path, value, field):
    config_path = tmp_path / "bad.yaml"
    config_path.write_text(yaml.safe_dump(_with(base, path, value)))
    assert main([command, "--config", str(config_path),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"{field}: " in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("network, field, problem", WIRING_FAULTS, ids=[
    "kind mismatch", "duplicate writer", "output wired twice",
    "undeclared entry", "entry without handle_entry"])
def test_wiring_faults_stop_before_any_data_is_made(
        tmp_path, capsys, monkeypatch, network, field, problem):
    def no_data(*args, **kwargs):
        raise AssertionError("data was loaded")
    monkeypatch.setattr(optnet.netconfig, "load_experiment_data", no_data)
    config_path = tmp_path / "bad.yaml"
    config_path.write_text(yaml.safe_dump({**RUN_DOC, "network": network}))
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: {problem}")


def test_a_wired_termination_sink_stops_before_any_data_is_made(
        tmp_path, capsys, monkeypatch):
    def no_data(*args, **kwargs):
        raise AssertionError("data was loaded")
    monkeypatch.setattr(optnet.netconfig, "load_experiment_data", no_data)
    config_path = tmp_path / "bad.yaml"
    config_path.write_text(yaml.safe_dump(_with(
        RUN_DOC, ("network", "termination", "sinks"),
        ["orchestrator.quality"])))
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "config error: network.termination.sinks: termination waits on "
        "orchestrator.quality, which is not an unconnected output port")


@pytest.mark.parametrize("task, field", [
    ({"targets": [1.0, 2.0]}, "task.targets"),
    ({"targets": [1.0], "bounds": [[0.0, 1.0]]}, "task.bounds"),
    ({"targets": [1.0], "fixed": {"nope": 1.0}}, "task.fixed"),
])
def test_analysis_task_faults_stop_before_any_pool_is_fitted(
        monkeypatch, task, field):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was fitted")
    monkeypatch.setattr(optnet.analysis, "build_model_pool", no_pool)
    with pytest.raises(ConfigFileError, match=f"^{field}: "):
        run_analysis({**ANALYZE_DOC, "task": task})


@pytest.mark.parametrize("recipes", ["ols", {"kind": "ols"}])
def test_recipes_must_be_a_list(recipes):
    with pytest.raises(ConfigFileError, match="recipes: must be a list"):
        experiment_config_from_doc({"analysis": {"recipes": recipes}})
    with pytest.raises(ConfigFileError, match="recipes: must be a list"):
        analyze_config_from_doc({**ANALYZE_DOC, "recipes": recipes})


@pytest.mark.parametrize("command, doc", [("benchmark", BENCH_DOC),
                                          ("analyze", ANALYZE_DOC),
                                          ("run", RUN_DOC)])
def test_truncated_yaml_reports_its_line(tmp_path, capsys, command, doc):
    text = yaml.safe_dump(doc, default_flow_style=True, width=40)
    assert text.count("\n") > 2
    config_path = tmp_path / "cut.yaml"
    config_path.write_text(text[:len(text) // 2])
    assert main([command, "--config", str(config_path)]) == 2
    assert "config error: invalid YAML at line" in capsys.readouterr().err


@pytest.mark.parametrize("text, line, key", [
    ("seed: 1\n" + RUN_CONFIG_YAML, 2, "seed"),
    (RUN_CONFIG_YAML.replace("    model:\n      kind: ols-model\n",
                             "    model:\n      kind: ols-model\n" * 2),
     22, "model"),
], ids=["top level", "network.nodes"])
def test_a_repeated_yaml_key_is_refused_with_its_line(tmp_path, capsys, text,
                                                      line, key):
    config_path = tmp_path / "repeated.yaml"
    config_path.write_text(text)
    assert main(["run", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: invalid YAML at line {line}: " in err
    assert f"duplicate key {key!r}" in err


def test_method_table_covers_every_method_name():
    assert set(METHODS) == set(METHOD_NAMES)
    assert set(DEFAULT_METHODS) <= set(METHOD_NAMES)


def test_import_optnet_does_not_load_cli():
    code = "import sys, optnet; print('optnet.cli' in sys.modules)"
    env = {**os.environ,
           "PYTHONPATH": str(Path(optnet.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_python_dash_m_optnet_runs_main(tmp_path):
    env = {**os.environ,
           "PYTHONPATH": str(Path(optnet.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "optnet", "run", "--config",
         str(tmp_path / "missing.yaml")], env=env, capture_output=True,
        text=True)
    assert done.returncode == 2
    assert done.stderr.startswith("config error: cannot read config")


def _leaf_paths(doc, prefix=()):
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [prefix]
    return [p for k, v in items for p in _leaf_paths(v, prefix + (k,))]


_YAML_SCALARS = st.one_of(st.text(max_size=6), st.integers(), st.floats(),
                          st.booleans(), st.none())
YAML_VALUES = st.one_of(
    _YAML_SCALARS, st.lists(_YAML_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=6), _YAML_SCALARS, max_size=3))

KNOWN_GOOD = {
    "run": (yaml.safe_load(
        (REPO_ROOT / "demos" / "feature_selection_network.yaml").read_text()),
        run_config_from_doc),
    "benchmark": (FULL_EXPERIMENT_DOC, experiment_config_from_doc),
    "analyze": (ANALYZE_DOC, analyze_config_from_doc),
}


@pytest.mark.parametrize("kind", sorted(KNOWN_GOOD))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_leaf_of_any_yaml_type_parses_or_is_a_config_error(kind, data):
    """Parsing never runs anything, and a bad value is always a config
    error, never a raw Python exception."""
    doc, parse = KNOWN_GOOD[kind]
    path = data.draw(st.sampled_from(_leaf_paths(doc)), label="path")
    value = data.draw(YAML_VALUES, label="value")
    changed = _with(doc, path, value)
    try:
        parse(changed)
    except (ConfigFileError, InvalidConfigError):
        return
    # a document that parses embeds in its report as strict JSON
    json.dumps(changed, allow_nan=False)


def test_benchmark_workers_flag_below_one_exits_2(tmp_path, capsys):
    config_path = tmp_path / "bench.yaml"
    config_path.write_text(yaml.safe_dump(BENCH_DOC))
    assert main(["benchmark", "--config", str(config_path),
                 "--workers", "0"]) == 2
    assert "config error: workers: must be at least 1" \
        in capsys.readouterr().err


_TINY_DATA, _TINY_TRUTH = generate_benchmark(BenchmarkConfig(**TINY_BENCH),
                                             seed=0)
_TINY_PARTITIONED = partition(_TINY_DATA, seed=0)
_RECIPE_DOCS = ["ols", {"kind": "elastic-net"},
                {"kind": "random-forest", "n_trees": 2}]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_benchmark_block_and_analyze_document_build_the_same_task(data):
    """A benchmark analysis block with free_inputs, and an analyze
    document that fixes the other inputs at 0, read into one analysis."""
    recipes = data.draw(st.lists(st.sampled_from(_RECIPE_DOCS), min_size=1,
                                 max_size=4), label="recipes")
    subset_size = data.draw(st.integers(1, len(recipes)), label="subset")
    targets = data.draw(st.lists(_FINITE, min_size=1, max_size=3),
                        label="targets")
    population = data.draw(st.integers(2, 20), label="population")
    search = {"population_size": population,
              "max_evaluations": 10 * population,
              "crossover_kind": "simulated-binary"}
    names = list(_TINY_DATA.feature_names)
    free = data.draw(st.lists(st.sampled_from(names), min_size=1,
                              unique=True), label="free")
    shared = {"recipes": recipes, "subset_size": subset_size,
              "search": search}
    bench = experiment_config_from_doc(
        {"analysis": {**shared, "targets": targets, "free_inputs": free}})
    analyze = analyze_config_from_doc(
        {**shared, "datasets": ANALYZE_DOC["datasets"],
         "task": {"targets": targets,
                  "fixed": {n: 0.0 for n in names if n not in free}}})
    a, b = bench.analysis, analyze.analysis
    assert isinstance(a, AnalysisSpec) and isinstance(b, AnalysisSpec)
    assert (a.recipes, a.subset_size, a.search) \
        == (b.recipes, b.subset_size, b.search)
    datasets = [_TINY_PARTITIONED] * len(targets)
    task_a = a.task_for(datasets, _TINY_TRUTH)
    task_b = b.task_for(datasets, None)
    assert task_a.input_names == task_b.input_names
    np.testing.assert_array_equal(task_a.bounds, task_b.bounds)
    assert task_a.target_outputs == task_b.target_outputs
    assert task_a.fixed_inputs == task_b.fixed_inputs
