"""Command-line front end.

Four subcommands: `generate` writes a synthetic dataset with its
ground-truth sidecar, `benchmark` compares the configured methods over
a list of seeds, `run` executes a declarative network config, and
`analyze` runs the model-pool input-optimization pipeline. Exit codes:
0 success, 2 bad configuration, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv as _csv
import io
import json
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

from .analysis import (
    AnalysisTask,
    ElasticNetRecipe,
    FeatureSelectionRecipe,
    ForestRecipe,
    OlsRecipe,
    optimization_analysis_network,
)
from .data import (
    DEFAULT_PARTITION_RATIOS,
    BenchmarkConfig,
    FeatureMask,
    GroundTruth,
    PartitionedDataset,
    generate_benchmark,
    partition,
    save_csv,
    save_ground_truth,
)
from .errors import ConfigFileError, InvalidConfigError, OptnetError
from .forest import ForestConfig
from .linear import LinearModel, fit_ols, grid_search_elastic_net, mae, predict
from .netconfig import (
    _BENCH_KEYS,
    _FOREST_KEYS,
    _OSGA_KEYS,
    _check_keys,
    _mapping,
    _osga_params,
    _pick,
    data_spec_from_doc,
    inner_search_from_options,
    load_experiment_data,
    load_run_config_file,
    run_configured,
)
from .networks import (
    FitnessConfig,
    feature_selection_network,
    nested_tuning_network,
)
from .osga import OsgaParams

METHOD_NAMES = ("full-ols", "oracle-ols", "elastic-net-grid",
                "fs-network-ols", "fs-network-rf", "nested-rf",
                "optimization-analysis")
DEFAULT_METHODS = ("full-ols", "oracle-ols", "elastic-net-grid",
                   "fs-network-ols")


# ---------------------------------------------------------------------------
# Result table

@dataclass
class ResultRow:
    method: str
    seed: int
    test_mae: float
    n_features: int
    correct_features: int | None
    evaluations: int
    wall_time: float


class ResultTable:
    """One row per (method, seed) plus a side list of failures."""

    COLUMNS = ("method", "seed", "test_mae", "n_features",
               "correct_features", "evaluations", "wall_time")

    def __init__(self):
        self.rows: list[ResultRow] = []
        self.failures: list[tuple[str, int, str]] = []
        self._keys: set[tuple[str, int]] = set()

    def add(self, row: ResultRow) -> None:
        key = (row.method, row.seed)
        if key in self._keys:
            raise InvalidConfigError(f"duplicate table row for {key}")
        self._keys.add(key)
        self.rows.append(row)

    def add_failure(self, method: str, seed: int, message: str) -> None:
        self.failures.append((method, seed, message))
        self.add(ResultRow(method, seed, float("nan"), 0, None, 0, 0.0))

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = _csv.writer(out, lineterminator="\n")
        writer.writerow(self.COLUMNS)
        for r in self.rows:
            writer.writerow([
                r.method, r.seed, repr(float(r.test_mae)), r.n_features,
                "" if r.correct_features is None else r.correct_features,
                r.evaluations, repr(float(r.wall_time)),
            ])
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        reader = _csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None:
            raise ConfigFileError("table CSV is empty")
        if tuple(header) != cls.COLUMNS:
            raise ConfigFileError(f"unexpected table header {header!r}")
        table = cls()
        for row in reader:
            if not row:
                continue
            if len(row) != len(cls.COLUMNS):
                raise ConfigFileError(f"bad table row {row!r}")
            table.add(ResultRow(
                row[0], int(row[1]), float(row[2]), int(row[3]),
                None if row[4] == "" else int(row[4]), int(row[5]),
                float(row[6])))
        return table

    def format(self) -> str:
        headers = list(self.COLUMNS)
        body = []
        for r in self.rows:
            body.append([
                r.method, str(r.seed), f"{r.test_mae:.4f}",
                str(r.n_features),
                "" if r.correct_features is None else str(r.correct_features),
                str(r.evaluations), f"{r.wall_time:.2f}",
            ])
        widths = [max(len(h), *(len(b[i]) for b in body)) if body else len(h)
                  for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
        for b in body:
            lines.append("  ".join(
                cell.ljust(w) if i == 0 else cell.rjust(w)
                for i, (cell, w) in enumerate(zip(b, widths))))
        means = self._means()
        if means:
            lines.append("")
            lines.append("per-method means (failed rows excluded):")
            for method, (m_mae, m_evals, m_wall, n) in means.items():
                lines.append(
                    f"  {method}: test_mae {m_mae:.4f}  "
                    f"evaluations {m_evals:.0f}  wall_time {m_wall:.2f}s  "
                    f"over {n} seed(s)")
        for method, seed, message in self.failures:
            lines.append(f"  FAILED {method} seed {seed}: {message}")
        return "\n".join(lines)

    def _means(self) -> dict:
        grouped: dict[str, list[ResultRow]] = {}
        for r in self.rows:
            if not np.isnan(r.test_mae):
                grouped.setdefault(r.method, []).append(r)
        return {
            m: (float(np.mean([r.test_mae for r in rs])),
                float(np.mean([r.evaluations for r in rs])),
                float(np.mean([r.wall_time for r in rs])), len(rs))
            for m, rs in grouped.items()
        }


# ---------------------------------------------------------------------------
# Experiment config

@dataclass
class AnalysisBlock:
    """Settings for the optimization-analysis method and subcommand."""

    targets: tuple[float, ...] | None = None
    subset_size: int = 1
    recipes: tuple = ()
    search: OsgaParams | None = None
    free_inputs: object = "true"  # "true" | "all" | list of names


@dataclass
class ExperimentConfig:
    """Everything cmd_benchmark needs: seeds, methods, and their knobs."""

    seeds: tuple[int, ...] = (0,)
    methods: tuple[str, ...] = DEFAULT_METHODS
    benchmark: BenchmarkConfig = field(default_factory=BenchmarkConfig)
    ratios: tuple[float, float, float] = DEFAULT_PARTITION_RATIOS
    workers: int = 1
    fs_params: OsgaParams = field(default_factory=OsgaParams)
    penalty_per_feature: float | None = None
    init_one_probability: float = 0.1
    en_penalties: tuple[float, ...] | None = None
    en_l1_ratios: tuple[float, ...] | None = None
    forest: ForestConfig = field(
        default_factory=lambda: ForestConfig(n_trees=25))
    inner_search: object = None
    analysis: AnalysisBlock = field(default_factory=AnalysisBlock)

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
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigFileError("seeds must be unique", field="seeds")
        self.benchmark.validate()


_TOP_KEYS = ("seeds", "methods", "benchmark", "partition", "workers",
             "fs-network", "elastic-net", "forest", "nested", "analysis")


def experiment_config_from_doc(doc) -> ExperimentConfig:
    doc = _mapping(doc, "config")
    _check_keys(doc, _TOP_KEYS, "config")
    cfg = ExperimentConfig()
    if "seeds" in doc:
        seeds = doc["seeds"]
        if not isinstance(seeds, list):
            raise ConfigFileError("must be a list", field="seeds")
        cfg.seeds = tuple(int(s) for s in seeds)
    if "methods" in doc:
        methods = doc["methods"]
        if not isinstance(methods, list):
            raise ConfigFileError("must be a list", field="methods")
        cfg.methods = tuple(str(m) for m in methods)
    if "benchmark" in doc:
        b = _mapping(doc["benchmark"], "benchmark")
        _check_keys(b, _BENCH_KEYS, "benchmark")
        cfg.benchmark = BenchmarkConfig(**_pick(b, _BENCH_KEYS))
    if "partition" in doc:
        p = _mapping(doc["partition"], "partition")
        _check_keys(p, ("ratios",), "partition")
        if "ratios" in p:
            ratios = p["ratios"]
            if not isinstance(ratios, list) or len(ratios) != 3:
                raise ConfigFileError("ratios must be a 3-item list",
                                      field="partition")
            cfg.ratios = tuple(float(x) for x in ratios)
    if "workers" in doc:
        cfg.workers = int(doc["workers"])
    if "fs-network" in doc:
        fs = _mapping(doc["fs-network"], "fs-network")
        _check_keys(fs, _OSGA_KEYS + ("penalty_per_feature",
                                      "init_one_probability"), "fs-network")
        cfg.fs_params = _osga_params(fs)
        cfg.penalty_per_feature = fs.get("penalty_per_feature")
        cfg.init_one_probability = float(fs.get("init_one_probability", 0.1))
    if "elastic-net" in doc:
        en = _mapping(doc["elastic-net"], "elastic-net")
        _check_keys(en, ("penalties", "l1_ratios"), "elastic-net")
        if "penalties" in en:
            cfg.en_penalties = tuple(float(x) for x in en["penalties"])
        if "l1_ratios" in en:
            cfg.en_l1_ratios = tuple(float(x) for x in en["l1_ratios"])
    if "forest" in doc:
        f = _mapping(doc["forest"], "forest")
        _check_keys(f, _FOREST_KEYS, "forest")
        cfg.forest = ForestConfig(**_pick(f, _FOREST_KEYS))
    if "nested" in doc:
        n = _mapping(doc["nested"], "nested")
        _check_keys(n, ("search", "budget", "osga", "sample_ratios",
                        "feature_ratios", "n_trees_options",
                        "sample_ratio_bounds", "feature_ratio_bounds",
                        "n_trees_bounds"), "nested")
        cfg.inner_search = inner_search_from_options(n, "nested")
    if "analysis" in doc:
        cfg.analysis = _analysis_block_from_doc(doc["analysis"])
    cfg.validate()
    return cfg


def _analysis_block_from_doc(doc) -> AnalysisBlock:
    a = _mapping(doc, "analysis")
    _check_keys(a, ("targets", "subset_size", "recipes", "search",
                    "free_inputs"), "analysis")
    block = AnalysisBlock()
    if "targets" in a:
        block.targets = tuple(float(t) for t in a["targets"])
    if "subset_size" in a:
        block.subset_size = int(a["subset_size"])
    if "recipes" in a:
        block.recipes = tuple(recipe_from_doc(r) for r in a["recipes"])
    if "search" in a:
        s = _mapping(a["search"], "analysis.search")
        _check_keys(s, _OSGA_KEYS, "analysis.search")
        block.search = _osga_params(s)
    if "free_inputs" in a:
        fi = a["free_inputs"]
        if isinstance(fi, list):
            block.free_inputs = tuple(str(n) for n in fi)
        elif fi in ("true", "all"):
            block.free_inputs = fi
        else:
            raise ConfigFileError(
                "free_inputs must be 'true', 'all', or a name list",
                field="analysis.free_inputs")
    return block


_RECIPE_KINDS = ("ols", "elastic-net", "random-forest", "feature-selection")


def recipe_from_doc(doc):
    """A recipe is a kind string or a mapping with a 'kind' key."""
    if isinstance(doc, str):
        doc = {"kind": doc}
    doc = _mapping(doc, "recipe")
    kind = doc.get("kind")
    if kind == "ols":
        _check_keys(doc, ("kind",), "recipe.ols")
        return OlsRecipe()
    if kind == "elastic-net":
        _check_keys(doc, ("kind", "penalties", "l1_ratios"),
                    "recipe.elastic-net")
        pen = tuple(float(x) for x in doc["penalties"]) \
            if "penalties" in doc else None
        rat = tuple(float(x) for x in doc["l1_ratios"]) \
            if "l1_ratios" in doc else None
        return ElasticNetRecipe(pen, rat)
    if kind == "random-forest":
        _check_keys(doc, ("kind",) + _FOREST_KEYS, "recipe.random-forest")
        return ForestRecipe(ForestConfig(**_pick(doc, _FOREST_KEYS)))
    if kind == "feature-selection":
        _check_keys(doc, ("kind",) + _OSGA_KEYS + ("penalty_per_feature",),
                    "recipe.feature-selection")
        return FeatureSelectionRecipe(
            params=_osga_params(doc),
            fitness=FitnessConfig(doc.get("penalty_per_feature")))
    raise ConfigFileError(
        f"recipe kind must be one of {list(_RECIPE_KINDS)}, got {kind!r}")


# ---------------------------------------------------------------------------
# Benchmark methods

@dataclass
class MethodOutcome:
    test_mae: float
    n_features: int
    correct_features: int | None
    evaluations: int


def _correct_mask(mask: FeatureMask, truth: GroundTruth | None) -> int | None:
    if truth is None:
        return None
    return int(np.intersect1d(mask.indices,
                              np.array(truth.true_indices)).size)


def _correct_linear(model: LinearModel, base_names,
                    truth: GroundTruth | None) -> int | None:
    if truth is None:
        return None
    selected = {base_names.index(n)
                for n, w in zip(model.feature_names, model.weights)
                if w != 0.0}
    return len(selected & set(truth.true_indices))


def _method_full_ols(partitioned, truth, cfg, seed):
    X, y = partitioned.train_xy()
    model = fit_ols(X, y, partitioned.base.feature_names)
    Xt, yt = partitioned.test_xy()
    return MethodOutcome(
        mae(predict(model, Xt), yt), model.n_selected,
        _correct_linear(model, partitioned.base.feature_names, truth), 1)


def _method_oracle_ols(partitioned, truth, cfg, seed):
    if truth is None:
        raise InvalidConfigError("oracle-ols needs ground truth")
    mask = FeatureMask.from_indices(truth.true_indices,
                                    partitioned.base.n_features)
    keep = np.flatnonzero(mask.bits)
    names = tuple(partitioned.base.feature_names[i] for i in keep)
    X, y = partitioned.train_xy()
    model = fit_ols(X[:, keep], y, names)
    Xt, yt = partitioned.test_xy()
    return MethodOutcome(mae(predict(model, Xt[:, keep]), yt),
                         model.n_selected, len(truth.true_indices), 1)


def _method_elastic_net(partitioned, truth, cfg, seed):
    result = grid_search_elastic_net(partitioned, cfg.en_penalties,
                                     cfg.en_l1_ratios)
    return MethodOutcome(
        result.test_mae, result.best_model.n_selected,
        _correct_linear(result.best_model, partitioned.base.feature_names,
                        truth),
        sum(1 for c in result.cells if c.ok))


def _fs_outcome(result, truth) -> MethodOutcome:
    return MethodOutcome(result.best_model.test_mae,
                         result.best_mask.n_selected,
                         _correct_mask(result.best_mask, truth),
                         result.evaluations)


def _method_fs_ols(partitioned, truth, cfg, seed):
    result = feature_selection_network(
        partitioned, cfg.fs_params, FitnessConfig(cfg.penalty_per_feature),
        model="ols", seed=seed, workers=cfg.workers,
        init_one_probability=cfg.init_one_probability)
    return _fs_outcome(result, truth)


def _method_fs_rf(partitioned, truth, cfg, seed):
    result = feature_selection_network(
        partitioned, cfg.fs_params, FitnessConfig(cfg.penalty_per_feature),
        model=cfg.forest, seed=seed, workers=cfg.workers,
        init_one_probability=cfg.init_one_probability)
    return _fs_outcome(result, truth)


def _method_nested_rf(partitioned, truth, cfg, seed):
    result = nested_tuning_network(
        partitioned, cfg.fs_params, FitnessConfig(cfg.penalty_per_feature),
        inner=cfg.inner_search, seed=seed, workers=cfg.workers,
        init_one_probability=cfg.init_one_probability)
    return _fs_outcome(result, truth)


def _default_analysis_task(partitioned, truth,
                           block: AnalysisBlock) -> AnalysisTask:
    base = partitioned.base
    names = base.feature_names
    lo = base.features.min(axis=0)
    hi = base.features.max(axis=0)
    bounds = np.column_stack([lo, hi])
    if block.targets is not None:
        targets = block.targets
    else:
        _, y_train = partitioned.train_xy()
        targets = (float(np.mean(y_train) + np.std(y_train)),)
    if block.free_inputs == "all":
        fixed = {}
    elif block.free_inputs == "true":
        if truth is None:
            raise InvalidConfigError(
                "free_inputs 'true' needs ground truth; pass a name list")
        free = {names[i] for i in truth.true_indices}
        fixed = {n: 0.0 for n in names if n not in free}
    else:
        free = set(block.free_inputs)
        unknown = free - set(names)
        if unknown:
            raise ConfigFileError(
                f"free_inputs {sorted(unknown)} not in the dataset")
        fixed = {n: 0.0 for n in names if n not in free}
    return AnalysisTask(names, bounds, targets, fixed)


def _method_analysis(partitioned, truth, cfg, seed):
    block = cfg.analysis
    recipes = block.recipes or (
        OlsRecipe(), ForestRecipe(ForestConfig(n_trees=10, max_depth=8)))
    task = _default_analysis_task(partitioned, truth, block)
    report = optimization_analysis_network(
        [partitioned] * len(task.target_outputs), recipes,
        block.subset_size, task, block.search, seed=seed,
        workers=cfg.workers)
    combo, best = report.ranked[0]
    first = combo[0].result
    test = float("nan") if first.test_mae is None else first.test_mae
    return MethodOutcome(test, first.n_features, None, best.evaluations)


METHODS = {
    "full-ols": _method_full_ols,
    "oracle-ols": _method_oracle_ols,
    "elastic-net-grid": _method_elastic_net,
    "fs-network-ols": _method_fs_ols,
    "fs-network-rf": _method_fs_rf,
    "nested-rf": _method_nested_rf,
    "optimization-analysis": _method_analysis,
}


# ---------------------------------------------------------------------------
# Subcommands

def cmd_generate(config: ExperimentConfig | BenchmarkConfig, out_path,
                 seed: int = 0) -> list[Path]:
    """Write dataset CSV, ground-truth sidecar, and a config echo."""
    bench = config.benchmark if isinstance(config, ExperimentConfig) \
        else config
    out = Path(out_path)
    if out.suffix == ".csv":
        base = out.with_suffix("")
    else:
        out.mkdir(parents=True, exist_ok=True)
        base = out / "dataset"
    dataset, truth = generate_benchmark(bench, seed=seed)
    csv_path = base.with_suffix(".csv")
    truth_path = base.with_suffix(".truth.json")
    echo_path = base.with_suffix(".config.yaml")
    save_csv(dataset, csv_path)
    save_ground_truth(truth, truth_path, seed=seed, config=bench)
    echo = {
        "seed": seed,
        "benchmark": {f.name: getattr(bench, f.name)
                      for f in fields(BenchmarkConfig)},
    }
    echo_path.write_text(yaml.safe_dump(echo, sort_keys=False))
    return [csv_path, truth_path, echo_path]


def cmd_benchmark(config: ExperimentConfig) -> ResultTable:
    """Run every configured method on every seed; failures become
    flagged rows instead of aborting the sweep."""
    config.validate()
    table = ResultTable()
    for seed in config.seeds:
        dataset, truth = generate_benchmark(config.benchmark, seed=seed)
        partitioned = partition(dataset, config.ratios, seed=seed)
        for method in config.methods:
            started = time.perf_counter()
            try:
                outcome = METHODS[method](partitioned, truth, config, seed)
            except OptnetError as exc:
                table.add_failure(method, seed, str(exc))
                continue
            table.add(ResultRow(
                method, seed, outcome.test_mae, outcome.n_features,
                outcome.correct_features, outcome.evaluations,
                time.perf_counter() - started))
    return table


def cmd_run(config_path, out_path=None, seed: int | None = None,
            workers: int | None = None) -> Path:
    """Execute a declarative network config and write its report."""
    cfg = load_run_config_file(config_path)
    if seed is not None:
        cfg.seed = seed
    if workers is not None:
        cfg.workers = workers
    report = run_configured(cfg)
    out = Path(out_path) if out_path is not None \
        else Path(config_path).with_suffix(".report.json")
    report.save(out)
    return out


_ANALYZE_KEYS = ("seed", "workers", "subset_size", "datasets", "recipes",
                 "task", "search")


def analyze_from_doc(doc) -> dict:
    """Run the analysis pipeline a config document describes.

    Returns the full report document: embedded config, deterministic
    result section, and timing.
    """
    started = time.perf_counter()
    doc = _mapping(doc, "config")
    _check_keys(doc, _ANALYZE_KEYS, "config")
    seed = int(doc.get("seed", 0))
    workers = int(doc.get("workers", 1))
    subset_size = int(doc.get("subset_size", 1))
    if "datasets" not in doc or not isinstance(doc["datasets"], list) \
            or not doc["datasets"]:
        raise ConfigFileError("datasets must be a non-empty list",
                              field="datasets")
    loaded = [load_experiment_data(data_spec_from_doc(d, f"datasets[{i}]"),
                                   seed)
              for i, d in enumerate(doc["datasets"])]
    partitioned = [p for p, _ in loaded]
    recipes = tuple(recipe_from_doc(r) for r in doc.get("recipes", []))
    if not recipes:
        recipes = (OlsRecipe(),
                   ForestRecipe(ForestConfig(n_trees=10, max_depth=8)))

    t = _mapping(doc.get("task"), "task")
    _check_keys(t, ("input_names", "bounds", "targets", "fixed"), "task")
    if "targets" not in t:
        raise ConfigFileError("missing 'targets'", field="task")
    targets = tuple(float(x) for x in t["targets"])
    if "input_names" in t:
        input_names = tuple(str(n) for n in t["input_names"])
    else:
        input_names = partitioned[0].base.feature_names
    if "bounds" in t:
        bounds = np.asarray(t["bounds"], dtype=np.float64)
    else:
        bounds = _observed_bounds(partitioned, input_names)
    fixed = {str(k): float(v)
             for k, v in _mapping(t.get("fixed"), "task.fixed").items()}
    task = AnalysisTask(input_names, bounds, targets, fixed)

    search = None
    if "search" in doc:
        s = _mapping(doc["search"], "search")
        _check_keys(s, _OSGA_KEYS, "search")
        search = _osga_params(s)

    report = optimization_analysis_network(
        partitioned, recipes, subset_size, task, search,
        seed=seed, workers=workers)
    return {
        "config": doc,
        "result": report.to_json_dict(),
        "timing": {"wall_time": time.perf_counter() - started},
    }


def _observed_bounds(partitioned: list[PartitionedDataset],
                     input_names) -> np.ndarray:
    """Per-input [min, max] over every dataset that carries the input."""
    bounds = np.empty((len(input_names), 2))
    for i, name in enumerate(input_names):
        lo, hi = np.inf, -np.inf
        for p in partitioned:
            names = p.base.feature_names
            if name in names:
                col = p.base.features[:, names.index(name)]
                lo = min(lo, float(col.min()))
                hi = max(hi, float(col.max()))
        if not np.isfinite(lo):
            raise ConfigFileError(
                f"input {name!r} appears in no dataset; give explicit bounds",
                field="task.bounds")
        bounds[i] = (lo, hi)
    return bounds


def cmd_analyze(config_path, out_path=None, seed: int | None = None,
                workers: int | None = None) -> Path:
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigFileError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigFileError(f"invalid YAML: {exc}") from exc
    doc = _mapping(doc, "config")
    # overrides are baked into the embedded config so replays see them
    if seed is not None:
        doc["seed"] = seed
    if workers is not None:
        doc["workers"] = workers
    report_doc = analyze_from_doc(doc)
    out = Path(out_path) if out_path is not None \
        else Path(config_path).with_suffix(".report.json")
    out.write_text(json.dumps(report_doc, indent=2, sort_keys=True) + "\n")
    return out


# ---------------------------------------------------------------------------
# Argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optnet",
        description="Optimization networks: benchmark data, method "
                    "comparison, configured runs, and input optimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=False):
        p.add_argument("--seed", type=int, default=None,
                       help="master random seed (default 0)")
        p.add_argument("--workers", type=int, default=None,
                       help="engine worker count (default 1)")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--config", default=None, required=needs_config,
                       help="YAML config path")

    p_gen = sub.add_parser("generate",
                           help="write a synthetic dataset + sidecar")
    common(p_gen)
    p_gen.set_defaults(func=_main_generate)

    p_bench = sub.add_parser("benchmark",
                             help="compare methods over seeds")
    common(p_bench)
    p_bench.set_defaults(func=_main_benchmark)

    p_run = sub.add_parser("run", help="execute a network config")
    common(p_run, needs_config=True)
    p_run.set_defaults(func=_main_run)

    p_an = sub.add_parser("analyze",
                          help="model pool + input optimization")
    common(p_an, needs_config=True)
    p_an.set_defaults(func=_main_analyze)
    return parser


def _load_experiment_config(args) -> ExperimentConfig:
    if args.config is None:
        cfg = ExperimentConfig()
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                doc = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigFileError(f"cannot read config: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigFileError(f"invalid YAML: {exc}") from exc
        cfg = experiment_config_from_doc(doc)
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    return cfg


def _main_generate(args) -> int:
    cfg = _load_experiment_config(args)
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    paths = cmd_generate(cfg, args.out or "dataset", seed=seed)
    for p in paths:
        print(f"wrote {p}")
    return 0


def _main_benchmark(args) -> int:
    cfg = _load_experiment_config(args)
    table = cmd_benchmark(cfg)
    print(table.format())
    if args.out is not None:
        Path(args.out).write_text(table.to_csv())
        print(f"\nwrote {args.out}")
    return 0


def _main_run(args) -> int:
    out = cmd_run(args.config, args.out, args.seed, args.workers)
    print(f"wrote {out}")
    return 0


def _main_analyze(args) -> int:
    out = cmd_analyze(args.config, args.out, args.seed, args.workers)
    print(f"wrote {out}")
    return 0


CONFIG_ERRORS = (ConfigFileError, InvalidConfigError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OptnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
