"""Command-line front end.

Four subcommands: `generate` writes a synthetic dataset with its
ground-truth sidecar, `benchmark` compares the configured methods over
a list of seeds, `run` executes a declarative network config, and
`analyze` runs the model-pool input-optimization pipeline. Exit codes:
0 success, 2 bad configuration, 3 runtime failure.

Five benchmark methods are analysis recipes run through Recipe.fit, the
call the analysis model pool makes: `full-ols`, `elastic-net-grid`
(the config's `elastic-net` recipe), and `fs-network-ols`,
`fs-network-rf` and `nested-rf` (its `fs-network` recipe with an OLS,
forest or nested-tuning model node). `oracle-ols` refits on the true
features, and `optimization-analysis` runs the whole pipeline.
"""

from __future__ import annotations

import argparse
import csv as _csv
import io
import sys
import time
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from .analysis import OlsRecipe
from .data import (
    BenchmarkConfig,
    FeatureMask,
    GroundTruth,
    generate_benchmark,
    partition,
    save_csv,
    save_ground_truth,
)
from .errors import ConfigFileError, InvalidConfigError, OptnetError
from .linear import fit_ols, mae, predict
from .netconfig import (
    ExperimentConfig,
    experiment_config_from_doc,
    load_config_doc,
    run_analysis,
    run_configured,
)
from .networks import InnerTuningModelNode


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
# Benchmark methods

@dataclass
class MethodOutcome:
    test_mae: float
    n_features: int
    correct_features: int | None
    evaluations: int


def _correct_features(model, base_names,
                      truth: GroundTruth | None) -> int | None:
    """How many truth indices are among the features the model uses: the
    names it holds, less those a linear model weighs zero."""
    if truth is None:
        return None
    weights = getattr(model, "weights", np.ones(len(model.feature_names)))
    used = {base_names.index(n)
            for n, w in zip(model.feature_names, weights) if w != 0.0}
    return len(used & set(truth.true_indices))


def _recipe_method(recipe_for):
    """A method that fits the recipe recipe_for(cfg) returns."""
    def method(partitioned, truth, cfg, seed):
        fitted, evaluations = recipe_for(cfg).fit(partitioned, seed,
                                                  cfg.workers)
        return MethodOutcome(
            fitted.test_mae, fitted.n_features,
            _correct_features(fitted.model, partitioned.base.feature_names,
                              truth),
            evaluations)
    return method


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


def _method_analysis(partitioned, truth, cfg, seed):
    spec = cfg.analysis
    n_outputs = 1 if spec.targets is None else len(spec.targets)
    report = spec.run([partitioned] * n_outputs, truth, seed, cfg.workers)
    combo, best = report.ranked[0]
    first = combo[0].result
    return MethodOutcome(first.test_mae, first.n_features, None,
                         best.evaluations)


METHODS = {
    "full-ols": _recipe_method(lambda cfg: OlsRecipe()),
    "oracle-ols": _method_oracle_ols,
    "elastic-net-grid": _recipe_method(lambda cfg: cfg.elastic_net),
    "fs-network-ols": _recipe_method(lambda cfg: cfg.fs_network),
    "fs-network-rf": _recipe_method(
        lambda cfg: replace(cfg.fs_network, model=cfg.forest)),
    "nested-rf": _recipe_method(lambda cfg: replace(
        cfg.fs_network,
        model=InnerTuningModelNode("model", cfg.inner_search))),
    "optimization-analysis": _method_analysis,
}


# ---------------------------------------------------------------------------
# Subcommands

def cmd_generate(bench: BenchmarkConfig, out_path,
                 seed: int = 0) -> list[Path]:
    """Write dataset CSV, ground-truth sidecar, and a config echo: out
    as <stem>.csv, <stem>.truth.json and <stem>.config.yaml when it names
    a .csv file, else dataset.* inside the directory out."""
    out = Path(out_path)
    if out.suffix == ".csv":
        folder, stem = out.parent, out.stem
    else:
        out.mkdir(parents=True, exist_ok=True)
        folder, stem = out, "dataset"
    dataset, truth = generate_benchmark(bench, seed=seed)
    csv_path, truth_path, echo_path = (
        folder / (stem + ext)
        for ext in (".csv", ".truth.json", ".config.yaml"))
    save_csv(dataset, csv_path)
    save_ground_truth(truth, truth_path, seed=seed, config=bench)
    echo = {
        "seed": seed,
        "benchmark": asdict(bench),
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


def cmd_report(run, config_path, out_path=None, seed: int | None = None,
               workers: int | None = None) -> Path:
    """Run the document at config_path with run (run_configured or
    run_analysis) and write its report. Overrides are written into the
    document, so the embedded config replays exactly what ran."""
    doc = load_config_doc(config_path)
    if seed is not None:
        doc["seed"] = seed
    if workers is not None:
        doc["workers"] = workers
    out = Path(config_path).with_suffix(".report.json") if out_path is None \
        else Path(out_path)
    run(doc).save(out)
    return out


#: execute a declarative network config and write its report
cmd_run = partial(cmd_report, run_configured)
#: run the analysis an analyze config describes and write its report
cmd_analyze = partial(cmd_report, run_analysis)


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
    p_run.set_defaults(func=_main_report(cmd_run))

    p_an = sub.add_parser("analyze",
                          help="model pool + input optimization")
    common(p_an, needs_config=True)
    p_an.set_defaults(func=_main_report(cmd_analyze))
    return parser


def _load_experiment_config(args) -> ExperimentConfig:
    if args.config is None:
        cfg = ExperimentConfig()
    else:
        cfg = experiment_config_from_doc(load_config_doc(args.config))
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    return cfg


def _main_generate(args) -> int:
    cfg = _load_experiment_config(args)
    seed = args.seed if args.seed is not None else cfg.seeds[0]
    paths = cmd_generate(cfg.benchmark, args.out or "dataset", seed=seed)
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


def _main_report(cmd):
    def main_cmd(args) -> int:
        print(f"wrote {cmd(args.config, args.out, args.seed, args.workers)}")
        return 0
    return main_cmd


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
