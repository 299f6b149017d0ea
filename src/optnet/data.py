"""Datasets, synthetic benchmark generation, partitioning, and CSV I/O.

The benchmark generator draws a design matrix of independent standard
normal features, picks a small subset of them as informative, assigns
each informative feature a uniform random weight, and adds Gaussian
noise scaled so that a configured fraction of the target variance is
unexplainable. The ground truth (which features, which weights, what
noise level) is kept alongside the dataset so experiments can score
recovered feature sets.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ._rng import substream
from .errors import (
    ConfigFileError,
    CsvParseError,
    EmptyInputError,
    InvalidConfigError,
    MissingTargetError,
    NonNumericCellError,
    ShapeMismatchError,
)

#: Fraction of rows assigned to (train, validation, test).
DEFAULT_PARTITION_RATIOS = (0.25, 0.375, 0.375)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def checked_design(features, target, caller: str):
    """features and target as float arrays, after the one design check
    of Dataset and every fitter, each fault led by caller's name: a 2-d
    X, a 1-d y, one target per row, at least one row, finite values."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatchError(f"{caller}: features must be 2-d")
    if y.ndim != 1:
        raise ShapeMismatchError(f"{caller}: target must be 1-d")
    if X.shape[0] != y.shape[0]:
        raise ShapeMismatchError(f"{caller}: {len(X)} rows, {len(y)} targets")
    if X.shape[0] == 0:
        raise EmptyInputError(f"{caller}: needs at least one row")
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise InvalidConfigError(f"{caller}: values must be finite")
    return X, y


def checked_width(features, n_features: int, caller: str) -> np.ndarray:
    """features as a float array, after the one width check of every
    predictor: 2-d with n_features columns."""
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ShapeMismatchError(f"{caller}: expected (n, {n_features}) "
                                 f"features, got shape {X.shape}")
    return X


@dataclass(frozen=True)
class Dataset:
    """An immutable feature matrix with a target vector and column names."""

    features: np.ndarray
    target: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self):
        X, y = checked_design(self.features, self.target, "Dataset")
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != X.shape[1]:
            raise ShapeMismatchError(
                f"{len(names)} feature names for {X.shape[1]} columns")
        if len(set(names)) != len(names):
            raise InvalidConfigError("feature names must be unique")
        # freeze a copy of an array the caller can still write to
        for name, a in (("features", X), ("target", y)):
            if a is getattr(self, name) and a.flags.writeable:
                a = a.copy()
            object.__setattr__(self, name, _readonly(a))
        object.__setattr__(self, "feature_names", names)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.feature_names == other.feature_names
                and np.array_equal(self.features, other.features)
                and np.array_equal(self.target, other.target))

    def __hash__(self):
        return hash((self.feature_names, self.features.shape))


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Which features carry signal, their weights, and the noise level."""

    true_indices: tuple[int, ...]
    true_weights: np.ndarray
    noise_sigma: float

    def __post_init__(self):
        w = _readonly(np.asarray(self.true_weights, dtype=np.float64))
        idx = tuple(int(i) for i in self.true_indices)
        if len(idx) != w.shape[0]:
            raise ShapeMismatchError(
                f"{len(idx)} indices but {w.shape[0]} weights")
        object.__setattr__(self, "true_weights", w)
        object.__setattr__(self, "true_indices", idx)


@dataclass
class BenchmarkConfig:
    """Parameters of the synthetic regression benchmark.

    noise_variance_fraction is the share of Var(target) contributed by
    the noise term; the generator back-solves the noise standard
    deviation from the empirical variance of the clean signal.
    """

    n_observations: int = 1000
    n_features: int = 100
    n_relevant: int = 15
    weight_low: float = 0.0
    weight_high: float = 10.0
    noise_variance_fraction: float = 0.20

    def validate(self) -> None:
        if self.n_observations < 2:
            raise InvalidConfigError("n_observations must be at least 2")
        if self.n_features < 1:
            raise InvalidConfigError("n_features must be at least 1")
        if not 0 <= self.n_relevant <= self.n_features:
            raise InvalidConfigError(
                "n_relevant must lie in [0, n_features]")
        if not self.weight_low <= self.weight_high:
            raise InvalidConfigError("weight_low must not exceed weight_high")
        if not 0.0 <= self.noise_variance_fraction < 1.0:
            raise InvalidConfigError(
                "noise_variance_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class FeatureMask:
    """A boolean selection over the columns of a dataset."""

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits, dtype=bool)
        if b.ndim != 1:
            raise ShapeMismatchError("mask bits must be 1-d")
        # freeze a copy of an array the caller can still write to
        if b is self.bits and b.flags.writeable:
            b = b.copy()
        object.__setattr__(self, "bits", _readonly(b))

    @classmethod
    def from_indices(cls, indices, n_features: int) -> "FeatureMask":
        bits = np.zeros(n_features, dtype=bool)
        for i in indices:
            if not 0 <= i < n_features:
                raise ShapeMismatchError(
                    f"mask index {i} is outside [0, {n_features})")
            bits[i] = True
        return cls(bits)

    def to_string(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)

    @property
    def n_selected(self) -> int:
        return int(self.bits.sum())

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.bits))

    def __len__(self) -> int:
        return self.bits.shape[0]

    def __eq__(self, other):
        if not isinstance(other, FeatureMask):
            return NotImplemented
        return np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash(self.to_string())


class PartitionedDataset:
    """A dataset split into train, validation, and test row sets.

    A search reads the train and validation rows only; the tests replace
    the test rows with arbitrary values and require the same results.
    """

    def __init__(self, base: Dataset, train_indices, validation_indices,
                 test_indices):
        self.base = base
        self.train_indices = _readonly(np.asarray(train_indices, dtype=np.intp))
        self.validation_indices = _readonly(
            np.asarray(validation_indices, dtype=np.intp))
        self.test_indices = _readonly(np.asarray(test_indices, dtype=np.intp))
        seen = np.concatenate(
            [self.train_indices, self.validation_indices, self.test_indices])
        if len(np.unique(seen)) != len(seen):
            raise InvalidConfigError("partition index sets overlap")
        if seen.size and (seen.min() < 0 or seen.max() >= base.n_rows):
            raise InvalidConfigError("partition index out of range")
        if self.train_indices.size == 0 or self.validation_indices.size == 0:
            raise EmptyInputError("train and validation parts must be non-empty")

    def _part(self, idx: np.ndarray):
        return self.base.features[idx], self.base.target[idx]

    def train_xy(self):
        return self._part(self.train_indices)

    def validation_xy(self):
        return self._part(self.validation_indices)

    def test_xy(self):
        return self._part(self.test_indices)

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (self.train_indices.size, self.validation_indices.size,
                self.test_indices.size)


def largest_remainder_counts(total: int, ratios) -> tuple[int, ...]:
    """Apportion `total` items to the given ratios.

    Floors the exact shares, then hands the leftover items to the parts
    with the largest fractional remainders; remainder ties go to the
    earlier part. The result always sums to `total` exactly.
    """
    r = np.asarray(ratios, dtype=np.float64)
    if r.ndim != 1 or r.size == 0:
        raise InvalidConfigError("ratios must be a non-empty 1-d sequence")
    if np.any(r < 0) or not math.isclose(float(r.sum()), 1.0, abs_tol=1e-9):
        raise InvalidConfigError("ratios must be non-negative and sum to 1")
    exact = r * total
    counts = np.floor(exact).astype(int)
    leftover = total - int(counts.sum())
    if leftover:
        # argsort is stable, so equal remainders resolve to the earlier part
        order = np.argsort(-(exact - counts), kind="stable")
        counts[order[:leftover]] += 1
    return tuple(int(c) for c in counts)


def partition(dataset: Dataset, ratios=DEFAULT_PARTITION_RATIOS,
              seed: int = 0) -> PartitionedDataset:
    """Split rows into train/validation/test by a seeded shuffle.

    Row counts follow largest-remainder rounding of the ratios, so the
    parts always cover the dataset exactly.
    """
    r = tuple(float(x) for x in ratios)
    if len(r) != 3:
        raise InvalidConfigError("expected exactly three partition ratios")
    n_train, n_val, n_test = largest_remainder_counts(dataset.n_rows, r)
    rng = substream(seed, "partition")
    perm = rng.permutation(dataset.n_rows)
    return PartitionedDataset(
        dataset,
        perm[:n_train],
        perm[n_train:n_train + n_val],
        perm[n_train + n_val:],
    )


def benchmark_feature_names(n_features: int) -> tuple[str, ...]:
    """The column names of a generated benchmark: x0, x1, ..."""
    return tuple(f"x{i}" for i in range(n_features))


def generate_benchmark(config: BenchmarkConfig | None = None,
                       seed: int = 0) -> tuple[Dataset, GroundTruth]:
    """Draw a synthetic dataset and its ground truth for the given seed."""
    config = config or BenchmarkConfig()
    config.validate()
    rng = substream(seed, "benchmark")
    X = rng.standard_normal((config.n_observations, config.n_features))
    idx = np.sort(rng.choice(config.n_features, size=config.n_relevant,
                             replace=False))
    w = rng.uniform(config.weight_low, config.weight_high,
                    size=config.n_relevant)
    signal = X[:, idx] @ w if config.n_relevant \
        else np.zeros(config.n_observations)
    f = config.noise_variance_fraction
    if f > 0.0:
        var_signal = float(np.var(signal))
        if var_signal == 0.0:
            # no signal to scale against; fall back to unit noise
            sigma = 1.0
        else:
            sigma = math.sqrt(f / (1.0 - f) * var_signal)
        y = signal + rng.normal(0.0, sigma, size=config.n_observations)
    else:
        sigma = 0.0
        y = signal
    dataset = Dataset(X, y, benchmark_feature_names(config.n_features))
    truth = GroundTruth(tuple(int(i) for i in idx), w, sigma)
    return dataset, truth


# ---------------------------------------------------------------------------
# CSV and sidecar I/O

def save_csv(dataset: Dataset, path) -> None:
    """Write the dataset as a header CSV, the target last and named y."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(dataset.feature_names) + ["y"])
        for i in range(dataset.n_rows):
            writer.writerow([repr(float(v)) for v in dataset.features[i]]
                            + [repr(float(dataset.target[i]))])


def load_csv(path, target_column: str = "y") -> Dataset:
    """Read a header CSV into a Dataset, using target_column as the target.
    A UTF-8 byte-order mark before the header is dropped."""
    path = Path(path)
    with path.open("r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvParseError("file is empty", path=str(path))
        header = [h.strip() for h in header]
        if "" in header:
            raise CsvParseError(
                f"header column {header.index('') + 1} has no name",
                path=str(path))
        repeated = next((h for j, h in enumerate(header)
                         if h in header[:j]), None)
        if repeated is not None:
            raise CsvParseError("header repeats a column", path=str(path),
                                column=repeated)
        if target_column not in header:
            raise MissingTargetError(
                f"target column {target_column!r} not in header",
                path=str(path))
        t_pos = header.index(target_column)
        feature_names = tuple(h for j, h in enumerate(header) if j != t_pos)
        rows, targets = [], []
        for i, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise CsvParseError(
                    f"expected {len(header)} cells, got {len(row)}",
                    path=str(path), row=i)
            vals = []
            for j, cell in enumerate(row):
                try:
                    v = float(cell)
                except ValueError:
                    raise NonNumericCellError(
                        f"cell {cell!r} is not numeric",
                        path=str(path), row=i, column=header[j]) from None
                vals.append(v)
            targets.append(vals.pop(t_pos))
            rows.append(vals)
        if not rows:
            raise CsvParseError("no data rows", path=str(path))
    return Dataset(np.array(rows), np.array(targets), feature_names)


def save_ground_truth(truth: GroundTruth, path, *, seed: int | None = None,
                      config: BenchmarkConfig | None = None) -> None:
    """Write the ground-truth sidecar as JSON next to a benchmark CSV."""
    doc: dict = {
        "true_indices": list(truth.true_indices),
        "true_weights": [float(w) for w in truth.true_weights],
        "noise_sigma": float(truth.noise_sigma),
    }
    if seed is not None:
        doc["seed"] = int(seed)
    if config is not None:
        doc["benchmark"] = asdict(config)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_ground_truth(path) -> GroundTruth:
    """Read a ground-truth sidecar. A file that is not a JSON object of
    true_indices (integers), true_weights (numbers, one per index) and
    noise_sigma (a number) raises ConfigFileError naming the file."""
    try:
        doc = json.loads(Path(path).read_text())
        idx, w, sigma = (doc[k] for k in ("true_indices", "true_weights",
                                          "noise_sigma"))
        if not (isinstance(idx, list) and all(type(i) is int for i in idx)
                and isinstance(w, list)
                and all(type(x) in (int, float) for x in [*w, sigma])):
            raise TypeError("true_indices must list integers, true_weights "
                            "numbers, and noise_sigma be a number")
        return GroundTruth(idx, w, float(sigma))
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        fault = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigFileError(f"ground truth {path}: {fault}") from None
