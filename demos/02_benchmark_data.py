"""
Synthetic regression benchmarks
===============================

Generates the standard benchmark family: standard-normal features, a
sparse linear signal, and additive noise scaled to a fixed fraction of
the target variance. The generating truth travels with the dataset so
later stages can score feature recovery.
"""

import tempfile
from pathlib import Path

import numpy as np

from optnet.data import (BenchmarkConfig, generate_benchmark, load_csv,
                         load_ground_truth, partition, save_csv,
                         save_ground_truth)

config = BenchmarkConfig(n_observations=500, n_features=30, n_relevant=5,
                         weight_low=0.0, weight_high=10.0,
                         noise_variance_fraction=0.2)
dataset, truth = generate_benchmark(config, seed=7)

print("dataset:", dataset.features.shape, "target:", dataset.target.shape)
print("informative columns:", truth.true_indices)
print("their weights:", np.round(truth.true_weights, 3))

# check the noise calibration: the generator promises that the noise
# carries about 20% of the target variance
signal = dataset.features[:, truth.true_indices] @ truth.true_weights
noise = dataset.target - signal
print(f"noise variance fraction: {np.var(noise) / np.var(dataset.target):.3f}")

# A partition is a reproducible train/validation/test split. A search
# reads only the train and validation rows; the tests prove it by
# replacing the test rows with arbitrary values and getting the same
# search, only the test error differing.
partitioned = partition(dataset, seed=7)
print("split sizes (train, validation, test):", partitioned.sizes)

# Round-trip through CSV plus the ground-truth sidecar.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "bench.csv"
    save_csv(dataset, path)
    save_ground_truth(truth, path.with_suffix(".truth.json"), seed=7,
                      config=config)
    loaded = load_csv(path)
    loaded_truth = load_ground_truth(path.with_suffix(".truth.json"))
    same = (np.array_equal(loaded.features, dataset.features)
            and np.array_equal(loaded.target, dataset.target)
            and loaded_truth.true_indices == truth.true_indices)
    print("csv round trip identical:", same)
