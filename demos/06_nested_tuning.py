"""
Nested parameter tuning inside the model node
=============================================

The tuning model node runs a second, inner search every time it is
asked to fit a candidate feature subset: it picks the forest's sample
ratio, feature ratio, and tree count before fitting the model whose
error becomes the outer fitness. Optimization networks nest without any
special support because an inner search is just another node behavior:
the outer network is the feature-selection network with this node as
its model node.
"""

from optnet.data import BenchmarkConfig, generate_benchmark, partition
from optnet.networks import (FitnessConfig, InnerGridSearch, InnerOsgaSearch,
                             InnerTuningModelNode, feature_selection_network)
from optnet.osga import OsgaParams

# Every outer fitness evaluation now costs an entire inner search, so
# this demo keeps both budgets deliberately tiny.
dataset, truth = generate_benchmark(
    BenchmarkConfig(n_observations=160, n_features=10, n_relevant=3),
    seed=9)
partitioned = partition(dataset, seed=9)

outer = OsgaParams(population_size=6, max_evaluations=60,
                   max_selection_pressure=15.0)

# Inner strategy 1: a small grid over forest parameters, cut off by a
# per-fit budget.
grid_inner = InnerGridSearch(sample_ratios=(0.6, 0.9),
                             feature_ratios=(0.4, 0.8),
                             n_trees_options=(3, 6), budget=4)
grid_run = feature_selection_network(
    partitioned, outer, FitnessConfig(penalty_per_feature=0.05),
    model=InnerTuningModelNode("model", grid_inner), seed=4)
print("grid-tuned run")
print("  mask:", grid_run.best_mask.to_string())
print("  model:", grid_run.best_model.label)
print(f"  test MAE: {grid_run.best_model.test_mae:.4f}")
print("  outer evaluations:", grid_run.evaluations)

# Inner strategy 2: a tiny real-valued search over the same space.
osga_inner = InnerOsgaSearch(
    params=OsgaParams(population_size=4, max_evaluations=12,
                      max_selection_pressure=10.0,
                      crossover_kind="arithmetic"),
    budget=12)
osga_run = feature_selection_network(
    partitioned, outer, FitnessConfig(penalty_per_feature=0.05),
    model=InnerTuningModelNode("model", osga_inner), seed=4)
print("search-tuned run")
print("  mask:", osga_run.best_mask.to_string())
print("  model:", osga_run.best_model.label)
print(f"  test MAE: {osga_run.best_model.test_mae:.4f}")
