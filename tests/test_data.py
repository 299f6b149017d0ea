"""Datasets, benchmark generation, partitioning, masks, CSV round trips."""

import json

import numpy as np
import pytest

from optnet.data import (
    BenchmarkConfig,
    Dataset,
    FeatureMask,
    GroundTruth,
    largest_remainder_counts,
    load_csv,
    load_ground_truth,
    partition,
    save_csv,
    save_ground_truth,
    generate_benchmark,
)
from optnet.errors import (
    CsvParseError,
    EmptyInputError,
    InvalidConfigError,
    MissingTargetError,
    NonNumericCellError,
    ShapeMismatchError,
)
from optnet.forest import ForestConfig, fit_random_forest, predict_forest
from optnet.linear import fit_elastic_net, fit_ols, predict, predict_each_row
from optnet.payloads import ParameterVector


# ---------------------------------------------------------------------------
# Dataset container

def test_dataset_basic_properties(toy_dataset):
    assert toy_dataset.n_rows == 40
    assert toy_dataset.n_features == 3
    assert toy_dataset.feature_names == ("a", "b", "c")
    assert not toy_dataset.features.flags.writeable


def test_dataset_rejects_bad_shapes():
    with pytest.raises(ShapeMismatchError):
        Dataset(np.zeros(4), np.zeros(4), ("a",))
    with pytest.raises(ShapeMismatchError):
        Dataset(np.zeros((4, 2)), np.zeros((4, 1)), ("a", "b"))
    with pytest.raises(ShapeMismatchError):
        Dataset(np.zeros((4, 2)), np.zeros(3), ("a", "b"))
    with pytest.raises(ShapeMismatchError):
        Dataset(np.zeros((4, 2)), np.zeros(4), ("a",))


def test_dataset_rejects_empty_and_nonfinite():
    with pytest.raises(EmptyInputError):
        Dataset(np.zeros((0, 2)), np.zeros(0), ("a", "b"))
    with pytest.raises(InvalidConfigError):
        Dataset(np.array([[np.nan, 1.0]]), np.array([0.0]), ("a", "b"))
    with pytest.raises(InvalidConfigError):
        Dataset(np.array([[1.0, 1.0]]), np.array([np.inf]), ("a", "b"))


def test_dataset_rejects_duplicate_names():
    with pytest.raises(InvalidConfigError):
        Dataset(np.zeros((2, 2)), np.zeros(2), ("a", "a"))


def test_dataset_equality_is_content_based(toy_dataset):
    twin = Dataset(toy_dataset.features.copy(), toy_dataset.target.copy(),
                   toy_dataset.feature_names)
    assert twin == toy_dataset
    other = Dataset(toy_dataset.features + 1.0, toy_dataset.target,
                    toy_dataset.feature_names)
    assert other != toy_dataset


def test_dataset_leaves_the_callers_arrays_writable():
    X = np.arange(12.0).reshape(4, 3)
    y = np.arange(4.0)
    big = np.arange(20.0).reshape(5, 4)
    for features, target in ((X, y), (big[:4, :3], y[:]), (big[1:], y)):
        dataset = Dataset(features, target, ("a", "b", "c", "d")[
            :features.shape[1]])
        kept = dataset.features.copy(), dataset.target.copy()
        assert features.flags.writeable and target.flags.writeable
        features[0, 0] = target[0] = -99.0
        assert dataset.features.tobytes() == kept[0].tobytes()
        assert dataset.target.tobytes() == kept[1].tobytes()
        assert not dataset.features.flags.writeable
        assert not dataset.target.flags.writeable
    frozen = Dataset(X.tolist(), y.tolist(), ("a", "b", "c"))
    assert frozen.features.base is None  # converted once, not copied again


def test_feature_mask_leaves_the_callers_bits_writable():
    bits = np.array([True, False, True, False])
    whole = np.zeros(9, dtype=bool)
    for given in (bits, whole[::2], whole[1:5]):
        mask = FeatureMask(given)
        kept = mask.bits.copy()
        assert given.flags.writeable
        given[:] = ~given
        assert mask.bits.tobytes() == kept.tobytes()
        assert not mask.bits.flags.writeable
    frozen = FeatureMask(np.array([True, False]))
    assert FeatureMask(frozen.bits).bits is frozen.bits  # shared, not copied


# ---------------------------------------------------------------------------
# Apportionment and partitioning

def test_largest_remainder_exact_shares():
    assert largest_remainder_counts(10, (0.6, 0.2, 0.2)) == (6, 2, 2)
    assert largest_remainder_counts(10, (0.5, 0.3, 0.2)) == (5, 3, 2)


def test_largest_remainder_tie_goes_to_earlier_part():
    # exact shares 7/3 each; the one leftover item lands on part 0
    assert largest_remainder_counts(7, (1 / 3, 1 / 3, 1 / 3)) == (3, 2, 2)


def test_largest_remainder_default_ratios():
    assert largest_remainder_counts(8, (0.25, 0.375, 0.375)) == (2, 3, 3)
    assert largest_remainder_counts(1000, (0.25, 0.375, 0.375)) == (250, 375,
                                                                    375)


def test_largest_remainder_rejects_bad_ratios():
    with pytest.raises(InvalidConfigError):
        largest_remainder_counts(10, (0.5, 0.6))
    with pytest.raises(InvalidConfigError):
        largest_remainder_counts(10, (-0.5, 1.5))
    with pytest.raises(InvalidConfigError):
        largest_remainder_counts(10, ())


def test_largest_remainder_always_covers_total():
    rng = np.random.default_rng(0)
    for _ in range(50):
        parts = rng.integers(2, 6)
        raw = rng.random(parts) + 0.05
        ratios = raw / raw.sum()
        total = int(rng.integers(1, 500))
        counts = largest_remainder_counts(total, ratios)
        assert sum(counts) == total
        # each part is within one item of its exact share
        for c, r in zip(counts, ratios):
            assert abs(c - total * r) < 1.0


def test_partition_sizes_and_cover(toy_dataset):
    p = partition(toy_dataset, (0.5, 0.25, 0.25), seed=0)
    assert p.sizes == (20, 10, 10)
    all_idx = np.concatenate(
        [p.train_indices, p.validation_indices, p.test_indices])
    assert sorted(all_idx) == list(range(40))


def test_partition_is_seed_deterministic(toy_dataset):
    a = partition(toy_dataset, seed=3)
    b = partition(toy_dataset, seed=3)
    c = partition(toy_dataset, seed=4)
    assert np.array_equal(a.train_indices, b.train_indices)
    assert not np.array_equal(a.train_indices, c.train_indices)


def test_partition_rejects_wrong_ratio_count(toy_dataset):
    with pytest.raises(InvalidConfigError):
        partition(toy_dataset, (0.5, 0.5))


def test_partition_too_small_for_train_part():
    ds = Dataset(np.zeros((2, 1)), np.zeros(2), ("a",))
    # counts come out (0, 1, 1) under the default ratios
    with pytest.raises(EmptyInputError):
        partition(ds)


def test_partitioned_rejects_overlap(toy_dataset):
    from optnet.data import PartitionedDataset
    with pytest.raises(InvalidConfigError):
        PartitionedDataset(toy_dataset, [0, 1], [1, 2], [3])
    with pytest.raises(InvalidConfigError):
        PartitionedDataset(toy_dataset, [0, 99], [1], [2])


# ---------------------------------------------------------------------------
# Benchmark generation

def test_generate_default_shapes():
    ds, truth = generate_benchmark(seed=0)
    assert ds.features.shape == (1000, 100)
    assert ds.feature_names[:2] == ("x0", "x1")
    assert ds.feature_names[-1] == "x99"
    assert len(truth.true_indices) == 15
    assert truth.true_weights.shape == (15,)
    assert list(truth.true_indices) == sorted(set(truth.true_indices))
    assert all(0.0 <= w <= 10.0 for w in truth.true_weights)


def test_generate_is_seed_deterministic():
    a, ta = generate_benchmark(seed=5)
    b, tb = generate_benchmark(seed=5)
    c, _ = generate_benchmark(seed=6)
    assert a == b
    assert ta.true_indices == tb.true_indices
    assert np.array_equal(ta.true_weights, tb.true_weights)
    assert a != c


def test_generate_noiseless_target_is_exact_linear():
    config = BenchmarkConfig(n_observations=50, n_features=6, n_relevant=3,
                             noise_variance_fraction=0.0)
    ds, truth = generate_benchmark(config, seed=2)
    assert truth.noise_sigma == 0.0
    signal = ds.features[:, truth.true_indices] @ truth.true_weights
    assert np.allclose(ds.target, signal, atol=1e-12)
    # an oracle OLS fit on the true columns recovers the weights
    model = fit_ols(ds.features[:, truth.true_indices], ds.target)
    assert np.allclose(model.weights, truth.true_weights, atol=1e-8)
    assert abs(model.intercept) < 1e-8


def test_generate_single_feature_fixed_weight():
    config = BenchmarkConfig(n_observations=30, n_features=1, n_relevant=1,
                             weight_low=2.0, weight_high=2.0,
                             noise_variance_fraction=0.0)
    ds, truth = generate_benchmark(config, seed=0)
    assert truth.true_indices == (0,)
    assert truth.true_weights[0] == 2.0
    assert np.allclose(ds.target, 2.0 * ds.features[:, 0])


def test_generate_no_relevant_features_pure_noise():
    config = BenchmarkConfig(n_observations=30, n_features=4, n_relevant=0,
                             noise_variance_fraction=0.5)
    ds, truth = generate_benchmark(config, seed=0)
    assert truth.true_indices == ()
    assert truth.noise_sigma == 1.0  # unit-noise fallback, nothing to scale
    assert float(np.std(ds.target)) > 0.0


def test_generate_noise_fraction_empirical():
    """Over 20 seeds, the realized noise share of Var(y) stays near the
    configured fraction."""
    config = BenchmarkConfig()  # noise_variance_fraction = 0.20
    for seed in range(20):
        ds, truth = generate_benchmark(config, seed=seed)
        signal = ds.features[:, truth.true_indices] @ truth.true_weights
        noise = ds.target - signal
        fraction = float(np.var(noise) / np.var(ds.target))
        assert 0.17 <= fraction <= 0.23, f"seed {seed}: fraction {fraction}"


def test_generate_rejects_bad_config():
    with pytest.raises(InvalidConfigError):
        BenchmarkConfig(n_observations=1).validate()
    with pytest.raises(InvalidConfigError):
        BenchmarkConfig(n_relevant=101).validate()
    with pytest.raises(InvalidConfigError):
        BenchmarkConfig(weight_low=3.0, weight_high=1.0).validate()
    with pytest.raises(InvalidConfigError):
        BenchmarkConfig(noise_variance_fraction=1.0).validate()


# ---------------------------------------------------------------------------
# Feature masks and projection

def mask_from_string(bits: str) -> FeatureMask:
    """The mask a 0/1 string spells, "1" for a selected column."""
    return FeatureMask(np.array([b == "1" for b in bits], dtype=bool))


def test_mask_string_round_trip():
    mask = mask_from_string("10011")
    assert mask.to_string() == "10011"
    assert mask.n_selected == 3
    assert mask.indices == (0, 3, 4)
    assert len(mask) == 5


def test_mask_constructors_agree():
    assert FeatureMask.from_indices((0, 2), 4) == mask_from_string("1010")
    assert FeatureMask.from_indices(range(3), 3) == mask_from_string("111")


@pytest.mark.parametrize("make, message", [
    (lambda: FeatureMask.from_indices([-1], 5),
     r"mask index -1 is outside \[0, 5\)"),
    (lambda: FeatureMask.from_indices([0, 7], 5),
     r"mask index 7 is outside \[0, 5\)"),
    (lambda: FeatureMask(np.zeros((2, 2), dtype=bool)),
     "mask bits must be 1-d"),
    (lambda: ParameterVector(np.zeros((1, 2)), ("a", "b")),
     "parameter values must be 1-d"),
    (lambda: ParameterVector(np.zeros(2), ("a",)),
     "parameter names length mismatch"),
], ids=["negative index", "index past the width", "2-d mask bits",
        "2-d parameter values", "names for another width"])
def test_payload_constructors_refuse_bad_shapes(make, message):
    with pytest.raises(ShapeMismatchError, match=message):
        make()


def test_mask_equality_and_hash():
    a = mask_from_string("101")
    b = mask_from_string("101")
    c = mask_from_string("100")
    assert a == b and hash(a) == hash(b)
    assert a != c


# ---------------------------------------------------------------------------
# CSV and sidecar I/O

def test_csv_round_trip(tmp_path, toy_dataset):
    path = tmp_path / "data.csv"
    save_csv(toy_dataset, path)
    loaded = load_csv(path)
    assert loaded == toy_dataset  # repr() floats survive the trip exactly


def test_csv_custom_target_column(tmp_path, toy_dataset):
    path = tmp_path / "data.csv"
    save_csv(toy_dataset, path)
    header, rows = path.read_text().split("\n", 1)
    path.write_text(header.rsplit(",", 1)[0] + ",outcome\n" + rows)
    loaded = load_csv(path, target_column="outcome")
    assert loaded == toy_dataset


def test_csv_missing_target(tmp_path, toy_dataset):
    path = tmp_path / "data.csv"
    save_csv(toy_dataset, path)
    with pytest.raises(MissingTargetError) as exc:
        load_csv(path, target_column="nope")
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("header", ["a,a,y", "a,y,y"],
                         ids=["feature", "target"])
def test_csv_repeated_column_is_named(tmp_path, header):
    path = tmp_path / "repeated.csv"
    path.write_text(f"{header}\n1.0,2.0,3.0\n")
    repeated = header.split(",")[1]
    with pytest.raises(CsvParseError) as exc:
        load_csv(path)
    assert exc.value.path == str(path)
    assert exc.value.column == repeated
    assert str(path) in str(exc.value) and repr(repeated) in str(exc.value)


@pytest.mark.parametrize("header", ["a,y", "y,a"],
                         ids=["target last", "target first"])
def test_csv_byte_order_mark_is_dropped(tmp_path, header):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + f"{header}\n1.0,2.0\n".encode())
    loaded = load_csv(path)
    assert loaded.feature_names == ("a",)
    assert loaded.target.tolist() == [2.0 if header == "a,y" else 1.0]


@pytest.mark.parametrize("header, position", [("a,,y", 2), ("a,y,", 3)],
                         ids=["inner", "trailing comma"])
def test_csv_unnamed_column_is_refused(tmp_path, header, position):
    path = tmp_path / "unnamed.csv"
    path.write_text(f"{header}\n1.0,2.0,3.0\n")
    with pytest.raises(CsvParseError) as exc:
        load_csv(path)
    assert exc.value.path == str(path)
    assert str(path) in str(exc.value)
    assert f"column {position} has no name" in str(exc.value)


def test_csv_non_numeric_cell_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,y\n1.0,2.0,3.0\n4.0,oops,6.0\n")
    with pytest.raises(NonNumericCellError) as exc:
        load_csv(path)
    assert exc.value.row == 3
    assert exc.value.column == "b"


def test_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,y\n1.0,2.0\n1.0\n")
    with pytest.raises(CsvParseError) as exc:
        load_csv(path)
    assert exc.value.row == 3


def test_csv_empty_and_header_only(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(CsvParseError):
        load_csv(empty)
    header_only = tmp_path / "header.csv"
    header_only.write_text("a,y\n")
    with pytest.raises(CsvParseError):
        load_csv(header_only)


def test_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("a,y\n1.0,2.0\n\n3.0,4.0\n")
    ds = load_csv(path)
    assert ds.n_rows == 2


def test_ground_truth_sidecar_round_trip(tmp_path):
    truth = GroundTruth((1, 4), np.array([2.5, -1.0]), 0.75)
    path = tmp_path / "truth.json"
    config = BenchmarkConfig(n_observations=10, n_features=5, n_relevant=2)
    save_ground_truth(truth, path, seed=9, config=config)
    doc = json.loads(path.read_text())
    assert doc["seed"] == 9
    assert doc["benchmark"]["n_features"] == 5
    loaded = load_ground_truth(path)
    assert loaded.true_indices == (1, 4)
    assert np.array_equal(loaded.true_weights, truth.true_weights)
    assert loaded.noise_sigma == 0.75


def test_ground_truth_length_mismatch():
    with pytest.raises(ShapeMismatchError):
        GroundTruth((1, 2, 3), np.array([1.0, 2.0]), 0.0)


# ---------------------------------------------------------------------------
# One design check for datasets and fitters, one width check for predictors

DESIGN_FAULTS = {
    "3-d X": (np.zeros((4, 2, 1)), np.zeros(4), ShapeMismatchError),
    "2-d y": (np.zeros((4, 2)), np.zeros((4, 1)), ShapeMismatchError),
    "5 rows, 4 targets": (np.zeros((5, 2)), np.zeros(4), ShapeMismatchError),
    "zero rows": (np.zeros((0, 2)), np.zeros(0), EmptyInputError),
    "NaN in X": (np.array([[np.nan, 1.0], [0.0, 2.0]]), np.zeros(2),
                 InvalidConfigError),
    "inf in y": (np.eye(2), np.array([0.0, np.inf]), InvalidConfigError),
}

DESIGN_CALLERS = {
    "Dataset": lambda X, y: Dataset(X, y, ("a", "b")),
    "fit_ols": fit_ols,
    "fit_elastic_net": fit_elastic_net,
    "fit_random_forest": lambda X, y: fit_random_forest(
        X, y, ForestConfig(n_trees=2)),
}


@pytest.mark.parametrize("fault", list(DESIGN_FAULTS))
def test_datasets_and_fitters_share_one_design_check(fault):
    """Every caller raises the same class and message for a fault, apart
    from the caller's name at the head of the message."""
    X, y, error = DESIGN_FAULTS[fault]
    messages = set()
    for name, call in DESIGN_CALLERS.items():
        with pytest.raises(error) as info:
            call(X, y)
        assert type(info.value) is error
        message = str(info.value)
        assert message.startswith(f"{name}: ")
        messages.add(message.removeprefix(f"{name}: "))
    assert len(messages) == 1, messages
    if fault == "2-d y":
        assert "target must be 1-d" in messages.pop()
    elif error is InvalidConfigError:
        assert "finite" in messages.pop()


@pytest.mark.parametrize("bad", [np.zeros((2, 2)), np.zeros((2, 4)),
                                 np.zeros(3), np.zeros((2, 3, 1))],
                         ids=["narrow", "wide", "1-d", "3-d"])
def test_predictors_share_one_width_check(bad):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 3))
    y = X.sum(axis=1)
    ols = fit_ols(X, y)
    forest = fit_random_forest(X, y, ForestConfig(n_trees=2), seed=0)
    messages = set()
    for name, predictor, model in [("predict", predict, ols),
                                   ("predict_each_row", predict_each_row,
                                    ols),
                                   ("predict_forest", predict_forest,
                                    forest)]:
        with pytest.raises(ShapeMismatchError) as info:
            predictor(model, bad)
        message = str(info.value)
        assert message.startswith(f"{name}: ")
        messages.add(message.removeprefix(f"{name}: "))
    assert messages == {f"expected (n, 3) features, got shape {bad.shape}"}
