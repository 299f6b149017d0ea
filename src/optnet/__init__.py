"""Composable optimization networks.

Solver nodes exchange typed messages through kind-checked ports; an
orchestrator node translates one solver's proposals into another
solver's problems. The packaged networks reproduce a feature-selection
study: a genetic mask search wrapped around linear or random-forest
model building, optional nested hyperparameter tuning, and a model-pool
pipeline that inverts fitted models to find good inputs.
"""

from ._rng import stream_seed, substream
from .analysis import (
    AnalysisReport,
    AnalysisTask,
    ElasticNetRecipe,
    FeatureSelectionRecipe,
    ForestRecipe,
    InputOptimizationResult,
    OlsRecipe,
    PoolEntry,
    build_model_pool,
    optimization_analysis_network,
    optimize_inputs,
    select_model_subset,
)
from .data import (
    DEFAULT_PARTITION_RATIOS,
    BenchmarkConfig,
    Dataset,
    FeatureMask,
    GroundTruth,
    PartitionedDataset,
    generate_benchmark,
    load_csv,
    load_ground_truth,
    partition,
    save_csv,
    save_ground_truth,
)
from .engine import (
    Connection,
    MessageBudget,
    NetworkRun,
    Node,
    Port,
    SinksEmitted,
    Topology,
    TopologyError,
    TraceEvent,
    run_network,
)
from .errors import (
    BudgetTooSmallError,
    ConfigFileError,
    CsvParseError,
    DeadlockError,
    EmptyInputError,
    HandlerFailureError,
    InfeasibleBoundsError,
    InvalidConfigError,
    InvalidSubsetSizeError,
    MissingTargetError,
    ModelInputMismatchError,
    NonNumericCellError,
    OptnetError,
    ShapeMismatchError,
    UnconnectedPortError,
)
from .forest import (
    ForestConfig,
    ForestModel,
    RegressionTree,
    fit_random_forest,
    fit_random_forests,
    predict_forest,
)
from .linear import (
    DEFAULT_L1_RATIO_GRID,
    DEFAULT_PENALTY_GRID,
    ElasticNetConfig,
    GridCell,
    GridSearchResult,
    LinearModel,
    elastic_net_objective,
    fit_elastic_net,
    fit_ols,
    grid_search_elastic_net,
    mae,
    predict,
)
from .netconfig import (
    NetworkRunConfig,
    parse_connection,
    replay_report,
    run_configured,
)
from .networks import (
    FeatureSelectionNode,
    FitnessConfig,
    ForestModelNode,
    InnerGridSearch,
    InnerOsgaSearch,
    InnerTuningModelNode,
    ModelNode,
    NetworkResult,
    OlsModelNode,
    RegressionOrchestratorNode,
    build_feature_selection_topology,
    feature_selection_direct,
    feature_selection_network,
    predict_any,
)
from .osga import (
    BinaryGenomeSpec,
    Individual,
    OsgaParams,
    RealGenomeSpec,
    RunResult,
    osga_minimize,
    osga_stream,
)
from .payloads import (
    PAYLOAD_KINDS,
    ModelWithQuality,
    ParameterVector,
    RegressionProblem,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
