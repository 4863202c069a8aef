"""River-network-structured linear forecasting.

A region of gauged basins forms an inverted tree draining to a single
outlet. The model mirrors that tree: per-basin combiners merge upstream
state, one shared linear map produces temporal embeddings, and per-basin
heads turn embeddings into water level forecasts. The package also ships
the flat linear baseline, persistence-referenced skill metrics, a
synthetic region generator, and an experiment harness with seed-exact
reproducibility.
"""

import types as _types

from .data import (
    ExampleSet,
    NormStats,
    SeriesStore,
    SynthConfig,
    dump_series,
    fit_norm_stats,
    generate_synthetic,
    load_series,
    prepare_datasets,
    split_chronological,
    window_examples,
)
from .errors import HydroNetsError
from .experiments import (
    ExperimentConfig,
    ReportTable,
    emit_report,
    run_all_basins,
    run_depth_experiment,
    run_scarcity,
)
from .metrics import MetricsReport, evaluate, mse, r2_nse, r2_persist
from .model import (
    Dims,
    FlatLinearParams,
    HydroNetParams,
    forward_hydronet,
    init_flat,
    init_hydronet,
    load_checkpoint,
    param_count,
    save_checkpoint,
)
from .region import (
    Basin,
    RegionGraph,
    ValidationReport,
    drain_of,
    dump_region,
    height,
    parse_region,
    prune_to_depth,
    topological_order,
    validate,
)
from .training import (
    LossWeights,
    Member,
    TrainConfig,
    TrainResult,
    backward_hydronet,
    finite_difference_grad,
    train,
    train_flat,
    train_stack,
    weighted_mse_loss,
)

# Every name imported above, so that each is listed once.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _types.ModuleType))
