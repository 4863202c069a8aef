"""River-network-structured linear forecasting.

A region of gauged basins forms an inverted tree draining to a single
outlet. The model mirrors that tree: per-basin combiners merge upstream
state, one shared linear map produces temporal embeddings, and per-basin
heads turn embeddings into water level forecasts. The package also ships
the flat linear baseline, persistence-referenced skill metrics, a
synthetic region generator, and an experiment harness with seed-exact
reproducibility.

Importing the package loads none of its modules. Each name below is
looked up in its module when first asked for (PEP 562), and is not kept
here, so a process loads only the modules it uses and the name always
reads the module's current attribute.
"""

import importlib as _importlib

_EXPORTS = {
    "config": ("ExperimentConfig", "TrainConfig"),
    "data": (
        "ExampleSet", "NormStats", "SeriesStore", "SynthConfig", "dump_series", "fit_norm_stats",
        "generate_synthetic", "load_series", "prepare_datasets", "split_chronological", "window_examples",
    ),
    "errors": ("HydroNetsError",),
    "experiments": ("ReportTable", "emit_report", "run_all_basins", "run_depth_experiment", "run_scarcity"),
    "metrics": ("MetricsReport", "evaluate", "mse", "r2_nse", "r2_persist"),
    "model": (
        "Dims", "FlatLinearParams", "HydroNetParams", "forward_hydronet", "init_flat", "init_hydronet",
        "load_checkpoint", "param_count", "save_checkpoint",
    ),
    "region": (
        "Basin", "RegionGraph", "ValidationReport", "drain_of", "dump_region", "height", "parse_region",
        "prune_to_depth", "topological_order", "validate",
    ),
    "training": (
        "LossWeights", "Member", "TrainResult", "backward_hydronet", "finite_difference_grad", "train",
        "train_flat", "train_stack", "weighted_mse_loss",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
