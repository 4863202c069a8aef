"""Run configuration: the training settings and the experiment config file.

This module imports neither the trainer nor the experiment runners, so
a command that only reads a config, such as ``evaluate``, loads neither.
:mod:`~hydronets.training` and :mod:`~hydronets.experiments` re-export
:class:`TrainConfig` and :class:`ExperimentConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import from_doc, parse_json, to_doc
from .data import D_X, SynthConfig
from .errors import HydroNetsError
from .model import Dims

METRICS = ("r2", "r2_persist")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-2
    epochs: int = 40
    batch_size: int = 64
    seed: int = 0
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def check(self) -> None:
        if self.learning_rate < 0 or self.epochs < 1 or self.batch_size < 1:
            raise HydroNetsError("invalid-config", f"bad training config: {self}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1 and self.eps > 0):
            raise HydroNetsError("invalid-config", f"need 0 <= beta1, beta2 < 1 and eps > 0: {self}")
        if self.optimizer not in ("adam", "sgd"):
            raise HydroNetsError("invalid-config", f"unknown optimizer {self.optimizer!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment run needs. Field names are the JSON keys
    of a config file; ``basins`` and ``sizes`` are the runners' target
    basins (all when unset) and training-set sizes."""

    dims: Dims
    train: TrainConfig = TrainConfig()
    seeds: tuple[int, ...] = tuple(range(10))
    metric: str = "r2_persist"
    out_dir: str = "runs"
    region: str | None = None
    series: str | None = None
    synth: SynthConfig | None = None
    train_frac: float = 0.8
    alpha: float = 0.9
    flat_depth: int = 2
    workers: int = 1
    basins: tuple[str, ...] | None = None
    sizes: tuple[int, ...] | None = None

    def check(self) -> None:
        self.dims.check()
        if self.dims.channels != D_X:
            raise HydroNetsError("invalid-config", f"dims.channels must be {D_X}: every series has {D_X} channels")
        self.train.check()
        if not self.seeds or min(self.seeds) < 0:
            raise HydroNetsError("invalid-config", "need at least one seed, all >= 0")
        for name in ("seeds", "basins", "sizes"):
            values = getattr(self, name) or ()
            if len(set(values)) != len(values):
                raise HydroNetsError("invalid-config", f"{name} lists a value twice: {list(values)}")
        for name in ("basins", "sizes"):
            if getattr(self, name) == ():
                raise HydroNetsError("invalid-config", f"{name} is empty; null leaves it unset")
        if self.sizes and min(self.sizes) < 1:
            raise HydroNetsError("invalid-config", "sizes must be >= 1")
        if self.metric not in METRICS:
            raise HydroNetsError("invalid-config", f"metric must be one of {METRICS}")
        from_files = self.region is not None and self.series is not None
        if from_files == (self.synth is not None):
            raise HydroNetsError(
                "invalid-config", "give either region+series paths or a synth config, not both"
            )
        if self.synth is not None:
            self.synth.check()
        if not (0.0 < self.train_frac < 1.0):
            raise HydroNetsError("invalid-config", "train_frac must lie in (0, 1)")
        if not (0.0 < self.alpha <= 1.0):
            raise HydroNetsError("invalid-config", "alpha must lie in (0, 1]")
        if self.flat_depth < 1 or self.workers < 1:
            raise HydroNetsError("invalid-config", "flat_depth and workers must be >= 1")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        doc = parse_json(text, "invalid-config")
        if isinstance(doc, dict) and isinstance(doc.get("train"), dict) and "seed" in doc["train"]:
            raise HydroNetsError("invalid-config", "train.seed is not read: runs take their seeds from seeds")
        cfg = from_doc(cls, doc)
        cfg.check()
        return cfg

    def echo(self) -> dict:
        """Config as a manifest-ready dict: exactly the fields that determine
        the run's numbers (so no out_dir, no worker count and no train.seed,
        which ``seeds`` overrides). The runners record the basins and sizes
        they used next to it."""
        doc = to_doc(self)
        for name in ("out_dir", "workers", "basins", "sizes"):
            doc.pop(name, None)
        del doc["train"]["seed"]
        return doc


def _reject_unread(cfg: ExperimentConfig, runner: str, *names: str) -> None:
    """Fail on a set field the runner never reads, which would otherwise
    be ignored without a word."""
    for name in names:
        if getattr(cfg, name) is not None:
            raise HydroNetsError("invalid-config", f"{runner} does not read {name}: leave it null")
