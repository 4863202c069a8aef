"""Forecast quality metrics and model evaluation.

Two skill scores are reported alongside raw MSE. ``r2_nse`` compares
against the constant mean-of-labels predictor (the classic
Nash-Sutcliffe efficiency). ``r2_persist`` compares against the
persistence forecast, which predicts that the level ``horizon`` steps
ahead equals the level now; for slow-moving rivers persistence is a much
stronger reference, so this score separates models far better than NSE.
Both are 1 for perfect predictions, 0 for baseline parity, negative when
the model loses to the baseline.

:func:`evaluate` scores either model kind through its affine filters,
which each kind's ``filters()`` gives as in training: the tree's folded
per-basin filters or the flat baseline's one, a view of its parameters,
applied one lag at a time to the example set's grid.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .data import ExampleSet, NormStats
from .errors import HydroNetsError
from .model import FlatLinearParams, HydroNetParams, forward_batch  # the benchmark reads forward_batch here


def mse(preds: np.ndarray, labels: np.ndarray) -> float:
    preds = np.asarray(preds, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if preds.shape != labels.shape:
        raise HydroNetsError("shape-mismatch", f"preds {preds.shape} vs labels {labels.shape}")
    if preds.size == 0:
        raise HydroNetsError("empty-metric-input", "cannot score zero examples")
    err = preds - labels
    return float(np.mean(err * err))


def r2_nse(preds: np.ndarray, labels: np.ndarray) -> float:
    """1 - MSE(model) / MSE(constant mean predictor), or nan (:func:`_skill`)."""
    model = mse(preds, labels)
    labels = np.asarray(labels, dtype=float)
    baseline = float(np.mean((labels - labels.mean()) ** 2))
    if baseline == 0.0 and labels.min() == labels.max():
        raise HydroNetsError("constant-labels", "labels are constant, mean baseline has zero error")
    return _skill(model, baseline)


def r2_persist(preds: np.ndarray, labels: np.ndarray, persist: np.ndarray) -> float:
    """1 - MSE(model) / MSE(persistence forecast), or nan (:func:`_skill`)."""
    model = mse(preds, labels)
    baseline = mse(persist, labels)
    if baseline == 0.0 and np.array_equal(persist, labels):
        raise HydroNetsError("zero-persist-error", "persistence forecast is exact, score undefined")
    return _skill(model, baseline)


def _skill(model: float, baseline: float) -> float:
    """nan when the reference error ``baseline`` leaves the normal float
    range: overflowed, it would read as a perfect score whatever the
    model; underflowed, as a score with few or no correct digits."""
    return 1.0 - model / baseline if np.finfo(float).smallest_normal <= baseline < math.inf else math.nan


@dataclass(frozen=True)
class BasinScore:
    basin_id: str
    n_examples: int
    mse: float
    r2: float
    r2_persist: float


@dataclass(frozen=True)
class MetricsReport:
    scores: tuple[BasinScore, ...]

    def by_basin(self) -> dict[str, BasinScore]:
        return {s.basin_id: s for s in self.scores}

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("basin,n,mse,r2,r2_persist\n")
        for s in self.scores:
            out.write(f"{s.basin_id},{s.n_examples},{s.mse!r},{s.r2!r},{s.r2_persist!r}\n")
        return out.getvalue()


def _score_basin(
    bid: str,
    preds: np.ndarray,
    labels: np.ndarray,
    persist: np.ndarray,
    norm: NormStats | None,
) -> BasinScore:
    # Scores are reported in label units: undo normalization on every
    # series that entered it, including the persistence reference. Finite
    # values can overflow there, and squared errors can overflow or
    # underflow, which leaves a score that is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        if norm is not None:
            preds, labels, persist = (norm.denorm_level(bid, x) for x in (preds, labels, persist))
        score = BasinScore(bid, len(labels), mse(preds, labels), r2_nse(preds, labels),
                           r2_persist(preds, labels, persist))
    for name in ("mse", "r2", "r2_persist"):
        if not math.isfinite(getattr(score, name)):
            raise HydroNetsError("non-finite", f"basin {bid!r} {name} is {getattr(score, name)}: "
                                 "its errors in label units leave the float range")
    return score


def evaluate(
    p: HydroNetParams | FlatLinearParams,
    examples: ExampleSet,
    norm: NormStats | None = None,
) -> MetricsReport:
    """Score a model on an example set at each basin its filter forecasts.

    Each model forecasts through its own ``filters()``, as in training:
    tree models at every basin, through the per-basin filters folded from
    one :func:`~hydronets.model.forward_batch` over the probe batch; the
    flat baseline only at its target. The filters are applied one lag at
    a time to the set's grid, so no window array is built. Passing the
    normalization stats converts predictions, labels, and the persistence
    reference back to raw units before scoring; a score that is not finite
    there fails with ``non-finite``, naming the basin and the score.
    """
    if len(examples) == 0:
        raise HydroNetsError("empty-metric-input", "cannot evaluate on zero examples")
    f = p.filters()
    preds = f.forecast(examples)
    scores = tuple(
        _score_basin(bid, preds[:, i], examples.labels[bid], examples.persist[bid], norm)
        for i, bid in enumerate(f.targets)
    )
    return MetricsReport(scores=scores)
