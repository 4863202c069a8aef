"""Canned synthetic fixtures shared by the test suite and the benchmark.
The synth sections of the configs in ``configs/`` are these fixtures
written out, so the committed experiments exercise the same data."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .data import SynthConfig, generate_synthetic
from .region import drain_of


def calibrate_noise(cfg: SynthConfig, frac: float = 0.05) -> SynthConfig:
    """Pin ``noise_std`` to ``frac`` of the drain's noise-free level spread.

    The generator draws noise from its own stream, so the calibrated config
    reproduces the exact same rainfall and routing parameters.
    """
    g, store = generate_synthetic(replace(cfg, noise_std=0.0))
    drain_level = store.values[drain_of(g)][:, 1]
    return replace(cfg, noise_std=frac * float(np.std(drain_level)))


def tree_fixture(seed: int = 11) -> SynthConfig:
    """Balanced two-way tree of height 3 (7 basins): the workhorse for the
    depth-ablation and data-scarcity experiments."""
    return calibrate_noise(SynthConfig(branching=2, height=3, n_steps=4000, seed=seed))


def chain_fixture(seed: int = 23) -> SynthConfig:
    """Chain of 7 basins. With routing delays of 1..2 steps, levels far up
    the chain stay informative about the drain, which a depth-limited flat
    model cannot see."""
    return calibrate_noise(SynthConfig(branching=1, height=7, n_steps=4000, seed=seed))
