#!/usr/bin/env python3
"""Per-basin comparison of the tree model against the flat baseline.

Runs every basin of the 7-basin chain fixture as a forecast target:
the tree model sees the target's full upstream subtree, the baseline
concatenates features from a depth-2 neighborhood. Prints the
comparison table (positive diff means the tree model wins).
"""

import argparse

from hydronets.experiments import ExperimentConfig, run_all_basins
from hydronets.model import Dims
from hydronets.presets import chain_fixture
from hydronets.training import TrainConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/all_basins")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--basins", nargs="+", help="target subset (default: every basin)")
    args = ap.parse_args()

    cfg = ExperimentConfig(
        dims=Dims(window=24, embedding=4, horizon=2),
        train=TrainConfig(learning_rate=0.01, epochs=40, batch_size=256),
        seeds=tuple(range(args.seeds)),
        metric="r2_persist",
        out_dir=args.out,
        synth=chain_fixture(),
        workers=args.workers,
        basins=tuple(args.basins) if args.basins else None,
    )
    _, comparison = run_all_basins(cfg)
    print(f"{'basin':8s} {'linear':>9s} {'hydronets':>10s} {'diff':>9s}")
    for row in comparison:
        print(f"{row.basin:8s} {row.linear:9.4f} {row.hydronets:10.4f} {row.diff:+9.4f}")
    print(f"report in {args.out}/")


if __name__ == "__main__":
    main()
