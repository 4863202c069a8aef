#!/usr/bin/env python3
"""Materialize the two bundled synthetic fixtures as region/series files.

Writes data/tree (balanced, branching 2, height 3) and data/chain
(7 basins in a line), each with region.json, series.csv, and the
generator config used. The experiment scripts regenerate these in
memory; the files are for poking at with the CLI.
"""

import argparse
import json
from dataclasses import asdict
from pathlib import Path

from hydronets.data import dump_series, generate_synthetic
from hydronets.presets import chain_fixture, tree_fixture
from hydronets.region import dump_region


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="data", help="output root directory")
    args = ap.parse_args()

    for name, cfg in (("tree", tree_fixture()), ("chain", chain_fixture())):
        out = Path(args.out) / name
        out.mkdir(parents=True, exist_ok=True)
        g, store = generate_synthetic(cfg)
        (out / "region.json").write_text(dump_region(g))
        (out / "series.csv").write_text(dump_series(store))
        (out / "synth.json").write_text(json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n")
        print(f"{name}: {len(g.basins)} basins, {store.n_steps} steps -> {out}")


if __name__ == "__main__":
    main()
