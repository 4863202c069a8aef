#!/usr/bin/env python3
"""Regenerate bench/reference.json, the numbers every benchmark run checks.

    python3 bench/make_reference.py [--smoke] [--seeds 0 1 2 ...] [--workload NAME ...]

For each workload and seed this makes the inputs, runs one job and records
every number the job wrote (see ``run.check_values``), plus the range of
the skill over the seeds recorded. Entries for other workloads, seeds and
scales are kept. Regenerate only for a change that is meant to move the
numbers by more than the benchmark's tolerance, and say so in the change.
"""

from __future__ import annotations

import argparse
import json

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(21)))
    ap.add_argument("--workload", nargs="+", choices=run.WORKLOADS, default=list(run.WORKLOADS))
    args = ap.parse_args()

    run.pin_threads()
    run.import_hydronets()
    scale = run.SMOKE if args.smoke else run.FULL
    doc = json.loads(run.REFERENCE.read_text())
    section = doc.setdefault("smoke" if args.smoke else "full", {})
    for workload in args.workload:
        entry = section.setdefault(workload, {"seeds": {}, "skill_range": None})
        for seed in args.seeds:
            inputs = run.SetUp(workload, seed, scale)()
            out = inputs.dir.parent / "job0"
            job = run.run_job(workload, inputs, out, trace=False)
            if job.errors:
                raise SystemExit(f"{workload} seed {seed}: {job.errors}")
            values = run.check_values(workload, out)
            entry["seeds"][str(seed)] = values
            print(f"{workload} seed {seed}: skill {run.skill(workload, inputs, values):.6f}", flush=True)
        skills = [run.skill(workload, inputs, v) for v in entry["seeds"].values()]
        entry["skill_range"] = [min(skills), max(skills)]
        entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
