"""One CLI command of a benchmark job, run in its own process.

    python3 bench/job.py [--spans FILE] [--peak-rss FILE] -- <hydronets CLI arguments>

Calls ``hydronets.cli.main`` with the given arguments and exits with its
return code, as the ``hydronets`` console script would. With ``--spans``
the layer tracer is installed around the call and the recorded spans are
written to FILE as JSON after the command returns; without it nothing is
wrapped. With ``--peak-rss`` the process's peak resident set size in KiB
is written to FILE at the end. The package is imported from the ``src/``
directory next to the benchmark's own, never from an installed copy.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def import_cli():
    """Import ``hydronets.cli`` from this checkout's ``src/``."""
    if not (SRC / "hydronets" / "cli.py").is_file():
        raise SystemExit(f"hydronets sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import hydronets.cli

    if Path(hydronets.cli.__file__).resolve().parent != (SRC / "hydronets").resolve():
        raise SystemExit(f"hydronets imported from {hydronets.cli.__file__}, not {SRC}")
    return hydronets.cli


def run(argv: list[str], spans_path: str | None) -> int:
    cli = import_cli()
    if spans_path is None:
        return cli.main(argv)
    from tracer import Tracer

    with Tracer() as tracer:
        # Looked up on the module so the call goes through the wrapper.
        code = cli.main(argv)
    Path(spans_path).write_text(json.dumps(tracer.spans))
    return code


def peak_rss_kb() -> int:
    """Peak RSS of this process image. The kernel's ``ru_maxrss`` would
    also count the parent's memory at the fork that started this process,
    so read the high-water mark of the current address space instead."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise SystemExit("no VmHWM in /proc/self/status")


def main() -> int:
    args = sys.argv[1:]
    paths = {"--spans": None, "--peak-rss": None}
    while args and args[0] in paths:
        paths[args[0]], args = args[1], args[2:]
    if args[:1] != ["--"]:
        raise SystemExit("usage: job.py [--spans FILE] [--peak-rss FILE] -- <hydronets arguments>")
    code = run(args[1:], paths["--spans"])
    if paths["--peak-rss"]:
        Path(paths["--peak-rss"]).write_text(f"{peak_rss_kb()}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
