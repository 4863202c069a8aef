"""What each command loads, and the package's lazy exports.

A command that never trains, runs a grid or hashes must not pay for the
modules that do: each check runs in a fresh process and reads
``sys.modules`` after the command. ``_hashlib`` is OpenSSL's hash module,
which ``import hashlib`` loads. ``numpy.random`` loads it too (through
``secrets`` and ``hmac``), so a command that draws random numbers has it
whatever the package does; there the checks name who imported it.
"""

import ast
import hashlib
import importlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest

import hydronets
import hydronets.cli
from hydronets import codec, experiments
from hydronets.data import SynthConfig, dump_series, generate_synthetic
from hydronets.region import dump_region

from conftest import run_python

WATCHED = ("_hashlib", "concurrent.futures", "hydronets.experiments", "hydronets.metrics", "hydronets.training")

# Runs ``hydronets.cli.main(argv)`` and prints the modules of ``watched``
# then loaded, and the modules whose code imported hashlib or _hashlib: an
# import hook takes the first frame outside the import machinery.
PROBE = """
import json, sys

argv, watched = json.loads(sys.argv[1])
importers = set()


class Watch:
    def find_spec(self, name, path=None, target=None):
        if name in ("hashlib", "_hashlib"):
            frame = sys._getframe(1)
            while frame.f_globals.get("__name__", "").startswith("importlib"):
                frame = frame.f_back
            importers.add(frame.f_globals.get("__name__"))


sys.meta_path.insert(0, Watch())
import hydronets.cli

assert not argv or hydronets.cli.main(argv) == 0
print(json.dumps([[m for m in watched if m in sys.modules], sorted(importers)]))
"""


def loaded_after(*argv: str) -> tuple[set[str], set[str]]:
    """The modules of ``WATCHED`` loaded in a fresh process after
    ``hydronets.cli.main(argv)`` succeeds (after the import alone when
    ``argv`` is empty), and the modules that imported a hash module."""
    proc = run_python(["-c", PROBE, json.dumps([list(argv), WATCHED])], timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, importers = json.loads(proc.stdout.splitlines()[-1])
    assert not [m for m in importers if m.startswith("hydronets")]
    return set(loaded), set(importers)


def write_config(tmp_path: Path, files: bool) -> str:
    """A tiny config, on region and series files or on a synth block."""
    synth = SynthConfig(branching=2, height=2, n_steps=160, noise_std=0.05, seed=3)
    doc = {
        "dims": {"window": 4, "embedding": 2, "horizon": 1},
        "train": {"learning_rate": 0.02, "epochs": 2, "batch_size": 32},
        "seeds": [0, 1],
    }
    if files:
        g, store = generate_synthetic(synth)
        (tmp_path / "region.json").write_text(dump_region(g))
        (tmp_path / "series.csv").write_text(dump_series(store))
        doc.update(region=str(tmp_path / "region.json"), series=str(tmp_path / "series.csv"))
    else:
        doc["synth"] = asdict(synth)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_importing_the_cli_loads_no_command():
    assert loaded_after() == (set(), set())


def test_evaluate_loads_no_trainer_and_no_hash(tmp_path):
    cfg = ["--config", write_config(tmp_path, files=True), "--out", str(tmp_path / "out")]
    assert hydronets.cli.main(["train", *cfg]) == 0
    loaded, importers = loaded_after("evaluate", *cfg, "--checkpoint", str(tmp_path / "out" / "checkpoint.json"))
    assert loaded == {"hydronets.metrics"} and importers == set()


@pytest.mark.parametrize("files", [False, True], ids=["synth", "files"])
def test_train_loads_no_runner_and_hashes_nothing(tmp_path, files):
    cfg = ["--config", write_config(tmp_path, files), "--out", str(tmp_path / "out")]
    loaded, importers = loaded_after("train", *cfg)
    assert loaded - {"_hashlib"} == {"hydronets.training"}
    # Only numpy.random's import of secrets, which the initial weights need.
    assert importers == ({"hmac"} if "_hashlib" in loaded else set())


def test_a_serial_grid_starts_no_thread_pool(tmp_path):
    cfg = ["--config", write_config(tmp_path, files=True)]
    serial, _ = loaded_after("exp-depth", *cfg, "--out", str(tmp_path / "w1"), "--workers", "1")
    assert "concurrent.futures" not in serial and "hydronets.experiments" in serial
    parallel, _ = loaded_after("exp-depth", *cfg, "--out", str(tmp_path / "w2"), "--workers", "2")
    assert "concurrent.futures" in parallel


def test_only_the_codec_names_hashlib():
    """Every other module hashes through :data:`hydronets.codec.sha256`."""
    package = Path(hydronets.__file__).parent
    users = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name == "hashlib" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "hashlib"
    }
    assert users == {"codec.py"}


# Empty, ASCII, characters of two to four bytes, and a text of several
# hash pieces whose boundaries fall inside multi-byte characters.
TEXTS = ["", "region", "région €😀", "aé€😀" * (experiments._HASH_PIECE // 3)]


@pytest.mark.parametrize("text", TEXTS, ids=["empty", "ascii", "utf8", "pieces"])
def test_hashes_are_sha256(text):
    data = text.encode()
    assert codec.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    assert experiments._sha256(text) == hashlib.sha256(data).hexdigest()


# --- lazy exports -------------------------------------------------------------

EXPORTS = [
    "Basin", "Dims", "ExampleSet", "ExperimentConfig", "FlatLinearParams", "HydroNetParams",
    "HydroNetsError", "LossWeights", "Member", "MetricsReport", "NormStats", "RegionGraph",
    "ReportTable", "SeriesStore", "SynthConfig", "TrainConfig", "TrainResult", "ValidationReport",
    "backward_hydronet", "drain_of", "dump_region", "dump_series", "emit_report", "evaluate",
    "finite_difference_grad", "fit_norm_stats", "forward_hydronet", "generate_synthetic", "height",
    "init_flat", "init_hydronet", "load_checkpoint", "load_series", "mse", "param_count",
    "parse_region", "prepare_datasets", "prune_to_depth", "r2_nse", "r2_persist", "run_all_basins",
    "run_depth_experiment", "run_scarcity", "save_checkpoint", "split_chronological",
    "topological_order", "train", "train_flat", "train_stack", "validate", "weighted_mse_loss",
    "window_examples",
]


def test_the_exported_names_are_unchanged():
    assert hydronets.__all__ == EXPORTS


@pytest.mark.parametrize("name", EXPORTS)
def test_an_export_is_its_modules_object_and_is_not_kept(name):
    value = getattr(hydronets, name)
    module = importlib.import_module(value.__module__)
    assert module.__name__.startswith("hydronets.") and getattr(module, name) is value
    # Kept in the package, the name would outlive a later change to the
    # module's attribute (a patch, or a tracer's wrapper being removed).
    assert name not in vars(hydronets)


def test_dir_lists_every_export():
    assert set(EXPORTS) <= set(dir(hydronets))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hydronets.no_such_name


def test_star_import_gives_every_export():
    names = {}
    exec("from hydronets import *", names)
    assert set(EXPORTS) <= set(names)
