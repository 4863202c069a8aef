"""The JSON reader and writer: round trips, dict fields, each file kind's
codes, fuzzed config documents, and the one writer."""

import ast
import copy
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hydronets
from hydronets import model
from hydronets.codec import CHECKPOINT, CONFIG, REGION, from_doc, to_doc
from hydronets.data import SynthConfig
from hydronets.errors import HydroNetsError
from hydronets.experiments import ExperimentConfig
from hydronets.model import Dims, init_flat, init_hydronet, save_checkpoint
from hydronets.region import Basin, RegionGraph
from hydronets.training import TrainConfig

FROM_SYNTH = ExperimentConfig(
    dims=Dims(window=4, embedding=2, horizon=1),
    train=TrainConfig(learning_rate=0.5, epochs=3, optimizer="sgd", seed=4),
    seeds=(3, 1),
    synth=SynthConfig(branching=3, height=2, n_steps=77, noise_std=0.25, seed=42),
    basins=("b1", "b0"),
    sizes=(10, 20),
)
FROM_FILES = ExperimentConfig(
    dims=Dims(window=24, embedding=4, horizon=2, channels=2),
    region="data/region.json",
    series="data/series.csv",
    train_frac=0.75,
    workers=3,
)

REGION_GRAPH = RegionGraph(
    basins=(Basin(id="b1", name="one", static=(0.5, -2.0)), Basin(id="b2", name="two")),
    edges=(("b1", "b2"),),
)
# Both checkpoint schemas, as the saved checkpoints of a two-basin chain read.
CHECKPOINTS = [
    from_doc(schema, json.loads(save_checkpoint(p)), codes=CHECKPOINT)
    for schema, p in [
        (model._Tree, init_hydronet(REGION_GRAPH, FROM_SYNTH.dims, 0)),
        (model._Linear, init_flat(REGION_GRAPH, "b2", 2, FROM_SYNTH.dims, 0)),
    ]
]


@pytest.mark.parametrize(
    "cfg", [FROM_SYNTH.dims, FROM_SYNTH.train, FROM_SYNTH, FROM_FILES, REGION_GRAPH, *CHECKPOINTS,
            REGION_GRAPH.basins[1]],
)
def test_round_trip(cfg):
    doc = to_doc(cfg)
    assert from_doc(type(cfg), json.loads(json.dumps(doc))) == cfg
    # A None field has no key: FROM_FILES has no synth, basins or sizes, a
    # basin without static features no static, at the top and nested.
    assert "null" not in json.dumps(doc)


def test_integer_for_float_is_stored_as_float():
    cfg = from_doc(TrainConfig, {"learning_rate": 0})
    assert cfg.learning_rate == 0.0 and isinstance(cfg.learning_rate, float)
    assert from_doc(SynthConfig, {"kernel_scale": [2, 3]}).kernel_scale == (2.0, 3.0)


@dataclass(frozen=True)
class Table:
    rows: dict[str, tuple[float, ...]]


@dataclass(frozen=True)
class Nested:
    rows: dict[str, Dims]


def test_dict_values_are_converted():
    table = from_doc(Table, {"rows": {"a": [1, 2.5], "b": []}})
    assert table == Table(rows={"a": (1.0, 2.5), "b": ()}) and type(table.rows["a"][0]) is float


@pytest.mark.parametrize("rows", [[], [["a", 1]], "a", 1, None])
def test_dict_takes_only_an_object(rows):
    with pytest.raises(HydroNetsError, match="^invalid-config: rows must be an object, got "):
        from_doc(Table, {"rows": rows})


def test_a_wrong_container_is_named_not_written_out():
    deep = []
    for _ in range(100_000):  # deeper than json.dumps could write
        deep = [deep]
    for name, value, message in [
        ("dims", deep, "an object, got an array"), ("seeds", {"a": deep}, "an array, got an object"),
    ]:
        with pytest.raises(HydroNetsError, match=f"^invalid-config: {name} must be {message}$"):
            from_doc(ExperimentConfig, {**_doc(FROM_FILES), name: value})


def test_dict_errors_name_the_key_path():
    with pytest.raises(HydroNetsError, match=r"^invalid-config: rows\.b\[1\] must be a finite number, got \"2\""):
        from_doc(Table, {"rows": {"a": [1], "b": [1, "2"]}})


@pytest.mark.parametrize("codes", [CONFIG, REGION, CHECKPOINT], ids=["config", "region", "checkpoint"])
def test_each_file_kind_has_its_codes(codes):
    wrong, unknown = codes
    dims = {"window": 4, "embedding": 2, "horizon": 1}
    cases = [
        ([dims], wrong, "Dims must be an object"),
        ({**dims, "window": True}, wrong, "window must be an integer, got true"),
        ({"window": 4}, wrong, "missing field embedding; missing field horizon"),
        ({**dims, "extra": 1}, unknown, "unknown field extra"),
        # Unknown fields take the code when fields are also missing.
        ({"window": 4, "extra": 1}, unknown, "unknown field extra; missing field embedding; missing field horizon"),
    ]
    for doc, code, message in cases:
        with pytest.raises(HydroNetsError) as e:
            from_doc(Dims, doc, codes=codes)
        assert e.value.code == code and str(e.value).startswith(f"{code}: {message}")
    # Values inside dicts and nested dataclasses report under the same codes.
    for doc, code, message in [
        ({"rows": {"a": {**dims, "window": "4"}}}, wrong, 'rows.a.window must be an integer, got "4"'),
        ({"rows": {"a": {"window": 4, "z": 1}}}, unknown, "unknown field rows.a.z; missing field rows.a.embedding"),
    ]:
        with pytest.raises(HydroNetsError) as e:
            from_doc(Nested, doc, codes=codes)
        assert e.value.code == code and str(e.value).startswith(f"{code}: {message}")


def _doc(cfg):
    """``cfg`` as a config file would give it: no nulls and no train.seed."""
    doc = to_doc(cfg)
    doc.get("train", {}).pop("seed", None)
    return doc


def _load(cls, text):
    if cls is ExperimentConfig:
        return ExperimentConfig.from_json(text)
    cfg = from_doc(cls, json.loads(text))
    cfg.check()
    return cfg


# Valid configs: an experiment on a synthetic region, one on files, and a
# synth config on its own.
VALID = [replace(FROM_SYNTH, train=replace(FROM_SYNTH.train, seed=0)), FROM_FILES, SynthConfig()]


@pytest.mark.parametrize("cfg", VALID)
def test_config_files_load(cfg):
    assert _load(type(cfg), json.dumps(_doc(cfg))) == cfg


# Stand-ins of every JSON type, non-finite numbers and an integer too large
# for a float among them.
OTHER_VALUES = [
    None, True, False, 0, -1, 7, 1.5, 10**400, "", "x", [], [1, 2], ["a"], {}, {"a": 1},
    math.nan, math.inf, -math.inf,
]


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _paths(v, prefix + (i,))


def _other(draw):
    return copy.deepcopy(draw(st.sampled_from(OTHER_VALUES)))


def _mutate(draw, doc):
    path = draw(st.sampled_from(list(_paths(doc))))
    kind = draw(st.sampled_from(["drop", "swap", "wrap", "unknown"]))
    if not path:
        return _other(draw) if kind == "swap" else [doc]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    if kind == "drop":
        del parent[key]
    elif kind == "swap":
        parent[key] = _other(draw)
    elif kind == "wrap":
        parent[key] = draw(st.sampled_from([[value], {"x": value}, [[value]]]))
    elif isinstance(value, dict):
        value["bogus"] = 1
    else:
        parent[key] = {"bogus": value}
    return doc


@st.composite
def mutated_docs(draw):
    cfg = draw(st.sampled_from(VALID))
    doc = _doc(cfg)
    for _ in range(draw(st.integers(1, 3))):
        doc = _mutate(draw, doc)
    return type(cfg), json.dumps(doc)


@settings(max_examples=400, deadline=None)
@given(mutated_docs())
def test_mutated_documents_load_or_fail_with_invalid_config(case):
    try:
        _load(*case)
    except HydroNetsError as e:
        assert e.code == "invalid-config", e


PACKAGE = Path(hydronets.__file__).parent


def _uses_asdict(module: Path) -> bool:
    for node in ast.walk(ast.parse(module.read_text())):
        if isinstance(node, ast.ImportFrom) and any(alias.name == "asdict" for alias in node.names):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "asdict":
            return True
    return False


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_only_the_codec_writes_documents(module):
    # Each file kind's keys are stated once, in its schema: a document
    # written from a dataclass goes through to_doc, which walks the fields
    # itself. asdict, which deep-copies every float of a checkpoint, is
    # used nowhere.
    assert not _uses_asdict(PACKAGE / module)
