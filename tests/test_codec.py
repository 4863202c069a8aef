"""The config reader: round trips through JSON and fuzzed documents."""

import copy
import json
import math
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydronets.codec import from_doc
from hydronets.data import SynthConfig
from hydronets.errors import HydroNetsError
from hydronets.experiments import ExperimentConfig
from hydronets.model import Dims
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


@pytest.mark.parametrize("cfg", [FROM_SYNTH.dims, FROM_SYNTH.train, FROM_SYNTH, FROM_FILES])
def test_round_trip(cfg):
    assert from_doc(type(cfg), json.loads(json.dumps(asdict(cfg)))) == cfg


def test_integer_for_float_is_stored_as_float():
    cfg = from_doc(TrainConfig, {"learning_rate": 0})
    assert cfg.learning_rate == 0.0 and isinstance(cfg.learning_rate, float)
    assert from_doc(SynthConfig, {"kernel_scale": [2, 3]}).kernel_scale == (2.0, 3.0)


def _doc(cfg):
    """``cfg`` as a config file would give it: no nulls and no train.seed."""
    doc = {k: v for k, v in asdict(cfg).items() if v is not None}
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
