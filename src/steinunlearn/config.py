"""Experiment configuration: JSON parsing, validation, and canonicalization.

Each config block is a dataclass, and the dataclass is its schema: a
field's annotation gives its JSON type, a declared default makes it
optional, and any other key is rejected. Value checks live in each
dataclass's __post_init__. Errors name the offending field with a dotted
path so a bad config fails loudly and precisely. to_canonical_dict reads
the same fields back with every default filled, giving a stable
round-trippable form.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import data as data_mod
from .diffnet import NetworkSpec
from .errors import ConfigurationError
from .scoring import DEFAULT_ENTROPY_FLOOR, METRICS
from .unlearn import METHOD_FIELDS, UnlearnConfig

DEFAULT_EXPANSION_KS = (0, 10, 50)

# The fields each dataset type reads besides `type` and `standardize`; all
# of them are required for that type and rejected for the others.
DATASET_FIELDS = {
    "blobs": ("n_per_class", "centers", "std"),
    "csv": ("path", "label_column"),
    "idx": ("images", "labels"),
}

_JSON_TYPES = {bool: "true or false", int: "an integer",
               float: "a finite number", str: "a string"}


def _check(ok: bool, name: str, requirement: str, value) -> None:
    if not ok:
        raise ConfigurationError(f"{name}: {requirement}, got {value!r}")


@dataclass(frozen=True)
class DatasetConfig:
    type: str                      # a key of DATASET_FIELDS
    n_per_class: int = 0
    centers: tuple[tuple[float, ...], ...] = ()
    std: float = 0.0
    path: str = ""
    label_column: str = ""
    images: str = ""
    labels: str = ""
    standardize: bool = False

    def __post_init__(self) -> None:
        if self.type == "blobs":
            _check(self.n_per_class > 0, "n_per_class", "must be positive",
                   self.n_per_class)
            _check(len(self.centers) >= 2 and len(set(map(len, self.centers))) == 1,
                   "centers", "expected at least 2 coordinate lists of one length",
                   self.centers)
            _check(self.std > 0, "std", "must be positive", self.std)

    def build(self, seed: int) -> data_mod.LabeledDataset:
        if self.type == "blobs":
            ds = data_mod.make_blobs(
                self.n_per_class, np.asarray(self.centers), self.std, seed
            )
        elif self.type == "csv":
            ds = data_mod.load_csv(self.path, self.label_column)
        else:
            ds = data_mod.load_idx(self.images, self.labels)
        return data_mod.standardize_features(ds) if self.standardize else ds


@dataclass(frozen=True)
class TrainingConfig:
    lr: float
    epochs: int
    batch_size: int = 32

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            _check(value > 0, f.name, "must be positive", value)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    network: NetworkSpec
    training: TrainingConfig
    test_fraction: float
    metrics: tuple[str, ...]
    methods: tuple[UnlearnConfig, ...]
    top_k_each_end: int = 5
    expansion_ks: tuple[int, ...] = DEFAULT_EXPANSION_KS
    epsilon: float = 0.05
    seeds: tuple[int, ...] = (0,)
    output_dir: str = "out"
    entropy_floor: float = DEFAULT_ENTROPY_FLOOR
    msksd_global: bool = False
    mia_calibrate_on_original: bool = False

    def __post_init__(self) -> None:
        _check(0 < self.test_fraction < 1, "test_fraction", "must lie in (0, 1)",
               self.test_fraction)
        for i, metric in enumerate(self.metrics):
            _check(metric in METRICS, f"metrics[{i}]",
                   f"unknown metric; choose from {METRICS}", metric)
        _check(self.top_k_each_end > 0, "top_k_each_end", "must be positive",
               self.top_k_each_end)
        ks = list(self.expansion_ks)
        _check(ks[0] >= 0 and ks == sorted(ks), "expansion_ks",
               "expected an ascending list of integers >= 0", ks)
        _check(self.epsilon >= 0, "epsilon", "must be >= 0", self.epsilon)
        for i, seed in enumerate(self.seeds):
            _check(seed >= 0, f"seeds[{i}]", "must be >= 0", seed)
        _check(self.output_dir != "", "output_dir", "must not be empty", self.output_dir)
        _check(self.entropy_floor > 0, "entropy_floor", "must be positive",
               self.entropy_floor)
        # a repeated entry would repeat rows under the same run ids
        for name, values in (("seeds", self.seeds), ("metrics", self.metrics),
                             ("expansion_ks", self.expansion_ks),
                             ("methods", [m.method for m in self.methods])):
            for i, value in enumerate(values):
                _check(value not in values[:i], f"{name}[{i}]",
                       "repeats an earlier entry", value)

    @staticmethod
    def from_dict(cfg: dict) -> "ExperimentConfig":
        return _parse(ExperimentConfig, cfg, "")

    def to_canonical_dict(self) -> dict:
        return _canonical(self)


# Blocks whose accepted fields depend on a selector field: the selector, the
# fields each of its values adds to the block's other fields, and whether
# those added fields are required (method fields have defaults).
_VARIANTS = {
    DatasetConfig: ("type", DATASET_FIELDS, True),
    UnlearnConfig: ("method", METHOD_FIELDS, False),
}


def _fields(cls, kind: str | None) -> list[dataclasses.Field]:
    """The fields a block of `cls` accepts when its selector is `kind`."""
    if cls not in _VARIANTS:
        return list(dataclasses.fields(cls))
    table = _VARIANTS[cls][1]
    variant = {name for names in table.values() for name in names}
    return [f for f in dataclasses.fields(cls)
            if f.name not in variant or f.name in table[kind]]


def _parse(cls, block, path: str):
    """Build dataclass `cls` from the JSON object `block` found at `path`."""
    where = path or "config"
    if not isinstance(block, dict):
        raise ConfigurationError(f"{where}: expected a JSON object, got {block!r}")
    kind, required = None, set()
    if cls in _VARIANTS:
        key, table, kind_fields_required = _VARIANTS[cls]
        if key not in block:
            raise ConfigurationError(f"{where}.{key}: missing required field")
        kind = block[key]
        _check(isinstance(kind, str) and kind in table, f"{where}.{key}",
               f"expected one of {tuple(table)}", kind)
        if kind_fields_required:
            required = set(table[kind])
    fields = _fields(cls, kind)
    unknown = sorted(set(block) - {f.name for f in fields})
    if unknown:
        raise ConfigurationError(f"{where}: unknown fields {unknown}")
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields:
        if f.name in block:
            values[f.name] = _typed(block[f.name], hints[f.name], _dotted(path, f.name))
        elif f.name in required or f.default is dataclasses.MISSING:
            raise ConfigurationError(f"{where}.{f.name}: missing required field")
    try:
        return cls(**values)
    except ConfigurationError as exc:
        raise ConfigurationError(_dotted(path, str(exc))) from exc


def _typed(value, hint, path: str):
    """`value` as the JSON type that the annotation `hint` stands for."""
    if dataclasses.is_dataclass(hint):
        return _parse(hint, value, path)
    if typing.get_origin(hint) is tuple:
        _check(isinstance(value, list) and len(value) > 0, path,
               "expected a nonempty list", value)
        item = typing.get_args(hint)[0]
        return tuple(_typed(v, item, f"{path}[{i}]") for i, v in enumerate(value))
    if hint is float:
        # the comparison also rejects NaN, and ints too large for a float
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)
    elif hint is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, hint)
    _check(ok, path, f"expected {_JSON_TYPES[hint]}", value)
    return float(value) if hint is float else value


def _dotted(path: str, rest: str) -> str:
    return f"{path}.{rest}" if path else rest


def _canonical(value):
    """JSON form of a parsed value: each block as the fields it accepts."""
    if dataclasses.is_dataclass(value):
        cls = type(value)
        kind = getattr(value, _VARIANTS[cls][0]) if cls in _VARIANTS else None
        return {f.name: _canonical(getattr(value, f.name)) for f in _fields(cls, kind)}
    if isinstance(value, tuple):
        return [_canonical(v) for v in value]
    return value


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        # utf-8-sig also reads a file that starts with a byte-order mark
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
    return ExperimentConfig.from_dict(raw)


def dump_config(cfg: ExperimentConfig) -> str:
    return json.dumps(cfg.to_canonical_dict(), indent=2, sort_keys=True) + "\n"
