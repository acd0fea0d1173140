"""Every config key in one table, with its default and the values it takes,
and the one checker that applies it: to a whole config file in the CLI, to
each config class's own keys, and to the fields of a checkpoint, which take
the type and range of a config key. A number's range is an interval such as
`[1, inf)`: NaN lies in none, and an open `inf` end rejects Infinity, so no
key takes a non-finite number. The bench methods are the keys of METHODS.
This module imports nothing from fspll.
"""

from __future__ import annotations

import json
from typing import NamedTuple

DISTANCE_KINDS = ("euclidean", "squared")
SWEEP_AXES = ("lambda", "k")  # each sweeps the rectify key of its name

# bench method -> (the RectifyConfig fields it changes, whether it meta-trains
# on clean labels). fspll: the full pipeline; fspll-nm: smoothing disabled
# (lam=0); pn: no rectification (0 iterations, prototypes from uniform
# candidate confidence); *-plus: the same pipelines, meta-trained on clean labels.
METHODS = {
    "fspll": ({}, False),
    "fspll-nm": ({"lam": 0.0}, False),
    "pn": ({"iterations": 0}, False),
    "fspll-plus": ({}, True),
    "pn-plus": ({"iterations": 0}, True),
}


class Key(NamedTuple):
    """A config key: its default, and the interval a number (or each number
    of a list) lies in, or the tuple of a string's choices. A distinct list is
    non-empty and lists no value twice. A null default lets the key take
    null; `null_type` is then a value of its type."""

    default: object
    domain: str | tuple | None = None
    distinct: bool = False
    null_type: object = None
    note: str = ""


# Laid out like the JSON file. Parsing, checking, the --help epilog and
# train's config.json derive from this table, and a key it does not hold is an
# error. test.checkpoint, sweep.axis and sweep.values default to null, and
# their commands require them.
DEFAULTS = {
    "world": {"seed": Key(1, "[0, inf)"), "classes": Key(50, "[2, inf)"),
              "dim": Key(16, "[1, inf)"), "sigma": Key(1.0, "(0, inf)"),
              # the largest scale whose uniform draw has a finite width
              "mean_scale": Key(1.0, "(0, 8.988465674311579e+307]")},
    "train_classes": Key(30, "[0, inf)",
                         note="meta-train on the first N world classes; the rest are held out"),
    "network": {"hidden_dims": Key([64, 64], "[1, inf)"), "output_dim": Key(64, "[1, inf)")},
    "train": {"max_epoch": Key(200, "[0, inf)"), "tasks_per_epoch": Key(100, "[1, inf)"),
              "n_way": Key(30, "[1, inf)"), "k_support": Key(5, "[1, inf)"),
              "k_query": Key(15, "[1, inf)"), "lr0": Key(0.001, "(0, inf)"),
              "lr_half_period": Key(20, "[1, inf)"), "init_seed": Key(0, "[0, inf)"),
              "task_seed": Key(0, "[0, inf)"), "step_per_task": Key(False),
              "fixed_tasks": Key(False),
              "supervised_loss": Key(False, note="ablation: the query loss uses ground truth")},
    "rectify": {"iterations": Key(10, "[0, inf)"), "lambda": Key(0.5, "[0, inf)"),
                "k": Key(None, "[1, inf)", null_type=1, note="null: shots per class - 1"),
                "distance": Key("euclidean", DISTANCE_KINDS)},
    "corruption": {"p": Key(1.0, "[0, 1]"), "r": Key(1, "[0, inf)")},
    "test": {"checkpoint": Key(None, null_type="", note="required by test"),
             "n_way": Key(5, "[1, inf)"), "k_shot": Key(5, "[1, inf)"),
             "k_query": Key(15, "[1, inf)"), "rounds": Key(50, "[1, inf)"),
             "eval_seed": Key(1, "[0, inf)")},
    "bench": {"n_way": Key([5, 10], "[1, inf)", True), "k_shot": Key([5, 10], "[1, inf)", True),
              "r": Key([0, 1, 2], "[0, inf)", True), "p": Key(1.0, "[0, 1]"),
              "rounds": Key(50, "[1, inf)"),
              "methods": Key(["fspll", "fspll-nm", "pn"], tuple(METHODS), True),
              "k_query": Key(15, "[1, inf)"), "eval_seed": Key(1, "[0, inf)")},
    "sweep": {"axis": Key(None, SWEEP_AXES, null_type="", note="required by sweep"),
              "values": Key(None, "[0, inf)", True, null_type=[0.0],
                            note="required by sweep; each also in its axis's rectify range"),
              "retrain": Key(False)},
}


def config_keys(table: dict = DEFAULTS, prefix: str = ""):
    """(dotted key, leaf) for every leaf of a nested dict: its entry for the
    table, its value for a parsed config."""
    for key, leaf in table.items():
        if isinstance(leaf, dict):
            yield from config_keys(leaf, f"{prefix}{key}.")
        else:
            yield prefix + key, leaf


KEYS = dict(config_keys())


def check(values: dict) -> None:
    """Raise a ValueError naming the first (dotted key, value) item of
    `values` that its key's entry rejects; null passes."""
    for key, value in values.items():
        check_entry(key, value, KEYS[key])


def check_entry(name: str, value, entry: Key) -> None:
    """Raise unless `entry` takes `value` (null passes); the error calls the
    value `name`."""
    if value is None:
        return
    listed = isinstance(value, (list, tuple))
    if entry.distinct and not value:
        raise ValueError(f"{name} must list at least one value")
    for i, item in enumerate(value if listed else [value]):
        if entry.distinct and item in value[:i]:  # its report rows would be written twice
            raise ValueError(f"{name} lists {item!r} twice")
        check_value(f"{name}[{i}]" if listed else name, item, entry.domain)


def check_value(name: str, value, domain) -> None:
    """Raise unless `value` lies in `domain`, an interval or a tuple of
    choices (None takes anything); the error calls the value `name`."""
    if isinstance(domain, tuple):
        if value not in domain:
            raise ValueError(f"{name} must be one of {domain}, got {value!r}")
    elif domain is not None:
        lo, hi = (float(end) for end in domain[1:-1].split(","))
        if not ((lo <= value if domain[0] == "[" else lo < value)
                and (value <= hi if domain[-1] == "]" else value < hi)):
            raise ValueError(f"{name} must be in {domain}, got {value}")


JSON_TYPES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
              list: "a list", dict: "an object"}


def check_type(name: str, value, default, null_type=None) -> None:
    """Raise unless the parsed JSON `value` has the type of `default`, where an
    integer is also a number and a list's items have the type of its first. A
    null default takes null or a value of the type of `null_type`."""
    example = null_type if default is None else default
    if value is None and default is None:
        return
    if type(value) is not type(example) and (type(value), type(example)) != (int, float):
        raise ValueError(f"{name} must be {JSON_TYPES[type(example)]}"
                         f"{' or null' if default is None else ''}, got {json.dumps(value)}")
    if isinstance(example, list):
        for i, item in enumerate(value):
            check_type(f"{name}[{i}]", item, example[0])


def check_fields(doc, keys: dict) -> None:
    """Raise unless the parsed JSON checkpoint `doc` is an object that holds
    each field of `keys`, with the type and range of the config key it maps to
    (a field mapped to None only has to be there)."""
    if not isinstance(doc, dict):
        raise ValueError(f"must hold a JSON object, not {JSON_TYPES.get(type(doc), 'null')}")
    for name, key in keys.items():
        if name not in doc:
            raise ValueError(f"field {name} is missing")
        if key is not None:
            check_type(f"field {name}", doc[name], KEYS[key].default)
            check_entry(f"field {name}", doc[name], KEYS[key])
