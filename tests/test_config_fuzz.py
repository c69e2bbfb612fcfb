"""Property tests of the config boundary: one malformed, unknown or missing field is refused by name.

Starting from a small valid config of each experiment kind, each example either
gives one leaf a value of the wrong JSON type or adds one unknown key to one
block, and requires ``load_config`` to raise a ConfigError that names the
field's dotted path.  Dropping any one key of a valid config either leaves a
config that loads (the field has a default the experiment accepts) or one
refused by the dropped key's name.
"""

import copy
import json
import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rwre_lab.cli import EXPERIMENTS, load_config
from rwre_lab.errors import ConfigError

_DRIFT = [0.4, 0.1, 0.25, 0.25]
_CONE = {"sigma": [1, 1], "basis": [[1, 1], [1, -1]], "l": [1, 0], "lambda": "1/2", "check_direction": True}
_BASE = {"dimension": 2, "master_seed": 7, "n_walks": 10, "horizon": 100, "output": "out"}

# Float fields are written as floats and int fields as ints, so that a value's
# JSON type is the field's type and the wrong values below are wrong for it.
VALID = {
    "simulate": {
        **_BASE,
        "experiment": "simulate",
        "model": {"kind": "dirichlet", "alphas": [1.5, 1.2, 1.35, 1.35]},
    },
    "direction": {
        **_BASE,
        "experiment": "direction",
        "confirm_horizon": 20,
        "model": {"kind": "perturbed_srw", "epsilon": 0.1, "drift_dir": 1},
        "l": [1, 0],
        "cone": _CONE,
        "thresholds": {"level_threshold": 20.0, "dip_allowance": 10.0, "theta_tol": 0.3},
    },
    "renewal": {
        **_BASE,
        "experiment": "renewal",
        "confirm_horizon": 20,
        "model": {"kind": "homogeneous", "probs": _DRIFT},
        "cone": {**_CONE, "lambda": "scan", "lambda_grid": ["1", "1/2"]},
        "thresholds": {"renewal_rate_floor": 0.5},
    },
    "renewal-identity": {
        **_BASE,
        "experiment": "renewal-identity",
        "confirm_horizon": 20,
        "model": {"kind": "homogeneous", "probs": _DRIFT},
        "cone": _CONE,
        "identity": {"window": [2, 8]},
        "thresholds": {"bootstrap_samples": 100},
    },
    "slab": {
        **_BASE,
        "experiment": "slab",
        "model": {"kind": "mixture", "atoms": [_DRIFT, [0.1, 0.4, 0.25, 0.25]], "weights": [0.6, 0.4]},
        "slab": {"l_prime": [1.0, 0.0], "b": 1.0, "L_list": [2.0, 4.0]},
    },
    "zero-one-scan": {
        **_BASE,
        "experiment": "zero-one-scan",
        "model": {"kind": "homogeneous", "probs": _DRIFT},
        "zero_one": {"n_angles": 8},
        "thresholds": {"orth_band": 0.2},
    },
    "oracle-compare": {
        **_BASE,
        "experiment": "oracle-compare",
        "model": {"kind": "dirichlet", "alphas": [1.5, 1.2, 1.35, 1.35]},
        "oracle": {
            "region": {"kind": "slab", "l_prime": [1.0, 0.0], "b": 1.0, "L": 4.0, "bound_width": 6},
            "target_class": "Left",
            "n_env": 2,
        },
    },
}


def leaves(obj, path=(), field=""):
    """(location, dotted field path, value) of every non-object value, list entries included."""
    for key, value in obj.items():
        dotted = f"{field}.{key}" if field else key
        if isinstance(value, dict):
            yield from leaves(value, (*path, key), dotted)
        else:
            yield (*path, key), dotted, value
            if isinstance(value, list):
                yield from _entries(value, (*path, key), dotted)


def _entries(items, path, dotted):
    for i, value in enumerate(items):
        yield (*path, i), dotted, value
        if isinstance(value, list):
            yield from _entries(value, (*path, i), dotted)


def blocks(obj, path=(), field=""):
    """(location, dotted path) of the top level and of every object in it."""
    yield path, field
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from blocks(value, (*path, key), f"{field}.{key}" if field else key)


def wrong_values(value):
    """JSON values of another type than ``value``, which no field of ``value``'s type accepts."""
    if isinstance(value, bool):
        return ["yes", 1, {}]
    if isinstance(value, int):
        return ["x", True, 0.5, {}]
    if isinstance(value, float):
        return ["x", True, {}]
    if isinstance(value, list):
        return ["x", True, {}]
    return [True, {}]  # strings: names, classes, rationals


def locate(cfg, path):
    for key in path[:-1]:
        cfg = cfg[key]
    return cfg, path[-1]


@st.composite
def malformed(draw):
    """A config with one fault, and the dotted path the error must name."""
    cfg = copy.deepcopy(VALID[draw(st.sampled_from(EXPERIMENTS))])
    if draw(st.booleans()):
        path, dotted, value = draw(st.sampled_from(list(leaves(cfg))))
        parent, key = locate(cfg, path)
        parent[key] = draw(st.sampled_from(wrong_values(value)))
        return cfg, dotted
    path, dotted = draw(st.sampled_from(list(blocks(cfg))))
    block = cfg
    for key in path:
        block = block[key]
    name = "x_" + draw(st.text(string.ascii_lowercase + "_", min_size=1, max_size=10))
    block[name] = draw(st.sampled_from([1, "a", None, [], {}]))
    return cfg, f"{dotted}.{name}" if dotted else name


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_valid_configs_load(tmp_path, experiment):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(VALID[experiment]))
    assert load_config(path)["experiment"] == experiment


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=malformed())
def test_one_fault_is_refused_by_name(tmp_path, case):
    cfg, dotted = case
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert repr(dotted) in str(err.value)


def keys(obj, path=(), field=""):
    """(location, dotted path) of every key at every depth."""
    for key, value in obj.items():
        dotted = f"{field}.{key}" if field else key
        yield (*path, key), dotted
        if isinstance(value, dict):
            yield from keys(value, (*path, key), dotted)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_one_dropped_key_loads_or_is_refused_by_name(tmp_path, experiment):
    path = tmp_path / "cfg.json"
    for location, dotted in keys(VALID[experiment]):
        cfg = copy.deepcopy(VALID[experiment])
        parent, key = locate(cfg, location)
        del parent[key]
        path.write_text(json.dumps(cfg))
        try:
            load_config(path)
        except ConfigError as exc:
            assert repr(dotted) in str(exc), dotted
