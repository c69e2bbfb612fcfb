"""Experiment runner.

Parses a strict JSON config, orchestrates the compute modules, and writes
results.jsonl, optional curves.csv, and a manifest.json, each written
atomically.  All file I/O lives here; compute modules never touch the
filesystem.  Reruns of the same (config, seed) produce byte-identical results.

Every config field is declared once, in ``_FIELDS``, its range in its type.
``load_config`` walks that table before anything runs, so an unknown key, a
missing field, a value of the wrong type or length, one out of range or one
the experiment's ``need`` refuses is a configuration error that names the
field; ``rwre-lab schema`` prints the same table.

Exit codes: 0 success, 1 compare found differences, 2 configuration or usage
error or a run too large to allocate, 3 insufficient data (some row of
results.jsonl says so: a meaningful outcome, not a crash), 4 a numeric
procedure failed its accuracy contract (no output is written).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple, TextIO

import numpy as np

from . import __version__
from .cone import DEFAULT_LAMBDA_GRID, ConeSpec, RenewalRecord, detect_renewals, lambda_scan, renewal_rate
from .env import (
    Dirichlet,
    EnvironmentModel,
    FiniteMixture,
    Homogeneous,
    QuenchedEnvironment,
    TransitionVector,
    constant_vector,
    perturbed_srw,
)
from .errors import ConfigError, NumericError
from .lattice import read_integer
from .oracle import (
    BoxRegion,
    IntervalRegion,
    RegionDescriptor,
    SlabRegion,
    annealed_exit,
    gamblers_ruin,
    target_classes,
)
from .rng import TAG_STAT, derive_key
from .stats import (
    InsufficientData,
    ROUTE_RAW,
    ROUTE_RENEWAL,
    PathSummary,
    _binom_se,
    _class_estimates,
    estimate_direction,
    final_clustering,
    independence_test,
    pooled_increments,  # unused here, but perfbench/tracer.py wraps cli.pooled_increments and fails without it
    raw_direction,
    renewal_mean_identity,
    slab_exit_decay,
    summarize,
    zero_one_scan,
)
from .walk import Trajectory, _check_slab, block_walkers, run_slab_ensemble, simulate_ensemble, trajectories_to_jsonl

ENV_THREADS = "RWRE_LAB_THREADS"


@dataclass
class ExperimentConfig:
    """A loaded config: every field typed and defaulted, keyed by its dotted path.

    An absent optional block is None; its fields, and those of another
    ``kind`` of a block, are not in ``fields``.
    """

    fields: dict[str, Any]
    model: EnvironmentModel
    raw: dict
    config_hash: str  # the sha256 of the bytes that were parsed
    cones: dict[Fraction, ConeSpec] = field(default_factory=dict)  # by weight: the fixed one, or every grid one

    def __getitem__(self, path: str) -> Any:
        return self.fields[path]


@contextmanager
def _naming(path: str) -> Iterator[None]:
    """Prefix the message of a ConfigError raised inside with the config field ``path`` it is about."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"config: {path!r}: {exc}") from exc


# --- experiments: each takes a loaded config and returns (rows, curve rows or None)


class _NoRenewals(Exception):
    """Raised internally when the scan finds no workable cone; the run reports one insufficient-data row.

    ``rows`` are the scan's per-weight rows, which explain the verdict;
    the manifest records them.
    """

    def __init__(self, message: str, rows: list[dict]):
        super().__init__(message)
        self.rows = rows


def _insufficient_row(kind: str, reason: str) -> dict:
    return {"record": kind, "insufficient_data": True, "reason": reason}


def _attrs(obj: Any, *names: str) -> dict:
    """The named attributes of an estimator's result, as row fields (``_json_default`` makes them JSON)."""
    return {name: getattr(obj, name) for name in names}


def _report(rows: list[dict], row: dict, result: Any, *names: str) -> None:
    """Append ``row`` with ``result``'s named fields, or an insufficient-data row when ``result`` is one."""
    if isinstance(result, InsufficientData):
        rows.append(_insufficient_row(row["record"], result.reason))
    else:
        rows.append({**row, **_attrs(result, *names)})


def _json_default(x: Any) -> Any:
    """The JSON form of what the encoder does not know: numpy scalars and arrays as Python values, a Fraction as text.

    numpy's float64 is a Python float, so the encoder writes it itself, with
    ``float.__repr__``; ``tolist`` gives the same Python values for the rest.
    """
    if isinstance(x, (np.generic, np.ndarray)):
        return x.tolist()
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _cone_spec_from(cfg: ExperimentConfig) -> tuple[ConeSpec, list[dict]]:
    """The loaded cone, its weight picked by the interpolation-weight scan when asked; also returns the scan's rows."""
    if cfg["cone.lambda"] != "scan":
        return cfg.cones[cfg["cone.lambda"]], []
    floor = cfg["thresholds.renewal_rate_floor"]
    n_walks, h = min(cfg["n_walks"], 200) or 200, min(cfg["horizon"], 4000)
    window = min(cfg["confirm_horizon"], max(1, h // 4))
    result = lambda_scan(cfg.model, cfg["master_seed"], cfg.cones.values(), n_walks, h, window, floor)
    rows = [
        {"record": "lambda-scan", "lambda": str(row.lam), "floor": floor, **_attrs(row, "rate_per_1k", "confirmed")}
        for row in result.rows
    ]
    if not result.found:
        raise _NoRenewals("no lambda on the grid met the renewal-rate floor", rows)
    return cfg.cones[result.chosen], rows


def _renewals(
    cfg: ExperimentConfig, summary: Callable[[list[Trajectory]], Any] | None = None
) -> tuple[ConeSpec, list[dict], list[RenewalRecord], list]:
    """The cone (scanned for when asked), its scan rows, each walk's renewal record and ``summary`` of each block.

    The ensemble is simulated a block of ``block_walkers(horizon)`` walkers at
    a time.  Each block's walks are scanned and summarized, then dropped, so a
    run holds one block of paths; the split changes no path.
    """
    spec, rows = _cone_spec_from(cfg)
    n, h, size = cfg["n_walks"], cfg["horizon"], block_walkers(cfg["horizon"])
    records, summaries = [], []
    for first in range(0, n, size):
        block = simulate_ensemble(cfg.model, cfg["master_seed"], min(size, n - first), h, first)
        records += [detect_renewals(t, spec, cfg["confirm_horizon"]) for t in block]
        if summary is not None:
            summaries.append(summary(block))
        del block  # before the next block is simulated
    return spec, rows, records, summaries


def _simulate(cfg: ExperimentConfig) -> tuple[list[dict], None]:
    trajs = simulate_ensemble(cfg.model, cfg["master_seed"], cfg["n_walks"], cfg["horizon"])
    rows = []
    for i, obj in enumerate(trajectories_to_jsonl(trajs)):
        obj = {"record": "trajectory", "walker": i, **obj}
        obj["final"] = [int(c) for c in trajs[i].final_position()]
        rows.append(obj)
    return rows, None


def _direction(cfg: ExperimentConfig) -> tuple[list[dict], None]:
    l, lvl, dip = cfg["l"], cfg["thresholds.level_threshold"], cfg["thresholds.dip_allowance"]
    _, rows, records, parts = _renewals(cfg, lambda block: summarize(block, l))
    walks = PathSummary.join(parts)
    verdict, speed = _class_estimates(walks, lvl, dip)
    rows.append(
        {
            "record": "transience",
            "l": l,
            "verdict": verdict.verdict.value,
            **_attrs(verdict, "p_hat_plus", "p_hat_minus", "level_threshold", "dip_allowance"),
        }
    )
    rows.append(
        {"record": "speed", "l": l, **_attrs(speed, "mean", "ci", "n_plus", "n_minus", "mean_plus", "mean_minus")}
    )
    for route, est in (
        (ROUTE_RAW, raw_direction(walks, lvl)),
        (ROUTE_RENEWAL, estimate_direction(records=records, route=ROUTE_RENEWAL)),
    ):
        _report(rows, {"record": f"direction-{route}"}, est, "nu_hat", "dispersion", "n_samples")
    cluster = final_clustering(walks.final, cfg["thresholds.theta_tol"])
    rows.append({"record": "clusters", **_attrs(cluster, "n_clusters", "centers", "max_angular_dev", "reason")})
    return rows, None


def _renewal(cfg: ExperimentConfig) -> tuple[list[dict], None]:
    spec, rows, records, _ = _renewals(cfg)
    for i, rec in enumerate(records):
        rows.append(
            {"record": "renewals", "walker": i, **_attrs(rec, "n_confirmed", "censored_tail"), **rec.to_json_obj()}
        )
    rate = renewal_rate(sum(rec.n_confirmed for rec in records), cfg["n_walks"], cfg["horizon"])
    rows.append({"record": "renewal-rate", "lambda": spec.lam, "rate_per_1k": rate})
    return rows, None


def _renewal_identity(cfg: ExperimentConfig) -> tuple[list[dict], None]:
    spec, rows, records, _ = _renewals(cfg)
    report = renewal_mean_identity(
        records,
        spec,
        window=cfg["identity.window"],
        level_threshold=cfg["thresholds.level_threshold"],
        dip_allowance=cfg["thresholds.dip_allowance"],
        n_boot=cfg["thresholds.bootstrap_samples"],
        boot_seed=int(derive_key(cfg["master_seed"], TAG_STAT)) & 0x7FFFFFFF,
    )
    _report(
        rows,
        {"record": "renewal-identity", "lambda": spec.lam},
        report,
        *("lhs", "lhs_ci", "p_cone", "p_cone_ci", "hit_level_prob", "rhs", "ratio", "ratio_ci", "window"),
        "n_increments",
    )
    independence = independence_test(records)
    _report(rows, {"record": "independence"}, independence, "lag1", "ci_low", "ci_high", "passed")
    return rows, None


def _slab(cfg: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    lp, b, L_list = cfg["slab.l_prime"], cfg["slab.b"], cfg["slab.L_list"]
    curve = slab_exit_decay(cfg.model, cfg["master_seed"], lp, b, L_list, cfg["n_walks"], cfg["horizon"])
    rows, curves = [], []
    for pt in curve.points:
        rows.append({"record": "slab-point", **_attrs(pt, "L", "p_left", "ci", "n_left", "n_exits", "n_censored")})
        curves.append({"L": pt.L, "p_left": pt.p_left, "ci_low": pt.ci[0], "ci_high": pt.ci[1]})
    rows.append({"record": "slab-slope", "log_slope": curve.log_slope, "n_fit": curve.n_fit})
    return rows, curves


def _zero_one_scan(cfg: ExperimentConfig) -> tuple[list[dict], list[dict]]:
    n_angles = cfg["zero_one.n_angles"]
    scan = zero_one_scan(
        cfg.model,
        cfg["master_seed"],
        n_angles,
        cfg["n_walks"],
        cfg["horizon"],
        level_threshold=cfg["thresholds.level_threshold"],
        dip_allowance=cfg["thresholds.dip_allowance"],
        orth_band=cfg["thresholds.orth_band"],
    )
    rows, curves = [], []
    for a in range(n_angles):
        point = {
            "angle": float(scan.angles[a]),
            "p_hat_plus": float(scan.p_plus[a]),
            "p_hat_minus": float(scan.p_minus[a]),
        }
        rows.append({"record": "angle", **point, "verdict": scan.verdicts[a].value})
        curves.append(point)
    rows.append({"record": "pattern", "pattern": scan.pattern.value, "nu_hat": scan.nu_hat})
    return rows, curves


def _region(cfg: ExperimentConfig) -> RegionDescriptor:
    kind = cfg["oracle.region.kind"]
    if kind == "interval":
        lo, hi = cfg["oracle.region.lo"], cfg["oracle.region.hi"]
        if not lo < 0 < hi:
            raise ConfigError("interval must contain the start site, lo < 0 < hi")
        return IntervalRegion(lo, hi)
    if kind == "slab":
        lp, b, L = cfg["oracle.region.l_prime"], cfg["oracle.region.b"], cfg["oracle.region.L"]
        return SlabRegion(lp, b, L, cfg["oracle.region.bound_width"])
    return BoxRegion(cfg["oracle.region.lo"], cfg["oracle.region.hi"])


def _oracle_compare(cfg: ExperimentConfig) -> tuple[list[dict], None]:
    target, n_walks, start = cfg["oracle.target_class"], cfg["n_walks"], (0,) * cfg["dimension"]
    with _naming("oracle.region"):  # a region's boundary classes are known once it is built
        region = _region(cfg)
        classes = region.build(QuenchedEnvironment(cfg.model, cfg["master_seed"]), start).classes
    with _naming("oracle.target_class"):
        target_classes(classes, target)
    slab = region.mc_slab()
    monte_carlo = slab is not None and n_walks > 0 and target in ("Right", "Left")
    if monte_carlo and cfg["horizon"] < 1:
        raise ConfigError("config: experiment 'oracle-compare' needs 'horizon' >= 1 for its Monte Carlo check, got 0")
    with _naming("oracle.region"):
        exact = annealed_exit(cfg.model, region, start, target, cfg["oracle.n_env"], cfg["master_seed"])
    row = {
        "record": "oracle-compare",
        "target_class": target,
        "exact_mean": exact.mean,
        "exact_ci": exact.ci,
        "n_env": exact.n_env,
    }
    vec = constant_vector(cfg.model)
    if vec is not None and isinstance(region, IntervalRegion):
        row["closed_form_right"] = gamblers_ruin(float(vec.probs[0]), -region.lo, region.hi)
    if monte_carlo:
        lp, b, L = slab
        (tally,) = run_slab_ensemble(cfg.model, cfg["master_seed"], n_walks, lp, b, [L], cfg["horizon"])
        p_hat = tally.p_right if target == "Right" else tally.p_left
        se = _binom_se(p_hat, tally.n_exits)
        row.update(mc_p=p_hat, mc_se=se, mc_n_exits=tally.n_exits, mc_n_censored=tally.n_censored)
        row["agree_3sigma"] = abs(p_hat - exact.mean) <= 3 * se  # False when nothing exited: se is NaN
    return [row], None


_RUNNERS: dict[str, Callable[[ExperimentConfig], tuple[list[dict], list[dict] | None]]] = {
    "simulate": _simulate,
    "direction": _direction,
    "renewal": _renewal,
    "renewal-identity": _renewal_identity,
    "slab": _slab,
    "zero-one-scan": _zero_one_scan,
    "oracle-compare": _oracle_compare,
}
EXPERIMENTS = tuple(_RUNNERS)

_MODELS: dict[str, Callable[[dict], EnvironmentModel]] = {
    "homogeneous": lambda v: Homogeneous(TransitionVector(np.asarray(v["model.probs"], float))),
    "mixture": lambda v: FiniteMixture(
        tuple(TransitionVector(np.asarray(a, float)) for a in v["model.atoms"]), v["model.weights"]
    ),
    "dirichlet": lambda v: Dirichlet(v["model.alphas"]),
    "perturbed_srw": lambda v: perturbed_srw(v["model.epsilon"], v["model.drift_dir"], v["dimension"]),
}


# --- the config schema: value types, the field table, and the walker that reads a config by it

_BAD_VALUE = (TypeError, ValueError, OverflowError, ZeroDivisionError)


class _Type(NamedTuple):
    """How a JSON value is read: ``read(value, d)`` returns it typed or raises; ``d`` is the dimension."""

    name: str
    read: Callable[[Any, int], Any]


def _read_float(x: Any, _d: int) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError("expected a number")
    value = float(x)
    if not np.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _read_rational(x: Any, _d: int) -> Fraction:
    """A rational string like '1/2', or a JSON number read by its decimal text (0.1 is 1/10)."""
    if isinstance(x, bool) or not isinstance(x, (str, int, float)):
        raise TypeError("expected a rational such as '1/2' or a number")
    return Fraction(str(x))


def _read_classes(x: Any, _d: int) -> str | list[str]:
    if isinstance(x, str) or (isinstance(x, list) and x and all(isinstance(v, str) for v in x)):
        return x
    raise TypeError("expected a class name or a nonempty list of class names")


def _instance(name: str, cls: type, expected: str) -> _Type:
    def read(x: Any, _d: int) -> Any:
        if not isinstance(x, cls):
            raise TypeError(f"expected {expected}")
        return x

    return _Type(name, read)


def _checked(t: _Type, ok: Callable[[Any], bool], expected: str) -> _Type:
    """``t``, also refusing a value that ``ok`` rejects; ``expected`` says what ``ok`` wants."""

    def read(x: Any, d: int) -> Any:
        value = t.read(x, d)
        if not ok(value):
            raise ValueError(f"expected {expected}")
        return value

    return _Type(t.name, read)


def _in_range(t: _Type, lo: int, hi: int | None = None) -> _Type:
    """Integer type ``t``, also refusing a value outside lo..hi (no bound above when ``hi`` is None)."""
    text = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    read = _checked(t, lambda v: lo <= v and (hi is None or v <= hi), f"an integer {text}").read
    return _Type(f"{t.name} {text}", read)


_INTEGER = _Type("int", lambda x, _d: read_integer(x, "value"))  # any size; only _SEED reads by it
_INT = _checked(_INTEGER, lambda v: -(2**63) <= v < 2**63, "an integer that fits int64")
_SEED = _in_range(_INTEGER, 0, 2**64 - 1)  # master_seed and --seed
_COUNT = _in_range(_INT, 0)
_FLOAT = _Type("float", _read_float)
_RATIONAL = _Type("rational", _read_rational)
_WEIGHT = _checked(_RATIONAL, lambda w: 0 < w <= 1, "a rational in (0, 1]")
_POSITIVE = _checked(_FLOAT, lambda v: v > 0, "a number > 0")
_NONNEGATIVE = _checked(_FLOAT, lambda v: v >= 0, "a number >= 0")
_BOOL = _instance("bool", bool, "true or false")
_STR = _instance("string", str, "a string")
_OBJECT = _instance("object", dict, "an object")


def _choice(*options: str) -> _Type:
    def read(x: Any, _d: int) -> str:
        if x not in options:
            raise ValueError(f"expected one of {list(options)}")
        return x

    return _Type(" | ".join(options), read)


def _list(item: _Type, length: int | str | None = None) -> _Type:
    """A JSON list of ``item``, as a tuple; ``length`` is a count, or "d" for the config's dimension."""

    def read(x: Any, d: int) -> tuple:
        if not isinstance(x, list):
            raise TypeError("expected a list")
        n = d if length == "d" else length
        if n is not None and len(x) != n:
            raise ValueError(f"expected {n} entries{' (the dimension)' if length == 'd' else ''}, got {len(x)}")
        out = []
        for i, v in enumerate(x):
            try:
                out.append(item.read(v, d))
            except _BAD_VALUE as exc:
                raise ValueError(f"entry {i}: {exc}") from exc
        return tuple(out)

    if item.name.startswith("["):
        return _Type(f"[{item.name}, ...]", read)
    return _Type(f"[{'' if length is None else f'{length} '}{item.name}s]", read)


_REQUIRED = object()
# what an experiment's need of a field asks of its value, by the text that names it; "" asks that it is present
_NEED_TESTS = {"": lambda v: v is not None, ">= 1": lambda v: v >= 1, "== 2": lambda v: v == 2}


class _Field(NamedTuple):
    path: str  # dotted; a block's fields sit under its path, and a block's own type is _OBJECT
    type: _Type
    doc: str = ""
    default: Any = _REQUIRED  # taken when the key is absent or null; a block's default is walked too
    when: str | None = None  # the field exists only when its block's "kind" is this
    need: tuple[str, tuple[str, ...]] = ("", ())  # (test, experiments): they refuse a value the test fails


_FIELDS: tuple[_Field, ...] = (
    _Field("experiment", _choice(*EXPERIMENTS)),
    _Field("dimension", _in_range(_INT, 1, 4), need=("== 2", ("zero-one-scan",))),  # the angular scan is 2D
    _Field("master_seed", _SEED, "unsigned 64-bit (CLI --seed overrides)"),
    _Field(
        "n_walks", _COUNT, "walkers in the ensemble", 0, need=(">= 1", ("direction", "slab", "zero-one-scan"))
    ),
    _Field(
        "horizon",
        _COUNT,
        "steps per walk",
        0,
        need=(">= 1", ("direction", "renewal", "renewal-identity", "slab", "zero-one-scan")),
    ),
    _Field(
        "confirm_horizon",
        _COUNT,
        "probationary renewal window",
        0,
        need=(">= 1", ("direction", "renewal", "renewal-identity")),
    ),
    _Field("model", _OBJECT),
    _Field("model.kind", _choice(*_MODELS)),
    _Field("model.probs", _list(_FLOAT), "2d transition probabilities", when="homogeneous"),
    _Field("model.atoms", _list(_list(_FLOAT)), "atoms of 2d probabilities", when="mixture"),
    _Field("model.weights", _list(_FLOAT), "one per atom, summing to 1", when="mixture"),
    _Field("model.alphas", _list(_FLOAT), "2d positive concentrations", when="dirichlet"),
    _Field("model.epsilon", _FLOAT, "in (0, 1/(2d))", when="perturbed_srw"),
    _Field("model.drift_dir", _INT, "signed axis, e.g. 1 = +e1, -2 = -e2", when="perturbed_srw"),
    _Field(
        "l",
        _checked(_list(_INT, "d"), any, "a nonzero vector"),
        "transience direction",
        None,
        need=("", ("direction",)),
    ),
    _Field("cone", _OBJECT, default=None, need=("", ("direction", "renewal", "renewal-identity"))),
    _Field("cone.sigma", _list(_INT, "d"), "entries of +-1"),
    _Field("cone.basis", _list(_list(_INT, "d")), "d rows"),
    _Field("cone.l", _list(_INT, "d"), "gcd 1"),
    _Field(
        "cone.lambda",
        _Type("rational | scan", lambda x, d: x if x == "scan" else _WEIGHT.read(x, d)),
        "in (0, 1], e.g. '1/2'; 'scan' picks the largest grid weight whose renewal rate clears the floor over"
        " min(n_walks, 200) walks (200 if 0) of h = min(horizon, 4000) steps with window"
        " min(confirm_horizon, max(1, h // 4)); its rows run by decreasing lambda, one per distinct weight",
    ),
    _Field(
        "cone.lambda_grid",
        _checked(_list(_WEIGHT), len, "at least one weight"),
        "weights in (0, 1] a scan tries",
        DEFAULT_LAMBDA_GRID,
    ),
    _Field("cone.check_direction", _BOOL, "require l strictly inside the dual of the signed basis", True),
    _Field("thresholds", _OBJECT, default={}),
    _Field("thresholds.level_threshold", _POSITIVE, "> 0; absent means 2*sqrt(horizon)", None),
    _Field("thresholds.dip_allowance", _NONNEGATIVE, ">= 0; absent means level_threshold/2", None),
    _Field("thresholds.renewal_rate_floor", _NONNEGATIVE, ">= 0; confirmed renewals per 1000 steps", 0.5),
    _Field("thresholds.theta_tol", _NONNEGATIVE, ">= 0; radians", 0.3),
    _Field("thresholds.orth_band", _NONNEGATIVE, ">= 0; max |cos| to the axis of a scan's undecided angles", 0.2),
    _Field("thresholds.bootstrap_samples", _in_range(_INT, 1), "", 1000),
    _Field("slab", _OBJECT, default=None, need=("", ("slab",))),
    _Field("slab.l_prime", _checked(_list(_FLOAT, "d"), any, "a nonzero vector"), "nonzero"),
    _Field("slab.b", _POSITIVE, "> 0"),
    _Field(
        "slab.L_list",
        _checked(_list(_POSITIVE), lambda v: v and all(a < b for a, b in zip(v, v[1:])), "a nonempty increasing list"),
        "nonempty, each > 0, strictly increasing",
    ),
    _Field("zero_one", _OBJECT, default=None, need=("", ("zero-one-scan",))),
    _Field("zero_one.n_angles", _in_range(_INT, 4)),
    _Field("oracle", _OBJECT, default=None, need=("", ("oracle-compare",))),
    _Field("oracle.region", _OBJECT),
    _Field("oracle.region.kind", _choice("interval", "slab", "box")),
    _Field("oracle.region.lo", _INT, "lo < 0", when="interval"),
    _Field("oracle.region.hi", _INT, "0 < hi", when="interval"),
    _Field("oracle.region.l_prime", _checked(_list(_FLOAT, "d"), any, "a nonzero vector"), "nonzero", when="slab"),
    _Field("oracle.region.b", _POSITIVE, "> 0", when="slab"),
    _Field("oracle.region.L", _POSITIVE, "> 0", when="slab"),
    _Field("oracle.region.bound_width", _in_range(_INT, 1), when="slab"),
    _Field("oracle.region.lo", _list(_INT, "d"), when="box"),
    _Field("oracle.region.hi", _list(_INT, "d"), "hi >= lo", when="box"),
    _Field("oracle.target_class", _Type("class | [classes]", _read_classes), "boundary class, e.g. Right"),
    _Field("oracle.n_env", _in_range(_INT, 1), "environments averaged", 1),
    _Field("identity", _OBJECT, default={}),
    _Field(
        "identity.window",
        _checked(_list(_INT, 2), lambda w: 1 <= w[0] <= w[1], "1 <= i_min <= i_max"),
        "[i_min, i_max], 1 <= i_min <= i_max; absent means the upper half of reached levels",
        None,
    ),
    _Field("output", _STR, "output directory (CLI --out overrides)", None),
)


def _children(path: str) -> list[_Field]:
    return [f for f in _FIELDS if f.path.rpartition(".")[0] == path]


def _read_block(obj: dict, path: str, fields: dict[str, Any]) -> None:
    """Read block ``path`` (``""`` for the top level) from ``obj`` into ``fields``, keyed by dotted path."""
    prefix = f"{path}." if path else ""
    block = _children(path)
    if block[0].path == prefix + "kind":  # the kind decides which other keys the block may hold
        _read_field(block[0], obj, fields)
    kind = fields.get(prefix + "kind")
    block = [f for f in block if f.when in (None, kind)]
    unknown = set(obj) - {f.path[len(prefix):] for f in block}
    if unknown:
        raise ConfigError(f"config: unknown key(s) {sorted(prefix + k for k in unknown)}")
    for f in block:
        if f.path not in fields:
            _read_field(f, obj, fields)


def _read_field(f: _Field, obj: dict, fields: dict[str, Any]) -> None:
    key = f.path.rpartition(".")[2]
    value = obj.get(key)
    if value is None:
        if f.default is _REQUIRED:
            raise ConfigError(f"config: missing key {f.path!r}")
        value = f.default
    else:
        try:
            value = f.type.read(value, fields.get("dimension"))
        except _BAD_VALUE as exc:
            raise ConfigError(f"config: bad value {json.dumps(value)} for {f.path!r}: {exc}") from exc
    fields[f.path] = value  # a block's value too, so that a need can ask for it
    if f.type is _OBJECT and value is not None:
        _read_block(value, f.path, fields)


def load_config(path: Path) -> ExperimentConfig:
    try:
        data = path.read_bytes()  # read once, so that config_hash covers the bytes that are parsed
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    fields: dict[str, Any] = {}
    _read_block(raw, "", fields)
    experiment = fields["experiment"]
    needs = [(f.path, f.need[0]) for f in _FIELDS if experiment in f.need[1]]
    for path, test in sorted(needs, key=lambda need: need[1] != ""):  # an absent block before a count
        if not _NEED_TESTS[test](fields[path]):
            got = f" {test}, got {fields[path]}" if test else ""
            raise ConfigError(f"config: experiment {experiment!r} needs {path!r}{got}")
    if experiment == "slab":
        with _naming("slab"):  # the widest slab's b * L is the largest
            _check_slab(fields["slab.l_prime"], fields["slab.b"], fields["slab.L_list"][-1])
    with _naming("model"):
        model = _MODELS[fields["model.kind"]](fields)
    if model.dim != fields["dimension"]:
        raise ConfigError(f"config: model dimension {model.dim} does not match 'dimension' {fields['dimension']}")
    return ExperimentConfig(fields, model, raw, hashlib.sha256(data).hexdigest(), _cones(fields))


def _cones(fields: dict[str, Any]) -> dict[Fraction, ConeSpec]:
    """The cone block's ``ConeSpec`` for its fixed weight or for every grid weight; none without the block."""
    if "cone.l" not in fields:
        return {}
    sigma, basis, l, check = (fields[f"cone.{k}"] for k in ("sigma", "basis", "l", "check_direction"))
    weights = fields["cone.lambda_grid"] if fields["cone.lambda"] == "scan" else (fields["cone.lambda"],)
    with _naming("cone"):
        cones = {w: ConeSpec(sigma, basis, w, l, check) for w in weights}
        for spec in cones.values():
            spec.check_steps(fields["horizon"])
    return cones


def _need_text(f: _Field) -> str:
    test, experiments = f.need
    return f"{f'{test} for' if test else 'needed by'} {' and '.join(experiments)}"


def _describe(f: _Field) -> str:
    """One line on a field: its type, kind, need, whether it is required, and its doc."""
    text = f.type.name
    if f.when is not None:
        text += f" ({f.when})"
    if f.need[1]:
        text += f", {_need_text(f)}"
    if f.default is None and not f.need[1]:
        text += ", optional"
    elif f.default is not None and f.default is not _REQUIRED:
        text += f", default {json.dumps(f.default, default=_json_default)}"
    return f"{text}: {f.doc}" if f.doc else text


def _schema(path: str = "") -> dict[str, Any]:
    """The field table as nested JSON; a block inside a block is one line, since its kinds reuse keys."""
    out: dict[str, Any] = {}
    for f in _children(path):
        key = f.path.rpartition(".")[2]
        if f.type is not _OBJECT:
            out[key] = _describe(f)
        elif not path:
            out[key] = _schema(f.path)
        else:
            out[key] = "{" + "; ".join(f"{c.path.rpartition('.')[2]}: {_describe(c)}" for c in _children(f.path)) + "}"
    if not path:  # a top-level block prints as its fields, so the experiment line states the blocks' needs
        blocks = [f for f in _FIELDS if f.type is _OBJECT and f.need[1]]
        out["experiment"] += ": " + "; ".join(f"{f.path} {_need_text(f)}" for f in blocks)
    return out


# --- commands


def _resolve_threads(arg: int | None) -> None:
    """Validate ``--threads`` and $RWRE_LAB_THREADS; every run uses one thread.

    Both are still accepted so existing scripts keep working.  Outputs are a
    pure function of counter-based keys, so a thread pool could only change
    timing, and on a 2-CPU host it measured slower at every thread count.
    """
    envv = os.environ.get(ENV_THREADS)
    if arg is None and envv:
        try:
            int(envv)
        except ValueError as exc:
            raise ConfigError(f"{ENV_THREADS} must be an integer, got {envv!r}") from exc


def _replace_atomically(path: Path, write: Callable[[TextIO], None], newline: str | None = None) -> None:
    """Write ``path`` through a temporary file, so readers see the old or the new file whole."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", newline=newline) as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_outputs(
    out_dir: Path,
    rows: list[dict],
    curves: list[dict] | None,
    cfg: ExperimentConfig,
    started: str,
    lambda_scan: list[dict] | None = None,
) -> list[str]:
    """Write results.jsonl, curves.csv when there are curves, and manifest.json, tagged with ``cfg``'s hash and seed.

    ``lambda_scan`` holds the rows of a weight scan that found no weight; the
    manifest records them, and results.jsonl does not.
    """
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_results(fh: TextIO) -> None:
        for row in rows:
            tagged = {"config_hash": cfg.config_hash, **row}
            fh.write(json.dumps(tagged, sort_keys=True, default=_json_default) + "\n")

    def write_curves(fh: TextIO) -> None:
        writer = csv.DictWriter(fh, fieldnames=list(curves[0].keys()))
        writer.writeheader()
        for row in curves:
            writer.writerow({k: repr(v) if isinstance(v, float) else v for k, v in row.items()})

    _replace_atomically(out_dir / "results.jsonl", write_results)
    outputs = ["results.jsonl"]
    if curves:
        _replace_atomically(out_dir / "curves.csv", write_curves, newline="")
        outputs.append("curves.csv")
    manifest = {
        "config_hash": cfg.config_hash,
        "master_seed": cfg["master_seed"],
        "tool_version": __version__,
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "parameters": cfg.raw,
        "outputs": outputs,
    }
    if lambda_scan is not None:
        manifest["lambda_scan"] = lambda_scan
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True, default=_json_default) + "\n"
    _replace_atomically(out_dir / "manifest.json", lambda fh: fh.write(manifest_text))
    outputs.append("manifest.json")
    return outputs


def cmd_run(args: argparse.Namespace) -> int:
    started = datetime.now(timezone.utc).isoformat()
    try:
        cfg = load_config(Path(args.config))
        _resolve_threads(args.threads)
        if args.seed is not None:
            try:
                cfg.fields["master_seed"] = _SEED.read(args.seed, cfg["dimension"])
            except _BAD_VALUE as exc:
                raise ConfigError(f"bad value {args.seed} for '--seed': {exc}") from exc
        out_dir = Path(args.out) if args.out else Path(cfg["output"] or "out")
        found = next(p for p in (out_dir, *out_dir.parents) if p.exists())
        if not found.is_dir():
            raise ConfigError(f"output path {str(out_dir)!r}: {str(found)!r} exists and is not a directory")
        scan_rows = None
        try:
            rows, curves = _RUNNERS[cfg["experiment"]](cfg)
        except _NoRenewals as exc:
            rows, curves, scan_rows = [_insufficient_row("lambda-scan", str(exc))], None, exc.rows
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # the host refused an allocation the config asks for
        print(f"error: the run is too large for this host: {exc}", file=sys.stderr)
        return 2
    try:
        _write_outputs(out_dir, rows, curves, cfg, started, scan_rows)
    except OSError as exc:
        print(f"error: cannot write outputs to {str(out_dir)!r}: {exc}", file=sys.stderr)
        return 2
    return 3 if any(row.get("insufficient_data") for row in rows) else 0


def _tolerance(value: Any, flag: str) -> float:
    try:
        tol = float(value)
    except ValueError:
        tol = float("nan")
    if not tol >= 0:
        raise ConfigError(f"{flag} needs a tolerance >= 0, got {value!r}")
    return tol


def _read_rows(name: str) -> list[dict]:
    try:
        text = Path(name).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {name}: {exc}") from exc
    rows = []
    for n, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{name} line {n}: invalid JSON: {exc}") from exc
        except ValueError as exc:  # an integer literal past Python's digit limit
            raise ConfigError(f"{name} line {n}: {exc}") from exc
        if not isinstance(row, dict):
            raise ConfigError(f"{name} line {n} (row {len(rows)}): expected a JSON object, got {line!r}")
        rows.append(row)
    return rows


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _numbers_match(a, b, tol: float) -> bool:
    """NaN matches only NaN, and a pair with an integer is compared exactly, at any size.

    Two floats differ by their float difference.  An integer and a finite
    number differ by their exact difference as fractions, so an integer past
    the float range never overflows; an infinity is infinitely far from every
    integer.
    """
    if a != a or b != b:
        return a != a and b != b
    if a == b:
        return True
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= tol
    if math.inf in (abs(a), abs(b)):
        return math.inf <= tol
    return abs(Fraction(a) - Fraction(b)) <= tol


def _compare_values(a, b, tol: float, path: str, diffs: list[str]) -> None:
    if _is_number(a) and _is_number(b):
        if not _numbers_match(a, b, tol):
            diffs.append(f"{path}: {a!r} != {b!r} (tol {tol})")
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{path}: length {len(a)} != {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _compare_values(x, y, tol, f"{path}[{i}]", diffs)
    elif isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            raise ConfigError(f"schema mismatch at {path}: keys {sorted(set(a) ^ set(b))}")
        for k in sorted(a):
            _compare_values(a[k], b[k], tol, f"{path}.{k}", diffs)
    elif isinstance(a, bool) != isinstance(b, bool) or a != b:  # a boolean equals only the same boolean
        diffs.append(f"{path}: {a!r} != {b!r}")


def cmd_compare(args: argparse.Namespace) -> int:
    diffs: list[str] = []
    try:
        atol = _tolerance(args.atol, "--atol")
        tol_map: dict[str, float] = {}
        for spec in args.tol or []:
            field, sep, val = spec.partition("=")
            if not sep:
                raise ConfigError(f"bad --tol {spec!r}, expected FIELD=VALUE")
            tol_map[field] = _tolerance(val, f"--tol {field}")
        rows_a, rows_b = _read_rows(args.file_a), _read_rows(args.file_b)
        if len(rows_a) != len(rows_b):
            raise ConfigError(f"row count {len(rows_a)} != {len(rows_b)}")
        for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
            if set(ra) != set(rb):
                raise ConfigError(f"schema mismatch in row {i}: keys {sorted(set(ra) ^ set(rb))}")
            for key in sorted(ra):
                _compare_values(ra[key], rb[key], tol_map.get(key, atol), f"row[{i}].{key}", diffs)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for d in diffs:
        print(d)
    return 1 if diffs else 0


def cmd_schema(_args: argparse.Namespace) -> int:
    print(json.dumps(_schema(), indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="rwre-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("--config", required=True)
    run_p.add_argument(
        "--threads", type=int, default=None, help=f"accepted for compatibility (or ${ENV_THREADS}); runs use one thread"
    )
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override config master_seed")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="field-wise numeric diff of two results files")
    cmp_p.add_argument("file_a")
    cmp_p.add_argument("file_b")
    cmp_p.add_argument("--atol", type=float, default=0.0)
    cmp_p.add_argument("--tol", action="append", help="per-field tolerance FIELD=VALUE")
    cmp_p.set_defaults(func=cmd_compare)

    sch_p = sub.add_parser("schema", help="print the config schema")
    sch_p.set_defaults(func=cmd_schema)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
