"""Experiment runner.

Parses a strict JSON config, orchestrates the compute modules, and writes
results.jsonl, optional curves.csv, and a manifest.json, each written
atomically.  All file I/O lives here; compute modules never touch the
filesystem.  Reruns of the same (config, seed) produce byte-identical results.

Every config field is declared once, in ``_FIELDS``.  ``load_config`` walks
that table before anything runs, so an unknown key, a missing field, a value
of the wrong type or length, or one out of range is a configuration error
that names the field; ``rwre-lab schema`` prints the same table.

Exit codes: 0 success, 1 compare found differences, 2 configuration or usage
error, 3 insufficient data (a scientifically meaningful outcome,
distinguishable from a crash), 4 a numeric procedure failed its accuracy
contract (no output is written).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, NamedTuple, TextIO

import numpy as np

from . import __version__
from .cone import DEFAULT_LAMBDA_GRID, ConeSpec, detect_renewals, lambda_scan, renewal_rate
from .env import (
    Dirichlet,
    EnvironmentModel,
    FiniteMixture,
    Homogeneous,
    PerturbedSRW,
    TransitionVector,
)
from .errors import ConfigError, NumericError
from .oracle import BoxRegion, IntervalRegion, RegionDescriptor, SlabRegion, annealed_exit, gamblers_ruin
from .rng import TAG_STAT, derive_key
from .stats import (
    InsufficientData,
    ROUTE_RAW,
    ROUTE_RENEWAL,
    _binom_se,
    _class_estimates,
    antipodal_clustering,
    estimate_direction,
    independence_test,
    pooled_increments,
    renewal_mean_identity,
    slab_exit_decay,
    zero_one_scan,
)
from .walk import run_slab_ensemble, simulate_ensemble, trajectories_to_jsonl

ENV_THREADS = "RWRE_LAB_THREADS"


@dataclass
class ExperimentConfig:
    """A loaded config: every field typed and defaulted, keyed by its dotted path.

    Fields of an absent optional block, and of another ``kind`` of a block,
    are not in ``fields``.
    """

    fields: dict[str, Any]
    model: EnvironmentModel
    raw: dict
    cones: dict[Fraction, ConeSpec] = field(default_factory=dict)  # by weight: the fixed one, or every grid one

    def __getitem__(self, path: str) -> Any:
        return self.fields[path]


# --- experiments: each takes a loaded config and returns (rows, curve rows or None, insufficient)


class _NoRenewals(Exception):
    """Raised internally when the scan finds no workable cone; maps to exit 3."""


def _insufficient_row(kind: str, reason: str) -> dict:
    return {"record": kind, "insufficient_data": True, "reason": reason}


def _attrs(obj: Any, *names: str) -> dict:
    """The named attributes of an estimator's result, as row fields (``_write_outputs`` makes them JSON)."""
    return {name: getattr(obj, name) for name in names}


def _report(rows: list[dict], row: dict, result: Any, *names: str) -> bool:
    """Append ``row`` with ``result``'s named fields, or an insufficient-data row when ``result`` is one.

    Returns True for the latter.
    """
    if isinstance(result, InsufficientData):
        rows.append(_insufficient_row(row["record"], result.reason))
        return True
    rows.append({**row, **_attrs(result, *names)})
    return False


def _jsonable(x: Any) -> Any:
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, Fraction):
        return str(x)
    return x


def _ensemble(cfg: ExperimentConfig) -> list:
    return simulate_ensemble(cfg.model, cfg["master_seed"], cfg["n_walks"], cfg["horizon"])


def _cone_spec_from(cfg: ExperimentConfig) -> tuple[ConeSpec, list[dict]]:
    """The loaded cone, its weight picked by the interpolation-weight scan when asked; also returns the scan's rows."""
    sigma, basis, l = cfg["cone.sigma"], cfg["cone.basis"], cfg["cone.l"]
    check = cfg["cone.check_direction"]
    lam = cfg["cone.lambda"]
    scan_rows: list[dict] = []
    if lam == "scan":
        floor = cfg["thresholds.renewal_rate_floor"]
        scan_n = min(cfg["n_walks"], 200) or 200
        scan_h = min(cfg["horizon"], 4000)
        scan_ch = min(cfg["confirm_horizon"], max(1, scan_h // 4))
        result = lambda_scan(
            cfg.model,
            cfg["master_seed"],
            sigma,
            basis,
            l,
            lambdas=cfg["cone.lambda_grid"],
            n_walks=scan_n,
            horizon=scan_h,
            confirm_horizon=scan_ch,
            rate_floor=floor,
            check_direction=check,
        )
        for row in result.rows:
            scan_rows.append(
                {
                    "record": "lambda-scan",
                    "lambda": str(row.lam),
                    "rate_per_1k": row.rate_per_1k,
                    "confirmed": row.confirmed,
                    "floor": floor,
                }
            )
        if not result.found:
            raise _NoRenewals("no lambda on the grid met the renewal-rate floor")
        lam = result.chosen
    return cfg.cones[lam], scan_rows


def _simulate(cfg: ExperimentConfig) -> tuple[list[dict], None, bool]:
    trajs = _ensemble(cfg)
    rows = []
    for i, obj in enumerate(trajectories_to_jsonl(trajs)):
        obj = {"record": "trajectory", "walker": i, **obj}
        obj["final"] = [int(c) for c in trajs[i].final_position()]
        rows.append(obj)
    return rows, None, False


def _direction(cfg: ExperimentConfig) -> tuple[list[dict], None, bool]:
    spec, rows = _cone_spec_from(cfg)
    trajs = _ensemble(cfg)
    l, lvl, dip = cfg["l"], cfg["thresholds.level_threshold"], cfg["thresholds.dip_allowance"]
    verdict, speed = _class_estimates(trajs, l, lvl, dip)
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
    records = [detect_renewals(t, spec, cfg["confirm_horizon"]) for t in trajs]
    insufficient = False
    for route, est in (
        (ROUTE_RAW, estimate_direction(trajs=trajs, route=ROUTE_RAW, level_threshold=lvl)),
        (ROUTE_RENEWAL, estimate_direction(records=records, route=ROUTE_RENEWAL)),
    ):
        insufficient |= _report(rows, {"record": f"direction-{route}"}, est, "nu_hat", "dispersion", "n_samples")
    cluster = antipodal_clustering(trajs, cfg["thresholds.theta_tol"])
    rows.append({"record": "clusters", **_attrs(cluster, "n_clusters", "centers", "max_angular_dev", "reason")})
    return rows, None, insufficient


def _renewal(cfg: ExperimentConfig) -> tuple[list[dict], None, bool]:
    spec, rows = _cone_spec_from(cfg)
    total = 0
    for i, t in enumerate(_ensemble(cfg)):
        rec = detect_renewals(t, spec, cfg["confirm_horizon"])
        total += rec.n_confirmed
        rows.append(
            {"record": "renewals", "walker": i, **_attrs(rec, "n_confirmed", "censored_tail"), **rec.to_json_obj()}
        )
    rate = renewal_rate(total, cfg["n_walks"], cfg["horizon"])
    rows.append({"record": "renewal-rate", "lambda": spec.lam, "rate_per_1k": rate})
    return rows, None, False


def _renewal_identity(cfg: ExperimentConfig) -> tuple[list[dict], None, bool]:
    spec, rows = _cone_spec_from(cfg)
    trajs = _ensemble(cfg)
    records = [detect_renewals(t, spec, cfg["confirm_horizon"]) for t in trajs]
    report = renewal_mean_identity(
        trajs,
        records,
        spec,
        window=cfg["identity.window"],
        level_threshold=cfg["thresholds.level_threshold"],
        dip_allowance=cfg["thresholds.dip_allowance"],
        n_boot=cfg["thresholds.bootstrap_samples"],
        boot_seed=int(derive_key(cfg["master_seed"], TAG_STAT)) & 0x7FFFFFFF,
    )
    insufficient = _report(
        rows,
        {"record": "renewal-identity", "lambda": spec.lam},
        report,
        *("lhs", "lhs_ci", "p_cone", "p_cone_ci", "hit_level_prob", "rhs", "ratio", "ratio_ci", "window"),
        "n_increments",
    )
    independence = independence_test(pooled_increments(records))
    insufficient |= _report(rows, {"record": "independence"}, independence, "lag1", "ci_low", "ci_high", "passed")
    return rows, None, insufficient


def _slab(cfg: ExperimentConfig) -> tuple[list[dict], list[dict], bool]:
    lp, b, L_list = cfg["slab.l_prime"], cfg["slab.b"], cfg["slab.L_list"]
    curve = slab_exit_decay(cfg.model, cfg["master_seed"], lp, b, L_list, cfg["n_walks"], cfg["horizon"])
    rows, curves = [], []
    for pt in curve.points:
        rows.append({"record": "slab-point", **_attrs(pt, "L", "p_left", "ci", "n_left", "n_exits", "n_censored")})
        curves.append({"L": pt.L, "p_left": pt.p_left, "ci_low": pt.ci[0], "ci_high": pt.ci[1]})
    rows.append({"record": "slab-slope", "log_slope": curve.log_slope, "n_fit": curve.n_fit})
    return rows, curves, False


def _zero_one_scan(cfg: ExperimentConfig) -> tuple[list[dict], list[dict], bool]:
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
    return rows, curves, False


def _region(cfg: ExperimentConfig) -> RegionDescriptor:
    kind = cfg["oracle.region.kind"]
    if kind == "interval":
        lo, hi = cfg["oracle.region.lo"], cfg["oracle.region.hi"]
        if not lo < 0 < hi:
            raise ConfigError("config: 'oracle.region' interval must contain the start site, lo < 0 < hi")
        return IntervalRegion(lo, hi)
    if kind == "slab":
        lp, b, L = cfg["oracle.region.l_prime"], cfg["oracle.region.b"], cfg["oracle.region.L"]
        return SlabRegion(lp, b, L, cfg["oracle.region.bound_width"])
    return BoxRegion(cfg["oracle.region.lo"], cfg["oracle.region.hi"])


def _oracle_compare(cfg: ExperimentConfig) -> tuple[list[dict], None, bool]:
    region = _region(cfg)
    target, n_walks = cfg["oracle.target_class"], cfg["n_walks"]
    slab = region.mc_slab()
    monte_carlo = slab is not None and n_walks > 0 and target in ("Right", "Left")
    if monte_carlo and cfg["horizon"] < 1:
        raise ConfigError("config: experiment 'oracle-compare' needs 'horizon' >= 1 for its Monte Carlo check, got 0")
    exact = annealed_exit(cfg.model, region, (0,) * cfg["dimension"], target, cfg["oracle.n_env"], cfg["master_seed"])
    row = {
        "record": "oracle-compare",
        "target_class": target,
        "exact_mean": exact.mean,
        "exact_ci": exact.ci,
        "n_env": exact.n_env,
    }
    if isinstance(cfg.model, Homogeneous) and isinstance(region, IntervalRegion):
        row["closed_form_right"] = gamblers_ruin(float(cfg.model.vector.probs[0]), -region.lo, region.hi)
    if monte_carlo:
        tally = run_slab_ensemble(cfg.model, cfg["master_seed"], n_walks, *slab, cfg["horizon"])
        p_hat = tally.p_right if target == "Right" else tally.p_left
        se = _binom_se(p_hat, tally.n_exits)
        row.update(mc_p=p_hat, mc_se=se, mc_n_exits=tally.n_exits, mc_n_censored=tally.n_censored)
        row["agree_3sigma"] = abs(p_hat - exact.mean) <= 3 * se  # False when nothing exited: se is NaN
    return [row], None, False


_RUNNERS: dict[str, Callable[[ExperimentConfig], tuple[list[dict], list[dict] | None, bool]]] = {
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
    "perturbed_srw": lambda v: PerturbedSRW(v["model.epsilon"], v["model.drift_dir"], v["dimension"]),
}


# --- the config schema: value types, the field table, and the walker that reads a config by it

_BAD_VALUE = (TypeError, ValueError, OverflowError, ZeroDivisionError)


class _Type(NamedTuple):
    """How a JSON value is read: ``read(value, d)`` returns it typed or raises; ``d`` is the dimension."""

    name: str
    read: Callable[[Any, int], Any]


def _read_int(x: Any, _d: int) -> int:
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError("expected an integer")
    return x


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


_INT = _Type("int", _read_int)
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
_SEED_RANGE = (0, 2**64 - 1)


class _Field(NamedTuple):
    path: str  # dotted; a block's fields sit under its path, and a block's own type is _OBJECT
    type: _Type
    doc: str = ""
    default: Any = _REQUIRED  # taken when the key is absent or null; a block's default is walked too
    range: tuple[int, int | None] | None = None  # inclusive bounds on an int; None above is unbounded
    when: str | None = None  # the field exists only when its block's "kind" is this
    needed_by: tuple[str, ...] = ()  # experiments that refuse the field's absence
    floor: tuple[int, tuple[str, ...]] | None = None  # (lo, experiments): they refuse an int below lo


_FIELDS: tuple[_Field, ...] = (
    _Field("experiment", _choice(*EXPERIMENTS)),
    _Field("dimension", _INT, range=(1, 4)),
    _Field("master_seed", _INT, "unsigned 64-bit (CLI --seed overrides)", range=_SEED_RANGE),
    _Field(
        "n_walks", _INT, "walkers in the ensemble", 0, (0, None), floor=(1, ("direction", "slab", "zero-one-scan"))
    ),
    _Field(
        "horizon",
        _INT,
        "steps per walk",
        0,
        (0, None),
        floor=(1, ("direction", "renewal", "renewal-identity", "slab", "zero-one-scan")),
    ),
    _Field(
        "confirm_horizon",
        _INT,
        "probationary renewal window",
        0,
        (0, None),
        floor=(1, ("direction", "renewal", "renewal-identity")),
    ),
    _Field("model", _OBJECT),
    _Field("model.kind", _choice(*_MODELS)),
    _Field("model.probs", _list(_FLOAT), "2d transition probabilities", when="homogeneous"),
    _Field("model.atoms", _list(_list(_FLOAT)), "atoms of 2d probabilities", when="mixture"),
    _Field("model.weights", _list(_FLOAT), "one per atom, summing to 1", when="mixture"),
    _Field("model.alphas", _list(_FLOAT), "2d positive concentrations", when="dirichlet"),
    _Field("model.epsilon", _FLOAT, "in (0, 1/(2d))", when="perturbed_srw"),
    _Field("model.drift_dir", _INT, "signed axis, e.g. 1 = +e1, -2 = -e2", when="perturbed_srw"),
    _Field("l", _list(_INT, "d"), "direction for transience/speed experiments", None, needed_by=("direction",)),
    _Field("cone", _OBJECT, default=None, needed_by=("direction", "renewal", "renewal-identity")),
    _Field("cone.sigma", _list(_INT, "d"), "entries of +-1"),
    _Field("cone.basis", _list(_list(_INT, "d")), "d rows"),
    _Field("cone.l", _list(_INT, "d"), "gcd 1"),
    _Field(
        "cone.lambda",
        _Type("rational | scan", lambda x, d: x if x == "scan" else _WEIGHT.read(x, d)),
        "in (0, 1], e.g. '1/2'; 'scan' picks the largest grid weight whose renewal rate clears the floor",
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
    _Field("thresholds.renewal_rate_floor", _FLOAT, "confirmed renewals per 1000 steps", 0.5),
    _Field("thresholds.theta_tol", _FLOAT, "radians", 0.3),
    _Field("thresholds.orth_band", _FLOAT, "radians around the axis a scan may leave undecided", 0.2),
    _Field("thresholds.bootstrap_samples", _INT, "", 1000, (1, None)),
    _Field("slab", _OBJECT, default=None, needed_by=("slab",)),
    _Field("slab.l_prime", _checked(_list(_FLOAT, "d"), any, "a nonzero vector"), "nonzero"),
    _Field("slab.b", _POSITIVE, "> 0"),
    _Field(
        "slab.L_list",
        _checked(_list(_POSITIVE), lambda v: v and all(a < b for a, b in zip(v, v[1:])), "a nonempty increasing list"),
        "nonempty, each > 0, strictly increasing",
    ),
    _Field("zero_one", _OBJECT, default=None, needed_by=("zero-one-scan",)),
    _Field("zero_one.n_angles", _INT, range=(4, None)),
    _Field("oracle", _OBJECT, default=None, needed_by=("oracle-compare",)),
    _Field("oracle.region", _OBJECT),
    _Field("oracle.region.kind", _choice("interval", "slab", "box")),
    _Field("oracle.region.lo", _INT, "lo < 0", when="interval"),
    _Field("oracle.region.hi", _INT, "0 < hi", when="interval"),
    _Field("oracle.region.l_prime", _checked(_list(_FLOAT, "d"), any, "a nonzero vector"), "nonzero", when="slab"),
    _Field("oracle.region.b", _POSITIVE, "> 0", when="slab"),
    _Field("oracle.region.L", _POSITIVE, "> 0", when="slab"),
    _Field("oracle.region.bound_width", _INT, range=(1, None), when="slab"),
    _Field("oracle.region.lo", _list(_INT, "d"), when="box"),
    _Field("oracle.region.hi", _list(_INT, "d"), "hi >= lo", when="box"),
    _Field("oracle.target_class", _Type("class | [classes]", _read_classes), "boundary class, e.g. Right"),
    _Field("oracle.n_env", _INT, "environments averaged", 1, (1, None)),
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


def _range_text(lo: int, hi: int | None) -> str:
    return f"in {lo}..{hi}" if hi is not None else f">= {lo}"


def _check_range(name: str, value: int, lo: int, hi: int | None) -> int:
    if value < lo or (hi is not None and value > hi):
        raise ConfigError(f"{name} must be {_range_text(lo, hi)}, got {value}")
    return value


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
        if fields.get("experiment") in f.needed_by:
            raise ConfigError(f"config: experiment {fields['experiment']!r} needs {f.path!r}")
        value = f.default
    else:
        try:
            value = f.type.read(value, fields.get("dimension"))
        except _BAD_VALUE as exc:
            raise ConfigError(f"config: bad value {json.dumps(value)} for {f.path!r}: {exc}") from exc
        if f.range is not None:
            _check_range(f"config: {f.path!r}", value, *f.range)
    if f.type is not _OBJECT:
        fields[f.path] = value
    elif value is not None:
        _read_block(value, f.path, fields)


def load_config(path: Path) -> ExperimentConfig:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    fields: dict[str, Any] = {}
    _read_block(raw, "", fields)
    experiment = fields["experiment"]
    for f in _FIELDS:
        if f.floor is not None and experiment in f.floor[1] and fields[f.path] < f.floor[0]:
            value = fields[f.path]
            raise ConfigError(f"config: experiment {experiment!r} needs {f.path!r} >= {f.floor[0]}, got {value}")
    model = _MODELS[fields["model.kind"]](fields)
    if model.dim != fields["dimension"]:
        raise ConfigError(f"config: model dimension {model.dim} does not match 'dimension' {fields['dimension']}")
    return ExperimentConfig(fields, model, raw, _cones(fields))


def _cones(fields: dict[str, Any]) -> dict[Fraction, ConeSpec]:
    """The cone block's ``ConeSpec`` for its fixed weight or for every grid weight; none without the block."""
    if "cone.l" not in fields:
        return {}
    lam = fields["cone.lambda"]
    cones = {}
    for w in fields["cone.lambda_grid"] if lam == "scan" else (lam,):
        try:
            cones[w] = ConeSpec(
                fields["cone.sigma"], fields["cone.basis"], w, fields["cone.l"], fields["cone.check_direction"]
            )
        except ConfigError as exc:
            raise ConfigError(f"config: 'cone' at lambda {w}: {exc}") from exc
    return cones


def _describe(f: _Field) -> str:
    """One line on a field: its type, range, kind, whether it is required, and its doc."""
    text = f.type.name
    if f.range is not None:
        text += f" {_range_text(*f.range)}"
    if f.when is not None:
        text += f" ({f.when})"
    if f.floor is not None:
        text += f", >= {f.floor[0]} for {' and '.join(f.floor[1])}"
    if f.needed_by:
        text += f", needed by {' and '.join(f.needed_by)}"
    elif f.default is None:
        text += ", optional"
    elif f.default is not _REQUIRED:
        text += f", default {json.dumps(_jsonable(f.default))}"
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
    return out


# --- commands


def _resolve_threads(arg: int | None) -> int:
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
    return 1


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
    config_hash: str,
    seed: int,
    started: str,
) -> list[str]:
    out_dir.mkdir(parents=True, exist_ok=True)

    def write_results(fh: TextIO) -> None:
        for row in rows:
            tagged = {"config_hash": config_hash, **_jsonable(row)}
            fh.write(json.dumps(tagged, sort_keys=True) + "\n")

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
        "config_hash": config_hash,
        "master_seed": seed,
        "tool_version": __version__,
        "started_utc": started,
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "parameters": _jsonable(cfg.raw),
        "outputs": outputs,
    }
    manifest_text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    _replace_atomically(out_dir / "manifest.json", lambda fh: fh.write(manifest_text))
    outputs.append("manifest.json")
    return outputs


def cmd_run(args: argparse.Namespace) -> int:
    started = datetime.now(timezone.utc).isoformat()
    path = Path(args.config)
    try:
        cfg = load_config(path)
        _resolve_threads(args.threads)
        if args.seed is not None:
            cfg.fields["master_seed"] = _check_range("--seed", args.seed, *_SEED_RANGE)
        out_dir = Path(args.out) if args.out else Path(cfg["output"] or "out")
        found = next(p for p in (out_dir, *out_dir.parents) if p.exists())
        if not found.is_dir():
            raise ConfigError(f"output path {str(out_dir)!r}: {str(found)!r} exists and is not a directory")
        config_hash = hashlib.sha256(path.read_bytes()).hexdigest()
        try:
            rows, curves, insufficient = _RUNNERS[cfg["experiment"]](cfg)
        except _NoRenewals as exc:
            rows, curves, insufficient = [_insufficient_row("lambda-scan", str(exc))], None, True
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return 4
    try:
        _write_outputs(out_dir, rows, curves, cfg, config_hash, cfg["master_seed"], started)
    except OSError as exc:
        print(f"error: cannot write outputs to {str(out_dir)!r}: {exc}", file=sys.stderr)
        return 2
    return 3 if insufficient else 0


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
        if not isinstance(row, dict):
            raise ConfigError(f"{name} line {n} (row {len(rows)}): expected a JSON object, got {line!r}")
        rows.append(row)
    return rows


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _numbers_match(a, b, tol: float) -> bool:
    """NaN matches only NaN, and two integers are compared in exact integer arithmetic."""
    if isinstance(a, int) and isinstance(b, int):
        return abs(a - b) <= tol
    return a == b or abs(a - b) <= tol or (a != a and b != b)


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
