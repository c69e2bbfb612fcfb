"""Experiment runner.

Parses a strict JSON config, orchestrates the compute modules, and writes
results.jsonl, optional curves.csv, and a manifest.json, each written
atomically.  All file I/O lives here; compute modules never touch the
filesystem.  Reruns of the same (config, seed) produce byte-identical results.

Exit codes: 0 success, 2 configuration error, 3 insufficient data (a
scientifically meaningful outcome, distinguishable from a crash).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, TextIO

import numpy as np

from . import __version__
from .cone import ConeSpec, detect_renewals, lambda_scan
from .env import (
    Dirichlet,
    EnvironmentModel,
    FiniteMixture,
    Homogeneous,
    PerturbedSRW,
    TransitionVector,
)
from .errors import ConfigError
from .oracle import BoxRegion, IntervalRegion, SlabRegion, annealed_exit, gamblers_ruin
from .rng import TAG_STAT, derive_key
from .stats import (
    InsufficientData,
    ROUTE_RAW,
    ROUTE_RENEWAL,
    antipodal_clustering,
    classify_transience,
    estimate_direction,
    estimate_speed,
    independence_test,
    pooled_increments,
    renewal_mean_identity,
    slab_exit_decay,
    zero_one_scan,
)
from .walk import run_slab_ensemble, simulate_ensemble, trajectories_to_jsonl

EXPERIMENTS = (
    "simulate",
    "direction",
    "renewal",
    "renewal-identity",
    "slab",
    "zero-one-scan",
    "oracle-compare",
)

_TOP_KEYS = {
    "experiment",
    "dimension",
    "model",
    "master_seed",
    "n_walks",
    "horizon",
    "confirm_horizon",
    "l",
    "cone",
    "thresholds",
    "slab",
    "zero_one",
    "oracle",
    "identity",
    "output",
}

_THRESHOLD_KEYS = {
    "level_threshold",
    "dip_allowance",
    "renewal_rate_floor",
    "theta_tol",
    "orth_band",
    "bootstrap_samples",
}

ENV_THREADS = "RWRE_LAB_THREADS"


@dataclass
class ExperimentConfig:
    experiment: str
    dimension: int
    model: EnvironmentModel
    master_seed: int
    n_walks: int
    horizon: int
    confirm_horizon: int
    l: tuple[int, ...] | None
    cone: dict | None
    thresholds: dict
    slab: dict | None
    zero_one: dict | None
    oracle: dict | None
    identity: dict | None
    output: str | None
    raw: dict


def _reject_unknown(obj: dict, allowed: set[str], path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"config: unknown key(s) {sorted(unknown)} in {path!r}")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"config: missing key {key!r} in {path!r}")
    return obj[key]


_REQUIRED = object()


def _field(raw: dict, key: str, convert: Callable, default: Any = _REQUIRED, path: str = "<top>"):
    """``convert(raw[key])`` for a field of the block at ``path``; ``default`` when it is absent or null.

    A value that does not convert is a ConfigError that names the field.
    """
    value = raw.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"config: missing key {key!r} in {path!r}")
        return default
    name = key if path == "<top>" else f"{path}.{key}"
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"config: bad value {value!r} for {name!r}: {exc}") from exc


def _items(value) -> list:
    if not isinstance(value, list):
        raise TypeError("expected a list")
    return value


def _int_tuple(value) -> tuple[int, ...]:
    return tuple(int(x) for x in _items(value))


def _float_tuple(value) -> tuple[float, ...]:
    return tuple(float(x) for x in _items(value))


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError("expected an object")
    return value


def _classes(value) -> str | list[str]:
    """A boundary class name, or a list of them."""
    if isinstance(value, str) or (isinstance(value, list) and all(isinstance(v, str) for v in value)):
        return value
    raise TypeError("expected a class name or a list of class names")


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _check_seed(seed: int, name: str) -> int:
    if not 0 <= seed < 2**64:
        raise ConfigError(f"{name} must be a 64-bit unsigned integer, got {seed}")
    return seed


def parse_model(obj: dict, dimension: int) -> EnvironmentModel:
    if not isinstance(obj, dict):
        raise ConfigError("config: 'model' must be an object")
    kind = _require(obj, "kind", "model")
    if kind == "homogeneous":
        _reject_unknown(obj, {"kind", "probs"}, "model")
        model = Homogeneous(TransitionVector(np.asarray(_require(obj, "probs", "model"), float)))
    elif kind == "mixture":
        _reject_unknown(obj, {"kind", "atoms", "weights"}, "model")
        atoms = tuple(
            TransitionVector(np.asarray(a, float)) for a in _require(obj, "atoms", "model")
        )
        model = FiniteMixture(atoms, tuple(float(w) for w in _require(obj, "weights", "model")))
    elif kind == "dirichlet":
        _reject_unknown(obj, {"kind", "alphas"}, "model")
        model = Dirichlet(tuple(float(a) for a in _require(obj, "alphas", "model")))
    elif kind == "perturbed_srw":
        _reject_unknown(obj, {"kind", "epsilon", "drift_dir"}, "model")
        model = PerturbedSRW(
            float(_require(obj, "epsilon", "model")),
            int(_require(obj, "drift_dir", "model")),
            dimension,
        )
    else:
        raise ConfigError(f"config: unknown model kind {kind!r}")
    if model.dim != dimension:
        raise ConfigError(
            f"config: model dimension {model.dim} does not match 'dimension' {dimension}"
        )
    return model


def load_config(path: Path) -> ExperimentConfig:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    _reject_unknown(raw, _TOP_KEYS, "<top>")
    experiment = _require(raw, "experiment", "<top>")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"config: experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    dimension = _field(raw, "dimension", int)
    model = parse_model(_require(raw, "model", "<top>"), dimension)
    seed = _check_seed(_field(raw, "master_seed", int), "config: master_seed")
    thresholds = raw.get("thresholds", {})
    if not isinstance(thresholds, dict):
        raise ConfigError("config: 'thresholds' must be an object")
    _reject_unknown(thresholds, _THRESHOLD_KEYS, "thresholds")
    for block, keys in (
        ("cone", {"sigma", "basis", "l", "lambda", "lambda_grid", "check_direction"}),
        ("slab", {"l_prime", "b", "L_list"}),
        ("zero_one", {"n_angles"}),
        ("oracle", {"region", "target_class", "n_env"}),
        ("identity", {"window"}),
    ):
        sub = raw.get(block)
        if sub is not None:
            if not isinstance(sub, dict):
                raise ConfigError(f"config: {block!r} must be an object")
            _reject_unknown(sub, keys, block)
    return ExperimentConfig(
        experiment=experiment,
        dimension=dimension,
        model=model,
        master_seed=seed,
        n_walks=_field(raw, "n_walks", int, 0),
        horizon=_field(raw, "horizon", int, 0),
        confirm_horizon=_field(raw, "confirm_horizon", int, 0),
        l=_field(raw, "l", _int_tuple, None),
        cone=raw.get("cone"),
        thresholds=thresholds,
        slab=raw.get("slab"),
        zero_one=raw.get("zero_one"),
        oracle=raw.get("oracle"),
        identity=raw.get("identity"),
        output=_field(raw, "output", _text, None),
        raw=raw,
    )


def _cone_spec_from(cfg: ExperimentConfig) -> tuple[ConeSpec, list[dict]]:
    """Build the cone, running the interpolation-weight scan when asked."""
    if cfg.cone is None:
        raise ConfigError("config: this experiment needs a 'cone' block")
    c = cfg.cone
    sigma = tuple(int(s) for s in _require(c, "sigma", "cone"))
    basis = tuple(tuple(int(x) for x in row) for row in _require(c, "basis", "cone"))
    l = tuple(int(x) for x in _require(c, "l", "cone"))
    check = bool(c.get("check_direction", True))
    lam_raw = _require(c, "lambda", "cone")
    scan_rows: list[dict] = []
    if lam_raw == "scan":
        grid = [Fraction(str(x)) for x in c.get("lambda_grid", ["1", "1/2", "1/4", "1/8"])]
        floor = float(cfg.thresholds.get("renewal_rate_floor", 0.5))
        scan_n = min(cfg.n_walks, 200) or 200
        scan_h = min(cfg.horizon, 4000) or 4000
        scan_ch = min(cfg.confirm_horizon or 400, max(1, scan_h // 4))
        result = lambda_scan(
            cfg.model,
            cfg.master_seed,
            sigma,
            basis,
            l,
            lambdas=grid,
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
    else:
        lam = Fraction(str(lam_raw))
    return ConeSpec(sigma, basis, lam, l, check), scan_rows


class _NoRenewals(Exception):
    """Raised internally when the scan finds no workable cone; maps to exit 3."""


def _insufficient_row(kind: str, reason: str) -> dict:
    return {"record": kind, "insufficient_data": True, "reason": reason}


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


def _run_experiment(cfg: ExperimentConfig) -> tuple[list[dict], list[dict] | None, bool]:
    """Returns (result rows, curve rows or None, insufficient_data flag)."""
    rows: list[dict] = []
    curves: list[dict] | None = None
    insufficient = False
    thr = cfg.thresholds
    lvl = thr.get("level_threshold")
    dip = thr.get("dip_allowance")

    if cfg.experiment == "simulate":
        trajs = simulate_ensemble(cfg.model, cfg.master_seed, cfg.n_walks, cfg.horizon)
        for i, obj in enumerate(trajectories_to_jsonl(trajs)):
            obj = {"record": "trajectory", "walker": i, **obj}
            obj["final"] = [int(c) for c in trajs[i].final_position()]
            rows.append(obj)
        return rows, None, False

    if cfg.experiment == "direction":
        if cfg.l is None:
            raise ConfigError("config: 'direction' needs a top-level 'l'")
        spec, scan_rows = _cone_spec_from(cfg)
        rows.extend(scan_rows)
        trajs = simulate_ensemble(cfg.model, cfg.master_seed, cfg.n_walks, cfg.horizon)
        verdict = classify_transience(trajs, cfg.l, lvl, dip)
        rows.append(
            {
                "record": "transience",
                "l": list(cfg.l),
                "verdict": verdict.verdict.value,
                "p_hat_plus": verdict.p_hat_plus,
                "p_hat_minus": verdict.p_hat_minus,
                "level_threshold": verdict.level_threshold,
                "dip_allowance": verdict.dip_allowance,
            }
        )
        speed = estimate_speed(trajs, cfg.l, lvl, dip)
        rows.append(
            {
                "record": "speed",
                "l": list(cfg.l),
                "mean": speed.mean,
                "ci": list(speed.ci),
                "n_plus": speed.n_plus,
                "n_minus": speed.n_minus,
                "mean_plus": speed.mean_plus,
                "mean_minus": speed.mean_minus,
            }
        )
        records = [detect_renewals(t, spec, cfg.confirm_horizon) for t in trajs]
        for route, est in (
            (ROUTE_RAW, estimate_direction(trajs=trajs, route=ROUTE_RAW, level_threshold=lvl)),
            (ROUTE_RENEWAL, estimate_direction(records=records, route=ROUTE_RENEWAL)),
        ):
            if isinstance(est, InsufficientData):
                rows.append(_insufficient_row(f"direction-{route}", est.reason))
                insufficient = True
            else:
                rows.append(
                    {
                        "record": f"direction-{route}",
                        "nu_hat": _jsonable(est.nu_hat),
                        "dispersion": est.dispersion,
                        "n_samples": est.n_samples,
                    }
                )
        cluster = antipodal_clustering(trajs, float(thr.get("theta_tol", 0.3)))
        rows.append(
            {
                "record": "clusters",
                "n_clusters": cluster.n_clusters,
                "centers": [_jsonable(c) for c in cluster.centers],
                "max_angular_dev": cluster.max_angular_dev,
                "reason": cluster.reason,
            }
        )
        return rows, None, insufficient

    if cfg.experiment == "renewal":
        spec, scan_rows = _cone_spec_from(cfg)
        rows.extend(scan_rows)
        trajs = simulate_ensemble(cfg.model, cfg.master_seed, cfg.n_walks, cfg.horizon)
        total = 0
        for i, t in enumerate(trajs):
            rec = detect_renewals(t, spec, cfg.confirm_horizon)
            total += rec.n_confirmed
            rows.append(
                {
                    "record": "renewals",
                    "walker": i,
                    "n_confirmed": rec.n_confirmed,
                    "censored_tail": rec.censored_tail,
                    **rec.to_json_obj(),
                }
            )
        rows.append(
            {
                "record": "renewal-rate",
                "lambda": str(spec.lam),
                "rate_per_1k": 1000.0 * total / max(1, cfg.n_walks * cfg.horizon),
            }
        )
        return rows, None, False

    if cfg.experiment == "renewal-identity":
        spec, scan_rows = _cone_spec_from(cfg)
        rows.extend(scan_rows)
        trajs = simulate_ensemble(cfg.model, cfg.master_seed, cfg.n_walks, cfg.horizon)
        records = [detect_renewals(t, spec, cfg.confirm_horizon) for t in trajs]
        window = None
        if cfg.identity and cfg.identity.get("window") is not None:
            w = cfg.identity["window"]
            window = (int(w[0]), int(w[1]))
        report = renewal_mean_identity(
            trajs,
            records,
            spec,
            window=window,
            level_threshold=lvl,
            dip_allowance=dip,
            n_boot=int(thr.get("bootstrap_samples", 1000)),
            boot_seed=int(derive_key(cfg.master_seed, TAG_STAT)) & 0x7FFFFFFF,
        )
        if isinstance(report, InsufficientData):
            rows.append(_insufficient_row("renewal-identity", report.reason))
            insufficient = True
        else:
            rows.append(
                {
                    "record": "renewal-identity",
                    "lambda": str(spec.lam),
                    "lhs": report.lhs,
                    "lhs_ci": list(report.lhs_ci),
                    "p_cone": report.p_cone,
                    "p_cone_ci": list(report.p_cone_ci),
                    "hit_level_prob": report.hit_level_prob,
                    "rhs": report.rhs,
                    "ratio": report.ratio,
                    "ratio_ci": list(report.ratio_ci),
                    "window": list(report.window),
                    "n_increments": report.n_increments,
                }
            )
        indep = independence_test(pooled_increments(records))
        if isinstance(indep, InsufficientData):
            rows.append(_insufficient_row("independence", indep.reason))
            insufficient = True
        else:
            rows.append(
                {
                    "record": "independence",
                    "lag1": _jsonable(indep.lag1),
                    "ci_low": _jsonable(indep.ci_low),
                    "ci_high": _jsonable(indep.ci_high),
                    "passed": indep.passed,
                }
            )
        return rows, None, insufficient

    if cfg.experiment == "slab":
        if cfg.slab is None:
            raise ConfigError("config: 'slab' experiment needs a 'slab' block")
        lp = _field(cfg.slab, "l_prime", _float_tuple, path="slab")
        b = _field(cfg.slab, "b", float, path="slab")
        L_list = _field(cfg.slab, "L_list", _float_tuple, path="slab")
        curve = slab_exit_decay(cfg.model, cfg.master_seed, lp, b, L_list, cfg.n_walks, cfg.horizon)
        curves = []
        for pt in curve.points:
            row = {
                "record": "slab-point",
                "L": pt.L,
                "p_left": pt.p_left,
                "ci": list(pt.ci),
                "n_left": pt.n_left,
                "n_exits": pt.n_exits,
                "n_censored": pt.n_censored,
            }
            rows.append(row)
            curves.append({"L": pt.L, "p_left": pt.p_left, "ci_low": pt.ci[0], "ci_high": pt.ci[1]})
        rows.append({"record": "slab-slope", "log_slope": curve.log_slope, "n_fit": curve.n_fit})
        return rows, curves, False

    if cfg.experiment == "zero-one-scan":
        n_angles = int(_require(cfg.zero_one or {}, "n_angles", "zero_one"))
        scan = zero_one_scan(
            cfg.model,
            cfg.master_seed,
            n_angles,
            cfg.n_walks,
            cfg.horizon,
            level_threshold=lvl,
            dip_allowance=dip,
            orth_band=float(thr.get("orth_band", 0.2)),
        )
        curves = []
        for a in range(n_angles):
            row = {
                "record": "angle",
                "angle": float(scan.angles[a]),
                "p_hat_plus": float(scan.p_plus[a]),
                "p_hat_minus": float(scan.p_minus[a]),
                "verdict": scan.verdicts[a].value,
            }
            rows.append(row)
            curves.append(
                {
                    "angle": float(scan.angles[a]),
                    "p_hat_plus": float(scan.p_plus[a]),
                    "p_hat_minus": float(scan.p_minus[a]),
                }
            )
        rows.append(
            {
                "record": "pattern",
                "pattern": scan.pattern.value,
                "nu_hat": _jsonable(scan.nu_hat) if scan.nu_hat is not None else None,
            }
        )
        return rows, curves, False

    if cfg.experiment == "oracle-compare":
        if cfg.oracle is None:
            raise ConfigError("config: 'oracle-compare' needs an 'oracle' block")
        region_obj = _field(cfg.oracle, "region", _object, path="oracle")
        target = _field(cfg.oracle, "target_class", _classes, path="oracle")
        n_env = _field(cfg.oracle, "n_env", int, 1, path="oracle")
        at = "oracle.region"
        kind = _require(region_obj, "kind", at)
        if kind == "interval":
            _reject_unknown(region_obj, {"kind", "lo", "hi"}, at)
            lo = _field(region_obj, "lo", int, path=at)
            hi = _field(region_obj, "hi", int, path=at)
            if not lo < 0 < hi:
                raise ConfigError(f"config: {at!r} interval must contain the start site, lo < 0 < hi")
            region = IntervalRegion(lo, hi)
            lp, b, L = [1.0], -lo / hi, float(hi)
        elif kind == "slab":
            _reject_unknown(region_obj, {"kind", "l_prime", "b", "L", "bound_width"}, at)
            lp = _field(region_obj, "l_prime", _float_tuple, path=at)
            b = _field(region_obj, "b", float, path=at)
            L = _field(region_obj, "L", float, path=at)
            region = SlabRegion(lp, b, L, _field(region_obj, "bound_width", int, path=at))
        elif kind == "box":
            _reject_unknown(region_obj, {"kind", "lo", "hi"}, at)
            lo = _field(region_obj, "lo", _int_tuple, path=at)
            region = BoxRegion(lo, _field(region_obj, "hi", _int_tuple, path=at))
            lp = None
        else:
            raise ConfigError(f"config: unknown region kind {kind!r}")
        start = (0,) * cfg.dimension
        exact = annealed_exit(cfg.model, region, start, target, n_env, cfg.master_seed)
        row = {
            "record": "oracle-compare",
            "target_class": target,
            "exact_mean": exact.mean,
            "exact_ci": list(exact.ci),
            "n_env": exact.n_env,
        }
        if isinstance(cfg.model, Homogeneous) and cfg.dimension == 1 and kind == "interval":
            p = float(cfg.model.vector.probs[0])
            row["closed_form_right"] = gamblers_ruin(p, -lo, hi)
        if lp is not None and cfg.n_walks > 0 and target in ("Right", "Left"):
            tally = run_slab_ensemble(cfg.model, cfg.master_seed, cfg.n_walks, lp, b, L, cfg.horizon)
            exits = tally.n_left + tally.n_right
            k = tally.n_right if target == "Right" else tally.n_left
            p_hat = k / exits if exits else float("nan")
            se = float(np.sqrt(p_hat * (1 - p_hat) / exits)) if exits else float("nan")
            row["mc_p"] = p_hat
            row["mc_se"] = se
            row["mc_n_exits"] = exits
            row["mc_n_censored"] = tally.n_censored
            row["agree_3sigma"] = bool(exits and abs(p_hat - exact.mean) <= 3 * se) if exits else False
        rows.append(row)
        return rows, None, False

    raise ConfigError(f"config: unhandled experiment {cfg.experiment!r}")


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
            cfg.master_seed = _check_seed(args.seed, "--seed")
        config_hash = hashlib.sha256(path.read_bytes()).hexdigest()
        try:
            rows, curves, insufficient = _run_experiment(cfg)
        except _NoRenewals as exc:
            rows, curves, insufficient = [_insufficient_row("lambda-scan", str(exc))], None, True
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else Path(cfg.output or "out")
    _write_outputs(out_dir, rows, curves, cfg, config_hash, cfg.master_seed, started)
    return 3 if insufficient else 0


def _numeric_diff(a, b, tol: float) -> bool:
    return not (abs(float(a) - float(b)) <= tol)


def _compare_values(a, b, tol: float, path: str, diffs: list[str]) -> None:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and not isinstance(a, bool):
        if _numeric_diff(a, b, tol):
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
    elif a != b:
        diffs.append(f"{path}: {a!r} != {b!r}")


def cmd_compare(args: argparse.Namespace) -> int:
    tol_map: dict[str, float] = {}
    for spec in args.tol or []:
        if "=" not in spec:
            print(f"error: bad --tol {spec!r}, expected FIELD=VALUE", file=sys.stderr)
            return 2
        field, val = spec.split("=", 1)
        tol_map[field] = float(val)
    try:
        rows_a = [json.loads(line) for line in Path(args.file_a).read_text().splitlines() if line]
        rows_b = [json.loads(line) for line in Path(args.file_b).read_text().splitlines() if line]
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(rows_a) != len(rows_b):
        print(f"error: row count {len(rows_a)} != {len(rows_b)}", file=sys.stderr)
        return 2
    diffs: list[str] = []
    try:
        for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
            if set(ra) != set(rb):
                raise ConfigError(f"schema mismatch in row {i}: keys {sorted(set(ra) ^ set(rb))}")
            for key in sorted(ra):
                tol = tol_map.get(key, args.atol)
                _compare_values(ra[key], rb[key], tol, f"row[{i}].{key}", diffs)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for d in diffs:
        print(d)
    return 1 if diffs else 0


CONFIG_SCHEMA = {
    "experiment": f"one of {list(EXPERIMENTS)}",
    "dimension": "int in 1..4",
    "master_seed": "unsigned 64-bit int (CLI --seed overrides)",
    "n_walks": "int, walkers in the ensemble",
    "horizon": "int, steps per walk",
    "confirm_horizon": "int, probationary renewal window",
    "model": {
        "kind": "homogeneous | mixture | dirichlet | perturbed_srw",
        "probs": "[2d floats] (homogeneous)",
        "atoms": "[[2d floats], ...] (mixture)",
        "weights": "[floats summing to 1] (mixture)",
        "alphas": "[2d positive floats] (dirichlet)",
        "epsilon": "float in (0, 1/(2d)) (perturbed_srw)",
        "drift_dir": "signed axis, e.g. 1 = +e1, -2 = -e2 (perturbed_srw)",
    },
    "l": "[d ints], direction for transience/speed experiments",
    "cone": {
        "sigma": "[d entries of +-1]",
        "basis": "[[d ints], ...] (d rows)",
        "l": "[d ints, gcd 1]",
        "lambda": "rational string like '1/2', or 'scan'",
        "lambda_grid": "optional [rational strings] for scan",
        "check_direction": "optional bool (default true)",
    },
    "thresholds": {
        "level_threshold": "float (default 2*sqrt(horizon))",
        "dip_allowance": "float (default level_threshold/2)",
        "renewal_rate_floor": "float per 1000 steps (default 0.5)",
        "theta_tol": "float radians (default 0.3)",
        "orth_band": "float (default 0.2)",
        "bootstrap_samples": "int (default 1000)",
    },
    "slab": {"l_prime": "[d floats]", "b": "float > 0", "L_list": "[increasing floats]"},
    "zero_one": {"n_angles": "int >= 4"},
    "oracle": {
        "region": "{kind: interval|box|slab, ...}",
        "target_class": "boundary class name, e.g. Right",
        "n_env": "int >= 1",
    },
    "identity": {"window": "[i_min, i_max] or null"},
    "output": "optional output directory (CLI --out overrides)",
}


def cmd_schema(_args: argparse.Namespace) -> int:
    print(json.dumps(CONFIG_SCHEMA, indent=2))
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
