"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavier fixtures are
shared across criteria, so the module is meant to run as a whole; fixture
build time is charged to the criterion that owns the ensemble.
"""

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest

from rwre_lab import (
    ConeSpec,
    FiniteMixture,
    Homogeneous,
    TransitionVector,
    cone_contains,
    detect_renewals,
    exact_quenched_exit,
    gamblers_ruin,
    solomon_1d,
)
from rwre_lab.cli import main as cli_main
from rwre_lab.cone import DEFAULT_LAMBDA_GRID, lambda_scan
from rwre_lab.env import QuenchedEnvironment
from rwre_lab.errors import ConfigError
from rwre_lab.oracle import IntervalRegion
from rwre_lab.stats import (
    InsufficientData,
    TransiencePattern,
    estimate_speed,
    independence_test,
    pooled_increments,
    raw_direction,
    renewal_direction,
    renewal_mean_identity,
    slab_exit_decay,
    summarize,
    zero_one_scan,
)
from rwre_lab.walk import run_slab_ensemble, simulate_ensemble

SEED = 20260808
DRIFT2D = Homogeneous(TransitionVector([0.4, 0.1, 0.25, 0.25]))
SRW2D = Homogeneous(TransitionVector([0.25, 0.25, 0.25, 0.25]))
WEAK2D = Homogeneous(TransitionVector([0.27, 0.23, 0.25, 0.25]))
SIGMA = (1, 1)
BASIS = ((1, 1), (1, -1))
L_DIR = (1, 0)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def angle_between(u, v) -> float:
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    c = float(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


@dataclass
class RenewalBundle:
    spec: ConeSpec = None
    trajs: list = field(default_factory=list)
    records: list = field(default_factory=list)  # confirm horizon 1000
    records_h500: list = field(default_factory=list)
    build_seconds: float = 0.0


@pytest.fixture(scope="module")
def crit3() -> RenewalBundle:
    """1000 walks of 10^4 steps on the drifted model, with renewal records."""
    start = time.monotonic()
    scan = lambda_scan(
        DRIFT2D, SEED, [ConeSpec(SIGMA, BASIS, lam, L_DIR) for lam in DEFAULT_LAMBDA_GRID],
        n_walks=200, horizon=4000, confirm_horizon=400, rate_floor=0.5,
    )
    assert scan.found, "interpolation-weight scan found no workable cone"
    spec = ConeSpec(SIGMA, BASIS, scan.chosen, L_DIR)
    trajs = simulate_ensemble(DRIFT2D, SEED, 1000, 10_000)
    records = [detect_renewals(t, spec, 1000) for t in trajs]
    records_h500 = [detect_renewals(t, spec, 500) for t in trajs]
    return RenewalBundle(spec, trajs, records, records_h500, time.monotonic() - start)


@pytest.fixture(scope="module")
def crit4(crit3) -> tuple:
    """The renewal records of 10^4 walks of 10^4 steps (criterion 4); the identity reads no walk."""
    start = time.monotonic()
    records = [detect_renewals(t, crit3.spec, 1000) for t in simulate_ensemble(DRIFT2D, SEED + 1, 10_000, 10_000)]
    return records, time.monotonic() - start


def test_criterion_01_oracle_equivalence_slabs():
    start = time.monotonic()
    closed = gamblers_ruin(0.7, 2, 2)
    model = Homogeneous(TransitionVector([0.7, 0.3]))
    env = QuenchedEnvironment(model, SEED)
    exact = exact_quenched_exit(IntervalRegion(-2, 2).build(env), "Right")
    (tally,) = run_slab_ensemble(model, SEED, 100_000, [1.0], 1.0, [2.0], 2000)
    n = tally.n_right + tally.n_left
    sigma = (closed * (1 - closed) / n) ** 0.5
    elapsed = time.monotonic() - start
    ok = (
        abs(closed - 49 / 58) < 1e-12
        and abs(exact - closed) < 1e-9
        and tally.n_censored == 0
        and abs(tally.p_right - closed) <= 3 * sigma
        and elapsed < 10.0
    )
    report(
        1,
        ok,
        f"slab oracle: exact={exact:.9f} closed={closed:.9f} "
        f"mc={tally.p_right:.5f} ({abs(tally.p_right - closed) / sigma:.2f} sigma), {elapsed:.1f}s",
    )


def test_criterion_02_solomon_speed():
    start = time.monotonic()
    model = FiniteMixture(
        (TransitionVector([0.6, 0.4]), TransitionVector([0.8, 0.2])), (0.5, 0.5)
    )
    oracle = solomon_1d(model)
    trajs = simulate_ensemble(model, SEED, 1000, 10_000)
    est = estimate_speed(summarize(trajs, (1,)))
    elapsed = time.monotonic() - start
    ok = (
        abs(oracle.speed - 13 / 35) < 1e-12
        and abs(est.mean - oracle.speed) <= 0.02
        and elapsed < 30.0
    )
    report(
        2,
        ok,
        f"mixture speed: mc={est.mean:.4f} oracle={oracle.speed:.4f} "
        f"diff={abs(est.mean - oracle.speed):.4f} (tol 0.02), {elapsed:.1f}s",
    )


def test_criterion_03_two_route_direction(crit3):
    start = time.monotonic()
    raw = raw_direction(summarize(crit3.trajs))
    ren = renewal_direction(crit3.records)
    target = (1.0, 0.0)
    a_raw = angle_between(raw.nu_hat, target)
    a_ren = angle_between(ren.nu_hat, target)
    a_between = angle_between(raw.nu_hat, ren.nu_hat)
    elapsed = time.monotonic() - start + crit3.build_seconds
    ok = a_raw < 0.05 and a_ren < 0.05 and a_between < 0.05 and elapsed < 120.0
    report(
        3,
        ok,
        f"direction: raw={a_raw:.4f} rad, renewal={a_ren:.4f} rad, "
        f"between={a_between:.4f} rad (tol 0.05), {elapsed:.1f}s",
    )


def test_criterion_04_renewal_mean_identity(crit4, crit3):
    start = time.monotonic()
    records, build_seconds = crit4
    rep = renewal_mean_identity(records, crit3.spec, n_boot=1000, boot_seed=SEED)
    elapsed = time.monotonic() - start + build_seconds
    ok = (
        not isinstance(rep, InsufficientData)
        and 0.9 <= rep.ratio <= 1.1
        and rep.ratio_ci[0] <= 1.0 <= rep.ratio_ci[1]
        and elapsed < 600.0
    )
    detail = (
        f"identity: lhs={rep.lhs:.4f} rhs={rep.rhs:.4f} ratio={rep.ratio:.4f} "
        f"ci=({rep.ratio_ci[0]:.3f},{rep.ratio_ci[1]:.3f}), lambda={crit3.spec.lam}, {elapsed:.1f}s"
        if not isinstance(rep, InsufficientData)
        else f"identity: insufficient data ({rep.reason})"
    )
    report(4, ok, detail)


def test_criterion_05_increment_independence(crit3):
    inc = pooled_increments(crit3.records)
    rep = independence_test(inc)
    control = independence_test(np.repeat(inc[:100_000], 2, axis=0))
    ok = rep.passed and not control.passed
    report(
        5,
        ok,
        f"independence: lag1={np.round(rep.lag1, 5).tolist()} passes; "
        f"duplicated control lag1={np.round(control.lag1, 3).tolist()} fails",
    )


def test_criterion_06_orthogonal_oscillation(crit3):
    inc = pooled_increments(crit3.records)
    proj = (inc @ np.asarray([0, 1])).astype(float)[:10_000]
    sd = proj.std(ddof=1)
    mean = proj.mean()
    half = 1.959963984540054 * sd / len(proj) ** 0.5
    partial = np.cumsum(proj)
    ok = (
        mean - half <= 0.0 <= mean + half
        and partial.min() < -2 * sd
        and partial.max() > 2 * sd
    )
    report(
        6,
        ok,
        f"oscillation: mean={mean:.4f}+-{half:.4f}, partial min={partial.min():.0f} "
        f"max={partial.max():.0f} vs +-2sd={2 * sd:.1f} over {len(proj)} increments",
    )


def test_criterion_07_censoring_bias_control(crit3):
    def lhs_ci(records):
        proj = (pooled_increments(records) @ np.asarray(L_DIR)).astype(float)
        half = 1.959963984540054 * proj.std(ddof=1) / len(proj) ** 0.5
        return proj.mean(), half

    lhs_a, half_a = lhs_ci(crit3.records_h500)
    lhs_b, half_b = lhs_ci(crit3.records)
    diff = abs(lhs_a - lhs_b)
    ok = diff < half_a + half_b
    report(
        7,
        ok,
        f"censoring bias: lhs(H=500)={lhs_a:.4f}+-{half_a:.4f}, "
        f"lhs(H=1000)={lhs_b:.4f}+-{half_b:.4f}, diff={diff:.4f}",
    )


def test_criterion_08_slab_exit_decay():
    L_list = [5.0, 10.0, 20.0, 40.0]
    curve = slab_exit_decay(WEAK2D, SEED, [1.0, 0.0], 1.0, L_list, 100_000, 100_000)
    ps = [pt.p_left for pt in curve.points]
    ordered = all(a > b for a, b in zip(ps, ps[1:])) and ps[-1] > 0
    # non-inverted: the wider slab's CI must not sit entirely above the narrower's
    non_inverted = all(
        curve.points[i + 1].ci[0] <= curve.points[i].ci[1] for i in range(len(ps) - 1)
    )
    control = slab_exit_decay(SRW2D, SEED, [1.0, 0.0], 1.0, L_list, 20_000, 80_000)
    ctrl_ok = True
    details = []
    for pt in control.points:
        sigma = (0.25 / pt.n_exits) ** 0.5
        details.append(f"L={pt.L:g}:{pt.p_left:.3f}")
        if abs(pt.p_left - 0.5) > 3 * sigma or pt.n_censored > 0:
            ctrl_ok = False
    ok = ordered and non_inverted and ctrl_ok
    report(
        8,
        ok,
        f"slab decay: p_left={[round(p, 5) for p in ps]} strictly decreasing, "
        f"slope={curve.log_slope:.3f}; control {' '.join(details)} all within 3 sigma of 0.5",
    )


def test_criterion_09_zero_one_patterns():
    drifted = zero_one_scan(DRIFT2D, SEED, 16, 400, 4000)
    control = zero_one_scan(SRW2D, SEED, 16, 400, 4000)
    ok = (
        drifted.pattern is TransiencePattern.OPEN_HALF_SPACE
        and control.pattern is TransiencePattern.ALL_ZERO
    )
    report(
        9,
        ok,
        f"zero-one: drifted={drifted.pattern.value}, symmetric={control.pattern.value}",
    )


def contains_oracle(spec: ConeSpec, apex, x) -> bool:
    lam = spec.lam
    d = spec.dim
    rel = [Fraction(int(x[i]) - int(apex[i])) for i in range(d)]
    for k in range(d):
        face = [lam * spec.sigma[k] * spec.basis[k][i] + (1 - lam) * spec.l[i] for i in range(d)]
        if sum(f * r for f, r in zip(face, rel)) < 0:
            return False
    return True


def test_criterion_10_determinism_and_exact_cones(tmp_path):
    config = {
        "experiment": "direction",
        "dimension": 2,
        "master_seed": SEED,
        "n_walks": 300,
        "horizon": 3000,
        "confirm_horizon": 300,
        "model": {"kind": "homogeneous", "probs": [0.4, 0.1, 0.25, 0.25]},
        "l": [1, 0],
        "cone": {"sigma": [1, 1], "basis": [[1, 1], [1, -1]], "l": [1, 0], "lambda": "1/2"},
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(config))
    out1, out8 = tmp_path / "t1", tmp_path / "t8"
    rc1 = cli_main(["run", "--config", str(cfg_path), "--out", str(out1), "--threads", "1"])
    rc8 = cli_main(["run", "--config", str(cfg_path), "--out", str(out8), "--threads", "8"])
    bytes_equal = (out1 / "results.jsonl").read_bytes() == (out8 / "results.jsonl").read_bytes()

    rng = np.random.default_rng(SEED)
    checked = 0
    mismatches = 0
    while checked < 100_000:
        d = int(rng.integers(1, 4))
        basis = rng.integers(-3, 4, size=(d, d))
        sigma = tuple(int(s) for s in rng.choice([-1, 1], size=d))
        l = rng.integers(-3, 4, size=d)
        if not l.any():
            continue
        l = l // np.gcd.reduce(np.abs(l[l != 0]))
        q = int(rng.integers(1, 9))
        p = int(rng.integers(1, q + 1))
        try:
            spec = ConeSpec(
                sigma,
                tuple(tuple(int(v) for v in row) for row in basis),
                Fraction(p, q),
                tuple(int(v) for v in l),
                check_direction=False,
            )
        except ConfigError:
            continue
        pts = rng.integers(-40, 41, size=(500, d))
        apex = rng.integers(-10, 11, size=d)
        for x in pts:
            if cone_contains(spec, apex, x) != contains_oracle(spec, apex, x):
                mismatches += 1
        checked += 500
    ok = rc1 == 0 and rc8 == 0 and bytes_equal and mismatches == 0
    report(
        10,
        ok,
        f"determinism: 1-thread vs 8-thread results byte-identical={bytes_equal}; "
        f"cone membership vs rational oracle: {checked} instances, {mismatches} mismatches",
    )
