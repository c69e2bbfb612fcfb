"""The path estimators against the per-estimator loops they replaced.

``ref_classify_levels`` is the transience class rule as it was when it read
a walk's whole level array, before it read the four level facts, and
``_level_class`` is the scalar rule on those facts that ``stats._classes``
replaced with one array expression.
``ref_classify_transience``, ``ref_estimate_speed``, ``ref_zero_one_scan``,
``ref_raw_direction`` and ``ref_antipodal_clustering`` are those estimators as
they were when each read every walk in its own loop, ``ref_final_position``
built the whole path to take its last point, and ``ref_lhs_ci`` is the
renewal identity's increment CI built from a second pass over the records.
``ref_estimate_direction`` is the direction estimate as it was when one
function chose the raw or the renewal route by a ``route`` argument, and
``ref_final_radii`` the second copy of the sorted-squares norm it read the
final radii with.
They are kept as oracles: the one class pass, the one final-position rule,
the one route function each and the one norm rule must reproduce their
results exactly, float for float.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from rwre_lab import (
    ConeSpec,
    Dirichlet,
    FiniteMixture,
    Homogeneous,
    RenewalRecord,
    Trajectory,
    TransitionVector,
    detect_renewals,
)
from rwre_lab.errors import ConfigError
from rwre_lab.stats import (
    ROUTE_RAW,
    ROUTE_RENEWAL,
    ClusterResult,
    DirectionEstimate,
    InsufficientData,
    SpeedEstimate,
    TransiencePattern,
    TransienceVerdict,
    Verdict,
    ZeroOneScanResult,
    _angle,
    _classes,
    _level_rows,
    _mean_direction,
    _normal_ci,
    _resolve_thresholds,
    _shares,
    _stable_norm,
    _verdict,
    classify_transience,
    estimate_speed,
    final_clustering,
    increment_projections,
    pooled_increments,
    raw_direction,
    renewal_direction,
    renewal_mean_identity,
    summarize,
    zero_one_scan,
)
from rwre_lab.walk import simulate_ensemble

# ---------------------------------------------------------------- oracles


def ref_classify_levels(s, thr, dip):
    half = s.shape[0] // 2
    tail = s[half:]
    final = s[-1]
    if final >= thr and (tail.max() - final) <= dip:
        return 1
    if final <= -thr and (final - tail.min()) <= dip:
        return -1
    return 0


def _level_class(final, tail_max, tail_min, thr: float, dip: float) -> int:
    """Finite-horizon transience proxy for one projected path, from its level facts (``cone._level_facts``).

    Counts toward the plus event when the final level clears the threshold
    and the path's last-half running high is within ``dip`` of the final
    value (it has not fallen back); the minus rule is the exact mirror.
    """
    if final >= thr and tail_max - final <= dip:
        return 1
    if final <= -thr and final - tail_min <= dip:
        return -1
    return 0


def ref_final_position(t):
    return t.positions()[-1]


def ref_classify_transience(trajs, l, level_threshold=None, dip_allowance=None):
    if not trajs:
        raise ValueError("classify_transience needs a nonempty ensemble")
    lv = np.asarray(l, dtype=np.float64)
    thr, dip = _resolve_thresholds(len(trajs[0]), level_threshold, dip_allowance)
    n_plus = n_minus = 0
    for t in trajs:
        c = ref_classify_levels(t.positions() @ lv, thr, dip)
        if c > 0:
            n_plus += 1
        elif c < 0:
            n_minus += 1
    n = len(trajs)
    p_plus, p_minus = n_plus / n, n_minus / n
    return TransienceVerdict(
        tuple(float(x) for x in lv), _verdict(p_plus, p_minus), p_plus, p_minus, thr, dip, n
    )


def ref_estimate_speed(trajs, l, level_threshold=None, dip_allowance=None):
    if not trajs:
        raise ValueError("estimate_speed needs a nonempty ensemble")
    lv = np.asarray(l, dtype=np.float64)
    thr, dip = _resolve_thresholds(len(trajs[0]), level_threshold, dip_allowance)
    vals = np.empty(len(trajs))
    cls = np.empty(len(trajs), dtype=np.int64)
    for i, t in enumerate(trajs):
        s = t.positions() @ lv
        n = max(len(t), 1)
        vals[i] = s[-1] / n
        cls[i] = ref_classify_levels(s, thr, dip)
    mean = float(vals.mean())
    sd = float(vals.std(ddof=1)) if len(trajs) > 1 else 0.0
    plus = vals[cls > 0]
    minus = vals[cls < 0]
    return SpeedEstimate(
        mean,
        _normal_ci(mean, sd, len(trajs)),
        len(trajs),
        float(plus.mean()) if plus.size else None,
        int(plus.size),
        float(minus.mean()) if minus.size else None,
        int(minus.size),
    )


def ref_raw_direction(trajs, level_threshold=None):
    """The raw route of the direction estimate."""
    if not trajs:
        return InsufficientData("no trajectories supplied")
    thr = _resolve_thresholds(len(trajs[0]), level_threshold, None)[0]
    dirs = []
    for t in trajs:
        x = ref_final_position(t).astype(np.float64)
        r = _stable_norm(x)
        if r >= thr:
            dirs.append(x / r)
    if not dirs:
        return InsufficientData("no walk reached the radius threshold")
    samples = np.asarray(dirs)
    mean = samples.mean(axis=0)
    norm = _stable_norm(mean)
    if norm == 0.0:
        return InsufficientData("mean displacement is zero")
    nu = mean / norm
    unit = samples / _stable_norm(samples)[:, None]
    angles = np.arccos(np.clip(unit @ nu, -1.0, 1.0))
    return DirectionEstimate(nu, float(angles.mean()), samples.shape[0], ROUTE_RAW)


def ref_estimate_direction(trajs=None, records=None, route=ROUTE_RAW, level_threshold=None):
    """Asymptotic-direction estimate via final positions or renewal increments.

    The raw route averages X_N / |X_N| over walks whose final radius clears
    the transience threshold; the renewal route averages confirmed renewal
    increments pooled over walks (only walks contributing at least one full
    increment, i.e. two confirmed renewals, count).
    """
    if route == ROUTE_RAW:
        return ref_raw_direction(trajs, level_threshold)
    if route != ROUTE_RENEWAL:
        raise ConfigError(f"unknown route {route!r}")
    if not records:
        return InsufficientData("no renewal records supplied")
    samples = increment_projections(records, np.eye(records[0].positions.shape[1], dtype=np.int64))
    if not samples.shape[0]:
        return InsufficientData("no walk produced two confirmed renewals")
    return _mean_direction(samples, route)


def ref_final_radii(final):
    """Final positions as floats, (walks, d), and their radii, each equal to ``_stable_norm`` of its row."""
    x = final.astype(np.float64)
    return x, np.sqrt(np.sort(x**2, axis=1).sum(axis=1))


def ref_antipodal_clustering(trajs, theta_tol=0.3, antipodal_tol=0.05):
    dirs = []
    for t in trajs:
        x = ref_final_position(t).astype(np.float64)
        r = _stable_norm(x)
        if r > 0:
            dirs.append(x / r)
    if not dirs:
        return ClusterResult(0, [], None, None, "all walks ended at the origin")
    u = np.asarray(dirs)
    second = u.T @ u / u.shape[0]
    eigvals, eigvecs = np.linalg.eigh(second)
    axis = eigvecs[:, -1]
    side = u @ axis >= 0.0
    centers = []
    devs = []
    for mask in (side, ~side):
        if not mask.any():
            continue
        m = u[mask].mean(axis=0)
        norm = _stable_norm(m)
        if norm == 0.0:
            return ClusterResult(0, [], None, None, "a cluster has no mean direction")
        c = m / norm
        centers.append(c)
        devs.append(float(np.arccos(np.clip(u[mask] @ c, -1.0, 1.0)).max()))
    max_dev = max(devs)
    if max_dev > theta_tol:
        return ClusterResult(0, [], max_dev, None, "angular dispersion exceeds tolerance")
    if len(centers) == 1:
        return ClusterResult(1, centers, max_dev, None)
    anti = _angle(centers[0], -centers[1])
    if anti > antipodal_tol:
        return ClusterResult(0, centers, max_dev, anti, "cluster centers are not antipodal")
    return ClusterResult(2, centers, max_dev, anti)


def ref_zero_one_scan(
    model, master_seed, n_angles, n_walks, horizon, level_threshold=None, dip_allowance=None, orth_band=0.2, trajs=None
):
    if model.dim != 2:
        raise ConfigError("the angular scan is two-dimensional")
    if n_angles < 4:
        raise ConfigError("need at least 4 angles")
    if trajs is None:
        trajs = simulate_ensemble(model, master_seed, n_walks, horizon)
    angles = np.arange(n_angles) * (2.0 * np.pi / n_angles)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    thr, dip = _resolve_thresholds(len(trajs[0]) if trajs else horizon, level_threshold, dip_allowance)
    counts = np.zeros((n_angles, 2), dtype=np.int64)
    for t in trajs:
        pos = t.positions().astype(np.float64)
        for a in range(n_angles):
            c = ref_classify_levels(pos @ dirs[a], thr, dip)
            if c > 0:
                counts[a, 0] += 1
            elif c < 0:
                counts[a, 1] += 1
    n = max(len(trajs), 1)
    p_plus = counts[:, 0] / n
    p_minus = counts[:, 1] / n
    verdicts = [_verdict(p_plus[a], p_minus[a]) for a in range(n_angles)]
    plus_idx = [a for a, v in enumerate(verdicts) if v is Verdict.TRANSIENT_PLUS]
    minus_idx = [a for a, v in enumerate(verdicts) if v is Verdict.TRANSIENT_MINUS]
    if not plus_idx and not minus_idx:
        return ZeroOneScanResult(angles, p_plus, p_minus, verdicts, TransiencePattern.ALL_ZERO, None)
    acc = np.zeros(2)
    for a in plus_idx:
        acc += dirs[a]
    for a in minus_idx:
        acc -= dirs[a]
    norm = _stable_norm(acc)
    if norm == 0.0:
        return ZeroOneScanResult(
            angles, p_plus, p_minus, verdicts, TransiencePattern.INCONSISTENT, None
        )
    nu = acc / norm
    consistent = True
    for a in range(n_angles):
        dot = float(dirs[a] @ nu)
        v = verdicts[a]
        if dot > orth_band and v is not Verdict.TRANSIENT_PLUS:
            consistent = False
        elif dot < -orth_band and v is not Verdict.TRANSIENT_MINUS:
            consistent = False
        elif abs(dot) <= orth_band and v is not Verdict.UNDECIDED:
            if (v is Verdict.TRANSIENT_PLUS) != (dot > 0):
                consistent = False
    if not consistent:
        return ZeroOneScanResult(
            angles, p_plus, p_minus, verdicts, TransiencePattern.INCONSISTENT, nu
        )
    if plus_idx and minus_idx:
        pattern = TransiencePattern.OPEN_HALF_SPACE
    elif len(plus_idx) + len(minus_idx) == 1:
        pattern = TransiencePattern.SINGLE_DIRECTION
    else:
        pattern = TransiencePattern.INCONSISTENT
    return ZeroOneScanResult(angles, p_plus, p_minus, verdicts, pattern, nu)


def ref_lhs_ci(records, spec):
    """``renewal_mean_identity``'s increment-level CI for the lhs."""
    lv = np.asarray(spec.l, dtype=np.int64)
    proj = (pooled_increments(records) @ lv).astype(np.float64)
    return _normal_ci(float(proj.mean()), float(proj.std(ddof=1)), proj.size)


# ---------------------------------------------------------------- cases


def assert_same(got, want, path="result"):
    """Field by field: ``==`` on scalars, ``np.array_equal`` and equal dtypes on arrays."""
    assert type(got) is type(want), path
    if dataclasses.is_dataclass(got):
        for f in dataclasses.fields(got):
            assert_same(getattr(got, f.name), getattr(want, f.name), f"{path}.{f.name}")
    elif isinstance(got, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want), path
    elif isinstance(got, (list, tuple)):
        assert len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            assert_same(a, b, f"{path}[{i}]")
    else:
        assert got == want, path


def assert_same_direction(got, want):
    """Bit for bit: the same type, ``nu_hat``'s dtype and bytes, and equal dispersion, count and route."""
    assert type(got) is type(want)
    if isinstance(want, InsufficientData):
        assert got == want
        return
    assert got.nu_hat.dtype == want.nu_hat.dtype and got.nu_hat.tobytes() == want.nu_hat.tobytes()
    assert (got.dispersion, got.n_samples, got.route) == (want.dispersion, want.n_samples, want.route)


def _drift(d):
    p = np.full(2 * d, 1.0)
    p[0] += 1.5
    return p / p.sum()


def model_of(kind, d):
    if kind == "homogeneous":
        return Homogeneous(TransitionVector(_drift(d)))
    if kind == "mixture":
        mirrored = _drift(d).reshape(d, 2)[:, ::-1].ravel()
        return FiniteMixture((TransitionVector(_drift(d)), TransitionVector(mirrored)), (0.7, 0.3))
    alphas = np.full(2 * d, 1.5)
    alphas[0] = 3.0
    return Dirichlet(tuple(alphas))


MODELS = [(kind, d) for kind in ("homogeneous", "mixture", "dirichlet") for d in (1, 2, 3)]
HORIZON = {"homogeneous": 600, "mixture": 400, "dirichlet": 150}


def ensemble(kind, d, seed=7):
    """Simulated walks, plus walks that end at the origin."""
    trajs = simulate_ensemble(model_of(kind, d), seed + 10 * d, 40, HORIZON[kind])
    back = np.asarray([0, 1] * (HORIZON[kind] // 2), np.int8)  # +e1, -e1, ...: ends where it started
    return trajs + [Trajectory(back, d, 0), Trajectory(back[::-1].copy(), d, 1)]


def directions(d):
    """Integer directions and non-integer float ones."""
    e1 = (1,) + (0,) * (d - 1)
    if d == 1:
        return [e1, (-2,), (0.7,), (-1.3,)]
    return [e1, (1,) * d, (2, -1) + (0,) * (d - 2), (0.7, -0.3) + (0.45,) * (d - 2), (-0.25, 1.1) + (0.0,) * (d - 2)]


THRESHOLDS = [(None, None), (5.0, 1.5), (3.0, 0.0), (12.5, None)]


@pytest.mark.parametrize("kind, d", MODELS)
def test_final_position_is_the_path_end(kind, d):
    trajs = ensemble(kind, d) + [Trajectory(np.zeros(0, np.int8), d, 0)]
    for t in trajs:
        got, want = t.final_position(), ref_final_position(t)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("thr, dip", THRESHOLDS)
@pytest.mark.parametrize("kind, d", MODELS)
def test_transience_and_speed_match_per_walk_loops(kind, d, thr, dip):
    trajs = ensemble(kind, d)
    for l in directions(d):
        walks = summarize(trajs, l)
        assert_same(classify_transience(walks, thr, dip), ref_classify_transience(trajs, l, thr, dip))
        assert_same(estimate_speed(walks, thr, dip), ref_estimate_speed(trajs, l, thr, dip))


@pytest.mark.parametrize("kind, d", MODELS)
def test_speed_divides_each_walk_by_its_own_length(kind, d):
    full = ensemble(kind, d)
    rng = np.random.default_rng(d)
    cuts = rng.integers(0, len(full[0]) + 1, size=len(full))
    trajs = [Trajectory(t.steps[:k], d, t.walker_seed) for t, k in zip(full, cuts)]
    trajs.append(Trajectory(np.zeros(0, np.int8), d, 0))
    assert len({len(t) for t in trajs}) > 10
    for l in directions(d):
        walks = summarize(trajs, l)
        for thr, dip in THRESHOLDS:
            assert_same(estimate_speed(walks, thr, dip), ref_estimate_speed(trajs, l, thr, dip))


@pytest.mark.parametrize("thr", [None, 1.0, 8.0, 25.0, 1e9])
@pytest.mark.parametrize("kind, d", MODELS)
def test_raw_direction_and_clusters_match_per_walk_loops(kind, d, thr):
    trajs = ensemble(kind, d)
    walks = summarize(trajs)
    assert_same(raw_direction(walks, level_threshold=thr), ref_raw_direction(trajs, thr))
    assert_same_direction(raw_direction(walks, thr), ref_estimate_direction(trajs, None, ROUTE_RAW, thr))
    for theta_tol in (0.3, 3.2):
        assert_same(final_clustering(walks.final, theta_tol), ref_antipodal_clustering(trajs, theta_tol))


SPECS = {
    1: ConeSpec((1,), ((1,),), Fraction(1), (1,)),
    2: ConeSpec((1, 1), ((1, 1), (1, -1)), Fraction(1, 2), (1, 0)),
}


def widened(records):
    """The records with int64 times and positions, as a walk of 2**31 - 1 steps or more stores them."""
    wide = np.int64
    return [dataclasses.replace(r, times=r.times.astype(wide), positions=r.positions.astype(wide)) for r in records]


def hand_records(rng, d, dtype=np.int64, n=30):
    """Records of random confirmed positions, each a fresh maximum along e1; some end in a censored candidate and
    some hold fewer than two."""
    out = []
    for i in range(n):
        k = int(rng.integers(0, 12))
        steps = rng.integers(-2, 3, size=(k, d))
        steps[:, 0] = rng.integers(1, 4, size=k)
        pos = (rng.integers(-20, 20, size=(1, d)) + np.cumsum(steps, axis=0)).astype(dtype)
        out.append(RenewalRecord(np.arange(k, dtype=dtype) * 4, pos, 10, bool(k) and i % 3 == 0))
    return out


@pytest.mark.parametrize("kind", ["homogeneous", "mixture", "dirichlet"])
@pytest.mark.parametrize("d", [1, 2])
def test_renewal_route_matches_the_route_switch(kind, d):
    records = [detect_renewals(t, SPECS[d], 20) for t in ensemble(kind, d)]
    assert {r.positions.dtype for r in records} == {np.dtype(np.int32)}
    assert sum(r.n_confirmed > 1 for r in records) > 10
    want = ref_estimate_direction(None, records, ROUTE_RENEWAL)
    assert isinstance(want, DirectionEstimate)
    assert_same_direction(renewal_direction(records), want)
    assert_same_direction(renewal_direction(widened(records)), want)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_renewal_route_on_hand_built_int64_records_matches_the_route_switch(d):
    records = hand_records(np.random.default_rng(d), d)
    want = ref_estimate_direction(None, records, ROUTE_RENEWAL)
    assert isinstance(want, DirectionEstimate) and want.n_samples > 50
    assert_same_direction(renewal_direction(records), want)


def test_renewal_route_without_two_confirmed_renewals_keeps_its_result():
    few = [r for r in hand_records(np.random.default_rng(4), 2, n=60) if r.n_confirmed < 2]
    assert len(few) > 3 and {r.n_confirmed for r in few} == {0, 1}
    for records, reason in ((few, "no walk produced two confirmed renewals"), ([], "no renewal records supplied")):
        assert renewal_direction(records) == ref_estimate_direction(None, records, ROUTE_RENEWAL)
        assert renewal_direction(records) == InsufficientData(reason)


def test_renewal_direction_reads_the_records_with_no_route_given():
    # the route switch defaulted to the raw route, so records alone read as "no trajectories supplied"
    records = hand_records(np.random.default_rng(8), 2)
    assert ref_estimate_direction(records=records) == InsufficientData("no trajectories supplied")
    est = renewal_direction(records)
    assert isinstance(est, DirectionEstimate) and est.route == ROUTE_RENEWAL
    assert est.n_samples == sum(max(r.n_confirmed - 1, 0) for r in records)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_final_radii_are_the_stable_norm_of_each_row(d):
    rng = np.random.default_rng(d)
    scales = 10.0 ** rng.integers(-3, 4, size=(5000, 1))
    finals = [rng.normal(size=(5000, d)) * scales, rng.integers(-50, 50, (5000, d))]
    finals += [summarize(ensemble(kind, d)).final for kind in ("homogeneous", "dirichlet") if d < 4]
    for final in finals:
        x, r = ref_final_radii(final)
        got = _stable_norm(final.astype(np.float64))
        assert got.dtype == r.dtype == np.float64 and got.tobytes() == r.tobytes()
        assert np.array([_stable_norm(row) for row in x]).tobytes() == r.tobytes()


def test_walks_at_the_origin_are_left_out_of_both_direction_estimates():
    """Half the walks end at the origin; a radius-1 threshold keeps exactly the others."""
    away = [Trajectory(np.asarray([j], np.int8), 2, 0) for j in (0, 0, 1, 2)]
    home = [Trajectory(np.asarray([j, j ^ 1], np.int8), 2, 0) for j in range(4)]
    trajs = [t for pair in zip(away, home) for t in pair]
    walks = summarize(trajs)
    for thr in (0.5, 1.0, 1.5):
        assert_same(raw_direction(walks, level_threshold=thr), ref_raw_direction(trajs, thr))
    assert raw_direction(walks, level_threshold=1.0).n_samples == 4
    for theta_tol in (0.3, 3.2):
        assert_same(final_clustering(walks.final, theta_tol), ref_antipodal_clustering(trajs, theta_tol))
    assert_same(final_clustering(summarize(home).final), ref_antipodal_clustering(home))


def test_empty_ensemble_keeps_its_result():
    # the summary of no walk checks l without a length; raw_direction read its step count and raised an IndexError
    for l in ((1, 0), (1, 0, 0)):
        for estimator in (classify_transience, estimate_speed):
            with pytest.raises(ValueError, match=f"^{estimator.__name__} needs a nonempty ensemble$"):
                estimator(summarize([], l))
    with pytest.raises(ConfigError, match="finite nonzero"):
        summarize([], (0, 0))
    assert_same(raw_direction(summarize([])), ref_raw_direction([]))
    assert_same(final_clustering(summarize([]).final), ref_antipodal_clustering([]))
    model = model_of("homogeneous", 2)
    assert_same(zero_one_scan(model, 5, 8, 0, 100), ref_zero_one_scan(model, 5, 8, 0, 100))


@pytest.mark.parametrize("n_angles", [4, 7, 16, 33])
@pytest.mark.parametrize("kind", ["homogeneous", "mixture", "dirichlet", "srw"])
def test_zero_one_scan_matches_per_walk_loop(kind, n_angles):
    model = Homogeneous(TransitionVector([0.25] * 4)) if kind == "srw" else model_of(kind, 2)
    horizon = HORIZON.get(kind, 600)
    for thr, dip in THRESHOLDS:
        got = zero_one_scan(model, 31, n_angles, 30, horizon, thr, dip)
        assert_same(got, ref_zero_one_scan(model, 31, n_angles, 30, horizon, thr, dip))


@pytest.mark.parametrize("orth_band", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("probs", [[0.35, 0.15, 0.35, 0.15], [0.3, 0.1, 0.3, 0.3]], ids=["diagonal", "weak"])
def test_zero_one_scan_bands_match_per_walk_loop(probs, orth_band):
    # the three-clause consistency rule against the old per-angle branches: band 0 makes both drifted
    # scans inconsistent, band 1 an open half-space, and band 0.5 one of each
    model = Homogeneous(TransitionVector(probs))
    got = zero_one_scan(model, 31, 16, 30, 600, orth_band=orth_band)
    assert_same(got, ref_zero_one_scan(model, 31, 16, 30, 600, orth_band=orth_band))


def test_zero_one_scan_refuses_a_negative_band():
    with pytest.raises(ConfigError, match="orth_band"):
        zero_one_scan(model_of("homogeneous", 2), 31, 8, 30, 600, orth_band=-0.1)


@pytest.mark.parametrize("kind, d", MODELS)
def test_walk_classes_read_each_direction_column(kind, d):
    trajs = ensemble(kind, d)
    dirs = np.asarray(directions(d), dtype=np.float64)
    for thr, dip in ((5.0, 1.5), (12.5, 6.25)):
        levels = _level_rows(trajs, dirs)
        cls, final = _classes(levels, thr, dip), levels[..., 0]
        assert cls.shape == final.shape == (len(trajs), len(dirs))
        for a, lv in enumerate(dirs):
            levels = [t.positions() @ lv for t in trajs]
            assert np.array_equal(cls[:, a], [ref_classify_levels(s, thr, dip) for s in levels])
            assert np.array_equal(final[:, a], [s[-1] for s in levels])


@pytest.mark.parametrize("kind, d", MODELS)
def test_level_rows_do_not_follow_the_path_layout(kind, d, monkeypatch):
    # float products of an F-ordered path round differently; _level_rows once moved last bits with the layout
    trajs = ensemble(kind, d)
    dirs = np.asarray(directions(d), dtype=np.float64)
    want = _level_rows(trajs, dirs)
    positions = Trajectory.positions
    monkeypatch.setattr(Trajectory, "positions", lambda self: np.asfortranarray(positions(self)))
    assert _level_rows(trajs, dirs).tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_identity_lhs_ci_matches_pooled_increments(d):
    l = (1,) + (0,) * (d - 1)
    spec = ConeSpec((1,) * d, ((1,),) if d == 1 else ((1, 1), (1, -1)), Fraction(1, 2) if d > 1 else Fraction(1), l)
    trajs = simulate_ensemble(model_of("homogeneous", d), 90 + d, 40, 1500)
    records = [detect_renewals(t, spec, 150) for t in trajs]
    report = renewal_mean_identity(records, spec, n_boot=100)
    assert not isinstance(report, InsufficientData)
    assert report.lhs_ci == ref_lhs_ci(records, spec)


def test_classes_match_the_scalar_rule_on_float_rows():
    # levels on a half-integer grid put many rows exactly on the threshold and dip boundaries
    rng = np.random.default_rng(5)
    final = rng.integers(-40, 41, size=4000) / 2.0
    rise, fall = rng.integers(0, 12, size=(2, 4000)) / 2.0
    levels = np.stack([final, final + rise, final - fall], axis=1)
    for thr, dip in ((5.0, 1.5), (0.5, 0.0), (12.5, 6.25), (20.0, 3.0)):
        want = [_level_class(*row, thr, dip) for row in levels]
        got = _classes(levels, thr, dip)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert np.array_equal(_classes(levels.reshape(50, 80, 3), thr, dip), np.reshape(want, (50, 80)))
    assert {-1, 0, 1} <= set(want)


def test_classes_match_the_scalar_rule_on_exact_integer_facts():
    """A record's integer level facts past 2**53 are classified exactly; float64 would round them."""
    big = 2**60
    rows = [
        (big + 1, big + 301, big - 7),  # high - final = 300 > dip: class 0, but 256 in float64
        (big + 1, big + 300, big),  # high - final = 299 = dip: class 1
        (-big - 1, -big + 5, -big - 301),  # the mirror of the first row
        (-big - 1, 0, -big - 300),
        (2**53 + 1, 2**53 + 1, 2**53 - 1),
        (3, 310, -5),
        (0, 0, 0),
    ]
    facts = np.asarray(rows, dtype=object)
    thr, dip = 10.0, 299.0
    got = _classes(facts, thr, dip)
    assert got.tolist() == [_level_class(*row, thr, dip) for row in rows] == [0, 1, 0, -1, 1, 0, 0]
    assert _classes(np.asarray(rows[:1], dtype=np.float64), thr, dip).tolist() == [1]


def test_shares_count_each_column_over_the_walks():
    cls = np.asarray([[1, -1, 0], [1, 0, 0], [-1, -1, 0], [1, 0, 0]])
    p_plus, p_minus = _shares(cls)
    assert p_plus.tolist() == [0.75, 0.0, 0.0] and p_minus.tolist() == [0.25, 0.5, 0.0]
    assert [a.tolist() for a in _shares(np.zeros((0, 3), dtype=np.int64))] == [[0.0] * 3, [0.0] * 3]


def test_zero_one_scan_finds_a_single_transient_direction():
    # a drift along +e1 only: with a wide band, the one angle at 0 is transient and every other one undecided
    model = Homogeneous(TransitionVector([0.4, 0.1, 0.25, 0.25]))
    args = (model, 7, 5, 200, 2000)
    kw = dict(level_threshold=520, dip_allowance=200, orth_band=0.9)
    got = zero_one_scan(*args, **kw)
    assert got.pattern is TransiencePattern.SINGLE_DIRECTION
    assert got.verdicts == [Verdict.TRANSIENT_PLUS] + [Verdict.UNDECIDED] * 4
    assert np.array_equal(got.nu_hat, [1.0, 0.0])
    assert_same(got, ref_zero_one_scan(*args, **kw))
