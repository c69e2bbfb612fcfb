"""Estimators that confront directional-transience theory with simulation.

Events at infinity are replaced by documented finite-horizon proxies, and
every verdict is three-valued: undecided is a meaningful outcome here, not a
failure.  Where the theory supplies two independent routes to a quantity
(raw path limits vs renewal increments, Monte Carlo vs exact solves), both
routes are exposed so their agreement can be measured rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .cone import ConeSpec, RenewalRecord, _level_facts
from .errors import ConfigError
from .lattice import read_float, read_integer, read_integers
from .walk import Trajectory, _check_l, run_slab_ensemble, simulate_ensemble

Z95 = 1.959963984540054


class Verdict(Enum):
    TRANSIENT_PLUS = "transient+"
    TRANSIENT_MINUS = "transient-"
    UNDECIDED = "undecided"


class TransiencePattern(Enum):
    ALL_ZERO = "all-zero"
    SINGLE_DIRECTION = "single-direction"
    OPEN_HALF_SPACE = "open-half-space"
    INCONSISTENT = "inconsistent"


@dataclass(frozen=True)
class InsufficientData:
    """Explicit could-not-decide result; never an exception."""

    reason: str


def _stable_norm(v: np.ndarray) -> np.float64 | np.ndarray:
    """Euclidean norm along the last axis with an order-independent sum, so
    coordinate permutations and reflections of the input move the output
    exactly; a (walks, d) array gives each row's norm."""
    sq = np.sort(np.asarray(v, dtype=np.float64) ** 2, axis=-1)
    return np.sqrt(sq.sum(axis=-1))


def _angle(u: np.ndarray, v: np.ndarray) -> float:
    du = np.asarray(u, dtype=np.float64)
    dv = np.asarray(v, dtype=np.float64)
    c = float(du @ dv) / (_stable_norm(du) * _stable_norm(dv))
    return float(np.arccos(min(1.0, max(-1.0, c))))


def _normal_ci(mean: float, sd: float, n: int) -> tuple[float, float]:
    if n <= 1:
        return (mean, mean)
    half = Z95 * sd / math.sqrt(n)
    return (mean - half, mean + half)


def _mean_ci(values: np.ndarray) -> tuple[float, float, tuple[float, float]]:
    """The mean of ``values``, their sample sd (0 for a single value) and the mean's normal 95% interval."""
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return mean, sd, _normal_ci(mean, sd, values.size)


def _binom_se(p: float, n: int) -> float:
    """Standard error of a proportion ``p`` of ``n`` trials; NaN when there are none."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / n) if n else float("nan")


def _binom_ci(k: int, n: int) -> tuple[float, float]:
    if n == 0:
        return (float("nan"), float("nan"))
    p = k / n
    half = Z95 * _binom_se(p, n)
    return (max(0.0, p - half), min(1.0, p + half))


def _verdict(p_plus: float, p_minus: float) -> Verdict:
    """Transient one way when at least 99% of walks go that way and at most 1% the other."""
    if p_plus >= 0.99 and p_minus <= 0.01:
        return Verdict.TRANSIENT_PLUS
    if p_minus >= 0.99 and p_plus <= 0.01:
        return Verdict.TRANSIENT_MINUS
    return Verdict.UNDECIDED


def _resolve_thresholds(horizon: int, level_threshold, dip_allowance) -> tuple[float, float]:
    """The level threshold (2 sqrt(horizon) by default) and the dip allowance (half the threshold by default)."""
    thr = 2 * math.sqrt(max(horizon, 1)) if level_threshold is None else read_float(level_threshold, "level_threshold")
    if not thr > 0:
        raise ConfigError(f"level_threshold must be > 0, got {thr}")
    return thr, thr / 2 if dip_allowance is None else read_float(dip_allowance, "dip_allowance", 0)


def _level_rows(trajs: Sequence[Trajectory], dirs: np.ndarray) -> np.ndarray:
    """Each walk's final level and the max and min of the last half of its levels along each row of ``dirs``.

    A (walks, rows, 3) float64 array of ``cone._level_facts`` of the float
    levels.  Every path is built once.  Each direction gets its own
    ``pos @ d`` product, because one product against all rows rounds levels
    differently.
    """
    out = np.zeros((len(trajs), len(dirs), 3))
    for i, t in enumerate(trajs):
        pos = t.positions().astype(np.float64)
        for a, d in enumerate(dirs):
            out[i, a] = _level_facts(pos @ d)[1:]
    return out


def _classes(levels: np.ndarray, thr: float, dip: float) -> np.ndarray:
    """The transience class of each (final, last-half high, last-half low) row of ``levels``, in its leading shape.

    1 when the final level clears ``thr`` and the last-half high is within
    ``dip`` of it (the path has not fallen back), -1 for the exact mirror,
    else 0.  It is computed in the arithmetic of ``levels``: float64 rows,
    or an object array of a record's exact integer facts.
    """
    final, high, low = np.moveaxis(levels, -1, 0)
    plus = (final >= thr) & (high - final <= dip)
    minus = (final <= -thr) & (final - low <= dip)
    return np.where(plus, 1, np.where(minus, -1, 0))


def _shares(cls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shares of the walks (the first axis of ``cls``) in the plus and in the minus class; 0 with no walk."""
    n = max(cls.shape[0], 1)
    return (cls > 0).sum(axis=0) / n, (cls < 0).sum(axis=0) / n


@dataclass(eq=False)
class PathSummary:
    """What the path estimators read of an ensemble, one row per walk, so that a run need not keep its paths.

    ``final`` holds the final positions X_N, a (walks, d) int64 array, and
    ``n_steps`` the step counts N.  With a direction ``l`` (float64),
    ``levels`` holds each walk's final level X_N . l and the max and min of
    the last half of its levels, a (walks, 3) float64 array that decides its
    transience class (see ``_classes``); without one, both are None.
    """

    final: np.ndarray
    n_steps: np.ndarray
    l: np.ndarray | None = None
    levels: np.ndarray | None = None

    @classmethod
    def join(cls, parts: Sequence["PathSummary"]) -> "PathSummary":
        """The summaries of consecutive blocks of one ensemble as one, in walker order."""
        levels = None if parts[0].levels is None else np.concatenate([p.levels for p in parts])
        return cls(
            np.concatenate([p.final for p in parts]), np.concatenate([p.n_steps for p in parts]), parts[0].l, levels
        )


def summarize(trajs: Sequence[Trajectory], l=None) -> PathSummary:
    """The ``PathSummary`` of ``trajs``, with the level facts along ``l`` when it is given.

    The final positions come from the step counts; only the level facts build
    the paths.
    """
    d = trajs[0].dim if trajs else 0
    final = np.array([t.final_position() for t in trajs], dtype=np.int64).reshape(len(trajs), d)
    n_steps = np.array([len(t) for t in trajs], dtype=np.int64)
    if l is None:
        return PathSummary(final, n_steps)
    lv = _check_l(l, d)
    return PathSummary(final, n_steps, lv, _level_rows(trajs, lv[None, :])[:, 0])


@dataclass(frozen=True)
class TransienceVerdict:
    l: tuple[float, ...]
    verdict: Verdict
    p_hat_plus: float
    p_hat_minus: float
    level_threshold: float
    dip_allowance: float
    n_walks: int


def classify_transience(
    trajs: Sequence[Trajectory],
    l,
    level_threshold: float | None = None,
    dip_allowance: float | None = None,
) -> TransienceVerdict:
    """Classify an ensemble as transient toward +l, toward -l, or undecided."""
    if not trajs:
        raise ValueError("classify_transience needs a nonempty ensemble")
    return _class_estimates(summarize(trajs, l), level_threshold, dip_allowance)[0]


@dataclass(frozen=True)
class SpeedEstimate:
    mean: float
    ci: tuple[float, float]
    n_walks: int
    mean_plus: float | None
    n_plus: int
    mean_minus: float | None
    n_minus: int


def estimate_speed(
    trajs: Sequence[Trajectory],
    l,
    level_threshold: float | None = None,
    dip_allowance: float | None = None,
) -> SpeedEstimate:
    """Mean of X_N . l / N with a normal CI, split by transience class."""
    if not trajs:
        raise ValueError("estimate_speed needs a nonempty ensemble")
    return _class_estimates(summarize(trajs, l), level_threshold, dip_allowance)[1]


def _class_estimates(
    walks: PathSummary, level_threshold: float | None, dip_allowance: float | None
) -> tuple[TransienceVerdict, SpeedEstimate]:
    """``classify_transience`` and ``estimate_speed`` along ``walks.l`` of a nonempty ensemble, from its summary."""
    thr, dip = _resolve_thresholds(int(walks.n_steps[0]), level_threshold, dip_allowance)
    cls = _classes(walks.levels, thr, dip)
    n = cls.shape[0]
    p_plus, p_minus = map(float, _shares(cls))
    verdict = TransienceVerdict(
        tuple(float(x) for x in walks.l), _verdict(p_plus, p_minus), p_plus, p_minus, thr, dip, n
    )
    vals = walks.levels[:, 0] / np.maximum(walks.n_steps, 1)
    mean, _, ci = _mean_ci(vals)
    plus = vals[cls > 0]
    minus = vals[cls < 0]
    speed = SpeedEstimate(
        mean,
        ci,
        n,
        float(plus.mean()) if plus.size else None,
        int(plus.size),
        float(minus.mean()) if minus.size else None,
        int(minus.size),
    )
    return verdict, speed


@dataclass(eq=False)
class DirectionEstimate:
    nu_hat: np.ndarray
    dispersion: float
    n_samples: int
    route: str


ROUTE_RAW = "raw-limit"
ROUTE_RENEWAL = "renewal-lln"


def estimate_direction(
    trajs: Sequence[Trajectory], level_threshold: float | None = None
) -> DirectionEstimate | InsufficientData:
    """Asymptotic-direction estimate by the raw route: the mean of X_N / |X_N| over the walks whose final radius
    clears the transience threshold (see ``raw_direction``)."""
    if not trajs:
        return InsufficientData("no trajectories supplied")
    return raw_direction(summarize(trajs), level_threshold)


def raw_direction(walks: PathSummary, level_threshold: float | None = None) -> DirectionEstimate | InsufficientData:
    """The raw route of the direction estimate on a nonempty ensemble's summary."""
    thr = _resolve_thresholds(int(walks.n_steps[0]), level_threshold, None)[0]
    x = walks.final.astype(np.float64)
    r = _stable_norm(x)
    far = r >= thr
    if not far.any():
        return InsufficientData("no walk reached the radius threshold")
    return _mean_direction(x[far] / r[far, None], ROUTE_RAW)


def renewal_direction(records: Sequence[RenewalRecord]) -> DirectionEstimate | InsufficientData:
    """Asymptotic-direction estimate by the renewal route: the mean of the confirmed renewal increments pooled
    over walks (only walks with at least two confirmed renewals contribute)."""
    if not records:
        return InsufficientData("no renewal records supplied")
    samples = increment_projections(records, np.eye(records[0].positions.shape[1], dtype=np.int64))
    if not samples.shape[0]:
        return InsufficientData("no walk produced two confirmed renewals")
    return _mean_direction(samples, ROUTE_RENEWAL)


def _mean_direction(samples: np.ndarray, route: str) -> DirectionEstimate | InsufficientData:
    """The normalised mean of the (samples, d) displacements and their mean angle to it."""
    mean = samples.mean(axis=0)
    norm = _stable_norm(mean)
    if norm == 0.0:
        return InsufficientData("mean displacement is zero")
    nu = mean / norm
    unit = samples / np.linalg.norm(samples, axis=1, keepdims=True)
    angles = np.arccos(np.clip(unit @ nu, -1.0, 1.0))
    return DirectionEstimate(nu, float(angles.mean()), samples.shape[0], route)


def pooled_increments(records: Sequence[RenewalRecord]) -> np.ndarray:
    """Confirmed renewal increments in walker order, in one (k, d) array of the records' dtype; (0, 0) for none.

    They are ``increment_projections`` onto the identity matrix, cast back; an
    increment is bounded by its walk's step count, so the round trip is exact.
    """
    if not records:
        return np.zeros((0, 0), dtype=np.int64)
    pos = [r.positions for r in records if r.n_confirmed > 1] or [r.positions for r in records]
    eye = np.eye(records[0].positions.shape[1], dtype=np.int64)
    return increment_projections(records, eye).astype(np.result_type(*pos))


def increment_projections(records: Sequence[RenewalRecord], v) -> np.ndarray:
    """The projections of the confirmed renewal increments onto the integer vector ``v``, as float64, in walker order.

    Each record's ``confirmed_positions @ v`` is differenced into one
    preallocated (k,) array, so the pooled increments are never built; a
    (d, m) matrix ``v`` gives a (k, m) array of the projections onto its
    columns.  The values are exact integers below 2**53 in magnitude.
    """
    v = np.asarray(v, dtype=np.int64)
    pos = [r.confirmed_positions for r in records if r.n_confirmed > 1]
    out = np.empty((sum(p.shape[0] - 1 for p in pos),) + v.shape[1:])
    k = 0
    for p in pos:
        lev = p @ v
        np.subtract(lev[1:], lev[:-1], out=out[k : k + p.shape[0] - 1])
        k += p.shape[0] - 1
    return out


@dataclass(eq=False)
class IndependenceReport:
    lag1: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    n: int
    passed: bool


# Rows of the centred lag-1 product formed at a time in ``_lag1``'s buffer.
_LAG1_CHUNK = 1 << 14


def _lag1(col: np.ndarray, buf: np.ndarray) -> float | None:
    """The lag-1 autocorrelation of the float64 column ``col``, computed in ``buf``, one row shorter; None when
    either lagged half has zero variance.

    It takes ``np.std``'s own steps for each half (sum, divide by the row
    count, subtract, square in place, sum, divide, sqrt) and forms the
    product of the centred halves in chunks, all in ``buf``, so its bits are
    those of ``mean((x - x.mean()) * (y - y.mean())) / (x.std() * y.std())``.
    """
    n = np.intp(buf.shape[0])
    x, y = col[:-1], col[1:]
    means, sds = [], []
    for half in (x, y):
        mean = np.add.reduce(half) / n
        np.subtract(half, mean, out=buf)
        np.square(buf, out=buf)
        means.append(mean)
        sds.append(np.sqrt(np.add.reduce(buf) / n))
    if sds[0] == 0.0 or sds[1] == 0.0:
        return None
    for a in range(0, buf.shape[0], _LAG1_CHUNK):
        part = buf[a : a + _LAG1_CHUNK]
        np.subtract(x[a : a + _LAG1_CHUNK], means[0], out=part)
        np.multiply(part, y[a : a + _LAG1_CHUNK] - means[1], out=part)
    return float(np.mean(buf) / (sds[0] * sds[1]))


def independence_test(increments: np.ndarray | Sequence[RenewalRecord]) -> IndependenceReport | InsufficientData:
    """Per-coordinate lag-1 autocorrelation with a Fisher-z 95% CI.

    Passes when every coordinate's CI contains 0.  ``increments`` is a (k, d)
    array, or renewal records, whose pooled confirmed increments are read one
    coordinate at a time by ``increment_projections``, without the pooled
    array.
    """
    if isinstance(increments, Sequence) and increments and isinstance(increments[0], RenewalRecord):
        records = increments
        rows, d = sum(max(r.n_confirmed - 1, 0) for r in records), records[0].positions.shape[1]
        unit = np.eye(d, dtype=np.int64)

        def column(k: int) -> np.ndarray:
            return increment_projections(records, unit[k])

    else:
        inc = np.asarray(increments)
        rows, d = inc.shape if inc.ndim == 2 else (0, 0)

        def column(k: int) -> np.ndarray:
            return inc[:, k].astype(np.float64)

    if rows < 100:
        return InsufficientData("need at least 100 increments")
    n = rows - 1
    buf = np.empty(n)
    r = np.empty(d)
    for k in range(d):
        lag = _lag1(column(k), buf)
        if lag is None:
            return InsufficientData(f"coordinate {k} is degenerate (zero variance)")
        r[k] = lag
    z = np.arctanh(np.clip(r, -0.999999, 0.999999))
    half = Z95 / math.sqrt(max(n - 3, 1))
    lo = np.tanh(z - half)
    hi = np.tanh(z + half)
    passed = bool(np.all((lo <= 0.0) & (0.0 <= hi)))
    return IndependenceReport(r, lo, hi, n + 1, passed)


@dataclass(eq=False)
class OscillationReport:
    mean: float
    mean_ci: tuple[float, float]
    n: int
    sign_changes: int
    running_min: float
    running_max: float
    increment_std: float
    degenerate: bool


def orthogonal_oscillation(
    records: Sequence[RenewalRecord], l, l_star
) -> OscillationReport | InsufficientData:
    """Partial-sum statistics of renewal increments projected orthogonally to l.

    The projected increments should be centered, and their partial sums should
    oscillate: sign changes accumulate and the running extrema grow in both
    directions.  A path locked to the direction l produces all-zero
    projections; that degenerate case is flagged, not averaged away.
    """
    li = np.asarray(read_integers(l, "l"), dtype=np.int64)
    ls = np.asarray(read_integers(l_star, "l_star", li.shape[0]), dtype=np.int64)
    if int(li @ ls) != 0:
        raise ValueError("l_star must be exactly orthogonal to l")
    y = increment_projections(records, ls)
    if y.size == 0:
        return InsufficientData("no confirmed renewal increments")
    partial = np.cumsum(y)
    mean, sd, ci = _mean_ci(y)
    signs = np.sign(partial)
    nz = signs[signs != 0]
    changes = int(np.count_nonzero(np.diff(nz))) if nz.size else 0
    return OscillationReport(
        mean,
        ci,
        int(y.size),
        changes,
        float(partial.min()),
        float(partial.max()),
        sd,
        bool(np.all(y == 0.0)),
    )


@dataclass(eq=False)
class RenewalIdentityReport:
    """Two-sided check of the mean renewal advance against its probability form.

    lhs is the mean confirmed increment in direction l; rhs is
    1 / (p_cone * hit_level_prob) where p_cone estimates the chance of never
    leaving the origin-rooted cone given forward transience and
    hit_level_prob estimates the chance that the first passage over i-1 lands
    exactly on level i, averaged over a window of levels.
    """

    lhs: float
    lhs_ci: tuple[float, float]
    p_cone: float
    p_cone_ci: tuple[float, float]
    hit_level_prob: float
    rhs: float
    ratio: float
    ratio_ci: tuple[float, float]
    window: tuple[int, int]
    n_increments: int
    n_walks: int


def renewal_mean_identity(
    records: Sequence[RenewalRecord],
    spec: ConeSpec,
    window: tuple[int, int] | None = None,
    level_threshold: float | None = None,
    dip_allowance: float | None = None,
    n_boot: int = 1000,
    boot_seed: int = 12345,
) -> RenewalIdentityReport | InsufficientData:
    """Estimate both sides of the renewal mean identity with a bootstrap CI.

    The increment mean uses confirmed increments only (the stretch before the
    first renewal has a different law and is excluded by construction).  The
    cone-survival probability conditions on walks classified forward
    transient; level hits are averaged over the window, which defaults to the
    upper half of the levels every walk in the sample reached, so horizon
    censoring cannot masquerade as overshoot.  The records must come from
    ``detect_renewals`` with the same ``spec``: everything is read from them,
    the runs of levels hit, the stays flags and the level facts that give
    each walk's transience class, and no path is built.  The default level
    threshold is that of the first record's step count.
    """
    n_boot = read_integer(n_boot, "n_boot", 1)
    if not records:
        return InsufficientData("empty ensemble")
    lv = np.asarray(spec.l, dtype=np.int64)
    thr, dip = _resolve_thresholds(records[0].n_steps, level_threshold, dip_allowance)
    n = len(records)
    # a walk's increments telescope: their projections sum exactly to its last confirmed level minus its first
    inc_cnt = np.asarray([max(rec.n_confirmed - 1, 0) for rec in records], dtype=np.float64)
    inc_sum = np.asarray(
        [float((r.positions[r.n_confirmed - 1] - r.positions[0]) @ lv) if c else 0.0 for r, c in zip(records, inc_cnt)]
    )
    tops = np.asarray([rec.hit_runs[-1, 1] if rec.hit_runs.size else 0 for rec in records], dtype=np.int64)
    stays = np.asarray([rec.stays for rec in records], dtype=bool)
    if window is None:
        top = int(tops.min())
        if top < 1:
            return InsufficientData("some walk reached no positive level")
        window = (max(1, top // 2), top)
    i_min, i_max = read_integer(window[0], "window"), read_integer(window[1], "window")
    if i_min < 1 or i_max < i_min:
        raise ConfigError("level window must satisfy 1 <= i_min <= i_max")
    # the first passage over i - 1 lands exactly on level i >= 1 iff a fresh maximum took level i,
    # so a walk's hits are its runs' overlaps with the window
    overlaps = [np.minimum(r.hit_runs[:, 1], i_max) - np.maximum(r.hit_runs[:, 0], i_min) + 1 for r in records]
    hit_frac = np.asarray([np.maximum(o, 0).sum() for o in overlaps], dtype=np.int64) / (i_max - i_min + 1)
    facts = np.asarray([(r.final_level, r.tail_max, r.tail_min) for r in records], dtype=object)
    is_plus = _classes(facts, thr, dip) > 0
    total_inc = int(inc_cnt.sum())
    n_plus = int(is_plus.sum())
    if total_inc < 10:
        return InsufficientData(f"only {total_inc} confirmed increments")
    if n_plus == 0:
        return InsufficientData("no walk classified forward transient")
    if hit_frac.mean() == 0.0:
        return InsufficientData("no level hits inside the window")

    def estimates(sel: np.ndarray) -> tuple[float, float, float]:
        cnt = inc_cnt[sel].sum()
        plus = is_plus[sel].sum()
        lhs = inc_sum[sel].sum() / cnt if cnt else float("nan")
        pc = (is_plus[sel] & stays[sel]).sum() / plus if plus else float("nan")
        hit = hit_frac[sel].mean()
        return lhs, pc, hit

    idx_all = np.arange(n)
    lhs, p_cone, hit = estimates(idx_all)
    if p_cone == 0.0:
        return InsufficientData("no transient walk stayed in the origin cone")
    rhs = 1.0 / (p_cone * hit)
    ratio = lhs / rhs
    rng = np.random.default_rng(boot_seed)
    ratios = np.empty(n_boot)
    for bidx in range(n_boot):
        sel = rng.integers(0, n, size=n)
        bl, bp, bh = estimates(sel)
        ratios[bidx] = bl * bp * bh if bp and bh else float("nan")
    ratios = ratios[np.isfinite(ratios)]
    if ratios.size < max(10, n_boot // 10):
        return InsufficientData("bootstrap produced too few valid resamples")
    ratio_ci = (float(np.percentile(ratios, 2.5)), float(np.percentile(ratios, 97.5)))
    return RenewalIdentityReport(
        lhs,
        _mean_ci(increment_projections(records, lv))[2],  # increment-level CI, in walker order
        p_cone,
        _binom_ci(int((is_plus & stays).sum()), n_plus),
        hit,
        rhs,
        ratio,
        ratio_ci,
        (i_min, i_max),
        total_inc,
        n,
    )


@dataclass(eq=False)
class ClusterResult:
    """Antipodal clustering of final directions; n_clusters 0 means no
    directional limit was detectable at the requested tolerance."""

    n_clusters: int
    centers: list[np.ndarray]
    max_angular_dev: float | None
    antipodal_dev: float | None
    reason: str | None = None


# How far, in radians, two cluster centres may be from exactly opposite.
ANTIPODAL_TOL = 0.05


def antipodal_clustering(trajs: Sequence[Trajectory], theta_tol: float = 0.3) -> ClusterResult:
    """Split final directions by the leading principal axis and test tightness."""
    return final_clustering(summarize(trajs).final, theta_tol)


def final_clustering(final: np.ndarray, theta_tol: float = 0.3) -> ClusterResult:
    """``antipodal_clustering`` of the walks whose final positions are the rows of ``final``."""
    theta_tol = read_float(theta_tol, "theta_tol", 0)
    x = final.astype(np.float64)
    r = _stable_norm(x)
    moved = r > 0
    if not moved.any():
        return ClusterResult(0, [], None, None, "all walks ended at the origin")
    u = x[moved] / r[moved, None]
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
    if anti > ANTIPODAL_TOL:
        return ClusterResult(0, centers, max_dev, anti, "cluster centers are not antipodal")
    return ClusterResult(2, centers, max_dev, anti)


@dataclass(frozen=True)
class DecayPoint:
    L: float
    p_left: float
    ci: tuple[float, float]
    n_left: int
    n_exits: int
    n_censored: int


@dataclass(eq=False)
class SlabDecayCurve:
    points: list[DecayPoint]
    log_slope: float | None
    n_fit: int


def slab_exit_decay(
    model,
    master_seed: int,
    l_prime,
    b: float,
    L_list: Sequence[float],
    n_walks: int,
    horizon: int,
) -> SlabDecayCurve:
    """Left-exit probability across slab widths, with a log-linear slope.

    One pass of the same walkers tallies every width, so the estimates are
    coupled and the expected monotone decay is not blurred by resampling
    noise.  The slope of log p against L is the diagnostic for exponential
    (gamma = 1) decay; zero-hit widths are reported but excluded from the fit.
    """
    Ls = [float(x) for x in L_list]
    tallies = run_slab_ensemble(model, master_seed, n_walks, l_prime, b, Ls, horizon)
    points = [
        DecayPoint(L, t.p_left, _binom_ci(t.n_left, t.n_exits), t.n_left, t.n_exits, t.n_censored)
        for L, t in zip(Ls, tallies)
    ]
    fit = [(pt.L, pt.p_left) for pt in points if pt.n_left > 0 and np.isfinite(pt.p_left)]
    slope = None
    if len(fit) >= 2:
        xs = np.asarray([f[0] for f in fit])
        ys = np.log(np.asarray([f[1] for f in fit]))
        slope = float(np.polyfit(xs, ys, 1)[0])
    return SlabDecayCurve(points, slope, len(fit))


@dataclass(eq=False)
class ZeroOneScanResult:
    angles: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray
    verdicts: list[Verdict]
    pattern: TransiencePattern
    nu_hat: np.ndarray | None


def zero_one_scan(
    model,
    master_seed: int,
    n_angles: int,
    n_walks: int,
    horizon: int,
    level_threshold: float | None = None,
    dip_allowance: float | None = None,
    orth_band: float = 0.2,
) -> ZeroOneScanResult:
    """Transience verdicts over an angular grid, labeled by global pattern.

    Patterns: all directions undecided; a single transient direction; an open
    half-space of transient directions with the mirror half transient the
    other way; anything else is inconsistent.  Against the estimated axis nu,
    a transient+ angle needs cos > 0, a transient- angle cos <= 0, and an
    undecided one |cos| <= ``orth_band`` (>= 0), so only near-orthogonal
    angles may be undecided.
    """
    if model.dim != 2:
        raise ConfigError("the angular scan is two-dimensional")
    n_angles = read_integer(n_angles, "n_angles", 4)
    orth_band = read_float(orth_band, "orth_band", 0)
    trajs = simulate_ensemble(model, master_seed, n_walks, horizon)
    angles = np.arange(n_angles) * (2.0 * np.pi / n_angles)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    thr, dip = _resolve_thresholds(horizon, level_threshold, dip_allowance)
    p_plus, p_minus = _shares(_classes(_level_rows(trajs, dirs), thr, dip))
    verdicts = [_verdict(p_plus[a], p_minus[a]) for a in range(n_angles)]
    plus_idx = [a for a, v in enumerate(verdicts) if v is Verdict.TRANSIENT_PLUS]
    minus_idx = [a for a, v in enumerate(verdicts) if v is Verdict.TRANSIENT_MINUS]
    acc = np.zeros(2)
    for a in plus_idx:
        acc += dirs[a]
    for a in minus_idx:
        acc -= dirs[a]
    norm = _stable_norm(acc)
    nu = acc / norm if norm else None
    consistent = nu is not None and all(
        dot > 0 if v is Verdict.TRANSIENT_PLUS else dot <= 0 if v is Verdict.TRANSIENT_MINUS else abs(dot) <= orth_band
        for v, dot in zip(verdicts, (float(d @ nu) for d in dirs))
    )
    if not plus_idx and not minus_idx:
        pattern = TransiencePattern.ALL_ZERO
    elif consistent and plus_idx and minus_idx:
        pattern = TransiencePattern.OPEN_HALF_SPACE
    elif consistent and len(plus_idx) + len(minus_idx) == 1:
        pattern = TransiencePattern.SINGLE_DIRECTION
    else:
        pattern = TransiencePattern.INCONSISTENT
    return ZeroOneScanResult(angles, p_plus, p_minus, verdicts, pattern, nu)
