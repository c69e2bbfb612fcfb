"""The range-min renewal scan and the fresh-maximum level hits against the code they replaced.

``ref_detect_renewals`` is the renewal scan as it was before one first-exit
rule replaced its three exit searches (a block window minimum, a 16-step
near-exit table and a block-doubling far-exit scan), and ``ref_level_hits``
and ``ref_renewal_mean_identity`` are the level-hit rule and the identity
estimator that kept every walk's full level array and classed each walk by
it (``ref_classify_levels``).  ``ref_lambda_scan`` is
the interpolation-weight scan that ran ``detect_renewals`` once per walk and
grid value, ``ref_first_exit`` the first-exit rule on int64 face tables
alone, and ``ref_scan`` the recursion that found every candidate's first exit
and chased the successors they gave.  They are kept as oracles: the scan must
reproduce their records, reports, rows, exits and kept candidates exactly.
``ref_positions`` is the path rule that gathered the int64 step table by the
steps and summed it down the path, and ``ref_faces`` the row-major int64 face
table P @ M.T, cast to int32 when it fits; ``Trajectory.positions`` and
``cone._face_table`` must give the same integers in the same dtype, and the
oracles here build their paths and faces with them.
"""

from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre_lab import ConeSpec, Homogeneous, Trajectory, TransitionVector, detect_renewals
from rwre_lab import cone
from rwre_lab.cone import (
    DEFAULT_LAMBDA_GRID,
    LambdaScanResult,
    LambdaScanRow,
    RenewalRecord,
    _face_table,
    _first_exit,
    _fresh,
    _record_dtype,
    _scan,
    lambda_scan,
    renewal_rate,
)
from rwre_lab.errors import ConfigError
from rwre_lab.lattice import step_table
from rwre_lab.stats import (
    InsufficientData,
    RenewalIdentityReport,
    _binom_ci,
    _classes,
    _normal_ci,
    _resolve_thresholds,
    renewal_mean_identity,
)
from rwre_lab.walk import simulate_ensemble
from test_path_estimators import _level_class, ref_classify_levels

# ---------------------------------------------------------------- oracles


def ref_positions(traj):
    out = np.zeros((len(traj) + 1, traj.dim), dtype=np.int64)
    if len(traj):
        np.cumsum(step_table(traj.dim)[traj.steps], axis=0, out=out[1:])
    return out


def ref_faces(P, spec):
    return (P @ spec.matrix.T).astype(_record_dtype((P.shape[0] - 1) * spec.face_norm), copy=False)


def _trailing_window_min(a, w):
    n = a.shape[0]
    need = n + w - 1
    nb = (need + w - 1) // w
    buf = np.full(nb * w, np.inf)
    buf[: n - 1] = a[1:]
    blocks = buf.reshape(nb, w)
    pref = np.minimum.accumulate(blocks, axis=1).ravel()
    suff = np.minimum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    i = np.arange(n)
    return np.minimum(suff[i], pref[i + w - 1])


def _first_cone_exit(F, c, hi, start=None):
    base = F[c]
    m = c + 1 if start is None else start
    blk = 64
    while m <= hi:
        end = min(m + blk, hi + 1)
        w = np.flatnonzero((F[m:end] < base).any(axis=1))
        if w.size:
            return m + int(w[0])
        m = end
        blk = min(blk * 4, 1 << 20)
    raise AssertionError("caller guaranteed an exit inside the window")


_NEAR_EXIT_RANGE = 16


def _near_exit_offsets(F):
    n = F.shape[0]
    off = np.zeros(n, dtype=np.int64)
    cols = [np.ascontiguousarray(F[:, k]) for k in range(F.shape[1])]
    for j in range(min(_NEAR_EXIT_RANGE, n - 1), 0, -1):
        mask = cols[0][j:] < cols[0][:-j]
        for col in cols[1:]:
            mask |= col[j:] < col[:-j]
        off[: n - j][mask] = j
    return off


def ref_detect_renewals(traj, spec, confirm_horizon):
    if confirm_horizon < 1:
        raise ConfigError("confirm_horizon must be at least 1")
    H = int(confirm_horizon)
    P = ref_positions(traj)
    N = len(traj)
    s = P @ np.asarray(spec.l, dtype=np.int64)
    F = P @ spec.matrix.T
    runmax = np.maximum.accumulate(s)
    fresh = np.flatnonzero(s[1:] > runmax[:-1]) + 1
    empty = RenewalRecord(np.zeros(0, dtype=np.int64), np.zeros((0, traj.dim), dtype=np.int64), H, False)
    if fresh.size == 0:
        return empty
    Ff = F.astype(np.float64)
    wm = np.stack([_trailing_window_min(Ff[:, k], H) for k in range(F.shape[1])], axis=1)
    ok = (wm[fresh] >= Ff[fresh]).all(axis=1)
    nf = fresh.size
    tmp = np.where(~ok, np.arange(nf), nf)
    next_bad = np.minimum.accumulate(tmp[::-1])[::-1]
    cens_start = int(np.searchsorted(fresh, N - H, side="right"))
    near_exit = _near_exit_offsets(F).tolist()
    ok_l, next_bad_l, fresh_l = ok.tolist(), next_bad.tolist(), fresh.tolist()
    fresh_lv_l, runmax_l = s[fresh].tolist(), runmax.tolist()
    pieces = []
    censored = False
    j = 0
    while j < nf:
        if ok_l[j]:
            if j >= cens_start:
                pieces.append(fresh[j : j + 1])
                censored = True
                break
            run_end = min(next_bad_l[j], cens_start)
            pieces.append(fresh[j:run_end])
            j = run_end
        else:
            c = fresh_l[j]
            off = near_exit[c]
            r = c + off if off else _first_cone_exit(F, c, min(c + H, N), start=c + _NEAR_EXIT_RANGE + 1)
            j = bisect_right(fresh_lv_l, runmax_l[r])
    if not pieces:
        return empty
    t_arr = np.concatenate(pieces)
    return RenewalRecord(t_arr, P[t_arr], H, censored)


_NEVER = np.iinfo(np.int64).max


def ref_first_exit(F, cands, H):
    L = min(H, F.shape[0]).bit_length()
    table = [np.concatenate([F.T, np.full((F.shape[1], (1 << L) - 1), _NEVER)], axis=1)]
    for j in range(1, L):
        half = 1 << (j - 1)
        table.append(np.minimum(table[-1][:, :-half], table[-1][:, half:]))
    base = F[cands].T
    pos = cands + 1
    for j in range(L - 1, -1, -1):
        stays = (table[j].take(pos, axis=1) >= base).all(axis=0)
        pos += stays << j
    return pos


def ref_scan(fresh: np.ndarray, F: np.ndarray, H: int) -> tuple[np.ndarray, bool]:
    """The recursion of ``detect_renewals`` on face table ``F``: kept candidates, and whether the last is censored."""
    N = F.shape[0] - 1
    nf = fresh.size
    exit_at = _first_exit(F, fresh, H) if nf else fresh
    w = min(H, N + 1)  # a window reaching past the end of the path is cut off there
    ok = exit_at > np.minimum(fresh + w, N)
    censored = ok & (fresh + w > N)
    succ = np.where(ok, np.arange(1, nf + 1), np.searchsorted(fresh, exit_at, side="right"))
    succ[censored] = nf  # a window cut off by the end of the path ends the recursion
    ok_l, succ_l = ok.tolist(), succ.tolist()
    kept = []
    j = 0
    while j < nf:
        if ok_l[j]:
            kept.append(j)
        j = succ_l[j]
    return fresh[kept], bool(kept) and bool(censored[kept[-1]])


def ref_level_hits(s, i_min, i_max):
    run = np.maximum.accumulate(s)
    levels = np.arange(i_min, i_max + 1, dtype=np.int64)
    t = np.searchsorted(run, levels)
    reached = t < s.shape[0]
    out = np.zeros(levels.shape[0], dtype=np.float64)
    idx = np.flatnonzero(reached)
    out[idx] = s[t[idx]] == levels[idx]
    return out


def ref_renewal_mean_identity(
    trajs, records, spec, window=None, level_threshold=None, dip_allowance=None, n_boot=1000, boot_seed=12345
):
    lv = np.asarray(spec.l, dtype=np.int64)
    thr, dip = _resolve_thresholds(len(trajs[0]), level_threshold, dip_allowance)
    n = len(trajs)
    inc_sum, inc_cnt = np.zeros(n), np.zeros(n)
    is_plus, stays = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    max_lv = np.zeros(n, dtype=np.int64)
    all_s = []
    for i, (t, rec) in enumerate(zip(trajs, records)):
        pos = ref_positions(t)
        s = pos @ lv
        all_s.append(s)
        max_lv[i] = s.max()
        is_plus[i] = ref_classify_levels(s.astype(np.float64), thr, dip) > 0
        stays[i] = bool(((pos @ spec.matrix.T) >= 0).all())
        inc = np.diff(rec.confirmed_positions, axis=0)
        if inc.shape[0]:
            inc_sum[i] = float((inc @ lv).sum())
            inc_cnt[i] = inc.shape[0]
    if window is None:
        top = int(max_lv.min())
        if top < 1:
            return InsufficientData("some walk reached no positive level")
        window = (max(1, top // 2), top)
    i_min, i_max = int(window[0]), int(window[1])
    hit_frac = np.asarray([ref_level_hits(s, i_min, i_max).mean() for s in all_s])
    total_inc = int(inc_cnt.sum())
    n_plus = int(is_plus.sum())
    if total_inc < 10:
        return InsufficientData(f"only {total_inc} confirmed increments")
    if n_plus == 0:
        return InsufficientData("no walk classified forward transient")
    if hit_frac.mean() == 0.0:
        return InsufficientData("no level hits inside the window")

    def estimates(sel):
        cnt = inc_cnt[sel].sum()
        plus = is_plus[sel].sum()
        lhs = inc_sum[sel].sum() / cnt if cnt else float("nan")
        pc = (is_plus[sel] & stays[sel]).sum() / plus if plus else float("nan")
        return lhs, pc, hit_frac[sel].mean()

    lhs, p_cone, hit = estimates(np.arange(n))
    if p_cone == 0.0:
        return InsufficientData("no transient walk stayed in the origin cone")
    rhs = 1.0 / (p_cone * hit)
    rng = np.random.default_rng(boot_seed)
    ratios = np.empty(n_boot)
    for bidx in range(n_boot):
        bl, bp, bh = estimates(rng.integers(0, n, size=n))
        ratios[bidx] = bl * bp * bh if bp and bh else float("nan")
    ratios = ratios[np.isfinite(ratios)]
    if ratios.size < max(10, n_boot // 10):
        return InsufficientData("bootstrap produced too few valid resamples")
    ratio_ci = (float(np.percentile(ratios, 2.5)), float(np.percentile(ratios, 97.5)))
    proj = np.concatenate([np.diff(rec.confirmed_positions, axis=0) @ lv for rec in records]).astype(np.float64)
    lhs_ci = _normal_ci(float(proj.mean()), float(proj.std(ddof=1)), proj.size)
    return RenewalIdentityReport(
        lhs, lhs_ci, p_cone, _binom_ci(int((is_plus & stays).sum()), n_plus), hit, rhs, lhs / rhs,
        ratio_ci, (i_min, i_max), total_inc, n,
    )


def ref_lambda_scan(model, master_seed, sigma, basis, l, lambdas, n_walks, horizon, confirm_horizon, rate_floor=0.5):
    grid = sorted({Fraction(x) for x in lambdas}, reverse=True)
    trajs = simulate_ensemble(model, master_seed, n_walks, horizon)
    rows = []
    chosen = None
    for lam in grid:
        spec = ConeSpec(tuple(sigma), tuple(tuple(r) for r in basis), lam, tuple(l))
        confirmed = sum(detect_renewals(t, spec, confirm_horizon).n_confirmed for t in trajs)
        rate = renewal_rate(confirmed, n_walks, horizon)
        rows.append(LambdaScanRow(lam, rate, confirmed))
        if chosen is None and rate > rate_floor:
            chosen = lam
    return LambdaScanResult(chosen, rows)


# ---------------------------------------------------------------- cases


def assert_hit_runs(rec: RenewalRecord, levels: list[int]) -> None:
    """``rec.hit_runs`` covers exactly the fresh-maximum ``levels``, in maximal runs of consecutive levels."""
    runs = rec.hit_runs
    assert runs.dtype == np.int64 and runs.ndim == 2 and runs.shape[1] == 2
    assert [i for a, b in runs.tolist() for i in range(a, b + 1)] == levels
    assert all(a <= b for a, b in runs.tolist())
    assert all(a > b + 1 for a, b in zip(runs[1:, 0].tolist(), runs[:-1, 1].tolist()))


def top_level(rec: RenewalRecord) -> int:
    """The highest level a walk reached: the end of its last run of hit levels, or 0."""
    return int(rec.hit_runs[-1, 1]) if rec.hit_runs.size else 0


def assert_same_record(got: RenewalRecord, want: RenewalRecord) -> None:
    """``got`` holds ``want``'s renewals exactly, in the documented dtype: int32 below 2**31 - 1 steps, else int64."""
    dtype = np.int32 if got.n_steps < 2**31 - 1 else np.int64
    for name in ("times", "positions"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    assert got.confirm_horizon == want.confirm_horizon
    assert got.censored_tail is want.censored_tail


def scan_inputs(traj: Trajectory, spec: ConeSpec) -> tuple[np.ndarray, np.ndarray]:
    """The fresh maxima and the face table that ``detect_renewals`` hands to ``_scan``, by the old rules."""
    P = ref_positions(traj)
    return _fresh(P @ np.asarray(spec.l)), ref_faces(P, spec)


def assert_same_scan(traj: Trajectory, spec: ConeSpec, H: int) -> None:
    """``_scan`` keeps the candidates the pointer chase of ``ref_scan`` kept, and flags the same censored tail."""
    fresh, F = scan_inputs(traj, spec)
    (times, censored), (want_times, want_censored) = _scan(fresh, F, H), ref_scan(fresh, F, H)
    assert np.array_equal(times, want_times) and censored is want_censored


# Per dimension, cones whose direction passes the check.  The d = 2 skew cone
# has faces that fall on a step that raises the level, so a candidate can
# leave its cone at a fresh maximum.
CONES = {
    1: [((1,), ((1,),), (1,))],
    2: [((1, 1), ((1, 1), (1, -1)), (1, 0)), ((1, 1), ((3, -2), (-2, 3)), (1, 1))],
    3: [((1, 1, 1), ((1, 1, 0), (1, -1, 1), (1, 0, -1)), (1, 0, 0))],
}


def drift_probs(l, bias):
    """Step probabilities leaning toward +l: each +e_a gets extra weight ``bias * l_a``."""
    d = len(l)
    p = np.full(2 * d, 1.0)
    for a, la in enumerate(l):
        p[2 * a] += bias * max(la, 0)
        p[2 * a + 1] += bias * max(-la, 0)
    return p / p.sum()


def paths(d, l, seed):
    """N = 0, a straight run up the first axis, a path whose every candidate fails, and random walks."""
    rng = np.random.default_rng(seed)
    out = [np.zeros(0, np.int8), np.zeros(40, np.int8)]
    if d > 1:
        out.append(np.asarray([0, 2] * 30, np.int8))  # +e1 then +e2: each fresh maximum leaves at once
    else:
        out.append(np.asarray([0, 1] * 30, np.int8))
    for n, bias in ((1, 1.0), (7, 1.0), (65, 2.0), (300, 1.0), (300, 4.0), (300, 0.3)):
        out.append(rng.choice(2 * d, size=n, p=drift_probs(l, bias)).astype(np.int8))
    return out


def horizons(N):
    """1, 2^k - 1, 2^k, 2^k + 1, N, N + 1 and more than N."""
    hs = {1, N, N + 1, N + 7, 3 * N + 1}
    for k in (1, 2, 3, 4, 6, 8):
        hs |= {(1 << k) - 1, 1 << k, (1 << k) + 1}
    return sorted(h for h in hs if h >= 1)


@pytest.mark.parametrize("lam", DEFAULT_LAMBDA_GRID, ids=str)
@pytest.mark.parametrize("d", sorted(CONES))
def test_records_match_old_scan(d, lam):
    for ci, (sigma, basis, l) in enumerate(CONES[d]):
        spec = ConeSpec(sigma, basis, lam, l)
        for steps in paths(d, l, 100 * d + ci):
            traj = Trajectory(steps, d, 0)
            assert_same_face_table(traj, spec)
            for H in horizons(len(traj)):
                assert_same_record(detect_renewals(traj, spec, H), ref_detect_renewals(traj, spec, H))
                assert_same_scan(traj, spec, H)


def test_special_paths_cover_their_cases():
    """The hand-made paths give an empty record, a censored tail, and candidates that all fail."""
    spec = ConeSpec((1, 1), ((1, 1), (1, -1)), Fraction(1, 2), (1, 0))
    empty, straight, failing = (Trajectory(p, 2, 0) for p in paths(2, (1, 0), 0)[:3])
    assert detect_renewals(empty, spec, 5).times.size == 0
    rec = detect_renewals(straight, spec, 8)
    assert rec.censored_tail and rec.n_confirmed == 40 - 8
    assert detect_renewals(failing, spec, 3).times.size == 0


def test_skew_cone_exits_at_fresh_maxima():
    """A failed candidate whose exit is itself a fresh maximum skips past it, as the old scan did."""
    spec = ConeSpec((1, 1), ((3, -2), (-2, 3)), Fraction(1), (1, 1))
    steps = np.asarray([2, 2, 0, 2, 0, 0, 2, 2, 0, 0, 0, 2, 2, 2] * 4, np.int8)
    traj = Trajectory(steps, 2, 0)
    F = ref_positions(traj) @ spec.matrix.T
    s = ref_positions(traj) @ np.asarray(spec.l)
    leaves = (F[1:] < F[:-1]).any(axis=1) & (s[1:] > np.maximum.accumulate(s)[:-1])
    assert leaves.any()
    for H in (1, 2, 3, 4, 5, 8, 16, len(traj) + 1):
        assert_same_record(detect_renewals(traj, spec, H), ref_detect_renewals(traj, spec, H))
        assert_same_scan(traj, spec, H)


@st.composite
def scan_cases(draw):
    d = draw(st.integers(1, 3))
    sigma = tuple(draw(st.sampled_from([-1, 1])) for _ in range(d))
    basis = tuple(tuple(draw(st.integers(-3, 3)) for _ in range(d)) for _ in range(d))
    l = tuple(draw(st.integers(-2, 2)) for _ in range(d))
    q = draw(st.integers(1, 8))
    lam = Fraction(draw(st.integers(1, q)), q)
    try:
        spec = ConeSpec(sigma, basis, lam, l, check_direction=False)
    except ConfigError:  # a degenerate draw falls back to the orthant, with l = e1
        spec = ConeSpec((1,) * d, np.eye(d, dtype=int).tolist(), lam, (1,) + (0,) * (d - 1), check_direction=False)
    steps = draw(st.lists(st.integers(0, 2 * d - 1), max_size=120))
    H = draw(st.integers(1, len(steps) + 3))
    return Trajectory(np.asarray(steps, np.int8), d, 0), spec, H


@settings(max_examples=300, deadline=None)
@given(scan_cases())
def test_random_steps_and_cones_match_old_scan(case):
    traj, spec, H = case
    rec = detect_renewals(traj, spec, H)
    assert_same_record(rec, ref_detect_renewals(traj, spec, H))
    assert_same_scan(traj, spec, H)
    P = ref_positions(traj)
    levels = (P @ np.asarray(spec.l))[_fresh(P @ np.asarray(spec.l))].tolist()
    assert_hit_runs(rec, levels)
    assert rec.stays is bool(spec.contains((0,) * spec.dim, P).all())


# the upward cone x_2 >= |x_1| with l = (1, 2): a step along +e1 raises the level and lowers the first face
UPWARD = ConeSpec((1, 1), ((-1, 1), (1, 1)), Fraction(1), (1, 2))


def test_an_exit_that_lands_on_a_confirmed_candidate_skips_it():
    """The recursion skips a confirmed candidate that a failed one exits at, as the pointer chase did."""
    # +e1 +e1 +e2 +e2: the candidate at time 1 leaves its cone at time 2, itself a candidate that stays in its
    # cone through time 3 when H = 1; the chase goes on to time 3
    traj = Trajectory(np.asarray([0, 0, 2, 2], np.int8), 2, 0)
    fresh, F = scan_inputs(traj, UPWARD)
    assert fresh.tolist() == [1, 2, 3, 4]
    ok = _first_exit(F, fresh, 1) > fresh + 1
    assert ok.tolist() == [False, True, True, True]
    times, censored = _scan(fresh, F, 1)
    assert times.tolist() == [3, 4] and censored
    assert_same_scan(traj, UPWARD, 1)
    # longer walks skip many confirmed candidates, censored or not, and the scan still keeps what the chase kept
    rng = np.random.default_rng(5)
    skipped = 0
    for _ in range(40):
        traj = Trajectory(rng.choice(4, size=400, p=drift_probs((0, 1), 1.0)).astype(np.int8), 2, 0)
        fresh, F = scan_inputs(traj, UPWARD)
        for H in (1, 3, 20):
            N = len(traj)
            ok = _first_exit(F, fresh, H) > np.minimum(fresh + H, N)
            times, _ = ref_scan(fresh, F, H)
            skipped += np.count_nonzero(ok & (fresh <= N - H)) - np.count_nonzero(times <= N - H)
            assert_same_scan(traj, UPWARD, H)
    assert skipped > 0


def test_the_workload_cone_asks_for_no_exit(monkeypatch):
    """The benchmark's renewal cone asks for no exit: its one level-raising step, +e1, raises every face."""

    def refuse(*args):
        raise AssertionError("_first_exit was called")

    monkeypatch.setattr(cone, "_first_exit", refuse)
    with pytest.raises(AssertionError, match="_first_exit was called"):  # the scan reaches the patched rule
        detect_renewals(Trajectory(np.asarray([0, 0, 2, 2], np.int8), 2, 0), UPWARD, 1)
    model = Homogeneous(TransitionVector([0.4, 0.1, 0.25, 0.25]))
    cones = [ConeSpec((1, 1), ((1, 1), (1, -1)), lam, (1, 0)) for lam in DEFAULT_LAMBDA_GRID]
    for t in simulate_ensemble(model, 20260808, 10, 3000):
        assert all(detect_renewals(t, spec, 300).n_confirmed > 0 for spec in cones)
    result = lambda_scan(model, 20260808, cones, 10, 3000, 300, 0.5)
    assert all(row.confirmed > 0 for row in result.rows)


# ---------------------------------------------------------------- face table width


def assert_same_face_table(traj, spec):
    """``_face_table`` of the walk's path, transposed, is ``ref_faces`` in values and dtype; returns it."""
    P = traj.positions()
    F, want = _face_table(P, spec).T, ref_faces(ref_positions(traj), spec)
    assert F.dtype == want.dtype and np.array_equal(F, want)
    return F


def assert_same_exits(traj, spec, H):
    F = assert_same_face_table(traj, spec)
    cands = np.arange(len(traj) + 1)
    assert np.array_equal(_first_exit(F, cands, H), ref_first_exit(ref_positions(traj) @ spec.matrix.T, cands, H))
    return F.dtype


# faces of norm 2**30 - 1 (lambda = 1) and 2**30 + 1 (lambda = 1/2): N * norm passes
# 2**31 - 1 at the third and the second step, with entries near 2**31 before it does
BIG = 2**30 - 1
BIG_CONE = ((1, 1), ((BIG, 0), (0, BIG)), (1, 1))


@pytest.mark.parametrize("lam, last_int32", [(Fraction(1), 2), (Fraction(1, 2), 1)], ids=str)
def test_face_tables_are_int32_only_below_the_bound(lam, last_int32):
    spec = ConeSpec(*BIG_CONE[:2], lam, BIG_CONE[2])
    norm = max(sum(map(abs, row)) for row in spec.matrix.tolist())
    assert last_int32 * norm < 2**31 - 1 <= (last_int32 + 1) * norm
    rng = np.random.default_rng(11)
    for N in range(7):
        walks = [np.zeros(N, np.int8), np.ones(N, np.int8)] + [rng.integers(0, 4, N).astype(np.int8) for _ in range(20)]
        for steps in walks:
            traj = Trajectory(steps, 2, 0)
            for H in horizons(N):
                dtype = assert_same_exits(traj, spec, H)
                assert dtype == (np.int32 if N <= last_int32 else np.int64)
                assert_same_record(detect_renewals(traj, spec, H), ref_detect_renewals(traj, spec, H))


@st.composite
def walks(draw):
    """A walk in d = 1..4 of 0 steps, 1 step or a drawn number of them, starting with a run along one direction."""
    d = draw(st.integers(1, 4))
    n = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 400)))
    run = [draw(st.integers(0, 2 * d - 1))] * draw(st.integers(0, n))
    rest = draw(st.lists(st.integers(0, 2 * d - 1), min_size=n - len(run), max_size=n - len(run)))
    return Trajectory(np.asarray(run + rest, np.int8), d, 0)


@settings(max_examples=300, deadline=None)
@given(walks())
def test_positions_and_face_tables_match_the_step_table_rules(traj):
    """``positions`` is ``ref_positions`` in values, dtype, shape and C order; ``_face_table`` is ``ref_faces``."""
    P, want = traj.positions(), ref_positions(traj)
    assert P.dtype == np.int64 and P.shape == want.shape == (len(traj) + 1, traj.dim)
    assert P.flags.c_contiguous and np.array_equal(P, want)
    for sigma, basis, l in CONES.get(traj.dim, []):
        for lam in DEFAULT_LAMBDA_GRID:
            assert_same_face_table(traj, ConeSpec(sigma, basis, lam, l))


@settings(max_examples=200, deadline=None)
@given(scan_cases())
def test_random_face_tables_match_int64_exits(case):
    traj, spec, H = case
    assert assert_same_exits(traj, spec, H) == np.int32


@pytest.mark.parametrize("big", [False, True], ids=["small", "big"])
def test_no_fresh_maxima(big):
    """A walk that never rises gives no candidate and an empty record, on either table width."""
    sigma, basis, l = BIG_CONE if big else CONES[2][0]
    spec = ConeSpec(sigma, basis, Fraction(1), l)
    traj = Trajectory(np.asarray([1, 3] * 20, np.int8), 2, 0)
    P = ref_positions(traj)
    assert _fresh(P @ np.asarray(spec.l)).size == 0
    none = np.zeros(0, dtype=np.int64)
    F = ref_faces(P, spec)
    assert F.dtype == (np.int64 if big else np.int32)
    for H in horizons(len(traj)):
        assert _first_exit(F, none, H).size == 0
        rec = detect_renewals(traj, spec, H)
        assert_same_record(rec, ref_detect_renewals(traj, spec, H))
        assert rec.times.size == 0 and rec.hit_runs.shape == (0, 2)


# faces of norm 2**62, and a level direction of norm 2**62 + 1 beside faces of norm 1: N times the norm
# stays below 2**63 - 1 at one step and reaches it at two, where a face or a level could wrap
INT64_CONES = {
    "faces": ((1, 1), ((2**62, 0), (0, 1)), (1, 1)),
    "levels": ((1, 1), ((1, 0), (0, 1)), (2**62, 1)),
}


@pytest.mark.parametrize("name", sorted(INT64_CONES))
def test_cones_that_could_pass_int64_are_refused(name, drift2d):
    spec = ConeSpec(*INT64_CONES[name][:2], Fraction(1), INT64_CONES[name][2])
    # one step along +e1 reaches level l_1, 2**62 on the "levels" cone, one run of one level;
    # steps along -e1 take every level below 0
    up, one, two = (Trajectory(np.full(n, step, np.int8), 2, 0) for n, step in ((1, 0), (1, 1), (2, 1)))
    for traj in (Trajectory(np.zeros(0, np.int8), 2, 0), up, one):  # no step leaves an int32 table of zeros
        assert assert_same_face_table(traj, spec).dtype == (np.int64 if name == "faces" and len(traj) else np.int32)
    for traj, levels in ((up, [spec.l[0]]), (one, [])):
        rec = detect_renewals(traj, spec, 1)
        assert_same_record(rec, ref_detect_renewals(traj, spec, 1))
        assert_hit_runs(rec, levels)
    with pytest.raises(ConfigError, match="past int64"):
        detect_renewals(two, spec, 1)
    lambda_scan(drift2d, 3, [spec], n_walks=5, horizon=1, confirm_horizon=1, rate_floor=0.5)
    with pytest.raises(ConfigError, match="past int64"):
        lambda_scan(drift2d, 3, [spec], n_walks=5, horizon=2, confirm_horizon=1, rate_floor=0.5)


def test_lambda_scan_checks_every_weight(drift2d):
    # the faces have norm 1 at weight 1 and 2**62 - 1 at weight 2**-61, which three steps take past int64
    cones = [ConeSpec((1, 1), ((1, 0), (0, 1)), lam, (1, 1)) for lam in (Fraction(1), Fraction(1, 2**61))]
    lambda_scan(drift2d, 3, cones[:1], n_walks=5, horizon=3, confirm_horizon=1, rate_floor=0.5)
    with pytest.raises(ConfigError, match="past int64"):
        lambda_scan(drift2d, 3, cones, n_walks=5, horizon=3, confirm_horizon=1, rate_floor=0.5)


# ---------------------------------------------------------------- level hits


# l = (2, 1) moves the level by 2 along e1, so some levels are never taken
LEVEL_CASES = {"1": (1, (1,)), "2": (2, (1, 0)), "2-l21": (2, (2, 1))}


def identity_sample(case):
    d, l = LEVEL_CASES[case]
    spec = ConeSpec(*CONES[d][0][:2], Fraction(1, 2) if d > 1 else Fraction(1), l)
    model = Homogeneous(TransitionVector(drift_probs(l, 1.5)))
    trajs = simulate_ensemble(model, 81 + d, 60, 1500)
    return trajs, [detect_renewals(t, spec, 150) for t in trajs], spec


# explicit thresholds leave 3 to 5 walks of each sample out of the forward class, and more with no dip allowed
IDENTITY_THRESHOLDS = [(None, None), (300.0, 2.0), (200.0, 0.0)]


@pytest.mark.parametrize("window", [None, (3, 40), (1, 1), (50, 10**4), "past-top"], ids=str)
@pytest.mark.parametrize("case", sorted(LEVEL_CASES))
def test_identity_report_matches_old_level_hits(case, window):
    trajs, records, spec = identity_sample(case)
    if case == "2-l21":  # some walk skips a level between two runs of hit levels
        assert any(len(r.hit_runs) > 1 for r in records)
    past = window == "past-top"
    if past:  # one level past every walk's top: no hits
        top = max(map(top_level, records)) + 1
        window = (top, top)
    for thr, dip in IDENTITY_THRESHOLDS:
        got = renewal_mean_identity(records, spec, window, thr, dip, n_boot=200)
        want = ref_renewal_mean_identity(trajs, records, spec, window, thr, dip, n_boot=200)
        assert type(got) is type(want)
        assert vars(got) == vars(want)
        assert isinstance(got, InsufficientData if past else RenewalIdentityReport)


@pytest.mark.parametrize("window", [None, (3, 40)], ids=str)
def test_records_without_level_facts_are_insufficient(window):
    _, records, spec = identity_sample("2")
    bare = [RenewalRecord(r.times, r.positions, r.confirm_horizon, r.censored_tail) for r in records]
    assert isinstance(renewal_mean_identity(records, spec, window=window, n_boot=50), RenewalIdentityReport)
    assert isinstance(renewal_mean_identity(bare, spec, window=window, n_boot=50), InsufficientData)


def hand_record(n_inc, stays=True, final_level=50):
    """A 1D record of ``n_inc`` confirmed increments of 2 over 100 steps that hit levels 1..20.

    With the default thresholds of 100 steps (20, dip 10) the walk is forward
    transient; a ``final_level`` of 0 leaves it unclassified.
    """
    k = np.arange(n_inc + 1)
    return RenewalRecord(3 * k, 2 * k[:, None], 5, False, np.asarray([[1, 20]]), stays, 100, final_level, 50, 40)


LINE = ConeSpec((1,), ((1,),), Fraction(1), (1,))


@pytest.mark.parametrize(
    "records, n_boot, reason",
    [
        ([hand_record(3), hand_record(2)], 100, "only 5 confirmed increments"),
        ([hand_record(12, final_level=0)], 100, "no walk classified forward transient"),
        ([hand_record(6, stays=False), hand_record(6, stays=False)], 100, "no transient walk stayed in the origin cone"),
        # fewer than 10 resamples can never be enough, however many are valid
        ([hand_record(12)] * 3, 9, "bootstrap produced too few valid resamples"),
    ],
    ids=["increments", "transient", "cone", "bootstrap"],
)
def test_identity_insufficient_outcomes_of_hand_built_records(records, n_boot, reason):
    assert renewal_mean_identity(records, LINE, n_boot=n_boot) == InsufficientData(reason)
    # a tenth resample rescues only the bootstrap case
    assert isinstance(renewal_mean_identity(records, LINE, n_boot=10), RenewalIdentityReport) is (n_boot == 9)


@pytest.mark.parametrize("window", [(0, 5), (-3, 4), (6, 5)], ids=str)
def test_identity_refuses_a_bad_window(window):
    with pytest.raises(ConfigError, match="level window must satisfy 1 <= i_min <= i_max"):
        renewal_mean_identity([hand_record(12)], LINE, window=window)


def class_walks(N):
    """Plus-drift, minus-drift and centred 2D walks of N steps, and one whose level peaks just before its last half."""
    laws = (drift_probs((1, 0), 1.5), drift_probs((-1, 0), 1.5), np.full(4, 0.25))
    walks = [t for k, p in enumerate(laws) for t in simulate_ensemble(Homogeneous(TransitionVector(p)), 60 + k, 40, N)]
    h = (N + 1) // 2  # the last half of the levels s[0..N] is s[h:]
    # up along e1 to level h - 1 at time h - 1, one step down, then sideways along e2
    return walks + [Trajectory(np.asarray([0] * (h - 1) + [1] + [2] * (N - h), np.int8), 2, 0)]


@pytest.mark.parametrize("N", [1, 2, 3, 1501])
def test_record_class_matches_level_array_rule(N):
    """A record's level facts give the class that the old rule gave on the walk's whole level array."""
    sigma, basis, _ = CONES[2][0]
    spec = ConeSpec(sigma, basis, Fraction(1, 2), (1, 0))
    seen = set()
    for t in class_walks(N):
        rec = detect_renewals(t, spec, 10)
        s = (ref_positions(t) @ np.asarray(spec.l)).astype(np.float64)
        assert rec.n_steps == N
        for level_threshold, dip_allowance in ((None, None), (1.0, 0.0), (N**0.5, 0.0)):
            thr, dip = _resolve_thresholds(rec.n_steps, level_threshold, dip_allowance)
            want = ref_classify_levels(s, thr, dip)
            facts = (rec.final_level, rec.tail_max, rec.tail_min)
            assert _level_class(*facts, thr, dip) == want
            assert _classes(np.asarray([facts], dtype=object), thr, dip).tolist() == [want]
            seen.add(want)
    assert seen == {-1, 0, 1}


# ---------------------------------------------------------------- lambda scan


SCAN_MODELS = {
    (1, "drifted"): Homogeneous(TransitionVector(drift_probs((1,), 1.0))),
    (1, "centred"): Homogeneous(TransitionVector([0.5, 0.5])),
    (2, "drifted"): Homogeneous(TransitionVector(drift_probs((1, 0), 1.0))),
    (2, "centred"): Homogeneous(TransitionVector([0.25] * 4)),
}


@pytest.mark.parametrize("d, kind", sorted(SCAN_MODELS), ids=lambda x: str(x))
def test_lambda_scan_rows_match_old_scan(d, kind):
    sigma, basis, l = CONES[d][0]
    grid = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 8))
    model, seed = SCAN_MODELS[d, kind], 7 + d
    got = lambda_scan(model, seed, [ConeSpec(sigma, basis, lam, l) for lam in grid], 40, 1200, 120, 0.5)
    want = ref_lambda_scan(model, seed, sigma, basis, l, grid, 40, 1200, 120)
    assert got.rows == want.rows and got.chosen == want.chosen


def test_lambda_scan_sorts_cones_and_drops_repeated_weights():
    sigma, basis, l = CONES[2][1]
    grid = (Fraction(1, 8), Fraction(1), Fraction(1, 2), Fraction(1), Fraction(1, 3))
    model = SCAN_MODELS[2, "drifted"]
    got = lambda_scan(model, 11, [ConeSpec(sigma, basis, lam, l) for lam in grid], 30, 900, 90, 60.0)
    want = ref_lambda_scan(model, 11, sigma, basis, l, grid, 30, 900, 90, 60.0)
    assert [row.lam for row in got.rows] == [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 8)]
    assert got.rows == want.rows and got.chosen == want.chosen


@pytest.mark.parametrize(
    "model, H, message",
    [
        (SCAN_MODELS[2, "drifted"], 0, "confirm_horizon must be at least 1"),
        (SCAN_MODELS[1, "drifted"], 50, "cone dimension does not match trajectory dimension"),
    ],
    ids=["window", "dimension"],
)
def test_lambda_scan_refuses_what_detect_renewals_refuses(model, H, message):
    sigma, basis, l = CONES[2][0]
    args = (model, 3, sigma, basis, l, DEFAULT_LAMBDA_GRID, 5, 200, H)
    cones = [ConeSpec(sigma, basis, lam, l) for lam in DEFAULT_LAMBDA_GRID]
    for scan in (lambda: ref_lambda_scan(*args), lambda: lambda_scan(model, 3, cones, 5, 200, H, 0.5)):
        with pytest.raises(ConfigError, match=message):
            scan()


# ---------------------------------------------------------------- path builds


@pytest.fixture
def position_calls(monkeypatch):
    calls = []
    positions = Trajectory.positions

    def counted(self):
        calls.append(self)
        return positions(self)

    monkeypatch.setattr(Trajectory, "positions", counted)
    return calls


def test_identity_builds_no_path(position_calls):
    _, records, spec = identity_sample("2-l21")
    position_calls.clear()
    assert isinstance(renewal_mean_identity(records, spec, n_boot=50), RenewalIdentityReport)
    assert position_calls == []


def test_lambda_scan_builds_each_path_once(position_calls):
    sigma, basis, l = CONES[2][0]
    cones = [ConeSpec(sigma, basis, lam, l) for lam in DEFAULT_LAMBDA_GRID]
    res = lambda_scan(SCAN_MODELS[2, "drifted"], 5, cones, 30, 800, 80, 0.5)
    assert len(res.rows) == 4
    assert len(position_calls) == 30
    assert len({id(t) for t in position_calls}) == 30
