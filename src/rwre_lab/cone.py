"""Lattice cone geometry and the fresh-maximum renewal scan.

Cone membership is exact: the interpolation weight is a rational p/q and each
half-space functional is cleared to an integer vector, so a site is in or out
of a cone with no floating point involved.  Renewal detection runs the
candidate recursion over fresh maxima of the projected path, confirming a
candidate when the path stays inside the shifted cone for a probationary
window; windows cut short by the end of the trajectory are flagged as
censored rather than silently confirmed.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigError
from .walk import Trajectory, simulate_ensemble


def _int_det(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    det = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        det += (-1) ** j * rows[0][j] * _int_det(minor)
    return det


def _fraction_inverse(rows: list[list[int]]) -> list[list[Fraction]]:
    """Exact inverse of a small integer matrix via Gauss-Jordan over Q."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == k)) for k in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ConfigError("matrix is singular")
        a[col], a[piv] = a[piv], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


@dataclass(frozen=True, eq=False)
class ConeSpec:
    """A non-degenerate lattice cone built from signs, a basis, and a direction.

    The k-th face functional is p*sigma_k*l_k + (q - p)*l where lambda = p/q,
    stored as an integer row of ``matrix``; a point x lies in the cone rooted
    at ``apex`` iff matrix @ (x - apex) >= 0 componentwise.  With lambda = 1
    the cone degenerates to the orthant cut out by the signed basis alone.

    ``check_direction`` additionally requires the direction l to make a
    strictly positive angle with every extreme ray of the signed-basis cone
    (computed exactly from the dual basis).  The renewal estimators assume
    this; it is optional only so degenerate geometries remain constructible
    for diagnostics.
    """

    sigma: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    lam: Fraction
    l: tuple[int, ...]
    check_direction: bool = True
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sigma = tuple(int(s) for s in self.sigma)
        basis = tuple(tuple(int(x) for x in row) for row in self.basis)
        l = tuple(int(x) for x in self.l)
        lam = Fraction(self.lam)
        d = len(sigma)
        if d == 0 or any(s not in (-1, 1) for s in sigma):
            raise ConfigError("sigma must be a nonempty tuple of +-1 signs")
        if len(basis) != d or any(len(row) != d for row in basis):
            raise ConfigError("basis must be d integer vectors of length d")
        if len(l) != d or all(x == 0 for x in l):
            raise ConfigError("l must be a nonzero integer vector of length d")
        if math.gcd(*[abs(x) for x in l]) != 1:
            raise ConfigError("the coordinates of l must have gcd 1")
        if not 0 < lam <= 1:
            raise ConfigError("lambda must be a rational in (0, 1]")
        if _int_det([list(r) for r in basis]) == 0:
            raise ConfigError("basis vectors must be linearly independent")
        p, q = lam.numerator, lam.denominator
        rows = [
            [p * sigma[k] * basis[k][i] + (q - p) * l[i] for i in range(d)]
            for k in range(d)
        ]
        if _int_det(rows) == 0:
            raise ConfigError("interpolated face vectors are linearly dependent; the cone is degenerate")
        if self.check_direction:
            signed = [[sigma[k] * basis[k][i] for i in range(d)] for k in range(d)]
            dual = _fraction_inverse(signed)
            for j in range(d):
                ray_dot = sum(Fraction(l[i]) * dual[i][j] for i in range(d))
                if ray_dot <= 0:
                    raise ConfigError(
                        "direction l is not strictly interior to the dual of the signed basis "
                        f"(extreme ray {j} has l.ray = {ray_dot})"
                    )
        mat = np.asarray(rows, dtype=np.int64)
        mat.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return len(self.sigma)

    def extreme_rays(self) -> list[tuple[int, ...]]:
        """Integer extreme rays of the signed-basis cone (lambda = 1 geometry)."""
        d = self.dim
        signed = [[self.sigma[k] * self.basis[k][i] for i in range(d)] for k in range(d)]
        dual = _fraction_inverse(signed)
        rays = []
        for j in range(d):
            col = [dual[i][j] for i in range(d)]
            scale = math.lcm(*[f.denominator for f in col])
            ray = [int(f * scale) for f in col]
            g = math.gcd(*[abs(x) for x in ray]) or 1
            rays.append(tuple(x // g for x in ray))
        return rays


def cone_contains(spec: ConeSpec, apex, x) -> bool:
    """Exact membership of x in apex + cone; all arithmetic is integer."""
    a = np.asarray(apex, dtype=np.int64)
    pt = np.asarray(x, dtype=np.int64)
    if a.shape != (spec.dim,) or pt.shape != (spec.dim,):
        raise ConfigError("apex and x must match the cone dimension")
    return bool((spec.matrix @ (pt - a) >= 0).all())


def fresh_maxima(traj: Trajectory, l) -> np.ndarray:
    """Times n with X_n . l strictly above every earlier value (and above 0)."""
    lv = np.asarray(l, dtype=np.int64)
    if lv.ndim != 1 or not lv.any():
        raise ConfigError("direction l must be a nonzero integer vector")
    if math.gcd(*[abs(int(x)) for x in lv]) != 1:
        raise ConfigError("the coordinates of l must have gcd 1")
    s = traj.positions() @ lv
    run = np.maximum.accumulate(s)
    return np.flatnonzero(s[1:] > run[:-1]) + 1


@dataclass(eq=False)
class RenewalRecord:
    """Renewal times confirmed over a probationary window.

    Each time is a strict fresh maximum in direction l, and the path stays in
    the cone rooted there for ``confirm_horizon`` further steps.  When the
    trajectory ends before the last candidate's window does, that candidate is
    kept as the final entry and ``censored_tail`` is set; it must be excluded
    from increment statistics.
    """

    times: np.ndarray
    positions: np.ndarray
    confirm_horizon: int
    censored_tail: bool

    @property
    def n_confirmed(self) -> int:
        return self.times.shape[0] - (1 if self.censored_tail else 0)

    @property
    def confirmed_times(self) -> np.ndarray:
        return self.times[: self.n_confirmed]

    @property
    def confirmed_positions(self) -> np.ndarray:
        return self.positions[: self.n_confirmed]

    def increments(self) -> np.ndarray:
        """Position differences between consecutive confirmed renewals."""
        pos = self.confirmed_positions
        if pos.shape[0] < 2:
            return np.zeros((0, self.positions.shape[1]), dtype=np.int64)
        return np.diff(pos, axis=0)

    def to_json_obj(self) -> dict:
        return {
            "tau": [int(t) for t in self.times],
            "positions": [[int(c) for c in p] for p in self.positions],
            "H": int(self.confirm_horizon),
            "censored_tail": bool(self.censored_tail),
        }


def _trailing_window_min(a: np.ndarray, w: int) -> np.ndarray:
    """out[i] = min(a[i+1 : i+1+w]), padding past the end with +inf."""
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


def _first_cone_exit(F: np.ndarray, c: int, hi: int, start: int | None = None) -> int:
    """First m in (c, hi] with some face value below its value at c."""
    base = F[c]
    m = c + 1 if start is None else start
    blk = 64
    while m <= hi:
        end = min(m + blk, hi + 1)
        viol = (F[m:end] < base).any(axis=1)
        w = np.flatnonzero(viol)
        if w.size:
            return m + int(w[0])
        m = end
        blk = min(blk * 4, 1 << 20)
    raise AssertionError("caller guaranteed an exit inside the window")


_NEAR_EXIT_RANGE = 16


def _near_exit_offsets(F: np.ndarray) -> np.ndarray:
    """off[c] = least j <= 16 with an exit of the c-rooted cone at c + j, else 0.

    Most failed renewal candidates exit within a step or two, so this table
    turns the common case of the recursion's exit search into a lookup.
    """
    n = F.shape[0]
    off = np.zeros(n, dtype=np.int64)
    cols = [np.ascontiguousarray(F[:, k]) for k in range(F.shape[1])]
    for j in range(min(_NEAR_EXIT_RANGE, n - 1), 0, -1):
        mask = cols[0][j:] < cols[0][:-j]
        for col in cols[1:]:
            mask |= col[j:] < col[:-j]
        off[: n - j][mask] = j
    return off


def detect_renewals(traj: Trajectory, spec: ConeSpec, confirm_horizon: int) -> RenewalRecord:
    """Run the renewal recursion with windowed confirmation.

    Candidates are fresh maxima in direction l.  A candidate at time c is
    confirmed when the path stays in X_c + cone through min(c + H, N); on
    failure at exit time r the recursion skips to the first time the level
    exceeds the running maximum up to r, and after a confirmation it restarts
    from the next fresh maximum (the shifted path's first positive level).
    """
    if confirm_horizon < 1:
        raise ConfigError("confirm_horizon must be at least 1")
    if spec.dim != traj.dim:
        raise ConfigError("cone dimension does not match trajectory dimension")
    H = int(confirm_horizon)
    P = traj.positions()
    N = len(traj)
    s = P @ np.asarray(spec.l, dtype=np.int64)
    F = P @ spec.matrix.T
    runmax = np.maximum.accumulate(s)
    fresh = np.flatnonzero(s[1:] > runmax[:-1]) + 1
    d_cols = F.shape[1]
    empty = RenewalRecord(
        np.zeros(0, dtype=np.int64), np.zeros((0, traj.dim), dtype=np.int64), H, False
    )
    if fresh.size == 0:
        return empty
    Ff = F.astype(np.float64)
    wm = np.stack([_trailing_window_min(Ff[:, k], H) for k in range(d_cols)], axis=1)
    ok = (wm[fresh] >= Ff[fresh]).all(axis=1)
    nf = fresh.size
    # next_bad[j] = first index >= j whose candidate fails, else nf
    tmp = np.where(~ok, np.arange(nf), nf)
    next_bad = np.minimum.accumulate(tmp[::-1])[::-1]
    cens_start = int(np.searchsorted(fresh, N - H, side="right"))
    near_exit = _near_exit_offsets(F).tolist()
    ok_l = ok.tolist()
    next_bad_l = next_bad.tolist()
    fresh_l = fresh.tolist()
    fresh_lv_l = (s[fresh]).tolist()
    runmax_l = runmax.tolist()
    pieces: list[np.ndarray] = []
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
            if off:
                r = c + off
            else:
                r = _first_cone_exit(F, c, min(c + H, N), start=c + _NEAR_EXIT_RANGE + 1)
            j = bisect_right(fresh_lv_l, runmax_l[r])
    if not pieces:
        return empty
    t_arr = np.concatenate(pieces)
    return RenewalRecord(t_arr, P[t_arr], H, censored)


@dataclass(frozen=True)
class LambdaScanRow:
    lam: Fraction
    rate_per_1k: float
    confirmed: int


@dataclass(eq=False)
class LambdaScanResult:
    """Outcome of scanning the interpolation weight grid.

    ``chosen`` is the largest grid value whose confirmed-renewal rate clears
    the floor; None means no grid value produced renewals at a usable rate,
    which is evidence against directional transience for this model, not an
    error.
    """

    chosen: Fraction | None
    rows: list[LambdaScanRow]
    rate_floor: float
    n_walks: int
    horizon: int

    @property
    def found(self) -> bool:
        return self.chosen is not None


DEFAULT_LAMBDA_GRID = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))


def lambda_scan(
    model,
    master_seed: int,
    sigma,
    basis,
    l,
    lambdas=DEFAULT_LAMBDA_GRID,
    n_walks: int = 200,
    horizon: int = 4000,
    confirm_horizon: int = 400,
    rate_floor: float = 0.5,
    check_direction: bool = True,
    trajs: list[Trajectory] | None = None,
) -> LambdaScanResult:
    """Measure confirmed-renewal rates over a grid of interpolation weights.

    The rate is confirmed renewals per walk per 1000 steps, pooled over the
    ensemble.  One ensemble is simulated and reused for every grid value; a
    pre-simulated ensemble can be passed in through ``trajs``.
    """
    grid = sorted({Fraction(x) for x in lambdas}, reverse=True)
    if not grid:
        raise ConfigError("lambda grid must be nonempty")
    if trajs is None:
        trajs = simulate_ensemble(model, master_seed, n_walks, horizon)
    else:
        n_walks = len(trajs)
        horizon = len(trajs[0]) if trajs else horizon
    rows = []
    chosen = None
    total_steps = max(1, n_walks * horizon)
    for lam in grid:
        spec = ConeSpec(tuple(sigma), tuple(tuple(r) for r in basis), lam, tuple(l), check_direction)
        confirmed = sum(detect_renewals(t, spec, confirm_horizon).n_confirmed for t in trajs)
        rate = 1000.0 * confirmed / total_steps
        rows.append(LambdaScanRow(lam, rate, confirmed))
        if chosen is None and rate > rate_floor:
            chosen = lam
    return LambdaScanResult(chosen, rows, rate_floor, n_walks, horizon)
