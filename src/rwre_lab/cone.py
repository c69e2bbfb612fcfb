"""Lattice cone geometry and the fresh-maximum renewal scan.

Cone membership is exact: the interpolation weight is a rational p/q and each
half-space functional is cleared to an integer vector, so a site is in or out
of a cone with no floating point involved.  Renewal detection runs the
candidate recursion over fresh maxima of the projected path, confirming a
candidate when the path stays inside the shifted cone for a probationary
window; windows cut short by the end of the trajectory are flagged as
censored rather than silently confirmed.

Each face functional gets a sparse table of range minima, L levels of
N + 2^L int32 values (int64 when the faces can outgrow int32, and refused
when they or the levels could reach the int64 maximum),
L = min(H, N + 1).bit_length(), built in O(N L) time per face with two
levels held at a time (all L while exits are sought).  Two lookups in its
top level confirm or fail every candidate at once.  One rule,
``_first_exit``, says when the path first leaves the cone rooted at a failed
candidate, and the scan asks it only where such an exit could land on a
confirmed candidate; since the cone is closed under addition, no exit can
jump past one.  Each walk's positions, levels, fresh maxima and face table
are built once, and its record keeps the level facts the renewal mean
identity reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigError
from .lattice import integer_array, read_direction, read_float, read_integer, read_integers, read_rational
from .walk import Trajectory, simulate_ensemble


def _fraction_inverse(rows: list[list[int]], singular: str) -> list[list[Fraction]]:
    """Exact inverse of a small integer matrix via Gauss-Jordan over Q; ConfigError(``singular``) if it has none."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == k)) for k in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ConfigError(singular)
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
    face_norm: int = field(init=False, repr=False, compare=False)  # max_k ||row_k||_1 of ``matrix``

    def __post_init__(self):
        sigma = read_integers(self.sigma, "sigma")
        try:
            basis = tuple(read_integers(row, "basis") for row in self.basis)
        except TypeError:
            raise ConfigError(f"basis must be a list of integer vectors, got {self.basis!r}") from None
        d = len(sigma)
        if d == 0 or any(s not in (-1, 1) for s in sigma):
            raise ConfigError("sigma must be a nonempty tuple of +-1 signs")
        if len(basis) != d or any(len(row) != d for row in basis):
            raise ConfigError("basis must be d integer vectors of length d")
        l = read_direction(self.l, "l", d)
        lam = read_rational(self.lam, "lambda")
        if not 0 < lam <= 1:
            raise ConfigError("lambda must be a rational in (0, 1]")
        # the signed basis is singular exactly when the basis is
        dual = _fraction_inverse(
            [[sigma[k] * basis[k][i] for i in range(d)] for k in range(d)],
            "basis vectors must be linearly independent",
        )
        p, q = lam.numerator, lam.denominator
        rows = [
            [p * sigma[k] * basis[k][i] + (q - p) * l[i] for i in range(d)]
            for k in range(d)
        ]
        _fraction_inverse(rows, f"interpolated faces at lambda {lam} are linearly dependent; the cone is degenerate")
        if self.check_direction:
            for j in range(d):
                ray_dot = sum(Fraction(l[i]) * dual[i][j] for i in range(d))
                if ray_dot <= 0:
                    raise ConfigError(
                        "direction l is not strictly interior to the dual of the signed basis "
                        f"(extreme ray {j} has l.ray = {ray_dot})"
                    )
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "face_norm", max(sum(map(abs, row)) for row in rows))
        self.check_steps(1)  # a cone no step can use; its face rows may not fit int64
        mat = np.asarray(rows, dtype=np.int64)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return len(self.sigma)

    def check_steps(self, n_steps: int) -> None:
        """Refuse N steps when N * ||l||_1 (levels) or N * max_k ||row_k||_1 (faces) reaches the int64 maximum."""
        norm = max(self.face_norm, sum(map(abs, self.l)))
        if n_steps * norm >= np.iinfo(np.int64).max:
            raise ConfigError(f"walks of {n_steps} steps can reach levels or faces of {n_steps} * {norm}, past int64")

    def contains(self, apex, pts) -> np.ndarray:
        """Exact membership of each point (the last axis holds coordinates) in apex + cone, both read as integers."""
        a = np.asarray(read_integers(apex, "apex", self.dim), dtype=np.int64)
        x = integer_array(pts, "points")
        if x.shape[-1:] != (self.dim,):
            raise ConfigError(f"points must have {self.dim} coordinates along their last axis, got shape {x.shape}")
        return ((x - a) @ self.matrix.T >= 0).all(axis=-1)


def cone_contains(spec: ConeSpec, apex, x) -> bool:
    """Exact membership of x in apex + cone; all arithmetic is integer."""
    return bool(spec.contains(apex, np.asarray(read_integers(x, "x", spec.dim), dtype=np.int64)))


def _fresh(s: np.ndarray) -> np.ndarray:
    """The times n >= 1 with s[n] > max(s[:n]), in increasing order."""
    return np.flatnonzero(s[1:] > np.maximum.accumulate(s)[:-1]) + 1


def _level_facts(s: np.ndarray) -> tuple:
    """The step count N of levels s[0..N], the final level s[N], and the max and min of the last half s[(N+1)//2:]."""
    tail = s[s.shape[0] // 2 :]
    return s.shape[0] - 1, s[-1], tail.max(), tail.min()


@dataclass(eq=False)
class RenewalRecord:
    """Renewal times confirmed over a probationary window, and the walk's level facts.

    Each time is a strict fresh maximum in direction l, and the path stays in
    the cone rooted there for ``confirm_horizon`` further steps.  When the
    trajectory ends before the last candidate's window does, that candidate is
    kept as the final entry and ``censored_tail`` is set; it must be excluded
    from increment statistics.  ``hit_runs`` holds the levels X_n . l that
    fresh maxima took, as a (k, 2) array of the first and last level of each
    maximal run of consecutive ones (one run when every |l_i| <= 1, and the
    last run ends at the walk's top level), and ``stays`` says whether the
    path stays in the origin cone.  ``n_steps`` is N, ``final_level`` is
    X_N . l, and ``tail_max`` and ``tail_min`` bound the levels of the last
    half of the path (see ``_level_facts``); they decide the walk's transience
    class along l.  The defaults give the renewal mean identity no data: no
    level is reached and no walk is transient.

    ``detect_renewals`` stores ``times`` and ``positions`` in the dtype of
    ``_record_dtype(N)``: int32 when N < 2**31 - 1, since no time and no
    coordinate of an N-step walk passes N, and int64 otherwise.  A renewal run
    keeps these records, not the paths it read them from.
    """

    times: np.ndarray
    positions: np.ndarray
    confirm_horizon: int
    censored_tail: bool
    hit_runs: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    stays: bool = False
    n_steps: int = 0
    final_level: int = 0
    tail_max: int = 0
    tail_min: int = 0

    @property
    def n_confirmed(self) -> int:
        return self.times.shape[0] - (1 if self.censored_tail else 0)

    @property
    def confirmed_positions(self) -> np.ndarray:
        return self.positions[: self.n_confirmed]

    def to_json_obj(self) -> dict:
        return {
            "tau": self.times.tolist(),
            "positions": self.positions.tolist(),
            "H": int(self.confirm_horizon),
            "censored_tail": bool(self.censored_tail),
        }


def _record_dtype(bound: int) -> np.dtype:
    """The dtype of integers no larger than ``bound`` in size: int32 when bound < 2**31 - 1, else int64.

    No time and no coordinate of an N-step walk is larger than N in size, so
    ``_record_dtype(N)`` holds its renewal times and positions.
    """
    return np.dtype(np.int32 if bound < np.iinfo(np.int32).max else np.int64)


def _faces(P: np.ndarray, spec: ConeSpec) -> np.ndarray:
    """The face table F = P @ M.T of one walk's positions, int32 when it fits.

    After N steps every |F[n, k]| is at most N * ||row_k||_1, so the table is
    int32 when N * max_k ||row_k||_1 < 2**31 - 1, which leaves the int32
    maximum above every entry to pad with.  Otherwise it is int64, which
    ``ConeSpec.check_steps`` has made sure holds every entry below its maximum.
    """
    return (P @ spec.matrix.T).astype(_record_dtype((P.shape[0] - 1) * spec.face_norm), copy=False)


def _min_levels(F: np.ndarray, H: int):
    """Yield the levels of each face's sparse table of range minima: level j holds min(F[i : i + 2**j, k]) at [k, i].

    The levels are j = 0..L-1 with L = min(H, len(F)).bit_length().  They keep
    F's dtype (see ``_faces``: int32 when N * max_k ||row_k||_1 < 2**31 - 1)
    and are padded past the end of the path with that dtype's maximum, so no
    face falls there.  Each level is built from the one before it, so a caller
    that wants only the top level holds two at a time.
    """
    L = min(H, F.shape[0]).bit_length()
    pad = np.full((F.shape[1], (1 << L) - 1), np.iinfo(F.dtype).max, dtype=F.dtype)
    level = np.concatenate([F.T, pad], axis=1)
    yield level
    for j in range(1, L):
        half = 1 << (j - 1)
        level = np.minimum(level[:, :-half], level[:, half:])
        yield level


def _first_exit(F: np.ndarray, cands: np.ndarray, H: int) -> np.ndarray:
    """For each candidate c, the first m > c with F[m, k] < F[c, k] for some face k.

    When no such m is within c + H, the value returned is past c + H.  The
    table of ``_min_levels`` is descended greedily from its top level for all
    candidates at once.
    """
    table = list(_min_levels(F, H))
    base = F[cands].T
    pos = cands + 1
    for j in range(len(table) - 1, -1, -1):
        stays = (table[j].take(pos, axis=1) >= base).all(axis=0)
        pos += stays << j
    return pos


def _levels(traj: Trajectory, spec: ConeSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positions P, the levels P @ l and the fresh maxima of one walk."""
    if spec.dim != traj.dim:
        raise ConfigError("cone dimension does not match trajectory dimension")
    spec.check_steps(len(traj))
    P = traj.positions()
    s = P @ np.asarray(spec.l, dtype=np.int64)
    return P, s, _fresh(s)


def _scan(fresh: np.ndarray, F: np.ndarray, H: int) -> tuple[np.ndarray, bool]:
    """The recursion of ``detect_renewals`` on face table ``F``: kept candidates, and whether the last is censored.

    Candidate c is ok when no face falls below F[c] in (c, c + w],
    w = min(H, N + 1): the two top-level entries of ``_min_levels`` that cover
    the window say so for every candidate at once.  The recursion keeps every
    ok candidate it visits, and it visits every one but those a failed
    candidate's exit lands on.  A failed c' < c exits at some
    r' <= min(c' + w, N), and it cannot jump past an ok c, since X_c lies in
    X_c' + C and the cone is closed under addition: r' in (c, min(c + w, N)]
    would put X_r' in X_c + C, inside X_c' + C.  An exit lands on c only when
    the step into c lowers some face, so only those ok candidates ("suspects")
    need the recursion: it runs, with ``_first_exit``, over the failed
    candidates between a suspect and the ok candidate before it, after which
    it always resumes.  A window cut off by the end of the path ends it.
    """
    N = F.shape[0] - 1
    w = min(H, N + 1)  # a window reaching past the end of the path is cut off there
    for top in _min_levels(F, H):  # only the top level is kept
        pass
    span = 1 << (w.bit_length() - 1)  # the top level's window: span <= w < 2 * span
    base, below = (np.ascontiguousarray(F.take(t, axis=0).T) for t in (fresh, fresh - 1))  # faces at c and c - 1
    low = np.minimum(top.take(fresh + 1, axis=1), top.take(fresh + w + 1 - span, axis=1))
    ok = (low >= base).all(axis=0)
    suspect = ok & (base < below).any(axis=0)
    keep = ok.copy()
    if suspect.any():
        oks = np.flatnonzero(ok)
        before = np.cumsum(ok) - ok  # the ok candidates before each one
        chased = ~ok & np.append(suspect[oks], False)[before]  # failed, and the next ok candidate is a suspect
        succ = np.zeros_like(fresh)
        succ[chased] = np.searchsorted(fresh, _first_exit(F, fresh[chased], H), side="right")
        succ_l = succ.tolist()
        for c in np.flatnonzero(suspect).tolist():
            j = int(oks[before[c] - 1]) + 1 if before[c] else 0  # the recursion resumes after each ok candidate
            while j < c:
                j = succ_l[j]
            keep[c] = j == c
    kept = fresh[keep]
    cut = int(np.searchsorted(kept, N - w, side="right"))  # the first kept candidate whose window is cut off
    return kept[: cut + 1], cut < kept.size


def detect_renewals(traj: Trajectory, spec: ConeSpec, confirm_horizon: int) -> RenewalRecord:
    """Run the renewal recursion with windowed confirmation.

    Candidates are fresh maxima in direction l.  A candidate at time c is
    confirmed when the path stays in X_c + cone through min(c + H, N), that
    is when its first cone exit comes later.  After a confirmation the
    recursion goes on to the next fresh maximum (the shifted path's first
    positive level); on failure at exit time r it skips to the first time the
    level exceeds the running maximum up to r, which is the first fresh
    maximum after r.  ``_scan`` confirms every candidate at once from its
    window's range minima and follows the recursion only where an exit can
    land on a confirmed candidate.
    """
    H = read_integer(confirm_horizon, "confirm_horizon", 1)
    P, s, fresh = _levels(traj, spec)
    F = _faces(P, spec)
    times, censored = _scan(fresh, F, H)
    dtype = _record_dtype(len(traj))
    hit = s[fresh]  # increasing; a run of consecutive levels starts and ends where the step to its neighbour is not 1
    runs = np.stack([hit[np.diff(hit, prepend=hit[:1]) != 1], hit[np.diff(hit, append=hit[-1:]) != 1]], axis=1)
    facts = map(int, _level_facts(s))
    stays = bool((F >= 0).all())
    return RenewalRecord(times.astype(dtype), P[times].astype(dtype), H, censored, runs, stays, *facts)


@dataclass(frozen=True)
class LambdaScanRow:
    lam: Fraction
    rate_per_1k: float
    confirmed: int


@dataclass(eq=False)
class LambdaScanResult:
    """Outcome of scanning the interpolation weights.

    ``chosen`` is the largest weight whose confirmed-renewal rate clears the
    floor; None means no weight produced renewals at a usable rate,
    which is evidence against directional transience for this model, not an
    error.
    """

    chosen: Fraction | None
    rows: list[LambdaScanRow]

    @property
    def found(self) -> bool:
        return self.chosen is not None


DEFAULT_LAMBDA_GRID = (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))


def renewal_rate(confirmed: int, n_walks: int, horizon: int) -> float:
    """Confirmed renewals per walk per 1000 steps, pooled over the ensemble."""
    return 1000.0 * confirmed / max(1, n_walks * horizon)


def lambda_scan(
    model, master_seed: int, cones, n_walks: int, horizon: int, confirm_horizon: int, rate_floor: float
) -> LambdaScanResult:
    """Measure confirmed-renewal rates of ``cones``, which must differ only in their weight lambda.

    The rows run by decreasing lambda, one per distinct weight.  The rate is
    ``renewal_rate``.  One ensemble is simulated and reused for every cone;
    only the face table and the recursion are per cone.
    """
    rate_floor = read_float(rate_floor, "rate_floor", 0)
    H = read_integer(confirm_horizon, "confirm_horizon", 1)
    horizon = read_integer(horizon, "horizon", 0)
    cones = list(cones)
    if not cones:
        raise ConfigError("lambda_scan needs at least one cone")
    if len({(c.sigma, c.basis, c.l, c.check_direction) for c in cones}) > 1:
        raise ConfigError("the scanned cones must differ only in lambda")
    specs = sorted({c.lam: c for c in cones}.values(), key=lambda c: c.lam, reverse=True)
    for spec in specs:
        spec.check_steps(horizon)
    confirmed = [0] * len(specs)
    for t in simulate_ensemble(model, master_seed, n_walks, horizon):
        P, _, fresh = _levels(t, specs[0])
        for k, spec in enumerate(specs):
            times, censored = _scan(fresh, _faces(P, spec), H)
            confirmed[k] += times.size - censored
    rows = [LambdaScanRow(c.lam, renewal_rate(n, n_walks, horizon), n) for c, n in zip(specs, confirmed)]
    chosen = next((row.lam for row in rows if row.rate_per_1k > rate_floor), None)
    return LambdaScanResult(chosen, rows)
