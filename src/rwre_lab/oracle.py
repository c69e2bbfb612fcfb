"""Exact ground truth on finite regions.

Quenched exit probabilities solve the harmonic system h(x) = sum_e w(x,e)
h(x+e) with h pinned to 1 on the target boundary class and 0 on the others,
that is (I - P_int) h = b.  With nearest-neighbour steps, grouping the sites
into layers by one coordinate makes I - P_int block-tridiagonal: a step along
that axis reaches the next layer, every other step stays in its layer.  The
solve eliminates whole layers from both ends toward the start site's layer,
one dense ``np.linalg.solve`` per layer, and then solves that layer.  I - P_int
is a nonsingular M-matrix and so are its Schur complements, so no pivoting
across layers is needed.  The layer axis is the one that minimises
sum_k n_k^3 over the layer sizes n_k, which is the cost of the solve; memory
is a few dense n_k x n_k blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .env import Dirichlet, EnvironmentModel, FiniteMixture, QuenchedEnvironment, constant_vector
from .errors import ConfigError, NumericError
from .lattice import check_site, read_float, read_integer, read_integers, step_table
from .rng import TAG_ENV, derive_key
from .stats import _mean_ci
from .walk import _check_slab, _slab_exits

MAX_REGION_SITES = 200_000
# The solve holds a few dense layer-by-layer blocks; at 2,048 sites each is 32 MB.
MAX_LAYER_SITES = 2048
# How far a solve may put h(start) outside [0, 1], or the exit through any class off 1, before it is refused.
SOLVE_TOL = 1e-9


@dataclass(eq=False)
class FiniteRegionProblem:
    """A finite set of interior sites with fully labeled exterior boundary."""

    sites: np.ndarray
    boundary: dict[tuple[int, ...], str]
    env: QuenchedEnvironment
    start: tuple[int, ...]

    def __post_init__(self):
        self.sites = np.atleast_2d(np.asarray(self.sites, dtype=np.int64))
        d = self.env.dim
        if self.sites.shape[1] != d:
            raise ConfigError("region sites do not match environment dimension")
        m = self.sites.shape[0]
        if m > MAX_REGION_SITES:
            raise ConfigError(f"region exceeds {MAX_REGION_SITES} sites")
        self.start = tuple(int(c) for c in check_site(self.start, d))
        if any(not isinstance(x, tuple) or len(x) != d for x in self.boundary):
            raise ConfigError("boundary sites do not match environment dimension")
        self._labels = sorted(set(self.boundary.values()))
        code = {label: i for i, label in enumerate(self._labels)}
        outside = np.array(list(self.boundary), dtype=np.int64).reshape(-1, d)
        # rows viewed as opaque bytes: sorted, searched and compared in memory linear in the rows
        key = np.dtype((np.void, 8 * d))
        rows = np.concatenate([self.sites, outside, [self.start]])
        known, ids = np.unique(rows.view(key).ravel(), return_inverse=True)
        site_of = np.full(known.size + 1, -1, dtype=np.int64)  # the extra slot maps index -1 to -1
        site_of[ids[:m]] = np.arange(m)
        if np.count_nonzero(site_of >= 0) != m:
            raise ConfigError("region sites must be unique")
        self._start = int(site_of[ids[-1]])
        if self._start < 0:
            raise ConfigError("start site must lie inside the region")
        class_of = np.full(known.size + 1, -1, dtype=np.int64)
        class_of[ids[m:-1]] = [code[v] for v in self.boundary.values()]
        nbs = (self.sites[:, None, :] + step_table(d)).reshape(-1, d)
        wanted = nbs.view(key).ravel()
        pos = np.searchsorted(known, wanted).clip(max=known.size - 1)
        pos[known[pos] != wanted] = -1
        # per (site, direction): the interior neighbour's index, else the exit class's code
        self._nb = site_of[pos].reshape(m, 2 * d)
        self._exit = np.where(self._nb < 0, class_of[pos].reshape(m, 2 * d), -1)
        unlabeled = np.flatnonzero((self._nb < 0) & (self._exit < 0))
        if unlabeled.size:
            nb, site = tuple(nbs[unlabeled[0]].tolist()), tuple(self.sites[unlabeled[0] // (2 * d)].tolist())
            raise ConfigError(f"neighbor {nb} of interior site {site} is unlabeled")

    @property
    def classes(self) -> set[str]:
        return set(self._labels)


def _exit_probabilities(problem: FiniteRegionProblem, targets: list[set[str]]) -> np.ndarray:
    """h(start) for each set of target classes, from one layer elimination.

    The elimination also solves for the exit through any class, whose exact
    answer is 1 at every site.  ``NumericError`` is raised when that answer
    at the start is off 1, or a returned h is outside [0, 1], by more than
    ``SOLVE_TOL``: the Schur pivots have then lost their accuracy.
    """
    sites = problem.sites
    m, d = sites.shape
    layers = [np.unique(sites[:, k], return_inverse=True, return_counts=True)[1:] for k in range(d)]
    a = min(range(d), key=lambda k: int((layers[k][1] ** 3).sum()))
    layer, counts = layers[a]
    if counts.max() > MAX_LAYER_SITES:
        raise ConfigError(f"region layers reach {counts.max()} sites; the solver takes at most {MAX_LAYER_SITES}")
    rows = np.split(np.argsort(layer, kind="stable"), np.cumsum(counts)[:-1])  # each layer's sites
    local = np.empty(m, dtype=np.int64)  # each site's position in its layer
    for r in rows:
        local[r] = np.arange(r.size)
    W = problem.env.transitions_at(sites)
    codes = [[problem._labels.index(t) for t in ts] for ts in targets]
    B = np.stack([(W * np.isin(problem._exit, c)).sum(axis=1) for c in codes], axis=1)
    exits = (W * (problem._exit >= 0)).sum(axis=1)  # the right-hand side of the exit through any class
    in_layer = np.array([e for e in range(2 * d) if e // 2 != a], dtype=np.intp)

    def block(k: int, j: int, dirs) -> np.ndarray:
        """Transition probabilities from layer k's sites to layer j's by the steps ``dirs``."""
        out = np.zeros((counts[k], counts[j]))
        nb = problem._nb[rows[k]][:, dirs]
        i, e = np.nonzero(nb >= 0)
        out[i, local[nb[i, e]]] = W[rows[k][i], dirs[e]]
        return out

    def own(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Layer k's diagonal block of I - P_int and its right-hand sides, of the targets and of any class."""
        return np.eye(counts[k]) - block(k, k, in_layer), B[rows[k]], exits[rows[k]]

    def fold(j: int, S: np.ndarray, c: np.ndarray, u: np.ndarray, k: int, Sk: np.ndarray, ck: np.ndarray, uk):
        """Eliminate layer j (Schur complement S, right sides c and u) into layer k; a gap leaves k as is."""
        step = np.array([2 * a if k > j else 2 * a + 1], dtype=np.intp)
        X = np.linalg.solve(S, np.hstack([block(j, k, step), c]))
        P = block(k, j, step ^ 1)
        # u gets a solve of its own: with one more column LAPACK would round the others differently
        return Sk - P @ X[:, : counts[k]], ck + P @ X[:, counts[k] :], uk + P @ np.linalg.solve(S, u)

    s = int(layer[problem._start])
    S, c, u = own(s)
    for path in (range(0, s), range(counts.size - 1, s, -1)):
        if path:
            Sj, cj, uj = own(path[0])
            for j, k in zip(path, path[1:]):
                Sj, cj, uj = fold(j, Sj, cj, uj, k, *own(k))
            S, c, u = fold(path[-1], Sj, cj, uj, s, S, c, u)
    i = local[problem._start]
    h, h_any = np.linalg.solve(S, c)[i], float(np.linalg.solve(S, u)[i])
    if not (abs(h_any - 1.0) <= SOLVE_TOL and np.all((-SOLVE_TOL <= h) & (h <= 1.0 + SOLVE_TOL))):
        raise NumericError(
            f"the exact solve failed its {SOLVE_TOL:g} self-check: at the start site "
            f"all classes sum to {h_any!r} and the targets read {h.tolist()}"
        )
    return h


def target_classes(classes: set[str], target_class: str | set[str]) -> set[str]:
    """The target class or classes as a set, once each is checked to be one of a region's boundary ``classes``."""
    targets = {target_class} if isinstance(target_class, str) else set(target_class)
    unknown = targets - classes
    if unknown:
        raise ConfigError(f"unknown boundary classes {sorted(unknown)}")
    return targets


def exact_quenched_exit(problem: FiniteRegionProblem, target_class: str | set[str]) -> float:
    """Probability the quenched walk leaves through the target class first."""
    return float(_exit_probabilities(problem, [target_classes(problem.classes, target_class)])[0])


def exit_distribution(problem: FiniteRegionProblem) -> dict[str, float]:
    """Exit probability of every boundary class; values sum to 1 within 1e-9."""
    labels = sorted(problem.classes)
    return dict(zip(labels, _exit_probabilities(problem, [{label} for label in labels]).tolist()))


@dataclass(frozen=True)
class IntervalRegion:
    """1D interior lo < x < hi; exits are Left at lo and Right at hi."""

    lo: int
    hi: int

    def __post_init__(self):
        object.__setattr__(self, "lo", read_integer(self.lo, "lo"))
        object.__setattr__(self, "hi", read_integer(self.hi, "hi"))
        if self.hi - self.lo < 2:
            raise ConfigError("interval must contain at least one interior site")

    def mc_slab(self) -> tuple[tuple[float, ...], float, float]:
        """The slab (l_prime, b, L) standing in for this region in Monte Carlo: faces half a step inside lo and hi."""
        L = self.hi - 0.5
        return (1.0,), (-self.lo - 0.5) / L, L

    def build(self, env: QuenchedEnvironment, start=(0,)) -> FiniteRegionProblem:
        if env.dim != 1:
            raise ConfigError("interval regions are one-dimensional")
        if self.hi - self.lo - 1 > MAX_REGION_SITES:
            raise ConfigError(f"interval has {self.hi - self.lo - 1} sites, more than {MAX_REGION_SITES}")
        sites = np.arange(self.lo + 1, self.hi, dtype=np.int64)[:, None]
        boundary = {(int(self.lo),): "Left", (int(self.hi),): "Right"}
        return FiniteRegionProblem(sites, boundary, env, start)


@dataclass(frozen=True)
class BoxRegion:
    """Interior lo_k <= x_k <= hi_k; exits are labeled low{k} / high{k} per face."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def mc_slab(self) -> None:
        """No slab stands in for a box in Monte Carlo."""
        return None

    def build(self, env: QuenchedEnvironment, start=None) -> FiniteRegionProblem:
        d = env.dim
        lo = np.asarray(read_integers(self.lo, "lo"), dtype=np.int64)
        hi = np.asarray(read_integers(self.hi, "hi"), dtype=np.int64)
        if lo.shape != (d,) or hi.shape != (d,) or np.any(hi < lo):
            raise ConfigError("box bounds must be d-vectors with hi >= lo")
        n_sites = math.prod(int(h) - int(l) + 1 for l, h in zip(lo, hi))
        if n_sites > MAX_REGION_SITES:
            raise ConfigError(f"box region has {n_sites} sites, more than {MAX_REGION_SITES}")
        axes = [np.arange(lo[k], hi[k] + 1) for k in range(d)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        table = step_table(d)
        boundary: dict[tuple[int, ...], str] = {}
        for k in range(d):
            for face, step, label in ((lo[k], table[2 * k + 1], f"low{k}"), (hi[k], table[2 * k], f"high{k}")):
                outside = grid[grid[:, k] == face] + step
                boundary.update(dict.fromkeys(map(tuple, outside.tolist()), label))
        if start is None:
            start = tuple(int(c) for c in (lo + hi) // 2)
        return FiniteRegionProblem(grid, boundary, env, start)


@dataclass(frozen=True)
class SlabRegion:
    """Open slab -bL < x.l' < L cut to |x_k| <= bound_width on every axis.

    Slabs are infinite transversally, so the bounding width is mandatory;
    exits through the artificial transverse faces are labeled Side.
    """

    l_prime: tuple[float, ...]
    b: float
    L: float
    bound_width: int

    def __post_init__(self):
        _, b, L = _check_slab(self.l_prime, self.b, self.L)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "bound_width", read_integer(self.bound_width, "bound_width", 1))

    def mc_slab(self) -> tuple[tuple[float, ...], float, float]:
        """The slab (l_prime, b, L) standing in for this region in Monte Carlo: itself."""
        return self.l_prime, self.b, self.L

    def build(self, env: QuenchedEnvironment, start=None) -> FiniteRegionProblem:
        d = env.dim
        lp, _, _ = _check_slab(self.l_prime, self.b, self.L, d)
        w = self.bound_width
        # the slab's sites can only be counted on the grid, so the grid's size is what is bounded
        if (2 * w + 1) ** d > MAX_REGION_SITES:
            raise ConfigError(f"slab bounding box exceeds {MAX_REGION_SITES} sites; lower bound_width")
        axes = [np.arange(-w, w + 1)] * d
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        sites = grid[~np.logical_or(*_slab_exits(grid @ lp, self.b, self.L))]
        if sites.shape[0] == 0:
            raise ConfigError("slab region contains no lattice sites")
        # the neighbours of the sites that are not sites: past a face, or off the box (Side)
        near = (sites[:, None, :] + step_table(d)).reshape(-1, d)
        right, left = _slab_exits(near @ lp, self.b, self.L)
        out = right | left | (np.abs(near) > w).any(axis=1)
        labels = np.where(right[out], "Right", np.where(left[out], "Left", "Side"))
        boundary = dict(zip(map(tuple, near[out].tolist()), labels.tolist()))
        if start is None:
            start = (0,) * d
        return FiniteRegionProblem(sites, boundary, env, start)


RegionDescriptor = IntervalRegion | BoxRegion | SlabRegion


def gamblers_ruin(p: float, M: int, N_right: int) -> float:
    """Chance the homogeneous 1D walk hits +N_right before -M, starting at 0."""
    p = read_float(p, "p")
    if not 0.0 < p < 1.0:
        raise ConfigError("p must lie strictly between 0 and 1")
    M, N_right = read_integer(M, "M", 1), read_integer(N_right, "N_right", 1)
    if p == 0.5:
        return M / (M + N_right)
    rho = (1.0 - p) / p
    try:
        return (1.0 - rho**M) / (1.0 - rho ** (M + N_right))
    except OverflowError:  # rho > 1: the same ratio in powers of 1 / rho, which cannot overflow
        r = 1.0 / rho
        return r**N_right * (1.0 - r**M) / (1.0 - r ** (M + N_right))


class SolomonVerdict(Enum):
    TRANSIENT_PLUS = "transient+"
    TRANSIENT_MINUS = "transient-"
    RECURRENT = "recurrent"


@dataclass(frozen=True)
class SolomonResult:
    verdict: SolomonVerdict
    speed: float
    e_rho: float
    e_rho_inv: float
    e_log_rho: float


def solomon_1d(model: EnvironmentModel) -> SolomonResult:
    """Exact 1D transience criterion and asymptotic speed.

    Only models whose ratio moments have closed forms are accepted; Dirichlet
    would require numerical integration, which this oracle refuses on
    principle.  The speed is signed: negative for leftward transience.
    """
    if isinstance(model, Dirichlet):
        raise ConfigError("Dirichlet environments have no closed-form ratio moments here")
    if model.dim != 1:
        raise ConfigError("this criterion is one-dimensional")
    vec = constant_vector(model)
    if vec is not None:
        atoms = [vec.probs]
        weights = [1.0]
    elif isinstance(model, FiniteMixture):
        atoms = [a.probs for a in model.atoms]
        weights = list(model.weights)
    else:
        raise ConfigError(f"unsupported model {type(model).__name__}")
    rhos = [a[1] / a[0] for a in atoms]
    e_log = sum(w * math.log(r) for w, r in zip(weights, rhos))
    e_rho = sum(w * r for w, r in zip(weights, rhos))
    e_inv = sum(w / r for w, r in zip(weights, rhos))
    if abs(e_log) < 1e-15:
        return SolomonResult(SolomonVerdict.RECURRENT, 0.0, e_rho, e_inv, e_log)
    if e_log < 0:
        speed = (1.0 - e_rho) / (1.0 + e_rho) if e_rho < 1.0 else 0.0
        return SolomonResult(SolomonVerdict.TRANSIENT_PLUS, speed, e_rho, e_inv, e_log)
    speed = -(1.0 - e_inv) / (1.0 + e_inv) if e_inv < 1.0 else 0.0
    return SolomonResult(SolomonVerdict.TRANSIENT_MINUS, speed, e_rho, e_inv, e_log)


@dataclass(frozen=True)
class AnnealedExit:
    mean: float
    ci: tuple[float, float]
    n_env: int
    sd: float


def annealed_exit(
    model: EnvironmentModel,
    region: RegionDescriptor,
    start,
    target_class: str | set[str],
    n_env: int,
    master_seed: int,
) -> AnnealedExit:
    """Exact-in-omega, sampled-in-P estimate of the annealed exit probability."""
    n_env = read_integer(n_env, "n_env", 1)
    envs = [QuenchedEnvironment(model, int(derive_key(master_seed, TAG_ENV, i))) for i in range(n_env)]
    problem = region.build(envs[0], start)  # built once: the geometry reads only the environment's dimension
    vals = np.empty(n_env)
    for i, env in enumerate(envs):
        problem.env = env
        vals[i] = exact_quenched_exit(problem, target_class)
    mean, sd, ci = _mean_ci(vals)
    return AnnealedExit(mean, ci, n_env, sd)
