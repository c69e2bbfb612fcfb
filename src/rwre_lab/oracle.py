"""Exact ground truth on finite regions.

Quenched exit probabilities solve the harmonic system h(x) = sum_e w(x,e)
h(x+e) with h pinned to 1 on the target boundary class and 0 on the others.
Small systems go through a dense direct solve, large ones through damped-free
Jacobi sweeps; both paths must agree to 1e-9, which is part of the test
contract, so solver choice is unobservable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .env import Dirichlet, EnvironmentModel, FiniteMixture, Homogeneous, PerturbedSRW, QuenchedEnvironment
from .errors import ConfigError, NumericError
from .lattice import check_site, step_table
from .rng import TAG_ENV, derive_key
from .stats import _normal_ci

DENSE_LIMIT = 2500
SWEEP_TOL = 1e-12
MAX_SWEEPS = 200_000
MAX_REGION_SITES = 200_000


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
        if self.sites.shape[0] > MAX_REGION_SITES:
            raise ConfigError(f"region exceeds {MAX_REGION_SITES} sites")
        self.start = tuple(int(c) for c in check_site(self.start, d))
        index = {tuple(int(c) for c in row): i for i, row in enumerate(self.sites)}
        if len(index) != self.sites.shape[0]:
            raise ConfigError("region sites must be unique")
        if self.start not in index:
            raise ConfigError("start site must lie inside the region")
        table = step_table(d)
        for site in index:
            for step in table:
                nb = tuple(int(c) for c in (np.asarray(site) + step))
                if nb not in index and nb not in self.boundary:
                    raise ConfigError(f"neighbor {nb} of interior site {site} is unlabeled")
        self._index = index

    @property
    def classes(self) -> set[str]:
        return set(self.boundary.values())


def _solve_system(problem: FiniteRegionProblem, targets: set[str], method: str) -> np.ndarray:
    env = problem.env
    sites = problem.sites
    m, d = sites.shape
    table = step_table(d)
    W = env.transitions_at(sites)
    nb_idx = np.full((m, 2 * d), -1, dtype=np.int64)
    b = np.zeros(m)
    for e in range(2 * d):
        nbs = sites + table[e]
        for i in range(m):
            key = tuple(int(c) for c in nbs[i])
            j = problem._index.get(key)
            if j is not None:
                nb_idx[i, e] = j
            elif problem.boundary[key] in targets:
                b[i] += W[i, e]
    if method == "dense" or (method == "auto" and m <= DENSE_LIMIT):
        A = np.eye(m)
        for e in range(2 * d):
            mask = nb_idx[:, e] >= 0
            rows = np.flatnonzero(mask)
            A[rows, nb_idx[rows, e]] -= W[rows, e]
        h = np.linalg.solve(A, b)
        return h
    # Jacobi sweeps; the absorbing structure guarantees geometric convergence
    Wint = np.where(nb_idx >= 0, W, 0.0)
    nb_clip = np.maximum(nb_idx, 0)
    h = b.copy()
    for sweep in range(MAX_SWEEPS):
        h_new = b + (Wint * h[nb_clip]).sum(axis=1)
        resid = float(np.max(np.abs(h_new - h)))
        h = h_new
        if resid < SWEEP_TOL:
            return h
    raise NumericError(f"exit solve did not reach residual {SWEEP_TOL}; last residual {resid:.3e}")


def exact_quenched_exit(
    problem: FiniteRegionProblem,
    target_class: str | set[str],
    method: str = "auto",
) -> float:
    """Probability the quenched walk leaves through the target class first."""
    targets = {target_class} if isinstance(target_class, str) else set(target_class)
    unknown = targets - problem.classes
    if unknown:
        raise ConfigError(f"unknown boundary classes {sorted(unknown)}")
    if method not in ("auto", "dense", "sweep"):
        raise ConfigError(f"unknown solver method {method!r}")
    h = _solve_system(problem, targets, method)
    return float(h[problem._index[problem.start]])


def exit_distribution(problem: FiniteRegionProblem, method: str = "auto") -> dict[str, float]:
    """Exit probability of every boundary class; values sum to 1 within 1e-9."""
    return {
        label: exact_quenched_exit(problem, label, method) for label in sorted(problem.classes)
    }


@dataclass(frozen=True)
class IntervalRegion:
    """1D interior lo < x < hi; exits are Left at lo and Right at hi."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.hi - self.lo < 2:
            raise ConfigError("interval must contain at least one interior site")

    def build(self, env: QuenchedEnvironment, start=(0,)) -> FiniteRegionProblem:
        if env.dim != 1:
            raise ConfigError("interval regions are one-dimensional")
        sites = np.arange(self.lo + 1, self.hi, dtype=np.int64)[:, None]
        boundary = {(int(self.lo),): "Left", (int(self.hi),): "Right"}
        return FiniteRegionProblem(sites, boundary, env, start)


@dataclass(frozen=True)
class BoxRegion:
    """Interior lo_k <= x_k <= hi_k; exits are labeled low{k} / high{k} per face."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def build(self, env: QuenchedEnvironment, start=None) -> FiniteRegionProblem:
        d = env.dim
        lo = np.asarray(self.lo, dtype=np.int64)
        hi = np.asarray(self.hi, dtype=np.int64)
        if lo.shape != (d,) or hi.shape != (d,) or np.any(hi < lo):
            raise ConfigError("box bounds must be d-vectors with hi >= lo")
        axes = [np.arange(lo[k], hi[k] + 1) for k in range(d)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        if grid.shape[0] > MAX_REGION_SITES:
            raise ConfigError("box region too large")
        table = step_table(d)
        boundary: dict[tuple[int, ...], str] = {}
        for row in grid:
            for e in range(2 * d):
                nb = row + table[e]
                k = e // 2
                if nb[k] < lo[k]:
                    boundary[tuple(int(c) for c in nb)] = f"low{k}"
                elif nb[k] > hi[k]:
                    boundary[tuple(int(c) for c in nb)] = f"high{k}"
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
        if self.b <= 0 or self.L <= 0:
            raise ConfigError("slab parameters b and L must be positive")
        if self.bound_width < 1:
            raise ConfigError("bound_width must be at least 1")

    def _inside(self, pts: np.ndarray) -> np.ndarray:
        lp = np.asarray(self.l_prime, dtype=np.float64)
        proj = pts @ lp
        box = (np.abs(pts) <= self.bound_width).all(axis=1)
        return (proj > -self.b * self.L) & (proj < self.L) & box

    def build(self, env: QuenchedEnvironment, start=None) -> FiniteRegionProblem:
        d = env.dim
        lp = np.asarray(self.l_prime, dtype=np.float64)
        if lp.shape != (d,):
            raise ConfigError("l_prime dimension mismatch")
        w = int(self.bound_width)
        axes = [np.arange(-w, w + 1)] * d
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        sites = grid[self._inside(grid)]
        if sites.shape[0] == 0:
            raise ConfigError("slab region contains no lattice sites")
        if sites.shape[0] > MAX_REGION_SITES:
            raise ConfigError("slab region too large")
        table = step_table(d)
        boundary: dict[tuple[int, ...], str] = {}
        site_set = {tuple(int(c) for c in row) for row in sites}
        for row in sites:
            for e in range(2 * d):
                nb = row + table[e]
                key = tuple(int(c) for c in nb)
                if key in site_set:
                    continue
                proj = float(nb @ lp)
                if proj >= self.L:
                    boundary[key] = "Right"
                elif proj <= -self.b * self.L:
                    boundary[key] = "Left"
                else:
                    boundary[key] = "Side"
        if start is None:
            start = (0,) * d
        return FiniteRegionProblem(sites, boundary, env, start)


RegionDescriptor = IntervalRegion | BoxRegion | SlabRegion


def gamblers_ruin(p: float, M: int, N_right: int) -> float:
    """Chance the homogeneous 1D walk hits +N_right before -M, starting at 0."""
    if not 0.0 < p < 1.0:
        raise ConfigError("p must lie strictly between 0 and 1")
    if M < 1 or N_right < 1:
        raise ConfigError("both barriers must be at least one step away")
    if p == 0.5:
        return M / (M + N_right)
    rho = (1.0 - p) / p
    return (1.0 - rho**M) / (1.0 - rho ** (M + N_right))


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
    if isinstance(model, (Homogeneous, PerturbedSRW)):
        atoms = [model.vector.probs]
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
    method: str = "auto",
) -> AnnealedExit:
    """Exact-in-omega, sampled-in-P estimate of the annealed exit probability."""
    if n_env < 1:
        raise ConfigError("n_env must be at least 1")
    vals = np.empty(n_env)
    for i in range(n_env):
        seed = int(derive_key(master_seed, TAG_ENV, i))
        problem = region.build(QuenchedEnvironment(model, seed), start)
        vals[i] = exact_quenched_exit(problem, target_class, method)
    mean = float(vals.mean())
    sd = float(vals.std(ddof=1)) if n_env > 1 else 0.0
    return AnnealedExit(mean, _normal_ci(mean, sd, n_env), n_env, sd)
