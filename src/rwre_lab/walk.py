"""Quenched trajectory simulation and path stopping times.

An ensemble's walkers advance in lockstep as one numpy block.  The step taken
by walker ``i`` at time ``t`` depends only on (master seed, i, t) and on the
environment at the current site, which (master seed, i) also fixes, so
walker ``i``'s path depends only on (master seed, i): no other walker, and no
grouping of walkers, can change it.  One step kernel, ``_step``, serves both
the full-path and the slab-exit simulations.  Stopping times on finite paths
return an explicit not-by-horizon marker instead of a large sentinel;
downstream estimators must treat that as censoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .env import EnvironmentModel, QuenchedEnvironment, _step_index, constant_vector, transitions_for
from .errors import ConfigError
from .lattice import check_dim, decode_signed_axis, signed_axis_table, step_table
from .rng import TAG_ENV, TAG_STEP, TAG_WALKER, as_u64, derive_key, stream_u01


@dataclass(eq=False)
class Trajectory:
    """A finite lattice path started at the origin.

    ``steps`` holds direction indices (see lattice.py); positions are
    reconstructed exactly in integer arithmetic.
    """

    steps: np.ndarray
    dim: int
    walker_seed: int
    env_seed: int | None = None

    def __post_init__(self):
        check_dim(self.dim)
        self.steps = np.asarray(self.steps, dtype=np.int8)
        self.steps.setflags(write=False)

    def __len__(self) -> int:
        return self.steps.shape[0]

    def positions(self) -> np.ndarray:
        """(N+1, d) int64 positions X_0 = 0, ..., X_N."""
        out = np.zeros((len(self) + 1, self.dim), dtype=np.int64)
        if len(self):
            np.cumsum(step_table(self.dim)[self.steps], axis=0, out=out[1:])
        return out

    def final_position(self) -> np.ndarray:
        """X_N from the step counts, without building the path."""
        return step_counts(self) @ step_table(self.dim)

    def to_json_obj(self) -> dict:
        return {
            "walker_seed": int(self.walker_seed),
            "dim": int(self.dim),
            "steps": signed_axis_table(self.dim)[self.steps].tolist(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Trajectory":
        for key in ("dim", "walker_seed"):  # bools, floats and strings are refused, not rounded
            if isinstance(obj[key], bool) or not isinstance(obj[key], (int, np.integer)):
                raise ConfigError(f"{key} {obj[key]!r} is not an integer")
        d = check_dim(int(obj["dim"]))
        steps = [decode_signed_axis(s, d) for s in obj["steps"]]
        return cls(np.asarray(steps, dtype=np.int8), d, int(obj["walker_seed"]))


@dataclass(frozen=True)
class StopResult:
    """Outcome of a stopping time on a finite path: hit at ``time`` or censored."""

    time: int | None

    @property
    def hit(self) -> bool:
        return self.time is not None

    @classmethod
    def at(cls, time: int) -> "StopResult":
        return cls(int(time))

    @classmethod
    def not_by_horizon(cls) -> "StopResult":
        return cls(None)

    @classmethod
    def first(cls, mask: np.ndarray) -> "StopResult":
        """The first index where ``mask`` holds, else not-by-horizon."""
        return cls.at(np.argmax(mask)) if mask.any() else cls.not_by_horizon()


class Side(Enum):
    RIGHT = "right"
    LEFT = "left"


@dataclass(frozen=True)
class SlabExit:
    side: Side | None
    time: int | None


def _check_l(l) -> np.ndarray:
    arr = np.asarray(l)
    if arr.ndim != 1 or not np.any(arr != 0) or not np.all(np.isfinite(arr)):
        raise ConfigError("direction l must be a finite nonzero vector")
    return arr


def _check_slab(l_prime, b: float, L: float, d: int | None = None) -> np.ndarray:
    """l_prime as a float vector, once it is checked finite and nonzero with ``d`` entries.

    b and L must be positive and finite.
    """
    lp = _check_l(np.asarray(l_prime, dtype=np.float64))
    if d is not None and lp.shape != (d,):
        raise ConfigError("l_prime dimension mismatch")
    if not (0 < b < np.inf and 0 < L < np.inf):  # NaN fails too: no walker reaches a NaN or infinite face
        raise ConfigError("slab parameters b and L must be positive and finite")
    return lp


def _slab_exits(proj: np.ndarray, b: float, L: float) -> tuple[np.ndarray, np.ndarray]:
    """(right, left) exit masks of projections onto l'; boundary sites count as exits."""
    return proj >= L, proj <= -b * L


def walker_seed_for(master_seed: int, walker_id: int) -> int:
    return int(derive_key(master_seed, TAG_WALKER, walker_id))


def env_seed_for(master_seed: int, walker_id: int) -> int:
    return int(derive_key(master_seed, TAG_ENV, walker_id))


def _step(
    model: EnvironmentModel,
    step_keys: np.ndarray,
    env_keys: np.ndarray,
    pos: np.ndarray,
    t: int,
) -> np.ndarray:
    """Lockstep kernel: every walker takes its step ``t``; ``pos`` moves in place.

    Returns the direction indices taken.  A law every site shares is one (2d,)
    vector for all walkers; otherwise each walker's law is read from the
    environment at ``pos``.
    """
    vec = constant_vector(model)
    law = transitions_for(model, env_keys, pos) if vec is None else vec.probs
    j = _step_index(law, stream_u01(step_keys, t))
    pos += np.take(step_table(model.dim), j, axis=0)
    return j


def _simulate_block(
    model: EnvironmentModel,
    env_seeds: np.ndarray,
    walker_seeds: np.ndarray,
    horizon: int,
) -> np.ndarray:
    """The (n, horizon) int8 matrix of direction indices of n walkers."""
    step_keys = derive_key(walker_seeds, TAG_STEP)
    pos = np.zeros((walker_seeds.shape[0], model.dim), dtype=np.int64)
    steps = np.empty((walker_seeds.shape[0], horizon), dtype=np.int8)
    for t in range(horizon):
        steps[:, t] = _step(model, step_keys, env_seeds, pos, t)
    return steps


def simulate(env: QuenchedEnvironment, walker_seed: int, horizon: int) -> Trajectory:
    """One quenched trajectory of ``horizon`` steps.

    Deterministic given (env, walker_seed, horizon); a longer horizon extends
    the path without rewriting its prefix.
    """
    if horizon < 0:
        raise ConfigError("horizon must be nonnegative")
    steps = _simulate_block(
        env.model,
        np.atleast_1d(as_u64(env.master_seed)),
        np.atleast_1d(as_u64(walker_seed)),
        horizon,
    )
    return Trajectory(steps[0], env.dim, int(walker_seed), env_seed=env.master_seed)


def ensemble_seeds(master_seed: int, n_walks: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-walker (environment seed, walker seed) arrays, derived from the master."""
    ids = np.arange(n_walks, dtype=np.int64)
    return derive_key(master_seed, TAG_ENV, ids), derive_key(master_seed, TAG_WALKER, ids)


def simulate_ensemble(
    model: EnvironmentModel,
    master_seed: int,
    n_walks: int,
    horizon: int,
) -> list[Trajectory]:
    """Annealed ensemble: walker ``i`` gets its own environment and walk stream.

    Both streams derive from (master_seed, i), so the ensemble is reproducible
    walker by walker.
    """
    if horizon < 0 or n_walks < 0:
        raise ConfigError("n_walks and horizon must be nonnegative")
    env_seeds, walk_seeds = ensemble_seeds(master_seed, n_walks)
    block = _simulate_block(model, env_seeds, walk_seeds, horizon)
    return [
        Trajectory(block[i], model.dim, int(walk_seeds[i]), env_seed=int(env_seeds[i]))
        for i in range(n_walks)
    ]


def first_passage(traj: Trajectory, l, s: float) -> StopResult:
    """Least n with X_n . l > s (strict), else not-by-horizon."""
    return StopResult.first(traj.positions() @ _check_l(l) > s)


def backtrack_time(traj: Trajectory, l) -> StopResult:
    """Least n >= 1 with X_n . l < X_0 . l, else not-by-horizon."""
    lv = traj.positions() @ _check_l(l)
    return StopResult.first(lv < lv[0])


def region_exit_time(traj: Trajectory, region: Callable[[np.ndarray], np.ndarray]) -> StopResult:
    """Least n with X_n outside the region, else not-by-horizon.

    ``region`` is a vectorized membership predicate: it receives an (m, d)
    int array of sites and returns a boolean mask of the same length.
    """
    pos = traj.positions()
    inside = np.asarray(region(pos), dtype=bool)
    if inside.shape != (pos.shape[0],):
        raise ConfigError("region predicate must return one boolean per site")
    if not inside[0]:
        raise ValueError("region must contain the starting site")
    return StopResult.first(~inside)


def slab_region(l_prime, b: float, L: float) -> Callable[[np.ndarray], np.ndarray]:
    """Open slab {x : -bL < x . l' < L}."""
    lp = _check_slab(l_prime, b, L)
    return lambda pts: ~np.logical_or(*_slab_exits(pts @ lp, b, L))


def shifted_cone_region(spec, apex) -> Callable[[np.ndarray], np.ndarray]:
    """Region apex + cone, exact integer arithmetic via the cone's matrix."""
    return lambda pts: spec.contains(apex, pts)


def slab_exit_side(traj: Trajectory, l_prime, b: float, L: float) -> SlabExit:
    """Which side of the slab the path exits first; boundary sites count as exits."""
    right, left = _slab_exits(traj.positions() @ _check_slab(l_prime, b, L, traj.dim), b, L)
    t = StopResult.first(right | left).time
    if t is None:
        return SlabExit(None, None)
    return SlabExit(Side.RIGHT if right[t] else Side.LEFT, t)


@dataclass(frozen=True)
class SlabTally:
    """Exit-side counts for a slab ensemble; censored walks never exited."""

    n_right: int
    n_left: int
    n_walks: int

    @property
    def n_exits(self) -> int:
        return self.n_right + self.n_left

    @property
    def n_censored(self) -> int:
        return self.n_walks - self.n_exits

    @property
    def p_right(self) -> float:
        return self.n_right / self.n_exits if self.n_exits else float("nan")

    @property
    def p_left(self) -> float:
        return self.n_left / self.n_exits if self.n_exits else float("nan")


def _slab_block(
    model: EnvironmentModel,
    env_seeds: np.ndarray,
    walker_seeds: np.ndarray,
    l_prime: np.ndarray,
    b: float,
    Ls: Sequence[float],
    horizon: int,
) -> np.ndarray:
    """(right exits, left exits) of n walkers at each increasing width, one row per width.

    The slabs are nested, so walker i keeps k_i, the narrowest slab it has not
    left: it has left slabs 0 to k_i - 1 and is inside every slab from k_i on.
    An exit is tallied at k_i and moves it up; one step can cross several faces.
    """
    widths = np.asarray(Ls, dtype=np.float64)
    step_keys = derive_key(walker_seeds, TAG_STEP)
    pos = np.zeros((walker_seeds.shape[0], model.dim), dtype=np.int64)
    k = np.zeros(walker_seeds.shape[0], dtype=np.intp)
    tally = np.zeros((widths.shape[0], 2), dtype=np.int64)
    for t in range(horizon):
        if step_keys.shape[0] == 0:
            break
        _step(model, step_keys, env_seeds, pos, t)
        proj = pos @ l_prime
        right, left = _slab_exits(proj, b, widths[k])
        while right.any() or left.any():
            tally[:, 0] += np.bincount(k[right], minlength=widths.shape[0])
            tally[:, 1] += np.bincount(k[left], minlength=widths.shape[0])
            k += right | left
            keep = k < widths.shape[0]
            if not keep.all():
                pos, proj, k, step_keys, env_seeds = (a[keep] for a in (pos, proj, k, step_keys, env_seeds))
            right, left = _slab_exits(proj, b, widths[k])
    return tally


def run_slab_ensemble(
    model: EnvironmentModel,
    master_seed: int,
    n_walks: int,
    l_prime,
    b: float,
    L: float | Sequence[float],
    horizon: int,
) -> SlabTally | list[SlabTally]:
    """Annealed slab-exit tally with early stopping per walker.

    ``L`` is one width, giving one tally, or a strictly increasing sequence of
    widths, giving one tally per width from a single pass over the walkers.
    """
    if n_walks < 0 or horizon < 0:
        raise ConfigError("n_walks and horizon must be nonnegative")
    single = np.ndim(L) == 0
    Ls = [L] if single else list(L)
    if not Ls or any(hi <= lo for lo, hi in zip(Ls, Ls[1:])):
        raise ConfigError("slab widths L must be a nonempty, strictly increasing sequence")
    for width in Ls:
        lp = _check_slab(l_prime, b, width, model.dim)
    counts = _slab_block(model, *ensemble_seeds(master_seed, n_walks), lp, b, Ls, horizon)
    tallies = [SlabTally(*map(int, row), n_walks) for row in counts]
    return tallies[0] if single else tallies


def step_counts(traj: Trajectory) -> np.ndarray:
    """Empirical count of each direction index along the path."""
    return np.bincount(traj.steps, minlength=2 * traj.dim)


def trajectories_to_jsonl(trajs: Sequence[Trajectory]) -> list[dict]:
    return [t.to_json_obj() for t in trajs]
