"""Quenched trajectory simulation and slab exits.

An ensemble's walkers advance in lockstep as one numpy block.  The step taken
by walker ``i`` at time ``t`` depends only on (master seed, i, t) and on the
environment at the current site, which (master seed, i) also fixes, so
walker ``i``'s path depends only on (master seed, i): no other walker, and no
grouping of walkers, can change it.  One step kernel, ``_step``, serves both
the full-path and the slab-exit simulations; a full path under a law every
site shares skips it and draws a tile of times at once by the same rule.
A walk that leaves no slab within its horizon gets an explicit ``None`` exit
instead of a large sentinel; downstream estimators must treat that as
censoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .env import (
    EnvironmentModel,
    QuenchedEnvironment,
    _step_index,
    constant_vector,
    site_key_prefix,
    transitions_for,
)
from .errors import ConfigError
from .lattice import (
    check_dim,
    read_float,
    read_integer,
    read_seed,
    signed_axis_table,
    step_table,
)
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

    def __post_init__(self):
        check_dim(self.dim)
        steps = np.asarray(self.steps)
        if steps.ndim != 1 or (steps.size and steps.dtype.kind not in "iu"):  # bools and floats are refused
            raise ConfigError(
                f"steps must be a 1-D array of integer direction indices, got shape {steps.shape} of {steps.dtype}"
            )
        if steps.size and not 0 <= steps.min() <= steps.max() < 2 * self.dim:
            raise ConfigError(
                f"steps must be direction indices in 0..{2 * self.dim - 1}, got {steps.min()}..{steps.max()}"
            )
        self.steps = steps.astype(np.int8, copy=False)
        self.steps.setflags(write=False)

    def __len__(self) -> int:
        return self.steps.shape[0]

    def positions(self) -> np.ndarray:
        """(N+1, d) int64 positions X_0 = 0, ..., X_N, C-contiguous.

        Axis a is the cumsum of the int8 increments +1 at direction 2a and -1
        at 2a + 1.
        """
        out = np.zeros((len(self) + 1, self.dim), dtype=np.int64)
        for a in range(self.dim):
            up, down = (self.steps == i for i in (2 * a, 2 * a + 1))
            np.cumsum(up.view(np.int8) - down.view(np.int8), dtype=np.int64, out=out[1:, a])
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


class Side(Enum):
    RIGHT = "right"
    LEFT = "left"


@dataclass(frozen=True)
class SlabExit:
    side: Side | None
    time: int | None


def _check_l(l, d: int | None = None) -> np.ndarray:
    """``l`` as a float64 vector, each entry read by ``read_float``, once it is checked nonzero, with ``d`` entries
    when ``d`` is given."""
    try:
        arr = np.array([read_float(x, "direction l") for x in l], dtype=np.float64)
    except (TypeError, ConfigError):  # not a vector, or an entry read_float refuses
        arr = None
    if arr is None or not arr.any():
        raise ConfigError(f"direction l must be a finite nonzero vector of numbers, got {l!r}")
    if d is not None and arr.shape[0] != d:
        raise ConfigError(f"direction l must have {d} entries (the dimension), got {arr.shape[0]}")
    return arr


def _check_slab(l_prime, b: float, L: float, d: int | None = None) -> tuple[np.ndarray, float, float]:
    """(l_prime, b, L) as a float vector and two floats, once l_prime is checked by ``_check_l`` with ``d`` entries.

    b and L are read by ``read_float``; they and b * L must be positive and finite, not NaN: no walker reaches a NaN or
    infinite face.
    """
    lp = _check_l(l_prime, d)
    b, L = read_float(b, "b"), read_float(L, "L")
    if not (0 < b and 0 < L and b * L < np.inf):
        raise ConfigError(f"slab parameters b, L and b * L must be positive and finite, got b = {b}, L = {L}")
    return lp, b, L


def _slab_exits(proj: np.ndarray, b: float, L: float) -> tuple[np.ndarray, np.ndarray]:
    """(right, left) exit masks of projections onto l'; boundary sites count as exits."""
    return proj >= L, proj <= -b * L


def _step(
    model: EnvironmentModel,
    step_keys: np.ndarray,
    site_prefix: np.ndarray,
    pos: np.ndarray,
    t: int,
) -> np.ndarray:
    """Lockstep kernel: every walker takes its step ``t``; ``pos`` moves in place.

    Returns the direction indices taken.  Each walker's law is read from the
    environment at ``pos``, whose site keys continue from the walker's
    ``site_key_prefix``; a law every site shares comes back as one broadcast
    row.
    """
    j = _step_index(transitions_for(model, site_prefix, pos), stream_u01(step_keys, t))
    pos += np.take(step_table(model.dim), j, axis=0)
    return j


# Draws per tile of a shared law.  A tile's float64 temporaries are then
# 128 KiB, which the allocator hands back and reuses; at 2**16 (512 KiB) a
# fresh process mapped and faulted them anew for every tile.  2**18 leaves cache.
_TILE_DRAWS = 1 << 14


def _simulate_block(
    model: EnvironmentModel,
    env_seeds: np.ndarray,
    walker_seeds: np.ndarray,
    horizon: int,
) -> np.ndarray:
    """The (n, horizon) int8 matrix of direction indices of n walkers.

    A law every site shares makes no step depend on position, so its steps
    are drawn a tile of ``_TILE_DRAWS // n`` times at once by the same
    counting rule on the same draws; other laws advance in lockstep.
    """
    step_keys = derive_key(walker_seeds, TAG_STEP)
    steps = np.empty((walker_seeds.shape[0], horizon), dtype=np.int8)
    vec = constant_vector(model)
    if vec is not None:
        cols = max(1, _TILE_DRAWS // max(1, step_keys.shape[0]))
        for t0 in range(0, horizon, cols):
            t = np.arange(t0, min(t0 + cols, horizon), dtype=np.uint64)
            steps[:, t0 : t0 + cols] = _step_index(vec.probs, stream_u01(step_keys[:, None], t))
        return steps
    pos = np.zeros((walker_seeds.shape[0], model.dim), dtype=np.int64)
    site_prefix = site_key_prefix(env_seeds)
    for t in range(horizon):
        steps[:, t] = _step(model, step_keys, site_prefix, pos, t)
    return steps


def simulate(env: QuenchedEnvironment, walker_seed: int, horizon: int) -> Trajectory:
    """One quenched trajectory of ``horizon`` steps.

    Deterministic given (env, walker_seed, horizon); a longer horizon extends
    the path without rewriting its prefix.
    """
    horizon, walker_seed = read_integer(horizon, "horizon", 0), read_seed(walker_seed, "walker_seed")
    steps = _simulate_block(
        env.model,
        np.atleast_1d(as_u64(env.master_seed)),
        np.atleast_1d(as_u64(walker_seed)),
        horizon,
    )
    return Trajectory(steps[0], env.dim, walker_seed)


def ensemble_seeds(master_seed: int, n_walks: int, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Per-walker (environment seed, walker seed) arrays of walkers ``first`` on, derived from the master."""
    master_seed = read_seed(master_seed, "master_seed")
    ids = np.arange(first, first + n_walks, dtype=np.int64)
    return derive_key(master_seed, TAG_ENV, ids), derive_key(master_seed, TAG_WALKER, ids)


def simulate_ensemble(
    model: EnvironmentModel,
    master_seed: int,
    n_walks: int,
    horizon: int,
    first: int = 0,
) -> list[Trajectory]:
    """Annealed ensemble: walker ``i`` gets its own environment and walk stream.

    Both streams derive from (master_seed, i), so the ensemble is reproducible
    walker by walker, and walkers ``first`` to ``first + n_walks - 1`` of a
    larger ensemble are the same paths as in the whole of it.
    """
    n_walks, horizon = read_integer(n_walks, "n_walks", 0), read_integer(horizon, "horizon", 0)
    first = read_integer(first, "first", 0)
    env_seeds, walk_seeds = ensemble_seeds(master_seed, n_walks, first)
    block = _simulate_block(model, env_seeds, walk_seeds, horizon)
    return [Trajectory(block[i], model.dim, int(walk_seeds[i])) for i in range(n_walks)]


# Steps per block of an ensemble that is read a block at a time (see ``block_walkers``): 16 MiB of int8
# steps.  A law read from the walker's site pays about 75 us of fixed numpy cost per lockstep step of a
# block however few its walkers, so smaller blocks cost it time: a 1,000-walk, 10,000-step mixture
# renewal-identity run took 7.2 s at 2**20 steps a block, 3.7 s at 2**22 and 1.8 s at 2**24, as in one block.
_BLOCK_STEPS = 1 << 24


def block_walkers(horizon: int) -> int:
    """Walkers per block of a streamed ensemble: as many as ``_BLOCK_STEPS`` steps hold, and at least one.

    A block's int8 steps then take ``_BLOCK_STEPS`` bytes, however many walkers
    the ensemble has; the paths do not depend on the split.
    """
    return max(1, _BLOCK_STEPS // max(1, horizon))


def slab_exit_side(traj: Trajectory, l_prime, b: float, L: float) -> SlabExit:
    """Which side of the slab the path exits first; boundary sites count as exits."""
    lp, b, L = _check_slab(l_prime, b, L, traj.dim)
    right, left = _slab_exits(traj.positions() @ lp, b, L)
    exits = right | left
    if not exits.any():
        return SlabExit(None, None)
    t = int(np.argmax(exits))
    return SlabExit(Side.RIGHT if right[t] else Side.LEFT, t)


@dataclass(frozen=True)
class SlabTally:
    """Exit-side counts for a slab ensemble at the width ``L``; censored walks never exited."""

    L: float
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
    Past the widest slab k_i reaches a slab of width inf, which no walker
    leaves, so a dead lane keeps stepping untallied until a quarter of the
    lanes are dead and the live ones are gathered at once.
    """
    n_widths = len(Ls)
    widths = np.append(np.asarray(Ls, dtype=np.float64), np.inf)
    step_keys = derive_key(walker_seeds, TAG_STEP)
    site_prefix = site_key_prefix(env_seeds)
    pos = np.zeros((walker_seeds.shape[0], model.dim), dtype=np.int64)
    k = np.zeros(walker_seeds.shape[0], dtype=np.intp)
    tally = np.zeros((n_widths, 2), dtype=np.int64)
    for t in range(horizon):
        if k.shape[0] == 0:
            break
        _step(model, step_keys, site_prefix, pos, t)
        proj = pos @ l_prime
        right, left = _slab_exits(proj, b, widths[k])
        moved = right | left
        if not moved.any():
            continue
        while moved.any():
            tally[:, 0] += np.bincount(k[right], minlength=n_widths)
            tally[:, 1] += np.bincount(k[left], minlength=n_widths)
            k += moved
            right, left = _slab_exits(proj, b, widths[k])
            moved = right | left
        if 4 * np.count_nonzero(k == n_widths) >= k.shape[0]:
            live = np.flatnonzero(k < n_widths)
            pos, k, step_keys, site_prefix = pos[live], k[live], step_keys[live], site_prefix[live]
    return tally


def run_slab_ensemble(
    model: EnvironmentModel,
    master_seed: int,
    n_walks: int,
    l_prime,
    b: float,
    Ls: Sequence[float],
    horizon: int,
) -> list[SlabTally]:
    """Annealed slab-exit tallies with early stopping per walker.

    ``Ls`` is a strictly increasing sequence of widths, giving one tally per
    width from a single pass over the walkers.
    """
    n_walks, horizon = read_integer(n_walks, "n_walks", 0), read_integer(horizon, "horizon", 0)
    if np.ndim(Ls) != 1 or not len(Ls):
        raise ConfigError("slab widths L must be a nonempty, strictly increasing sequence")
    slabs = [_check_slab(l_prime, b, width, model.dim) for width in Ls]
    lp, b, _ = slabs[0]
    Ls = [L for _, _, L in slabs]
    if any(hi <= lo for lo, hi in zip(Ls, Ls[1:])):
        raise ConfigError("slab widths L must be a nonempty, strictly increasing sequence")
    counts = _slab_block(model, *ensemble_seeds(master_seed, n_walks), lp, b, Ls, horizon)
    return [SlabTally(L, *map(int, row), n_walks) for L, row in zip(Ls, counts)]


def step_counts(traj: Trajectory) -> np.ndarray:
    """Empirical count of each direction index along the path."""
    return np.bincount(traj.steps, minlength=2 * traj.dim)


def trajectories_to_jsonl(trajs: Sequence[Trajectory]) -> list[dict]:
    return [t.to_json_obj() for t in trajs]
