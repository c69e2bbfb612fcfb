"""Random-environment models on the integer lattice.

An environment assigns every site a strictly positive nearest-neighbor
transition vector, drawn i.i.d. across sites from one of three model families.
Quenched environments are generated lazily: the vector at a site is a pure
function of (master seed, site), computed through a counter-based stream, so
the infinite environment needs no storage and any site can be reproduced
bit-identically on any worker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .lattice import check_dim, direction_index, integer_array, read_float, read_integer
from .rng import (
    TAG_SITE,
    U64,
    as_u64,
    derive_key,
    fold_key,
    stream_normal,
    stream_u01,
    stream_u01_open,
)

ELLIPTICITY_FLOOR = 1e-9
_SUM_TOL = 1e-12


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TransitionVector:
    """Exit probabilities at one site, indexed by signed unit direction.

    Entries must be strictly positive (ellipticity); they are renormalized to
    sum to one at construction, so the stored vector always satisfies the sum
    invariant to within 1e-12.
    """

    probs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.probs, dtype=np.float64)
        if arr.ndim != 1 or arr.size % 2 != 0 or arr.size == 0:
            raise ConfigError(f"transition vector needs 2d entries, got shape {arr.shape}")
        check_dim(arr.size // 2)
        if not np.all((arr > 0.0) & (arr < np.inf)):  # NaN fails both
            raise ConfigError(f"transition probabilities must be strictly positive and finite, got {arr.tolist()}")
        total = float(arr.sum())
        if abs(total - 1.0) > _SUM_TOL:
            arr = arr / total
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    @property
    def dim(self) -> int:
        return self.probs.size // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, TransitionVector) and np.array_equal(self.probs, other.probs)

    def __hash__(self):
        return hash(self.probs.tobytes())


@dataclass(frozen=True)
class Homogeneous:
    """Every site carries the same fixed transition vector (``perturbed_srw`` builds one)."""

    vector: TransitionVector

    @property
    def dim(self) -> int:
        return self.vector.dim


@dataclass(frozen=True, eq=False)
class FiniteMixture:
    """Each site independently picks one of finitely many elliptic atoms."""

    atoms: tuple[TransitionVector, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if not atoms:
            raise ConfigError("mixture needs at least one atom")
        d = atoms[0].dim
        if any(a.dim != d for a in atoms):
            raise ConfigError("mixture atoms disagree on dimension")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(atoms),):
            raise ConfigError("one weight per atom required")
        if not np.all(w > 0.0):
            raise ConfigError("mixture weights must be positive")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise ConfigError("mixture weights must sum to 1")
        w = w / w.sum()
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "_atom_matrix", _read_only(np.stack([a.probs for a in atoms])))

    @property
    def dim(self) -> int:
        return self.atoms[0].dim

    def atom_matrix(self) -> np.ndarray:
        return self._atom_matrix


def _concentrations(alphas) -> tuple[float, ...]:
    """The Dirichlet concentrations ``alphas``: a nonempty vector of positive numbers, each read by ``read_float``."""
    try:
        values = tuple(read_float(a, "a Dirichlet concentration") for a in alphas)
    except TypeError:
        raise ConfigError(f"Dirichlet concentrations must be a vector of numbers, got {alphas!r}") from None
    if not values or min(values) <= 0.0:
        raise ConfigError(f"Dirichlet concentrations must be positive, got {list(values)}")
    return values


@dataclass(frozen=True)
class Dirichlet:
    """Site vectors drawn from a Dirichlet law on the 2d-simplex."""

    alphas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", _concentrations(self.alphas))
        if len(self.alphas) % 2 != 0:
            raise ConfigError("Dirichlet needs 2d concentration parameters")
        check_dim(len(self.alphas) // 2)

    @property
    def dim(self) -> int:
        return len(self.alphas) // 2


def perturbed_srw(epsilon: float, drift_dir: int, dim: int) -> Homogeneous:
    """Simple random walk with probability epsilon moved onto one direction, at every site.

    drift_dir uses the signed-axis form: +1 is +e_1, -2 is -e_2, and so on.
    The bound epsilon < 1/(2d) keeps the opposite direction elliptic.
    """
    check_dim(dim)
    drift_dir = read_integer(drift_dir, "drift_dir")
    if drift_dir == 0 or abs(drift_dir) > dim:
        raise ConfigError(f"drift_dir {drift_dir!r} out of range for d={dim}")
    epsilon = read_float(epsilon, "epsilon")
    if not 0.0 < epsilon < 1.0 / (2 * dim):
        raise ConfigError("epsilon must lie in (0, 1/(2d))")
    base = np.full(2 * dim, 1.0 / (2 * dim))
    j = direction_index(abs(drift_dir) - 1, 1 if drift_dir > 0 else -1)
    base[j] += epsilon
    base[j ^ 1] -= epsilon
    return Homogeneous(TransitionVector(base))


EnvironmentModel = Homogeneous | FiniteMixture | Dirichlet

_GAMMA_COMP_STRIDE = U64(1) << U64(32)
_GAMMA_ROUND_STRIDE = U64(64) << U64(32)
_GAMMA_MAX_ATTEMPTS = 512
_DIRICHLET_MAX_ROUNDS = 64


def _gamma_attempt(keys, idx, d, c):
    """One Marsaglia-Tsang attempt per lane, from stream indices idx .. idx+2.

    Arguments broadcast against each other. Returns the candidate ``d * v``
    and whether the attempt accepts it.
    """
    x = stream_normal(keys, idx)
    u = stream_u01_open(keys, idx + U64(2))
    v = (1.0 + c * x) ** 3
    ok = v > 0.0
    dv = d * v
    ok &= np.log(u) < 0.5 * x * x + d - dv + d * np.log(np.where(ok, v, 1.0))
    return dv, ok


def sample_dirichlet(alphas, keys) -> np.ndarray:
    """Draw one Dirichlet vector per stream key via independent gammas.

    Lane ``i`` owns the whole index space of the stream keyed by ``keys[i]``.
    In round ``r``, component ``j`` of lane ``i`` is a Marsaglia-Tsang gamma
    draw from that stream at base ``r * _GAMMA_ROUND_STRIDE +
    j * _GAMMA_COMP_STRIDE`` (rounds 64 * 2**32 apart, components 2**32):
    attempt ``a`` consumes indices base+4a .. base+4a+2 (a normal from
    base+4a and base+4a+1, the acceptance uniform from base+4a+2), and for
    alpha < 1 the boost uniform sits at base + 4 * _GAMMA_MAX_ATTEMPTS, past
    the attempt budget, so the draw schedule is a pure function of the key.
    One rejection loop covers every (lane, component) pair at once: attempt 0
    runs on the whole grid, later attempts only on the pairs still rejected.
    The boost ``u ** (1 / alpha)`` is taken one component at a time with a
    scalar exponent, which numpy may round differently from a per-lane one.

    Vectors with any normalized component below the ellipticity floor are
    rejected and redrawn in the next round, so outputs are always usable as
    elliptic transition vectors.
    """
    alphas = np.asarray(_concentrations(alphas), dtype=np.float64)
    keys = np.atleast_1d(as_u64(np.asarray(keys)))
    n, k = keys.shape[0], alphas.size
    boost = alphas < 1.0
    d = np.where(boost, alphas + 1.0, alphas) - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    comp_base = np.arange(k, dtype=U64) * _GAMMA_COMP_STRIDE
    out = np.empty((n, k), dtype=np.float64)
    todo = np.arange(n)
    for rnd in range(_DIRICHLET_MAX_ROUNDS):
        sub = keys[todo]
        base = comp_base + U64(rnd) * _GAMMA_ROUND_STRIDE
        # attempt 0 on the whole (lane, component) grid, later attempts on the rejected pairs only
        g, ok = _gamma_attempt(sub[:, None], base[None, :], d[None, :], c[None, :])
        lanes, comps = np.nonzero(~ok)
        attempt = 1
        while lanes.size:
            if attempt == _GAMMA_MAX_ATTEMPTS:
                raise NumericError("gamma sampler failed to accept within the attempt budget")
            dv, ok = _gamma_attempt(sub[lanes], base[comps] + U64(4 * attempt), d[comps], c[comps])
            g[lanes[ok], comps[ok]] = dv[ok]
            lanes, comps = lanes[~ok], comps[~ok]
            attempt += 1
        for j in np.flatnonzero(boost):
            ub = stream_u01_open(sub, base[j] + U64(4 * _GAMMA_MAX_ATTEMPTS))
            g[:, j] *= ub ** (1.0 / alphas[j])
        probs = g / g.sum(axis=1, keepdims=True)
        good = (probs >= ELLIPTICITY_FLOOR).all(axis=1)
        out[todo[good]] = probs[good]
        todo = todo[~good]
        if todo.size == 0:
            return out
    raise NumericError("Dirichlet sampler kept producing sub-elliptic vectors")


def _step_index(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per lane, how many of the first k-1 running sums of the law ``w`` are <= ``u``.

    The one rule for every categorical draw: a step, and a mixture site's atom.
    ``w`` holds the law along its last axis, a (k,) vector every lane shares or
    one (n, k) row per lane.  The sums run in ``np.cumsum``'s order, so they are
    bit-equal to it, and never decrease: the count is the first index whose sum
    exceeds ``u``, or the last index when the sums round below 1.
    """
    c = np.zeros(w.shape[:-1])
    j = np.zeros(u.shape, dtype=np.intp)
    for i in range(w.shape[-1] - 1):
        c += w[..., i]
        j += c <= u
    return j


def site_key_prefix(env_seeds):
    """The part of a site's stream key its environment seed fixes, one per seed."""
    return derive_key(env_seeds, TAG_SITE)


def site_stream_keys(site_prefix, coords: np.ndarray) -> np.ndarray:
    """Stream keys ``derive_key(env seed, TAG_SITE, *coords)`` of a batch of sites, continued from ``site_prefix``."""
    coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
    return np.atleast_1d(fold_key(site_prefix, *(coords[:, a] for a in range(coords.shape[1]))))


def constant_vector(model: EnvironmentModel) -> TransitionVector | None:
    """The vector every site carries when the model does not vary by site, else None."""
    if isinstance(model, Homogeneous):
        return model.vector
    return None


def transitions_for(model: EnvironmentModel, site_prefix, coords: np.ndarray) -> np.ndarray:
    """Transition vectors for a batch of sites.

    ``site_prefix`` is ``site_key_prefix(env seeds)``: a scalar for one shared
    environment, or one value per row.  The result is a (n, 2d) probability
    matrix; rows are pure functions of (env seed, site, model).
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
    n = coords.shape[0]
    if coords.shape[1] != model.dim:
        raise ConfigError(f"site dimension {coords.shape[1]} does not match model d={model.dim}")
    vec = constant_vector(model)
    if vec is not None:
        return np.broadcast_to(vec.probs, (n, 2 * model.dim))
    keys = site_stream_keys(site_prefix, coords)
    if isinstance(model, FiniteMixture):
        idx = _step_index(np.asarray(model.weights), stream_u01(keys, 0))
        return np.take(model.atom_matrix(), idx, axis=0)
    if isinstance(model, Dirichlet):
        return sample_dirichlet(model.alphas, keys)
    raise ConfigError(f"unknown environment model {type(model).__name__}")


@dataclass
class QuenchedEnvironment:
    """One fixed environment: a pure map (master seed, site) -> transition vector."""

    model: EnvironmentModel
    master_seed: int

    @property
    def dim(self) -> int:
        return self.model.dim

    def transitions_at(self, coords) -> np.ndarray:
        """Vectorized lookup: (n, d) sites, read by ``integer_array``, -> (n, 2d) probabilities."""
        sites = integer_array(coords, "sites")
        if sites.ndim != 2 or sites.shape[1] != self.dim:
            raise ConfigError(f"sites must be an (n, {self.dim}) array, got shape {sites.shape}")
        return transitions_for(self.model, site_key_prefix(as_u64(self.master_seed)), sites)
