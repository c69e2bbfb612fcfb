"""One slab exit rule for the walk kernel and the exact oracle.

``ref_slab_region`` is ``SlabRegion``'s site and label construction as it was
before the region read the walk's exit rule, kept as an oracle.  The region
built on the shared rule must reproduce its sites and labels exactly, and
agree with ``walk._slab_exits`` at every site and every boundary site.  The
interval test pins each interval's Monte Carlo stand-in to exits at exactly
``lo`` and ``hi``.
"""

import numpy as np
import pytest

from rwre_lab import Homogeneous, IntervalRegion, QuenchedEnvironment, SlabRegion, TransitionVector
from rwre_lab.walk import _slab_exits


def ref_slab_region(lp, b, L, w):
    d = lp.shape[0]
    axes = [np.arange(-w, w + 1)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    proj = grid @ lp
    box = (np.abs(grid) <= w).all(axis=1)
    inside = (proj > -b * L) & (proj < L) & box
    pad = np.pad(inside.reshape((2 * w + 1,) * d), 1)
    near = np.zeros_like(pad)
    for k in range(d):
        near |= np.roll(pad, 1, axis=k) | np.roll(pad, -1, axis=k)
    outside = np.argwhere(near & ~pad) - (w + 1)
    proj = outside @ lp
    labels = np.where(proj >= L, "Right", np.where(proj <= -b * L, "Left", "Side"))
    return grid[inside], dict(zip(map(tuple, outside.tolist()), labels.tolist()))


def as_set(pts) -> set:
    return set(map(tuple, np.asarray(pts).tolist()))


@pytest.mark.parametrize("d, w", [(1, 12), (2, 6), (3, 4)])
def test_slab_region_follows_the_walk_exit_rule(d, w):
    rng = np.random.default_rng(600 + d)
    env = QuenchedEnvironment(Homogeneous(TransitionVector([1.0 / (2 * d)] * (2 * d))), 0)
    axes = [np.arange(-w, w + 1)] * d
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    on_right = on_left = 0
    for _ in range(40):
        # quarters that are not integers, and dyadic b, so that sites land exactly on both faces
        lp = rng.choice([-7, -6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 7], size=d) / 4.0
        proj = grid @ lp
        L = float(rng.choice(proj[proj > 0]))
        b = float(rng.choice([0.5, 0.75, 1.0, 1.25, 1.5, 2.0]))
        on_right += np.count_nonzero(proj == L)
        on_left += np.count_nonzero(proj == -b * L)
        problem = SlabRegion(tuple(lp), b, L, w).build(env)

        want_sites, want_boundary = ref_slab_region(lp, b, L, w)
        assert as_set(problem.sites) == as_set(want_sites)
        assert problem.sites.shape[0] == want_sites.shape[0]
        assert problem.boundary == want_boundary

        right, left = _slab_exits(problem.sites @ lp, b, L)
        assert not (right | left).any()
        pts = np.asarray(list(problem.boundary), dtype=np.int64).reshape(-1, d)
        labels = np.asarray(list(problem.boundary.values()))
        right, left = _slab_exits(pts @ lp, b, L)
        assert np.array_equal(labels == "Right", right)
        assert np.array_equal(labels == "Left", left)
        side = labels == "Side"
        assert (np.abs(pts[side]) > w).any(axis=1).all()
    # the faces were hit exactly, so a strict comparison in place of >= or <= shows
    assert on_right > 0 and on_left > 0


def test_interval_stand_in_exits_exactly_at_lo_and_hi():
    missed = []
    for lo in range(-60, 0):
        for hi in range(1, 60):
            lp, b, L = IntervalRegion(lo, hi).mc_slab()
            x = np.arange(lo - 2, hi + 3)
            right, left = _slab_exits(x[:, None] @ np.asarray(lp, dtype=np.float64), b, L)
            if not (np.array_equal(right, x >= hi) and np.array_equal(left, x <= lo)):
                missed.append((lo, hi))
    assert missed == []
