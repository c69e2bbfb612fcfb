"""The shared step kernel against the two kernels it replaced.

``ref_simulate_block`` and ``ref_slab_block`` are the full-path and the
slab-exit kernels as they were before their steps were merged into one, kept
as oracles.  The oracles run over the walkers split into blocks (of 3, of 16,
or all in one); the ensembles built on the shared kernel run every walker in
one block and must reproduce their step matrices and slab tallies exactly, so
the grouping of walkers changes nothing.  One multi-width slab pass must
reproduce ``ref_slab_block`` run once per width.  A law every site shares
draws a tile of times at once; horizons that span several tiles and end
mid-tile must give the old kernel's steps too.  The slab pass drops walkers
that left every slab in batches, so some still step when the horizon ends;
its tallies must not see them.  A site key continued from its hashed
environment prefix must equal the key hashed whole, and one environment's
lookup must equal the kernel's per-walker lookup row for row.  The counting
rule that picks a step from a site's law, or from the law every site shares,
must equal the cumsum-and-clip and ``searchsorted`` expressions those kernels
used, and the same rule picking a mixture site's atom must equal the
``searchsorted``-and-clip pick it replaced.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rwre_lab import Dirichlet, FiniteMixture, Homogeneous, QuenchedEnvironment, TransitionVector, perturbed_srw, walk
from rwre_lab.env import _step_index, site_key_prefix, site_stream_keys, transitions_for
from rwre_lab.lattice import step_table
from rwre_lab.rng import TAG_SITE, TAG_STEP, as_u64, derive_key, fold_key, stream_u01
from rwre_lab.walk import _TILE_DRAWS, _simulate_block, ensemble_seeds, run_slab_ensemble, simulate, simulate_ensemble


def ref_simulate_block(model, env_seeds, walker_seeds, horizon):
    d = model.dim
    table = step_table(d)
    step_keys = derive_key(walker_seeds, TAG_STEP)
    pos = np.zeros((walker_seeds.shape[0], d), dtype=np.int64)
    steps = np.empty((walker_seeds.shape[0], horizon), dtype=np.int8)
    const_cum = np.cumsum(model.vector.probs) if hasattr(model, "vector") else None
    for t in range(horizon):
        u = stream_u01(step_keys, t)
        if const_cum is not None:
            j = np.searchsorted(const_cum, u, side="right")
        else:
            w = transitions_for(model, site_key_prefix(env_seeds), pos)
            j = (np.cumsum(w, axis=1) <= u[:, None]).sum(axis=1)
        j = np.minimum(j, 2 * d - 1)
        steps[:, t] = j
        pos += table[j]
    return steps


def ref_slab_block(model, env_seeds, walker_seeds, l_prime, b, L, horizon):
    d = model.dim
    table = step_table(d)
    step_keys = derive_key(walker_seeds, TAG_STEP)
    env_keys = env_seeds.copy()
    pos = np.zeros((walker_seeds.shape[0], d), dtype=np.int64)
    const_cum = np.cumsum(model.vector.probs) if hasattr(model, "vector") else None
    n_right = n_left = 0
    for t in range(horizon):
        if step_keys.shape[0] == 0:
            break
        u = stream_u01(step_keys, t)
        if const_cum is not None:
            j = np.searchsorted(const_cum, u, side="right")
        else:
            w = transitions_for(model, site_key_prefix(env_keys), pos)
            j = (np.cumsum(w, axis=1) <= u[:, None]).sum(axis=1)
        j = np.minimum(j, 2 * d - 1)
        pos += table[j]
        proj = pos @ l_prime
        right = proj >= L
        left = proj <= -b * L
        done = right | left
        if done.any():
            n_right += int(right.sum())
            n_left += int(left.sum())
            keep = ~done
            pos = pos[keep]
            step_keys = step_keys[keep]
            env_keys = env_keys[keep]
    return n_right, n_left, int(step_keys.shape[0])


def tv(*p):
    return TransitionVector(list(p))


MODELS = {
    "homogeneous-1d": Homogeneous(tv(0.6, 0.4)),
    "perturbed-srw-1d": perturbed_srw(0.1, -1, 1),
    "mixture-1d": FiniteMixture((tv(0.7, 0.3), tv(0.35, 0.65)), (0.6, 0.4)),
    "dirichlet-1d": Dirichlet((1.5, 1.0)),
    "homogeneous-2d": Homogeneous(tv(0.4, 0.1, 0.25, 0.25)),
    "perturbed-srw-2d": perturbed_srw(0.1, 2, 2),
    "mixture-2d": FiniteMixture((tv(0.4, 0.1, 0.25, 0.25), tv(0.1, 0.4, 0.25, 0.25)), (0.6, 0.4)),
    "dirichlet-2d": Dirichlet((1.5, 1.2, 1.35, 1.35)),
}

# (n_walks, horizon, chunk): empty ensemble, empty paths, and oracle blocks of
# 3 that do not divide 7 walkers next to one oracle block holding them all
SHAPES = [(0, 30, 3), (7, 0, 3), (7, 30, 3), (7, 30, 1024)]


# 5,000 walkers draw 3 times a tile: 40 steps are 13 full tiles and one column
TILE_SHAPES = [(5000, 40, 1024)]


def chunks(n, chunk):
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


@pytest.mark.parametrize("shape", SHAPES + TILE_SHAPES, ids=lambda s: "n%d-h%d-c%d" % s)
@pytest.mark.parametrize("name", list(MODELS))
def test_step_matrices_match_old_kernel(name, shape):
    model, (n, horizon, chunk) = MODELS[name], shape
    env_seeds, walk_seeds = ensemble_seeds(71, n)
    want = np.zeros((n, horizon), dtype=np.int8)
    for lo, hi in chunks(n, chunk):
        want[lo:hi] = ref_simulate_block(model, env_seeds[lo:hi], walk_seeds[lo:hi], horizon)
    trajs = simulate_ensemble(model, 71, n, horizon)
    got = np.asarray([t.steps for t in trajs], dtype=np.int8).reshape(n, horizon)
    assert np.array_equal(got, want)


def constant_law(kind, d):
    if kind == "homogeneous":
        p = np.arange(1.0, 2 * d + 1)
        return Homogeneous(TransitionVector(p / p.sum()))
    return perturbed_srw(0.05, -d, d)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("kind", ["homogeneous", "perturbed-srw"])
def test_tiles_match_old_kernel_and_one_walker(kind, d):
    # 100 walkers draw 163 times a tile: 524 steps are three full tiles and 35 columns
    model, n, horizon = constant_law(kind, d), 100, 3 * 163 + 35
    assert horizon // (_TILE_DRAWS // n) == 3 and horizon % (_TILE_DRAWS // n)
    env_seeds, walk_seeds = ensemble_seeds(75, n)
    block = _simulate_block(model, env_seeds, walk_seeds, horizon)
    assert np.array_equal(block, ref_simulate_block(model, env_seeds, walk_seeds, horizon))
    for i in (0, 57, n - 1):
        one = simulate(QuenchedEnvironment(model, int(env_seeds[i])), int(walk_seeds[i]), horizon)
        assert np.array_equal(one.steps, block[i])


@pytest.mark.parametrize("kind", ["homogeneous", "perturbed-srw"])
def test_one_walker_spans_several_tiles(kind):
    # one walker draws _TILE_DRAWS times a tile; four walkers a quarter of that
    model = constant_law(kind, 2)
    horizon = 2 * _TILE_DRAWS + 777
    env_seeds, walk_seeds = ensemble_seeds(76, 4)
    block = _simulate_block(model, env_seeds, walk_seeds, horizon)
    for i in range(4):
        one = simulate(QuenchedEnvironment(model, int(env_seeds[i])), int(walk_seeds[i]), horizon)
        assert np.array_equal(one.steps, block[i])
    head = ref_simulate_block(model, env_seeds, walk_seeds, 300)
    assert np.array_equal(block[:, :300], head)


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "n%d-h%d-c%d" % s)
@pytest.mark.parametrize("name", list(MODELS))
def test_slab_tallies_match_old_kernel(name, shape):
    model, (n, horizon, chunk) = MODELS[name], shape
    lp = np.zeros(model.dim)
    lp[0] = 1.0
    b, L = 1.0, 3.0
    env_seeds, walk_seeds = ensemble_seeds(72, n)
    parts = [
        ref_slab_block(model, env_seeds[lo:hi], walk_seeds[lo:hi], lp, b, L, horizon)
        for lo, hi in chunks(n, chunk)
    ]
    want = tuple(sum(p[k] for p in parts) for k in range(3))
    (tally,) = run_slab_ensemble(model, 72, n, lp, b, [L], horizon)
    assert (tally.n_right, tally.n_left, tally.n_censored) == want
    assert tally.n_walks == n


def ref_slab_tallies(model, seed, n, lp, b, Ls, horizon, chunk):
    out = []
    env_seeds, walk_seeds = ensemble_seeds(seed, n)
    for L in Ls:
        parts = [
            ref_slab_block(model, env_seeds[lo:hi], walk_seeds[lo:hi], lp, b, L, horizon)
            for lo, hi in chunks(n, chunk)
        ]
        out.append(tuple(sum(p[k] for p in parts) for k in range(3)))
    return out


def slab_directions(d):
    e1 = np.zeros(d)
    e1[0] = 1.0
    return [e1] if d == 1 else [e1, np.asarray([1.0, 0.3])]


# the close widths let one step cross several faces on either side: at b = 0.7
# the left faces of (1.0, 1.1, 1.2, 3.0) sit 0.07 apart
@pytest.mark.parametrize("Ls", [(2.0, 3.0, 5.0), (4.0,), (2.0, 2.25, 2.5), (1.0, 1.1, 1.2, 3.0)], ids=str)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "n%d-h%d-c%d" % s)
@pytest.mark.parametrize("name", list(MODELS))
def test_one_pass_tallies_match_old_kernel_per_width(name, shape, Ls):
    model, (n, horizon, chunk) = MODELS[name], shape
    for lp in slab_directions(model.dim):
        for b in (1.0, 0.7):
            want = ref_slab_tallies(model, 73, n, lp, b, Ls, horizon, chunk)
            tallies = run_slab_ensemble(model, 73, n, lp, b, list(Ls), horizon)
            assert [(t.n_right, t.n_left, t.n_censored) for t in tallies] == want
            assert all(t.n_walks == n and t.n_censored == n - t.n_exits for t in tallies)


@pytest.mark.parametrize("name", list(MODELS))
def test_one_pass_keeps_walkers_that_left_narrower_slabs(name):
    # a short horizon censors walkers at the widest width after they left the narrowest
    model, Ls = MODELS[name], (2.0, 3.0, 5.0)
    for lp in slab_directions(model.dim):
        want = ref_slab_tallies(model, 74, 40, lp, 0.7, Ls, 6, 16)
        tallies = run_slab_ensemble(model, 74, 40, lp, 0.7, list(Ls), 6)
        assert [(t.n_right, t.n_left, t.n_censored) for t in tallies] == want
        assert tallies[0].n_exits > tallies[-1].n_exits and tallies[-1].n_censored > 0


# (horizon, widths): every walker leaves both slabs long before 400 steps, so the dead lanes are dropped in several
# batches and the pass stops early; at 60 steps many walkers are still inside the widest slab, and walkers that
# have left it are still stepping, not yet dropped
COMPACTION_CASES = [(400, (1.0, 2.0)), (60, (1.0, 2.0, 12.0))]


@pytest.mark.parametrize("case", COMPACTION_CASES, ids=str)
@pytest.mark.parametrize("name", list(MODELS))
def test_one_pass_drops_dead_lanes_in_batches(name, case, monkeypatch):
    model, (horizon, Ls) = MODELS[name], case
    lanes = []
    step = walk._step

    def counted(model, step_keys, *rest):
        lanes.append(step_keys.shape[0])
        return step(model, step_keys, *rest)

    monkeypatch.setattr(walk, "_step", counted)
    for lp in slab_directions(model.dim):
        for b in (1.0, 0.7):
            lanes.clear()
            want = ref_slab_tallies(model, 77, 400, lp, b, Ls, horizon, 1024)
            tallies = run_slab_ensemble(model, 77, 400, lp, b, list(Ls), horizon)
            assert [(t.n_right, t.n_left, t.n_censored) for t in tallies] == want
            if horizon == 400:
                assert len(lanes) < horizon and len(set(lanes)) >= 4 and tallies[-1].n_censored == 0
            else:
                assert lanes[-1] > tallies[-1].n_censored > 0


@pytest.mark.parametrize("n_words", [2, 3, 4, 5])
def test_fold_continues_derive_key(n_words):
    gen = np.random.default_rng(n_words)
    scalars = [int(w) for w in gen.integers(-(2**63), 2**63, n_words, dtype=np.int64)]
    arrays = [gen.integers(-(2**63), 2**63, 40, dtype=np.int64) for _ in range(n_words)]
    for words in (scalars, arrays, scalars[:2] + arrays[2:]):
        whole = np.asarray(derive_key(*words))
        for k in range(n_words + 1):
            part = np.asarray(fold_key(derive_key(*words[:k]), *words[k:]))
            assert part.dtype == np.uint64 and part.shape == whole.shape and part.tobytes() == whole.tobytes()


@pytest.mark.parametrize("name", list(MODELS))
def test_site_prefix_gives_the_same_bytes(name):
    model = MODELS[name]
    coords = np.random.default_rng(8).integers(-50, 50, size=(300, model.dim))
    seeds = derive_key(9, np.arange(300))
    for env_seeds, sites in ((as_u64(77), coords), (seeds, coords), (seeds[:0], coords[:0])):
        keys = site_stream_keys(site_key_prefix(env_seeds), sites)
        assert np.array_equal(keys, np.atleast_1d(derive_key(env_seeds, TAG_SITE, *sites.T)))


@pytest.mark.parametrize("name", list(MODELS))
def test_quenched_lookup_matches_the_kernel_rows(name):
    # the oracle's environment and the step kernel's per-walker lookup read the same law at every site
    model = MODELS[name]
    sites = np.random.default_rng(10).integers(-50, 50, size=(300, model.dim))
    for seed in (0, 77, 2**64 - 1):
        want = transitions_for(model, site_key_prefix(np.full(300, seed, dtype=np.uint64)), sites)
        got = QuenchedEnvironment(model, seed).transitions_at(sites)
        assert got.shape == want.shape == (300, 2 * model.dim) and got.tobytes() == want.tobytes()


def ref_step_index(w, u):
    return np.minimum((np.cumsum(w, 1) <= u[:, None]).sum(1), w.shape[1] - 1)


def ref_shared_index(w, u):
    return np.minimum(np.searchsorted(np.cumsum(w), u, side="right"), w.shape[0] - 1)


@st.composite
def laws_and_draws(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    # one law per lane, or one (2d,) law every lane shares
    shape = (2 * d,) if draw(st.booleans()) else (n, 2 * d)
    w = draw(hnp.arrays(np.float64, shape, elements=st.floats(1e-9, 1.0)))
    if draw(st.booleans()):
        w = w / w.sum(axis=-1, keepdims=True)
    cum = np.broadcast_to(np.cumsum(w, -1), (n, 2 * d))
    # u from [0, 1), exactly on a cumulative entry, or the largest double below 1
    u = np.asarray(
        [
            draw(
                st.one_of(
                    st.floats(0.0, 1.0, exclude_max=True),
                    st.sampled_from(cum[i].tolist()),
                    st.just(1.0 - 2.0**-53),
                )
            )
            for i in range(n)
        ]
    )
    return w, u


# each row's cumulative sums end below 1 (0.7 + 0.1 + 0.1 + 0.1 rounds to 1 - 2**-53)
@example((np.asarray([[0.7, 0.1, 0.1, 0.1]] * 3), np.asarray([0.7999999999999999, 0.9999999999999999, 0.95])))
# 0.1 + 0.2 + 0.3 rounds to 0.6000000000000001 in cumsum's order, to 0.6 in the reverse one
@example((np.asarray([[0.1, 0.2, 0.3, 0.4]]), np.asarray([0.6])))
# the same two cases with the law shared by every lane
@example((np.asarray([0.7, 0.1, 0.1, 0.1]), np.asarray([0.7999999999999999, 0.9999999999999999, 0.95])))
@example((np.asarray([0.1, 0.2, 0.3, 0.4]), np.asarray([0.6, 0.6000000000000001, 0.0])))
@settings(max_examples=500, deadline=None)
@given(laws_and_draws())
def test_counting_rule_matches_cumsum_and_clip(case):
    w, u = case
    ref = ref_shared_index if w.ndim == 1 else ref_step_index
    assert np.array_equal(_step_index(w, u), ref(w, u))


def ref_atom_index(weights, u):
    idx = np.searchsorted(np.cumsum(weights), u, side="right")
    return np.minimum(idx, len(weights) - 1)


def ref_mixture_transitions(model, env_seeds, coords):
    u = stream_u01(site_stream_keys(site_key_prefix(env_seeds), coords), 0)
    return np.take(model.atom_matrix(), ref_atom_index(model.weights, u), axis=0)


def mixture(weights):
    atoms = tuple(tv(0.1 + 0.15 * a, 0.9 - 0.15 * a, 0.25, 0.25) for a in range(len(weights)))
    return FiniteMixture(atoms, weights)


# (0.1, 0.3, 0.2, 0.3, 0.1) is renormalized to weights whose running sum ends at 1 - 2**-52
MIXTURE_WEIGHTS = [(1.0,), (0.6, 0.4), (1 / 3, 2 / 3), (0.1, 0.2, 0.3, 0.2, 0.2), (0.1, 0.3, 0.2, 0.3, 0.1)]


@pytest.mark.parametrize("weights", MIXTURE_WEIGHTS, ids=str)
def test_atom_pick_matches_searchsorted_and_clip(weights):
    model = mixture(weights)
    w = np.asarray(model.weights)
    cum = np.cumsum(w)
    # 0, every cumulative weight and its neighbours, the largest double below 1, and uniform draws
    on = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)])
    u = np.concatenate([[0.0, 1.0 - 2.0**-53], on[on < 1.0], np.random.default_rng(5).random(2000)])
    assert np.array_equal(_step_index(w, u), ref_atom_index(model.weights, u))
    if weights == MIXTURE_WEIGHTS[-1]:
        assert cum[-1] < 1.0 and _step_index(w, np.asarray([cum[-1], 1.0 - 2.0**-53])).tolist() == [4, 4]


@pytest.mark.parametrize("weights", MIXTURE_WEIGHTS, ids=str)
def test_mixture_sites_match_old_pick(weights):
    model = mixture(weights)
    coords = np.random.default_rng(6).integers(-500, 500, size=(3000, 2))
    seeds = derive_key(9, np.arange(3000))
    for env_seeds in (as_u64(77), seeds):
        got = transitions_for(model, site_key_prefix(env_seeds), coords)
        assert np.array_equal(got, ref_mixture_transitions(model, env_seeds, coords))
    assert np.array_equal(transitions_for(model, site_key_prefix(seeds[:0]), coords[:0]), np.empty((0, 4)))
