import json
import re

import numpy as np
import pytest

from rwre_lab import (
    ConfigError,
    Homogeneous,
    QuenchedEnvironment,
    SlabRegion,
    Trajectory,
    TransitionVector,
    simulate,
    simulate_ensemble,
    slab_exit_side,
)
from rwre_lab.lattice import check_dim, encode_signed_axis, signed_axis_table
from rwre_lab.rng import TAG_ENV, TAG_WALKER, derive_key
from rwre_lab.stats import classify_transience, summarize
from rwre_lab.walk import (
    Side,
    SlabExit,
    run_slab_ensemble,
    step_counts,
)

UP, DOWN = 0, 1  # +e1 / -e1 direction indices
DRIFT_2D = Homogeneous(TransitionVector([0.4, 0.1, 0.25, 0.25]))


def traj_1d(steps):
    return Trajectory(np.asarray(steps, dtype=np.int8), 1, 0)


# ---------------------------------------------------------------- oracles

def scan_slab_exit(traj, lp, b, L):
    """The first (side, time) at which the path leaves the open slab -bL < x . l' < L, one site at a time."""
    pos = traj.positions()
    for n in range(pos.shape[0]):
        h = pos[n] @ lp
        if not -b * L < h < L:
            return SlabExit(Side.RIGHT if h >= L else Side.LEFT, n)
    return SlabExit(None, None)


# ---------------------------------------------------------------- simulate

class TestSimulate:
    def test_zero_horizon(self):
        env = QuenchedEnvironment(Homogeneous(TransitionVector([0.5, 0.5])), 0)
        t = simulate(env, 1, 0)
        assert len(t) == 0
        assert np.array_equal(t.final_position(), [0])

    def test_prefix_stability(self):
        env = QuenchedEnvironment(Homogeneous(TransitionVector([0.4, 0.1, 0.25, 0.25])), 8)
        short = simulate(env, 99, 50)
        long = simulate(env, 99, 200)
        assert np.array_equal(long.steps[:50], short.steps)

    def test_ensemble_matches_solo(self, drift2d):
        trajs = simulate_ensemble(drift2d, 31, 5, 64)
        for i in (0, 3, 4):
            env = QuenchedEnvironment(drift2d, int(derive_key(31, TAG_ENV, i)))
            solo = simulate(env, int(derive_key(31, TAG_WALKER, i)), 64)
            assert np.array_equal(trajs[i].steps, solo.steps)

    def test_chunking_invariance(self, drift2d):
        # a walker's path depends only on (master seed, walker id), not on who runs beside it
        a = simulate_ensemble(drift2d, 5, 10, 32)[:3]
        b = simulate_ensemble(drift2d, 5, 3, 32)
        assert len(a) == len(b) == 3
        for x, y in zip(a, b):
            assert np.array_equal(x.steps, y.steps)

    def test_drift_lln_1d(self):
        # i.i.d.-steps LLN: drift 2p - 1 = 0.4
        model = Homogeneous(TransitionVector([0.7, 0.3]))
        trajs = simulate_ensemble(model, 61, 1000, 10_000)
        means = [t.final_position()[0] / len(t) for t in trajs]
        assert 0.38 <= float(np.mean(means)) <= 0.42

    def test_step_distribution_multinomial(self, drift2d):
        env = QuenchedEnvironment(drift2d, 17)
        t = simulate(env, 3, 40_000)
        counts = step_counts(t)
        n = len(t)
        for j, p in enumerate(drift2d.vector.probs):
            se = (n * p * (1 - p)) ** 0.5
            assert abs(counts[j] - n * p) <= 3 * se

    def test_json_roundtrip(self, drift2d):
        env = QuenchedEnvironment(drift2d, 4)
        t = simulate(env, 12, 37)
        obj = t.to_json_obj()
        steps = [list(signed_axis_table(obj["dim"])).index(s) for s in obj["steps"]]  # the signed axes decoded
        back = Trajectory(np.asarray(steps, np.int8), obj["dim"], obj["walker_seed"])
        assert np.array_equal(back.steps, t.steps)
        assert back.walker_seed == t.walker_seed

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_json_steps_match_per_step_encoding(self, d):
        # the lookup table gives the same signed axes, as Python ints, as encoding one step at a time
        for steps in (np.zeros(0, np.int8), np.random.default_rng(d).integers(0, 2 * d, 300).astype(np.int8)):
            got = Trajectory(steps, d, 0).to_json_obj()["steps"]
            want = [encode_signed_axis(int(j)) for j in steps]
            assert got == want and all(type(s) is int for s in got)
            assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("d", [True, False])
    def test_check_dim_refuses_bools(self, d):
        with pytest.raises(ConfigError, match=re.escape(f"got {d!r}")):
            check_dim(d)
        assert [check_dim(k) for k in (1, 2, 3, 4)] == [1, 2, 3, 4]

    @pytest.mark.parametrize("dim", [True, False, 0, 5, 2.0, "2"], ids=repr)
    def test_trajectory_checks_dim_at_construction(self, dim):
        with pytest.raises(ConfigError, match=re.escape(f"got {dim!r}")):
            Trajectory(np.zeros(3, np.int8), dim, 0)


# ---------------------------------------------------------------- slab exits

class TestRegionExit:
    """The slab is the one region a run leaves: ``slab_exit_side`` against a loop over the path's sites."""

    def test_slab_boundary_counts_as_exit(self):
        # slab -2 < x < 2: X_2 = 2 is outside the open slab
        t = Trajectory(np.asarray([0, 0], dtype=np.int8), 1, 0)
        assert slab_exit_side(t, [1.0], 1.0, 2.0) == SlabExit(Side.RIGHT, 2)

    def test_slab_of_another_dimension_rejected(self):
        t = Trajectory(np.asarray([0, 2, 0], dtype=np.int8), 2, 0)
        with pytest.raises(ConfigError, match=r"direction l must have 2 entries \(the dimension\), got 3"):
            slab_exit_side(t, [1.0, 0.0, 0.0], 1.0, 3.0)

    def test_matches_scan_oracle(self, rng):
        for _ in range(30):
            steps = rng.integers(0, 4, size=rng.integers(1, 100)).astype(np.int8)
            t = Trajectory(steps, 2, 0)
            b = float(rng.uniform(0.5, 2.0))
            L = float(rng.integers(1, 6))
            lp = rng.normal(size=2)
            assert slab_exit_side(t, lp, b, L) == scan_slab_exit(t, lp, b, L)


class TestSlabExit:
    def test_pure_paths(self):
        right = traj_1d([UP] * 8)
        left = traj_1d([DOWN] * 8)
        assert slab_exit_side(right, [1.0], 1.0, 5.0).side is Side.RIGHT
        assert slab_exit_side(left, [1.0], 1.0, 5.0).side is Side.LEFT

    def test_not_by_horizon(self):
        t = traj_1d([UP, DOWN] * 3)
        assert slab_exit_side(t, [1.0], 1.0, 5.0).side is None

    def test_bad_slab_params(self):
        with pytest.raises(ConfigError):
            slab_exit_side(traj_1d([UP]), [1.0], -1.0, 5.0)

    @pytest.mark.parametrize("b", [0.0, float("nan")])
    def test_bad_slab_offset_refused(self, b):
        with pytest.raises(ConfigError):
            slab_exit_side(traj_1d([UP]), [1.0], b, 5.0)

    @pytest.mark.parametrize(
        "l_prime, b, L",
        [([float("nan")], 1.0, 3.0), ([1.0], float("inf"), 3.0), ([1.0], 1.0, float("inf")), ([1.0], 1e308, 1e300)],
        ids=["nan-l_prime", "inf-b", "inf-L", "bL-overflows"],
    )
    def test_non_finite_slab_refused(self, l_prime, b, L):
        # a NaN direction or an infinite face, also one at -b * L past the float range, would censor every walker
        model = Homogeneous(TransitionVector([0.6, 0.4]))
        with pytest.raises(ConfigError, match="finite"):
            run_slab_ensemble(model, 1, 10, l_prime, b, [L], 100)
        with pytest.raises(ConfigError, match="finite"):
            slab_exit_side(traj_1d([UP]), l_prime, b, L)

    @pytest.mark.parametrize("l", [[float("nan")], [float("inf")], [1.0, float("-inf")]], ids=str)
    def test_non_finite_direction_refused(self, l):
        t = Trajectory(np.zeros(1, np.int8), len(l), 0)
        with pytest.raises(ConfigError, match="finite"):
            slab_exit_side(t, l, 1.0, 3.0)
        with pytest.raises(ConfigError, match="finite"):
            classify_transience(summarize([t], l))

    def test_tally_matches_per_walk_classification(self):
        model = Homogeneous(TransitionVector([0.6, 0.4]))
        n, horizon, L = 300, 400, 3.0
        (tally,) = run_slab_ensemble(model, 13, n, [1.0], 1.0, [L], horizon)
        trajs = simulate_ensemble(model, 13, n, horizon)
        sides = [slab_exit_side(t, [1.0], 1.0, L).side for t in trajs]
        assert tally.n_right == sum(s is Side.RIGHT for s in sides)
        assert tally.n_left == sum(s is Side.LEFT for s in sides)
        assert tally.n_censored == sum(s is None for s in sides)

    @pytest.mark.parametrize("Ls", [[], [3.0, 3.0], [4.0, 2.0], [-1.0, 2.0], [0.0, 2.0], [float("nan")], 3.0], ids=str)
    def test_bad_width_sequences_refused(self, Ls):
        model = Homogeneous(TransitionVector([0.6, 0.4]))
        with pytest.raises(ConfigError):
            run_slab_ensemble(model, 13, 10, [1.0], 1.0, Ls, 100)


class TestEnsembleArguments:
    """Bad counts are refused by name instead of dropping or inventing walkers."""

    model = Homogeneous(TransitionVector([0.6, 0.4]))

    def test_slab_negative_walks(self):
        with pytest.raises(ConfigError, match="n_walks"):
            run_slab_ensemble(self.model, 13, -3, [1.0], 1.0, [3.0], 100)

    def test_slab_negative_horizon(self):
        with pytest.raises(ConfigError, match="horizon"):
            run_slab_ensemble(self.model, 13, 10, [1.0], 1.0, [3.0], -5)


class TestStepIndices:
    """A path's steps are direction indices in 0..2d-1, refused by rule before the int8 cast."""

    @pytest.mark.parametrize(
        "steps, rule",
        [
            (np.array([-1, 0, 0]), r"in 0\.\.3, got -1\.\.0"),  # -1 wrapped to -e2
            (np.array([260]), r"in 0\.\.3, got 260\.\.260"),  # 260 cast to index 4
            (np.array([4]), r"in 0\.\.3, got 4\.\.4"),  # positions() ended in an IndexError
            (np.array([True, False]), "integer direction indices"),
            (np.array([0.0, 1.0]), "integer direction indices"),
            (np.array([[0, 1]]), "1-D array"),
        ],
        ids=["negative", "past_int8", "past_2d", "bools", "floats", "two_d"],
    )
    def test_out_of_rule_steps_refused(self, steps, rule):
        with pytest.raises(ConfigError, match=rule):
            Trajectory(steps, 2, 0)

    @pytest.mark.parametrize("steps", [[], np.array([], dtype=np.int64), np.array([0, 1, 2, 3], dtype=np.uint16)])
    def test_valid_steps_kept(self, steps):
        t = Trajectory(steps, 2, 0)
        assert t.steps.dtype == np.int8 and t.steps.tolist() == list(steps)


class TestDirectionLength:
    """A direction with other than d entries is refused by name, not by numpy's matmul."""

    traj = Trajectory(np.array([0, 2, 0], dtype=np.int8), 2, 0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda t: run_slab_ensemble(DRIFT_2D, 1, 1, [1, 0, 0], 1.0, [3.0], 10),
            lambda t: SlabRegion([1.0], 1.0, 3.0, 2).build(QuenchedEnvironment(DRIFT_2D, 1)),
            lambda t: classify_transience(summarize([t], (1, 0, 0))),
            lambda t: slab_exit_side(t, [1.0, 0.0, 0.0], 1.0, 3.0),
        ],
        ids=["run_slab_ensemble", "SlabRegion", "classify_transience", "slab_exit_side"],
    )
    def test_wrong_length_refused_by_name(self, call):
        with pytest.raises(ConfigError, match="direction l must have 2 entries"):
            call(self.traj)


class TestDirectionFloatRule:
    """Every entry of a direction l or l' is read by ``read_float``: a string or a bool was once read as its number,
    and other entries ended in a bare ValueError or TypeError."""

    traj = simulate(QuenchedEnvironment(DRIFT_2D, 5), 7, 60)
    calls = [
        lambda l: run_slab_ensemble(DRIFT_2D, 1, 5, l, 1.0, [3.0], 100),
        lambda l: slab_exit_side(TestDirectionFloatRule.traj, l, 1.0, 3.0),
        lambda l: SlabRegion(l, 1.0, 3.0, 2).build(QuenchedEnvironment(DRIFT_2D, 1)).sites.tolist(),
        lambda l: classify_transience(summarize([TestDirectionFloatRule.traj], l)),
    ]
    ids = ["run_slab_ensemble", "slab_exit_side", "SlabRegion", "classify_transience"]

    @pytest.mark.parametrize("call", calls, ids=ids)
    @pytest.mark.parametrize("l", [["1", "0"], [True, False], ["x", 0], [None, 1.0], 1.0, [[1.0, 0.0]]], ids=repr)
    def test_refused_by_name(self, call, l):
        refusal = f"direction l must be a finite nonzero vector of numbers, got {l!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(refusal)}$"):
            call(l)

    @pytest.mark.parametrize("call", calls, ids=ids)
    def test_numbers_of_any_type_read_as_the_same_floats(self, call):
        want = repr(call([1.0, 0.0]))
        for l in ((1, 0), np.array([1, 0], np.int8), np.array([1.0, 0.0], np.float32), [np.float16(1), np.uint64(0)]):
            assert repr(call(l)) == want
