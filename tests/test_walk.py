import json
import re

import numpy as np
import pytest

from rwre_lab import (
    ConfigError,
    Homogeneous,
    QuenchedEnvironment,
    StopResult,
    Trajectory,
    TransitionVector,
    backtrack_time,
    first_passage,
    region_exit_time,
    simulate,
    simulate_ensemble,
    slab_exit_side,
)
from rwre_lab.lattice import check_dim, encode_signed_axis
from rwre_lab.rng import TAG_ENV, TAG_WALKER, derive_key
from rwre_lab.stats import classify_transience, estimate_speed
from rwre_lab.walk import (
    Side,
    run_slab_ensemble,
    slab_region,
    step_counts,
)

UP, DOWN = 0, 1  # +e1 / -e1 direction indices


def traj_1d(steps):
    return Trajectory(np.asarray(steps, dtype=np.int8), 1, 0)


# ---------------------------------------------------------------- oracles

def scan_first_passage(traj, l, s):
    pos = traj.positions()
    for n in range(pos.shape[0]):
        if pos[n] @ np.asarray(l) > s:
            return n
    return None


def scan_backtrack(traj, l):
    pos = traj.positions()
    lv = pos @ np.asarray(l)
    for n in range(1, pos.shape[0]):
        if lv[n] < lv[0]:
            return n
    return None


def scan_region_exit(traj, member):
    pos = traj.positions()
    for n in range(pos.shape[0]):
        if not member(pos[n]):
            return n
    return None


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
        back = Trajectory.from_json_obj(t.to_json_obj())
        assert np.array_equal(back.steps, t.steps)
        assert back.walker_seed == t.walker_seed

    @pytest.mark.parametrize("bad", [0.5, 2.9, True, "1"], ids=repr)
    def test_json_steps_must_be_integers(self, bad):
        with pytest.raises(ConfigError, match=re.escape(f"signed axis {bad!r} is not an integer")):
            Trajectory.from_json_obj({"dim": 2, "walker_seed": 1, "steps": [bad, 1]})

    @pytest.mark.parametrize("bad", [2.9, 2.0, True, "2"], ids=repr)
    @pytest.mark.parametrize("field", ["dim", "walker_seed"])
    def test_json_dim_and_seed_must_be_integers(self, field, bad):
        obj = {"dim": 2, "walker_seed": 1, "steps": [1, -2]}
        obj[field] = bad
        with pytest.raises(ConfigError, match=re.escape(f"{field} {bad!r} is not an integer")):
            Trajectory.from_json_obj(obj)

    @pytest.mark.parametrize("dim", [0, 5, -1])
    def test_json_dim_out_of_range(self, dim):
        with pytest.raises(ConfigError, match="dimension must be an integer in 1..4"):
            Trajectory.from_json_obj({"dim": dim, "walker_seed": 1, "steps": []})

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"dim": 2, "walker_seed": 1}, "a trajectory must be a JSON object with the key 'steps'"),
            ({"walker_seed": 1, "steps": []}, "a trajectory must be a JSON object with the key 'dim'"),
            ({"dim": 2, "walker_seed": 1, "steps": 5}, "steps must be a list of signed axes, got 5"),
            ([2, 1, [1, -2]], "a trajectory must be a JSON object with the key 'dim'"),
        ],
        ids=["no-steps", "no-dim", "scalar-steps", "list"],
    )
    def test_json_malformed_object_refused_by_name(self, obj, message):
        # each once ended in a KeyError or a TypeError
        with pytest.raises(ConfigError, match=re.escape(message)):
            Trajectory.from_json_obj(obj)

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


# ---------------------------------------------------------------- stopping times

class TestFirstPassage:
    def test_first_step_crosses(self):
        assert first_passage(traj_1d([UP]), [1], 0) == StopResult.at(1)

    def test_dip_then_cross(self):
        # positions -1, 0, 1; first n with X_n > 0 is 3
        assert first_passage(traj_1d([DOWN, UP, UP]), [1], 0) == StopResult.at(3)

    def test_zero_l_rejected(self):
        with pytest.raises(ConfigError):
            first_passage(traj_1d([UP]), [0], 0)

    def test_matches_scan_oracle(self, rng):
        for _ in range(40):
            steps = rng.integers(0, 4, size=rng.integers(1, 120)).astype(np.int8)
            t = Trajectory(steps, 2, 0)
            l = rng.integers(-3, 4, size=2)
            if not l.any():
                l[0] = 1
            s = float(rng.integers(-5, 6))
            assert first_passage(t, l, s).time == scan_first_passage(t, l, s)


class TestBacktrack:
    def test_monotone_path_never_backtracks(self):
        assert backtrack_time(traj_1d([UP] * 10), [1]) == StopResult.not_by_horizon()

    def test_immediate(self):
        assert backtrack_time(traj_1d([DOWN]), [1]) == StopResult.at(1)

    def test_matches_scan_oracle(self, rng):
        for _ in range(40):
            steps = rng.integers(0, 4, size=rng.integers(1, 120)).astype(np.int8)
            t = Trajectory(steps, 2, 0)
            l = rng.integers(-3, 4, size=2)
            if not l.any():
                l[1] = 2
            assert backtrack_time(t, l).time == scan_backtrack(t, l)


class TestRegionExit:
    def test_everything_region(self):
        t = traj_1d([UP, DOWN, UP])
        assert region_exit_time(t, lambda pts: np.ones(len(pts), bool)).hit is False

    def test_slab_boundary_counts_as_exit(self):
        # slab -2 < x < 2: X_2 = 2 is outside the open slab
        t = Trajectory(np.asarray([0, 0], dtype=np.int8), 1, 0)
        assert region_exit_time(t, slab_region([1.0], 1.0, 2.0)) == StopResult.at(2)

    def test_slab_of_another_dimension_rejected(self):
        # the predicate is built before it sees a site, so it checks the sites' dimension on each call
        t = Trajectory(np.asarray([0, 2, 0], dtype=np.int8), 2, 0)
        with pytest.raises(ConfigError, match="l' has 3 entries, but the sites have 2"):
            region_exit_time(t, slab_region([1.0, 0.0, 0.0], 1.0, 3.0))

    def test_start_outside_rejected(self):
        t = traj_1d([UP])
        with pytest.raises(ValueError):
            region_exit_time(t, lambda pts: (pts[:, 0] > 5))

    def test_matches_scan_oracle(self, rng):
        for _ in range(30):
            steps = rng.integers(0, 4, size=rng.integers(1, 100)).astype(np.int8)
            t = Trajectory(steps, 2, 0)
            b = float(rng.uniform(0.5, 2.0))
            L = float(rng.integers(1, 6))
            lp = rng.normal(size=2)
            region = slab_region(lp, b, L)
            got = region_exit_time(t, region).time
            want = scan_region_exit(t, lambda x: -b * L < x @ lp < L)
            assert got == want

    def test_shifted_cone_region(self):
        from fractions import Fraction

        from rwre_lab import ConeSpec, cone_contains
        from rwre_lab.walk import shifted_cone_region

        spec = ConeSpec((1, 1), ((1, 1), (1, -1)), Fraction(1), (1, 0))
        # +e1, +e2, -e1: (1,1) sits on the wedge boundary (inside); (0,1) is out
        t = Trajectory(np.asarray([0, 2, 1], np.int8), 2, 0)
        got = region_exit_time(t, shifted_cone_region(spec, (0, 0)))
        want = scan_region_exit(t, lambda x: cone_contains(spec, (0, 0), x))
        assert got.time == want == 3

    def test_shifted_cone_region_refuses_an_apex_of_the_wrong_dimension(self):
        from fractions import Fraction

        from rwre_lab import ConeSpec
        from rwre_lab.walk import shifted_cone_region

        spec = ConeSpec((1, 1), ((1, 1), (1, -1)), Fraction(1), (1, 0))
        with pytest.raises(ConfigError, match=r"apex must have 2 entries \(the dimension\), got 3"):
            shifted_cone_region(spec, (0, 0, 0))
        with pytest.raises(ConfigError, match="apex must hold integers, got 0.5"):
            shifted_cone_region(spec, (0.5, 0))


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
        with pytest.raises(ConfigError, match="finite"):
            first_passage(traj_1d([UP]), l, 0.0)

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
            lambda t: first_passage(t, [1, 0, 0], 2),
            lambda t: backtrack_time(t, [1]),
            lambda t: estimate_speed([t], (1, 0, 0)),
            lambda t: classify_transience([t], (1, 0, 0)),
            lambda t: slab_exit_side(t, [1.0, 0.0, 0.0], 1.0, 3.0),
        ],
        ids=["first_passage", "backtrack_time", "estimate_speed", "classify_transience", "slab_exit_side"],
    )
    def test_wrong_length_refused_by_name(self, call):
        with pytest.raises(ConfigError, match="direction l must have 2 entries"):
            call(self.traj)
