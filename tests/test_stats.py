import re
from fractions import Fraction

import numpy as np
import pytest

from rwre_lab import ConeSpec, Homogeneous, Trajectory, TransitionVector, detect_renewals
from rwre_lab.cone import RenewalRecord
from rwre_lab.errors import ConfigError
from rwre_lab.stats import (
    InsufficientData,
    TransiencePattern,
    Verdict,
    classify_transience,
    estimate_speed,
    final_clustering,
    independence_test,
    raw_direction,
    renewal_direction,
    renewal_mean_identity,
    slab_exit_decay,
    summarize,
    zero_one_scan,
)
from rwre_lab.walk import simulate_ensemble

DIAG = ConeSpec((1, 1), ((1, 1), (1, -1)), Fraction(1), (1, 0))


def mirror(traj: Trajectory) -> Trajectory:
    """Point reflection through the origin: flip every step's sign bit."""
    return Trajectory(np.asarray(traj.steps) ^ 1, traj.dim, traj.walker_seed)


def swap_axes(traj: Trajectory) -> Trajectory:
    """The lattice symmetry exchanging e1 and e2."""
    steps = np.asarray(traj.steps)
    return Trajectory(np.where(steps < 2, steps + 2, steps - 2), traj.dim, traj.walker_seed)


def straight_traj(direction_index: int, n: int, dim: int) -> Trajectory:
    return Trajectory(np.full(n, direction_index, np.int8), dim, 0)


def record_from_positions(times, positions, H=100, censored=False) -> RenewalRecord:
    return RenewalRecord(
        np.asarray(times, np.int64), np.asarray(positions, np.int64), H, censored
    )


def synthetic_records(rng, n_records=30, n_renewals=80):
    """Records whose increments are i.i.d. with mean (3, 0)."""
    records = []
    for _ in range(n_records):
        inc = np.stack(
            [rng.integers(1, 6, size=n_renewals), rng.integers(-2, 3, size=n_renewals)], axis=1
        )
        pos = np.concatenate([[[0, 0]], np.cumsum(inc, axis=0)])
        times = np.arange(pos.shape[0]) * 7 + 1
        records.append(record_from_positions(times, pos))
    return records


class TestClassifyTransience:
    def test_drifted_model_is_transient_plus(self, drift2d):
        trajs = simulate_ensemble(drift2d, 21, 300, 3000)
        v = classify_transience(summarize(trajs, (1, 0)))
        assert v.verdict is Verdict.TRANSIENT_PLUS
        assert v.p_hat_plus >= 0.99

    def test_orthogonal_direction_undecided(self, drift2d):
        trajs = simulate_ensemble(drift2d, 21, 300, 3000)
        v = classify_transience(summarize(trajs, (0, 1)))
        assert v.verdict is Verdict.UNDECIDED

    def test_symmetric_model_undecided(self, srw2d):
        trajs = simulate_ensemble(srw2d, 22, 200, 2000)
        v = classify_transience(summarize(trajs, (1, 0)))
        assert v.verdict is Verdict.UNDECIDED
        assert v.p_hat_plus + v.p_hat_minus <= 1.0

    def test_mirror_swaps_exactly(self, drift2d):
        trajs = simulate_ensemble(drift2d, 23, 120, 1500)
        v = classify_transience(summarize(trajs, (1, 0)))
        vm = classify_transience(summarize([mirror(t) for t in trajs], (1, 0)))
        assert vm.p_hat_plus == v.p_hat_minus
        assert vm.p_hat_minus == v.p_hat_plus
        assert vm.verdict is Verdict.TRANSIENT_MINUS

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            classify_transience(summarize([], (1, 0)))

    @pytest.mark.parametrize("estimator", [classify_transience, estimate_speed])
    @pytest.mark.parametrize("l", [(0, 0), (np.nan, 1)], ids=["zero", "nan"])
    def test_direction_must_be_finite_and_nonzero(self, drift2d, estimator, l):
        # both ran: a zero direction classified every walk undecided and gave speed 0; the summary refuses it
        trajs = simulate_ensemble(drift2d, 24, 5, 50)
        with pytest.raises(ConfigError, match="finite nonzero"):
            estimator(summarize(trajs, l))

    @pytest.mark.parametrize("estimator", [classify_transience, estimate_speed])
    def test_summary_without_direction_refused_by_name(self, estimator):
        walks = summarize([straight_traj(0, 3, 2)])
        with pytest.raises(ValueError, match=f"^{estimator.__name__} needs a summary along a direction"):
            estimator(walks)


class TestEstimateSpeed:
    def test_drift_1d(self):
        model = Homogeneous(TransitionVector([0.7, 0.3]))
        trajs = simulate_ensemble(model, 31, 400, 4000)
        est = estimate_speed(summarize(trajs, (1,)))
        assert 0.38 <= est.mean <= 0.42
        assert est.n_plus == 400 and est.n_minus == 0

    def test_symmetric_ci_contains_zero(self, srw2d):
        trajs = simulate_ensemble(srw2d, 32, 300, 2000)
        est = estimate_speed(summarize(trajs, (1, 0)))
        assert est.ci[0] <= 0.0 <= est.ci[1]


class TestEstimateDirection:
    def test_straight_lines_exact(self):
        trajs = [straight_traj(0, 200, 2) for _ in range(5)]
        est = raw_direction(summarize(trajs))
        assert np.array_equal(est.nu_hat, [1.0, 0.0])
        assert est.dispersion == 0.0

    def test_mirror_negates_exactly(self, drift2d):
        trajs = simulate_ensemble(drift2d, 41, 150, 2000)
        est = raw_direction(summarize(trajs))
        est_m = raw_direction(summarize([mirror(t) for t in trajs]))
        assert np.array_equal(est_m.nu_hat, -est.nu_hat)

    def test_axis_swap_equivariance_exact(self, drift2d):
        trajs = simulate_ensemble(drift2d, 42, 150, 2000)
        est = raw_direction(summarize(trajs))
        est_s = raw_direction(summarize([swap_axes(t) for t in trajs]))
        assert np.array_equal(est_s.nu_hat, est.nu_hat[::-1])

    def test_renewal_route_on_synthetic_records(self, rng):
        records = synthetic_records(rng)
        est = renewal_direction(records)
        assert abs(np.arctan2(est.nu_hat[1], est.nu_hat[0])) < 0.05
        assert est.n_samples == 30 * 80

    @pytest.mark.parametrize("thr", [0, -1.0])
    def test_threshold_not_positive_raises(self, thr):
        # walks ending at the origin passed the radius filter r >= thr and were divided by r = 0
        trajs = [straight_traj(0, 3, 2), Trajectory(np.asarray([0, 1], np.int8), 2, 0)]
        with pytest.raises(ConfigError, match="level_threshold"):
            raw_direction(summarize(trajs), level_threshold=thr)

    def test_negative_dip_allowance_raises(self):
        with pytest.raises(ConfigError, match="dip_allowance"):
            classify_transience(summarize([straight_traj(0, 3, 2)], (1, 0)), dip_allowance=-1.0)

    def test_insufficient_data_paths(self):
        assert isinstance(raw_direction(summarize([])), InsufficientData)
        empty = record_from_positions([1], [[1, 0]])
        assert isinstance(
            renewal_direction([empty]), InsufficientData
        )


class TestIndependence:
    def test_iid_increments_pass(self, rng):
        inc = rng.integers(-3, 4, size=(5000, 2))
        rep = independence_test(inc)
        assert rep.passed

    def test_duplicated_increments_fail(self, rng):
        inc = rng.integers(-3, 4, size=(2000, 2))
        doubled = np.repeat(inc, 2, axis=0)
        rep = independence_test(doubled)
        assert not rep.passed
        assert (rep.lag1 > 0.3).all()

    def test_too_few_is_insufficient(self, rng):
        assert isinstance(independence_test(rng.integers(0, 2, size=(50, 2))), InsufficientData)

    def test_constant_coordinate_is_insufficient(self, rng):
        inc = np.stack([rng.integers(-3, 4, size=200), np.full(200, 2)], axis=1)
        assert independence_test(inc) == InsufficientData("coordinate 1 is degenerate (zero variance)")


class TestRenewalIdentity:
    def test_unit_level_steps_hit_exactly_one(self):
        model = Homogeneous(TransitionVector([0.7, 0.3]))
        spec = ConeSpec((1,), ((1,),), Fraction(1), (1,))
        trajs = simulate_ensemble(model, 51, 200, 3000)
        records = [detect_renewals(t, spec, 300) for t in trajs]
        rep = renewal_mean_identity(records, spec, n_boot=200)
        assert rep.hit_level_prob == 1.0
        assert 0.8 <= rep.ratio <= 1.2

    def test_window_without_hits_is_insufficient(self):
        model = Homogeneous(TransitionVector([0.7, 0.3]))
        spec = ConeSpec((1,), ((1,),), Fraction(1), (1,))
        trajs = simulate_ensemble(model, 51, 50, 500)
        records = [detect_renewals(t, spec, 50) for t in trajs]
        rep = renewal_mean_identity(records, spec, window=(10**6, 10**6 + 1))
        assert isinstance(rep, InsufficientData)

    def test_no_renewals_is_insufficient(self, srw2d):
        trajs = simulate_ensemble(srw2d, 52, 30, 400)
        records = [detect_renewals(t, DIAG, 200) for t in trajs]
        rep = renewal_mean_identity(records, DIAG)
        assert isinstance(rep, InsufficientData)


class TestAntipodalClustering:
    def test_two_constructed_clusters(self):
        plus = [straight_traj(0, 50, 2) for _ in range(10)]
        minus = [straight_traj(1, 50, 2) for _ in range(10)]
        res = final_clustering(summarize(plus + minus).final)
        assert res.n_clusters == 2
        assert res.antipodal_dev == pytest.approx(0.0, abs=1e-12)

    def test_drifted_single_cluster(self, drift2d):
        trajs = simulate_ensemble(drift2d, 61, 200, 3000)
        res = final_clustering(summarize(trajs).final)
        assert res.n_clusters == 1
        assert abs(np.arctan2(res.centers[0][1], res.centers[0][0])) < 0.1

    def test_diffuse_directions_rejected(self, srw2d):
        trajs = simulate_ensemble(srw2d, 62, 200, 2000)
        res = final_clustering(summarize(trajs).final)
        assert res.n_clusters == 0
        assert res.reason is not None


class TestSlabDecay:
    def test_weak_drift_monotone_1d(self):
        model = Homogeneous(TransitionVector([0.55, 0.45]))
        curve = slab_exit_decay(model, 71, [1.0], 1.0, [3, 6, 12], 4000, 20_000)
        ps = [pt.p_left for pt in curve.points]
        assert ps[0] > ps[1] > ps[2] > 0
        assert curve.log_slope < 0

    def test_increasing_L_required(self):
        model = Homogeneous(TransitionVector([0.55, 0.45]))
        with pytest.raises(Exception):
            slab_exit_decay(model, 71, [1.0], 1.0, [6, 3], 100, 1000)

    @pytest.mark.parametrize(
        "L_list, message",
        [
            (["5"], "L must be a finite number, got '5'"),
            ([True, 3], "L must be a finite number, got True"),
            ([b"7"], "L must be a finite number, got b'7'"),
            (5, "slab widths L must be a nonempty, strictly increasing sequence"),
        ],
        ids=["string", "bool", "bytes", "scalar"],
    )
    def test_widths_read_by_the_float_rule(self, L_list, message):
        # the widths are read once, by run_slab_ensemble; float() once read "5", True and b"7" as widths
        model = Homogeneous(TransitionVector([0.55, 0.45]))
        with pytest.raises(ConfigError, match=re.escape(message)):
            slab_exit_decay(model, 71, [1.0], 1.0, L_list, 10, 100)


class TestZeroOneScan:
    def test_drifted_half_space_pattern(self, drift2d):
        scan = zero_one_scan(drift2d, 81, 16, 250, 3000)
        assert scan.pattern is TransiencePattern.OPEN_HALF_SPACE
        assert scan.verdicts[0] is Verdict.TRANSIENT_PLUS
        assert scan.verdicts[8] is Verdict.TRANSIENT_MINUS
        assert scan.verdicts[4] is Verdict.UNDECIDED  # angle pi/2, orthogonal to drift
        assert abs(scan.nu_hat[1]) < 0.2

    def test_symmetric_all_zero(self, srw2d):
        scan = zero_one_scan(srw2d, 82, 16, 250, 3000)
        assert scan.pattern is TransiencePattern.ALL_ZERO

    def test_requires_2d(self):
        model = Homogeneous(TransitionVector([0.7, 0.3]))
        with pytest.raises(Exception):
            zero_one_scan(model, 83, 16, 10, 100)
