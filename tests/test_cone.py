from fractions import Fraction

import numpy as np
import pytest

from rwre_lab import ConfigError, ConeSpec, Trajectory, cone_contains, detect_renewals
from rwre_lab.cone import DEFAULT_LAMBDA_GRID, _fresh, _levels, lambda_scan
from rwre_lab.stats import pooled_increments

DIAG = ConeSpec((1, 1), ((1, 1), (1, -1)), Fraction(1), (1, 0))


# ---------------------------------------------------------------- oracles

def contains_oracle(spec: ConeSpec, apex, x) -> bool:
    """Rational-arithmetic membership, independent of the integer fast path."""
    lam = spec.lam
    d = spec.dim
    rel = [Fraction(int(x[i]) - int(apex[i])) for i in range(d)]
    for k in range(d):
        face = [lam * spec.sigma[k] * spec.basis[k][i] + (1 - lam) * spec.l[i] for i in range(d)]
        if sum(f * r for f, r in zip(face, rel)) < 0:
            return False
    return True


def fresh_maxima_oracle(traj, l):
    pos = traj.positions()
    lv = pos @ np.asarray(l)
    out = []
    for n in range(1, pos.shape[0]):
        if lv[n] > max(lv[:n]) and lv[n] > 0:
            out.append(n)
    return out


def random_spec(rng) -> ConeSpec:
    d = int(rng.integers(1, 4))
    while True:
        basis = rng.integers(-3, 4, size=(d, d))
        if abs(np.linalg.det(basis.astype(float))) < 0.5:
            continue
        sigma = tuple(int(s) for s in rng.choice([-1, 1], size=d))
        l = rng.integers(-3, 4, size=d)
        if not l.any():
            continue
        g = np.gcd.reduce(np.abs(l[l != 0]))
        l = l // g
        q = int(rng.integers(1, 9))
        p = int(rng.integers(1, q + 1))
        try:
            return ConeSpec(
                sigma,
                tuple(tuple(int(v) for v in row) for row in basis),
                Fraction(p, q),
                tuple(int(v) for v in l),
                check_direction=False,
            )
        except ConfigError:
            continue


# ---------------------------------------------------------------- ConeSpec

class TestConeSpec:
    def test_rejects_dependent_basis(self):
        with pytest.raises(ConfigError, match="linearly independent"):
            ConeSpec((1, 1), ((1, 2), (2, 4)), Fraction(1), (1, 0))

    def test_rejects_degenerate_faces(self):
        # the basis is independent, but its face rows at lambda = 1/2 are (0, 0) and (-1, 1)
        with pytest.raises(ConfigError, match="the cone is degenerate"):
            ConeSpec((1, 1), ((1, 0), (0, 1)), Fraction(1, 2), (-1, 0), check_direction=False)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ConfigError):
            ConeSpec((1, 0), ((1, 0), (0, 1)), Fraction(1), (1, 1))

    def test_rejects_bad_lambda(self):
        with pytest.raises(ConfigError):
            ConeSpec((1,), ((1,),), Fraction(0), (1,))
        with pytest.raises(ConfigError):
            ConeSpec((1,), ((1,),), Fraction(3, 2), (1,))

    def test_rejects_non_primitive_l(self):
        with pytest.raises(ConfigError):
            ConeSpec((1, 1), ((1, 0), (0, 1)), Fraction(1), (2, 4))

    def test_direction_condition_enforced(self):
        # l = (1, 0) is orthogonal to the extreme ray (0, 1) of the standard quadrant
        with pytest.raises(ConfigError):
            ConeSpec((1, 1), ((1, 0), (0, 1)), Fraction(1, 2), (1, 0))
        ConeSpec((1, 1), ((1, 0), (0, 1)), Fraction(1, 2), (1, 0), check_direction=False)

    def test_rejects_faces_past_int64(self):
        # its face rows at lambda = 1/5 are (2**64 + 1, 4) and (2**64, 5)
        with pytest.raises(ConfigError, match="past int64"):
            ConeSpec((1, 1), ((1, 0), (0, 1)), Fraction(1, 5), (2**62, 1))

    def test_diagonal_basis_is_valid(self):
        assert DIAG.matrix.tolist() == [[1, 1], [1, -1]]

    def test_lambda_string_accepted(self):
        spec = ConeSpec((1, 1), ((1, 1), (1, -1)), "1/2", (1, 0))
        assert spec.lam == Fraction(1, 2)

    def test_integral_entries_are_read_exactly(self):
        spec = ConeSpec((1.0, np.int64(1)), ((1, 1.0), np.asarray([1, -1])), "1/2", (np.float64(1), 0))
        assert (spec.sigma, spec.basis, spec.l) == ((1, 1), ((1, 1), (1, -1)), (1, 0))
        assert all(type(x) is int for x in spec.sigma + spec.l + spec.basis[1])

    @pytest.mark.parametrize(
        "sigma, basis, l, name",
        [
            ((1, 1), ((1, 1), (1, -1)), (1.7, 0.2), "l must hold integers, got 1.7"),  # once read as l = (1, 0)
            ((1, 1), ((1.9, 1), (1, -1)), (1, 0), "basis must hold integers, got 1.9"),  # once read as row (1, 1)
            ((1, 1), ((1, 1), (1, -1)), (float("nan"), 1), "l must hold integers, got nan"),
            ((True, 1), ((1, 1), (1, -1)), (1, 0), "sigma must hold integers, got True"),
            ((1, 1), ((1, 1), 7), (1, 0), "basis must be a vector of integers, got 7"),
            ((1, 1), 7, (1, 0), "basis must be a list of integer vectors"),
        ],
        ids=["fractional-l", "fractional-basis", "nan-l", "bool-sigma", "scalar-row", "scalar-basis"],
    )
    def test_refuses_entries_that_are_not_integers_by_name(self, sigma, basis, l, name):
        with pytest.raises(ConfigError, match=name):
            ConeSpec(sigma, basis, "1/2", l)


class TestConeContains:
    def test_apex_always_inside(self):
        assert cone_contains(DIAG, (3, -7), (3, -7))

    def test_lambda_one_reduces_to_signed_basis(self, rng):
        # with lambda = 1 membership must equal the sign checks on the basis
        spec = ConeSpec((1, -1), ((2, 1), (1, 1)), Fraction(1), (1, 1), check_direction=False)
        pts = rng.integers(-6, 7, size=(200, 2))
        for x in pts:
            by_signs = (2 * x[0] + x[1] >= 0) and (-(x[0] + x[1]) >= 0)
            assert cone_contains(spec, (0, 0), x) == by_signs

    def test_hand_computed_interpolation(self):
        # basis e1, e2, sigma (+,+), l = (1,1), lambda 1/2: faces are
        # (1/2)(1,0) + (1/2)(1,1) -> (2,1) and (1/2)(0,1) + (1/2)(1,1) -> (1,2);
        # x = (1,-1) satisfies the first and fails the second
        spec = ConeSpec((1, 1), ((1, 0), (0, 1)), Fraction(1, 2), (1, 1))
        assert spec.matrix.tolist() == [[2, 1], [1, 2]]
        assert not cone_contains(spec, (0, 0), (1, -1))
        assert cone_contains(spec, (0, 0), (1, 0))

    def test_refuses_a_fractional_point(self):
        # (-0.5, 0) . (2, 1) < 0 is outside the cone; truncated to the apex it would be inside
        spec = ConeSpec((1, 1), ((1, 0), (0, 1)), Fraction(1, 2), (1, 1))
        with pytest.raises(ConfigError, match="x must hold integers, got -0.5"):
            cone_contains(spec, (0, 0), (-0.5, 0))
        with pytest.raises(ConfigError, match=r"apex must have 2 entries \(the dimension\), got 3"):
            cone_contains(spec, (0, 0, 0), (1, 0))
        assert cone_contains(spec, (0.0, 0), (1.0, 0))

    def test_batch_refuses_a_fractional_point(self):
        # (-0.5, 0) is outside the cone; read as int64 it was truncated to the apex and read inside
        spec = ConeSpec((1, 1), ((1, 0), (0, 1)), Fraction(1, 2), (1, 1))
        with pytest.raises(ConfigError, match="points must hold integers int64 holds, got -0.5"):
            spec.contains((0, 0), [(-0.5, 0)])
        with pytest.raises(ConfigError, match="apex must hold integers, got 0.5"):
            spec.contains((0.5, 0), [(1, 0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2.0**63], ids=str)
    def test_batch_refuses_a_non_finite_or_too_large_point(self, bad):
        with pytest.raises(ConfigError, match="points must hold integers"):
            DIAG.contains((0, 0), np.asarray([[1.0, 0.0], [bad, 0.0]]))

    def test_batch_refuses_bools(self):
        with pytest.raises(ConfigError, match=r"points must hold integers int64 holds, got True \(bool\)"):
            DIAG.contains((0, 0), np.asarray([[True, False]]))

    @pytest.mark.parametrize(
        "pts",
        [[("1", "0")], [(Fraction(1, 2), 0)], np.asarray([[1, 0]], dtype=np.uint64)],
        ids=["str", "fraction", "uint64"],
    )
    def test_batch_refuses_other_dtypes(self, pts):
        with pytest.raises(ConfigError, match="points must hold integers"):
            DIAG.contains((0, 0), pts)

    @pytest.mark.parametrize("apex", [(0,), (0, 0, 0)], ids=str)
    def test_batch_refuses_an_apex_of_the_wrong_length(self, apex):
        with pytest.raises(ConfigError, match=r"apex must have 2 entries \(the dimension\)"):
            DIAG.contains(apex, [(1, 0)])
        with pytest.raises(ConfigError, match="points must have 2 coordinates"):
            DIAG.contains((0, 0), [(1, 0, 0)])

    def test_batch_reads_integral_floats_and_integer_arrays_exactly(self, rng):
        spec = ConeSpec((1, 1), ((1, 0), (0, 1)), Fraction(1, 2), (1, 1))
        pts = rng.integers(-6, 7, size=(50, 2))
        want = [cone_contains(spec, (1, -1), x) for x in pts]
        for arr in (pts, pts.astype(np.int32), pts.astype(np.float64)):
            assert spec.contains((1.0, -1), arr).tolist() == want

    def test_matches_rational_oracle(self, rng):
        for _ in range(300):
            spec = random_spec(rng)
            apex = rng.integers(-10, 11, size=spec.dim)
            x = rng.integers(-10, 11, size=spec.dim)
            assert cone_contains(spec, apex, x) == contains_oracle(spec, apex, x)


# ---------------------------------------------------------------- fresh maxima

def fresh_along(traj, l):
    """The fresh maxima a renewal run reads along l: ``_levels`` of a cone with direction l."""
    d = len(l)
    basis = tuple(tuple(int(i == k) for i in range(d)) for k in range(d))
    return _levels(traj, ConeSpec((1,) * d, basis, Fraction(1, 2), l, check_direction=False))[2]


class TestFreshMaxima:
    def test_monotone_path(self):
        t = Trajectory(np.zeros(12, np.int8), 2, 0)
        assert fresh_along(t, (1, 0)).tolist() == list(range(1, 13))

    def test_hand_case(self):
        # +e1, -e1, +e1, +e1: levels 1,0,1,2 -> fresh at 1 and 4
        t = Trajectory(np.asarray([0, 1, 0, 0], np.int8), 1, 0)
        assert fresh_along(t, (1,)).tolist() == [1, 4]

    def test_matches_quadratic_oracle(self, rng):
        for _ in range(25):
            steps = rng.integers(0, 4, size=rng.integers(1, 150)).astype(np.int8)
            t = Trajectory(steps, 2, 0)
            l = (1, 0) if rng.integers(2) else (0, 1)
            want = fresh_maxima_oracle(t, l)
            assert fresh_along(t, l).tolist() == _fresh(t.positions() @ np.asarray(l)).tolist() == want


# ---------------------------------------------------------------- renewal detection

def recheck_record(traj, spec, H, rec):
    """Post-hoc oracle: fresh maximum plus windowed containment, via cone_contains."""
    pos = traj.positions()
    lv = pos @ np.asarray(spec.l)
    for tau in rec.times[: rec.n_confirmed]:
        assert (lv[:tau] < lv[tau]).all(), "confirmed renewal is not a fresh maximum"
        for m in range(tau, min(len(traj), tau + H) + 1):
            assert cone_contains(spec, pos[tau], pos[m]), "path leaves the cone in the window"


class TestDetectRenewals:
    def test_straight_path_confirms_everything(self):
        # spec with the standard basis needs the direction check disabled
        n, H = 60, 10
        spec = ConeSpec((1, 1), ((1, 0), (0, 1)), Fraction(1, 2), (1, 0), check_direction=False)
        t = Trajectory(np.zeros(n, np.int8), 2, 0)
        rec = detect_renewals(t, spec, H)
        assert rec.times[: rec.n_confirmed].tolist() == list(range(1, n - H + 1))
        assert rec.censored_tail
        assert rec.times[-1] == n - H + 1

    def test_immediate_exit_gives_empty_record(self):
        # levels 1,2,1,0 repeating: both fresh maxima fail their windows
        spec = ConeSpec((1,), ((1,),), Fraction(1), (1,))
        t = Trajectory(np.asarray([0, 0, 1, 1] * 5, np.int8), 1, 0)
        rec = detect_renewals(t, spec, 4)
        assert rec.times.size == 0
        assert not rec.censored_tail

    def test_alternating_single_candidate(self):
        spec = ConeSpec((1,), ((1,),), Fraction(1), (1,))
        t = Trajectory(np.asarray([0, 1] * 10, np.int8), 1, 0)
        rec = detect_renewals(t, spec, 5)
        assert rec.times.size == 0

    def test_posthoc_oracle_on_random_drifted_paths(self, rng):
        for _ in range(25):
            steps = rng.choice(4, size=400, p=[0.45, 0.1, 0.225, 0.225]).astype(np.int8)
            t = Trajectory(steps, 2, 0)
            H = int(rng.integers(5, 60))
            rec = detect_renewals(t, DIAG, H)
            recheck_record(t, DIAG, H, rec)
            levels = rec.positions @ np.asarray(DIAG.l)
            assert (np.diff(levels) > 0).all()

    def test_monotone_in_confirm_horizon(self, rng):
        steps = rng.choice(4, size=2000, p=[0.45, 0.1, 0.225, 0.225]).astype(np.int8)
        t = Trajectory(steps, 2, 0)
        counts = [detect_renewals(t, DIAG, H).n_confirmed for H in (10, 40, 160, 640)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_increments_exclude_censored_tail(self):
        n, H = 40, 10
        spec = ConeSpec((1,), ((1,),), Fraction(1), (1,))
        t = Trajectory(np.zeros(n, np.int8), 1, 0)
        rec = detect_renewals(t, spec, H)
        inc = pooled_increments([rec])
        assert inc.shape[0] == rec.n_confirmed - 1
        assert (inc == 1).all()

    def test_dimension_mismatch(self):
        t = Trajectory(np.zeros(5, np.int8), 1, 0)
        with pytest.raises(ConfigError):
            detect_renewals(t, DIAG, 5)


def scan_cones(lambdas, sigma=(1, 1), basis=((1, 1), (1, -1)), l=(1, 0), check_direction=True) -> list[ConeSpec]:
    """One cone per weight, alike in everything else."""
    return [ConeSpec(sigma, basis, lam, l, check_direction) for lam in lambdas]


class TestLambdaScan:
    def test_single_lambda_above_floor(self, drift2d):
        res = lambda_scan(
            drift2d, 3, scan_cones((Fraction(1, 2),)), n_walks=60, horizon=1500, confirm_horizon=150, rate_floor=0.5
        )
        assert res.found
        assert res.chosen == Fraction(1, 2)

    def test_drifted_model_accepts_largest(self, drift2d):
        res = lambda_scan(
            drift2d, 3, scan_cones(DEFAULT_LAMBDA_GRID), n_walks=80, horizon=2000, confirm_horizon=200, rate_floor=0.5
        )
        assert res.found
        assert res.chosen == Fraction(1)
        rates = {str(r.lam): r.rate_per_1k for r in res.rows}
        assert rates["1/2"] > rates["1"] > 1.0

    def test_symmetric_model_finds_nothing(self, srw2d):
        res = lambda_scan(
            srw2d, 4, scan_cones(DEFAULT_LAMBDA_GRID), n_walks=60, horizon=4000, confirm_horizon=1000, rate_floor=0.5
        )
        assert not res.found
        assert res.chosen is None

    def test_no_cone_is_refused(self, drift2d):
        with pytest.raises(ConfigError, match="at least one cone"):
            lambda_scan(drift2d, 3, [], n_walks=5, horizon=100, confirm_horizon=10, rate_floor=0.5)

    @pytest.mark.parametrize(
        "other",
        [
            pytest.param({"sigma": (1, -1)}, id="sigma"),
            pytest.param({"basis": ((3, -2), (-2, 3))}, id="basis"),
            pytest.param({"l": (1, 1)}, id="l"),
            pytest.param({"check_direction": True}, id="check_direction"),
        ],
    )
    def test_cones_differing_in_more_than_lambda_are_refused(self, drift2d, other):
        # every cone here is built unchecked, so each differs from the first in the one field named
        cones = scan_cones((Fraction(1),), check_direction=False) + scan_cones(
            (Fraction(1, 2),), **{"check_direction": False, **other}
        )
        with pytest.raises(ConfigError, match="differ only in lambda"):
            lambda_scan(drift2d, 3, cones, n_walks=5, horizon=100, confirm_horizon=10, rate_floor=0.5)
