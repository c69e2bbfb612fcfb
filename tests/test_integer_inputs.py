"""Library entry points read their integer arguments by ``lattice.read_integer``, rationals by
``lattice.read_rational``, floats by ``lattice.read_float``, integer directions by ``lattice.read_direction``
and Dirichlet concentrations by one reader in ``env``.

An integral number is its integer (10.0 is 10); a bool, a fraction or anything
else is refused with a ``ConfigError`` that names the argument.  Each refused
case below was once truncated (2.5 read as 2, True as 1) or ended in a bare
``TypeError``.  A count is read with its lower bound, and one below it is
refused in the same words whichever function takes it.  A rational is read by
its decimal text (0.1 is 1/10), as the config always read it; a cone once took
``Fraction(lam)`` of whatever it got.
"""

import math
import re
import time
from fractions import Fraction

import numpy as np
import pytest

from rwre_lab import (
    BoxRegion,
    ConeSpec,
    ConfigError,
    Dirichlet,
    IntervalRegion,
    QuenchedEnvironment,
    SlabRegion,
    annealed_exit,
    detect_renewals,
    gamblers_ruin,
    lambda_scan,
    perturbed_srw,
    run_slab_ensemble,
    sample_dirichlet,
    simulate,
    slab_exit_side,
)
from rwre_lab.cli import _FLOAT, _INTEGER, _RATIONAL
from rwre_lab.cone import _levels
from rwre_lab.lattice import read_float, read_integer, read_rational
from rwre_lab.rng import derive_key
from rwre_lab.stats import (
    classify_transience,
    final_clustering,
    orthogonal_oscillation,
    renewal_mean_identity,
    slab_exit_decay,
    zero_one_scan,
)
from rwre_lab.walk import simulate_ensemble

MODEL = perturbed_srw(0.1, 1, 2)
SPEC = ConeSpec((1, 1), ((1, 1), (1, -1)), Fraction(1, 2), (1, 0))


def records():
    return [detect_renewals(t, SPEC, 20) for t in simulate_ensemble(MODEL, 3, 4, 400)]


def one_walk(n):
    return simulate_ensemble(MODEL, 3, 1, n)[0]


CASES = [
    pytest.param(lambda h: detect_renewals(one_walk(50), SPEC, h), 2.5, "confirm_horizon", id="renewals-fraction"),
    pytest.param(lambda h: detect_renewals(one_walk(50), SPEC, h), True, "confirm_horizon", id="renewals-bool"),
    pytest.param(lambda h: lambda_scan(MODEL, 3, [SPEC], 2, 50, h, 0.5), 2.5, "confirm_horizon", id="lambda-scan"),
    pytest.param(lambda k: orthogonal_oscillation(records(), (1, 0), (0, k)), 1.5, "l_star", id="oscillation"),
    pytest.param(lambda i: renewal_mean_identity(records(), SPEC, window=(i, 20)), 1.5, "window", id="identity"),
    pytest.param(lambda x: BoxRegion((x, -1), (1, 1)).build(QuenchedEnvironment(MODEL, 1)), -1.5, "lo", id="box"),
    # an interval's bounds were once taken as given, and each of these failed only later in ``build``
    pytest.param(lambda hi: IntervalRegion(-2, hi), 2.5, "hi", id="interval-hi"),
    pytest.param(lambda lo: IntervalRegion(lo, 3), -1.5, "lo", id="interval-lo"),
    pytest.param(lambda lo: IntervalRegion(lo, 4), True, "lo", id="interval-bool"),
    pytest.param(lambda w: SlabRegion((1.0, 0.0), 1.0, 3.0, w), 2.5, "bound_width", id="slab-fraction"),
    pytest.param(lambda w: SlabRegion((1.0, 0.0), 1.0, 3.0, w), True, "bound_width", id="slab-bool"),
    pytest.param(lambda m: gamblers_ruin(0.6, m, 3), 2.5, "M", id="ruin-M"),
    pytest.param(lambda n: gamblers_ruin(0.6, 3, n), 2.5, "N_right", id="ruin-N_right"),
    pytest.param(lambda n: zero_one_scan(MODEL, 3, n, 2, 10), 4.5, "n_angles", id="zero-one-scan"),
    # counts were once truncated (2.5 walks ran 3 walkers and tallied 2.5), kept as a bool, or a bare TypeError
    pytest.param(lambda n: run_slab_ensemble(MODEL, 1, n, [1, 0], 1.0, [3.0], 50), 2.5, "n_walks", id="slab-walks"),
    pytest.param(lambda n: run_slab_ensemble(MODEL, 1, n, [1, 0], 1.0, [3.0], 50), True, "n_walks", id="walks-bool"),
    pytest.param(lambda h: run_slab_ensemble(MODEL, 1, 4, [1, 0], 1.0, [3.0], h), 50.5, "horizon", id="slab-horizon"),
    pytest.param(lambda n: slab_exit_decay(MODEL, 1, [1, 0], 1.0, [3.0], n, 50), 2.5, "n_walks", id="slab-decay"),
    pytest.param(lambda n: simulate_ensemble(MODEL, 3, n, 10), 2.5, "n_walks", id="ensemble-walks"),
    pytest.param(lambda h: simulate_ensemble(MODEL, 3, 2, h), 10.5, "horizon", id="ensemble-horizon"),
    pytest.param(lambda f: simulate_ensemble(MODEL, 3, 2, 10, f), 1.5, "first", id="ensemble-first"),
    pytest.param(lambda h: simulate(QuenchedEnvironment(MODEL, 1), 5, h), 10.5, "horizon", id="simulate-horizon"),
    pytest.param(
        lambda n: annealed_exit(MODEL, IntervalRegion(-2, 2), (0,), "Right", n, 3), 2.5, "n_env", id="annealed-n_env"
    ),
    pytest.param(lambda n: renewal_mean_identity(records(), SPEC, n_boot=n), 100.5, "n_boot", id="identity-n_boot"),
]


@pytest.mark.parametrize("call, bad, name", CASES)
def test_entry_point_refuses_a_non_integer_by_name(call, bad, name):
    with pytest.raises(ConfigError, match=f"^{name} must (be an integer|hold integers), got {bad!r}$"):
        call(bad)


def scan_no_walks(confirm_horizon=5, horizon=50):
    return lambda_scan(MODEL, 3, [SPEC], 0, horizon, confirm_horizon, 0.5)


# lambda_scan reads its windows before any walk, so no walk is needed to refuse them; with no walks it once
# returned a rate-0 row for a window of 0 or "x"
SCAN_WINDOWS = [
    (lambda h: scan_no_walks(confirm_horizon=h), 0, "confirm_horizon must be at least 1"),
    (lambda h: scan_no_walks(confirm_horizon=h), "x", "confirm_horizon must be an integer, got 'x'"),
    (lambda n: scan_no_walks(horizon=n), -1, "horizon must be at least 0"),
    (lambda n: scan_no_walks(horizon=n), 2.5, "horizon must be an integer, got 2.5"),
]


@pytest.mark.parametrize("call, bad, refusal", SCAN_WINDOWS)
def test_lambda_scan_refuses_its_windows_with_no_walks(call, bad, refusal):
    with pytest.raises(ConfigError, match=f"^{re.escape(refusal)}$"):
        call(bad)


@pytest.mark.parametrize("n_boot", [0, -1])
def test_identity_refuses_fewer_than_one_resample(n_boot):
    with pytest.raises(ConfigError, match="^n_boot must be at least 1$"):
        renewal_mean_identity(records(), SPEC, n_boot=n_boot)


def steps(walks):
    return [w.steps.tolist() for w in walks]


# (call, the count's lower bound, its name): each count is refused one below its bound in one wording, and read
# at its bound, as an int and as an integral float, to the same result
BOUNDS = [
    pytest.param(lambda h: simulate(QuenchedEnvironment(MODEL, 1), 5, h).steps.tolist(), 0, "horizon", id="simulate"),
    pytest.param(lambda n: steps(simulate_ensemble(MODEL, 3, n, 10)), 0, "n_walks", id="ensemble-walks"),
    pytest.param(lambda h: steps(simulate_ensemble(MODEL, 3, 2, h)), 0, "horizon", id="ensemble-horizon"),
    pytest.param(lambda f: steps(simulate_ensemble(MODEL, 3, 2, 10, f)), 0, "first", id="ensemble-first"),
    pytest.param(lambda n: run_slab_ensemble(MODEL, 1, n, [1, 0], 1.0, [3.0], 50), 0, "n_walks", id="slab-walks"),
    pytest.param(lambda h: run_slab_ensemble(MODEL, 1, 4, [1, 0], 1.0, [3.0], h), 0, "horizon", id="slab-horizon"),
    pytest.param(lambda h: detect_renewals(one_walk(50), SPEC, h).times.tolist(), 1, "confirm_horizon", id="renewals"),
    pytest.param(lambda n: repr(renewal_mean_identity(records(), SPEC, n_boot=n)), 1, "n_boot", id="identity-n_boot"),
    pytest.param(lambda n: repr(zero_one_scan(MODEL, 3, n, 2, 10)), 4, "n_angles", id="zero-one-scan"),
    pytest.param(lambda w: SlabRegion((1.0, 0.0), 1.0, 3.0, w), 1, "bound_width", id="slab-region"),
    pytest.param(lambda m: gamblers_ruin(0.6, m, 3), 1, "M", id="ruin-M"),
    pytest.param(lambda n: gamblers_ruin(0.6, 3, n), 1, "N_right", id="ruin-N_right"),
    pytest.param(
        lambda n: annealed_exit(perturbed_srw(0.1, 1, 1), IntervalRegion(-2, 2), (0,), "Right", n, 3).mean,
        1,
        "n_env",
        id="n_env",
    ),
]


@pytest.mark.parametrize("call, least, name", BOUNDS)
def test_count_is_read_with_its_bound(call, least, name):
    for below in (least - 1, float(least - 1)):
        with pytest.raises(ConfigError, match=f"^{name} must be at least {least}$"):
            call(below)
    assert call(least) == call(float(least))


def cone_along(l):
    return ConeSpec((1, 1), ((1, 1), (1, -1)), "1/2", l)


# (l, refusal): ConeSpec reads an integer direction by the one rule of lattice.read_direction, and a run reads its
# fresh maxima along the cone's l (cone._levels)
DIRECTIONS = [
    ((0, 0), r"^l must be a nonzero integer vector with gcd 1, got \(0, 0\)$"),
    ((2, 0), r"^l must be a nonzero integer vector with gcd 1, got \(2, 0\)$"),
    ((2, -4), r"^l must be a nonzero integer vector with gcd 1, got \(2, -4\)$"),
    ((1.5, 0), "^l must hold integers, got 1.5$"),
    ((True, 0), "^l must hold integers, got True$"),
    ((1, 0, 0), r"^l must have 2 entries \(the dimension\), got 3$"),
    (1, "^l must be a vector of integers, got 1$"),
]


@pytest.mark.parametrize("l, refusal", DIRECTIONS, ids=repr)
def test_cone_and_fresh_maxima_share_one_direction_rule(l, refusal):
    with pytest.raises(ConfigError, match=refusal):
        cone_along(l)


def test_integral_directions_read_as_their_integers():
    traj = one_walk(200)
    for l in ((1.0, 0), np.array([1, 0]), np.array([1.0, 0.0])):
        assert cone_along(l).l == (1, 0) and all(type(x) is int for x in cone_along(l).l)
        assert _levels(traj, cone_along(l))[2].tolist() == _levels(traj, cone_along((1, 0)))[2].tolist()


# (alphas, refusal): Dirichlet and sample_dirichlet read concentrations by one rule; "1.5" and True were once read
# by Dirichlet as 1.5 and 1.0, and sample_dirichlet ended a nested or non-numeric vector in a bare ValueError
CONCENTRATIONS = [
    ((), r"^Dirichlet concentrations must be positive, got \[\]$"),
    ((1.0, 0.0), r"^Dirichlet concentrations must be positive, got \[1.0, 0.0\]$"),
    ((1.0, -1.0), r"^Dirichlet concentrations must be positive, got \[1.0, -1.0\]$"),
    ((math.inf, 1.0), "^a Dirichlet concentration must be a finite number, got inf$"),
    ((1.0, math.nan), "^a Dirichlet concentration must be a finite number, got nan$"),
    ((True, 1.0), "^a Dirichlet concentration must be a finite number, got True$"),
    (("1.5", 1.0), "^a Dirichlet concentration must be a finite number, got '1.5'$"),
    (((1.0, 1.0),), r"^a Dirichlet concentration must be a finite number, got \(1.0, 1.0\)$"),
    (7, "^Dirichlet concentrations must be a vector of numbers, got 7$"),
]


@pytest.mark.parametrize("alphas, refusal", CONCENTRATIONS, ids=repr)
def test_dirichlet_and_its_sampler_share_one_concentration_rule(alphas, refusal):
    with pytest.raises(ConfigError, match=refusal):
        Dirichlet(alphas)
    with pytest.raises(ConfigError, match=refusal):
        sample_dirichlet(alphas, derive_key(5, np.arange(3)))


def test_integral_concentrations_read_as_their_floats():
    keys = derive_key(5, np.arange(3))
    for alphas in ((2, 1), np.array([2, 1]), (np.float64(2.0), 1.0)):
        assert Dirichlet(alphas).alphas == (2.0, 1.0) and all(type(a) is float for a in Dirichlet(alphas).alphas)
        assert np.array_equal(sample_dirichlet(alphas, keys), sample_dirichlet((2.0, 1.0), keys))


FINAL = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])  # two antipodal clusters under theta_tol nan, max deviation pi/2


def slab_tallies(b=1.0, L=3.0):
    return run_slab_ensemble(MODEL, 1, 4, [1, 0], b, [2.0, L], 50)


# (call, bad value, refusal): each float threshold and parameter is read by lattice.read_float; a negative rate
# floor once chose lambda 1 whatever the rate, a bool or a numeric string was read as its float, and a string
# epsilon, p, b or L ended in a bare TypeError
FLOAT_CASES = [
    pytest.param(
        lambda t: final_clustering(FINAL, t), math.nan, "theta_tol must be a finite number, got nan", id="tol-nan"
    ),
    pytest.param(lambda t: final_clustering(FINAL, t), -0.1, "theta_tol must be at least 0", id="tol-negative"),
    pytest.param(
        lambda t: final_clustering(FINAL, t), "0.3", "theta_tol must be a finite number, got '0.3'", id="tol-str"
    ),
    pytest.param(
        lambda r: lambda_scan(MODEL, 3, [SPEC], 2, 50, 5, r), -1, "rate_floor must be at least 0", id="floor"
    ),
    pytest.param(
        lambda r: lambda_scan(MODEL, 3, [SPEC], 2, 50, 5, r),
        math.inf,
        "rate_floor must be a finite number, got inf",
        id="floor-inf",
    ),
    pytest.param(
        lambda t: classify_transience([one_walk(20)], (1, 0), level_threshold=t),
        True,
        "level_threshold must be a finite number, got True",
        id="threshold-bool",
    ),
    pytest.param(
        lambda t: classify_transience([one_walk(20)], (1, 0), level_threshold=t),
        "3",
        "level_threshold must be a finite number, got '3'",
        id="threshold-str",
    ),
    pytest.param(
        lambda d: classify_transience([one_walk(20)], (1, 0), dip_allowance=d),
        True,
        "dip_allowance must be a finite number, got True",
        id="dip-bool",
    ),
    pytest.param(
        lambda b: zero_one_scan(MODEL, 3, 4, 2, 10, orth_band=b), -0.5, "orth_band must be at least 0", id="band"
    ),
    pytest.param(lambda e: perturbed_srw(e, 1, 2), "0.1", "epsilon must be a finite number, got '0.1'", id="epsilon"),
    pytest.param(lambda p: gamblers_ruin(p, 3, 3), "0.6", "p must be a finite number, got '0.6'", id="ruin-p"),
    pytest.param(lambda b: slab_tallies(b=b), "1", "b must be a finite number, got '1'", id="b"),
    pytest.param(lambda L: slab_tallies(L=L), "3", "L must be a finite number, got '3'", id="L"),
    pytest.param(lambda b: SlabRegion([1, 0], b, 3.0, 2), True, "b must be a finite number, got True", id="region-b"),
    pytest.param(
        lambda L: slab_exit_side(one_walk(5), [1, 0], 1.0, L), None, "L must be a finite number, got None", id="side-L"
    ),
    pytest.param(
        lambda b: SlabRegion((1.0, 0.0), b, 3.0, 2), True, "b must be a finite number, got True", id="slab-region-b"
    ),
    pytest.param(
        lambda L: SlabRegion((1.0, 0.0), 1.0, L, 2), "3", "L must be a finite number, got '3'", id="slab-region-L"
    ),
]


@pytest.mark.parametrize("call, bad, refusal", FLOAT_CASES)
def test_float_threshold_refused_by_name(call, bad, refusal):
    with pytest.raises(ConfigError, match=f"^{re.escape(refusal)}$"):
        call(bad)


def test_float_parameters_read_numbers_of_any_type():
    assert perturbed_srw(np.float64(0.1), 1, 2) == perturbed_srw(0.1, 1, 2)
    assert gamblers_ruin(np.float64(0.5), 3, 3) == gamblers_ruin(0.5, 3, 3) == 0.5
    region = SlabRegion((1.0, 0.0), 1, np.float64(3), 2)
    assert region == SlabRegion((1.0, 0.0), 1.0, 3.0, 2) and type(region.b) is float and type(region.L) is float
    tallies = run_slab_ensemble(MODEL, 1, 4, [1, 0], np.int64(1), [2, np.float64(3)], 50)
    assert tallies == run_slab_ensemble(MODEL, 1, 4, [1, 0], 1.0, [2.0, 3.0], 50)


def test_float_thresholds_read_numbers_of_any_type():
    assert repr(final_clustering(FINAL, 0)) == repr(final_clustering(FINAL, np.float64(0.0)))
    scan = lambda_scan(MODEL, 3, [SPEC], 2, 50, 5, 0)
    assert repr(scan) == repr(lambda_scan(MODEL, 3, [SPEC], 2, 50, 5, np.int64(0)))
    trajs = [one_walk(20)]
    assert classify_transience(trajs, (1, 0), 3, 1) == classify_transience(trajs, (1, 0), 3.0, np.float64(1.0))


@pytest.mark.parametrize("x", [0.5, 3, -2.0, np.float64(2.5), 10**400, True, "3", None, math.nan, math.inf], ids=repr)
def test_config_and_library_share_one_float_reader(x):
    try:
        want = read_float(x, "value")
    except ConfigError as exc:
        with pytest.raises(ConfigError, match=re.escape(str(exc))):
            _FLOAT.read(x, 2)
    else:
        assert _FLOAT.read(x, 2) == want and type(want) is float


def test_integral_floats_read_as_their_integers():
    traj = one_walk(300)
    assert detect_renewals(traj, SPEC, 20.0).times.tolist() == detect_renewals(traj, SPEC, 20).times.tolist()
    assert gamblers_ruin(0.6, 5.0, np.float64(3)) == gamblers_ruin(0.6, 5, 3)
    assert type(SlabRegion((1.0, 0.0), 1.0, 3.0, 2.0).bound_width) is int
    assert IntervalRegion(-2.0, np.float64(2)) == IntervalRegion(-2, 2) and type(IntervalRegion(-2.0, 2).lo) is int
    (tally,) = run_slab_ensemble(MODEL, 1, 3.0, [1, 0], 1.0, [3.0], 50.0)
    assert type(tally.n_walks) is int and tally == run_slab_ensemble(MODEL, 1, 3, [1, 0], 1.0, [3.0], 50)[0]
    walks = simulate_ensemble(MODEL, 3, 2.0, 10.0, 1.0)
    assert [w.steps.tolist() for w in walks] == [w.steps.tolist() for w in simulate_ensemble(MODEL, 3, 3, 10)[1:]]
    env = QuenchedEnvironment(MODEL, 1)
    assert np.array_equal(BoxRegion((-1.0, -1), (1, 1)).build(env).sites, BoxRegion((-1, -1), (1, 1)).build(env).sites)


# (numpy scalar, read_float, read_integer, read_rational), None where the rule refuses it by name: a float16 or
# float32 once overflowed casting the float64 maximum, and a numpy bool is no number, as a Python bool is none
NUMPY_SCALARS = [
    (np.float16(0.5), 0.5, None, Fraction(1, 2)),
    (np.float32(0.1), float(np.float32(0.1)), None, Fraction(1, 10)),
    (np.float64(0.5), 0.5, None, Fraction(1, 2)),
    (np.float16(-2), -2.0, -2, Fraction(-2)),
    (np.float32(3), 3.0, 3, Fraction(3)),
    (np.float64(3), 3.0, 3, Fraction(3)),
    (np.int8(-3), -3.0, -3, Fraction(-3)),
    (np.int16(3), 3.0, 3, Fraction(3)),
    (np.int32(3), 3.0, 3, Fraction(3)),
    (np.int64(-(2**63)), -(2.0**63), -(2**63), Fraction(-(2**63))),
    (np.uint8(255), 255.0, 255, Fraction(255)),
    (np.uint16(3), 3.0, 3, Fraction(3)),
    (np.uint32(3), 3.0, 3, Fraction(3)),
    (np.uint64(2**64 - 1), 2.0**64, 2**64 - 1, Fraction(2**64 - 1)),
    (np.bool_(True), None, None, None),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "x, as_float, as_integer, as_rational", [pytest.param(*r, id=f"{type(r[0]).__name__}({r[0]})") for r in NUMPY_SCALARS]
)
def test_numpy_scalars_read_by_each_rule(x, as_float, as_integer, as_rational):
    for read, want in ((read_float, as_float), (read_integer, as_integer), (read_rational, as_rational)):
        if want is None:
            with pytest.raises(ConfigError, match=f"^x must be .*, got {re.escape(repr(x))}$"):
                read(x, "x")
        else:
            got = read(x, "x")
            assert got == want and type(got) is type(want)


def test_ints_past_the_float_range_refused_by_name():
    for x in (10**400, -(2**1024)):
        with pytest.raises(ConfigError, match=f"^x must be a finite number, got {x}$"):
            read_float(x, "x")
    assert read_float(2**1023, "x") == 2.0**1023


@pytest.mark.parametrize("x", [10, 10.0, 2**70, -3.0, 2.5, True, "3", None], ids=repr)
def test_config_and_library_share_one_integer_reader(x):
    try:
        want = read_integer(x, "value")
    except ConfigError as exc:
        with pytest.raises(ConfigError, match=str(exc)):
            _INTEGER.read(x, 2)
    else:
        assert _INTEGER.read(x, 2) == want and type(want) is int


# (value, the rational it reads as, or None when it is refused); each refused value once built a cone (True as
# lambda 1) or ended in a ValueError, OverflowError or TypeError that did not name lambda
RATIONALS = [
    (0.1, Fraction(1, 10)),  # Fraction(0.1) is 3602879701896397/36028797018963968
    ("1/2", Fraction(1, 2)),
    ("0.25", Fraction(1, 4)),
    (Fraction(1, 3), Fraction(1, 3)),
    (1, Fraction(1)),
    (np.int64(1), Fraction(1)),
    (np.float64(0.5), Fraction(1, 2)),
    (True, None),
    (False, None),
    (None, None),
    (float("nan"), None),
    (float("inf"), None),
    ("abc", None),
    ("1/0", None),
    ([1, 2], None),
]


@pytest.mark.parametrize("x, want", RATIONALS, ids=repr)
def test_cone_and_config_share_one_rational_reader(x, want):
    def cone(lam):
        return ConeSpec((1, 1), ((1, 1), (1, -1)), lam, (1, 0))

    if want is None:
        refusal = f" must be a rational such as '1/2' or a finite number, got {re.escape(repr(x))}$"
        with pytest.raises(ConfigError, match="^lambda" + refusal):
            cone(x)
        with pytest.raises(ConfigError, match="^value" + refusal):
            _RATIONAL.read(x, 2)
    else:
        for lam in (cone(x).lam, _RATIONAL.read(x, 2)):
            assert lam == want and type(lam) is Fraction and type(lam.numerator) is int


@pytest.mark.parametrize("text", ["1e10000000", "-1E-10000000", "0.5e+10000000"])
def test_rational_exponent_past_the_digit_limit_is_refused_quickly(text):
    # Fraction builds 10**exponent whole: "1e10000000" once took seconds before a range check refused it
    start = time.perf_counter()
    refusal = f"lambda must have a decimal exponent of at most 4300 in size, got '{text}'"
    with pytest.raises(ConfigError, match=f"^{re.escape(refusal)}$"):
        read_rational(text, "lambda")
    assert time.perf_counter() - start < 0.5


def test_rational_exponent_at_the_digit_limit_is_read():
    assert read_rational("1e4300", "lambda") == 10**4300 and read_rational("1e-4300", "lambda") == Fraction(1, 10**4300)
