"""Library entry points read their integer arguments by ``lattice.read_integer``, and rationals by
``lattice.read_rational``.

An integral number is its integer (10.0 is 10); a bool, a fraction or anything
else is refused with a ``ConfigError`` that names the argument.  Each refused
case below was once truncated (2.5 read as 2, True as 1) or ended in a bare
``TypeError``.  A rational is read by its decimal text (0.1 is 1/10), as the
config always read it; a cone once took ``Fraction(lam)`` of whatever it got.
"""

import re
from fractions import Fraction

import numpy as np
import pytest

from rwre_lab import (
    BoxRegion,
    ConeSpec,
    ConfigError,
    IntervalRegion,
    QuenchedEnvironment,
    SlabRegion,
    annealed_exit,
    detect_renewals,
    gamblers_ruin,
    lambda_scan,
    perturbed_srw,
    run_slab_ensemble,
    simulate,
)
from rwre_lab.cli import _INTEGER, _RATIONAL
from rwre_lab.lattice import read_integer
from rwre_lab.stats import orthogonal_oscillation, renewal_mean_identity, slab_exit_decay, zero_one_scan
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


@pytest.mark.parametrize("n_boot", [0, -1])
def test_identity_refuses_fewer_than_one_resample(n_boot):
    with pytest.raises(ConfigError, match="^n_boot must be at least 1$"):
        renewal_mean_identity(records(), SPEC, n_boot=n_boot)


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
