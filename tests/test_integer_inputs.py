"""Library entry points read their integer arguments by ``lattice.read_integer``.

An integral number is its integer (10.0 is 10); a bool, a fraction or anything
else is refused with a ``ConfigError`` that names the argument.  Each refused
case below was once truncated (2.5 read as 2, True as 1) or ended in a bare
``TypeError``.
"""

from fractions import Fraction

import numpy as np
import pytest

from rwre_lab import (
    BoxRegion,
    ConeSpec,
    ConfigError,
    QuenchedEnvironment,
    SlabRegion,
    detect_renewals,
    gamblers_ruin,
    lambda_scan,
    perturbed_srw,
)
from rwre_lab.cli import _INTEGER
from rwre_lab.lattice import read_integer
from rwre_lab.stats import orthogonal_oscillation, renewal_mean_identity, zero_one_scan
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
    pytest.param(lambda w: SlabRegion((1.0, 0.0), 1.0, 3.0, w), 2.5, "bound_width", id="slab-fraction"),
    pytest.param(lambda w: SlabRegion((1.0, 0.0), 1.0, 3.0, w), True, "bound_width", id="slab-bool"),
    pytest.param(lambda m: gamblers_ruin(0.6, m, 3), 2.5, "M", id="ruin-M"),
    pytest.param(lambda n: gamblers_ruin(0.6, 3, n), 2.5, "N_right", id="ruin-N_right"),
    pytest.param(lambda n: zero_one_scan(MODEL, 3, n, 2, 10), 4.5, "n_angles", id="zero-one-scan"),
]


@pytest.mark.parametrize("call, bad, name", CASES)
def test_entry_point_refuses_a_non_integer_by_name(call, bad, name):
    with pytest.raises(ConfigError, match=f"^{name} must (be an integer|hold integers), got {bad!r}$"):
        call(bad)


def test_integral_floats_read_as_their_integers():
    traj = one_walk(300)
    assert detect_renewals(traj, SPEC, 20.0).times.tolist() == detect_renewals(traj, SPEC, 20).times.tolist()
    assert gamblers_ruin(0.6, 5.0, np.float64(3)) == gamblers_ruin(0.6, 5, 3)
    assert type(SlabRegion((1.0, 0.0), 1.0, 3.0, 2.0).bound_width) is int
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
