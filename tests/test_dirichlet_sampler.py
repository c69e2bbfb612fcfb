"""The Dirichlet sampler against its per-component oracle, byte for byte.

``ref_sample_dirichlet`` is the sampler as it was before the rejection loop
covered every component at once: one Marsaglia-Tsang loop (``ref_gamma_mt``)
per component, each over the lanes still pending.  Both read the attempt
budget and the round limit from ``rwre_lab.env`` at call time, so a test that
shrinks either reaches the same ``NumericError`` in both.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwre_lab import NumericError, sample_dirichlet
from rwre_lab import env
from rwre_lab.rng import U64, as_u64, derive_key, stream_normal, stream_u01_open


def ref_gamma_mt(alpha: float, keys: np.ndarray, base) -> np.ndarray:
    boost = alpha < 1.0
    a = alpha + 1.0 if boost else alpha
    d = a - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(keys.shape[0], dtype=np.float64)
    pending = np.arange(keys.shape[0])
    base = as_u64(base)
    attempt = 0
    while pending.size:
        if attempt == env._GAMMA_MAX_ATTEMPTS:
            raise NumericError("gamma sampler failed to accept within the attempt budget")
        idx = base + U64(4 * attempt)
        k = keys[pending]
        x = stream_normal(k, idx)
        u = stream_u01_open(k, idx + U64(2))
        v = (1.0 + c * x) ** 3
        ok = v > 0.0
        logv = np.log(np.where(ok, v, 1.0))
        accept = ok & (np.log(u) < 0.5 * x * x + d - d * v + d * logv)
        out[pending[accept]] = d * v[accept]
        pending = pending[~accept]
        attempt += 1
    if boost:
        ub = stream_u01_open(keys, base + U64(4 * env._GAMMA_MAX_ATTEMPTS))
        out *= ub ** (1.0 / alpha)
    return out


def ref_sample_dirichlet(alphas, keys) -> np.ndarray:
    alphas = np.asarray(alphas, dtype=np.float64)
    keys = np.atleast_1d(as_u64(np.asarray(keys)))
    n, k = keys.shape[0], alphas.size
    out = np.empty((n, k), dtype=np.float64)
    todo = np.arange(n)
    for rnd in range(env._DIRICHLET_MAX_ROUNDS):
        rbase = U64(rnd) * env._GAMMA_ROUND_STRIDE
        sub = keys[todo]
        g = np.empty((todo.size, k), dtype=np.float64)
        for j in range(k):
            g[:, j] = ref_gamma_mt(float(alphas[j]), sub, rbase + U64(j) * env._GAMMA_COMP_STRIDE)
        probs = g / g.sum(axis=1, keepdims=True)
        good = (probs >= env.ELLIPTICITY_FLOOR).all(axis=1)
        out[todo[good]] = probs[good]
        todo = todo[~good]
        if todo.size == 0:
            return out
    raise NumericError("Dirichlet sampler kept producing sub-elliptic vectors")


def outcome(sampler, alphas, keys):
    """The draws as (shape, bytes), or the NumericError's message."""
    try:
        draws = sampler(alphas, keys)
    except NumericError as exc:
        return str(exc)
    return draws.shape, draws.tobytes()


def assert_same(alphas, keys):
    got, want = outcome(sample_dirichlet, alphas, keys), outcome(ref_sample_dirichlet, alphas, keys)
    assert got == want
    return got


# alphas below 1 take the boost draw; 0.5 (boost exponent 2.0) and 1.0 (no boost) sit on the edges
alpha = st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.05, 0.99), st.floats(1.0, 8.0))
n_keys = st.one_of(st.sampled_from([0, 1]), st.integers(2, 2_000))


@example(alphas=[1.5, 1.2, 1.35, 1.35], n=125, seed=0, shared=False)
@example(alphas=[0.3, 0.8, 2.0, 0.5], n=1_024, seed=1, shared=False)
@example(alphas=[0.5, 0.5], n=0, seed=2, shared=False)
@example(alphas=[1.0], n=1, seed=3, shared=False)
# both samplers give up: the small alphas keep drawing sub-elliptic vectors
@example(alphas=[0.5, 0.0546875, 0.0546875, 0.0546875, 0.0625, 0.5, 0.0625], n=660, seed=0, shared=False)
@settings(max_examples=30, deadline=None)
@given(
    alphas=st.lists(alpha, min_size=1, max_size=8),
    n=n_keys,
    seed=st.integers(0, 2**64 - 1),
    shared=st.booleans(),
)
def test_matches_per_component_oracle(alphas, n, seed, shared):
    keys = derive_key(seed, np.arange(n))
    if shared and n:
        # every lane on one key, as transitions_for passes a single site's key
        keys = np.broadcast_to(keys[:1], (n,))
    got = assert_same(alphas, keys)
    if not isinstance(got, str):  # a NumericError's message, equal on both sides, has no shape
        assert got[0] == (n, len(alphas))


def test_several_redraw_rounds_match(monkeypatch):
    alphas, keys = (0.05, 0.5, 0.3), derive_key(17, np.arange(2_000))
    assert_same(alphas, keys)
    # the same keys do not all pass the ellipticity floor in one round
    monkeypatch.setattr(env, "_DIRICHLET_MAX_ROUNDS", 1)
    assert assert_same(alphas, keys) == "Dirichlet sampler kept producing sub-elliptic vectors"


def test_sub_elliptic_failure_matches():
    # the concentrations of the CLI's exit-4 case keep falling under the floor in every round
    keys = derive_key(5, np.arange(50))
    assert assert_same([0.01] * 4, keys) == "Dirichlet sampler kept producing sub-elliptic vectors"


@pytest.mark.parametrize("alphas", [(1.5, 1.2, 1.35, 1.35), (0.3, 0.8, 2.0, 0.5)], ids=str)
def test_attempt_budget_failure_matches(monkeypatch, alphas):
    keys = derive_key(23, np.arange(500))
    monkeypatch.setattr(env, "_GAMMA_MAX_ATTEMPTS", 1)
    assert assert_same(alphas, keys) == "gamma sampler failed to accept within the attempt budget"
    # a budget a few rejections deep still accepts, with the boost uniform moved past it
    monkeypatch.setattr(env, "_GAMMA_MAX_ATTEMPTS", 3)
    assert isinstance(assert_same(alphas, keys), tuple)
