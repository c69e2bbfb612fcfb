"""The counter hash against its earlier form, which wrapped inside ``np.errstate``.

``ref_mix64``, ``ref_derive_key``, ``ref_raw`` and ``ref_stream_normal`` are
the hash and the normal draw as they were when each wrapping sum and product
ran under ``np.errstate(over="ignore")``, kept as oracles.  The hash now wraps
through ``np.add`` and ``np.multiply``; it must give the same bytes, type and
shape for scalar and array keys and indices, including the edges 0, 2**63 and
2**64 - 1, without a warning or a floating-point error even when every error
raises.
"""

import warnings

import numpy as np
import pytest

from rwre_lab.rng import GOLDEN, TAG_SITE, U64, _IV, _MIX1, _MIX2, _raw, as_u64, derive_key, mix64, stream_normal


def ref_mix64(z):
    with np.errstate(over="ignore"):
        z = (z ^ (z >> U64(30))) * _MIX1
        z = (z ^ (z >> U64(27))) * _MIX2
        return z ^ (z >> U64(31))


def ref_derive_key(*words):
    h = _IV
    with np.errstate(over="ignore"):
        for w in words:
            h = ref_mix64((h + GOLDEN) ^ as_u64(w))
    return h


def ref_raw(key, index):
    with np.errstate(over="ignore"):
        return ref_mix64(as_u64(key) + GOLDEN * as_u64(index))


def ref_stream_normal(key, index):
    with np.errstate(over="ignore"):
        idx2 = as_u64(index) + U64(1)
    u1 = ((ref_raw(key, index) >> U64(11)) + 0.5) * 2.0**-53
    u2 = (ref_raw(key, idx2) >> U64(11)) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


EDGES = [0, 1, 2**63, 2**64 - 1]
EDGE_ARRAY = np.asarray(EDGES, dtype=np.uint64)

# scalars as Python ints and as numpy scalars, the edge array, and a broadcast grid
OPERANDS = (
    [(k, i) for k in EDGES for i in EDGES]
    + [(U64(k), U64(i)) for k in EDGES for i in (0, 2**64 - 1)]
    + [(EDGE_ARRAY, 2**64 - 1), (2**64 - 1, EDGE_ARRAY), (EDGE_ARRAY, EDGE_ARRAY)]
    + [(EDGE_ARRAY[:, None], EDGE_ARRAY[None, :])]
)


def same(got, want):
    return type(got) is type(want) and np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


def strictly(fn, *args):
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        return fn(*args)


@pytest.mark.parametrize("z", EDGES + [EDGE_ARRAY], ids=str)
def test_mix64_matches_errstate_form(z):
    z = as_u64(z)
    assert same(strictly(mix64, z), ref_mix64(z))


@pytest.mark.parametrize("key, index", OPERANDS, ids=lambda x: str(np.shape(x)) if isinstance(x, np.ndarray) else str(x))
def test_raw_and_normal_match_errstate_form(key, index):
    assert same(strictly(_raw, key, index), ref_raw(key, index))
    assert same(strictly(stream_normal, key, index), ref_stream_normal(key, index))


@pytest.mark.parametrize("key, index", OPERANDS, ids=lambda x: str(np.shape(x)) if isinstance(x, np.ndarray) else str(x))
def test_derive_key_matches_errstate_form(key, index):
    assert same(strictly(derive_key, key, TAG_SITE, index), ref_derive_key(key, TAG_SITE, index))
    assert same(strictly(derive_key, key), ref_derive_key(key))
    assert same(strictly(derive_key), ref_derive_key())
