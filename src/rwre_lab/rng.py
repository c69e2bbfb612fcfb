"""Counter-based random streams.

Every random quantity in this package is a pure function of a 64-bit stream
key and a draw index, with keys derived by hashing integer tuples such as
(master seed, walker id) or (environment seed, site coordinates).  Nothing
holds generator state, so any value can be recomputed in isolation, in any
order, on any worker, and two computations of the same value agree bitwise.

The underlying generator is splitmix64: the value at index ``t`` of the
stream with key ``k`` is ``finalize(k + t * GOLDEN)``.  Every sum and product
that can pass 2**64 is a ``np.add`` or ``np.multiply`` call, which wraps
silently for scalars and arrays alike; the operators would warn on scalars.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64

GOLDEN = U64(0x9E3779B97F4A7C15)
_MIX1 = U64(0xBF58476D1CE4E5B9)
_MIX2 = U64(0x94D049BB133111EB)
_IV = U64(0xD1B54A32D192ED03)

_INV_2_53 = 2.0 ** -53

# domain-separation tags for derived keys
TAG_SITE = 0x517E
TAG_STEP = 0x57E9
TAG_WALKER = 0x3A1C
TAG_ENV = 0xE52D
TAG_STAT = 0xB007


def as_u64(x) -> np.ndarray | np.uint64:
    """Reinterpret integers (scalars or arrays) as uint64, two's complement."""
    if isinstance(x, np.ndarray):
        if x.dtype == np.uint64:
            return x
        return np.ascontiguousarray(x, dtype=np.int64).view(np.uint64)
    return U64(int(x) & 0xFFFFFFFFFFFFFFFF)


def mix64(z):
    """splitmix64 finalizer: a bijective avalanche on 64 bits."""
    z = np.multiply(z ^ (z >> U64(30)), _MIX1)
    z = np.multiply(z ^ (z >> U64(27)), _MIX2)
    return z ^ (z >> U64(31))


def derive_key(*words):
    """Hash a tuple of integers (scalars or broadcastable arrays) into a key."""
    return fold_key(_IV, *words)


def fold_key(h, *words):
    """Continue a ``derive_key`` fold from the state ``h`` a prefix of the words left.

    ``derive_key(*w) == fold_key(derive_key(*w[:k]), *w[k:])`` bit for bit, so
    a prefix many keys share is hashed once.
    """
    for w in words:
        h = mix64(np.add(h, GOLDEN) ^ as_u64(w))
    return h


def _raw(key, index):
    return mix64(np.add(as_u64(key), np.multiply(GOLDEN, as_u64(index))))


def stream_u01(key, index):
    """Draw ``index`` of stream ``key``, uniform on [0, 1)."""
    return (_raw(key, index) >> U64(11)) * _INV_2_53


def stream_u01_open(key, index):
    """Uniform on (0, 1); safe as a log or power argument."""
    return ((_raw(key, index) >> U64(11)) + 0.5) * _INV_2_53


def stream_normal(key, index):
    """One standard normal per lane; consumes indices ``index`` and ``index + 1``."""
    u1 = stream_u01_open(key, index)
    u2 = stream_u01(key, np.add(as_u64(index), U64(1)))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

