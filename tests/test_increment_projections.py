"""Increment statistics read from the records one projection at a time.

``increment_projections`` differences each record's projected confirmed
positions into one float64 array, and ``independence_test`` reads a records
ensemble one coordinate at a time through it.  The oracles below are the
pooled-array forms these replace: they must agree bit for bit, and the
renewal-identity run's statistics must not build the pooled array again.
``ref_pooled_increments`` is the second differencing loop that
``pooled_increments`` was before it became ``increment_projections`` onto the
identity matrix; it must give the same dtype, shape and values.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from rwre_lab import ConeSpec, Homogeneous, RenewalRecord, TransitionVector, cli, detect_renewals
from rwre_lab.stats import (
    Z95,
    IndependenceReport,
    InsufficientData,
    _LAG1_CHUNK,
    increment_projections,
    independence_test,
    pooled_increments,
)
from rwre_lab.walk import simulate_ensemble


def ref_pooled_increments(records) -> np.ndarray:
    """Confirmed renewal increments in walker order, in one (k, d) array of the records' dtype; (0, 0) for none."""
    if not records:
        return np.zeros((0, 0), dtype=np.int64)
    pos = [r.confirmed_positions for r in records if r.n_confirmed > 1]
    dtype = np.result_type(*(pos or [r.positions for r in records]))
    out = np.empty((sum(p.shape[0] - 1 for p in pos), records[0].positions.shape[1]), dtype=dtype)
    k = 0
    for p in pos:
        np.subtract(p[1:], p[:-1], out=out[k : k + p.shape[0] - 1])
        k += p.shape[0] - 1
    return out


def ref_projection(records, v) -> np.ndarray:
    """The projections of the pooled increments onto ``v``, as the identity's lhs CI read them."""
    return (ref_pooled_increments(records) @ np.asarray(v, dtype=np.int64)).astype(np.float64)


def ref_independence_test(increments):
    """``independence_test`` on a (k, d) array, with every coordinate's centred columns held whole."""
    inc = np.asarray(increments)
    if inc.ndim != 2 or inc.shape[0] < 100:
        return InsufficientData("need at least 100 increments")
    n = inc.shape[0] - 1
    r = np.empty(inc.shape[1])
    for k in range(inc.shape[1]):
        col = inc[:, k].astype(np.float64)
        x, y = col[:-1], col[1:]
        sx, sy = x.std(), y.std()
        if sx == 0.0 or sy == 0.0:
            return InsufficientData(f"coordinate {k} is degenerate (zero variance)")
        dx = x - x.mean()
        r[k] = float(np.mean(np.multiply(dx, y - y.mean(), out=dx)) / (sx * sy))
    z = np.arctanh(np.clip(r, -0.999999, 0.999999))
    half = Z95 / math.sqrt(max(n - 3, 1))
    lo = np.tanh(z - half)
    hi = np.tanh(z + half)
    passed = bool(np.all((lo <= 0.0) & (0.0 <= hi)))
    return IndependenceReport(r, lo, hi, n + 1, passed)


def assert_same_report(got, want):
    assert type(got) is type(want)
    if isinstance(want, InsufficientData):
        assert got == want
        return
    for name in ("lag1", "ci_low", "ci_high"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert (got.n, got.passed) == (want.n, want.passed)


def split_into_records(inc: np.ndarray, rng, dtype=np.int32) -> list[RenewalRecord]:
    """Records whose confirmed increments, in walker order, are the rows of ``inc``.

    Records with no or one confirmed renewal, and records whose censored last
    entry must not count, are mixed in between.
    """
    d = inc.shape[1]
    cuts = np.sort(rng.choice(np.arange(1, inc.shape[0]), size=min(25, inc.shape[0] - 1), replace=False))
    records = [RenewalRecord(np.zeros(0, dtype), np.zeros((0, d), dtype), 10, False)]
    for i, part in enumerate(np.split(inc, cuts)):
        start = rng.integers(-50, 50, size=(1, d))
        pos = np.concatenate([start, start + np.cumsum(part, axis=0)]).astype(dtype)
        times = np.arange(pos.shape[0], dtype=dtype) * 3
        if i % 3 == 1:  # a censored candidate after the confirmed ones
            pos = np.concatenate([pos, pos[-1:] + 7])
            times = np.append(times, times[-1] + 1)
        records.append(RenewalRecord(times, pos, 10, i % 3 == 1))
        if i % 4 == 0:
            records.append(RenewalRecord(times[:1], pos[:1], 10, False))
            records.append(RenewalRecord(times[:2], pos[:2], 10, True))
    assert np.array_equal(ref_pooled_increments(records), inc)
    return records


def increments(rng, rows: int, d: int = 2) -> np.ndarray:
    return rng.integers(-4, 9, size=(rows, d))


ROWS = [101, 1000, 77_777, 2 * _LAG1_CHUNK - 1, 2 * _LAG1_CHUNK, 2 * _LAG1_CHUNK + 1]


@pytest.mark.parametrize("rows", ROWS)
def test_array_form_matches_the_pooled_oracle(rows):
    rng = np.random.default_rng(rows)
    inc = increments(rng, rows, 3)
    assert_same_report(independence_test(inc), ref_independence_test(inc))
    lagged = np.repeat(inc[: rows // 2 + 1], 2, axis=0)[:rows]  # correlated: the test fails
    assert_same_report(independence_test(lagged), ref_independence_test(lagged))
    wide = rng.normal(size=(rows, 2)) * 1e3  # non-integer columns take the same steps
    assert_same_report(independence_test(wide), ref_independence_test(wide))


@pytest.mark.parametrize("rows", ROWS)
def test_records_form_matches_the_pooled_oracle(rows):
    rng = np.random.default_rng(rows + 1)
    inc = increments(rng, rows)
    records = split_into_records(inc, rng)
    assert_same_report(independence_test(records), ref_independence_test(inc))
    for v in [(1, 0), (0, 1), (2, -3)]:
        got = increment_projections(records, v)
        assert got.dtype == np.float64 and got.tobytes() == ref_projection(records, v).tobytes()


def test_int64_records_match_the_pooled_oracle():
    rng = np.random.default_rng(64)
    inc = increments(rng, 5000, 3)
    records = split_into_records(inc, rng, dtype=np.int64)
    assert {r.positions.dtype for r in records} == {np.dtype(np.int64)}
    assert_same_report(independence_test(records), ref_independence_test(inc))
    for v in [(1, 0, 0), (0, 0, 1), (5, -1, 2)]:
        assert increment_projections(records, v).tobytes() == ref_projection(records, v).tobytes()


def test_matrix_projection_is_the_float_pooled_array():
    # the renewal direction route reads its (k, d) samples through the identity matrix
    rng = np.random.default_rng(3)
    inc = increments(rng, 2000)
    records = split_into_records(inc, rng)
    got = increment_projections(records, np.eye(2, dtype=np.int64))
    want = ref_pooled_increments(records).astype(np.float64)
    assert got.shape == want.shape and got.flags.c_contiguous and got.tobytes() == want.tobytes()


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_pooled_increments_match_the_differencing_loop(d, dtype):
    rng = np.random.default_rng(10 * d)
    records = split_into_records(increments(rng, 3000, d), rng, dtype=dtype)
    assert_same_array(pooled_increments(records), ref_pooled_increments(records))
    for k in range(len(records) + 1):  # every prefix, the empty one and those of fewer than two renewals included
        assert_same_array(pooled_increments(records[:k]), ref_pooled_increments(records[:k]))


def test_pooled_increments_of_simulated_walks_match_the_differencing_loop():
    spec = ConeSpec((1, 1), ((1, 1), (1, -1)), "1/2", (1, 0))
    trajs = simulate_ensemble(Homogeneous(TransitionVector([0.4, 0.1, 0.25, 0.25])), 17, 60, 3000)
    records = [detect_renewals(t, spec, 50) for t in trajs]
    want = ref_pooled_increments(records)
    assert want.dtype == np.int32 and want.shape[0] > 1000
    assert_same_array(pooled_increments(records), want)
    wide = [RenewalRecord(r.times.astype(np.int64), r.positions.astype(np.int64), 50, r.censored_tail) for r in records]
    assert_same_array(pooled_increments(wide), ref_pooled_increments(wide))
    assert_same_array(pooled_increments(wide), want.astype(np.int64))


def test_pooled_increments_without_two_confirmed_renewals_keep_their_shape_and_dtype():
    lone = RenewalRecord(np.zeros(1, np.int32), np.zeros((1, 3), np.int32), 10, False)
    censored = RenewalRecord(np.arange(2, dtype=np.int64), np.ones((2, 3), np.int64), 10, True)
    empty = RenewalRecord(np.zeros(0, np.int32), np.zeros((0, 3), np.int32), 10, False)
    pair = RenewalRecord(np.arange(2, dtype=np.int32), np.asarray([[0, 0, 0], [2, -1, 1]], np.int32), 10, False)
    cases = {
        "none": ([], (0, 0), np.int64),
        "lone": ([lone, empty], (0, 3), np.int32),
        "mixed dtypes": ([lone, censored, empty], (0, 3), np.int64),
        "one pair among wider records": ([censored, pair, lone], (1, 3), np.int32),
    }
    for name, (records, shape, dtype) in cases.items():
        got = pooled_increments(records)
        assert got.shape == shape and got.dtype == dtype, name
        assert_same_array(got, ref_pooled_increments(records))


@pytest.mark.parametrize("form", ["array", "records"])
def test_degenerate_coordinate_message_is_unchanged(form):
    rng = np.random.default_rng(9)
    inc = np.stack([rng.integers(-3, 4, size=400), np.full(400, 2)], axis=1)
    got = independence_test(inc if form == "array" else split_into_records(inc, rng))
    assert got == ref_independence_test(inc) == InsufficientData("coordinate 1 is degenerate (zero variance)")


def test_too_few_increments_in_records_is_insufficient():
    rng = np.random.default_rng(11)
    inc = increments(rng, 99)
    want = InsufficientData("need at least 100 increments")
    assert independence_test(split_into_records(inc, rng)) == ref_independence_test(inc) == want
    assert independence_test([]) == ref_independence_test(ref_pooled_increments([])) == want
    lone = [RenewalRecord(np.zeros(1, np.int32), np.zeros((1, 2), np.int32), 10, False)]
    assert independence_test(lone) == want
    assert increment_projections(lone, (1, 0)).shape == increment_projections([], (1, 0)).shape == (0,)


def test_identity_stage_never_builds_the_pooled_increments(tmp_path, monkeypatch):
    # The identity's lhs CI holds one float64 projection and its std temporary, and the independence check one
    # float64 column and one scratch buffer: 2 x 8 bytes an increment.  The int32 pooled array adds another 8,
    # and numpy's int64 cast of it for the projection 16 more, so a stage that rebuilds it passes 2.5 x 8.
    path = tmp_path / "identity.json"
    path.write_text(
        json.dumps(
            {
                "experiment": "renewal-identity",
                "dimension": 2,
                "master_seed": 4242,
                "n_walks": 300,
                "horizon": 4000,
                "confirm_horizon": 200,
                "model": {"kind": "homogeneous", "probs": [0.4, 0.1, 0.25, 0.25]},
                "cone": {"sigma": [1, 1], "basis": [[1, 1], [1, -1]], "l": [1, 0], "lambda": "1/2"},
            }
        )
    )
    cfg = cli.load_config(path)
    scanned = cli._renewals(cfg)

    def held(_cfg):
        tracemalloc.start()
        return scanned[0], list(scanned[1]), scanned[2], scanned[3]

    monkeypatch.setattr(cli, "_renewals", held)
    cli._renewal_identity(cfg)  # first calls import and compile what they need; only a warm stage is measured
    tracemalloc.stop()
    try:
        rows, _ = cli._renewal_identity(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = sum(max(r.n_confirmed - 1, 0) for r in scanned[2])
    assert k > 50_000 and not any(row.get("insufficient_data") for row in rows)
    assert peak <= 2.5 * 8 * k, (peak, k)
