"""Renewal-family runs read their ensemble a block of walkers at a time and keep records, not paths.

The block split must change no output byte, a run must never hold more than
one block of steps, and the records store renewal times and positions as
int32 whenever a walk's step count allows it.
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rwre_lab import ConeSpec, Homogeneous, RenewalRecord, Trajectory, TransitionVector, cli, detect_renewals, walk
from rwre_lab.cone import _record_dtype
from rwre_lab.stats import pooled_increments
from rwre_lab.walk import simulate_ensemble

DRIFT = {"kind": "homogeneous", "probs": [0.4, 0.1, 0.25, 0.25]}
MIXTURE = {"kind": "mixture", "atoms": [[0.4, 0.1, 0.25, 0.25], [0.1, 0.4, 0.25, 0.25]], "weights": [0.6, 0.4]}
HORIZON = 300


def renewal_config(experiment: str, model: dict, **top) -> dict:
    return {
        "experiment": experiment,
        "dimension": 2,
        "master_seed": 4242,
        "n_walks": 20,
        "horizon": HORIZON,
        "confirm_horizon": 30,
        "model": model,
        "l": [1, 0],
        "cone": {"sigma": [1, 1], "basis": [[1, 1], [1, -1]], "l": [1, 0], "lambda": "1/2"},
        **top,
    }


def run_digest(tmp_path: Path, cfg: dict, name: str) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / name
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) in (0, 3)
    return hashlib.sha256((out / "results.jsonl").read_bytes()).hexdigest()


@pytest.mark.parametrize("model", [DRIFT, MIXTURE], ids=["homogeneous", "mixture"])
@pytest.mark.parametrize("experiment", ["renewal", "renewal-identity", "direction"])
def test_block_size_changes_no_output_byte(tmp_path, monkeypatch, experiment, model):
    # one walker a block (a block of 1 step), seven walkers a block (20 walks: blocks of 7, 7 and 6), and the default
    cfg = renewal_config(experiment, model)
    blocks = []
    simulate = cli.simulate_ensemble

    def counted(*args):
        blocks.append(args[2])
        return simulate(*args)

    monkeypatch.setattr(cli, "simulate_ensemble", counted)
    digests = {}
    for steps in (1, 7 * HORIZON, walk._BLOCK_STEPS):
        blocks.clear()
        monkeypatch.setattr(walk, "_BLOCK_STEPS", steps)
        digests[steps] = run_digest(tmp_path, cfg, f"{experiment}-{steps}")
        assert sum(blocks) == cfg["n_walks"] and max(blocks) == min(walk.block_walkers(HORIZON), cfg["n_walks"])
    assert len(blocks) == 1 and len(set(digests.values())) == 1


def test_identity_run_holds_one_block_of_steps(tmp_path, monkeypatch):
    # 2,000 walks of 2,000 steps are 4 MB of int8 steps; at 2**18 steps a block the run simulates 131 walks at a
    # time, so while it simulates and scans, its traced peak stays below the whole step matrix plus the records
    # it keeps.  The statistics that follow hold float copies of the pooled increments, whose size follows the
    # renewals, not the steps, so the peak is taken when the last block's walks have been scanned.
    n, h = 2000, 2000
    monkeypatch.setattr(walk, "_BLOCK_STEPS", 1 << 18)
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(renewal_config("renewal-identity", DRIFT, n_walks=n, horizon=h, confirm_horizon=200)))
    cfg = cli.load_config(path)
    held, peaks = [], []
    renewals = cli._renewals

    def scanned(*args):
        out = renewals(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        held.extend(out[2])
        return out

    monkeypatch.setattr(cli, "_renewals", scanned)
    tracemalloc.start()
    try:
        rows, _ = cli._renewal_identity(cfg)
    finally:
        tracemalloc.stop()
    assert not any(row.get("insufficient_data") for row in rows)
    assert len(held) == n and {r.times.dtype for r in held} == {r.positions.dtype for r in held} == {np.dtype(np.int32)}
    records = sum(r.times.nbytes + r.positions.nbytes + r.hit_runs.nbytes for r in held)
    assert peaks[0] < n * h + records, (peaks[0], n * h, records)


def test_record_dtype_is_int32_below_the_bound():
    # no time and no coordinate of an N-step walk passes N
    assert _record_dtype(0) == np.int32
    assert _record_dtype(2**31 - 2) == np.int32
    assert _record_dtype(2**31 - 1) == np.int64
    assert _record_dtype(2**40) == np.int64


def test_records_write_the_same_integers_in_either_dtype():
    spec = ConeSpec((1, 1), ((1, 1), (1, -1)), "1/2", (1, 0))
    (traj,) = simulate_ensemble(Homogeneous(TransitionVector([0.4, 0.1, 0.25, 0.25])), 5, 1, 500)
    rec = detect_renewals(traj, spec, 20)
    assert rec.times.dtype == rec.positions.dtype == np.int32 and rec.n_confirmed > 2
    wide = RenewalRecord(rec.times.astype(np.int64), rec.positions.astype(np.int64), 20, rec.censored_tail)
    assert json.dumps(rec.to_json_obj()) == json.dumps(wide.to_json_obj())
    inc = pooled_increments([rec])
    assert np.array_equal(inc, pooled_increments([wide])) and inc.dtype == np.int32


def test_empty_record_increments_keep_the_record_dtype():
    traj = Trajectory(np.ones(5, np.int8), 2, 0)  # straight down -e1: no fresh maximum along +e1
    rec = detect_renewals(traj, ConeSpec((1, 1), ((1, 1), (1, -1)), "1/2", (1, 0)), 3)
    inc = pooled_increments([rec])
    assert rec.times.size == 0 and inc.shape == (0, 2) and inc.dtype == np.int32
