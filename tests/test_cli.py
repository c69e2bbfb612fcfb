import builtins
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rwre_lab
from rwre_lab import cli
from rwre_lab.cli import _write_outputs, load_config, main
from rwre_lab.errors import ConfigError
from rwre_lab.oracle import gamblers_ruin


def write_config(tmp_path: Path, name: str, cfg: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return path


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def simulate_config(**overrides) -> dict:
    cfg = {
        "experiment": "simulate",
        "dimension": 2,
        "master_seed": 777,
        "n_walks": 10,
        "horizon": 40,
        "model": {"kind": "homogeneous", "probs": [0.4, 0.1, 0.25, 0.25]},
    }
    cfg.update(overrides)
    return cfg


def oracle_config(**region) -> dict:
    """A small oracle-compare run on a 2D Dirichlet slab; ``region`` overrides region fields."""
    return {
        "experiment": "oracle-compare",
        "dimension": 2,
        "master_seed": 3,
        "n_walks": 10,
        "horizon": 200,
        "model": {"kind": "dirichlet", "alphas": [1.5, 1.2, 1.35, 1.35]},
        "oracle": {
            "region": {"kind": "slab", "l_prime": [1, 0], "b": 1, "L": 4, "bound_width": 6, **region},
            "target_class": "Left",
            "n_env": 2,
        },
    }


def with_oracle(**fields) -> dict:
    cfg = oracle_config()
    cfg["oracle"].update(fields)
    return cfg


def direction_config(**cone) -> dict:
    """A small direction run on a drifted 2D walk; ``cone`` overrides cone fields."""
    return simulate_config(
        experiment="direction",
        confirm_horizon=10,
        l=[1, 0],
        cone={"sigma": [1, 1], "basis": [[1, 1], [1, -1]], "l": [1, 0], "lambda": "1/2", **cone},
    )


def with_block(cfg: dict, block: str, **fields) -> dict:
    """``cfg`` with ``fields`` set in its ``block``."""
    return {**cfg, block: {**cfg.get(block, {}), **fields}}


def slab_config(**slab) -> dict:
    """A small slab run on a drifted 2D walk; ``slab`` overrides slab fields."""
    return {**simulate_config(experiment="slab"), "slab": {"l_prime": [1, 0], "b": 1, "L_list": [2], **slab}}


def without(cfg: dict, key: str) -> dict:
    """``cfg`` with its top-level ``key`` left out."""
    return {k: v for k, v in cfg.items() if k != key}


def one_dimensional(cfg: dict) -> dict:
    """``cfg`` on a drifted 1D walk, so that a 1-vector is the right length."""
    return {**cfg, "dimension": 1, "model": {"kind": "homogeneous", "probs": [0.6, 0.4]}}


def cone_run(experiment: str, **top) -> dict:
    """``direction_config()`` run as ``experiment``; ``top`` sets top-level fields, and a None value drops one."""
    cfg = {**direction_config(), "experiment": experiment, **top}
    return {k: v for k, v in cfg.items() if v is not None}


# Integers past int64, and values whose products pass int64 or the float range, refused at load by name.
# Each integer used to end in a traceback with exit 1.  The cone's faces reach 10,000 * 2**52 over the
# horizon, which wrapped in its int64 face table (exit 0); at lambda 1/5 its faces pass int64 outright.
# The slab's left face at -b * L = -inf censored every walker, exit 0; zero-one-scan named no field.
PAST_INT64 = 10**20
INT64_CASES = [
    pytest.param(
        with_block(cone_run("renewal-identity"), "identity", window=[1, PAST_INT64]),
        "'identity.window'",
        id="window_past_int64",
    ),
    pytest.param(simulate_config(n_walks=PAST_INT64), "'n_walks'", id="n_walks_past_int64"),
    pytest.param(simulate_config(horizon=PAST_INT64), "'horizon'", id="horizon_past_int64"),
    pytest.param(
        with_oracle(region={"kind": "box", "lo": [-2, -2], "hi": [2, PAST_INT64]}, target_class="high0"),
        "'oracle.region.hi'",
        id="box_hi_past_int64",
    ),
    pytest.param(direction_config(basis=[[PAST_INT64, 1], [1, -1]]), "'cone.basis'", id="basis_past_int64"),
    pytest.param({**direction_config(), "l": [PAST_INT64, 0]}, "'l'", id="l_past_int64"),
    pytest.param(
        cone_run("renewal", horizon=10_000, cone={**direction_config()["cone"], "basis": [[2**52, 1], [1, -1]]}),
        "'cone'",
        id="cone_faces_past_int64_over_horizon",
    ),
    pytest.param(
        direction_config(basis=[[1, 0], [0, 1]], l=[2**62, 1], **{"lambda": "1/5"}),
        "'cone'",
        id="cone_rows_past_int64",
    ),
    pytest.param(slab_config(b=1e308, L_list=[1e300]), "'slab'", id="slab_bL_overflows"),
    pytest.param(
        {
            **with_block(simulate_config(experiment="zero-one-scan"), "zero_one", n_angles=8),
            "dimension": 3,
            "model": {"kind": "homogeneous", "probs": [0.3, 0.1, 0.15, 0.15, 0.15, 0.15]},
        },
        "'dimension'",
        id="zero_one_scan_3d",
    ),
]
# Ranges of a rational, of a window or of one experiment, now checked at load.
# Each of these configs used to simulate first, end in a traceback, or run.
WEIGHT_AND_WINDOW_CASES = [
    pytest.param(direction_config(**{"lambda": "2"}), "'cone.lambda'", id="cone_lambda_above_1"),
    pytest.param(direction_config(**{"lambda": 0}), "'cone.lambda'", id="cone_lambda_zero"),
    pytest.param(direction_config(lambda_grid=["1", "2"]), "'cone.lambda_grid'", id="lambda_grid_above_1"),
    pytest.param(
        direction_config(**{"lambda": "scan"}, lambda_grid=["-1/2"]), "'cone.lambda_grid'", id="lambda_grid_scan"
    ),
    pytest.param(direction_config(lambda_grid=[]), "'cone.lambda_grid'", id="lambda_grid_empty"),
    pytest.param(with_block(cone_run("renewal-identity"), "identity", window=[0, 5]), "'identity.window'", id="window_0"),
    pytest.param(
        with_block(cone_run("renewal-identity"), "identity", window=[9, 3]), "'identity.window'", id="window_reversed"
    ),
]
EXPERIMENT_FLOOR_CASES = [
    pytest.param(cone_run("direction", confirm_horizon=0), "'confirm_horizon'", id="confirm_horizon_direction"),
    pytest.param(cone_run("renewal", confirm_horizon=None), "'confirm_horizon'", id="confirm_horizon_renewal"),
    pytest.param(
        cone_run("renewal", confirm_horizon=0, n_walks=0), "'confirm_horizon'", id="confirm_horizon_renewal_no_walks"
    ),
    pytest.param(
        cone_run("renewal-identity", confirm_horizon=0, n_walks=0), "'confirm_horizon'", id="confirm_horizon_identity"
    ),
    # n_walks defaults to 0, and a direction run without walkers ended in a ValueError traceback, exit 1
    pytest.param(cone_run("direction", n_walks=None), "'n_walks'", id="n_walks_direction"),
    # these two ran with no walkers and exited 0: an "all-zero" pattern, and NaN exit proportions
    pytest.param(
        without(with_block(simulate_config(experiment="zero-one-scan"), "zero_one", n_angles=8), "n_walks"),
        "'n_walks'",
        id="n_walks_zero_one_scan",
    ),
    pytest.param(without(slab_config(), "n_walks"), "'n_walks'", id="n_walks_slab"),
    # horizon defaults to 0: direction and renewal-identity exited 3 on verdicts read off zero-step paths,
    # and the others exited 0 with NaN exit proportions, an "all-zero" pattern or no renewals
    *(
        pytest.param(cone_run(experiment, horizon=None), "'horizon'", id=f"horizon_{experiment}")
        for experiment in ("direction", "renewal", "renewal-identity")
    ),
    pytest.param(without(slab_config(), "horizon"), "'horizon'", id="horizon_slab"),
    pytest.param(
        without(with_block(simulate_config(experiment="zero-one-scan"), "zero_one", n_angles=8), "horizon"),
        "'horizon'",
        id="horizon_zero_one_scan",
    ),
]
# Negative thresholds, each of which used to run and exit 0: a scan with floor -1 chose a weight that
# confirmed no renewal, orth_band -1 turned a drifted half-space pattern inconsistent, theta_tol -1 found no cluster.
NEGATIVE_THRESHOLD_CASES = [
    pytest.param(
        with_block(
            {**direction_config(**{"lambda": "scan"}), "experiment": "renewal"}, "thresholds", renewal_rate_floor=-1
        ),
        "'thresholds.renewal_rate_floor'",
        id="renewal_rate_floor_negative",
    ),
    pytest.param(
        with_block(direction_config(), "thresholds", theta_tol=-1), "'thresholds.theta_tol'", id="theta_tol_negative"
    ),
    pytest.param(
        with_block(
            with_block(simulate_config(experiment="zero-one-scan"), "zero_one", n_angles=8), "thresholds", orth_band=-1
        ),
        "'thresholds.orth_band'",
        id="orth_band_negative",
    ),
]
# A direction run with "l": [0, 0] wrote an undecided verdict and a speed along no direction, exit 0.
ZERO_DIRECTION_CASE = pytest.param({**direction_config(), "l": [0, 0]}, "'l'", id="l_zero")
# Cones that ConeSpec refuses, now built at load for the fixed weight or for every grid weight.
# Under "scan" they used to be refused only after the scan's ensemble was simulated; neither named the field.
CONE_BUILD_CASES = [
    pytest.param(direction_config(**{"lambda": lam}, **cone), "'cone'", id=f"{name}_{lam_id}")
    for name, cone in (("cone_l_gcd_2", {"l": [2, 0]}), ("cone_dual_misses_l", {"basis": [[1, 0], [0, 1]]}))
    for lam_id, lam in (("fixed", "1/2"), ("scan", "scan"))
]
# One small run of each experiment kind, for what its process imports.
FOOTPRINT_RUNS = {
    "simulate": simulate_config(),
    "direction": cone_run("direction", horizon=200),
    "renewal": cone_run("renewal"),
    "renewal-identity": cone_run("renewal-identity", n_walks=20, horizon=200),
    "slab": slab_config(),
    "zero-one-scan": with_block(simulate_config(experiment="zero-one-scan"), "zero_one", n_angles=8),
    "oracle-compare": oracle_config(),
}


class TestRun:
    def test_simulate_writes_rows_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", simulate_config())
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        rows = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
        assert len(rows) == 10
        assert all(r["record"] == "trajectory" for r in rows)
        assert all("config_hash" in r for r in rows)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 777
        assert "results.jsonl" in manifest["outputs"]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", simulate_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--config", cfg, "--out", out_a) == 0
        assert run_cli("run", "--config", cfg, "--out", out_b) == 0
        assert (out_a / "results.jsonl").read_bytes() == (out_b / "results.jsonl").read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "dir.json",
            {
                "experiment": "direction",
                "dimension": 2,
                "master_seed": 4242,
                "n_walks": 120,
                "horizon": 1200,
                "confirm_horizon": 120,
                "model": {"kind": "homogeneous", "probs": [0.4, 0.1, 0.25, 0.25]},
                "l": [1, 0],
                "cone": {"sigma": [1, 1], "basis": [[1, 1], [1, -1]], "l": [1, 0], "lambda": "1/2"},
            },
        )
        out_a, out_b = tmp_path / "t1", tmp_path / "t8"
        assert run_cli("run", "--config", cfg, "--out", out_a, "--threads", 1) == 0
        assert run_cli("run", "--config", cfg, "--out", out_b, "--threads", 8) == 0
        assert (out_a / "results.jsonl").read_bytes() == (out_b / "results.jsonl").read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path, "sim.json", simulate_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--config", cfg, "--out", out_a) == 0
        assert run_cli("run", "--config", cfg, "--out", out_b, "--seed", 778) == 0
        assert (out_a / "results.jsonl").read_bytes() != (out_b / "results.jsonl").read_bytes()

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", simulate_config(typo_key=1))
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "typo_key" in capsys.readouterr().err

    def test_unknown_nested_key_exits_2(self, tmp_path, capsys):
        bad = simulate_config()
        bad["model"]["probz"] = [1]
        cfg = write_config(tmp_path, "bad.json", bad)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "probz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value", [("n_walks", "ten"), ("l", 5), ("n_walks", 2.7), ("horizon", True), ("master_seed", 1.5)]
    )
    def test_malformed_top_level_value_exits_2(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, "bad.json", simulate_config(**{field: value}))
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert repr(field) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, name",
        [
            pytest.param(with_oracle(n_env="x"), "'oracle.n_env'", id="n_env"),
            pytest.param(with_oracle(target_class=5), "'oracle.target_class'", id="target_class"),
            pytest.param(with_oracle(target_class=[]), "'oracle.target_class'", id="target_class_empty"),
            pytest.param(with_oracle(region="x"), "'oracle.region'", id="region"),
            pytest.param(oracle_config(bound_width="x"), "'oracle.region.bound_width'", id="bound_width"),
            pytest.param(oracle_config(b="x"), "'oracle.region.b'", id="region_b"),
            pytest.param(oracle_config(bound_width=1_000_000), "bound_width", id="huge_slab"),
            pytest.param(
                with_oracle(region={"kind": "box", "lo": [-(10**6)] * 2, "hi": [10**6] * 2}), "box", id="huge_box"
            ),
            pytest.param(
                {**simulate_config(experiment="slab"), "slab": {"l_prime": [1, 0], "b": "x", "L_list": [2]}},
                "'slab.b'",
                id="slab_b",
            ),
            pytest.param(
                with_block(simulate_config(experiment="zero-one-scan"), "zero_one", n_angles="x"),
                "'zero_one.n_angles'",
                id="n_angles",
            ),
            pytest.param(direction_config(sigma="ab"), "'cone.sigma'", id="cone_sigma"),
            pytest.param(direction_config(**{"lambda": "abc"}), "'cone.lambda'", id="cone_lambda"),
            pytest.param(direction_config(**{"lambda": "1/0"}), "'cone.lambda'", id="cone_lambda_zero_div"),
            pytest.param(direction_config(lambda_grid=5), "'cone.lambda_grid'", id="lambda_grid"),
            pytest.param(direction_config(check_direction="no"), "'cone.check_direction'", id="check_direction"),
            pytest.param(
                with_block({**direction_config(), "experiment": "renewal-identity"}, "identity", window=3),
                "'identity.window'",
                id="identity_window",
            ),
            pytest.param(
                with_block(direction_config(), "thresholds", theta_tol="x"), "'thresholds.theta_tol'", id="theta_tol"
            ),
            pytest.param(
                with_block(direction_config(), "thresholds", bootstrap_samples="many"),
                "'thresholds.bootstrap_samples'",
                id="bootstrap_samples",
            ),
            pytest.param(simulate_config(model={"kind": "homogeneous", "probs": "x"}), "'model.probs'", id="probs"),
            pytest.param(
                simulate_config(model={"kind": "mixture", "atoms": 3, "weights": [1.0]}), "'model.atoms'", id="atoms"
            ),
            pytest.param(
                simulate_config(model={"kind": "perturbed_srw", "epsilon": "x", "drift_dir": 1}),
                "'model.epsilon'",
                id="epsilon",
            ),
            pytest.param(simulate_config(model={"kind": "levy"}), "'model.kind'", id="model_kind"),
            pytest.param(oracle_config(kind="sphere"), "'oracle.region.kind'", id="region_kind"),
            pytest.param(slab_config(L_list=[4, 2]), "'slab.L_list'", id="slab_L_list_decreasing"),
            pytest.param(slab_config(L_list=[]), "'slab.L_list'", id="slab_L_list_empty"),
            pytest.param(one_dimensional(slab_config(l_prime=[0])), "'slab.l_prime'", id="slab_l_prime_zero"),
            pytest.param(
                one_dimensional(oracle_config(l_prime=[0])), "'oracle.region.l_prime'", id="region_l_prime_zero"
            ),
            *WEIGHT_AND_WINDOW_CASES,
            *CONE_BUILD_CASES,
        ],
    )
    def test_malformed_block_value_exits_2(self, tmp_path, capsys, cfg, name):
        cfg = write_config(tmp_path, "bad.json", cfg)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, name",
        [
            pytest.param({**direction_config(), "l": [1, 0, 0]}, "'l'", id="l"),
            pytest.param(direction_config(sigma=[1, 1, 1]), "'cone.sigma'", id="cone_sigma"),
            pytest.param(direction_config(l=[1]), "'cone.l'", id="cone_l"),
            pytest.param(direction_config(basis=[[1, 1], [1, -1, 0]]), "'cone.basis'", id="cone_basis_row"),
            pytest.param(
                {**simulate_config(experiment="slab"), "slab": {"l_prime": [1.0], "b": 1.0, "L_list": [2.0]}},
                "'slab.l_prime'",
                id="slab_l_prime",
            ),
            pytest.param(oracle_config(l_prime=[1, 0, 0]), "'oracle.region.l_prime'", id="region_l_prime"),
        ],
    )
    def test_vector_length_must_match_dimension(self, tmp_path, capsys, cfg, name):
        cfg = write_config(tmp_path, "bad.json", cfg)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert name in err and "dimension" in err

    @pytest.mark.parametrize(
        "cfg, name",
        [
            pytest.param(simulate_config(dimension=5), "'dimension'", id="dimension"),
            pytest.param(simulate_config(master_seed=-1), "'master_seed'", id="master_seed"),
            pytest.param(simulate_config(n_walks=-1), "'n_walks'", id="n_walks"),
            pytest.param(
                with_block(direction_config(), "thresholds", bootstrap_samples=0),
                "'thresholds.bootstrap_samples'",
                id="bootstrap_samples",
            ),
            pytest.param(
                with_block(simulate_config(experiment="zero-one-scan"), "zero_one", n_angles=2),
                "'zero_one.n_angles'",
                id="n_angles",
            ),
            pytest.param(with_oracle(n_env=0), "'oracle.n_env'", id="n_env"),
            pytest.param(slab_config(b=-1), "'slab.b'", id="slab_b_negative"),
            pytest.param(slab_config(L_list=[-2, 4]), "'slab.L_list'", id="slab_L_list_negative"),
            pytest.param(oracle_config(b=-1), "'oracle.region.b'", id="region_b_negative"),
            pytest.param(oracle_config(L=0), "'oracle.region.L'", id="region_L_zero"),
            # its Monte Carlo check ran zero-step walks and wrote mc_p NaN, exit 0
            pytest.param(without(oracle_config(), "horizon"), "'horizon'", id="horizon_oracle_compare"),
            # a threshold <= 0 let walks ending at the origin into the raw direction, dividing by r = 0
            *(
                pytest.param(
                    with_block(direction_config(), "thresholds", level_threshold=v),
                    "'thresholds.level_threshold'",
                    id=f"level_threshold_{v}",
                )
                for v in (0, -1)
            ),
            # a negative dip allowance left every verdict undecided
            pytest.param(
                with_block(direction_config(), "thresholds", dip_allowance=-1),
                "'thresholds.dip_allowance'",
                id="dip_allowance_negative",
            ),
            *EXPERIMENT_FLOOR_CASES,
            *NEGATIVE_THRESHOLD_CASES,
            ZERO_DIRECTION_CASE,
            *INT64_CASES,
            # refused when the region is built, before any walk runs; it said "unknown boundary classes ['Left']"
            pytest.param(oracle_config(b=1e308, L=1e300), "'oracle.region'", id="region_bL_overflows"),
        ],
    )
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, cfg, name):
        cfg = write_config(tmp_path, "bad.json", cfg)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, name",
        WEIGHT_AND_WINDOW_CASES
        + EXPERIMENT_FLOOR_CASES
        + CONE_BUILD_CASES
        + NEGATIVE_THRESHOLD_CASES
        + [ZERO_DIRECTION_CASE]
        + INT64_CASES,
    )
    def test_range_refused_at_load(self, tmp_path, cfg, name):
        # load_config simulates nothing, so these are refused before any walk runs
        with pytest.raises(ConfigError, match=name):
            load_config(write_config(tmp_path, "bad.json", cfg))

    @pytest.mark.parametrize(
        "cfg, message",
        [
            pytest.param(
                simulate_config(
                    model={"kind": "mixture", "atoms": [[0.4, 0.1, 0.25, 0.25], [0.5, 0.5]], "weights": [0.5, 0.5]}
                ),
                "'model': mixture atoms disagree on dimension",
                id="mixture_atoms",
            ),
            pytest.param(
                simulate_config(model={"kind": "perturbed_srw", "epsilon": 0.3, "drift_dir": 1}),
                "'model': epsilon must lie in (0, 1/(2d))",
                id="epsilon",
            ),
            pytest.param(
                with_oracle(region={"kind": "box", "lo": [-2, -2], "hi": [2, -3]}, target_class="high0"),
                "'oracle.region': box bounds must be d-vectors with hi >= lo",
                id="box_bounds",
            ),
            pytest.param(
                with_oracle(region={"kind": "interval", "lo": -2, "hi": 2}, target_class="Right"),
                "'oracle.region': interval regions are one-dimensional",
                id="interval_2d",
            ),
            pytest.param(
                with_oracle(region={"kind": "box", "lo": [1, 1], "hi": [3, 3]}, target_class="high0"),
                "'oracle.region': start site must lie inside the region",
                id="box_misses_start",
            ),
            pytest.param(
                with_oracle(region={"kind": "box", "lo": [-2, -2], "hi": [2, 2]}, target_class="Right"),
                "'oracle.target_class': unknown boundary classes ['Right']",
                id="box_target",
            ),
        ],
    )
    def test_model_and_region_errors_name_their_field(self, tmp_path, capsys, cfg, message):
        # each exited 2 with the message alone
        cfg = write_config(tmp_path, "bad.json", cfg)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert f"error: config: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, name",
        [
            ("direction", "'cone'"),
            ("renewal", "'cone'"),
            ("renewal-identity", "'cone'"),
            ("slab", "'slab'"),
            ("zero-one-scan", "'zero_one'"),
            ("oracle-compare", "'oracle'"),
        ],
    )
    def test_missing_block_exits_2(self, tmp_path, capsys, experiment, name):
        cfg = write_config(tmp_path, "bad.json", simulate_config(experiment=experiment, l=[1, 0]))
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert f"{experiment!r} needs {name}" in capsys.readouterr().err

    def test_config_values_read_strictly(self, tmp_path):
        # float fields take JSON ints, int fields take integral floats, and lambda takes a number or a string
        cfg = direction_config(**{"lambda": 0.25})
        cfg.update(n_walks=10.0, slab={"l_prime": [1, 0], "b": 1, "L_list": [2, 4]})
        loaded = load_config(write_config(tmp_path, "cfg.json", cfg))
        assert loaded["n_walks"] == 10 and isinstance(loaded["n_walks"], int)
        assert loaded["slab.b"] == 1.0 and isinstance(loaded["slab.b"], float)
        assert loaded["slab.L_list"] == (2.0, 4.0) and all(isinstance(x, float) for x in loaded["slab.L_list"])
        assert loaded["cone.lambda"] == Fraction(1, 4)
        assert loaded["cone.check_direction"] is True
        assert loaded["thresholds.bootstrap_samples"] == 1000

    def test_numeric_failure_exits_4_without_outputs(self, tmp_path, capsys):
        # Dirichlet draws at these concentrations keep falling under the ellipticity floor
        model = {"kind": "dirichlet", "alphas": [0.01, 0.01, 0.01, 0.01]}
        cfg = write_config(tmp_path, "sub.json", simulate_config(n_walks=4, horizon=50, model=model))
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_oracle_self_check_exits_4_without_outputs(self, tmp_path, capsys):
        # a recurrent 1D environment on 799 sites: the Schur pivots cancel, and the solve read P(Left) 0.0528, exit 0
        cfg = {
            "experiment": "oracle-compare",
            "dimension": 1,
            "master_seed": 7,
            "n_walks": 0,
            "model": {"kind": "dirichlet", "alphas": [1.0, 1.0]},
            "oracle": {"region": {"kind": "interval", "lo": -400, "hi": 400}, "target_class": "Left", "n_env": 8},
        }
        assert run_cli("run", "--config", write_config(tmp_path, "sinai.json", cfg), "--out", tmp_path / "o") == 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1 and "all classes sum to" in err
        assert not (tmp_path / "o").exists()

    def test_gamblers_ruin_past_the_float_range_exits_0(self, tmp_path):
        # rho ** 2000 with rho = 7/3 overflows a float: the closed form ended in an OverflowError traceback, exit 1
        cfg = {
            "experiment": "oracle-compare",
            "dimension": 1,
            "master_seed": 7,
            "n_walks": 0,
            "model": {"kind": "homogeneous", "probs": [0.3, 0.7]},
            "oracle": {"region": {"kind": "interval", "lo": -1000, "hi": 1000}, "target_class": "Right", "n_env": 1},
        }
        out = tmp_path / "o"
        assert run_cli("run", "--config", write_config(tmp_path, "ruin.json", cfg), "--out", out) == 0
        (row,) = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
        assert row["closed_form_right"] == row["exact_mean"] == 0.0

    def test_perturbed_srw_interval_writes_the_closed_form(self, tmp_path):
        # P(+1) = 0.6 at every site
        cfg = {
            "experiment": "oracle-compare",
            "dimension": 1,
            "master_seed": 7,
            "n_walks": 0,
            "model": {"kind": "perturbed_srw", "epsilon": 0.1, "drift_dir": 1},
            "oracle": {"region": {"kind": "interval", "lo": -5, "hi": 5}, "target_class": "Right", "n_env": 1},
        }
        out = tmp_path / "o"
        assert run_cli("run", "--config", write_config(tmp_path, "srw.json", cfg), "--out", out) == 0
        (row,) = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
        assert row["closed_form_right"] == gamblers_ruin(0.6, 5, 5)
        assert abs(row["closed_form_right"] - row["exact_mean"]) < 1e-12

    @pytest.mark.parametrize(
        "cfg",
        [
            pytest.param(
                {
                    "experiment": "slab",
                    "dimension": 2,
                    "master_seed": 11,
                    "n_walks": 300,
                    "horizon": 2000,
                    "slab": {"l_prime": [1, 0], "b": 1, "L_list": [2, 4, 6]},
                },
                id="slab-2d",
            ),
            pytest.param(
                {
                    "experiment": "oracle-compare",
                    "dimension": 1,
                    "master_seed": 7,
                    "n_walks": 300,
                    "horizon": 500,
                    "oracle": {"region": {"kind": "interval", "lo": -5, "hi": 5}, "target_class": "Right"},
                },
                id="oracle-interval-1d",
            ),
        ],
    )
    def test_perturbed_srw_writes_the_rows_of_its_homogeneous_law(self, tmp_path, cfg):
        # json.dumps writes the probabilities by repr, so the homogeneous config reads back the same floats
        probs = rwre_lab.perturbed_srw(0.1, 1, cfg["dimension"]).vector.probs.tolist()
        models = {
            "srw": {"kind": "perturbed_srw", "epsilon": 0.1, "drift_dir": 1},
            "hom": {"kind": "homogeneous", "probs": probs},
        }
        rows, curves = {}, {}
        for name, model in models.items():
            out = tmp_path / name
            config = write_config(tmp_path, f"{name}.json", {**cfg, "model": model})
            assert run_cli("run", "--config", config, "--out", out) == 0
            lines = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
            rows[name] = [json.dumps({k: v for k, v in r.items() if k != "config_hash"}, sort_keys=True) for r in lines]
            curves[name] = (out / "curves.csv").read_bytes() if (out / "curves.csv").exists() else None
        assert rows["srw"] == rows["hom"] and curves["srw"] == curves["hom"]
        assert any("mc_p" in r or "p_left" in r for r in rows["srw"])

    def test_run_too_large_to_allocate_exits_2_without_outputs(self, tmp_path, capsys):
        # an in-range horizon whose step matrix asks for 8.88 PiB ended in a MemoryError traceback, exit 1
        cfg = write_config(tmp_path, "big.json", simulate_config(n_walks=1, horizon=10**16))
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1 and "allocate" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "cfg",
        [
            pytest.param(
                with_oracle(region={"kind": "box", "lo": [-2, -2], "hi": [2, 2]}, target_class="high0"), id="box"
            ),
            pytest.param(without(oracle_config(), "n_walks"), id="no_walks"),
            pytest.param(with_oracle(target_class="Side"), id="side_target"),
        ],
    )
    def test_exact_only_oracle_compare_needs_no_horizon(self, tmp_path, cfg):
        cfg = write_config(tmp_path, "exact.json", without(cfg, "horizon"))
        out = tmp_path / "o"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        (row,) = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
        assert "exact_mean" in row and "mc_p" not in row

    def test_interval_without_start_exits_2(self, tmp_path, capsys):
        cfg = simulate_config(experiment="oracle-compare", dimension=1, model={"kind": "homogeneous", "probs": [0.6, 0.4]})
        cfg["oracle"] = {"region": {"kind": "interval", "lo": -2, "hi": 0}, "target_class": "Right"}
        assert run_cli("run", "--config", write_config(tmp_path, "bad.json", cfg), "--out", tmp_path / "o") == 2
        assert "lo < 0 < hi" in capsys.readouterr().err

    def test_oracle_run_imports_no_scipy(self, tmp_path):
        # importing scipy.sparse alone costs a run about 0.3 s and 26 MB of peak RSS
        cfg = write_config(tmp_path, "oracle.json", oracle_config())
        code = (
            "import sys\n"
            "from rwre_lab.cli import main\n"
            f"rc = main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
            "print(rc, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
        )
        src = str(Path(rwre_lab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split() == ["0", "[]"]

    @pytest.mark.parametrize("experiment", sorted(FOOTPRINT_RUNS))
    def test_run_loads_numpy_random_and_openssl_only_for_the_bootstrap(self, tmp_path, experiment):
        # hashlib loads OpenSSL's libcrypto, about 3.6 MB of a short run's peak RSS, and numpy.random imports it;
        # the config hash takes the interpreter's own SHA-256, and only the identity's bootstrap draws from numpy
        cfg = write_config(tmp_path, "run.json", FOOTPRINT_RUNS[experiment])
        code = (
            "import sys\n"
            "from rwre_lab.cli import main\n"
            f"rc = main(['run', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
            "print(rc, sorted({m.split('.')[0] for m in sys.modules} & {'scipy', '_hashlib'}),"
            " 'numpy.random' in sys.modules)\n"
        )
        src = str(Path(rwre_lab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        bootstrap = experiment == "renewal-identity"
        assert proc.stdout.split() == ["0", "['_hashlib']" if bootstrap else "[]", str(bootstrap)]

    def test_seed_reads_past_int64(self, tmp_path):
        # master_seed and --seed take the whole unsigned 64-bit range, unlike every other integer
        cfg = write_config(tmp_path, "sim.json", simulate_config(master_seed=2**64 - 1))
        assert load_config(cfg)["master_seed"] == 2**64 - 1
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o", "--seed", 2**64 - 2) == 0

    @pytest.mark.parametrize("seed", [-1, 2**64 + 5])
    def test_seed_out_of_range_exits_2(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path, "sim.json", simulate_config())
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o", "--seed", seed) == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_failed_write_keeps_previous_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path, "sim.json", simulate_config())
        cfg = load_config(cfg_path)
        out = tmp_path / "out"
        good_curves = [{"L": 1.0, "p_left": 0.5}]
        _write_outputs(out, [{"record": "first"}], good_curves, cfg, "t")
        names = ["curves.csv", "manifest.json", "results.jsonl"]
        before = {name: (out / name).read_bytes() for name in names}
        # the second row cannot be serialised, so the write fails after the first
        with pytest.raises(TypeError):
            _write_outputs(out, [{"record": "ok"}, {"record": object()}], good_curves, cfg, "t")
        assert sorted(p.name for p in out.iterdir()) == names
        assert {name: (out / name).read_bytes() for name in names} == before
        # the second curve row has a key the header lacks, so that write fails after the first
        bad_curves = [{"L": 2.0, "p_left": 0.25}, {"x": 1}]
        with pytest.raises(ValueError):
            _write_outputs(out, [{"record": "first"}], bad_curves, cfg, "t")
        assert sorted(p.name for p in out.iterdir()) == names
        assert (out / "curves.csv").read_bytes() == before["curves.csv"]

    @pytest.mark.parametrize("where", ["--out", "output", "below"])
    def test_output_path_not_a_directory_exits_2_before_running(self, tmp_path, capsys, monkeypatch, where):
        def never(cfg):
            raise AssertionError("the experiment ran")

        monkeypatch.setitem(cli._RUNNERS, "simulate", never)
        taken = tmp_path / "taken"
        taken.write_text("keep")
        out = taken / "sub" if where == "below" else taken
        cfg = simulate_config(output=str(out)) if where == "output" else simulate_config()
        argv = ["run", "--config", write_config(tmp_path, "sim.json", cfg)]
        assert run_cli(*argv, *([] if where == "output" else ["--out", out])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(str(out)) in err
        assert taken.read_text() == "keep"

    def test_write_failure_exits_2_with_one_error_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "sim.json", simulate_config())
        (tmp_path / "o" / "results.jsonl").mkdir(parents=True)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and repr(str(tmp_path / "o")) in err

    def test_invalid_json_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment": "simulate",\n  "oops\n}')
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        assert "line" in capsys.readouterr().err

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe\x00bad")
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and "utf-8" in err
        assert not (tmp_path / "o").exists()

    def test_integer_past_digit_limit_exits_2(self, tmp_path, capsys):
        # json.loads refuses integer literals over 4,300 digits with a plain ValueError
        path = tmp_path / "long.json"
        text = json.dumps(simulate_config(master_seed=0))
        path.write_text(text.replace('"master_seed": 0', '"master_seed": 1' + "0" * 5000))
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and str(path) in err and "digits" in err
        assert not (tmp_path / "o").exists()

    def test_rational_exponent_past_digit_limit_exits_2_quickly(self, tmp_path, capsys):
        # Fraction builds 10**exponent whole, so this once spent seconds before the (0, 1] check refused it
        cfg = write_config(tmp_path, "bad.json", direction_config(**{"lambda": "1e10000000"}))
        start = time.perf_counter()
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert time.perf_counter() - start < 1.0
        assert "'cone.lambda'" in capsys.readouterr().err and not (tmp_path / "o").exists()

    def test_oracle_compare_slab(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "oracle.json",
            {
                "experiment": "oracle-compare",
                "dimension": 1,
                "master_seed": 11,
                "n_walks": 20000,
                "horizon": 2000,
                "model": {"kind": "homogeneous", "probs": [0.7, 0.3]},
                "oracle": {
                    "region": {"kind": "interval", "lo": -2, "hi": 2},
                    "target_class": "Right",
                    "n_env": 1,
                },
            },
        )
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        rows = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
        row = rows[0]
        assert abs(row["exact_mean"] - 49 / 58) < 1e-9
        assert abs(row["closed_form_right"] - 49 / 58) < 1e-12
        assert row["agree_3sigma"] is True

    def test_insufficient_data_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "scan.json",
            {
                "experiment": "renewal-identity",
                "dimension": 2,
                "master_seed": 5,
                "n_walks": 40,
                "horizon": 1500,
                "confirm_horizon": 500,
                "model": {"kind": "homogeneous", "probs": [0.25, 0.25, 0.25, 0.25]},
                "cone": {"sigma": [1, 1], "basis": [[1, 1], [1, -1]], "l": [1, 0], "lambda": "scan"},
            },
        )
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 3
        rows = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
        assert any(r.get("insufficient_data") for r in rows)

    def test_slab_curves_csv(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "slab.json",
            {
                "experiment": "slab",
                "dimension": 1,
                "master_seed": 6,
                "n_walks": 2000,
                "horizon": 5000,
                "model": {"kind": "homogeneous", "probs": [0.6, 0.4]},
                "slab": {"l_prime": [1.0], "b": 1.0, "L_list": [2, 4]},
            },
        )
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0] == "L,p_left,ci_low,ci_high"
        assert len(lines) == 3


class TestCompare:
    def make_results(self, tmp_path) -> Path:
        out = tmp_path / "res"
        cfg = write_config(tmp_path, "sim.json", simulate_config(n_walks=4))
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        return out / "results.jsonl"

    def test_file_vs_itself(self, tmp_path):
        res = self.make_results(tmp_path)
        assert run_cli("compare", res, res) == 0

    def test_perturbed_file_diffs(self, tmp_path, capsys):
        res = self.make_results(tmp_path)
        rows = [json.loads(l) for l in res.read_text().splitlines()]
        rows[1]["final"][0] += 1
        other = tmp_path / "perturbed.jsonl"
        other.write_text("\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n")
        assert run_cli("compare", res, other) == 1
        assert "final" in capsys.readouterr().out

    def test_tolerance_allows_drift(self, tmp_path):
        res = self.make_results(tmp_path)
        rows = [json.loads(l) for l in res.read_text().splitlines()]
        rows[0]["final"][0] += 1
        other = tmp_path / "close.jsonl"
        other.write_text("\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n")
        assert run_cli("compare", res, other, "--tol", "final=2") == 0

    def test_schema_mismatch_exits_2(self, tmp_path, capsys):
        res = self.make_results(tmp_path)
        rows = [json.loads(l) for l in res.read_text().splitlines()]
        rows[0].pop("final")
        other = tmp_path / "schema.jsonl"
        other.write_text("\n".join(json.dumps(r, sort_keys=True) for r in rows) + "\n")
        assert run_cli("compare", res, other) == 2
        assert "schema mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--tol", "final=abc"], "--tol final"),
            (["--tol", "final=-1"], "--tol final"),
            (["--tol", "final"], "--tol"),
            (["--atol", "nan"], "--atol"),
            (["--atol", "-0.5"], "--atol"),
        ],
    )
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, flags, name):
        res = self.make_results(tmp_path)
        assert run_cli("compare", res, res, *flags) == 2
        assert name in capsys.readouterr().err

    def test_not_utf8_exits_2(self, tmp_path, capsys):
        res = self.make_results(tmp_path)
        other = tmp_path / "bin.json"
        other.write_bytes(b"\xff\xfe\x00bad")
        assert run_cli("compare", res, other) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(other) in err and "utf-8" in err

    def write_rows(self, tmp_path, name, rows) -> Path:
        path = tmp_path / name
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        return path

    def test_nan_matches_only_nan(self, tmp_path, capsys):
        # a slab width no walker left writes p_left NaN and its interval as [NaN, NaN]
        row = {"L": 5.0, "p_left": float("nan"), "ci": [float("nan"), float("nan")], "n_exits": 0}
        res = self.write_rows(tmp_path, "nan.jsonl", [row, row])
        assert run_cli("compare", res, res) == 0
        for other in ({**row, "p_left": 0.5}, {**row, "ci": [0.0, float("nan")]}, {**row, "p_left": float("inf")}):
            diff = self.write_rows(tmp_path, "other.jsonl", [row, other])
            assert run_cli("compare", res, diff, "--atol", "1e300") == 1
            assert run_cli("compare", diff, res, "--atol", "1e300") == 1
        out = capsys.readouterr().out
        assert "row[1].p_left: nan != 0.5" in out and "row[1].ci[0]" in out and "row[1].p_left: inf != nan" in out
        inf = self.write_rows(tmp_path, "inf.jsonl", [{"x": float("inf"), "y": -float("inf")}])
        assert run_cli("compare", inf, inf) == 0

    def test_integers_compare_exactly(self, tmp_path, capsys):
        a = self.write_rows(tmp_path, "a.jsonl", [{"walker_seed": 2**64 - 1}])
        b = self.write_rows(tmp_path, "b.jsonl", [{"walker_seed": 2**64 - 2}])
        assert run_cli("compare", a, b) == 1
        assert "18446744073709551615 != 18446744073709551614" in capsys.readouterr().out
        assert run_cli("compare", a, b, "--tol", "walker_seed=1") == 0
        assert run_cli("compare", a, a) == 0
        c = self.write_rows(tmp_path, "c.jsonl", [{"walker_seed": 3}])
        d = self.write_rows(tmp_path, "d.jsonl", [{"walker_seed": 3.0}])
        assert run_cli("compare", c, d) == 0

    @pytest.mark.parametrize("big", [10**400, -(10**400), 2**1024])
    def test_integer_past_float_range_meets_a_float(self, tmp_path, capsys, big):
        a = self.write_rows(tmp_path, "a.jsonl", [{"x": big}])
        for y in (1.5, 1e308, -1e308, float("inf"), float("nan")):
            b = self.write_rows(tmp_path, "b.jsonl", [{"x": y}])
            assert run_cli("compare", a, b, "--atol", "1e300") == 1
            assert run_cli("compare", b, a, "--atol", "1e300") == 1
            assert f"row[0].x: {big!r} != {y!r}" in capsys.readouterr().out
        assert run_cli("compare", a, a) == 0

    def test_integer_and_float_compare_exactly(self, tmp_path, capsys):
        # 2**53 + 1 rounds to the float 2**53, yet differs from it by 1
        a = self.write_rows(tmp_path, "a.jsonl", [{"x": 2**53 + 1, "y": 10**308}])
        b = self.write_rows(tmp_path, "b.jsonl", [{"x": float(2**53), "y": 1e308}])
        assert run_cli("compare", a, b) == 1
        out = capsys.readouterr().out
        assert "row[0].x: 9007199254740993 != 9007199254740992.0" in out and "row[0].y" in out
        # 1e308 is 10**308 less about 1.1e291
        assert run_cli("compare", a, b, "--tol", "x=1", "--tol", "y=1e291") == 1
        assert run_cli("compare", a, b, "--tol", "x=1", "--tol", "y=1.1e291") == 0
        assert run_cli("compare", a, b, "--atol", "inf") == 0

    def test_integer_past_digit_limit_exits_2(self, tmp_path, capsys):
        a = self.write_rows(tmp_path, "a.jsonl", [{"x": 1}])
        b = tmp_path / "b.jsonl"
        b.write_text('{"x": 1}\n{"x": 1' + "0" * 5000 + "}\n")
        for args in ((a, b), (b, a)):
            assert run_cli("compare", *args) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
            assert f"{b} line 2" in err and "digits" in err

    @pytest.mark.parametrize("x, y", [(True, 1), (1, True), (False, 0), (0.0, False), (True, False), (True, 1.0)])
    def test_boolean_equals_only_the_same_boolean(self, tmp_path, x, y):
        a = self.write_rows(tmp_path, "a.jsonl", [{"flag": x}])
        b = self.write_rows(tmp_path, "b.jsonl", [{"flag": y}])
        assert run_cli("compare", a, b, "--atol", "1") == 1
        assert run_cli("compare", a, a) == 0 and run_cli("compare", b, b) == 0

    def test_row_not_an_object_exits_2(self, tmp_path, capsys):
        res = self.make_results(tmp_path)
        other = tmp_path / "list.jsonl"
        lines = res.read_text().splitlines()
        other.write_text("\n".join(lines[:2] + ["[1]"] + lines[3:]) + "\n")
        assert run_cli("compare", res, other) == 2
        assert "line 3 (row 2)" in capsys.readouterr().err


class TestSeedStability:
    def test_direction_agrees_across_seeds(self, tmp_path):
        import numpy as np

        cfg = write_config(
            tmp_path,
            "dir.json",
            {
                "experiment": "direction",
                "dimension": 2,
                "master_seed": 100,
                "n_walks": 200,
                "horizon": 2500,
                "confirm_horizon": 250,
                "model": {"kind": "homogeneous", "probs": [0.4, 0.1, 0.25, 0.25]},
                "l": [1, 0],
                "cone": {"sigma": [1, 1], "basis": [[1, 1], [1, -1]], "l": [1, 0], "lambda": "1/2"},
            },
        )
        nus = []
        for seed, out in ((100, tmp_path / "a"), (200, tmp_path / "b")):
            assert run_cli("run", "--config", cfg, "--out", out, "--seed", seed) == 0
            rows = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
            nus.append(
                next(np.asarray(r["nu_hat"]) for r in rows if r["record"] == "direction-raw-limit")
            )
        cos = float(nus[0] @ nus[1]) / (np.linalg.norm(nus[0]) * np.linalg.norm(nus[1]))
        assert np.arccos(np.clip(cos, -1, 1)) < 0.05


class TestMisc:
    def test_schema_prints_json(self, capsys):
        assert run_cli("schema") == 0
        schema = json.loads(capsys.readouterr().out)
        assert "experiment" in schema

    def test_schema_key_set(self, capsys):
        assert run_cli("schema") == 0
        schema = json.loads(capsys.readouterr().out)
        blocks = {
            "model": {"kind", "probs", "atoms", "weights", "alphas", "epsilon", "drift_dir"},
            "cone": {"sigma", "basis", "l", "lambda", "lambda_grid", "check_direction"},
            "thresholds": {
                "level_threshold",
                "dip_allowance",
                "renewal_rate_floor",
                "theta_tol",
                "orth_band",
                "bootstrap_samples",
            },
            "slab": {"l_prime", "b", "L_list"},
            "zero_one": {"n_angles"},
            "oracle": {"region", "target_class", "n_env"},
            "identity": {"window"},
        }
        top = {"experiment", "dimension", "master_seed", "n_walks", "horizon", "confirm_horizon", "l", "output"}
        assert set(schema) == top | set(blocks)
        assert {key: set(schema[key]) for key in blocks} == blocks
        assert all(isinstance(schema[key], str) for key in top)
        assert all(isinstance(doc, str) for key in blocks for doc in schema[key].values())

    def test_schema_prints_every_need(self, capsys):
        # a value's need sits on its own line; a block prints as its fields, so its need is on the experiment line
        assert run_cli("schema") == 0
        schema = json.loads(capsys.readouterr().out)
        needs = [f for f in cli._FIELDS if f.need[1]]
        assert {f.path for f in needs} >= {"cone", "slab", "zero_one", "oracle", "l", "n_walks"}
        for f in needs:
            test, experiments = f.need
            text = f"{f'{test} for' if test else 'needed by'} {' and '.join(experiments)}"
            if f.type is cli._OBJECT:
                assert f"{f.path} {text}" in schema["experiment"]
            else:
                assert text in schema[f.path]

    def test_readme_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = load_config(write_config(tmp_path, "readme.json", json.loads(example)))
        assert cfg["experiment"] == "direction" and cfg["cone.lambda"] == "scan"

    def test_env_var_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RWRE_LAB_THREADS", "2")
        cfg = write_config(tmp_path, "sim.json", simulate_config(n_walks=3))
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        monkeypatch.setenv("RWRE_LAB_THREADS", "zebra")
        assert run_cli("run", "--config", cfg, "--out", out) == 2


def test_direction_builds_each_main_pass_path_twice(tmp_path, monkeypatch):
    # one class pass serves the transience verdict and the speed, and the renewal scan is the other
    calls = []
    positions = rwre_lab.Trajectory.positions

    def counted(self):
        calls.append(self)
        return positions(self)

    monkeypatch.setattr(rwre_lab.Trajectory, "positions", counted)
    cfg = write_config(tmp_path, "dir.json", direction_config())
    assert run_cli("run", "--config", cfg, "--out", tmp_path / "out") == 0
    assert len(calls) == 2 * 10
    assert len({id(t) for t in calls}) == 10



def test_identity_run_builds_each_path_once(tmp_path, monkeypatch):
    # the scan's walks (h = min(horizon, 4000) steps) and the main pass's each get one path, in their renewal scans;
    # the identity reads the records alone
    calls = []
    positions = rwre_lab.Trajectory.positions

    def counted(self):
        calls.append(self)
        return positions(self)

    monkeypatch.setattr(rwre_lab.Trajectory, "positions", counted)
    cfg = cone_run("renewal-identity", horizon=4100, confirm_horizon=100)
    cfg["cone"] = {**cfg["cone"], "lambda": "scan"}
    assert run_cli("run", "--config", write_config(tmp_path, "identity.json", cfg), "--out", tmp_path / "out") == 0
    assert sorted(len(t) for t in calls) == [4000] * 10 + [4100] * 10
    assert len({id(t) for t in calls}) == 20

# results.jsonl digests of small "lambda": "scan" runs, whose grid is unsorted and holds a duplicate;
# the scan's rows run by decreasing weight with the duplicate dropped, and the chosen cone runs the main pass.
SCAN_GRID = ["1/8", "1", "1/2", "1", "1/3"]
SCAN_DIGESTS = {
    "direction": (0, "5b93bbbbd9c30f8b193b51e00d59d1e2fafcccce1d6b07a69043987566909a98"),
    "renewal": (0, "2c8b7b41a6de129a3ce4ee80accbed909ec4f988023833f41cc946c5891bd1c6"),
    "renewal-identity": (0, "dc7bcf6eb387182a8fec4e6552818e7790d52f787ca58fbc910e77d37c6b2d53"),
}


@pytest.mark.parametrize("experiment", sorted(SCAN_DIGESTS))
def test_scan_output_bytes_pinned(tmp_path, experiment):
    cfg = cone_run(experiment, n_walks=40, horizon=600, confirm_horizon=60)
    cfg["cone"] = {**cfg["cone"], "lambda": "scan", "lambda_grid": SCAN_GRID}
    cfg["thresholds"] = {"renewal_rate_floor": 60}  # weight 1 falls short of it, so 1/2 is chosen
    out = tmp_path / "out"
    code = run_cli("run", "--config", write_config(tmp_path, "scan.json", cfg), "--out", out)
    digest = hashlib.sha256((out / "results.jsonl").read_bytes()).hexdigest()
    assert (code, digest) == SCAN_DIGESTS[experiment]


def test_identity_output_bytes_pinned(tmp_path):
    # a fixed cone, window and thresholds: 6 of the 40 walks end below level 170 or dip
    # more than 2.5 under their last-half high, so the transience class decides p_cone
    cfg = with_block(
        cone_run("renewal-identity", n_walks=40, horizon=600, confirm_horizon=60),
        "thresholds",
        level_threshold=170,
        dip_allowance=2.5,
    )
    cfg["identity"] = {"window": [10, 100]}
    out = tmp_path / "out"
    code = run_cli("run", "--config", write_config(tmp_path, "identity.json", cfg), "--out", out)
    digest = hashlib.sha256((out / "results.jsonl").read_bytes()).hexdigest()
    assert (code, digest) == (0, "ba8fd49bf82206314fa6c43cf1813d89ca7659ecc2d84ab102beff1c1b1623cb")


# results.jsonl digests of renewal-identity runs on cone l = (2, 1): a +e1 step raises the level by 2,
# so the walks skip levels, under the default window and under an explicit one
SKIP_IDENTITY_DIGESTS = {
    None: "1b33ef7fecf037fd69744ca6e14ba8ddc515a4291d801687238156107dacba18",
    (5, 60): "c1c2e166f31059e9893904aa5b8891be01443329889e7c20039ea85ccc00f3aa",
}


@pytest.mark.parametrize("window", list(SKIP_IDENTITY_DIGESTS), ids=str)
def test_skipped_level_identity_output_bytes_pinned(tmp_path, window):
    cfg = cone_run("renewal-identity", n_walks=40, horizon=600, confirm_horizon=60)
    cfg["cone"] = {**cfg["cone"], "l": [2, 1]}
    if window is not None:
        cfg["identity"] = {"window": list(window)}
    out = tmp_path / "out"
    assert run_cli("run", "--config", write_config(tmp_path, "identity.json", cfg), "--out", out) == 0
    rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert next(row for row in rows if row["record"] == "renewal-identity")["hit_level_prob"] < 1
    assert hashlib.sha256((out / "results.jsonl").read_bytes()).hexdigest() == SKIP_IDENTITY_DIGESTS[window]


def test_identity_run_with_far_apart_levels_exits_0(tmp_path):
    # a +e1 step raises the level by 2**40: listing the levels a walk skipped asked for petabytes, exit 1
    cfg = cone_run("renewal-identity", n_walks=5, horizon=2000)
    cfg["cone"] = {**cfg["cone"], "l": [2**40, 1]}
    out = tmp_path / "out"
    assert run_cli("run", "--config", write_config(tmp_path, "identity.json", cfg), "--out", out) == 0
    rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert 0 < next(row for row in rows if row["record"] == "renewal-identity")["hit_level_prob"] < 1e-9


# results.jsonl and curves.csv digests of a zero-one-scan run over 12 angles: a drift along +e1 gives
# transient+ and transient- angles, and undecided ones at 90 and 270 degrees, an open half-space pattern
ZERO_ONE_DIGESTS = (
    "53c504679aa02b24f5388a4dbe3f4a95e1dcf22a4a13a5735139a1e6bb1a759e",
    "31172f2bdfb46ab07ab88a1b06b7b06f401e14db75a13ce1c774c51bb40bf5ff",
)


def test_zero_one_scan_output_bytes_pinned(tmp_path):
    cfg = with_block(simulate_config(experiment="zero-one-scan", n_walks=40, horizon=600), "zero_one", n_angles=12)
    out = tmp_path / "out"
    assert run_cli("run", "--config", write_config(tmp_path, "scan.json", cfg), "--out", out) == 0
    rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert rows[-1]["pattern"] == "open-half-space"
    assert {row["verdict"] for row in rows[:-1]} == {"transient+", "transient-", "undecided"}
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("results.jsonl", "curves.csv"))
    assert digests == ZERO_ONE_DIGESTS


# results.jsonl and curves.csv digests of a mixture slab run: 600 walkers leave the three slabs over 300 steps,
# and some are still inside the widest one at the horizon
SLAB_MIXTURE = {"kind": "mixture", "atoms": [[0.4, 0.1, 0.25, 0.25], [0.1, 0.4, 0.25, 0.25]], "weights": [0.6, 0.4]}
SLAB_DIGESTS = (
    "0ed76d1d3c14a2bbb0ede79deee5402b7f22fd6743ecc136ac53666e881e1616",
    "36b5e160774ee3a0ac420db082c955830833289b7fe006068d4646d0aaff4f73",
)


def test_mixture_slab_output_bytes_pinned(tmp_path):
    cfg = {**slab_config(L_list=[2, 4, 8]), "model": SLAB_MIXTURE, "n_walks": 600, "horizon": 300}
    out = tmp_path / "out"
    assert run_cli("run", "--config", write_config(tmp_path, "slab.json", cfg), "--out", out) == 0
    rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert 0 < rows[-2]["n_censored"] < 600
    digests = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in ("results.jsonl", "curves.csv"))
    assert digests == SLAB_DIGESTS


# results.jsonl digests of two Dirichlet runs, which read every site's law through its hashed key:
# a simulate run, whose walkers step in lockstep, and an oracle-compare run, whose exact solve reads
# the environment through QuenchedEnvironment and whose Monte Carlo check runs the slab pass
DIRICHLET_DIGESTS = {
    "simulate": "3b6c471a6eadfd2ec362c26c3be56f5ebbcad9d0db2141ce8fa6600791057036",
    "oracle-compare": "05d739075afa0d873c0ac06c55433a1341ce779f9975efda601a81efb1c9330d",
}
DIRICHLET_CONFIGS = {
    "simulate": simulate_config(model={"kind": "dirichlet", "alphas": [1.5, 1.2, 1.35, 1.35]}, n_walks=30, horizon=200),
    "oracle-compare": oracle_config(),
}


@pytest.mark.parametrize("experiment", sorted(DIRICHLET_DIGESTS))
def test_dirichlet_output_bytes_pinned(tmp_path, experiment):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "dirichlet.json", DIRICHLET_CONFIGS[experiment])
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    assert hashlib.sha256((out / "results.jsonl").read_bytes()).hexdigest() == DIRICHLET_DIGESTS[experiment]


# results.jsonl digests of exact-only oracle-compare runs on Dirichlet boxes in 2D and 3D; the start site is off
# the middle layer, so the elimination folds layers of unequal runs from both ends into the start's layer
BOX_DIGESTS = {
    2: "c5a9d2a0f3dd68c230d5d709c8cebba67f888f91f33f65617f879689b156d850",
    3: "e6d1a93b4514fc1de0350ba102e407f08f6639904cfac2db7aa4559a2e89d51b",
}
BOX_CONFIGS = {
    2: with_oracle(region={"kind": "box", "lo": [-5, -4], "hi": [7, 3]}, target_class="high0", n_env=3),
    3: {
        **with_oracle(region={"kind": "box", "lo": [-3, -2, -4], "hi": [2, 3, 3]}, target_class="low2"),
        "dimension": 3,
        "model": {"kind": "dirichlet", "alphas": [1.1, 0.7, 1.3, 0.9, 1.6, 0.5]},
    },
}


@pytest.mark.parametrize("d", sorted(BOX_DIGESTS))
def test_oracle_box_output_bytes_pinned(tmp_path, d):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "box.json", BOX_CONFIGS[d])
    assert run_cli("run", "--config", cfg, "--out", out) == 0
    assert hashlib.sha256((out / "results.jsonl").read_bytes()).hexdigest() == BOX_DIGESTS[d]


def test_failed_scan_rows_reach_the_manifest(tmp_path):
    # a centred walk renews far below a floor of 500 per 1,000 steps at every weight on the grid
    cfg = with_block(
        cone_run("renewal", model={"kind": "homogeneous", "probs": [0.25] * 4}, n_walks=20, horizon=400),
        "thresholds",
        renewal_rate_floor=500,
    )
    cfg["cone"] = {**cfg["cone"], "lambda": "scan"}
    out = tmp_path / "out"
    assert run_cli("run", "--config", write_config(tmp_path, "scan.json", cfg), "--out", out) == 3
    (row,) = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert row["record"] == "lambda-scan" and row["insufficient_data"] is True
    scan = json.loads((out / "manifest.json").read_text())["lambda_scan"]
    assert [r["lambda"] for r in scan] == ["1", "1/2", "1/4", "1/8"]
    assert all(r["record"] == "lambda-scan" and r["floor"] == 500 and r["rate_per_1k"] < 500 for r in scan)
    assert sum(r["confirmed"] for r in scan) > 0


def results_of(out: Path) -> list[dict]:
    return [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]


# One small config for each source of an insufficient-data row, then one run of each experiment kind that has none;
# each case names the records it expects to be insufficient.
BACKWARD = {"kind": "homogeneous", "probs": [0.1, 0.4, 0.25, 0.25]}  # drifts away from the cone's l
CENTRED = with_block(
    cone_run("renewal", model={"kind": "homogeneous", "probs": [0.25] * 4}, n_walks=20, horizon=400),
    "thresholds",
    renewal_rate_floor=500,
)
FAILED_SCAN = {**CENTRED, "cone": {**CENTRED["cone"], "lambda": "scan"}}  # no weight renews 500 times per 1,000 steps
EXIT_CASES = [
    pytest.param(FAILED_SCAN, {"lambda-scan"}, id="lambda_scan"),
    pytest.param(
        with_block(direction_config(), "thresholds", level_threshold=1e6), {"direction-raw-limit"}, id="raw_route"
    ),
    pytest.param(
        cone_run("direction", model=BACKWARD, horizon=200), {"direction-renewal-lln"}, id="renewal_route"
    ),
    pytest.param(
        with_block(cone_run("renewal-identity", n_walks=20, horizon=200), "identity", window=[10**6, 10**6]),
        {"renewal-identity"},
        id="identity",
    ),
    pytest.param(cone_run("renewal-identity"), {"independence"}, id="independence"),
    pytest.param(simulate_config(), set(), id="simulate"),
    pytest.param(cone_run("direction", horizon=200), set(), id="direction"),
    pytest.param(cone_run("renewal"), set(), id="renewal"),
    pytest.param(cone_run("renewal-identity", n_walks=20, horizon=200), set(), id="renewal_identity"),
    pytest.param(slab_config(), set(), id="slab"),
    pytest.param(with_block(simulate_config(experiment="zero-one-scan"), "zero_one", n_angles=8), set(), id="zero_one"),
    pytest.param(oracle_config(), set(), id="oracle_compare"),
]


@pytest.mark.parametrize("cfg, insufficient", EXIT_CASES)
def test_exit_3_exactly_when_a_row_is_insufficient(tmp_path, cfg, insufficient):
    out = tmp_path / "out"
    code = run_cli("run", "--config", write_config(tmp_path, "run.json", cfg), "--out", out)
    rows = results_of(out)
    assert {row["record"] for row in rows if row.get("insufficient_data")} == insufficient
    assert code == (3 if any(row.get("insufficient_data") for row in rows) else 0)


@pytest.mark.parametrize("cfg", [simulate_config(n_walks=3), FAILED_SCAN], ids=["simulate", "failed_scan"])
def test_config_hash_is_the_sha256_of_the_config_bytes(tmp_path, cfg):
    # spacing and a trailing blank line that no re-serialisation of the parsed config would reproduce
    path = tmp_path / "run.json"
    path.write_bytes(b"\n" + json.dumps(cfg, indent=3).encode() + b"\n\n")
    out = tmp_path / "out"
    assert run_cli("run", "--config", path, "--out", out) in (0, 3)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert {row["config_hash"] for row in results_of(out)} == {digest}
    assert json.loads((out / "manifest.json").read_text())["config_hash"] == digest


def test_run_reads_its_config_once(tmp_path, monkeypatch):
    # every file read goes through io.open (Path.read_bytes and read_text too), so each read of the config is counted
    path = write_config(tmp_path, "run.json", simulate_config(n_walks=3))
    reads = []
    real_open = io.open

    def counted(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file) == path:
            reads.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counted)
    monkeypatch.setattr(builtins, "open", counted)
    assert run_cli("run", "--config", path, "--out", tmp_path / "out") == 0
    assert len(reads) == 1


def test_json_default_writes_numpy_values_and_fractions():
    # numpy scalars and arrays become their Python values and a Fraction its text; np.float64 is a float, so the
    # encoder writes it, NaN included, as it writes a Python float
    row = {
        "int": np.int64(-3),
        "float": np.float64(0.1),
        "bool": np.bool_(True),
        "array": np.array([[1, 2], [3, 4]], dtype=np.int32),
        "floats": np.array([0.5, np.nan]),
        "tuple": (1, np.float32(0.25), np.int8(7)),
        "fraction": Fraction(1, 3),
        "nan": np.float64("nan"),
    }
    want = (
        '{"array": [[1, 2], [3, 4]], "bool": true, "float": 0.1, "floats": [0.5, NaN], "fraction": "1/3", '
        '"int": -3, "nan": NaN, "tuple": [1, 0.25, 7]}'
    )
    assert json.dumps(row, sort_keys=True, default=cli._json_default) == want
    # the manifest's indented form goes through the pure-Python encoder, and reads back the same values
    indented = json.dumps(row, indent=2, sort_keys=True, default=cli._json_default)
    assert json.dumps(json.loads(indented), sort_keys=True) == want
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        json.dumps({"x": object()}, default=cli._json_default)
