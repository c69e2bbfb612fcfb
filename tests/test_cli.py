import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rwre_lab
from rwre_lab import cli
from rwre_lab.cli import _write_outputs, load_config, main
from rwre_lab.errors import ConfigError


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
# Cones that ConeSpec refuses, now built at load for the fixed weight or for every grid weight.
# Under "scan" they used to be refused only after the scan's ensemble was simulated; neither named the field.
CONE_BUILD_CASES = [
    pytest.param(direction_config(**{"lambda": lam}, **cone), "'cone'", id=f"{name}_{lam_id}")
    for name, cone in (("cone_l_gcd_2", {"l": [2, 0]}), ("cone_dual_misses_l", {"basis": [[1, 0], [0, 1]]}))
    for lam_id, lam in (("fixed", "1/2"), ("scan", "scan"))
]


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
        ],
    )
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, cfg, name):
        cfg = write_config(tmp_path, "bad.json", cfg)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("cfg, name", WEIGHT_AND_WINDOW_CASES + EXPERIMENT_FLOOR_CASES + CONE_BUILD_CASES)
    def test_range_refused_at_load(self, tmp_path, cfg, name):
        # load_config simulates nothing, so these are refused before any walk runs
        with pytest.raises(ConfigError, match=name):
            load_config(write_config(tmp_path, "bad.json", cfg))

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
        _write_outputs(out, [{"record": "first"}], good_curves, cfg, "h", 1, "t")
        names = ["curves.csv", "manifest.json", "results.jsonl"]
        before = {name: (out / name).read_bytes() for name in names}
        # the second row cannot be serialised, so the write fails after the first
        with pytest.raises(TypeError):
            _write_outputs(out, [{"record": "ok"}, {"record": object()}], good_curves, cfg, "h", 1, "t")
        assert sorted(p.name for p in out.iterdir()) == names
        assert {name: (out / name).read_bytes() for name in names} == before
        # the second curve row has a key the header lacks, so that write fails after the first
        bad_curves = [{"L": 2.0, "p_left": 0.25}, {"x": 1}]
        with pytest.raises(ValueError):
            _write_outputs(out, [{"record": "first"}], bad_curves, cfg, "h", 1, "t")
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
