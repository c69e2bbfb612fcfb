import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rwre_lab
from rwre_lab.cli import _write_outputs, load_config, main


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

    @pytest.mark.parametrize("field, value", [("n_walks", "ten"), ("l", 5)])
    def test_malformed_top_level_value_exits_2(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, "bad.json", simulate_config(**{field: value}))
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert repr(field) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, name",
        [
            pytest.param(with_oracle(n_env="x"), "'oracle.n_env'", id="n_env"),
            pytest.param(with_oracle(target_class=5), "'oracle.target_class'", id="target_class"),
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
        ],
    )
    def test_malformed_block_value_exits_2(self, tmp_path, capsys, cfg, name):
        cfg = write_config(tmp_path, "bad.json", cfg)
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert name in capsys.readouterr().err

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

    def test_invalid_json_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment": "simulate",\n  "oops\n}')
        assert run_cli("run", "--config", path, "--out", tmp_path / "o") == 2
        assert "line" in capsys.readouterr().err

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

    def test_env_var_threads(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RWRE_LAB_THREADS", "2")
        cfg = write_config(tmp_path, "sim.json", simulate_config(n_walks=3))
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        monkeypatch.setenv("RWRE_LAB_THREADS", "zebra")
        assert run_cli("run", "--config", cfg, "--out", out) == 2
