import json

import yaml

from t2ifuse.cli import main
from t2ifuse.synthetic import build_separability_fixture


def _write_config(tmp_path, fix, **extra):
    data = {
        "experiment_id": "cli-demo",
        "dataset": {
            "path": str(fix.dataset_csv),
            "split_seed": 5,
            "split_fractions": [0.6, 0.2, 0.2],
        },
        "output_dir": str(tmp_path / "run"),
        "cache_dir": str(tmp_path / "cache"),
        "method": "gen_image",
        "strategy": "keyword",
        "generation": {"backend": "flux-schnell"},
        "providers": {"text": "hash-16", "image": "hash-16"},
        "fusion": {"mechanism": "concat", "model_dim": 8, "heads": 1, "hidden_dim": 8},
        "training": {"learning_rate": 1e-3, "batch_size": 16, "max_epochs": 1, "patience": 1},
        "seeds": [0],
    }
    data.update(extra)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(data))
    return path


def test_cli_run_and_report(tmp_path, capsys):
    fix = build_separability_fixture(tmp_path / "data", samples_per_class=8, seed=2)
    config = _write_config(tmp_path, fix)
    assert main(["run", "--config", str(config), "--offline"]) == 0
    out = capsys.readouterr().out
    assert "stages done" in out
    assert "accuracy=" in out
    assert (tmp_path / "run" / "report.txt").exists()

    assert main(["report", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "acc" in out


def test_cli_stage_commands_stop_early(tmp_path, capsys):
    fix = build_separability_fixture(tmp_path / "data", samples_per_class=8, seed=2)
    config = _write_config(tmp_path, fix)
    assert main(["prompt", "--config", str(config)]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["stages"]["prompts"]["status"] == "done"
    assert manifest["stages"]["images"]["status"] == "pending"
    capsys.readouterr()

    assert main(["generate", "--config", str(config)]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["stages"]["images"]["status"] == "done"
    assert manifest["stages"]["training"]["status"] == "pending"


def test_cli_out_and_seed_overrides(tmp_path, capsys):
    fix = build_separability_fixture(tmp_path / "data", samples_per_class=8, seed=2)
    config = _write_config(tmp_path, fix)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "other"), "--seed", "3"]) == 0
    assert (tmp_path / "other" / "train_s3").exists()


def test_cli_sweep(tmp_path, capsys):
    fix = build_separability_fixture(tmp_path / "data", samples_per_class=8, seed=2)
    config = _write_config(
        tmp_path, fix, sweep={"axes": {"strategy": ["direct", "keyword"]}}
    )
    assert main(["sweep", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "strategy" in out
    assert (tmp_path / "run" / "combined_table.txt").exists()


def test_cli_sweep_without_axes_is_an_error(tmp_path, capsys):
    fix = build_separability_fixture(tmp_path / "data", samples_per_class=8, seed=2)
    config = _write_config(tmp_path, fix)
    assert main(["sweep", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: sweep needs at least one axis\n"


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"experiment_id": "x"}))
    assert main(["run", "--config", str(bad)]) == 2
    assert "error" in capsys.readouterr().err
