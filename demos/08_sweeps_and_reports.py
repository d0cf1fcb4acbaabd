"""Grid sweeps: inference-step sensitivity, learning-rate x fusion, and the
method x dataset main table.

Run: python3 demos/08_sweeps_and_reports.py
"""

import tempfile
from pathlib import Path

from t2ifuse.config import parse_config_data
from t2ifuse.orchestrator import ProviderRegistry, run_sweep
from t2ifuse.synthetic import build_separability_fixture

with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    fixture = build_separability_fixture(tmp / "data", samples_per_class=12, seed=6)

    def base(name):
        return parse_config_data({
            "experiment_id": name,
            "dataset": {"path": str(fixture.dataset_csv), "split_seed": 5,
                         "split_fractions": [0.6, 0.2, 0.2]},
            "output_dir": str(tmp / name),
            "cache_dir": str(tmp / "cache"),
            "method": "gen_image",
            "strategy": "keyword",
            "generation": {"backend": "sdxl"},
            "providers": {"text": "hash-16", "image": "hash-16"},
            "fusion": {"mechanism": "concat", "model_dim": 8, "heads": 2, "hidden_dim": 8},
            "training": {"learning_rate": 1e-3, "batch_size": 16, "max_epochs": 2, "patience": 2},
            "seeds": [0],
            "cost_mode": "estimated",
        })

    registry = ProviderRegistry()

    # inference-step sensitivity: each step count is its own cache namespace,
    # so the grid runs as four independent, resumable cells
    steps = run_sweep(base("steps"), {"steps": [50, 25, 10, 4]}, registry)
    print("inference-step sweep (4 cells):\n")
    print(steps.table)

    lr_fusion = run_sweep(
        base("lr-fusion"),
        {"learning_rate": [1e-5, 3e-5, 5e-5], "mechanism": ["concat", "cross_attention"]},
        registry,
    )
    print("learning-rate x fusion sweep (6 cells):\n")
    print(lr_fusion.table)

    # the paper's main table: methods as rows, one Acc/Ma-F1 pair per dataset
    # (named by file stem, so the two files need distinct stems)
    first = fixture.dataset_csv.with_name("synthetic_a.csv")
    first.write_bytes(fixture.dataset_csv.read_bytes())
    second = build_separability_fixture(tmp / "data-b", samples_per_class=12, seed=7).dataset_csv
    second = second.rename(second.with_name("synthetic_b.csv"))
    main = run_sweep(
        base("main"),
        {"method": ["text_only", "gen_image"], "dataset": [str(first), str(second)]},
        registry,
    )
    print("method x dataset sweep (4 cells, main table):\n")
    print(main.table)

    calls = registry.backends["sdxl"].calls
    run_sweep(base("steps"), {"steps": [50, 25, 10, 4]}, registry)
    print(f"re-running the steps sweep costs zero backend calls "
          f"({registry.backends['sdxl'].calls - calls} new)")
