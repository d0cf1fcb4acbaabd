"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

from __future__ import annotations

import dataclasses
import json
import time
from decimal import Decimal
from pathlib import Path

import numpy as np

from t2ifuse.config import parse_config_data
from t2ifuse.corpus import LabelSpace, TextSample
from t2ifuse.embedding import clip_score
from t2ifuse.evaluation import PredictionSet, compute_metrics
from t2ifuse.fusion import (
    FeaturePack,
    FusionConfig,
    PackBatch,
    build_fusion_head,
    export_attention,
    fuse_forward,
    head_averaged_map,
)
from t2ifuse.generation import GeneratedImageRecord, ledger_totals
from t2ifuse.orchestrator import ProviderRegistry, run_experiment
from t2ifuse.prompting import (
    IMAGE_PROMPT_SYSTEM,
    NEGATIVE_PROMPT,
    VISUAL_DESCRIPTION_SYSTEM,
    StubChatClient,
    build_prompt,
    elaborate_text,
    extract_keywords,
)
from t2ifuse.sweep import run_sweep
from t2ifuse.synthetic import build_separability_fixture
from t2ifuse.tensorcore import cross_entropy, grad_check
from t2ifuse.training import TrainConfig, train_loop

from tests.conftest import COFFEE_REVIEW, random_pack
from tests.test_evaluation import oracle_metrics
from tests.test_training import _toy_data, _toy_head


def _criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {name} {detail}"


# 1 ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(2025)
    start = time.perf_counter()
    worst = 0.0
    for mechanism in ("concat", "cross_attention", "deep_prefix"):
        for _ in range(2):  # random small configs from the declared grid
            d = int(rng.choice([8, 16]))
            h = int(rng.choice([1, 2]))
            c = int(rng.choice([2, 4]))
            config = FusionConfig(
                mechanism=mechanism, model_dim=d, heads=h, num_classes=c,
                hidden_dim=2 * d, encoder_layers=2, visual_prefix_len=2,
            )
            head = build_fusion_head(config, text_dim=6, image_dim=5,
                                     seed=int(rng.integers(1 << 16)), dtype=np.float64)
            batch = PackBatch.from_packs(
                [random_pack(rng, n_text=3, n_image=4, text_dim=6, image_dim=5)]
            )
            label = int(rng.integers(c))

            def loss_fn():
                out = fuse_forward(head, batch)
                loss, back = cross_entropy(out.logits, [label])
                out.backward(back())
                return loss

            report = grad_check(loss_fn, head.params, tolerance=1e-4,
                                seed=int(rng.integers(1 << 16)))
            worst = max(worst, report.max_rel_err)
    elapsed = time.perf_counter() - start
    _criterion(
        1, "gradient correctness (analytic vs central differences)",
        worst <= 1e-4 and elapsed < 60.0,
        f"(max rel err {worst:.2e}, {elapsed:.1f}s)",
    )


# 2 ---------------------------------------------------------------------------

def test_criterion_2_metric_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst = 0.0
    confusion_ok = True
    for _ in range(200):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(1, 51))
        y_true = rng.integers(0, c, size=n).tolist()
        y_pred = rng.integers(0, c, size=n).tolist()
        logits = np.zeros((n, c))
        logits[np.arange(n), y_pred] = 1.0
        preds = PredictionSet(
            sample_ids=[f"s{i}" for i in range(n)],
            y_true=np.array(y_true), y_pred=np.array(y_pred),
            logits=logits, label_space=LabelSpace(tuple(f"c{i}" for i in range(c))),
        )
        report = compute_metrics(preds)
        accuracy, per_class, macro_f1, confusion = oracle_metrics(y_true, y_pred, c)
        worst = max(worst, abs(report.accuracy - accuracy), abs(report.macro_f1 - macro_f1))
        for stats, (precision, recall, f1, _) in zip(report.per_class, per_class):
            worst = max(worst, abs(stats.precision - precision),
                        abs(stats.recall - recall), abs(stats.f1 - f1))
        confusion_ok = confusion_ok and report.confusion.tolist() == confusion
    _criterion(
        2, "metric equivalence vs definitional oracle (200 random sets)",
        worst <= 1e-12 and confusion_ok,
        f"(max abs dev {worst:.1e})",
    )


# 3 ---------------------------------------------------------------------------

def _separability_config(tmp_path, fix, method, out_name):
    return parse_config_data(
        {
            "experiment_id": out_name,
            "dataset": {
                "path": str(fix.dataset_csv),
                "split_seed": 7,
                "split_fractions": [0.14, 0.11, 0.75],
            },
            "output_dir": str(tmp_path / out_name),
            "cache_dir": str(tmp_path / "cache"),
            "method": method,
            "providers": {
                "text": "hash-16",
                "image": "hash-16",
                "oracle_features": str(fix.oracle_features),
            },
            "fusion": {
                "mechanism": "cross_attention", "model_dim": 8, "heads": 2,
                "hidden_dim": 16, "dropout_rate": 0.3,
            },
            "training": {
                "learning_rate": 2.5e-3, "batch_size": 32,
                "max_epochs": 10, "patience": 4, "weight_decay": 0.03,
            },
            "seeds": [0],
            "cost_mode": "estimated",
        }
    )


def _best_val_accuracy(run_dir: Path) -> float:
    history = [json.loads(l) for l in (run_dir / "train_s0" / "history.jsonl").read_text().splitlines()]
    best = max(history, key=lambda h: (h["val_macro_f1"], -h["epoch"]))
    return best["val_acc"]


def test_criterion_3_synthetic_separability(tmp_path):
    start = time.perf_counter()
    signal = build_separability_fixture(tmp_path / "sig", samples_per_class=1200, seed=11)
    noise = build_separability_fixture(
        tmp_path / "noise", samples_per_class=1200, image_mode="noise", seed=12
    )
    registry = ProviderRegistry()
    _, multi = run_experiment(_separability_config(tmp_path, signal, "oracle_image", "sig_multi"), registry)
    _, text = run_experiment(_separability_config(tmp_path, signal, "text_only", "sig_text"), registry)
    _, noise_multi = run_experiment(_separability_config(tmp_path, noise, "oracle_image", "nz_multi"), registry)
    _, noise_text = run_experiment(_separability_config(tmp_path, noise, "text_only", "nz_text"), registry)
    elapsed = time.perf_counter() - start

    val_multi = _best_val_accuracy(tmp_path / "sig_multi")
    val_text = _best_val_accuracy(tmp_path / "sig_text")
    gap = abs(noise_multi.accuracy - noise_text.accuracy)
    ok = (
        val_multi >= 0.95
        and multi.accuracy >= 0.95
        and val_text <= 0.60
        and text.accuracy <= 0.60
        and gap <= 0.02
        and elapsed < 120.0
    )
    _criterion(
        3, "synthetic separability (fused wins; pure-noise images not detrimental)",
        ok,
        f"(val: fused {val_multi:.1%} vs text {val_text:.1%}; test: {multi.accuracy:.1%} vs "
        f"{text.accuracy:.1%}; noise gap {gap * 100:.2f}pts; {elapsed:.0f}s)",
    )


# 4 ---------------------------------------------------------------------------

def test_criterion_4_early_stopping_protocol():
    forced = {1: 0.5, 2: 0.6, 3: 0.59, 4: 0.58, 5: 0.99}
    snapshots = {}

    def fake_val(head, epoch):
        snapshots[epoch] = head.params.snapshot()
        return forced[epoch], forced[epoch]

    config = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=5, patience=2, seed=0)
    head, state = train_loop(
        _toy_head(), _toy_data(seed=1), _toy_data(seed=2), config, val_metric_fn=fake_val
    )
    restored = all(
        np.array_equal(value, snapshots[2][name])
        for name, value in head.params.params.items()
    )
    ok = state.epoch == 4 and state.best_epoch == 2 and restored
    _criterion(
        4, "early stopping on [0.5, 0.6, 0.59, 0.58] with patience 2",
        ok,
        f"(stopped after epoch {state.epoch}, restored epoch {state.best_epoch})",
    )


# 5 ---------------------------------------------------------------------------

def test_criterion_5_cost_ledger_arithmetic():
    expected = {
        "flux-schnell": Decimal("0.40"),
        "sdxl-lightning": Decimal("0.60"),
        "sdxl": Decimal("2.20"),
        "dalle3": Decimal("4.00"),
        "sd15": Decimal("0.80"),
    }
    results = {}
    for backend_id in expected:
        records = [
            GeneratedImageRecord(
                content_hash="h", prompt_key=f"k{i}", backend_id=backend_id, steps=1,
                image_ref="r", latency_s=0.0, cost_usd=0.0, created_at="t",
            )
            for i in range(100)
        ]
        results[backend_id] = ledger_totals(records, mode="estimated").total_cost_usd
    ok = all(results[b] == expected[b] for b in expected)
    detail = ", ".join(f"{b}=${results[b]}" for b in expected)
    _criterion(5, "cost ledger: 100 images per backend at published rates", ok, f"({detail})")


# 6 ---------------------------------------------------------------------------

def test_criterion_6_clip_score_properties():
    e0 = np.zeros(8)
    e0[0] = 1.0
    e1 = np.zeros(8)
    e1[1] = 1.0
    checks = [
        abs(clip_score(e0, e0) - 2.5) <= 1e-9,
        abs(clip_score(e0, e1) - 0.0) <= 1e-9,
        abs(clip_score(e0, -e0) - 0.0) <= 1e-9,
    ]
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        scale_a = float(rng.uniform(0.01, 100))
        scale_b = float(rng.uniform(0.01, 100))
        checks.append(abs(clip_score(scale_a * a, scale_b * b) - clip_score(a, b)) <= 1e-9)
    _criterion(6, "semantic-consistency score unit/scale properties", all(checks))


# 7 ---------------------------------------------------------------------------

def test_criterion_7_prompt_golden():
    sample = TextSample(id="amz-001", text=COFFEE_REVIEW, label=0)
    keywords = extract_keywords(sample.text)
    spec = build_prompt(sample, "keyword")
    keyword_ok = bool(keywords) and all(k in spec.positive for k in keywords)

    negative_ok = spec.negative == (
        "text, watermark, low quality, cartoon, blurry, ugly, disfigured, "
        "deformed, jpeg artifacts"
    ) and spec.negative == NEGATIVE_PROMPT

    artist_client = StubChatClient(response="a rewritten prompt")
    build_prompt(sample, "elaborated", elaborator=artist_client)
    writer_client = StubChatClient(response="a visual description")
    elaborate_text(sample.text, "visual_description", writer_client)
    system_ok = (
        artist_client.requests[0][0] == IMAGE_PROMPT_SYSTEM
        and writer_client.requests[0][0] == VISUAL_DESCRIPTION_SYSTEM
        and IMAGE_PROMPT_SYSTEM.startswith("You are an expert visual artist and photographer.")
        and VISUAL_DESCRIPTION_SYSTEM.startswith("You are an expert descriptive writer.")
    )
    _criterion(
        7, "prompt goldens (keywords embedded, negative constant, system prompts verbatim)",
        keyword_ok and negative_ok and system_ok,
        f"({len(keywords)} keywords)",
    )


# 8 ---------------------------------------------------------------------------

def test_criterion_8_pipeline_determinism_and_resume(tmp_path):
    fix = build_separability_fixture(tmp_path / "data", samples_per_class=12, seed=3)
    config_a = parse_config_data(
        {
            "experiment_id": "determinism",
            "dataset": {"path": str(fix.dataset_csv), "split_seed": 5,
                         "split_fractions": [0.6, 0.2, 0.2]},
            "output_dir": str(tmp_path / "runA"),
            "cache_dir": str(tmp_path / "cache"),
            "method": "gen_image",
            "strategy": "keyword",
            "generation": {"backend": "flux-schnell"},
            "providers": {"text": "hash-16", "image": "hash-16"},
            "fusion": {"mechanism": "cross_attention", "model_dim": 8, "heads": 2, "hidden_dim": 12},
            "training": {"learning_rate": 1e-3, "batch_size": 16, "max_epochs": 2, "patience": 2},
            "seeds": [0],
            "cost_mode": "estimated",
            "offline": True,
        }
    )
    registry = ProviderRegistry()
    run_experiment(config_a, registry)
    backend = registry.backends["flux-schnell"]
    text_provider = registry.text_providers["hash-16"]
    image_provider = registry.image_providers["hash-16"]
    snapshot = (backend.calls, text_provider.calls, image_provider.calls)

    config_b = dataclasses.replace(config_a, output_dir=str(tmp_path / "runB"))
    run_experiment(config_b, registry, force=True)  # re-derived from the caches, not reused
    zero_calls = (backend.calls, text_provider.calls, image_provider.calls) == snapshot

    identical = all(
        (Path(config_a.output_dir) / name).read_bytes()
        == (Path(config_b.output_dir) / name).read_bytes()
        for name in ("report.txt", "records.jsonl", "cost_summary.json", "attention.tsv")
    )
    # re-running a completed run dir short-circuits every stage
    manifest, _ = run_experiment(config_a, registry)
    still_zero = (backend.calls, text_provider.calls, image_provider.calls) == snapshot
    ok = zero_calls and identical and still_zero
    _criterion(
        8, "offline pipeline: byte-identical reports, zero remote calls on re-execution",
        ok,
        f"(backend calls {backend.calls})",
    )


# 9 ---------------------------------------------------------------------------

def test_criterion_9_attention_properties():
    config = FusionConfig(mechanism="cross_attention", model_dim=8, heads=2, num_classes=3)
    head = build_fusion_head(config, text_dim=6, image_dim=5, seed=4)
    rng = np.random.default_rng(9)
    pack = random_pack(rng, n_text=4, n_image=5, text_dim=6, image_dim=5)
    out = fuse_forward(head, PackBatch.from_packs([pack]))
    table = export_attention(
        out.attention, [f"t{i}" for i in range(4)], [f"i{j}" for j in range(5)]
    )
    rows = [
        [float(v) for v in line.split("\t")[1:]]
        for line in table.strip().split("\n")[1:]
    ]
    rows_ok = all(abs(sum(r) - 1.0) <= 1e-6 for r in rows)

    perm = rng.permutation(5)
    permuted = FeaturePack(
        pack.text_tokens, pack.image_tokens[perm], pack.text_pooled, pack.image_pooled
    )
    permuted_out = fuse_forward(head, PackBatch.from_packs([permuted]))
    invariant = np.allclose(out.logits[0], permuted_out.logits[0], atol=1e-10)

    single = random_pack(rng, n_text=3, n_image=1, text_dim=6, image_dim=5)
    matrix = head_averaged_map(fuse_forward(head, PackBatch.from_packs([single])).attention)[0]
    all_ones = matrix.shape == (3, 1) and np.allclose(matrix, 1.0)

    _criterion(
        9, "attention properties (row sums, permutation invariance, single-token column)",
        rows_ok and invariant and all_ones,
    )


# 10 --------------------------------------------------------------------------

def test_criterion_10_sweep_grids(tmp_path):
    fix = build_separability_fixture(tmp_path / "data", samples_per_class=10, seed=6)

    def base(out_name):
        return parse_config_data(
            {
                "experiment_id": out_name,
                "dataset": {"path": str(fix.dataset_csv), "split_seed": 5,
                             "split_fractions": [0.6, 0.2, 0.2]},
                "output_dir": str(tmp_path / out_name),
                "cache_dir": str(tmp_path / "cache"),
                "method": "gen_image",
                "strategy": "keyword",
                "generation": {"backend": "sdxl"},
                "providers": {"text": "hash-16", "image": "hash-16"},
                "fusion": {"mechanism": "concat", "model_dim": 8, "heads": 2, "hidden_dim": 8},
                "training": {"learning_rate": 1e-3, "batch_size": 16, "max_epochs": 1, "patience": 1},
                "seeds": [0],
                "cost_mode": "estimated",
            }
        )

    registry = ProviderRegistry()
    steps_result = run_sweep(base("steps_sweep"), {"steps": [50, 25, 10, 4]}, registry)
    steps_ok = (
        len(steps_result.cells) == 4
        and all(c.status == "done" for c in steps_result.cells)
        and steps_result.table is not None
        and (tmp_path / "steps_sweep" / "combined_table.txt").exists()
    )

    lr_result = run_sweep(
        base("lr_sweep"),
        {"learning_rate": [1e-5, 3e-5, 5e-5], "mechanism": ["concat", "cross_attention"]},
        registry,
    )
    lr_ok = (
        len(lr_result.cells) == 6
        and all(c.status == "done" for c in lr_result.cells)
        and lr_result.table is not None
        and lr_result.table.splitlines()[0].startswith("mechanism")
    )

    # resumability: re-running either sweep performs no new generation
    backend_calls = registry.backends["sdxl"].calls
    run_sweep(base("steps_sweep"), {"steps": [50, 25, 10, 4]}, registry)
    resumable = registry.backends["sdxl"].calls == backend_calls

    _criterion(
        10, "sweep grids (4-cell steps, 6-cell lr x fusion; independent, resumable)",
        steps_ok and lr_ok and resumable,
        f"({len(steps_result.cells)} + {len(lr_result.cells)} cells)",
    )
