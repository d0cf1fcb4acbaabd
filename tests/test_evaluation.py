import itertools

import numpy as np
import pytest

from t2ifuse.corpus import LabelSpace
from t2ifuse.evaluation import (
    EvalReport,
    EvaluationError,
    PredictionSet,
    bootstrap_std,
    clip_score_stats,
    compute_metrics,
    confusion_matrix,
    parse_records,
    render_records,
    render_report,
    table_layout,
)


def _space(c):
    return LabelSpace(tuple(f"c{i}" for i in range(c)))


def _preds(y_true, y_pred, c=None):
    y_true = list(y_true)
    y_pred = list(y_pred)
    c = c if c is not None else max(max(y_true), max(y_pred)) + 1
    logits = np.zeros((len(y_true), c))
    logits[np.arange(len(y_pred)), y_pred] = 1.0
    return PredictionSet(
        sample_ids=[f"s{i}" for i in range(len(y_true))],
        y_true=np.array(y_true),
        y_pred=np.array(y_pred),
        logits=logits,
        label_space=_space(c),
    )


def oracle_metrics(y_true, y_pred, num_classes):
    """Definitional per-class oracle written with bare Python loops."""
    n = len(y_true)
    accuracy = sum(1 for t, p in zip(y_true, y_pred) if t == p) / n
    per_class = []
    for c in range(num_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append((precision, recall, f1, tp + fn))
    macro_f1 = sum(pc[2] for pc in per_class) / num_classes
    confusion = [[0] * num_classes for _ in range(num_classes)]
    for t, p in zip(y_true, y_pred):
        confusion[t][p] += 1
    return accuracy, per_class, macro_f1, confusion


def test_perfect_predictions():
    report = compute_metrics(_preds([0, 1, 2], [0, 1, 2]))
    assert report.accuracy == 1.0
    assert report.macro_f1 == 1.0
    assert np.array_equal(report.confusion, np.eye(3, dtype=int))


def test_binary_all_flipped():
    report = compute_metrics(_preds([0, 1, 0, 1], [1, 0, 1, 0]))
    assert report.accuracy == 0.0
    assert report.macro_f1 == 0.0


def test_six_sample_three_class_fixture_matches_oracle():
    y_true = [0, 0, 1, 1, 2, 2]
    y_pred = [0, 1, 1, 1, 2, 0]
    report = compute_metrics(_preds(y_true, y_pred, c=3))
    accuracy, per_class, macro_f1, confusion = oracle_metrics(y_true, y_pred, 3)
    assert report.accuracy == pytest.approx(accuracy, abs=1e-15)
    assert report.macro_f1 == pytest.approx(macro_f1, abs=1e-15)
    for stats, (precision, recall, f1, support) in zip(report.per_class, per_class):
        assert stats.precision == pytest.approx(precision, abs=1e-15)
        assert stats.recall == pytest.approx(recall, abs=1e-15)
        assert stats.f1 == pytest.approx(f1, abs=1e-15)
        assert stats.support == support
    assert report.confusion.tolist() == confusion


def test_metrics_match_oracle_on_200_random_sets():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(1, 51))
        y_true = rng.integers(0, c, size=n).tolist()
        y_pred = rng.integers(0, c, size=n).tolist()
        report = compute_metrics(_preds(y_true, y_pred, c=c))
        accuracy, per_class, macro_f1, confusion = oracle_metrics(y_true, y_pred, c)
        assert abs(report.accuracy - accuracy) <= 1e-12
        assert abs(report.macro_f1 - macro_f1) <= 1e-12
        for stats, (precision, recall, f1, _) in zip(report.per_class, per_class):
            assert abs(stats.precision - precision) <= 1e-12
            assert abs(stats.recall - recall) <= 1e-12
            assert abs(stats.f1 - f1) <= 1e-12
        assert report.confusion.tolist() == confusion


def test_macro_f1_is_mean_of_per_class_f1():
    rng = np.random.default_rng(7)
    for _ in range(50):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(2, 40))
        report = compute_metrics(
            _preds(rng.integers(0, c, size=n), rng.integers(0, c, size=n), c=c)
        )
        assert report.macro_f1 == pytest.approx(
            np.mean([s.f1 for s in report.per_class]), abs=1e-12
        )
        assert report.accuracy == pytest.approx(
            np.trace(report.confusion) / report.confusion.sum(), abs=1e-12
        )


def test_zero_support_class_flagged_and_counted_in_macro():
    # class 2 never appears; macro-F1 still averages over 3 classes
    report = compute_metrics(_preds([0, 1], [0, 1], c=3))
    assert report.zero_support_classes == ["c2"]
    assert report.macro_f1 == pytest.approx((1.0 + 1.0 + 0.0) / 3)
    assert np.all(report.confusion_normalized[2] == 0)


def test_confusion_single_offdiagonal():
    report = compute_metrics(_preds([0], [1], c=2))
    assert report.confusion.tolist() == [[0, 1], [0, 0]]


def test_confusion_matches_tally_loop():
    rng = np.random.default_rng(5)
    y_true = rng.integers(0, 4, size=100)
    y_pred = rng.integers(0, 4, size=100)
    preds = _preds(y_true.tolist(), y_pred.tolist(), c=4)
    counts = confusion_matrix(preds)
    tally = np.zeros((4, 4), dtype=int)
    for t, p in zip(y_true, y_pred):
        tally[t, p] += 1
    assert np.array_equal(counts, tally)
    normalized = compute_metrics(preds).confusion_normalized
    sums = normalized.sum(axis=1)
    assert np.allclose(sums[counts.sum(axis=1) > 0], 1.0, atol=1e-9)


def test_bootstrap_degenerate_and_deterministic():
    preds = _preds([0, 0, 0], [0, 0, 0], c=2)
    assert bootstrap_std(preds, "accuracy", resamples=50, seed=1) == 0.0
    mixed = _preds([0, 1, 0, 1, 1], [0, 1, 1, 1, 0])
    a = bootstrap_std(mixed, "macro_f1", resamples=100, seed=9)
    b = bootstrap_std(mixed, "macro_f1", resamples=100, seed=9)
    assert a == b
    with pytest.raises(EvaluationError):
        bootstrap_std(mixed, "macro_f1", resamples=1)


def test_bootstrap_matches_independent_resampler():
    rng = np.random.default_rng(17)
    y_true = rng.integers(0, 3, size=20).tolist()
    y_pred = rng.integers(0, 3, size=20).tolist()
    preds = _preds(y_true, y_pred, c=3)
    ours = bootstrap_std(preds, "accuracy", resamples=1000, seed=123)

    # independent resampler with the same seed-stream definition:
    # ids sorted, default_rng(seed), integers(0, n, size=n) per resample
    order = np.argsort(np.array(preds.sample_ids))
    yt = np.array(y_true)[order]
    yp = np.array(y_pred)[order]
    stream = np.random.default_rng(123)
    values = []
    for _ in range(1000):
        idx = stream.integers(0, 20, size=20)
        values.append(float((yt[idx] == yp[idx]).mean()))
    theirs = float(np.std(values))
    assert ours == pytest.approx(theirs, abs=1e-12)


def test_bootstrap_order_invariance():
    rng = np.random.default_rng(21)
    y_true = rng.integers(0, 2, size=12)
    y_pred = rng.integers(0, 2, size=12)
    ids = [f"s{i:02d}" for i in range(12)]
    base = PredictionSet(ids, y_true, y_pred, np.zeros((12, 2)), _space(2))
    perm = rng.permutation(12)
    shuffled = PredictionSet(
        [ids[i] for i in perm], y_true[perm], y_pred[perm], np.zeros((12, 2)), _space(2)
    )
    assert bootstrap_std(base, "macro_f1", 200, seed=3) == bootstrap_std(
        shuffled, "macro_f1", 200, seed=3
    )


def test_clip_score_stats():
    mean, std = clip_score_stats([0.32])
    assert mean == pytest.approx(0.32) and std == 0.0
    mean, std = clip_score_stats([0.0, 2.5])
    assert mean == pytest.approx(1.25) and std == pytest.approx(1.25)
    rng = np.random.default_rng(2)
    scores = rng.uniform(0, 2.5, size=50)
    mean, std = clip_score_stats([(None, s) for s in scores])
    assert mean == pytest.approx(scores.sum() / 50, abs=1e-12)
    assert std == pytest.approx(np.sqrt(((scores - scores.mean()) ** 2).mean()), abs=1e-12)
    with pytest.raises(EvaluationError):
        clip_score_stats([])


def _report(acc, f1, **kw):
    return EvalReport(
        accuracy=acc,
        macro_f1=f1,
        per_class=[],
        confusion=np.zeros((2, 2), dtype=int),
        confusion_normalized=np.zeros((2, 2)),
        **kw,
    )


def test_render_single_cell():
    table, records = render_report(
        {("text_only",): _report(0.9, 0.89)}, "axis_table", axis_names=("method",)
    )
    assert table.strip().split("\n")[2].split()[0] == "text_only"
    assert "90.00" in table
    assert len(records) == 2
    with pytest.raises(EvaluationError, match="unknown layout"):
        render_report({("x",): _report(0.5, 0.5)}, "pivot_table")


def test_render_fusion_table_row_order():
    reports = {
        ("deep_prefix",): _report(0.8, 0.79),
        ("concat",): _report(0.7, 0.69),
        ("cross_attention",): _report(0.9, 0.88),
    }
    table, _ = render_report(reports, "fusion_table")
    lines = table.strip().split("\n")
    row_names = [line.split()[0] for line in lines[2:]]
    assert row_names == ["concat", "cross_attention", "deep_prefix"]
    assert "88.00*" in table  # best flagged


def test_render_missing_cell_errors():
    reports = {
        ("sdxl", "keyword"): _report(0.8, 0.79),
        ("sdxl", "direct"): _report(0.7, 0.69),
        ("sd15", "keyword"): _report(0.6, 0.59),
    }
    with pytest.raises(EvaluationError, match="missing cell"):
        render_report(reports, "t2i_prompt_table")


def test_render_golden_stability_and_round_trip():
    reports = {
        ("sd15", "keyword"): _report(0.7612, 0.7624, bootstrap_std=0.0058, clip_cos_mean=0.28),
        ("sd15", "elaborated"): _report(0.7630, 0.7645, bootstrap_std=0.0055, clip_cos_mean=0.29),
        ("sdxl", "keyword"): _report(0.7690, 0.7702, bootstrap_std=0.0048, clip_cos_mean=0.32),
        ("sdxl", "elaborated"): _report(0.7720, 0.7735, bootstrap_std=0.0042, clip_cos_mean=0.33),
    }
    table_1, records_1 = render_report(reports, "t2i_prompt_table", experiment_id="cells")
    table_2, records_2 = render_report(reports, "t2i_prompt_table", experiment_id="cells")
    assert table_1 == table_2
    assert records_1 == records_2
    lines = table_1.strip().split("\n")
    assert lines[2].split()[0] == "sd15"  # canonical backend order
    assert "77.35*" in table_1  # best macro-F1 flagged

    # machine records round-trip with full precision
    parsed = parse_records(render_records(records_1))
    assert parsed == records_1
    f1_record = next(
        r for r in parsed
        if r["axes"] == {"backend": "sdxl", "strategy": "elaborated"} and r["metric"] == "macro_f1"
    )
    assert f1_record["value"] == 0.7735


def test_main_table_layout():
    reports = {}
    for method in ("text_only", "gen_image"):
        for dataset in ("reviews", "topics"):
            bump = 0.05 if method == "gen_image" else 0.0
            reports[(method, dataset)] = _report(0.7 + bump, 0.69 + bump)
    table, _ = render_report(reports, "main_table")
    lines = table.strip().split("\n")
    assert lines[0].split() == ["method", "reviews:acc", "reviews:ma-f1", "topics:acc", "topics:ma-f1"]
    assert lines[2].split()[0] == "text_only"  # canonical method order
    assert lines[3].split()[0] == "gen_image"


@pytest.mark.parametrize(
    "axis_names, expected",
    [
        (["strategy", "backend"], ("t2i_prompt_table", ("backend", "strategy"))),
        (["mechanism"], ("fusion_table", ("mechanism",))),
        (["learning_rate", "mechanism"], ("fusion_table", ("mechanism", "learning_rate"))),
        (["dataset", "method"], ("main_table", ("method", "dataset"))),
        (["strategy"], ("axis_table", ("strategy",))),
        (["strategy", "steps"], ("axis_table", ("strategy", "steps"))),
        (["backend", "strategy", "steps"], ("axis_table", ("backend", "strategy", "steps"))),
        (["mechanism", "backend", "strategy"], ("axis_table", ("mechanism", "backend", "strategy"))),
    ],
)
def test_table_layout(axis_names, expected):
    keys = itertools.product(*(("a", "b") for _ in axis_names))  # the full grid
    assert table_layout(axis_names, keys) == expected


@pytest.mark.parametrize(
    "axis_names",
    [["backend", "strategy"], ["mechanism", "learning_rate"], ["method", "dataset"]],
)
def test_table_layout_falls_back_to_axis_table_on_an_incomplete_grid(axis_names):
    keys = [("a", "x"), ("a", "y"), ("b", "x")]  # (b, y) is missing
    assert table_layout(axis_names, keys) == ("axis_table", tuple(axis_names))
    # a grid layout asked for directly still refuses the incomplete grid
    reports = {key: _report(0.5, 0.5) for key in keys}
    with pytest.raises(EvaluationError, match="missing cell"):
        render_report(reports, "main_table")


def test_axis_table_has_one_row_per_cell_over_any_axes():
    reports = {
        ("keyword", "10"): _report(0.7, 0.69),
        ("direct", "10"): _report(0.6, 0.59),
        ("direct", "4"): _report(0.8, 0.79, bootstrap_std=0.01),
    }  # not a full grid: one row per cell needs none
    table, records = render_report(reports, "axis_table", axis_names=("strategy", "steps"))
    lines = table.strip().split("\n")
    assert lines[0].split() == ["strategy", "steps", "acc", "ma-f1"]
    assert [line.split()[:2] for line in lines[2:]] == [["direct", "4"], ["direct", "10"], ["keyword", "10"]]
    assert lines[2].split()[3:] == ["79.00*", "(±1.00)"]
    assert len({tuple(sorted(r["axes"].items())) for r in records}) == 3


def test_axis_orders_follow_the_source_constants():
    backends = ("stub", "dalle3", "flux-schnell", "sdxl-lightning", "sdxl", "sd15")
    table, _ = render_report({(b,): _report(0.5, 0.5) for b in backends}, "axis_table", axis_names=("backend",))
    assert [line.split()[0] for line in table.strip().split("\n")[2:]] == list(reversed(backends))
    strategies = ("elaborated", "stylized", "keyword", "direct")
    table, _ = render_report({(s,): _report(0.5, 0.5) for s in strategies}, "axis_table", axis_names=("strategy",))
    assert [line.split()[0] for line in table.strip().split("\n")[2:]] == list(reversed(strategies))
