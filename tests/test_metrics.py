"""Scoring: confusion, macro-F1 conventions, distance metrics, and writers."""

import numpy as np
import pytest

from emord.metrics import (
    MetricsError,
    build_report,
    holdout_proximity,
    write_confusion_csv,
    write_histogram_csv,
    write_pairs_csv,
    write_report_json,
)
from emord.taxonomy import builtin_taxonomy

ISEAR = builtin_taxonomy("isear-valence")
GRID = builtin_taxonomy("goemotions-grid-5x5")


def test_confusion_matrix_layout():
    pairs = [("joy", "joy"), ("joy", "fear"), ("fear", "joy"), ("sadness", "sadness")]
    cm = build_report(pairs, ISEAR, "softmax").confusion
    assert cm.shape == (7, 7)
    joy, fear, sadness = ISEAR.index("joy"), ISEAR.index("fear"), ISEAR.index("sadness")
    assert cm[joy, joy] == 1
    assert cm[joy, fear] == 1  # rows gold, columns predicted
    assert cm[fear, joy] == 1
    assert cm[sadness, sadness] == 1
    assert cm.sum() == 4


def test_per_class_metrics_conventions():
    pairs = [("joy", "joy"), ("joy", "joy"), ("joy", "fear"), ("fear", "joy")]
    stats = {m.label: m for m in build_report(pairs, ISEAR, "softmax").per_class}
    joy = stats["joy"]
    assert joy.support == 3 and joy.predicted == 3
    assert joy.precision == pytest.approx(2 / 3)
    assert joy.recall == pytest.approx(2 / 3)
    fear = stats["fear"]
    assert fear.precision == 0.0 and fear.recall == 0.0 and fear.f1 == 0.0
    # a label that never appears contributes zeros, not NaN
    anger = stats["anger"]
    assert anger.support == 0 and anger.predicted == 0
    assert anger.f1 == 0.0


def test_macro_f1_excludes_absent_classes():
    # only classes with gold or predicted examples enter the average
    pairs = [("joy", "joy"), ("fear", "fear"), ("fear", "fear")]
    assert build_report(pairs, ISEAR, "softmax").macro_f1 == pytest.approx(1.0)
    pairs = [("joy", "joy"), ("fear", "joy")]
    # joy: p=1/2, r=1, f1=2/3; fear: 0 -> macro over exactly these two
    assert build_report(pairs, ISEAR, "softmax").macro_f1 == pytest.approx((2 / 3 + 0.0) / 2)


def test_macro_f1_counts_a_class_that_is_only_predicted():
    # fear has no gold example but is predicted once, so it enters the mean at 0
    pairs = [("joy", "joy"), ("joy", "fear")]
    assert build_report(pairs, ISEAR, "softmax").macro_f1 == pytest.approx((2 / 3 + 0.0) / 2)


def test_error_histogram_buckets():
    pairs = [("sadness", "sadness"), ("sadness", "anger"), ("sadness", "joy")]
    hist = build_report(pairs, ISEAR, "ordinal-1d").error_histogram
    assert hist == {1: 0, 2: 1, 3: 0, 4: 0, 5: 0, 6: 1}


def test_build_report_ordinal_fields():
    pairs = [
        ("sadness", "sadness"),  # d=0
        ("sadness", "shame"),    # d=1
        ("joy", "sadness"),      # d=6
        ("anger", "anger"),      # d=0
    ]
    report = build_report(pairs, ISEAR, "ordinal-1d")
    assert report.n_examples == 4
    assert report.accuracy == pytest.approx(0.5)
    assert report.mean_error_distance == pytest.approx((1 + 6) / 2)
    assert report.max_error_distance == 6
    assert report.mean_distance == pytest.approx((0 + 1 + 6 + 0) / 4)
    assert report.error_histogram[1] == 1 and report.error_histogram[6] == 1
    assert report.chebyshev_histogram is None
    assert report.off_grid_rate is None


def test_build_report_grid_fields():
    pairs = [
        ("grief", "grief"),        # d=0
        ("grief", "sadness"),      # L1=1 cheb=1
        ("grief", "excitement"),   # L1=8 cheb=4
    ]
    report = build_report(pairs, GRID, "ordinal-2d")
    assert report.mean_error_distance == pytest.approx((1 + 8) / 2)
    assert report.mean_distance == pytest.approx(9 / 3)
    assert report.chebyshev_histogram == {1: 1, 2: 0, 3: 0, 4: 1}
    assert report.mean_error_chebyshev == pytest.approx(2.5)
    assert report.off_grid_rate is None  # no off-grid flags supplied


def test_build_report_perfect_predictions():
    pairs = [("joy", "joy"), ("fear", "fear")]
    report = build_report(pairs, ISEAR, "softmax")
    assert report.accuracy == 1.0
    assert report.mean_error_distance == 0.0
    assert report.max_error_distance == 0
    assert report.mean_distance == 0.0
    assert all(n == 0 for n in report.error_histogram.values())


def test_build_report_validation():
    with pytest.raises(MetricsError):
        build_report([], ISEAR, "softmax")
    with pytest.raises(MetricsError, match="not in the taxonomy"):
        build_report([("joy", "confidence")], ISEAR, "softmax")


def test_report_to_dict_serializable():
    import json

    pairs = [("grief", "sadness"), ("joy", "joy")]
    report = build_report(pairs, GRID, "ordinal-2d")
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["format"] == "emord.report/1"
    assert doc["n_examples"] == 2
    assert doc["error_histogram"]["1"] == 1
    assert len(doc["confusion"]) == 23


def test_writers(tmp_path):
    pairs = [("sadness", "sadness"), ("sadness", "joy"), ("joy", "joy")]
    report = build_report(pairs, ISEAR, "softmax")
    report_path = tmp_path / "report.json"
    write_report_json(report, report_path)
    text = report_path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert '"accuracy"' in text

    confusion_path = tmp_path / "confusion.csv"
    write_confusion_csv(report, confusion_path)
    lines = confusion_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "label," + ",".join(ISEAR.labels)
    assert len(lines) == 8
    sadness_row = lines[1 + ISEAR.index("sadness")].split(",")
    assert sadness_row[0] == "sadness"
    assert sadness_row[1 + ISEAR.index("joy")] == "1"

    hist_path = tmp_path / "hist.csv"
    write_histogram_csv(report, hist_path)
    lines = hist_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "distance,count"
    assert len(lines) == 7  # distances 1..6, zero buckets kept

    pairs_path = tmp_path / "pairs.csv"
    write_pairs_csv(pairs, pairs_path)
    lines = pairs_path.read_text(encoding="utf-8").splitlines()
    assert lines == ["gold,predicted", "sadness,sadness", "sadness,joy", "joy,joy"]


def test_holdout_validation_errors():
    from emord.checkpoint import Checkpoint
    from emord.data import LabeledCorpus, build_vocab
    from emord.net import ModelConfig, init_params

    vocab = build_vocab(LabeledCorpus((("cue0 cue1 fill0 fill1", "joy"),)))
    config = ModelConfig(
        vocab_size=vocab.size,
        output_width=8,
        head_mode="ordinal-2d",
        embed_dim=4,
        conv_channels=(3, 3),
        kernel_sizes=(6, 4),
        ffnn_hidden=(5, 4),
        dtype="float32",
    )
    ck = Checkpoint(
        config=config,
        params=init_params(config, 0),
        taxonomy=GRID,
        vocab=vocab,
        max_seq_length=12,
    )
    mixed = LabeledCorpus((("cue0 cue1", "joy"), ("cue0 cue1", "grief")))
    with pytest.raises(MetricsError, match="only 'joy'"):
        holdout_proximity(ck, mixed, "joy")

    ck_1d = Checkpoint(
        config=config,
        params=ck.params,
        taxonomy=ISEAR,
        vocab=vocab,
        max_seq_length=12,
    )
    with pytest.raises(MetricsError, match="grid"):
        holdout_proximity(ck_1d, mixed, "joy")


def test_holdout_distances_use_raw_cells():
    # a deterministic constant network decodes every example to one cell;
    # the report distance must be the L1 distance from that raw cell
    from emord.checkpoint import Checkpoint
    from emord.data import LabeledCorpus, build_vocab, encode_corpus
    from emord.infer import predict_ids
    from emord.net import ModelConfig, init_params

    corpus = LabeledCorpus(
        tuple((f"cue{i} fill0 fill1 fill2", "joy") for i in range(4))
    )
    vocab = build_vocab(corpus)
    config = ModelConfig(
        vocab_size=vocab.size,
        output_width=8,
        head_mode="ordinal-2d",
        embed_dim=4,
        conv_channels=(3, 3),
        kernel_sizes=(6, 4),
        ffnn_hidden=(5, 4),
        dtype="float32",
    )
    ck = Checkpoint(
        config=config,
        params=init_params(config, 0),
        taxonomy=GRID,
        vocab=vocab,
        max_seq_length=12,
    )
    report = holdout_proximity(ck, corpus, "joy")
    token_ids, _ = encode_corpus(corpus, vocab, 12)
    preds = predict_ids(ck, token_ids)
    target = GRID.cell("joy")
    expected = [abs(p.cell[0] - target[0]) + abs(p.cell[1] - target[1]) for p in preds]
    assert report.mean_distance == pytest.approx(sum(expected) / len(expected))
    assert report.n_examples == 4
    assert sum(report.distribution.values()) == 4
    assert set(report.distribution) == set(range(0, 9))


def spread_grid_model():
    """An untrained ordinal-2d model whose 300 texts decode to 8 cells, one unlabeled."""
    from emord.checkpoint import Checkpoint
    from emord.data import LabeledCorpus, build_vocab
    from emord.net import ModelConfig, init_params

    rng = np.random.default_rng(0)
    corpus = LabeledCorpus(
        tuple((" ".join(f"w{j}" for j in rng.integers(0, 30, size=6)), "joy") for _ in range(300))
    )
    vocab = build_vocab(corpus)
    config = ModelConfig(
        vocab_size=vocab.size,
        output_width=8,
        head_mode="ordinal-2d",
        embed_dim=8,
        conv_channels=(8, 8),
        kernel_sizes=(6, 4),
        ffnn_hidden=(16, 16),
        dtype="float32",
    )
    ck = Checkpoint(
        config=config,
        params=init_params(config, 0),
        taxonomy=GRID,
        vocab=vocab,
        max_seq_length=12,
    )
    return ck, corpus


def decode_rows(ck, corpus):
    from emord.data import encode_corpus
    from emord.infer import predict_ids

    decoded = predict_ids(ck, encode_corpus(corpus, ck.vocab, ck.max_seq_length)[0])
    return [decoded[i] for i in range(len(decoded))]


def test_evaluate_off_grid_rate_counts_decoded_rows():
    from emord.metrics import evaluate

    ck, corpus = spread_grid_model()
    result = evaluate(ck, corpus)
    rows = decode_rows(ck, corpus)
    flags = [pred.off_grid for pred in rows]
    assert 0 < sum(flags) < len(flags)
    assert result.report.off_grid_rate == sum(flags) / len(flags)
    assert result.pairs == tuple((gold, pred.label) for gold, pred in zip(corpus.labels(), rows))


def test_holdout_distribution_equals_a_loop_over_cells():
    ck, corpus = spread_grid_model()
    report = holdout_proximity(ck, corpus, "joy")
    target = GRID.cell("joy")
    distribution = {d: 0 for d in range(9)}
    for pred in decode_rows(ck, corpus):
        v, a = pred.cell
        distribution[abs(v - target[0]) + abs(a - target[1])] += 1
    assert sum(n > 0 for n in distribution.values()) > 1
    assert report.distribution == distribution
    assert report.mean_distance == sum(d * n for d, n in distribution.items()) / len(corpus)
