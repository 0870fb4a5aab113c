"""Scoring: confusion, macro-F1 conventions, distance metrics, and writers."""

import dataclasses

import numpy as np
import pytest

from emord.metrics import (
    EvalResult,
    MetricsError,
    build_report,
    holdout_proximity,
    write_confusion_csv,
    write_histogram_csv,
    write_pairs_csv,
    write_report_json,
)
from emord.recipe import TrainConfig
from emord.taxonomy import builtin_taxonomy

ISEAR = builtin_taxonomy("isear-valence")
GRID = builtin_taxonomy("goemotions-grid-5x5")


def report_of(pairs, taxonomy, mode, **kwargs):
    """build_report over (gold, predicted) label names, mapped to indices."""
    gold, pred = (np.array([taxonomy.index(name) for name in names]) for names in zip(*pairs))
    return build_report(gold, pred, taxonomy, mode, **kwargs)


def grid_recipe(**widths) -> TrainConfig:
    """An ordinal-2d recipe over the grid at sequence length 12."""
    return TrainConfig(
        mode="ordinal-2d", taxonomy="goemotions-grid-5x5", max_seq_length=12, **widths
    )


def test_confusion_matrix_layout():
    pairs = [("joy", "joy"), ("joy", "fear"), ("fear", "joy"), ("sadness", "sadness")]
    cm = report_of(pairs, ISEAR, "softmax").confusion
    assert cm.shape == (7, 7)
    joy, fear, sadness = ISEAR.index("joy"), ISEAR.index("fear"), ISEAR.index("sadness")
    assert cm[joy, joy] == 1
    assert cm[joy, fear] == 1  # rows gold, columns predicted
    assert cm[fear, joy] == 1
    assert cm[sadness, sadness] == 1
    assert cm.sum() == 4


def test_per_class_metrics_conventions():
    pairs = [("joy", "joy"), ("joy", "joy"), ("joy", "fear"), ("fear", "joy")]
    stats = {m.label: m for m in report_of(pairs, ISEAR, "softmax").per_class}
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
    assert report_of(pairs, ISEAR, "softmax").macro_f1 == pytest.approx(1.0)
    pairs = [("joy", "joy"), ("fear", "joy")]
    # joy: p=1/2, r=1, f1=2/3; fear: 0 -> macro over exactly these two
    assert report_of(pairs, ISEAR, "softmax").macro_f1 == pytest.approx((2 / 3 + 0.0) / 2)


def test_macro_f1_counts_a_class_that_is_only_predicted():
    # fear has no gold example but is predicted once, so it enters the mean at 0
    pairs = [("joy", "joy"), ("joy", "fear")]
    assert report_of(pairs, ISEAR, "softmax").macro_f1 == pytest.approx((2 / 3 + 0.0) / 2)


def test_error_histogram_buckets():
    pairs = [("sadness", "sadness"), ("sadness", "anger"), ("sadness", "joy")]
    hist = report_of(pairs, ISEAR, "ordinal-1d").error_histogram
    assert hist == {1: 0, 2: 1, 3: 0, 4: 0, 5: 0, 6: 1}


def test_build_report_ordinal_fields():
    pairs = [
        ("sadness", "sadness"),  # d=0
        ("sadness", "shame"),    # d=1
        ("joy", "sadness"),      # d=6
        ("anger", "anger"),      # d=0
    ]
    report = report_of(pairs, ISEAR, "ordinal-1d")
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
    report = report_of(pairs, GRID, "ordinal-2d")
    assert report.mean_error_distance == pytest.approx((1 + 8) / 2)
    assert report.mean_distance == pytest.approx(9 / 3)
    assert report.chebyshev_histogram == {1: 1, 2: 0, 3: 0, 4: 1}
    assert report.mean_error_chebyshev == pytest.approx(2.5)
    assert report.off_grid_rate is None  # no off-grid flags supplied


def test_build_report_perfect_predictions():
    pairs = [("joy", "joy"), ("fear", "fear")]
    report = report_of(pairs, ISEAR, "softmax")
    assert report.accuracy == 1.0
    assert report.mean_error_distance == 0.0
    assert report.max_error_distance == 0
    assert report.mean_distance == 0.0
    assert all(n == 0 for n in report.error_histogram.values())


def test_build_report_validation():
    empty = np.zeros(0, dtype=np.intp)
    with pytest.raises(MetricsError, match="no \\(gold, predicted\\) pairs"):
        build_report(empty, empty, ISEAR, "softmax")
    ok = np.array([0, 6])
    for gold, pred in [(ok, np.array([0])), (ok[:, None], ok[:, None]), (np.int64(0), np.int64(0))]:
        with pytest.raises(MetricsError, match="two \\(N,\\) index arrays"):
            build_report(gold, pred, ISEAR, "softmax")
    # -1 or K would otherwise count as another cell of the confusion matrix
    for bad in ([0, -1], [0, 7], [0.0, 1.0], [True, False]):
        with pytest.raises(MetricsError, match=r"predicted label indices must be integers in \[0, 7\)"):
            build_report(ok, np.array(bad), ISEAR, "softmax")
        with pytest.raises(MetricsError, match=r"gold label indices must be integers in \[0, 7\)"):
            build_report(np.array(bad), ok, ISEAR, "softmax")


@pytest.mark.parametrize("flags", [np.ones(5, bool), np.ones((2, 2), bool), np.ones(1, bool), []])
def test_build_report_takes_one_off_grid_flag_per_example(flags):
    gold = np.array([GRID.index("grief"), GRID.index("joy")])
    with pytest.raises(MetricsError, match=r"one flag per example \(2\)"):
        build_report(gold, gold, GRID, "ordinal-2d", off_grid=flags)
    assert build_report(gold, gold, GRID, "ordinal-2d", off_grid=np.ones(2, bool)).off_grid_rate == 1.0


@pytest.mark.parametrize("taxonomy, mode", [(ISEAR, "softmax"), (GRID, "ordinal-2d")])
def test_reports_compare_by_value(taxonomy, mode):
    # the array fields compare whole: equal reports are equal, and one
    # confusion cell or one index apart makes them unequal
    gold, pred = np.array([0, 1]), np.array([0, 2])
    report = build_report(gold, pred, taxonomy, mode)
    same = build_report(gold.copy(), pred.copy(), taxonomy, mode)
    assert report == same and not report != same
    confusion = same.confusion.copy()
    confusion[1, 1] += 1
    assert report != dataclasses.replace(same, confusion=confusion)
    assert report != build_report(gold, gold, taxonomy, mode)
    assert report != report.to_dict()
    result = EvalResult(report, gold, pred)
    assert result == EvalResult(same, gold.copy(), pred.copy())
    assert result != EvalResult(same, gold, gold)
    assert result != EvalResult(same, pred, pred)
    assert result != EvalResult(dataclasses.replace(same, confusion=confusion), gold, pred)
    # a report holds arrays, so hash() refuses it by the class's own name
    for value in (report, result):
        with pytest.raises(TypeError, match=f"unhashable type: '{type(value).__name__}'"):
            hash(value)


def test_report_to_dict_serializable():
    import json

    pairs = [("grief", "sadness"), ("joy", "joy")]
    report = report_of(pairs, GRID, "ordinal-2d")
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["format"] == "emord.report/1"
    assert doc["n_examples"] == 2
    assert doc["error_histogram"]["1"] == 1
    assert len(doc["confusion"]) == 23
    assert set(doc["per_class"][0]) == {"label", "precision", "recall", "f1", "support", "predicted"}


def test_writers(tmp_path):
    pairs = [("sadness", "sadness"), ("sadness", "joy"), ("joy", "joy")]
    report = report_of(pairs, ISEAR, "softmax")
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
    gold, pred = (np.array([ISEAR.index(name) for name in names]) for names in zip(*pairs))
    write_pairs_csv(EvalResult(report, gold, pred), pairs_path)
    lines = pairs_path.read_text(encoding="utf-8").splitlines()
    assert lines == ["gold,predicted", "sadness,sadness", "sadness,joy", "joy,joy"]


def test_holdout_validation_errors():
    from emord.checkpoint import Checkpoint
    from emord.data import LabeledCorpus, build_vocab
    from emord.net import init_params

    vocab = build_vocab(LabeledCorpus((("cue0 cue1 fill0 fill1", "joy"),)))
    widths = dict(embed_dim=4, conv_channels=(3, 3), ffnn_hidden=(5, 4))
    recipe = grid_recipe(**widths)
    config = recipe.model_config(vocab.size, GRID)
    ck = Checkpoint(init_params(config, 0), GRID, vocab, recipe)
    mixed = LabeledCorpus((("cue0 cue1", "joy"), ("cue0 cue1", "grief")))
    with pytest.raises(MetricsError, match="only 'joy'"):
        holdout_proximity(ck, mixed, "joy")

    softmax = TrainConfig(mode="softmax", max_seq_length=12, **widths)
    params_1d = init_params(softmax.model_config(vocab.size, ISEAR), 0)
    ck_1d = Checkpoint(params_1d, ISEAR, vocab, softmax)
    with pytest.raises(MetricsError, match="grid"):
        holdout_proximity(ck_1d, mixed, "joy")


def test_holdout_distances_use_raw_cells():
    # a deterministic constant network decodes every example to one cell;
    # the report distance must be the L1 distance from that raw cell
    from emord.checkpoint import Checkpoint
    from emord.data import LabeledCorpus, build_vocab, encode_corpus
    from emord.infer import predict_ids
    from emord.net import init_params

    corpus = LabeledCorpus(
        tuple((f"cue{i} fill0 fill1 fill2", "joy") for i in range(4))
    )
    vocab = build_vocab(corpus)
    recipe = grid_recipe(embed_dim=4, conv_channels=(3, 3), ffnn_hidden=(5, 4))
    config = recipe.model_config(vocab.size, GRID)
    ck = Checkpoint(init_params(config, 0), GRID, vocab, recipe)
    report = holdout_proximity(ck, corpus, "joy")
    preds = predict_ids(ck, encode_corpus(corpus, vocab, 12))
    target = GRID.cells["joy"]
    expected = [abs(p.cell[0] - target[0]) + abs(p.cell[1] - target[1]) for p in preds]
    assert report.mean_distance == pytest.approx(sum(expected) / len(expected))
    assert report.n_examples == 4
    assert sum(report.distribution.values()) == 4
    assert set(report.distribution) == set(range(0, 9))


def spread_grid_model():
    """An untrained ordinal-2d model whose 300 texts decode to 8 cells, one unlabeled."""
    from emord.checkpoint import Checkpoint
    from emord.data import LabeledCorpus, build_vocab
    from emord.net import init_params

    rng = np.random.default_rng(0)
    corpus = LabeledCorpus(
        tuple((" ".join(f"w{j}" for j in rng.integers(0, 30, size=6)), "joy") for _ in range(300))
    )
    vocab = build_vocab(corpus)
    recipe = grid_recipe(embed_dim=8, conv_channels=(8, 8), ffnn_hidden=(16, 16))
    config = recipe.model_config(vocab.size, GRID)
    ck = Checkpoint(init_params(config, 0), GRID, vocab, recipe)
    return ck, corpus


def decode_rows(ck, corpus):
    from emord.data import encode_corpus
    from emord.infer import predict_ids

    decoded = predict_ids(ck, encode_corpus(corpus, ck.vocab, ck.recipe.max_seq_length))
    return [decoded[i] for i in range(len(decoded))]


def test_evaluate_off_grid_rate_counts_decoded_rows():
    from emord.metrics import evaluate

    ck, corpus = spread_grid_model()
    result = evaluate(ck, corpus)
    rows = decode_rows(ck, corpus)
    flags = [pred.off_grid for pred in rows]
    assert 0 < sum(flags) < len(flags)
    assert result.report.off_grid_rate == sum(flags) / len(flags)
    assert [GRID.labels[i] for i in result.gold] == corpus.labels()
    assert [GRID.labels[i] for i in result.predicted] == [pred.label for pred in rows]


def test_holdout_distribution_equals_a_loop_over_cells():
    ck, corpus = spread_grid_model()
    report = holdout_proximity(ck, corpus, "joy")
    target = GRID.cells["joy"]
    distribution = {d: 0 for d in range(9)}
    for pred in decode_rows(ck, corpus):
        v, a = pred.cell
        distribution[abs(v - target[0]) + abs(a - target[1])] += 1
    assert sum(n > 0 for n in distribution.values()) > 1
    assert report.distribution == distribution
    assert report.mean_distance == sum(d * n for d, n in distribution.items()) / len(corpus)
