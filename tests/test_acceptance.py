"""Release gate: the properties this package promises, one verdict line each.

Run with `pytest -v tests/test_acceptance.py` (add `-s` to see the verdict
lines as they print).  Every check here is a hard requirement; none may be
skipped or weakened.  The training-based checks use deliberately small
corpora and budgets, so the whole file finishes on an ordinary laptop.
"""

import contextlib
import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from emord.checkpoint import load_checkpoint
from emord.cli import main
from emord.codec import HEAD_MODES, codewords, decode_thermometer_batch
from emord.data import SyntheticSpec, filter_labels, generate_synthetic
from emord.gradcheck import check_gradients, tiny_config
from emord.hashing import sha256_file
from emord.metrics import build_report, evaluate, holdout_proximity
from emord.taxonomy import (
    builtin_taxonomy,
    label_distance,
    parse_taxonomy,
    save_taxonomy,
)
from emord.trainer import TrainConfig, Trainer

ISEAR = builtin_taxonomy("isear-valence")
GRID = builtin_taxonomy("goemotions-grid-5x5")

FIXTURE_DIR = Path(__file__).parent / "data"


@contextlib.contextmanager
def verdict(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL", flush=True)
        raise
    print(f"criterion {number} ({name}): PASS", flush=True)


def train_and_score(mode, corpus, taxonomy_name, seed, epochs, **cfg_kw):
    """Train one model and evaluate its final checkpoint on the test split."""
    config = TrainConfig(
        mode=mode, taxonomy=taxonomy_name, epochs=epochs, seed=seed, **cfg_kw
    )
    trainer = Trainer(config, corpus)
    result = trainer.run()
    return evaluate(result.final, trainer.test_split).report


def far_error_fraction(report, threshold=3):
    errors = sum(report.error_histogram.values())
    if errors == 0:
        return 0.0
    far = sum(count for d, count in report.error_histogram.items() if d >= threshold)
    return far / errors


# --------------------------------------------------------------- criterion 1


def test_criterion_1_gradient_check():
    """Analytic gradients match 64-bit central differences in every mode."""
    with verdict(1, "gradient check, 3 modes x 5 seeds, rel err <= 1e-4"):
        started = time.perf_counter()
        assert tiny_config("softmax").dtype == "float64"
        for mode in HEAD_MODES:
            for seed in range(5):
                report = check_gradients(mode, seed=seed, tolerance=1e-4)
                assert report.passed, report.format_text()
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s (budget 60s)"


# --------------------------------------------------------------- criterion 2


def test_criterion_2_codec_laws_and_metric_axioms():
    """Codec laws exhaustively for K<=32; distances are metrics by enumeration."""
    with verdict(2, "codec laws K<=32 and metric axioms"):
        for k in range(2, 33):
            codes = codewords(k)
            assert decode_thermometer_batch(codes).tolist() == list(range(k))
            for i in range(k):
                for j in range(k):
                    squared = float(np.sum((codes[i] - codes[j]) ** 2))
                    assert squared == float(abs(i - j)), (k, i, j)

        def assert_metric(labels, dist):
            for a in labels:
                for b in labels:
                    d_ab = dist(a, b)
                    assert d_ab >= 0
                    assert (d_ab == 0) == (a == b), (a, b)
                    assert d_ab == dist(b, a), (a, b)
            for a in labels:
                for b in labels:
                    for c in labels:
                        assert dist(a, c) <= dist(a, b) + dist(b, c), (a, b, c)

        for tax in (ISEAR, GRID):
            assert_metric(range(tax.num_labels), lambda i, j: label_distance(tax, i, j))
        # the largest per-axis gap, as build_report takes it from the coordinates
        assert_metric(range(GRID.num_labels), lambda i, j: np.abs(GRID.coords[i] - GRID.coords[j]).max())


# --------------------------------------------------------------- criterion 3


def seven_label_grid(tmp_path: Path) -> str:
    """A 7-label taxonomy on a 3x3 grid, for the two-axis head."""
    document = {
        "format": "emord.taxonomy/1",
        "mode": "2d",
        "grid_size": 3,
        "labels": [
            {"name": "down", "valence": 0, "arousal": 0},
            {"name": "wary", "valence": 0, "arousal": 2},
            {"name": "flat", "valence": 1, "arousal": 1},
            {"name": "tense", "valence": 1, "arousal": 2},
            {"name": "calm", "valence": 2, "arousal": 0},
            {"name": "glad", "valence": 2, "arousal": 1},
            {"name": "thrill", "valence": 2, "arousal": 2},
        ],
    }
    path = tmp_path / "grid7.json"
    save_taxonomy(parse_taxonomy(document), path)
    return str(path)


def test_criterion_3_separable_sanity(tmp_path):
    """With unambiguous signal every head mode reaches 0.95 test accuracy."""
    with verdict(3, "separable corpus: all modes >= 0.95 accuracy"):
        started = time.perf_counter()
        legs = [
            ("softmax", "isear-valence", ISEAR),
            ("ordinal-1d", "isear-valence", ISEAR),
            ("ordinal-2d", seven_label_grid(tmp_path), None),
        ]
        for mode, taxonomy_ref, taxonomy in legs:
            if taxonomy is None:
                from emord.taxonomy import load_taxonomy

                taxonomy = load_taxonomy(taxonomy_ref)
            corpus = generate_synthetic(
                SyntheticSpec(
                    taxonomy=taxonomy,
                    examples_per_class=200,
                    p_signal=1.0,
                    p_confuse=0.0,
                    seed=0,
                )
            )
            report = train_and_score(mode, corpus, taxonomy_ref, seed=0, epochs=10)
            assert report.accuracy >= 0.95, f"{mode}: accuracy {report.accuracy:.4f}"
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0, f"separable sanity took {elapsed:.1f}s (budget 300s)"


# --------------------------------------------------------------- criterion 4


def test_criterion_4_ordinal_errors_stay_near():
    """Under confusable signal, the thermometer head keeps errors close:
    no worse mean error distance, strictly fewer far misses (distance >= 3),
    and accuracy within 0.03 of the softmax baseline, averaged over 5 seeds.
    """
    with verdict(4, "1d ordinal vs softmax error geometry, 5 seeds"):
        started = time.perf_counter()
        rows = []
        for seed in range(5):
            corpus = generate_synthetic(
                SyntheticSpec(
                    taxonomy=ISEAR,
                    examples_per_class=400,
                    p_signal=0.3,
                    p_confuse=0.3,
                    sequence_length=16,
                    seed=seed,
                )
            )
            base = train_and_score(
                "softmax", corpus, "isear-valence", seed, epochs=4, split=(0.7, 0.1, 0.2)
            )
            ordi = train_and_score(
                "ordinal-1d", corpus, "isear-valence", seed, epochs=4, split=(0.7, 0.1, 0.2)
            )
            rows.append(
                (
                    base.accuracy,
                    ordi.accuracy,
                    base.mean_error_distance,
                    ordi.mean_error_distance,
                    far_error_fraction(base),
                    far_error_fraction(ordi),
                )
            )
        n = len(rows)
        acc_base, acc_ordinal, med_base, med_ordinal, far_base, far_ordinal = (
            sum(row[i] for row in rows) / n for i in range(6)
        )
        assert med_ordinal <= med_base, (
            f"mean error distance: ordinal {med_ordinal:.4f} > softmax {med_base:.4f}"
        )
        assert far_ordinal < far_base, (
            f"far-error fraction: ordinal {far_ordinal:.4f} !< softmax {far_base:.4f}"
        )
        assert abs(acc_base - acc_ordinal) <= 0.03, (
            f"accuracy gap {abs(acc_base - acc_ordinal):.4f} exceeds 0.03"
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 1800.0, f"criterion 4 took {elapsed:.1f}s (budget 1800s)"


# --------------------------------------------------------------- criterion 5


def test_criterion_5_grid_macro_f1_gap():
    """On the 23-class grid at a fixed small budget, the two-axis ordinal
    head beats softmax by at least 0.10 macro-F1, averaged over 3 seeds."""
    with verdict(5, "2d ordinal macro-F1 >= softmax + 0.10, 3 seeds"):
        started = time.perf_counter()
        gaps = []
        for seed in range(3):
            corpus = generate_synthetic(
                SyntheticSpec(
                    taxonomy=GRID,
                    examples_per_class=100,
                    p_signal=0.25,
                    p_confuse=0.3,
                    sequence_length=20,
                    seed=seed,
                )
            )
            base = train_and_score(
                "softmax", corpus, "goemotions-grid-5x5", seed, epochs=8,
                learning_rate=3e-3,
            )
            ordi = train_and_score(
                "ordinal-2d", corpus, "goemotions-grid-5x5", seed, epochs=8,
                learning_rate=3e-3,
            )
            gaps.append(ordi.macro_f1 - base.macro_f1)
        mean_gap = sum(gaps) / len(gaps)
        assert mean_gap >= 0.10, f"mean macro-F1 gap {mean_gap:.4f} < 0.10 ({gaps})"
        elapsed = time.perf_counter() - started
        assert elapsed < 1800.0, f"criterion 5 took {elapsed:.1f}s (budget 1800s)"


# --------------------------------------------------------------- criterion 6


def test_criterion_6_holdout_class_proximity():
    """A class never seen in training decodes near its true grid cell: the
    mean distance stays under the uniform-random-cell bar on every seed."""
    with verdict(6, "held-out class lands near its cell, 3 seeds"):
        # the bar: mean L1 distance to the central cell if predictions fell
        # uniformly on the grid, derived by exhaustive enumeration
        size = GRID.grid_size
        center = (size // 2, size // 2)
        cells = [(v, a) for v in range(size) for a in range(size)]
        random_bar = sum(
            abs(v - center[0]) + abs(a - center[1]) for v, a in cells
        ) / len(cells)
        assert random_bar == 2.4

        held_out = "joy"
        kept = [label for label in GRID.labels if label != held_out]
        for seed in range(3):
            full = generate_synthetic(
                SyntheticSpec(
                    taxonomy=GRID,
                    examples_per_class=150,
                    p_signal=0.5,
                    p_confuse=0.3,
                    sequence_length=20,
                    seed=seed,
                )
            )
            config = TrainConfig(
                mode="ordinal-2d",
                taxonomy="goemotions-grid-5x5",
                epochs=8,
                seed=seed,
                learning_rate=3e-3,
            )
            trainer = Trainer(config, filter_labels(full, kept))
            result = trainer.run()
            report = holdout_proximity(
                result.final, filter_labels(full, [held_out]), held_out
            )
            assert report.mean_distance < random_bar, (
                f"seed {seed}: holdout mean distance {report.mean_distance:.4f} "
                f">= {random_bar}"
            )


# --------------------------------------------------------------- criterion 7


def test_criterion_7_bit_identical_reruns(tmp_path):
    """The same configuration run twice yields byte-identical manifests,
    checkpoints, and evaluation artifacts."""
    with verdict(7, "reruns are bit-identical (file hashes)"):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "format": "emord.synth/1",
                    "taxonomy": "isear-valence",
                    "examples_per_class": 12,
                    "p_signal": 0.8,
                    "sequence_length": 12,
                    "seed": 0,
                }
            ),
            encoding="utf-8",
        )
        config_path = tmp_path / "train.json"
        config_path.write_text(
            json.dumps(
                {
                    "format": "emord.train/1",
                    "mode": "ordinal-1d",
                    "synthetic": str(spec_path),
                    "epochs": 2,
                    "batch_size": 8,
                    "learning_rate": 0.01,
                    "max_seq_length": 12,
                    "embed_dim": 8,
                    "conv_channels": [8, 8],
                    "kernel_sizes": [6, 4],
                    "ffnn_hidden": [12, 8],
                }
            ),
            encoding="utf-8",
        )

        run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
        for out in (run_a, run_b):
            code = main(["-q", "train", "--config", str(config_path), "--out", str(out)])
            assert code == 0
        assert sha256_file(run_a / "manifest.json") == sha256_file(run_b / "manifest.json")
        for name in ("best.ckpt", "final.ckpt", "history.jsonl"):
            assert sha256_file(run_a / name) == sha256_file(run_b / name), name

        corpus_dir = tmp_path / "corpus"
        assert main(["-q", "synth", "--spec", str(spec_path), "--out", str(corpus_dir)]) == 0
        eval_a, eval_b = tmp_path / "eval_a", tmp_path / "eval_b"
        for out in (eval_a, eval_b):
            code = main(
                [
                    "-q",
                    "eval",
                    "--checkpoint", str(run_a / "best.ckpt"),
                    "--corpus", str(corpus_dir / "corpus.tsv"),
                    "--out", str(out),
                ]
            )
            assert code == 0
        for name in ("manifest.json", "report.json", "confusion.csv", "histogram.csv", "pairs.csv"):
            assert sha256_file(eval_a / name) == sha256_file(eval_b / name), name


# --------------------------------------------------------------- criterion 8


def test_criterion_8_report_matches_brute_force():
    """Every scored field of a persisted 50-pair fixture is recomputed here
    with plain Python loops and must match the report exactly."""
    with verdict(8, "metrics match brute-force recomputation exactly"):
        with open(FIXTURE_DIR / "pairs_fixture.csv", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == ["gold", "predicted"]
            pairs = [(gold, predicted) for gold, predicted in reader]
        assert len(pairs) == 50

        gold = np.array([GRID.index(gold) for gold, _ in pairs])
        predicted = np.array([GRID.index(pred) for _, pred in pairs])
        report = build_report(gold, predicted, GRID, "ordinal-2d")

        labels = list(GRID.labels)
        index = {label: i for i, label in enumerate(labels)}
        cells = {label: GRID.cells[label] for label in labels}
        n = len(pairs)

        def l1(a, b):
            (va, aa), (vb, ab) = cells[a], cells[b]
            return abs(va - vb) + abs(aa - ab)

        def chebyshev(a, b):
            (va, aa), (vb, ab) = cells[a], cells[b]
            return max(abs(va - vb), abs(aa - ab))

        assert report.mode == "ordinal-2d"
        assert list(report.labels) == labels
        assert report.n_examples == n

        correct = sum(1 for gold, pred in pairs if gold == pred)
        assert report.accuracy == correct / n

        confusion = [[0] * len(labels) for _ in labels]
        for gold, pred in pairs:
            confusion[index[gold]][index[pred]] += 1
        assert report.confusion.tolist() == confusion

        f1_by_label = {}
        for i, label in enumerate(labels):
            tp = confusion[i][i]
            support = sum(confusion[i])
            predicted = sum(row[i] for row in confusion)
            precision = tp / predicted if predicted else 0.0
            recall = tp / support if support else 0.0
            f1 = (
                2 * precision * recall / (precision + recall)
                if precision + recall
                else 0.0
            )
            f1_by_label[label] = (precision, recall, f1, support, predicted)
            stats = report.per_class[i]
            assert stats.label == label
            assert stats.precision == precision, label
            assert stats.recall == recall, label
            assert stats.f1 == f1, label
            assert stats.support == support, label
            assert stats.predicted == predicted, label

        included = [
            f1 for _, (_, _, f1, support, predicted) in f1_by_label.items()
            if support > 0 or predicted > 0
        ]
        assert report.macro_f1 == sum(included) / len(included)
        # the fixture leaves some classes entirely unseen, so the exclusion
        # rule must actually bite
        assert len(included) < len(labels)

        max_d = 2 * (GRID.grid_size - 1)
        histogram = {d: 0 for d in range(1, max_d + 1)}
        for gold, pred in pairs:
            if gold != pred:
                histogram[l1(gold, pred)] += 1
        assert report.error_histogram == histogram

        distances = [l1(gold, pred) for gold, pred in pairs]
        errors = [d for d in distances if d > 0]
        assert report.mean_error_distance == sum(errors) / len(errors)
        assert report.max_error_distance == max(errors)
        assert report.mean_distance == sum(distances) / len(distances)

        cheb_histogram = {d: 0 for d in range(1, GRID.grid_size)}
        cheb_errors = []
        for gold, pred in pairs:
            if gold != pred:
                cheb_histogram[chebyshev(gold, pred)] += 1
                cheb_errors.append(chebyshev(gold, pred))
        assert report.chebyshev_histogram == cheb_histogram
        assert report.mean_error_chebyshev == sum(cheb_errors) / len(cheb_errors)
        assert report.off_grid_rate is None  # no decoded cells supplied
