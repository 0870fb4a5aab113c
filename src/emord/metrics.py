"""Evaluation: not just how often a model is wrong, but how far off it lands.

Alongside accuracy and macro-F1, every report carries the distribution of
error distances on the emotion scale (rank gap in 1d, L1 cell gap in 2d).
Two models with identical accuracy can differ sharply here: one mistakes joy
for surprise, the other mistakes joy for sadness.

All distances are computed between the gold label and the *resolved*
predicted label.  Raw decoded grid cells (possibly unlabeled) matter only to
`holdout_proximity`, which asks where the model places a class it never saw.

Scoring works on label indices from decode to report: `evaluate` maps the
corpus's gold names to indices once and takes the predicted indices as
decoded, the confusion matrix, histograms and means are counts and gathers
over the taxonomy's distance tables, and the off-grid rate and holdout
distances come from the decoded record's arrays.  Label names appear again
only where a file is written.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .checkpoint import Checkpoint
from .data import LabeledCorpus, encode_corpus
from .infer import predict_ids
from .net import fields_equal
from .taxonomy import EmotionTaxonomy, max_distance

REPORT_FORMAT = "emord.report/1"


class MetricsError(ValueError):
    """Evaluation request that cannot be satisfied (empty corpus, bad shapes)."""


@dataclass(frozen=True)
class ClassMetrics:
    label: str
    precision: float
    recall: float
    f1: float
    support: int  # gold count
    predicted: int

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass(frozen=True, eq=False)
class MetricsReport:
    """Full evaluation of one model on one labeled corpus."""

    mode: str
    labels: tuple[str, ...]
    n_examples: int
    accuracy: float
    macro_f1: float
    confusion: np.ndarray  # (K, K) ints, rows gold, columns predicted
    per_class: tuple[ClassMetrics, ...]
    error_histogram: dict[int, int]  # errors bucketed by scale distance, 1..max
    mean_error_distance: float  # over misclassified examples only; 0.0 if none
    max_error_distance: int
    mean_distance: float  # over all examples, correct predictions contribute 0
    chebyshev_histogram: dict[int, int] | None = None  # 2d only
    mean_error_chebyshev: float | None = None
    off_grid_rate: float | None = None

    __eq__ = fields_equal

    def to_dict(self) -> dict:
        out: dict = {
            "format": REPORT_FORMAT,
            "mode": self.mode,
            "labels": list(self.labels),
            "n_examples": self.n_examples,
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "confusion": self.confusion.tolist(),
            "per_class": [cm.to_dict() for cm in self.per_class],
            "error_histogram": {str(d): n for d, n in self.error_histogram.items()},
            "mean_error_distance": self.mean_error_distance,
            "max_error_distance": self.max_error_distance,
            "mean_distance": self.mean_distance,
        }
        if self.chebyshev_histogram is not None:
            out["chebyshev_histogram"] = {
                str(d): n for d, n in self.chebyshev_histogram.items()
            }
            out["mean_error_chebyshev"] = self.mean_error_chebyshev
            out["off_grid_rate"] = self.off_grid_rate
        return out


@dataclass(frozen=True, eq=False)
class EvalResult:
    report: MetricsReport
    gold: np.ndarray  # (N,) label indices, one per example
    predicted: np.ndarray  # (N,) resolved predicted label indices

    __eq__ = fields_equal


def per_class_metrics(confusion: np.ndarray, labels: tuple[str, ...]) -> tuple[ClassMetrics, ...]:
    gold_counts = confusion.sum(axis=1)
    pred_counts = confusion.sum(axis=0)
    out = []
    for i, label in enumerate(labels):
        tp = int(confusion[i, i])
        support = int(gold_counts[i])
        predicted = int(pred_counts[i])
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out.append(
            ClassMetrics(
                label=label,
                precision=precision,
                recall=recall,
                f1=f1,
                support=support,
                predicted=predicted,
            )
        )
    return tuple(out)


def evaluate(ck: Checkpoint, corpus: LabeledCorpus) -> EvalResult:
    """Run the model over a corpus and measure everything in one pass."""
    if len(corpus) == 0:
        raise MetricsError("cannot evaluate on an empty corpus")
    taxonomy = ck.taxonomy
    # an unknown gold label is a TaxonomyError that names it
    gold = np.fromiter(map(taxonomy.index, corpus.labels()), dtype=np.intp, count=len(corpus))
    token_ids = encode_corpus(corpus, ck.vocab, ck.recipe.max_seq_length)
    decoded = predict_ids(ck, token_ids)
    report = build_report(gold, decoded.indices, taxonomy, ck.config.head_mode, decoded.off_grid)
    return EvalResult(report=report, gold=gold, predicted=decoded.indices)


def build_report(
    gold: np.ndarray,
    predicted: np.ndarray,
    taxonomy: EmotionTaxonomy,
    mode: str,
    off_grid: np.ndarray | None = None,
) -> MetricsReport:
    """Assemble a MetricsReport from each example's gold and predicted label
    index and, for the off-grid rate on a grid, its decoded off-grid flag."""
    gold, pred = np.asarray(gold), np.asarray(predicted)
    if gold.ndim != 1 or gold.shape != pred.shape:
        raise MetricsError(
            f"gold and predicted must be two (N,) index arrays, got {gold.shape} and {pred.shape}"
        )
    n = len(gold)
    if n == 0:
        raise MetricsError("no (gold, predicted) pairs to score")
    labels = taxonomy.labels
    k = len(labels)
    for name, indices in (("gold", gold), ("predicted", pred)):
        # gold * k + pred would count an index outside [0, K) as another cell
        if indices.dtype.kind not in "iu" or indices.min() < 0 or indices.max() >= k:
            raise MetricsError(f"{name} label indices must be integers in [0, {k})")
    if off_grid is not None and np.shape(off_grid) != (n,):
        raise MetricsError(
            f"off_grid must hold one flag per example ({n}), got shape {np.shape(off_grid)}"
        )
    wrong = gold != pred
    confusion = np.bincount(gold * k + pred, minlength=k * k).reshape(k, k)
    per_class = per_class_metrics(confusion, labels)
    # a class with no gold example that the model never predicts says nothing
    # about the model, so it stays out of the mean rather than adding a zero
    included = [cm.f1 for cm in per_class if cm.support > 0 or cm.predicted > 0]
    accuracy = float(np.trace(confusion)) / n

    distances = taxonomy.distance_table[gold, pred]
    error_distances = distances[wrong]

    chebyshev_hist = None
    mean_cheb = None
    off_grid_rate = None
    if taxonomy.mode == "2d":
        cheb_errors = taxonomy.chebyshev_table[gold, pred][wrong]
        chebyshev_hist = _histogram(cheb_errors, taxonomy.grid_size - 1)
        mean_cheb = _mean(cheb_errors)
        if off_grid is not None:
            off_grid_rate = int(np.count_nonzero(off_grid)) / n

    return MetricsReport(
        mode=mode,
        labels=labels,
        n_examples=n,
        accuracy=accuracy,
        macro_f1=sum(included) / len(included),
        confusion=confusion,
        per_class=per_class,
        error_histogram=_histogram(error_distances, max_distance(taxonomy)),
        mean_error_distance=_mean(error_distances),
        max_error_distance=int(error_distances.max(initial=0)),
        mean_distance=_mean(distances),
        chebyshev_histogram=chebyshev_hist,
        mean_error_chebyshev=mean_cheb,
        off_grid_rate=off_grid_rate,
    )


def _histogram(distances: np.ndarray, top: int) -> dict[int, int]:
    """Counts of each distance 1..top, zero buckets kept."""
    counts = np.bincount(distances, minlength=top + 1).tolist()
    return {d: counts[d] for d in range(1, top + 1)}


def _mean(distances: np.ndarray) -> float:
    # an exact integer sum over an integer count, as a plain loop computes it
    return int(distances.sum()) / len(distances) if len(distances) else 0.0


@dataclass(frozen=True)
class HoldoutReport:
    """Where a model puts a class it never trained on (2d only).

    Distances are L1 from the *raw decoded cell* to the held-out label's
    cell — resolution to labeled cells would hide how close the model gets.
    """

    label: str
    n_examples: int
    mean_distance: float
    distribution: dict[int, int]  # keys 0..2*(G-1)

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "holdout_label": self.label,
            "n_examples": self.n_examples,
            "mean_distance": self.mean_distance,
            "distribution": {str(d): n for d, n in self.distribution.items()},
        }


def holdout_proximity(ck: Checkpoint, corpus: LabeledCorpus, held_out_label: str) -> HoldoutReport:
    """Mean grid distance from decoded cells to a class absent from training."""
    taxonomy = ck.taxonomy
    if taxonomy.mode != "2d":
        raise MetricsError("holdout proximity is defined on grid taxonomies only")
    if ck.config.head_mode != "ordinal-2d":
        raise MetricsError("holdout proximity needs an ordinal-2d head (decoded cells)")
    target = taxonomy.coords[taxonomy.index(held_out_label)]
    wrong = [lab for lab in corpus.labels() if lab != held_out_label]
    if wrong:
        raise MetricsError(
            f"corpus must contain only {held_out_label!r} records; found {sorted(set(wrong))}"
        )
    if len(corpus) == 0:
        raise MetricsError("cannot evaluate on an empty corpus")
    decoded = predict_ids(ck, encode_corpus(corpus, ck.vocab, ck.recipe.max_seq_length))
    distances = np.abs(decoded.coords - target).sum(axis=1)
    counts = np.bincount(distances, minlength=max_distance(taxonomy) + 1).tolist()
    return HoldoutReport(
        label=held_out_label,
        n_examples=len(corpus),
        mean_distance=_mean(distances),
        distribution=dict(enumerate(counts)),
    )


def write_report_json(report, path: str | Path) -> None:
    """Serialize a MetricsReport or HoldoutReport deterministically."""
    with atomic_write(path, encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_confusion_csv(report: MetricsReport, path: str | Path) -> None:
    """Confusion counts with label names on both the header row and column."""
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label", *report.labels])
        for label, row in zip(report.labels, report.confusion):
            writer.writerow([label, *[int(x) for x in row]])


def write_histogram_csv(report: MetricsReport, path: str | Path) -> None:
    """Error-distance histogram as distance,count rows (zero buckets kept)."""
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["distance", "count"])
        for d in sorted(report.error_histogram):
            writer.writerow([d, report.error_histogram[d]])


def write_pairs_csv(result: EvalResult, path: str | Path) -> None:
    """Per-example gold,predicted label names; everything else re-derives from these."""
    names = np.array(result.report.labels, dtype=object)
    with atomic_write(path, encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["gold", "predicted"])
        writer.writerows(zip(names[result.gold], names[result.predicted]))
