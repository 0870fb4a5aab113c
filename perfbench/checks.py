"""Output checks that need no trust in the code under test.

`report_problems` recomputes every scored field of an `emord eval`
report.json from its pairs.csv with plain loops over the taxonomy's ranks
or cells, as the release gate's criterion 8 does for its fixture, and lists
each field that differs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path


def read_pairs(path: Path) -> list[tuple[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["gold", "predicted"]:
        raise ValueError(f"{path}: header must be gold,predicted")
    return [(gold, predicted) for gold, predicted in rows[1:]]


def brute_force_report(pairs, taxonomy, mode: str) -> dict:
    """Every pair-derived report.json field, by direct counting."""
    labels = list(taxonomy.labels)
    index = {label: i for i, label in enumerate(labels)}
    n = len(pairs)
    if taxonomy.mode == "1d":

        def distance(a, b):
            return abs(taxonomy.ranks[a] - taxonomy.ranks[b])

        max_d = len(labels) - 1
    else:

        def distance(a, b):
            (va, aa), (vb, ab) = taxonomy.cells[a], taxonomy.cells[b]
            return abs(va - vb) + abs(aa - ab)

        max_d = 2 * (taxonomy.grid_size - 1)

    confusion = [[0] * len(labels) for _ in labels]
    for gold, pred in pairs:
        confusion[index[gold]][index[pred]] += 1
    per_class = []
    for i, label in enumerate(labels):
        tp = confusion[i][i]
        support = sum(confusion[i])
        predicted = sum(row[i] for row in confusion)
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append(
            {
                "label": label,
                "precision": precision,
                "recall": recall,
                "f1": f1,
                "support": support,
                "predicted": predicted,
            }
        )
    included = [c["f1"] for c in per_class if c["support"] > 0 or c["predicted"] > 0]
    distances = [distance(gold, pred) for gold, pred in pairs]
    errors = [d for d in distances if d > 0]
    histogram = {str(d): 0 for d in range(1, max_d + 1)}
    for d in errors:
        histogram[str(d)] += 1
    expected = {
        "mode": mode,
        "labels": labels,
        "n_examples": n,
        "accuracy": sum(1 for gold, pred in pairs if gold == pred) / n,
        "macro_f1": sum(included) / len(included),
        "confusion": confusion,
        "per_class": per_class,
        "error_histogram": histogram,
        "mean_error_distance": sum(errors) / len(errors) if errors else 0.0,
        "max_error_distance": max(errors) if errors else 0,
        "mean_distance": sum(distances) / n,
    }
    if taxonomy.mode == "2d":
        cheb = []
        cheb_hist = {str(d): 0 for d in range(1, taxonomy.grid_size)}
        for gold, pred in pairs:
            if gold != pred:
                (va, aa), (vb, ab) = taxonomy.cells[gold], taxonomy.cells[pred]
                d = max(abs(va - vb), abs(aa - ab))
                cheb_hist[str(d)] += 1
                cheb.append(d)
        expected["chebyshev_histogram"] = cheb_hist
        expected["mean_error_chebyshev"] = sum(cheb) / len(cheb) if cheb else 0.0
    return expected


def report_problems(out_dir: Path, taxonomy, mode: str) -> list[str]:
    """Fields of out_dir/report.json that disagree with out_dir/pairs.csv."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    pairs = read_pairs(out_dir / "pairs.csv")
    expected = brute_force_report(pairs, taxonomy, mode)
    problems = [
        f"report.json {key} differs from the brute-force value"
        for key, value in expected.items()
        if report.get(key) != value
    ]
    if taxonomy.mode == "2d" and not 0.0 <= report.get("off_grid_rate", -1.0) <= 1.0:
        problems.append("report.json off_grid_rate outside [0, 1]")
    return problems
