"""Emotion label sets arranged on a valence scale or a valence-arousal grid.

A taxonomy is loaded from a strict JSON document and is immutable afterwards,
so instances can be shared freely between threads.  Decoding and scoring read
its geometry from tables indexed by label index (pairwise distances, the
label at each rank or grid cell); each table is built on first use and
cached on the instance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .atomic import atomic_write

DOCUMENT_FORMAT = "emord.taxonomy/1"

#: Names accepted by :func:`builtin_taxonomy`.
BUILTIN_TAXONOMIES = ("isear-valence", "goemotions-grid-5x5")


class TaxonomyError(ValueError):
    """Malformed or inconsistent taxonomy document."""


@dataclass(frozen=True)
class EmotionTaxonomy:
    """Label set with either a valence rank ("1d") or a grid cell ("2d") per label."""

    labels: tuple[str, ...]
    mode: str  # "1d" or "2d"
    ranks: dict[str, int] = field(default_factory=dict)
    cells: dict[str, tuple[int, int]] = field(default_factory=dict)
    grid_size: int = 0

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    @cached_property
    def label_index(self) -> dict[str, int]:
        """Position of each label in `labels`."""
        return {label: i for i, label in enumerate(self.labels)}

    def index(self, label: str) -> int:
        self._require_label(label)
        return self.label_index[label]

    def rank(self, label: str) -> int:
        if self.mode != "1d":
            raise TaxonomyError("ranks are only defined for 1d taxonomies")
        self._require_label(label)
        return self.ranks[label]

    def cell(self, label: str) -> tuple[int, int]:
        if self.mode != "2d":
            raise TaxonomyError("cells are only defined for 2d taxonomies")
        self._require_label(label)
        return self.cells[label]

    @cached_property
    def distance_table(self) -> np.ndarray:
        """(K, K) `label_distance` between every two labels, by label index."""
        return self._pair_table(label_distance)

    @cached_property
    def chebyshev_table(self) -> np.ndarray:
        """(K, K) `grid_chebyshev_distance` between every two labels (2d only)."""
        return self._pair_table(grid_chebyshev_distance)

    def _pair_table(self, distance) -> np.ndarray:
        labels = self.labels
        return _read_only(np.array([[distance(self, a, b) for b in labels] for a in labels]))

    @cached_property
    def rank_labels(self) -> np.ndarray:
        """(K,) label index at each rank (1d only)."""
        return _read_only(np.argsort([self.rank(label) for label in self.labels]))

    @cached_property
    def cell_labels(self) -> np.ndarray:
        """(G, G) label index at each (valence, arousal) cell (2d only).

        A cell no label occupies holds the label of the L1-nearest labeled
        cell, ties broken toward lower valence, then lower arousal.
        """
        cells = np.array([self.cell(label) for label in self.labels])
        # labels in (valence, arousal) order, so argmin's first minimum breaks ties
        order = np.lexsort((cells[:, 1], cells[:, 0]))
        levels = np.arange(self.grid_size)
        l1 = (
            np.abs(levels[:, None, None] - cells[order, 0])
            + np.abs(levels[None, :, None] - cells[order, 1])
        )
        return _read_only(order[np.argmin(l1, axis=2)])

    @cached_property
    def cell_occupied(self) -> np.ndarray:
        """(G, G) mask of the cells some label occupies (2d only)."""
        table = np.zeros((self.grid_size, self.grid_size), dtype=bool)
        for label in self.labels:
            table[self.cell(label)] = True
        return _read_only(table)

    def _require_label(self, label: str) -> None:
        # an unhashable label is unknown too, not a TypeError
        if not isinstance(label, str) or label not in self.label_index:
            raise TaxonomyError(f"unknown label: {label!r}")


def _read_only(table: np.ndarray) -> np.ndarray:
    # cached tables are shared by every user of the instance
    table.setflags(write=False)
    return table


def parse_taxonomy(document: dict) -> EmotionTaxonomy:
    """Build a taxonomy from a parsed document, enforcing every invariant.

    Document layout (JSON): a header with "mode" ("1d" or "2d"), "grid_size"
    (2d only), an optional "format" tag, and a "labels" list holding one record
    per label: {"name", "rank"} in 1d mode, {"name", "valence", "arousal"} in
    2d mode. Unknown fields are rejected.
    """
    if not isinstance(document, dict):
        raise TaxonomyError("taxonomy document must be a JSON object")
    unknown = set(document) - {"format", "mode", "grid_size", "labels"}
    if unknown:
        raise TaxonomyError(f"unknown document fields: {sorted(unknown)}")
    fmt = document.get("format", DOCUMENT_FORMAT)
    if fmt != DOCUMENT_FORMAT:
        raise TaxonomyError(f"unsupported format tag: {fmt!r}")
    mode = document.get("mode")
    if mode not in ("1d", "2d"):
        raise TaxonomyError(f"mode must be '1d' or '2d', got {mode!r}")
    records = document.get("labels")
    if not isinstance(records, list) or len(records) < 2:
        raise TaxonomyError("a taxonomy needs a list of at least 2 labels")

    if mode == "1d":
        if "grid_size" in document:
            raise TaxonomyError("grid_size is only valid in 2d mode")
        return _parse_1d(records)
    return _parse_2d(records, document.get("grid_size"))


def _parse_1d(records: list) -> EmotionTaxonomy:
    labels: list[str] = []
    ranks: dict[str, int] = {}
    for rec in records:
        name = _record_name(rec, labels)
        unknown = set(rec) - {"name", "rank"}
        if unknown:
            raise TaxonomyError(f"label {name!r}: unknown or mixed fields {sorted(unknown)}")
        rank = rec.get("rank")
        if not isinstance(rank, int) or isinstance(rank, bool):
            raise TaxonomyError(f"label {name!r}: rank must be an integer")
        labels.append(name)
        ranks[name] = rank
    k = len(labels)
    seen = sorted(ranks.values())
    if seen != list(range(k)):
        if len(set(seen)) != k:
            raise TaxonomyError("duplicate rank")
        raise TaxonomyError(f"ranks must cover 0..{k - 1} exactly, got {seen}")
    return EmotionTaxonomy(labels=tuple(labels), mode="1d", ranks=ranks)


def _parse_2d(records: list, grid_size) -> EmotionTaxonomy:
    if not isinstance(grid_size, int) or isinstance(grid_size, bool) or grid_size < 2:
        raise TaxonomyError("2d mode requires an integer grid_size >= 2")
    labels: list[str] = []
    cells: dict[str, tuple[int, int]] = {}
    for rec in records:
        name = _record_name(rec, labels)
        unknown = set(rec) - {"name", "valence", "arousal"}
        if unknown:
            raise TaxonomyError(f"label {name!r}: unknown or mixed fields {sorted(unknown)}")
        cell = []
        for axis in ("valence", "arousal"):
            level = rec.get(axis)
            if not isinstance(level, int) or isinstance(level, bool):
                raise TaxonomyError(f"label {name!r}: {axis} must be an integer")
            if not 0 <= level < grid_size:
                raise TaxonomyError(
                    f"label {name!r}: {axis}={level} outside [0, {grid_size - 1}]"
                )
            cell.append(level)
        cell = (cell[0], cell[1])
        if cell in cells.values():
            raise TaxonomyError(f"duplicate cell {cell} (label {name!r})")
        labels.append(name)
        cells[name] = cell
    return EmotionTaxonomy(labels=tuple(labels), mode="2d", cells=cells, grid_size=grid_size)


def _record_name(rec, labels: list[str]) -> str:
    if not isinstance(rec, dict):
        raise TaxonomyError("each label record must be an object")
    name = rec.get("name")
    if not isinstance(name, str) or not name:
        raise TaxonomyError("each label record needs a non-empty string name")
    if name in labels:
        raise TaxonomyError(f"duplicate label: {name!r}")
    return name


def taxonomy_to_document(taxonomy: EmotionTaxonomy) -> dict:
    """Inverse of parse_taxonomy: a document that reloads to an equal taxonomy."""
    doc: dict = {"format": DOCUMENT_FORMAT, "mode": taxonomy.mode}
    if taxonomy.mode == "1d":
        doc["labels"] = [
            {"name": name, "rank": taxonomy.ranks[name]} for name in taxonomy.labels
        ]
    else:
        doc["grid_size"] = taxonomy.grid_size
        doc["labels"] = [
            {
                "name": name,
                "valence": taxonomy.cells[name][0],
                "arousal": taxonomy.cells[name][1],
            }
            for name in taxonomy.labels
        ]
    return doc


def load_taxonomy(path: str | Path) -> EmotionTaxonomy:
    """Load and validate a taxonomy JSON document from disk."""
    with open(path, encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TaxonomyError(f"{path}: not valid JSON ({exc})") from exc
    return parse_taxonomy(document)


def save_taxonomy(taxonomy: EmotionTaxonomy, path: str | Path) -> None:
    with atomic_write(path, encoding="utf-8") as fh:
        json.dump(taxonomy_to_document(taxonomy), fh, indent=2)
        fh.write("\n")


def builtin_taxonomy(name: str) -> EmotionTaxonomy:
    """One of the taxonomies shipped with the package, by name.

    "isear-valence": 7 labels on a single valence scale. "goemotions-grid-5x5":
    23 labels on a 5x5 valence-arousal grid. Both are editable reconstructions;
    see the shipped JSON under emord/taxonomies/ for the exact coordinates.
    """
    if name not in BUILTIN_TAXONOMIES:
        raise TaxonomyError(f"no builtin taxonomy {name!r}; choose from {BUILTIN_TAXONOMIES}")
    ref = resources.files("emord").joinpath(f"taxonomies/{name}.json")
    return parse_taxonomy(json.loads(ref.read_text(encoding="utf-8")))


def ordinal_distance(taxonomy: EmotionTaxonomy, a: str, b: str) -> int:
    """Rank gap |rank(a) - rank(b)| on a 1d taxonomy."""
    return abs(taxonomy.rank(a) - taxonomy.rank(b))


def grid_distance(taxonomy: EmotionTaxonomy, a: str, b: str) -> int:
    """L1 (Manhattan) gap between the two labels' grid cells on a 2d taxonomy.

    L1 is the sum of the valence and arousal level gaps, mirroring how the
    two-head training objective adds the per-axis errors.
    """
    va, aa = taxonomy.cell(a)
    vb, ab = taxonomy.cell(b)
    return abs(va - vb) + abs(aa - ab)


def grid_chebyshev_distance(taxonomy: EmotionTaxonomy, a: str, b: str) -> int:
    """Chebyshev (max per-axis) gap between grid cells; secondary report column."""
    va, aa = taxonomy.cell(a)
    vb, ab = taxonomy.cell(b)
    return max(abs(va - vb), abs(aa - ab))


def label_distance(taxonomy: EmotionTaxonomy, a: str, b: str) -> int:
    """Mode-appropriate error distance: rank gap in 1d, L1 cell gap in 2d."""
    if taxonomy.mode == "1d":
        return ordinal_distance(taxonomy, a, b)
    return grid_distance(taxonomy, a, b)


def max_distance(taxonomy: EmotionTaxonomy) -> int:
    """Largest possible error distance: K-1 in 1d, 2*(G-1) in 2d."""
    if taxonomy.mode == "1d":
        return taxonomy.num_labels - 1
    return 2 * (taxonomy.grid_size - 1)
