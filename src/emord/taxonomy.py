"""Emotion label sets arranged on a valence scale or a valence-arousal grid.

A taxonomy is loaded from a strict JSON document and is immutable afterwards,
so instances can be shared freely between threads.  Decoding and scoring read
its geometry from one table: each label's integer coordinates on one axis
(its valence rank, "1d") or two (its valence-arousal grid cell, "2d").
Distances, the label at each coordinate and the level count are derived
from it the same way in both modes; each table is built on first use and
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

#: Largest 2d grid_size; the decode table holds one entry per grid cell.
MAX_GRID_SIZE = 256

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
        try:
            return self.label_index[label]
        except (KeyError, TypeError):  # an unhashable label is unknown too
            raise TaxonomyError(f"unknown label: {label!r}") from None

    def rank(self, label: str) -> int:
        if self.mode != "1d":
            raise TaxonomyError("ranks are only defined for 1d taxonomies")
        self.index(label)  # an unknown label raises
        return self.ranks[label]

    def cell(self, label: str) -> tuple[int, int]:
        if self.mode != "2d":
            raise TaxonomyError("cells are only defined for 2d taxonomies")
        self.index(label)  # an unknown label raises
        return self.cells[label]

    @cached_property
    def levels(self) -> int:
        """Levels on each axis: K ranks in 1d, G grid levels in 2d."""
        return self.num_labels if self.mode == "1d" else self.grid_size

    @cached_property
    def coords(self) -> np.ndarray:
        """(K, D) coordinates by label index: (rank,) in 1d, (valence, arousal) in 2d."""
        if self.mode == "1d":
            points = [(self.ranks[label],) for label in self.labels]
        else:
            points = [self.cells[label] for label in self.labels]
        return _read_only(np.array(points))

    @cached_property
    def _points(self) -> list[list[int]]:
        # `coords` as Python ints: per-pair arithmetic on numpy scalars is slower
        return self.coords.tolist()

    @cached_property
    def distance_table(self) -> np.ndarray:
        """(K, K) `label_distance` between every two labels, by label index."""
        labels = self.labels
        return _read_only(np.array([[label_distance(self, a, b) for b in labels] for a in labels]))

    @cached_property
    def chebyshev_table(self) -> np.ndarray:
        """(K, K) Chebyshev (largest per-axis) gap between every two labels (2d only)."""
        if self.mode != "2d":
            raise TaxonomyError("Chebyshev distances are only defined for 2d taxonomies")
        gaps = np.abs(self.coords[:, None, :] - self.coords[None, :, :])
        return _read_only(gaps.max(axis=2))

    @cached_property
    def label_at(self) -> np.ndarray:
        """Label index at each coordinate, flattened row-major.

        Entry r is rank r in 1d and entry v*G + a is cell (v, a) in 2d.  A
        coordinate no label occupies holds the label at the L1-nearest
        occupied one, ties broken toward lower levels, axis by axis (lower
        valence, then lower arousal).  In 1d every rank is occupied.
        """
        coords = self.coords
        d = coords.shape[1]
        # labels in coordinate order, so argmin's first minimum breaks ties
        order = np.lexsort(coords.T[::-1])
        grid = np.indices((self.levels,) * d).reshape(d, -1, 1)
        l1 = np.abs(grid - coords[order].T[:, None, :]).sum(axis=0)
        return _read_only(order[l1.argmin(axis=1)])

    @cached_property
    def occupied(self) -> np.ndarray:
        """Mask of the coordinates some label occupies, indexed like `label_at`."""
        table = np.zeros((self.levels,) * self.coords.shape[1], dtype=bool)
        table[tuple(self.coords.T)] = True
        return _read_only(table.reshape(-1))


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
    if type(grid_size) is not int or not 2 <= grid_size <= MAX_GRID_SIZE:
        raise TaxonomyError(f"2d mode requires an integer grid_size in [2, {MAX_GRID_SIZE}]")
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
    if "\t" in name or "\n" in name or "\r" in name:
        # a corpus file separates its fields with tabs and its lines with \n or \r
        raise TaxonomyError(f"label {name!r}: a name cannot hold a tab, \\n or \\r")
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
        except ValueError as exc:  # also UnicodeDecodeError
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


def label_distance(taxonomy: EmotionTaxonomy, a: str, b: str) -> int:
    """L1 gap between two labels' coordinates: the rank gap in 1d, the sum of
    the valence and arousal gaps in 2d, as the two-head objective adds the
    per-axis errors."""
    points = taxonomy._points
    gap = 0
    for x, y in zip(points[taxonomy.index(a)], points[taxonomy.index(b)]):
        gap += abs(x - y)
    return gap


def max_distance(taxonomy: EmotionTaxonomy) -> int:
    """Largest possible error distance, D*(levels-1): K-1 in 1d, 2*(G-1) in 2d."""
    return taxonomy.coords.shape[1] * (taxonomy.levels - 1)
