"""Emotion label sets arranged on a valence scale or a valence-arousal grid.

A taxonomy is loaded from a strict JSON document, whose members and label
records are read by documents.parse_document, and is immutable afterwards,
so instances can be shared freely between threads.  It is one list of labels
and one integer point per label, on one axis (its valence rank, "1d") or two
(its valence-arousal grid cell, "2d"): the points are distinct and lie in
[0, levels) on every axis.  The mode, the per-label ranks or cells, the
thermometer code of each label, the label at each coordinate and the level
count are all derived from the points the same way in both modes; each table
is built on first use, cached on the instance and read-only.  `label_at` is
the one table decoding reads, and `codes` is built only for training
targets.  Whether a decoded point is off the grid follows from comparing it
with its label's point, and distances are gathered per pair of labels by
`label_distance`; neither is tabled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .codec import codewords
from .documents import load_json, parse_document

DOCUMENT_FORMAT = "emord.taxonomy/1"

#: Largest 2d grid_size; the decode table holds one entry per grid cell.
MAX_GRID_SIZE = 256

#: The coordinate fields of a label record, by mode.
AXES = {"1d": ("rank",), "2d": ("valence", "arousal")}

#: The kinds of a taxonomy document's members; a label record's follow from the mode.
_DOCUMENT_KINDS = {"mode": str, "grid_size": int, "labels": tuple[dict, ...]}

#: Names accepted by :func:`builtin_taxonomy`.
BUILTIN_TAXONOMIES = ("isear-valence", "goemotions-grid-5x5")


class TaxonomyError(ValueError):
    """Malformed or inconsistent taxonomy document."""


@dataclass(frozen=True)
class EmotionTaxonomy:
    """Labels at distinct integer points in [0, levels) on one axis ("1d") or two ("2d")."""

    labels: tuple[str, ...]
    points: tuple[tuple[int, ...], ...]  # one per label: (rank,) or (valence, arousal)
    levels: int  # levels on each axis: K ranks in 1d, G grid levels in 2d

    @property
    def num_labels(self) -> int:
        return len(self.labels)

    @cached_property
    def mode(self) -> str:
        """The number of axes a point has, as "1d" or "2d"."""
        return f"{len(self.points[0])}d"

    @cached_property
    def ranks(self) -> dict[str, int]:
        """Each label's valence rank in 1d; empty in 2d."""
        if self.mode != "1d":
            return {}
        return {label: point[0] for label, point in zip(self.labels, self.points)}

    @cached_property
    def cells(self) -> dict[str, tuple[int, int]]:
        """Each label's (valence, arousal) grid cell in 2d; empty in 1d."""
        if self.mode != "2d":
            return {}
        return dict(zip(self.labels, self.points))

    @property
    def grid_size(self) -> int:
        """G in 2d, 0 in 1d."""
        return self.levels if self.mode == "2d" else 0

    @cached_property
    def label_index(self) -> dict[str, int]:
        """Position of each label in `labels`."""
        return {label: i for i, label in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self.label_index[label]
        except (KeyError, TypeError):  # an unhashable label is unknown too
            raise TaxonomyError(f"unknown label: {label!r}") from None

    @cached_property
    def coords(self) -> np.ndarray:
        """(K, D) `points` as an array, by label index."""
        return _read_only(np.array(self.points))

    @cached_property
    def codes(self) -> np.ndarray:
        """(K, D*(levels-1)) float64 thermometer code of each label, by label index.

        Row i is `codewords(levels)` at each of label i's coordinates,
        concatenated: its rank's in 1d, its valence's then its arousal's in
        2d.  It is the target an ordinal head is trained against, and the
        squared distance between two rows is their `label_distance`.
        """
        return _read_only(codewords(self.levels)[self.coords].reshape(self.num_labels, -1))

    @cached_property
    def label_at(self) -> np.ndarray:
        """Label index at each coordinate, flattened row-major.

        Entry r is rank r in 1d and entry v*G + a is cell (v, a) in 2d.  A
        coordinate no label occupies holds the label at the L1-nearest
        occupied one, ties broken toward lower levels, axis by axis (lower
        valence, then lower arousal).  In 1d every rank is occupied.  One
        sweep over the labels keeps each coordinate's nearest so far, so the
        build holds O(G^D) memory whatever K is.
        """
        coords = self.coords
        d = coords.shape[1]
        grid = np.indices((self.levels,) * d).reshape(d, -1)
        table = np.zeros(grid.shape[1], dtype=np.intp)
        gap = np.full(grid.shape[1], d * self.levels)  # beyond any L1 gap
        # labels in coordinate order, so the strict < keeps the first of equal gaps
        for i in np.lexsort(coords.T[::-1]):
            l1 = np.abs(grid - coords[i, :, None]).sum(axis=0)
            table = np.where(l1 < gap, i, table)
            gap = np.minimum(gap, l1)
        return _read_only(table)


def _read_only(table: np.ndarray) -> np.ndarray:
    # cached tables are shared by every user of the instance
    table.setflags(write=False)
    return table


def parse_taxonomy(document: dict) -> EmotionTaxonomy:
    """Build a taxonomy from a parsed document, enforcing every invariant.

    Document layout (JSON): a header with "mode" ("1d" or "2d"), "grid_size"
    (2d only), an optional "format" tag, and a "labels" list holding one record
    per label: its "name" and one integer per axis of the mode (AXES).  Each
    label sits at a distinct point in [0, levels) on every axis, where levels
    is the label count in 1d (so the ranks are 0..K-1) and grid_size in 2d.
    The document and each record are read by documents.parse_document, which
    rejects unknown and missing members and members of the wrong JSON kind.
    """
    members = parse_document(
        document, DOCUMENT_FORMAT, _DOCUMENT_KINDS, TaxonomyError, required=("mode", "labels")
    )
    mode, records = members["mode"], members["labels"]
    if mode not in AXES:
        raise TaxonomyError(f"mode must be '1d' or '2d', got {mode!r}")
    if len(records) < 2:
        raise TaxonomyError("a taxonomy needs a list of at least 2 labels")
    levels = members.get("grid_size")
    if mode == "1d":
        if levels is not None:
            raise TaxonomyError("grid_size is only valid in 2d mode")
        levels = len(records)  # so K distinct ranks are exactly 0..K-1
    elif levels is None or not 2 <= levels <= MAX_GRID_SIZE:
        raise TaxonomyError(f"2d mode requires an integer grid_size in [2, {MAX_GRID_SIZE}]")

    axes = AXES[mode]
    kinds = {"name": str, **dict.fromkeys(axes, int)}
    owners: dict[tuple[int, ...], str] = {}  # each point's label, in record order
    names: set[str] = set()  # a set, as a list scan is quadratic in the label count
    for i, record in enumerate(records):
        record = parse_document(record, None, kinds, TaxonomyError, f"labels[{i}]: ", required=kinds)
        name = record["name"]
        if not name:
            raise TaxonomyError(f"labels[{i}]: name must not be empty")
        if "\t" in name or "\n" in name or "\r" in name:
            # a corpus file separates its fields with tabs and its lines with \n or \r
            raise TaxonomyError(f"label {name!r}: a name cannot hold a tab, \\n or \\r")
        if name in names:
            raise TaxonomyError(f"duplicate label: {name!r}")
        names.add(name)
        point = tuple(record[axis] for axis in axes)
        for axis, level in zip(axes, point):
            if not 0 <= level < levels:
                raise TaxonomyError(f"label {name!r}: {axis}={level} outside [0, {levels - 1}]")
        owner = owners.setdefault(point, name)
        if owner != name:
            where = ", ".join(f"{axis}={level}" for axis, level in zip(axes, point))
            raise TaxonomyError(f"label {name!r}: {where} duplicates label {owner!r}")
    return EmotionTaxonomy(labels=tuple(owners.values()), points=tuple(owners), levels=levels)


def taxonomy_to_document(taxonomy: EmotionTaxonomy) -> dict:
    """Inverse of parse_taxonomy: a document that reloads to an equal taxonomy."""
    records = [{"name": name} for name in taxonomy.labels]
    # an axis at a time, as dict(zip(axes, point)) per record costs twice as much
    for d, axis in enumerate(AXES[taxonomy.mode]):
        for record, point in zip(records, taxonomy.points):
            record[axis] = point[d]
    document: dict = {"format": DOCUMENT_FORMAT, "mode": taxonomy.mode}
    if taxonomy.grid_size:  # 2d only
        document["grid_size"] = taxonomy.grid_size
    document["labels"] = records
    return document


def load_taxonomy(path: str | Path) -> EmotionTaxonomy:
    """Load and validate a taxonomy JSON document from disk; every error names the file."""
    document = load_json(path, TaxonomyError)
    try:
        return parse_taxonomy(document)
    except TaxonomyError as exc:
        raise TaxonomyError(f"{path}: {exc}") from None


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


def label_distance(taxonomy: EmotionTaxonomy, a, b) -> np.ndarray:
    """L1 gap between the coordinates of labels `a` and `b`, given as label
    indices (ints or integer arrays, broadcast together): the rank gap in 1d,
    the sum of the valence and arousal gaps in 2d, as the two-head objective
    adds the per-axis errors.  Pass `taxonomy.index(name)` for a name."""
    a, b = np.asarray(a), np.asarray(b)
    k = taxonomy.num_labels
    # a negative index would wrap to the end of `coords` silently
    if any(i.dtype.kind not in "iu" or (i.size and (i.min() < 0 or i.max() >= k)) for i in (a, b)):
        raise TaxonomyError(f"label indices must be integers in [0, {k})")
    return np.abs(taxonomy.coords[a] - taxonomy.coords[b]).sum(axis=-1)


def max_distance(taxonomy: EmotionTaxonomy) -> int:
    """Largest possible error distance, D*(levels-1): K-1 in 1d, 2*(G-1) in 2d."""
    return taxonomy.coords.shape[1] * (taxonomy.levels - 1)
