"""Corpus loading, tokenization, vocabulary building, deterministic splits,
and a synthetic marker-token corpus generator.

Tokenization lowercases, splits on whitespace and strips punctuation off
each token's edges.  A corpus is split once: `LabeledCorpus.tokenization`
keeps its distinct raw tokens and one integer per token position, and both
`build_vocab` and `encode_corpus` work from it, so each distinct raw token
is cleaned and looked up once per call, not once per occurrence.  Every
vocabulary token is its own tokenization (the `Vocabulary` rejects any
other), so encoding looks each raw token up as it stands and cleans only
the ones it misses.

The synthetic generator plants class-marker tokens among filler tokens.  With
`p_confuse > 0` a planted marker is sometimes swapped for the marker of a
nearest neighbor on the emotion scale, which creates exactly the kind of
ambiguity ordinal training is supposed to survive: the confusable classes are
the *adjacent* ones.
"""

from __future__ import annotations

import csv
import logging
import re
import typing
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, repeat
from pathlib import Path

import numpy as np

from .atomic import atomic_write
from .documents import coerce_member, read_document
from .taxonomy import (
    BUILTIN_TAXONOMIES,
    EmotionTaxonomy,
    builtin_taxonomy,
    label_distance,
    load_taxonomy,
)

logger = logging.getLogger(__name__)

UNK_ID = 1
_RESERVED = 2  # ids 0 and 1 are never assigned to corpus tokens

_SPLIT_STREAM = 7
_SYNTH_STREAM = 11

SYNTH_FORMAT = "emord.synth/1"

CORPUS_FORMATS = ("tsv", "csv")

# what the surrogateescape error handler makes of a byte that is not UTF-8
_UNDECODABLE = re.compile("[\udc80-\udcff]")


class DataError(ValueError):
    """Malformed corpus file, bad split request, or invalid synthetic spec."""


class Tokenization(typing.NamedTuple):
    """Every text's `text.lower().split()`, with each token as an integer.

    Token position j of the chained splits holds the raw token
    `raw[ids[j]]`; record i owns the next `lengths[i]` positions.
    """

    raw: tuple[str, ...]  # distinct raw tokens, in first-seen order
    ids: np.ndarray  # (total tokens,) int32: 4 bytes per token position
    lengths: np.ndarray  # (records,) intp


@dataclass(frozen=True)
class LabeledCorpus:
    """Immutable sequence of (text, label) records."""

    records: tuple[tuple[str, str], ...]

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def tokenization(self) -> Tokenization:
        """The corpus split into raw tokens once, kept as integers."""
        lengths = []

        def splits():
            # one record's split at a time: holding every split at once
            # would hold a string per token of the corpus
            for text, _ in self.records:
                split = text.lower().split()
                lengths.append(len(split))
                yield split

        # a missing key takes the next integer; the lookups run in C
        first_seen = defaultdict(count().__next__)
        ids = np.fromiter(
            map(first_seen.__getitem__, chain.from_iterable(splits())), dtype=np.int32
        )
        return Tokenization(tuple(first_seen), ids, np.array(lengths, dtype=np.intp))

    def texts(self) -> list[str]:
        return [text for text, _ in self.records]

    def labels(self) -> list[str]:
        return [label for _, label in self.records]


def filter_labels(corpus: LabeledCorpus, keep) -> LabeledCorpus:
    """Sub-corpus containing only records whose label is in `keep`."""
    keep = set(keep)
    records = tuple(rec for rec in corpus.records if rec[1] in keep)
    return LabeledCorpus(records)


def check_utf8(text: str, where: str) -> None:
    """Reject text decoded with the surrogateescape handler from bytes that are not UTF-8."""
    if not text.isascii() and _UNDECODABLE.search(text):
        raise DataError(f"{where}: not valid UTF-8")


def _check_record(text: str, label: str, taxonomy: EmotionTaxonomy, where: str) -> None:
    if not (text.isascii() and label.isascii()):
        check_utf8(text + label, where)
    if not text.strip():
        raise DataError(f"{where}: empty text")
    if label not in taxonomy.label_index:
        raise DataError(f"{where}: unknown label {label!r}")


def _csv_rows(fh, path: Path):
    """csv.reader's rows; one it cannot parse (a field over csv's size limit,
    a NUL before Python 3.11) is a DataError naming the header or the row."""
    reader = csv.reader(fh)
    for row_no in count():
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            where = f"row {row_no}" if row_no else "header"
            raise DataError(f"{path} {where}: {exc}") from None
        yield row


def load_corpus(path: str | Path, fmt: str, taxonomy: EmotionTaxonomy) -> LabeledCorpus:
    """Read a labeled corpus, validating every row against the taxonomy.

    tsv: one record per line, text and label separated by a single tab, no
    header.  csv: RFC-4180 with the exact header ``text,label``.  Errors name
    the offending row (1-based over data rows).
    """
    path = Path(path)
    if fmt not in CORPUS_FORMATS:
        raise DataError(f"unknown corpus format {fmt!r}; choose from {CORPUS_FORMATS}")
    records: list[tuple[str, str]] = []
    # undecodable bytes are let through and rejected with their row
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        if fmt == "tsv":
            for row_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    raise DataError(f"{path} row {row_no}: blank line")
                parts = line.split("\t")
                if len(parts) != 2:
                    raise DataError(
                        f"{path} row {row_no}: expected text<TAB>label, got {len(parts)} fields"
                    )
                text, label = parts
                _check_record(text, label, taxonomy, f"{path} row {row_no}")
                records.append((text, label))
        else:
            rows = _csv_rows(fh, path)
            header = next(rows, None)
            if header is None:
                raise DataError(f"{path}: empty file (missing header)")
            if header != ["text", "label"]:
                raise DataError(f"{path}: header must be exactly text,label, got {header}")
            for row_no, row in enumerate(rows, start=1):
                if len(row) != 2:
                    raise DataError(f"{path} row {row_no}: expected 2 fields, got {len(row)}")
                text, label = row
                _check_record(text, label, taxonomy, f"{path} row {row_no}")
                records.append((text, label))
    if not records:
        raise DataError(f"{path}: corpus has no records")
    return LabeledCorpus(tuple(records))


def save_corpus_tsv(corpus: LabeledCorpus, path: str | Path) -> None:
    """Write the tab-separated form; rejects a record load_corpus would reject.

    load_corpus splits fields at a tab and lines at \\n and \\r, so no text
    or label may hold one, and it rejects a blank text and text that is not
    UTF-8.
    """
    with atomic_write(path, encoding="utf-8", newline="\n") as fh:
        for row_no, (text, label) in enumerate(corpus.records, start=1):
            where = f"{path} record {row_no}"
            record = text + label
            if "\t" in record or "\n" in record or "\r" in record:
                raise DataError(f"{where}: tsv cannot hold a tab, \\n or \\r in a text or label")
            if not text.strip():
                raise DataError(f"{where}: empty text")
            try:
                fh.write(f"{text}\t{label}\n")
            except UnicodeEncodeError:  # a lone surrogate
                raise DataError(f"{where}: not valid UTF-8") from None


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _clean(raw: str) -> str:
    """One token of `text.lower().split()` with punctuation stripped off its edges."""
    # an alphanumeric character is never punctuation (pinned by a test over
    # every code point), so a token with alphanumeric edges is clean
    if raw[0].isalnum() and raw[-1].isalnum():
        return raw
    start, end = 0, len(raw)
    while start < end and _is_punct(raw[start]):
        start += 1
    while end > start and _is_punct(raw[end - 1]):
        end -= 1
    return raw[start:end]


def text_tokens(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip punctuation off token edges."""
    return [token for raw in text.lower().split() if (token := _clean(raw))]


@dataclass(frozen=True)
class Vocabulary:
    """Token table: id 0 is padding, id 1 the unknown token, real tokens from 2.

    Real tokens are ordered by descending corpus frequency, ties broken
    lexicographically, so the table never depends on hash or file order.
    Tokens are distinct, and each is its own tokenization (lowercase, no
    whitespace, no punctuation on its edges), as every token `text_tokens`
    yields is; `encode_text` relies on it.
    """

    tokens: tuple[str, ...]
    _index: dict[str, int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        index = {tok: i + _RESERVED for i, tok in enumerate(self.tokens)}
        if len(index) != len(self.tokens):
            twice = [tok for tok, n in Counter(self.tokens).items() if n > 1]
            raise DataError(f"vocabulary tokens must be distinct; repeated: {twice[:3]}")
        # one pass is exact: a token with whitespace, upper case or edge
        # punctuation, or an empty one, changes the joined text's tokens
        if text_tokens(" ".join(self.tokens)) != list(self.tokens):
            bad = [tok for tok in self.tokens if text_tokens(tok) != [tok]]
            raise DataError(f"vocabulary tokens must be their own tokenization; not: {bad[:3]}")
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        """Total id range including the two reserved slots."""
        return len(self.tokens) + _RESERVED

    def lookup(self, token: str) -> int:
        return self._index.get(token, UNK_ID)


def build_vocab(corpus: LabeledCorpus, min_freq: int = 1) -> Vocabulary:
    """Frequency-ordered vocabulary over the corpus (normally the train split)."""
    if min_freq < 1:
        raise DataError("min_freq must be at least 1")
    if len(corpus) == 0:
        raise DataError("cannot build a vocabulary from an empty corpus")
    raw, ids, _ = corpus.tokenization
    # each distinct raw token is cleaned once; the ones that clean alike pool
    counts: Counter[str] = Counter()
    for raw_token, n in zip(raw, np.bincount(ids, minlength=len(raw)).tolist()):
        token = _clean(raw_token)
        if token:
            counts[token] += n
    kept = sorted(
        (tok for tok, n in counts.items() if n >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )
    if not kept:
        raise DataError(f"no token reaches min_freq={min_freq}")
    return Vocabulary(tokens=tuple(kept))


def _raw_token_id(raw: str, index: dict[str, int]) -> int:
    """The id one raw token of `text.lower().split()` encodes to; 0 drops it.

    Every vocabulary token is its own tokenization, so a raw token found in
    the table cleans to itself; only a miss is cleaned, dropped if nothing
    is left, and looked up again, becoming UNK_ID if still not found.
    """
    token_id = index.get(raw)
    if token_id is None:
        token = _clean(raw)
        token_id = index.get(token, UNK_ID) if token else 0
    return token_id


def encode_text(text: str, vocab: Vocabulary, max_len: int) -> np.ndarray:
    """Token ids for one text: truncated to max_len, right-padded with 0.

    The ids are those of `text_tokens(text)[:max_len]`; the cut comes after
    the drop.
    """
    index = vocab._index
    ids = []
    for raw in text.lower().split():
        # a hit needs no call of the rule, which would return the same id
        token_id = index.get(raw) or _raw_token_id(raw, index)
        if token_id:
            ids.append(token_id)
    del ids[max_len:]
    out = np.zeros(max_len, dtype=np.int64)
    out[: len(ids)] = ids
    return out


def encode_corpus(corpus: LabeledCorpus, vocab: Vocabulary, max_len: int) -> np.ndarray:
    """Id matrix (N, max_len) of the corpus's texts, rejecting empty token rows.

    Row i is `encode_text` of record i.  `_raw_token_id` runs once per
    distinct raw token of the corpus's tokenization; gathering, dropping,
    cutting and filling the rows are array operations.
    """
    raw, ids, lengths = corpus.tokenization
    # int32 ids and one intp position: 12 bytes per kept token on the way
    by_raw = np.fromiter(
        map(_raw_token_id, raw, repeat(vocab._index)), dtype=np.int32, count=len(raw)
    )
    token_ids = by_raw[ids]
    dropped = np.flatnonzero(token_ids == 0)  # raw tokens that clean to nothing
    rows = np.searchsorted(np.cumsum(lengths), dropped, side="right")
    counts = lengths - np.bincount(rows, minlength=len(lengths))
    token_ids = np.delete(token_ids, dropped)
    if not counts.all():
        i = int(np.argmin(counts))
        raise DataError(
            f"record {i + 1}: no tokens survive normalization: {corpus.records[i][0]!r}"
        )
    # a kept token's place in the flattened matrix: a running sum of ones
    # that each record's first token moves to the start of its row
    flat = np.ones(len(token_ids), dtype=np.intp)
    flat[:1] = 0
    flat[np.cumsum(counts[:-1])] = max_len + 1 - counts[:-1]
    np.cumsum(flat, out=flat)
    if counts.max(initial=0) > max_len:  # the cut copies both arrays, so only when it cuts
        inside = flat - np.repeat(np.arange(len(counts)) * max_len, counts) < max_len
        flat, token_ids = flat[inside], token_ids[inside]
    matrix = np.zeros((len(lengths), max_len), dtype=np.int64)
    matrix.reshape(-1)[flat] = token_ids
    return matrix


def _largest_remainder(n: int, ratios: tuple[float, ...]) -> list[int]:
    shares = [n * r for r in ratios]
    base = [int(s) for s in shares]
    short = n - sum(base)
    by_frac = sorted(range(len(ratios)), key=lambda i: (-(shares[i] - base[i]), i))
    for i in by_frac[:short]:
        base[i] += 1
    return base


def split_corpus(
    corpus: LabeledCorpus,
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[LabeledCorpus, LabeledCorpus, LabeledCorpus]:
    """Stratified train/val/test split, deterministic in (corpus, ratios, seed).

    Each label's records are shuffled and apportioned by largest remainder.
    A label with fewer records than splits goes entirely to train, with a
    warning.  Within each split, records keep their original corpus order.
    """
    # written so that a NaN fails it too
    if len(ratios) != 3 or not all(0 <= r <= 1 for r in ratios):
        raise DataError(f"ratios must be three numbers in [0, 1], got {tuple(ratios)}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"ratios must sum to 1, got {sum(ratios)}")
    if len(corpus) == 0:
        raise DataError("cannot split an empty corpus")

    by_label: dict[str, list[int]] = {}
    for i, (_, label) in enumerate(corpus.records):
        by_label.setdefault(label, []).append(i)

    rng = np.random.default_rng([seed, _SPLIT_STREAM])
    assigned: list[list[int]] = [[], [], []]
    for label, indices in by_label.items():
        order = rng.permutation(len(indices))
        shuffled = [indices[j] for j in order]
        if len(shuffled) < 3:
            logger.warning(
                "label %r has only %d record(s); all go to the train split",
                label,
                len(shuffled),
            )
            assigned[0].extend(shuffled)
            continue
        counts = _largest_remainder(len(shuffled), ratios)
        start = 0
        for part, count in enumerate(counts):
            assigned[part].extend(shuffled[start : start + count])
            start += count

    return tuple(LabeledCorpus(tuple(corpus.records[i] for i in sorted(part))) for part in assigned)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a marker-token corpus.

    Per token position: with probability `p_signal` plant a marker — the
    example's own class marker, or (with probability `p_confuse`) the marker
    of a uniformly chosen nearest scale-neighbor — otherwise draw one of
    `filler_tokens` shared filler tokens.
    """

    taxonomy: EmotionTaxonomy
    examples_per_class: int = 200
    p_signal: float = 0.25
    p_confuse: float = 0.0
    sequence_length: int = 24
    seed: int = 0
    filler_tokens: int = 16

    def __post_init__(self):
        if not isinstance(self.taxonomy, EmotionTaxonomy):
            got = type(self.taxonomy).__name__
            raise DataError(f"taxonomy must be an EmotionTaxonomy, got {got}")
        for name, kind in _SPEC_KINDS.items():
            if name != "taxonomy":  # a document names it; a spec holds the taxonomy
                value = coerce_member(getattr(self, name), kind, name, DataError)
                object.__setattr__(self, name, value)
        if self.examples_per_class < 1:
            raise DataError("examples_per_class must be positive")
        if not 0.0 < self.p_signal <= 1.0:
            raise DataError("p_signal must be in (0, 1]")
        if not 0.0 <= self.p_confuse < 1.0:
            raise DataError("p_confuse must be in [0, 1)")
        if self.sequence_length < 1:
            raise DataError("sequence_length must be positive")
        if self.filler_tokens < 1:
            raise DataError("filler_tokens must be positive")
        if self.seed < 0:
            raise DataError(f"seed must be non-negative, got {self.seed}")


#: A spec document names its taxonomy; every other member is the field's own kind.
_SPEC_KINDS = {**typing.get_type_hints(SyntheticSpec), "taxonomy": str}


def marker_token(taxonomy: EmotionTaxonomy, label: str) -> str:
    """The signal token planted for a class (index-based, normalization-proof)."""
    return f"cue{taxonomy.index(label)}"


def nearest_neighbor_labels(taxonomy: EmotionTaxonomy, label: str) -> list[str]:
    """Labels at minimal positive scale distance from `label`, in label order."""
    row = label_distance(taxonomy, taxonomy.index(label), np.arange(taxonomy.num_labels))
    best = row[row > 0].min()  # distinct labels sit at distinct points
    return [other for other, d in zip(taxonomy.labels, row.tolist()) if d == best]


def generate_synthetic(spec: SyntheticSpec) -> LabeledCorpus:
    """Deterministically generate the corpus a SyntheticSpec describes."""
    taxonomy = spec.taxonomy
    rng = np.random.default_rng([spec.seed, _SYNTH_STREAM])
    fillers = [f"fill{j}" for j in range(spec.filler_tokens)]
    markers = {label: marker_token(taxonomy, label) for label in taxonomy.labels}
    neighbors = {label: nearest_neighbor_labels(taxonomy, label) for label in taxonomy.labels}

    records: list[tuple[str, str]] = []
    for label in taxonomy.labels:
        for _ in range(spec.examples_per_class):
            tokens = []
            for _pos in range(spec.sequence_length):
                if rng.random() < spec.p_signal:
                    if spec.p_confuse > 0.0 and rng.random() < spec.p_confuse:
                        pool = neighbors[label]
                        tokens.append(markers[pool[rng.integers(len(pool))]])
                    else:
                        tokens.append(markers[label])
                else:
                    tokens.append(fillers[rng.integers(spec.filler_tokens)])
            records.append((" ".join(tokens), label))
    return LabeledCorpus(tuple(records))


def load_synthetic_spec(path: str | Path) -> SyntheticSpec:
    """Read a synthetic-corpus spec from its JSON document form.

    Members are SyntheticSpec's fields and an optional "format" tag;
    "taxonomy" (a builtin name, or a path resolved relative to the spec
    file) is required.
    """
    path = Path(path)
    values = read_document(path, SYNTH_FORMAT, _SPEC_KINDS, DataError)
    if "taxonomy" not in values:
        raise DataError(f"{path}: spec needs a taxonomy")
    taxonomy = resolve_taxonomy(values.pop("taxonomy"), relative_to=path.parent)
    return SyntheticSpec(taxonomy=taxonomy, **values)


def resolve_taxonomy(ref: str, relative_to: Path | None = None) -> EmotionTaxonomy:
    """Interpret a taxonomy reference: builtin name first, then file path."""
    if not isinstance(ref, str) or not ref:
        raise DataError("taxonomy reference must be a non-empty string")
    if ref in BUILTIN_TAXONOMIES:
        return builtin_taxonomy(ref)
    candidate = Path(ref)
    if not candidate.is_absolute() and relative_to is not None:
        local = relative_to / candidate
        if local.exists():
            candidate = local
    if not candidate.is_file():
        raise DataError(f"taxonomy {ref!r} is neither a builtin name nor an existing file")
    return load_taxonomy(candidate)
