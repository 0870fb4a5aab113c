"""Taxonomy parsing, invariants, distances, and the shipped label sets."""

import itertools
import json
import re
import time
import tracemalloc

import numpy as np
import pytest

from emord.codec import codewords, target_width
from emord.infer import decode_outputs
from emord.metrics import build_report
from emord.taxonomy import (
    BUILTIN_TAXONOMIES,
    MAX_GRID_SIZE,
    EmotionTaxonomy,
    TaxonomyError,
    builtin_taxonomy,
    label_distance,
    load_taxonomy,
    max_distance,
    parse_taxonomy,
    save_taxonomy,
    taxonomy_to_document,
)


def doc_1d(names_ranks):
    return {"mode": "1d", "labels": [{"name": n, "rank": r} for n, r in names_ranks]}


def doc_2d(names_cells, grid_size=5):
    return {
        "mode": "2d",
        "grid_size": grid_size,
        "labels": [
            {"name": n, "valence": v, "arousal": a} for n, (v, a) in names_cells
        ],
    }


def test_parse_1d_basic():
    tax = parse_taxonomy(doc_1d([("low", 0), ("mid", 1), ("high", 2)]))
    assert tax.mode == "1d"
    assert tax.labels == ("low", "mid", "high")
    assert tax.ranks["mid"] == 1
    assert tax.num_labels == 3


def test_parse_1d_ranks_must_be_bijection():
    with pytest.raises(TaxonomyError, match="^label 'b': rank=0 duplicates label 'a'$"):
        parse_taxonomy(doc_1d([("a", 0), ("b", 0), ("c", 2)]))
    with pytest.raises(TaxonomyError, match=re.escape("label 'c': rank=3 outside [0, 2]")):
        parse_taxonomy(doc_1d([("a", 0), ("b", 2), ("c", 3)]))


def test_parse_rejects_unknown_fields():
    bad = doc_1d([("a", 0), ("b", 1)])
    bad["color"] = "red"
    with pytest.raises(TaxonomyError, match=r"^unknown fields \['color'\]$"):
        parse_taxonomy(bad)
    bad2 = doc_1d([("a", 0), ("b", 1)])
    bad2["labels"][0]["color"] = "red"
    with pytest.raises(TaxonomyError, match=r"^labels\[0\]: unknown fields \['color'\]$"):
        parse_taxonomy(bad2)


def test_a_label_record_takes_no_format_member():
    # only the document carries a format tag
    for tag in ("emord.taxonomy/1", None):
        bad = doc_1d([("a", 0), ("b", 1)])
        bad["labels"][1]["format"] = tag
        with pytest.raises(TaxonomyError, match=r"^labels\[1\]: unknown fields \['format'\]$"):
            parse_taxonomy(bad)


def test_parse_rejects_mixed_mode_fields():
    mixed = {
        "mode": "1d",
        "labels": [{"name": "a", "rank": 0}, {"name": "b", "valence": 1, "arousal": 1}],
    }
    with pytest.raises(TaxonomyError):
        parse_taxonomy(mixed)
    with pytest.raises(TaxonomyError, match="grid_size"):
        parse_taxonomy({**doc_1d([("a", 0), ("b", 1)]), "grid_size": 5})


def test_parse_rejects_duplicates_and_bad_values():
    with pytest.raises(TaxonomyError, match="duplicate label"):
        parse_taxonomy(doc_1d([("a", 0), ("a", 1)]))
    with pytest.raises(TaxonomyError, match="^label 'b': valence=0, arousal=0 duplicates label 'a'$"):
        parse_taxonomy(doc_2d([("a", (0, 0)), ("b", (0, 0))]))
    with pytest.raises(TaxonomyError, match="outside"):
        parse_taxonomy(doc_2d([("a", (0, 0)), ("b", (5, 0))], grid_size=5))
    with pytest.raises(TaxonomyError, match="must be an integer"):
        parse_taxonomy(doc_1d([("a", 0), ("b", True)]))
    with pytest.raises(TaxonomyError, match="at least 2"):
        parse_taxonomy(doc_1d([("solo", 0)]))
    with pytest.raises(TaxonomyError, match="grid_size"):
        parse_taxonomy(doc_2d([("a", (0, 0)), ("b", (0, 1))], grid_size=1))
    # a grid too large for its per-cell tables is rejected, not left to numpy
    with pytest.raises(TaxonomyError, match=r"grid_size in \[2, 256\]"):
        parse_taxonomy(doc_2d([("a", (0, 0)), ("b", (0, 1))], grid_size=10**400))
    assert parse_taxonomy(doc_2d([("a", (0, 0)), ("b", (255, 1))], grid_size=256)).label_at.size == 256**2


def test_the_largest_grid_parses_in_time_linear_in_its_labels():
    # one label per cell of a 256x256 grid: scanning the earlier names for
    # each record took 38 s on a 2-core Xeon, a set of them about 0.2 s
    cells = itertools.product(range(MAX_GRID_SIZE), repeat=2)
    document = doc_2d([(f"cell{i}", cell) for i, cell in enumerate(cells)], grid_size=MAX_GRID_SIZE)
    started = time.perf_counter()
    taxonomy = parse_taxonomy(document)
    assert time.perf_counter() - started < 10
    assert taxonomy.num_labels == MAX_GRID_SIZE**2


@pytest.mark.parametrize("name", ["low\tmood", "low\nmood", "low\rmood", "mood\r"])
def test_parse_rejects_a_name_a_corpus_file_cannot_hold(name):
    # a corpus file splits fields at tabs and lines at \n and \r
    for document in (doc_1d([(name, 0), ("b", 1)]), doc_2d([("a", (0, 0)), (name, (0, 1))])):
        with pytest.raises(TaxonomyError, match=re.escape(f"label {name!r}: a name cannot hold")):
            parse_taxonomy(document)


def test_parse_rejects_bad_mode_and_format():
    with pytest.raises(TaxonomyError, match="mode"):
        parse_taxonomy({"mode": "3d", "labels": []})
    with pytest.raises(TaxonomyError, match="format"):
        parse_taxonomy({**doc_1d([("a", 0), ("b", 1)]), "format": "nope/9"})


def test_document_round_trip_1d_and_2d(tmp_path):
    for doc in (
        doc_1d([("a", 2), ("b", 0), ("c", 1)]),
        doc_2d([("a", (0, 0)), ("b", (3, 4)), ("c", (2, 2))]),
    ):
        tax = parse_taxonomy(doc)
        again = parse_taxonomy(taxonomy_to_document(tax))
        assert again == tax
        path = tmp_path / "tax.json"
        save_taxonomy(tax, path)
        assert load_taxonomy(path) == tax


def test_save_taxonomy_bytes_are_pinned(tmp_path):
    # the key order is format, mode[, grid_size], labels, with each record's
    # name first, whatever order the source document had: `emord synth`
    # writes these bytes and a checkpoint's taxonomy hash covers them
    documents = (
        {"labels": [{"rank": 1, "name": "calm"}, {"rank": 0, "name": "gloom"}], "mode": "1d"},
        {
            "labels": [
                {"arousal": 0, "valence": 2, "name": "calm"},
                {"arousal": 1, "valence": 0, "name": "gloom"},
            ],
            "grid_size": 3,
            "mode": "2d",
        },
    )
    expected = (
        '{\n  "format": "emord.taxonomy/1",\n  "mode": "1d",\n  "labels": [\n'
        '    {\n      "name": "calm",\n      "rank": 1\n    },\n'
        '    {\n      "name": "gloom",\n      "rank": 0\n    }\n  ]\n}\n',
        '{\n  "format": "emord.taxonomy/1",\n  "mode": "2d",\n  "grid_size": 3,\n  "labels": [\n'
        '    {\n      "name": "calm",\n      "valence": 2,\n      "arousal": 0\n    },\n'
        '    {\n      "name": "gloom",\n      "valence": 0,\n      "arousal": 1\n    }\n  ]\n}\n',
    )
    for document, text in zip(documents, expected):
        path = tmp_path / "tax.json"
        save_taxonomy(parse_taxonomy(document), path)
        assert path.read_bytes() == text.encode("utf-8")


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(TaxonomyError, match="not valid JSON"):
        load_taxonomy(path)


def test_load_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff{"mode": "1d"}')
    with pytest.raises(TaxonomyError, match=f"^{re.escape(str(path))}: .*utf-8"):
        load_taxonomy(path)


def test_builtin_names():
    assert set(BUILTIN_TAXONOMIES) == {"isear-valence", "goemotions-grid-5x5"}
    with pytest.raises(TaxonomyError, match="no builtin"):
        builtin_taxonomy("unknown-set")


def test_isear_taxonomy_shape_and_distances():
    tax = builtin_taxonomy("isear-valence")
    assert tax.mode == "1d"
    assert tax.num_labels == 7
    assert sorted(tax.ranks.values()) == list(range(7))
    # pinned ordering facts for the shipped valence scale
    sadness = tax.index("sadness")
    assert label_distance(tax, sadness, tax.index("anger")) == 2
    assert label_distance(tax, sadness, tax.index("fear")) == 5
    assert tax.ranks["sadness"] == 0
    assert tax.ranks["joy"] == 6
    assert max_distance(tax) == 6
    assert tax.levels == 7 and tax.coords.shape == (7, 1)


def test_grid_taxonomy_shape_and_distances():
    tax = builtin_taxonomy("goemotions-grid-5x5")
    assert tax.mode == "2d"
    assert tax.num_labels == 23
    assert tax.grid_size == 5
    cells = list(tax.cells.values())
    assert len(set(cells)) == 23  # injective
    assert all(0 <= v < 5 and 0 <= a < 5 for v, a in cells)
    assert tax.cells["grief"] == (0, 0)
    assert tax.cells["pride"] == (3, 2)
    grief, pride = tax.index("grief"), tax.index("pride")
    assert label_distance(tax, grief, pride) == 5
    assert build_report(np.array([grief]), np.array([pride]), tax, "softmax").mean_error_chebyshev == 3
    assert max_distance(tax) == 8
    assert tax.levels == 5 and tax.coords.shape == (23, 2)
    # joy must sit among close neighbors for the holdout experiments
    near_joy = label_distance(tax, tax.index("joy"), np.arange(tax.num_labels)) == 1
    assert near_joy.sum() >= 2



@pytest.mark.parametrize("name", BUILTIN_TAXONOMIES)
def test_codes_of_the_builtin_taxonomies(name):
    tax = builtin_taxonomy(name)
    codes = tax.codes
    assert codes.shape == (tax.num_labels, max_distance(tax)) and codes.dtype == np.float64
    assert tax.codes is codes and not codes.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        codes[0, 0] = 1.0
    pinned = {
        "isear-valence": {"sadness": [0] * 6, "anger": [1, 1, 0, 0, 0, 0], "joy": [1] * 6},
        "goemotions-grid-5x5": {"grief": [0] * 8, "pride": [1, 1, 1, 0, 1, 1, 0, 0]},
    }[name]
    for label, row in pinned.items():
        assert codes[tax.index(label)].tolist() == row
    assert target_width(f"ordinal-{tax.mode}", tax) == codes.shape[1]
    # squared distance between two labels' codes is their L1 distance
    for i, j in itertools.product(range(tax.num_labels), repeat=2):
        assert ((codes[i] - codes[j]) ** 2).sum() == label_distance(tax, i, j)

def test_label_at_cell():
    tax = builtin_taxonomy("goemotions-grid-5x5")

    def decode(cell):
        row = np.concatenate([codewords(5)[cell[0]], codewords(5)[cell[1]]])
        return decode_outputs(tax, "ordinal-2d", row[None, :])[0]

    joy = decode(tax.cells["joy"])
    assert joy.label == "joy" and not joy.off_grid
    empty = [
        (v, a)
        for v in range(5)
        for a in range(5)
        if (v, a) not in tax.cells.values()
    ]
    assert len(empty) == 2
    for cell in empty:
        assert decode(cell).off_grid


def plain_l1(tax, a, b):
    """Rank gap in 1d, L1 cell gap in 2d, by a plain loop over `ranks`/`cells`."""
    if tax.mode == "1d":
        return abs(tax.ranks[a] - tax.ranks[b])
    (va, aa), (vb, ab) = tax.cells[a], tax.cells[b]
    return abs(va - vb) + abs(aa - ab)


def plain_chebyshev(tax, a, b):
    (va, aa), (vb, ab) = tax.cells[a], tax.cells[b]
    return max(abs(va - vb), abs(aa - ab))


def assert_chebyshev_errors_match_plain_loops(tax):
    """build_report's Chebyshev error for every pair of distinct labels of a
    2d taxonomy, one single-example report per pair, against the plain loop."""
    for (i, a), (j, b) in itertools.permutations(enumerate(tax.labels), 2):
        report = build_report(np.array([i]), np.array([j]), tax, "softmax")
        d = plain_chebyshev(tax, a, b)
        assert report.mean_error_chebyshev == d
        assert report.chebyshev_histogram == {e: int(e == d) for e in range(1, tax.levels)}


def test_tables_match_plain_loops():
    isear = builtin_taxonomy("isear-valence")
    grid = builtin_taxonomy("goemotions-grid-5x5")
    # built on first use, never by the parser
    assert not {"coords", "label_at"} & set(vars(grid))
    for tax in (isear, grid):
        for (i, a), (j, b) in itertools.product(enumerate(tax.labels), repeat=2):
            assert label_distance(tax, i, j) == plain_l1(tax, a, b)
    assert_chebyshev_errors_match_plain_loops(grid)
    assert [isear.ranks[isear.labels[i]] for i in isear.label_at] == list(range(7))
    assert [tuple(c) for c in grid.coords.tolist()] == [grid.cells[lab] for lab in grid.labels]
    # a flat row-major table: cell (v, a) is entry v * G + a
    for i, label in enumerate(grid.labels):
        v, a = grid.cells[label]
        assert grid.label_at[v * 5 + a] == i
    assert grid.label_at.shape == (25,)
    for tax in (isear, grid):
        for table in (tax.coords, tax.label_at):
            assert not table.flags.writeable


def metric_axioms(tax, dist):
    labels = range(tax.num_labels)
    for a in labels:
        assert dist(tax, a, a) == 0
    for a, b in itertools.combinations(labels, 2):
        assert dist(tax, a, b) == dist(tax, b, a) > 0
    for a, b, c in itertools.product(labels, repeat=3):
        assert dist(tax, a, c) <= dist(tax, a, b) + dist(tax, b, c)


def chebyshev(tax, i, j):
    # the largest per-axis gap, as build_report takes it from the coordinates
    return np.abs(tax.coords[i] - tax.coords[j]).max()


def test_metric_axioms_by_enumeration():
    metric_axioms(builtin_taxonomy("isear-valence"), label_distance)
    grid = builtin_taxonomy("goemotions-grid-5x5")
    metric_axioms(grid, label_distance)
    metric_axioms(grid, chebyshev)


def test_label_distance_is_the_l1_gap_in_plain_ints():
    t1 = builtin_taxonomy("isear-valence")
    t2 = builtin_taxonomy("goemotions-grid-5x5")
    for tax in (t1, t2):
        every = np.arange(tax.num_labels)
        # one broadcast call gives every pair, each equal to its own call
        table = label_distance(tax, every[:, None], every)
        assert table.shape == (tax.num_labels, tax.num_labels) and table.dtype.kind == "i"
        for (i, a), (j, b) in itertools.product(enumerate(tax.labels), repeat=2):
            d = label_distance(tax, i, j)
            assert isinstance(d, np.integer) and d == table[i, j] == plain_l1(tax, a, b)


@pytest.mark.parametrize(
    "index",
    [
        pytest.param(-1, id="negative"),
        pytest.param(7, id="K"),
        pytest.param(np.array([0, 7]), id="K-in-array"),
        pytest.param(np.array([-1, 0]), id="negative-in-array"),
        pytest.param(np.array([0.0, 1.0]), id="float-array"),
        pytest.param(np.array([True, False]), id="bool-array"),
        pytest.param(1.0, id="float"),
        pytest.param("sadness", id="name"),
    ],
)
def test_label_distance_rejects_what_is_not_a_label_index(index):
    isear = builtin_taxonomy("isear-valence")
    for a, b in ((index, 0), (0, index)):
        with pytest.raises(TaxonomyError, match=r"label indices must be integers in \[0, 7\)"):
            label_distance(isear, a, b)


def test_a_full_32x32_grid_report_stays_small():
    # reading (K, K) tables of label pairs, this report peaked at 48 MB
    g = 32
    records = [{"name": f"c{v}_{a}", "valence": v, "arousal": a} for v in range(g) for a in range(g)]
    taxonomy = parse_taxonomy({"mode": "2d", "grid_size": g, "labels": records})
    rng = np.random.default_rng(0)
    gold, pred = rng.integers(0, g * g, size=(2, 5000))
    tracemalloc.start()
    try:
        report = build_report(gold, pred, taxonomy, "ordinal-2d")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    distances = np.abs(taxonomy.coords[gold] - taxonomy.coords[pred]).sum(axis=1)
    assert report.mean_distance == int(distances.sum()) / 5000


def test_label_at_of_a_full_48x48_grid_stays_small():
    # one (D, G^D, K) broadcast of every cell's gap to every label peaked at
    # 162 MB here, and grows as G**4
    g = 48
    cells = [(v, a) for v in range(g) for a in range(g)]
    order = np.random.default_rng(0).permutation(len(cells))
    records = [{"name": f"c{i}", "valence": cells[i][0], "arousal": cells[i][1]} for i in order]
    taxonomy = parse_taxonomy({"mode": "2d", "grid_size": g, "labels": records})
    taxonomy.coords
    tracemalloc.start()
    try:
        table = taxonomy.label_at
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    # every cell is occupied, so each resolves to its own label
    assert taxonomy.coords[table].tolist() == [list(cell) for cell in cells]


@pytest.mark.parametrize("label", ["zeal", "", 3, None, ["joy"], {"joy": 1}])
def test_unknown_labels_of_any_type_are_taxonomy_errors(label):
    t1 = builtin_taxonomy("isear-valence")
    t2 = builtin_taxonomy("goemotions-grid-5x5")
    for lookup in (t1.index, t2.index):
        with pytest.raises(TaxonomyError, match="^unknown label: "):
            lookup(label)


def test_shipped_documents_parse_strictly():
    # the files on disk must themselves satisfy the strict parser
    import emord

    for name in BUILTIN_TAXONOMIES:
        tax = builtin_taxonomy(name)
        assert isinstance(tax, EmotionTaxonomy)
        doc = taxonomy_to_document(tax)
        assert json.dumps(doc)  # JSON-serializable
