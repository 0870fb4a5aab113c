"""Thermometer/one-hot codecs: laws checked exhaustively against oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest

from emord.codec import (
    MODE_ORDINAL_1D,
    MODE_ORDINAL_2D,
    MODE_SOFTMAX,
    CodecError,
    check_mode_compatible,
    codewords,
    decode_thermometer_batch,
    target_for,
    target_width,
)
from emord.taxonomy import TaxonomyError, builtin_taxonomy, label_distance


def brute_force_decode(values):
    """Independent oracle: literal nearest-codeword search, low level on ties."""
    values = np.asarray(values, dtype=np.float64)
    levels = values.shape[0] + 1
    best_level, best_dist = None, None
    for k in range(levels):
        code = np.zeros(levels - 1)
        code[:k] = 1.0
        dist = float(((values - code) ** 2).sum())
        if best_dist is None or dist < best_dist - 1e-12:
            best_level, best_dist = k, dist
    return best_level


def decode_one(values):
    """One vector's level, decoded as a one-row batch."""
    return int(decode_thermometer_batch(np.asarray(values)[None])[0])


def test_encode_examples():
    codes = codewords(5)
    assert codes[0].tolist() == [0, 0, 0, 0]
    assert codes[3].tolist() == [1, 1, 1, 0]
    assert codes[4].tolist() == [1, 1, 1, 1]


def test_decode_encode_identity_exhaustive():
    # criterion: decode(encode(k)) == k for every level of every K <= 32
    for levels in range(2, 33):
        assert decode_thermometer_batch(codewords(levels)).tolist() == list(range(levels))


def test_codeword_distance_law_exhaustive():
    # criterion: squared distance between codewords equals the level gap, exactly
    for levels in range(2, 33):
        codes = codewords(levels)
        for i in range(levels):
            for j in range(levels):
                d2 = float(((codes[i] - codes[j]) ** 2).sum())
                assert d2 == abs(i - j)


def test_decode_matches_brute_force_oracle():
    rng = np.random.default_rng(7)
    for levels in (2, 3, 5, 9, 17):
        vals = rng.uniform(-0.5, 1.5, size=(64, levels - 1))
        got = decode_thermometer_batch(vals)
        want = [brute_force_decode(row) for row in vals]
        assert got.tolist() == want


def test_decode_examples_and_tie_break():
    assert decode_one([0.9, 0.8, 0.1, 0.0, 0.0, 0.0]) == 2
    # exactly between levels 0 and 2: both at distance 0.5; lowest level wins
    assert decode_one([0.5, 0.5]) == 0
    assert decode_one([1.0, 1.0]) == 2
    assert decode_one([0.0]) == 0
    assert decode_one([1.0]) == 1
    assert decode_one([0.5]) == 0  # tie toward the lower level


def test_decode_handles_non_monotone_vectors():
    # a non-monotone vector is still decoded to its nearest codeword
    vals = np.array([0.1, 0.9, 0.2, 0.8])
    assert decode_one(vals) == brute_force_decode(vals)


def test_a_wide_batch_decodes_in_bounded_memory():
    # one (N, L+1, L) float64 difference array would hold 64 * 256 * 255 * 8
    # bytes, 33 MB; rows are decoded in chunks, each exactly as it is alone
    rng = np.random.default_rng(3)
    values = rng.uniform(-0.5, 1.5, size=(64, 255))
    values[::9] = codewords(256)[rng.integers(0, 256, size=8)]
    tracemalloc.start()
    try:
        levels = decode_thermometer_batch(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert levels.tolist() == [decode_one(row) for row in values]
    # a row wider than the budget goes one row at a time
    assert decode_thermometer_batch(np.ones((2, 1023))).tolist() == [1023, 1023]


def test_decode_rejects_bad_input():
    with pytest.raises(CodecError, match="^non-finite entries in code vector$"):
        decode_one([0.5, np.nan])
    with pytest.raises(CodecError):
        decode_thermometer_batch(np.zeros((2, 2, 2)))
    with pytest.raises(CodecError, match=r"got shape \(2, 0\)$"):
        decode_thermometer_batch(np.zeros((2, 0)))


@pytest.mark.parametrize("value", [np.float64(0.3), 0.3, np.zeros((1, 2))], ids=["0-d", "float", "2-d"])
def test_decode_rejects_what_is_not_a_vector(value):
    # as a one-row batch, anything but a vector has the wrong number of axes
    with pytest.raises(CodecError, match=r"expected \(N, L>=1\) array, got shape \("):
        decode_one(value)


@pytest.mark.parametrize("levels", [1, 0, -3])
def test_codewords_need_two_levels(levels):
    with pytest.raises(CodecError, match=f"need at least 2 levels, got {levels}$"):
        codewords(levels)


def test_mode_compatibility():
    t1 = builtin_taxonomy("isear-valence")
    t2 = builtin_taxonomy("goemotions-grid-5x5")
    check_mode_compatible(MODE_SOFTMAX, t1)
    check_mode_compatible(MODE_SOFTMAX, t2)
    check_mode_compatible(MODE_ORDINAL_1D, t1)
    check_mode_compatible(MODE_ORDINAL_2D, t2)
    with pytest.raises(CodecError):
        check_mode_compatible(MODE_ORDINAL_1D, t2)
    with pytest.raises(CodecError):
        check_mode_compatible(MODE_ORDINAL_2D, t1)
    with pytest.raises(CodecError):
        check_mode_compatible("argmax", t1)


def test_target_widths():
    t1 = builtin_taxonomy("isear-valence")
    t2 = builtin_taxonomy("goemotions-grid-5x5")
    assert target_width(MODE_SOFTMAX, t1) == 7
    assert target_width(MODE_ORDINAL_1D, t1) == 6
    assert target_width(MODE_SOFTMAX, t2) == 23
    assert target_width(MODE_ORDINAL_2D, t2) == 8


def test_target_vectors_1d():
    tax = builtin_taxonomy("isear-valence")
    assert target_for(tax, "sadness", MODE_ORDINAL_1D).tolist() == [0] * 6
    assert target_for(tax, "joy", MODE_ORDINAL_1D).tolist() == [1] * 6
    anger = target_for(tax, "anger", MODE_ORDINAL_1D)
    assert anger.tolist() == [1, 1, 0, 0, 0, 0]
    one_hot = target_for(tax, "anger", MODE_SOFTMAX)
    assert one_hot.sum() == 1.0 and one_hot[tax.index("anger")] == 1.0


def test_target_vectors_2d_layout():
    tax = builtin_taxonomy("goemotions-grid-5x5")
    grief = target_for(tax, "grief", MODE_ORDINAL_2D)
    assert grief.tolist() == [0, 0, 0, 0, 0, 0, 0, 0]
    pride = target_for(tax, "pride", MODE_ORDINAL_2D)
    assert pride.tolist() == [1, 1, 1, 0, 1, 1, 0, 0]


def test_target_vectors_2d_every_label_distinct():
    tax = builtin_taxonomy("goemotions-grid-5x5")
    seen = set()
    for label in tax.labels:
        vec = tuple(target_for(tax, label, MODE_ORDINAL_2D).tolist())
        assert vec not in seen
        seen.add(vec)


def test_target_2d_squared_distance_equals_l1():
    # the concatenated codeword geometry carries the L1 grid distance exactly
    tax = builtin_taxonomy("goemotions-grid-5x5")
    for a, b in itertools.combinations(tax.labels, 2):
        va = target_for(tax, a, MODE_ORDINAL_2D)
        vb = target_for(tax, b, MODE_ORDINAL_2D)
        assert float(((va - vb) ** 2).sum()) == label_distance(tax, tax.index(a), tax.index(b))


def test_codewords_matrix():
    codes = codewords(4)
    assert codes.shape == (4, 3) and codes.dtype == np.float64
    assert codes.tolist() == [
        [0, 0, 0],
        [1, 0, 0],
        [1, 1, 0],
        [1, 1, 1],
    ]
    # one shared table per level count, so it refuses writes and decode
    # reads it unchanged
    assert codewords(4) is codes
    with pytest.raises(ValueError, match="read-only"):
        codes[:] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        codes[3, 0] = 0.0
    assert codes.tolist()[3] == [1, 1, 1]
    assert decode_one([1.0, 1.0, 1.0]) == 3
    mutable = codes.copy()
    mutable[:] = 0.0
    assert codewords(4).tolist()[3] == [1, 1, 1]


def test_dtype_control():
    assert target_for(
        builtin_taxonomy("isear-valence"), "joy", MODE_ORDINAL_1D, dtype=np.float32
    ).dtype == np.float32


def reference_target(tax, label, mode, dtype):
    """The target built without the cached tables: an identity row, or a
    lower-triangular row per coordinate of the label's rank or cell."""
    if mode == MODE_SOFTMAX:
        return np.eye(tax.num_labels, dtype=dtype)[tax.labels.index(label)]
    point = (tax.ranks[label],) if mode == MODE_ORDINAL_1D else tax.cells[label]
    rows = np.tri(tax.levels, tax.levels - 1, k=-1)
    return np.concatenate([rows[level] for level in point]).astype(dtype)


def cached_tables(tax):
    """The shared read-only tables: the codeword table and the taxonomy's codes."""
    return [codewords(tax.levels), tax.codes]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "name, mode",
    [
        ("isear-valence", MODE_SOFTMAX),
        ("isear-valence", MODE_ORDINAL_1D),
        ("goemotions-grid-5x5", MODE_SOFTMAX),
        ("goemotions-grid-5x5", MODE_ORDINAL_2D),
    ],
)
def test_target_for_is_a_fresh_copy_of_the_encoded_target(name, mode, dtype):
    tax = builtin_taxonomy(name)
    tables = cached_tables(tax)
    assert not any(table.flags.writeable for table in tables)
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 7.0
    before = [table.copy() for table in tables]
    for label in tax.labels:
        expected = reference_target(tax, label, mode, dtype)
        got = target_for(tax, label, mode, dtype=dtype)
        assert got.dtype == dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert got.flags.writeable and got.flags.c_contiguous
        assert not any(np.shares_memory(got, table) for table in tables)
        got[...] = 7.0
        assert target_for(tax, label, mode, dtype=dtype).tobytes() == expected.tobytes()
    assert [table.tobytes() for table in tables] == [table.tobytes() for table in before]
    assert all(a is b for a, b in zip(cached_tables(tax), tables))


def test_target_for_errors():
    isear = builtin_taxonomy("isear-valence")
    grid = builtin_taxonomy("goemotions-grid-5x5")
    for tax, modes in ((isear, (MODE_SOFTMAX, MODE_ORDINAL_1D)), (grid, (MODE_SOFTMAX, MODE_ORDINAL_2D))):
        for mode in modes:
            with pytest.raises(TaxonomyError, match=r"^unknown label: 'nope'$"):
                target_for(tax, "nope", mode)
    with pytest.raises(CodecError, match="^ordinal-2d head requires a 2d taxonomy$"):
        target_for(isear, "joy", MODE_ORDINAL_2D)
    with pytest.raises(CodecError, match="^ordinal-1d head requires a 1d taxonomy$"):
        target_for(grid, "grief", MODE_ORDINAL_1D)
    # the mode is checked before the label
    with pytest.raises(CodecError, match="^ordinal-1d head requires a 1d taxonomy$"):
        target_for(grid, "nope", MODE_ORDINAL_1D)
    with pytest.raises(CodecError, match="^unknown head mode 'argmax'"):
        target_for(isear, "joy", "argmax")
