"""Output decoding rules for every head mode, plus text-level prediction."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emord.checkpoint import Checkpoint
from emord.codec import CodecError, codewords, decode_thermometer_batch, target_for
from emord.data import DataError, LabeledCorpus, build_vocab, encode_text
from emord.infer import decode_outputs, predict_ids, predict_text
from emord.net import NetError, forward, init_params
from emord.recipe import TrainConfig
from emord.taxonomy import TaxonomyError, builtin_taxonomy, parse_taxonomy
from test_net import reference_forward
from test_taxonomy import plain_chebyshev, plain_l1

ISEAR = builtin_taxonomy("isear-valence")
GRID = builtin_taxonomy("goemotions-grid-5x5")


def test_softmax_decode_fills_rank():
    outputs = np.zeros((2, 7))
    outputs[0, 6] = 1.0  # joy
    outputs[1, 0] = 1.0  # sadness
    preds = decode_outputs(ISEAR, "softmax", outputs)
    assert [p.label for p in preds] == ["joy", "sadness"]
    assert [p.rank for p in preds] == [6, 0]
    assert all(p.cell is None and not p.off_grid for p in preds)


def test_softmax_decode_fills_cell_on_grid():
    outputs = np.zeros((1, 23))
    outputs[0, GRID.index("pride")] = 1.0
    (pred,) = decode_outputs(GRID, "softmax", outputs)
    assert pred.label == "pride"
    assert pred.cell == (3, 2)


def test_ordinal_1d_decode_nearest_codeword():
    # exact codeword for rank 4 -> surprise
    row = codewords(7)[4][None, :].astype(np.float64)
    (pred,) = decode_outputs(ISEAR, "ordinal-1d", row)
    assert pred.label == "surprise"
    assert pred.rank == 4
    # muddy outputs still decode to the nearest codeword
    noisy = np.array([[0.9, 0.85, 0.6, 0.2, 0.1, 0.05]])
    (pred,) = decode_outputs(ISEAR, "ordinal-1d", noisy)
    assert pred.rank == 3  # guilt
    assert pred.label == "guilt"


def test_ordinal_2d_decode_labeled_cell():
    target = np.concatenate([codewords(5)[3], codewords(5)[2]])
    (pred,) = decode_outputs(GRID, "ordinal-2d", target[None, :].astype(float))
    assert pred.label == "pride"
    assert pred.cell == (3, 2)
    assert not pred.off_grid


def test_ordinal_2d_decode_off_grid_resolution():
    # (2, 0) has no label; nearest labeled cells at distance 1 are
    # remorse (1,0), relief (3,0) -> lower valence wins the tie
    raw = np.concatenate([codewords(5)[2], codewords(5)[0]])
    (pred,) = decode_outputs(GRID, "ordinal-2d", raw[None, :].astype(float))
    assert pred.off_grid
    assert pred.cell == (2, 0)  # the raw decoded cell is preserved
    assert pred.label == "remorse"


@pytest.mark.parametrize("mode", ["bogus", "ordinal-2d"])
def test_decode_rejects_a_mode_the_taxonomy_cannot_take(mode):
    # a 1d taxonomy's codeword width would otherwise decode either as ranks
    with pytest.raises(CodecError):
        decode_outputs(ISEAR, mode, np.zeros((1, 6)))


def axis_levels(taxonomy):
    return taxonomy.num_labels if taxonomy.mode == "1d" else taxonomy.grid_size


def decode_points(taxonomy, points):
    """decode_outputs on the exact ordinal codewords of `points`: ranks
    (1-tuples) on a 1d taxonomy, (valence, arousal) cells on a 2d one."""
    levels = axis_levels(taxonomy)
    rows = np.array([np.concatenate([codewords(levels)[x] for x in p]) for p in points])
    return decode_outputs(taxonomy, f"ordinal-{taxonomy.mode}", rows)


def test_nearest_labeled_cell_tie_breaks():
    remorse, disappointment, grief = decode_points(GRID, [(2, 0), (2, 1), (0, 0)])
    assert remorse.label == "remorse" and remorse.off_grid
    # (2,1) neighbors at d=1: disappointment (1,1), caring (3,1),
    # curiosity (2,2) -> lowest valence wins
    assert disappointment.label == "disappointment"
    # exact hits resolve to themselves
    assert grief.label == "grief" and not grief.off_grid


def nearest_label_oracle(taxonomy, point):
    """Plain loop over labels: L1, then lower valence (or rank), then lower arousal."""
    best = None
    for label in taxonomy.labels:
        at = (taxonomy.ranks[label],) if taxonomy.mode == "1d" else taxonomy.cells[label]
        key = (sum(abs(x - y) for x, y in zip(at, point)), *at)
        if best is None or key < best[0]:
            best = (key, label)
    return best[1], best[0][0] > 0


# 4x4 grid with L1 ties: (0,0) is 1 from both (0,1) and (1,0), so valence
# decides; (0,2) is 1 from both (0,1) and (0,3), so arousal decides
TIE_GRID = parse_taxonomy(
    {
        "mode": "2d",
        "grid_size": 4,
        "labels": [
            {"name": "d", "valence": 2, "arousal": 2},
            {"name": "c", "valence": 0, "arousal": 3},
            {"name": "b", "valence": 1, "arousal": 0},
            {"name": "a", "valence": 0, "arousal": 1},
            {"name": "e", "valence": 3, "arousal": 0},
        ],
    }
)


def assert_every_point_decodes_like_the_oracle(taxonomy):
    """Decode each coordinate's exact codeword; return the predictions by point."""
    points = list(itertools.product(range(axis_levels(taxonomy)), repeat=taxonomy.coords.shape[1]))
    preds = dict(zip(points, decode_points(taxonomy, points)))
    for point, pred in preds.items():
        label, off_grid = nearest_label_oracle(taxonomy, point)
        raw = pred.cell if taxonomy.mode == "2d" else (pred.rank,)
        assert (pred.label, pred.off_grid, raw) == (label, off_grid, point), point
    return preds


@pytest.mark.parametrize("taxonomy", [GRID, TIE_GRID], ids=["goemotions", "ties"])
def test_every_cell_decodes_like_the_oracle(taxonomy):
    preds = assert_every_point_decodes_like_the_oracle(taxonomy)
    if taxonomy is TIE_GRID:
        assert preds[(0, 0)].label == "a"  # lower valence beats b (1,0)
        assert preds[(0, 2)].label == "a"  # lower arousal beats c (0,3)


@st.composite
def taxonomies(draw):
    """1d: 2-9 labels with shuffled ranks.  2d: a 2x2 to 7x7 grid with two
    or more labels at distinct random cells, in random label order."""
    if draw(st.booleans()):
        ranks = draw(st.permutations(range(draw(st.integers(2, 9)))))
        records = [{"name": f"l{i}", "rank": r} for i, r in enumerate(ranks)]
        return parse_taxonomy({"mode": "1d", "labels": records})
    g = draw(st.integers(2, 7))
    level = st.integers(0, g - 1)
    cells = draw(st.lists(st.tuples(level, level), min_size=2, max_size=g * g, unique=True))
    records = [{"name": f"l{i}", "valence": v, "arousal": a} for i, (v, a) in enumerate(cells)]
    return parse_taxonomy({"mode": "2d", "grid_size": g, "labels": records})


@settings(max_examples=60, deadline=None)
@given(taxonomies())
def test_every_coordinate_of_a_drawn_taxonomy_decodes_like_the_oracle(taxonomy):
    assert_every_point_decodes_like_the_oracle(taxonomy)
    mode = f"ordinal-{taxonomy.mode}"
    targets = np.stack([target_for(taxonomy, label, mode) for label in taxonomy.labels])
    decoded = decode_outputs(taxonomy, mode, targets)
    assert [p.label for p in decoded] == list(taxonomy.labels)
    assert not decoded.off_grid.any()
    # the tables against plain loops over ranks or cells
    for (i, a), (j, b) in itertools.product(enumerate(taxonomy.labels), repeat=2):
        assert taxonomy.distance_table[i, j] == plain_l1(taxonomy, a, b)
        if taxonomy.mode == "2d":
            assert taxonomy.chebyshev_table[i, j] == plain_chebyshev(taxonomy, a, b)
    if taxonomy.mode == "1d":
        with pytest.raises(TaxonomyError):
            taxonomy.chebyshev_table


def test_a_wide_grid_builds_no_per_cell_target_table():
    # one float64 table of every cell's target would hold G * G * 2(G-1)
    # entries, 127 MB at G = 200
    g = 200
    taxonomy = parse_taxonomy(
        {
            "mode": "2d",
            "grid_size": g,
            "labels": [
                {"name": "low", "valence": 0, "arousal": 0},
                {"name": "high", "valence": g - 1, "arousal": g - 1},
            ],
        }
    )
    tracemalloc.start()
    try:
        target = target_for(taxonomy, "high", "ordinal-2d")
        (pred,) = decode_outputs(taxonomy, "ordinal-2d", np.full((1, 2 * (g - 1)), 0.75))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert target.tolist() == [1.0] * (2 * (g - 1))
    assert pred.label == "high" and pred.cell == (g - 1, g - 1) and not pred.off_grid


def test_decoded_compares_by_value_and_is_unhashable():
    outputs = np.random.default_rng(0).random((4, GRID.levels * 2 - 2))
    decoded = decode_outputs(GRID, "ordinal-2d", outputs)
    assert decoded == decode_outputs(GRID, "ordinal-2d", outputs.copy())
    assert decoded[1:] == decode_outputs(GRID, "ordinal-2d", outputs[1:])
    other = outputs.copy()
    other[0, 0] = np.nextafter(other[0, 0], 2.0)
    nudged = decode_outputs(GRID, "ordinal-2d", other)
    assert np.array_equal(nudged.indices, decoded.indices)  # only the raw outputs differ
    assert decoded != nudged
    assert decoded != decode_outputs(GRID, "softmax", np.eye(4, GRID.num_labels))
    with pytest.raises(TypeError, match="unhashable type: 'Decoded'"):
        hash(decoded)


def test_prediction_to_dict():
    outputs = np.zeros((1, 7))
    outputs[0, 2] = 1.0
    (pred,) = decode_outputs(ISEAR, "softmax", outputs)
    d = pred.to_dict()
    assert d["label"] == "anger"
    assert d["mode"] == "softmax"
    assert d["rank"] == 2
    assert d["off_grid"] is False


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_prediction_to_dict_outputs_are_python_floats(dtype):
    outputs = np.random.default_rng(0).random((3, 8)).astype(dtype)
    for pred, row in zip(decode_outputs(GRID, "ordinal-2d", outputs), outputs):
        listed = pred.to_dict()["outputs"]
        assert listed == [float(x) for x in row]
        assert all(type(x) is float for x in listed)


def decode_2d_halves(outputs):
    """Valence and arousal levels from decoding each head's half on its own."""
    half = outputs.shape[1] // 2
    return decode_thermometer_batch(outputs[:, :half]), decode_thermometer_batch(outputs[:, half:])


def test_ordinal_2d_decode_equals_decoding_each_half_alone():
    rng = np.random.default_rng(5)
    g = GRID.grid_size
    rows = [
        np.full(2 * (g - 1), 0.5),  # exact ties in both heads
        np.r_[np.full(g - 1, 0.5), codewords(g)[3]],  # a tie in one head only
        np.r_[codewords(g)[2], codewords(g)[0]],  # (2, 0): off grid
        np.r_[codewords(g)[4], codewords(g)[4]],
    ]
    outputs = np.concatenate([np.array(rows), rng.random((300, 2 * (g - 1)))])
    outputs[-100:] = np.round(outputs[-100:] * 2) / 2  # many more exact ties
    decoded = decode_outputs(GRID, "ordinal-2d", outputs)
    v, a = decode_2d_halves(outputs)
    assert np.array_equal(decoded.coords, np.stack([v, a], axis=1))
    assert np.array_equal(decoded.indices, GRID.label_at[v * g + a])
    assert np.array_equal(decoded.off_grid, ~GRID.occupied[v * g + a])
    assert decoded[0].cell == (0, 0)  # ties go to the lower level
    assert decoded[2].off_grid and decoded[2].cell == (2, 0)
    assert 0 < decoded.off_grid.sum() < len(decoded)
    # the same levels for a block that is not contiguous in memory
    strided = decode_outputs(GRID, "ordinal-2d", np.asfortranarray(outputs))
    assert np.array_equal(strided.coords, decoded.coords)


@pytest.mark.parametrize("shape", [(3, 7), (3, 9), (3, 1), (3, 0), (8,), (2, 3, 8)])
def test_ordinal_2d_decode_rejects_a_block_without_two_equal_halves(shape):
    with pytest.raises(CodecError, match=rf"ordinal-2d outputs .*{re.escape(str(shape))}"):
        decode_outputs(GRID, "ordinal-2d", np.full(shape, 0.5))


@pytest.mark.parametrize("shape", [(3, 5), (3, 7), (3, 0), (6,), (2, 3, 6)])
def test_ordinal_1d_decode_rejects_a_block_of_another_width(shape):
    # a level past the last rank once raised numpy's IndexError
    with pytest.raises(CodecError, match=rf"ordinal-1d outputs .*{re.escape(str(shape))}"):
        decode_outputs(ISEAR, "ordinal-1d", np.full(shape, 0.9))


@pytest.mark.parametrize("taxonomy", [ISEAR, GRID], ids=["isear", "grid"])
@pytest.mark.parametrize("shape", ["K-1", "K+1", "1-D", "3-D"])
def test_softmax_decode_rejects_a_block_of_another_shape(taxonomy, shape):
    # a wider block once decoded to indices past the last label, a 1-D one
    # raised numpy's AxisError and a 3-D one a TypeError
    k = taxonomy.num_labels
    shape = {"K-1": (3, k - 1), "K+1": (3, k + 1), "1-D": (k,), "3-D": (2, 3, k)}[shape]
    outputs = np.random.default_rng(0).random(shape)
    with pytest.raises(CodecError, match=rf"softmax outputs .*{re.escape(str(shape))}"):
        decode_outputs(taxonomy, "softmax", outputs)


def make_checkpoint(mode="softmax"):
    taxonomy = GRID if mode == "ordinal-2d" else ISEAR
    vocab = build_vocab(LabeledCorpus((("alpha beta gamma delta", "joy"),)))
    recipe = TrainConfig(
        mode=mode,
        max_seq_length=12,
        embed_dim=4,
        conv_channels=(3, 3),
        kernel_sizes=(6, 4),
        ffnn_hidden=(5, 4),
    )
    config = recipe.model_config(vocab.size, taxonomy)
    return Checkpoint(init_params(config, seed=0), taxonomy, vocab, recipe)


def test_predict_ids_matches_forward(mode="ordinal-1d"):
    ck = make_checkpoint(mode)
    rng = np.random.default_rng(1)
    ids = rng.integers(1, ck.vocab.size, size=(7, 12))
    preds = predict_ids(ck, ids, batch_size=3)  # forces chunking
    outputs, _ = forward(ck.params, ck.config, ids)
    direct = decode_outputs(ck.taxonomy, mode, outputs)
    assert [p.label for p in preds] == [p.label for p in direct]


@pytest.mark.parametrize("mode", ["softmax", "ordinal-1d", "ordinal-2d"])
def test_predict_ids_chunks_match_row_by_row_decode(mode):
    ck = make_checkpoint(mode)
    ids = np.random.default_rng(2).integers(1, ck.vocab.size, size=(7, 12))
    decoded = predict_ids(ck, ids, batch_size=3)
    outputs = np.concatenate([forward(ck.params, ck.config, ids[i : i + 3])[0] for i in (0, 3, 6)])
    assert len(decoded) == 7
    for i, pred in enumerate(decoded):
        (row,) = decode_outputs(ck.taxonomy, mode, outputs[i : i + 1])
        assert pred.to_dict() == row.to_dict() == decoded[i].to_dict()
        assert pred.cell == row.cell
    if mode == "ordinal-2d":
        assert [p.cell for p in decoded] == [tuple(c) for c in decoded.coords.tolist()]
    elif mode == "ordinal-1d":
        assert [p.rank for p in decoded] == decoded.coords[:, 0].tolist()
    else:
        assert decoded.coords is None


@pytest.mark.parametrize("mode", ["softmax", "ordinal-1d", "ordinal-2d"])
def test_predict_ids_on_no_rows_is_empty(mode):
    ck = make_checkpoint(mode)
    decoded = predict_ids(ck, np.zeros((0, 12), dtype=np.int64))
    assert len(decoded) == 0 and list(decoded) == []
    assert decoded.indices.shape == decoded.off_grid.shape == (0,)
    assert decoded.outputs.shape == (0, ck.config.output_width)
    if mode == "softmax":
        assert decoded.coords is None
    else:
        assert decoded.coords.shape == (0, ck.taxonomy.coords.shape[1])


@pytest.mark.parametrize(
    "mode, taxonomy, width",
    [("softmax", ISEAR, 7), ("ordinal-1d", ISEAR, 6), ("ordinal-2d", GRID, 8)],
    ids=["softmax", "ordinal-1d", "ordinal-2d"],
)
def test_a_slice_of_decoded_rows_is_decoded_rows(mode, taxonomy, width):
    outputs = np.random.default_rng(4).random((4, width))
    d = decode_outputs(taxonomy, mode, outputs)
    middle = d[1:3]
    assert len(middle) == 2 and list(middle) == [d[1], d[2]]
    assert [p.cell for p in middle] == [d[1].cell, d[2].cell]
    assert np.array_equal(middle.outputs, outputs[1:3])
    reverse = d[::-1]
    assert len(reverse) == 4 and list(reverse) == [d[3], d[2], d[1], d[0]]
    empty = d[5:]
    assert len(empty) == 0 and list(empty) == []
    assert empty.outputs.shape == (0, width)
    for part in (middle, reverse, empty):
        assert (part.coords is None) == (mode == "softmax")
        assert part.mode == mode and part.taxonomy is taxonomy
    # an int, also a numpy one, still gives one row
    assert d[np.int64(2)] == d[2] == d[-2]


def test_predict_text_roundtrip():
    ck = make_checkpoint()
    pred = predict_text(ck, "alpha beta unknownword gamma")
    ids = encode_text("alpha beta unknownword gamma", ck.vocab, ck.recipe.max_seq_length)
    outputs, _ = forward(ck.params, ck.config, ids[None, :])
    (direct,) = decode_outputs(ck.taxonomy, "softmax", outputs)
    assert pred.label == direct.label


def test_predict_text_rejects_vanishing_input():
    ck = make_checkpoint()
    with pytest.raises(DataError, match="no tokens"):
        predict_text(ck, "... !!! ...")


def test_predictions_compare_and_hash_without_their_outputs():
    # two rows with one label and different outputs, from one decode call
    decoded = decode_outputs(ISEAR, "softmax", np.stack([np.eye(7)[0], 2 * np.eye(7)[0]]))
    a, b = decoded
    assert a == b
    assert hash(a) == hash(b)
    assert b in decoded
    assert decoded.index(b) == 0
    assert a.outputs[0] != b.outputs[0]


def desk_checkpoint(mode, t=32, **widths):
    """A desk-width checkpoint over 40 tokens, at sequence length `t`.

    Its weights are the initial ones times 4, so that the outputs spread
    over (0, 1) and a last-bit change in a convolution's sums reaches them.
    """
    taxonomy = GRID if mode == "ordinal-2d" else ISEAR
    vocab = build_vocab(LabeledCorpus(((" ".join(f"w{i}" for i in range(40)), "joy"),)))
    recipe = TrainConfig(mode=mode, max_seq_length=t, seed=3, **widths)
    config = recipe.model_config(vocab.size, taxonomy)
    params = init_params(config, seed=3)
    params.arena[...] *= 4
    return Checkpoint(params, taxonomy, vocab, recipe)


def padded_rows(rng, n, t, vocab_size, lengths):
    """n id rows of lengths drawn from `lengths`, every other row with inner padding."""
    ids = np.zeros((n, t), dtype=np.int64)
    for i, length in enumerate(rng.choice(lengths, size=n)):
        ids[i, :length] = rng.integers(1, vocab_size, size=length)
        if i % 2 == 0 and length > 2:
            # zeros inside the text; its last column stays a real token
            ids[i, rng.integers(0, length - 1, size=length // 3)] = 0
    return ids


@pytest.mark.parametrize("mode", ["softmax", "ordinal-1d", "ordinal-2d"])
@pytest.mark.parametrize("batch", [1, 7, 256])
def test_trimmed_predict_ids_outputs_equal_untrimmed_forward(mode, batch):
    # k1 + k2 - 2 = 8 columns of receptive field past the last real token:
    # rows under T - 8 get trimmed, rows at and over it keep all T columns;
    # the reference runs every column
    ck = desk_checkpoint(mode)
    t = ck.recipe.max_seq_length
    rng = np.random.default_rng(batch)
    short = [1, 2, 5, t - 12, t - 9]
    for lengths in ([1, 2, 5], short, short + [t - 8], short + [t - 7, t]):
        ids = padded_rows(rng, batch, t, ck.vocab.size, lengths)
        expected = reference_forward(ck.params, ck.config, ids)
        assert np.array_equal(predict_ids(ck, ids).outputs, expected)


@pytest.mark.parametrize("mode", ["softmax", "ordinal-1d", "ordinal-2d"])
def test_trimmed_predict_ids_outputs_equal_untrimmed_forward_at_length_200(mode):
    # wider layers and T=200, so that each conv GEMM runs over many rows
    ck = desk_checkpoint(mode, t=200, embed_dim=256, conv_channels=(256, 512))
    ids = padded_rows(np.random.default_rng(4), 40, 200, ck.vocab.size, [3, 17, 29])
    assert forward(ck.params, ck.config, ids[:32])[1].token_ids.shape[1] < 40
    # two trimmed chunks, of 32 and 8 rows; the reference runs the same
    # chunks with every column
    expected = np.concatenate([reference_forward(ck.params, ck.config, ids[i : i + 32]) for i in (0, 32)])
    assert np.array_equal(predict_ids(ck, ids, batch_size=32).outputs, expected)


def bad_inputs(vocab_size):
    # 128 rows of 2 tokens, which forward cuts to 10 columns once it has
    # checked them all
    short = np.zeros((128, 12), dtype=np.int64)
    short[:, :2] = 3
    negative, too_large, one_empty = short.copy(), short.copy(), short.copy()
    # past the count of real tokens plus the receptive field, so a trim
    # by count instead of by position would cut them off unchecked
    negative[1, 11] = -1
    too_large[0, 11] = vocab_size
    one_empty[1] = 0
    return {
        "1-d": np.full(12, 3, dtype=np.int64),
        "float": short.astype(np.float64),
        "negative": negative,
        "out of range": too_large,
        "all padding": np.zeros((128, 12), dtype=np.int64),
        "one padding row": one_empty,
        "too short": short[:, :8],
    }


@pytest.mark.parametrize("name", list(bad_inputs(3)))
def test_predict_ids_rejects_what_forward_rejects_with_its_error(name):
    ck = make_checkpoint("ordinal-2d")
    ids = bad_inputs(ck.vocab.size)[name]
    with pytest.raises(NetError) as untrimmed:
        forward(ck.params, ck.config, ids)
    with pytest.raises(NetError) as trimmed:
        predict_ids(ck, ids)
    assert str(trimmed.value) == str(untrimmed.value)
