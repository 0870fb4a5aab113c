"""Output decoding rules for every head mode, plus text-level prediction."""

import numpy as np
import pytest

from emord.checkpoint import Checkpoint
from emord.codec import encode_thermometer
from emord.data import DataError, LabeledCorpus, build_vocab, encode_text
from emord.infer import decode_outputs, predict_ids, predict_text
from emord.net import ModelConfig, forward, init_params
from emord.taxonomy import builtin_taxonomy, parse_taxonomy

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
    row = encode_thermometer(4, 7)[None, :].astype(np.float64)
    (pred,) = decode_outputs(ISEAR, "ordinal-1d", row)
    assert pred.label == "surprise"
    assert pred.rank == 4
    # muddy outputs still decode to the nearest codeword
    noisy = np.array([[0.9, 0.85, 0.6, 0.2, 0.1, 0.05]])
    (pred,) = decode_outputs(ISEAR, "ordinal-1d", noisy)
    assert pred.rank == 3  # guilt
    assert pred.label == "guilt"


def test_ordinal_2d_decode_labeled_cell():
    target = np.concatenate([encode_thermometer(3, 5), encode_thermometer(2, 5)])
    (pred,) = decode_outputs(GRID, "ordinal-2d", target[None, :].astype(float))
    assert pred.label == "pride"
    assert pred.cell == (3, 2)
    assert not pred.off_grid


def test_ordinal_2d_decode_off_grid_resolution():
    # (2, 0) has no label; nearest labeled cells at distance 1 are
    # remorse (1,0), relief (3,0) -> lower valence wins the tie
    raw = np.concatenate([encode_thermometer(2, 5), encode_thermometer(0, 5)])
    (pred,) = decode_outputs(GRID, "ordinal-2d", raw[None, :].astype(float))
    assert pred.off_grid
    assert pred.cell == (2, 0)  # the raw decoded cell is preserved
    assert pred.label == "remorse"


def decode_cells(taxonomy, cells):
    """decode_outputs on the exact ordinal-2d codewords of `cells`."""
    g = taxonomy.grid_size
    rows = np.array(
        [np.concatenate([encode_thermometer(v, g), encode_thermometer(a, g)]) for v, a in cells]
    )
    return decode_outputs(taxonomy, "ordinal-2d", rows)


def test_nearest_labeled_cell_tie_breaks():
    remorse, disappointment, grief = decode_cells(GRID, [(2, 0), (2, 1), (0, 0)])
    assert remorse.label == "remorse" and remorse.off_grid
    # (2,1) neighbors at d=1: disappointment (1,1), caring (3,1),
    # curiosity (2,2) -> lowest valence wins
    assert disappointment.label == "disappointment"
    # exact hits resolve to themselves
    assert grief.label == "grief" and not grief.off_grid


def nearest_label_oracle(taxonomy, cell):
    """Plain loop over labels: L1, then lower valence, then lower arousal."""
    best = None
    for label in taxonomy.labels:
        v, a = taxonomy.cell(label)
        key = (abs(v - cell[0]) + abs(a - cell[1]), v, a)
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


@pytest.mark.parametrize("taxonomy", [GRID, TIE_GRID], ids=["goemotions", "ties"])
def test_every_cell_decodes_like_the_oracle(taxonomy):
    g = taxonomy.grid_size
    cells = [(v, a) for v in range(g) for a in range(g)]
    preds = dict(zip(cells, decode_cells(taxonomy, cells)))
    for cell, pred in preds.items():
        label, off_grid = nearest_label_oracle(taxonomy, cell)
        assert (pred.label, pred.off_grid, pred.cell) == (label, off_grid, cell), cell
    if taxonomy is TIE_GRID:
        assert preds[(0, 0)].label == "a"  # lower valence beats b (1,0)
        assert preds[(0, 2)].label == "a"  # lower arousal beats c (0,3)


def test_prediction_to_dict():
    outputs = np.zeros((1, 7))
    outputs[0, 2] = 1.0
    (pred,) = decode_outputs(ISEAR, "softmax", outputs)
    d = pred.to_dict()
    assert d["label"] == "anger"
    assert d["mode"] == "softmax"
    assert d["rank"] == 2
    assert d["off_grid"] is False


def make_checkpoint(mode="softmax"):
    taxonomy = GRID if mode == "ordinal-2d" else ISEAR
    corpus = LabeledCorpus((("alpha beta gamma delta", "joy"),))
    vocab = build_vocab(corpus)
    width = {"softmax": 7, "ordinal-1d": 6, "ordinal-2d": 8}[mode]
    config = ModelConfig(
        vocab_size=vocab.size,
        output_width=width,
        head_mode=mode,
        embed_dim=4,
        conv_channels=(3, 3),
        kernel_sizes=(6, 4),
        ffnn_hidden=(5, 4),
        dtype="float32",
    )
    return Checkpoint(
        config=config,
        params=init_params(config, seed=0),
        taxonomy=taxonomy,
        vocab=vocab,
        max_seq_length=12,
        seed=0,
    )


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
        assert [p.cell for p in decoded] == list(zip(decoded.valences, decoded.arousals))
    else:
        assert decoded.valences is None and decoded.arousals is None


@pytest.mark.parametrize("mode", ["softmax", "ordinal-1d", "ordinal-2d"])
def test_predict_ids_on_no_rows_is_empty(mode):
    ck = make_checkpoint(mode)
    decoded = predict_ids(ck, np.zeros((0, 12), dtype=np.int64))
    assert len(decoded) == 0 and list(decoded) == []
    assert decoded.indices.shape == decoded.off_grid.shape == (0,)
    assert decoded.outputs.shape == (0, ck.config.output_width)
    assert (decoded.valences is None) == (mode != "ordinal-2d")


def test_predict_text_roundtrip():
    ck = make_checkpoint()
    pred = predict_text(ck, "alpha beta unknownword gamma")
    ids = encode_text("alpha beta unknownword gamma", ck.vocab, ck.max_seq_length)
    outputs, _ = forward(ck.params, ck.config, ids[None, :])
    (direct,) = decode_outputs(ck.taxonomy, "softmax", outputs)
    assert pred.label == direct.label


def test_predict_text_rejects_vanishing_input():
    ck = make_checkpoint()
    with pytest.raises(DataError, match="no tokens"):
        predict_text(ck, "... !!! ...")
