"""Corpus I/O, tokenization, vocabulary, splitting, and synthetic generation."""

import json
import re
import sys
import unicodedata
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emord.data import (
    UNK_ID,
    DataError,
    LabeledCorpus,
    SyntheticSpec,
    Vocabulary,
    build_vocab,
    encode_corpus,
    encode_text,
    filter_labels,
    generate_synthetic,
    load_corpus,
    load_synthetic_spec,
    marker_token,
    nearest_neighbor_labels,
    resolve_taxonomy,
    save_corpus_tsv,
    split_corpus,
    text_tokens,
)
from emord.taxonomy import builtin_taxonomy

ISEAR = builtin_taxonomy("isear-valence")
GRID = builtin_taxonomy("goemotions-grid-5x5")


# ---------------------------------------------------------------- corpus I/O


def test_load_tsv_roundtrip(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("I am happy\tjoy\nso scared now\tfear\n", encoding="utf-8")
    corpus = load_corpus(path, "tsv", ISEAR)
    assert corpus.records == (("I am happy", "joy"), ("so scared now", "fear"))
    assert Counter(corpus.labels()) == {"joy": 1, "fear": 1}
    out = tmp_path / "copy.tsv"
    save_corpus_tsv(corpus, out)
    assert out.read_text(encoding="utf-8") == path.read_text(encoding="utf-8")


def test_load_tsv_errors_name_the_row(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("fine text\tjoy\nno tab here\n", encoding="utf-8")
    with pytest.raises(DataError, match="row 2"):
        load_corpus(path, "tsv", ISEAR)
    path.write_text("fine text\tjoy\n\nmore\tfear\n", encoding="utf-8")
    with pytest.raises(DataError, match="row 2: blank"):
        load_corpus(path, "tsv", ISEAR)
    path.write_text("text\tnot-a-label\n", encoding="utf-8")
    with pytest.raises(DataError, match="row 1"):
        load_corpus(path, "tsv", ISEAR)
    path.write_text("\tjoy\n", encoding="utf-8")
    with pytest.raises(DataError, match="row 1"):
        load_corpus(path, "tsv", ISEAR)


@pytest.mark.parametrize("fmt, head", [("tsv", b""), ("csv", b"text,label\n")], ids=["tsv", "csv"])
@pytest.mark.parametrize(
    "bad",
    [b"caf\xe9\tjoy\n", b"fine\tj\xffoy\n", b"\x80\tjoy\n"],
    ids=["latin-1 text", "in the label", "first byte"],
)
def test_load_rejects_bytes_that_are_not_utf8_by_row(tmp_path, fmt, head, bad):
    # a byte that is not UTF-8 in row 3, after two good rows of either format
    rows = [b"so happy\tjoy\n", b"so scared\tfear\n", bad]
    if fmt == "csv":
        rows = [row.replace(b"\t", b",") for row in rows]
    path = tmp_path / f"corpus.{fmt}"
    path.write_bytes(head + b"".join(rows))
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))} row 3: not valid UTF-8$"):
        load_corpus(path, fmt, ISEAR)


def test_load_csv_strict_header(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text('text,label\n"hello, there",joy\n', encoding="utf-8")
    corpus = load_corpus(path, "csv", ISEAR)
    assert corpus.records == (("hello, there", "joy"),)
    path.write_text("label,text\njoy,hello\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        load_corpus(path, "csv", ISEAR)
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="empty"):
        load_corpus(path, "csv", ISEAR)


@pytest.mark.parametrize("row, where", [(0, "header"), (2, "row 2")])
def test_load_csv_row_csv_cannot_parse_names_the_row(tmp_path, row, where):
    rows = ["text,label", "fine,joy", "fine,fear"]
    rows[row] = "x" * 131073 + ",joy"  # over the csv module's field limit
    path = tmp_path / "corpus.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"^{re.escape(str(path))} {where}: field larger than field limit"):
        load_corpus(path, "csv", ISEAR)


def test_unknown_format_and_empty_corpus(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("a\tjoy\n", encoding="utf-8")
    with pytest.raises(DataError, match="format"):
        load_corpus(path, "jsonl", ISEAR)


def test_save_tsv_rejects_unrepresentable_text(tmp_path):
    corpus = LabeledCorpus((("has\ttab", "joy"),))
    with pytest.raises(DataError, match="tsv"):
        save_corpus_tsv(corpus, tmp_path / "x.tsv")


@pytest.mark.parametrize("brk", ["\r", "\x0b", "\x85", "\u2028"])
def test_save_tsv_writes_only_what_load_corpus_reads_back(tmp_path, brk):
    # load_corpus splits lines at \n and \r only, so the other line
    # boundaries of str.splitlines load back inside their text
    corpus = LabeledCorpus((("so" + brk + "happy", "joy"), ("quite" + brk, "fear")))
    path = tmp_path / "x.tsv"
    if brk == "\r":
        with pytest.raises(DataError, match=r"tsv cannot hold a tab, \\n or \\r"):
            save_corpus_tsv(corpus, path)
        assert not path.exists()
        return
    save_corpus_tsv(corpus, path)
    assert load_corpus(path, "tsv", ISEAR).records == corpus.records


@pytest.mark.parametrize(
    "record, error",
    [
        pytest.param(("fine", "jo\ty"), "tsv cannot hold", id="tab-in-label"),
        pytest.param(("fine", "joy\n"), "tsv cannot hold", id="newline-in-label"),
        pytest.param(("fine", "\rjoy"), "tsv cannot hold", id="carriage-return-in-label"),
        pytest.param(("", "joy"), "empty text", id="empty-text"),
        pytest.param((" \x0b\u2028", "joy"), "empty text", id="whitespace-text"),
        pytest.param(("fine\udcff", "joy"), "not valid UTF-8", id="surrogate-in-text"),
        pytest.param(("fine", "jo\ud800y"), "not valid UTF-8", id="surrogate-in-label"),
    ],
)
def test_save_tsv_rejects_a_record_load_corpus_would_reject(tmp_path, record, error):
    path = tmp_path / "x.tsv"
    with pytest.raises(DataError, match=re.escape(f"{path} record 2: {error}")):
        save_corpus_tsv(LabeledCorpus((("fine", "joy"), record)), path)
    assert not path.exists()


#: Pieces of corpus files: labels, texts, separators, line ends, quotes, a
#: csv header, a BOM, NUL, bytes that are not UTF-8 and an encoded surrogate.
CORPUS_PIECES = st.sampled_from(
    [b"joy", b"fear", b"so happy", b" ", b"\t", b",", b'"', b"\n", b"\r", b"\r\n",
     b"text,label\n", b"\xef\xbb\xbf", b"\x00", b"\xff", b"caf\xe9", b"caf\xc3\xa9", b"\xed\xa0\x80"]
)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus") / "corpus.txt"


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(
    fmt=st.sampled_from(["tsv", "csv"]),
    pieces=st.lists(st.one_of(CORPUS_PIECES, st.binary(max_size=3)), max_size=24),
)
def test_fuzz_load_corpus(corpus_path, fmt, pieces):
    # the one acceptable failure is DataError; anything else propagates
    corpus_path.write_bytes(b"".join(pieces))
    try:
        corpus = load_corpus(corpus_path, fmt, ISEAR)
    except DataError:
        return
    assert corpus.records and all(label in ISEAR.label_index for _, label in corpus.records)


def test_filter_labels():
    corpus = LabeledCorpus((("a", "joy"), ("b", "fear"), ("c", "joy")))
    kept = filter_labels(corpus, {"joy"})
    assert kept.labels() == ["joy", "joy"]
    assert kept.texts() == ["a", "c"]


# ------------------------------------------------------------- tokenization


def test_text_tokens_normalization():
    assert text_tokens("Hello, World!") == ["hello", "world"]
    assert text_tokens("  spaced\tout \n lines ") == ["spaced", "out", "lines"]
    # punctuation is stripped from edges only; inner punctuation survives
    assert text_tokens("don't stop-me (now)") == ["don't", "stop-me", "now"]
    # unicode punctuation classes count too
    assert text_tokens("«quoted» — dash…") == ["quoted", "dash"]
    assert text_tokens("!!! ... ???") == []
    assert text_tokens("MiXeD CaSe") == ["mixed", "case"]
    # punctuation on one edge only
    assert text_tokens("wait, (what 5% 'tis") == ["wait", "what", "5", "tis"]
    # non-ASCII letters and digits are token characters on either edge;
    # symbols that are not punctuation stay
    assert text_tokens("¡Olé! Naïve 日本語。 ٣٤ x² $5 Ünï…") == [
        "olé", "naïve", "日本語", "٣٤", "x²", "$5", "ünï"
    ]


def test_no_alphanumeric_character_is_punctuation():
    # text_tokens keeps a token with alphanumeric edges as it is, without
    # the punctuation strip; that is exact only if this holds
    clash = [
        hex(cp)
        for cp in range(sys.maxunicode + 1)
        if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")
    ]
    assert clash == []


def test_vocab_ordering_and_reserved_ids():
    corpus = LabeledCorpus(
        (
            ("b b b a a c", "joy"),
            ("a c d", "fear"),
        )
    )
    vocab = build_vocab(corpus)
    # freq: a=3, b=3, c=2, d=1 -> ties broken lexicographically
    assert vocab.tokens == ("a", "b", "c", "d")
    assert vocab.lookup("a") == 2
    assert vocab.lookup("b") == 3
    assert vocab.lookup("zzz") == UNK_ID
    assert vocab.size == 6
    # real tokens take ids 2.., so the padding and unknown ids stay reserved
    assert [vocab.lookup(token) for token in vocab.tokens] == list(range(2, vocab.size))


def test_build_vocab_of_an_all_punctuation_corpus_raises():
    corpus = LabeledCorpus((("... !!", "joy"), ("«» ?", "sadness")))
    with pytest.raises(DataError, match="^no token survives cleaning"):
        build_vocab(corpus)


def test_encode_text_truncation_and_padding():
    corpus = LabeledCorpus((("a b c d e", "joy"),))
    vocab = build_vocab(corpus)
    row = encode_text("c a x", vocab, max_len=6)
    assert row.dtype == np.int64
    assert row.tolist() == [vocab.lookup("c"), vocab.lookup("a"), UNK_ID, 0, 0, 0]
    long = encode_text("a b c d e", vocab, max_len=3)
    assert long.tolist() == [vocab.lookup("a"), vocab.lookup("b"), vocab.lookup("c")]


def test_vocabulary_rejects_repeated_tokens():
    with pytest.raises(DataError, match=r"distinct; repeated: \['x'\]"):
        Vocabulary(tokens=("x", "y", "x"))


@pytest.mark.parametrize("token", ["Hello", "!!", "x.", "(x", "a b", " x", "x\t", "", "\x1c"])
def test_vocabulary_rejects_tokens_tokenization_changes(token):
    with pytest.raises(DataError, match="own tokenization; not: "):
        Vocabulary(tokens=("ok", token))


def test_vocabulary_keeps_tokens_that_are_their_own_tokenization():
    tokens = ("don't", "stop-me", "x²", "$5", "日本語", "٣٤", "naïve")
    assert Vocabulary(tokens=tokens).tokens == tokens


# letters, digits, Unicode (İ and Σ lowercase in context), edge punctuation,
# symbols and whitespace, including characters str.split treats as spaces
TEXT_ALPHABET = "abcABC019éÜİΣßς日٣x²$5+'-.,!?…«»¡() \t\n\x1c\u3000"
texts = st.text(alphabet=TEXT_ALPHABET, max_size=40)


@settings(max_examples=300, deadline=None)
@given(corpus_texts=st.lists(texts, min_size=1, max_size=6), text=texts,
       max_len=st.integers(1, 12))
def test_encode_text_equals_looking_up_text_tokens(corpus_texts, text, max_len):
    vocab = build_vocab(LabeledCorpus(tuple((t + " x", "joy") for t in corpus_texts)))
    for probe in corpus_texts + [text]:
        ids = [vocab.lookup(token) for token in text_tokens(probe)][:max_len]
        expected = ids + [0] * (max_len - len(ids))
        assert encode_text(probe, vocab, max_len).tolist() == expected


@settings(max_examples=300, deadline=None)
@given(corpus_texts=st.lists(texts, min_size=1, max_size=8))
def test_build_vocab_equals_counting_text_tokens(corpus_texts):
    counts = Counter(token for text in corpus_texts for token in text_tokens(text))
    expected = sorted(counts, key=lambda tok: (-counts[tok], tok))
    corpus = LabeledCorpus(tuple((text, "joy") for text in corpus_texts))
    if not expected:
        with pytest.raises(DataError, match="no token survives cleaning"):
            build_vocab(corpus)
        return
    vocab = build_vocab(corpus)
    assert vocab.tokens == tuple(expected)


def test_encode_corpus_rejects_vanishing_text():
    corpus = LabeledCorpus((("a b", "joy"), ("...", "fear")))
    vocab = build_vocab(LabeledCorpus((("a b", "joy"),)))
    with pytest.raises(DataError, match="record 2"):
        encode_corpus(corpus, vocab, max_len=4)


def test_encode_corpus_names_the_first_of_several_vanishing_records():
    corpus = LabeledCorpus(
        (("a b", "joy"), ("b", "joy"), ("...", "fear"), ("!! ?", "joy"), ("«»", "joy"))
    )
    vocab = build_vocab(LabeledCorpus((("a b", "joy"),)))
    with pytest.raises(DataError, match=r"^record 3: no tokens survive normalization: '\.\.\.'$"):
        encode_corpus(corpus, vocab, max_len=4)


@settings(max_examples=300, deadline=None)
@given(vocab_texts=st.lists(texts, min_size=1, max_size=6),
       corpus_texts=st.lists(texts, min_size=1, max_size=8), max_len=st.integers(1, 12))
# İ lowercases to two characters, Σ to σ or ς by context, \x1c and \u3000
# split like spaces, and "unseen" and "οδοσ" are unknown; tokens that clean
# to nothing sit inside the max_len window (records 3 and 4) and beyond it
# (record 4)
@example(vocab_texts=["İstanbul ΟΔΟΣ σας x"],
         corpus_texts=["İSTANBUL οδοσ ΟΔΟΣ! ΣΑΣ", "x\x1cunseen\u3000x", "... x", "x !! x ... x"],
         max_len=2)
def test_encode_corpus_equals_stacked_encode_text(vocab_texts, corpus_texts, max_len):
    vocab = build_vocab(LabeledCorpus(tuple((t + " x", "joy") for t in vocab_texts)))
    corpus = LabeledCorpus(tuple((t, "joy") for t in corpus_texts))
    expected = []
    for text in corpus_texts:
        ids = [vocab.lookup(token) for token in text_tokens(text)][:max_len]
        expected.append(ids + [0] * (max_len - len(ids)))
    vanishing = [i for i, text in enumerate(corpus_texts) if not text_tokens(text)]
    if vanishing:
        with pytest.raises(DataError, match=rf"^record {vanishing[0] + 1}: "):
            encode_corpus(corpus, vocab, max_len)
        return
    matrix = encode_corpus(corpus, vocab, max_len)
    assert matrix.dtype == np.int64
    assert matrix.tolist() == expected
    assert np.array_equal(matrix, np.stack([encode_text(t, vocab, max_len) for t in corpus_texts]))


# words that are only punctuation, have punctuation on an edge, lowercase in
# context (a final Σ, İ to two characters) or are unlikely to be in a vocabulary
WORDS = st.one_of(
    st.sampled_from(["ΟΔΟΣ", "σας", "ΣΑΣ!", "İstanbul", "İ", "...", "!!", "«»", "(x)", "x.",
                     "¡Olé!", "unseen", "A", "b", "x"]),
    st.text(alphabet="abcABC019éÜİΣßς日٣x²$5+'-.,!?…«»¡()", min_size=1, max_size=6),
)
# whitespace that str.split knows, beyond space, tab and newline
SPACES = st.sampled_from([" ", "\t", "\n", "\x1c", "\u2028", "\u3000", "  "])
WORD_TEXTS = st.lists(st.tuples(WORDS, SPACES), max_size=14).map(
    lambda words: "".join(word + space for word, space in words)
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(train=st.lists(WORD_TEXTS, min_size=1, max_size=8), extra=st.lists(WORD_TEXTS, max_size=4),
       max_len=st.integers(1, 8))
# dropped tokens before the cut and misses, then a record that vanishes too
@example(train=["ΟΔΟΣ σας İstanbul x x", "x σας"],
         extra=["... !! ΟΔΟΣ\x1cunseen\u2028x «» σας x x x"], max_len=3)
@example(train=["ΟΔΟΣ σας İstanbul x x", "x σας"],
         extra=["... !! ΟΔΟΣ\x1cunseen\u2028x «» σας x x x", "!! ..."], max_len=3)
def test_corpus_paths_agree_with_the_per_text_definitions(train, extra, max_len):
    corpus = LabeledCorpus(tuple((text, "joy") for text in train))
    counts = Counter(token for text in train for token in text_tokens(text))
    expected = sorted(counts, key=lambda tok: (-counts[tok], tok))
    if not expected:
        with pytest.raises(DataError, match="no token survives cleaning"):
            build_vocab(corpus)
        return
    vocab = build_vocab(corpus)
    assert vocab.tokens == tuple(expected)

    # the cache: the distinct raw tokens once each, and integers
    splits = [text.lower().split() for text in train]
    raw, ids, lengths = corpus.tokenization
    assert raw == tuple(dict.fromkeys(token for split in splits for token in split))
    assert ids.dtype.kind == lengths.dtype.kind == "i"
    assert [raw[i] for i in ids.tolist()] == [token for split in splits for token in split]
    assert lengths.tolist() == [len(split) for split in splits]
    assert vars(corpus).keys() == {"records", "tokenization"}

    probe = LabeledCorpus(tuple((text, "joy") for text in train + extra))
    for target in (corpus, probe):
        vanishing = [i for i, (text, _) in enumerate(target.records) if not text_tokens(text)]
        if vanishing:
            i = vanishing[0]
            message = f"record {i + 1}: no tokens survive normalization: {target.records[i][0]!r}"
            with pytest.raises(DataError) as err:
                encode_corpus(target, vocab, max_len)
            assert str(err.value) == message
            continue
        matrix = encode_corpus(target, vocab, max_len)
        for row, (text, _) in zip(matrix.tolist(), target.records):
            assert row == encode_text(text, vocab, max_len).tolist()
        cached = target.tokenization
        again = encode_corpus(target, vocab, max_len)
        assert target.tokenization is cached
        assert np.array_equal(again, matrix)


# ------------------------------------------------------------------- splits


def make_corpus(per_label: dict[str, int]) -> LabeledCorpus:
    records = []
    i = 0
    for label, n in per_label.items():
        for _ in range(n):
            records.append((f"text {i}", label))
            i += 1
    return LabeledCorpus(tuple(records))


def test_split_is_stratified_and_exact():
    corpus = make_corpus({"joy": 100, "fear": 50})
    train, val, test = split_corpus(corpus, (0.8, 0.1, 0.1), seed=0)
    assert Counter(train.labels()) == {"joy": 80, "fear": 40}
    assert Counter(val.labels()) == {"joy": 10, "fear": 5}
    assert Counter(test.labels()) == {"joy": 10, "fear": 5}
    # no record lost or duplicated
    all_texts = sorted(train.texts() + val.texts() + test.texts())
    assert all_texts == sorted(corpus.texts())


def test_split_determinism_and_seed_sensitivity():
    corpus = make_corpus({"joy": 40, "fear": 40})
    a = split_corpus(corpus, seed=3)
    b = split_corpus(corpus, seed=3)
    c = split_corpus(corpus, seed=4)
    assert a[0].records == b[0].records
    assert a[2].records == b[2].records
    assert a[0].records != c[0].records


def test_split_preserves_within_split_order():
    corpus = make_corpus({"joy": 30})
    train, _, _ = split_corpus(corpus, seed=1)
    indices = [int(text.split()[1]) for text in train.texts()]
    assert indices == sorted(indices)


def test_split_tiny_label_goes_to_train(caplog):
    corpus = make_corpus({"joy": 20, "fear": 2})
    with caplog.at_level("WARNING"):
        train, val, test = split_corpus(corpus, (0.8, 0.1, 0.1), seed=0)
    assert Counter(train.labels())["fear"] == 2
    assert "fear" not in Counter(val.labels())
    assert "fear" not in Counter(test.labels())
    assert any("fear" in rec.message for rec in caplog.records)


def test_split_ratio_validation():
    corpus = make_corpus({"joy": 10})
    with pytest.raises(DataError, match="sum to 1"):
        split_corpus(corpus, (0.5, 0.2, 0.2))
    with pytest.raises(DataError):
        split_corpus(corpus, (1.1, -0.05, -0.05))
    nan, inf = float("nan"), float("inf")
    for ratios in ((nan, 0.5, 0.5), (0.5, nan, 0.5), (inf, 0.0, 0.0), (1.0, 0.0, -inf)):
        with pytest.raises(DataError, match=r"three numbers in \[0, 1\]"):
            split_corpus(corpus, ratios)


def test_largest_remainder_allocation():
    # 100 records at 80/10/10 must land exactly, label by label
    corpus = make_corpus({"joy": 100})
    train, val, test = split_corpus(corpus, (0.8, 0.1, 0.1), seed=0)
    assert (len(train), len(val), len(test)) == (80, 10, 10)
    # an awkward count still conserves records
    corpus = make_corpus({"joy": 7})
    train, val, test = split_corpus(corpus, (0.34, 0.33, 0.33), seed=0)
    assert len(train) + len(val) + len(test) == 7


# ---------------------------------------------------------------- synthetic


def test_marker_and_neighbor_helpers():
    assert marker_token(ISEAR, "sadness") == "cue0"
    assert marker_token(ISEAR, "joy") == "cue6"
    # scale ends have one nearest neighbor, interior ranks two
    assert nearest_neighbor_labels(ISEAR, "sadness") == ["shame"]
    assert nearest_neighbor_labels(ISEAR, "anger") == ["shame", "guilt"]
    # grid neighbors are the minimal-distance cells, in label order
    grief_nb = nearest_neighbor_labels(GRID, "grief")
    assert grief_nb == ["sadness", "remorse"]


def test_generate_synthetic_shape_and_determinism():
    spec = SyntheticSpec(taxonomy=ISEAR, examples_per_class=5, sequence_length=8, seed=2)
    corpus = generate_synthetic(spec)
    assert len(corpus) == 5 * 7
    assert Counter(corpus.labels()) == {label: 5 for label in ISEAR.labels}
    assert all(len(text.split()) == 8 for text in corpus.texts())
    again = generate_synthetic(spec)
    assert corpus.records == again.records
    other = generate_synthetic(
        SyntheticSpec(taxonomy=ISEAR, examples_per_class=5, sequence_length=8, seed=3)
    )
    assert corpus.records != other.records


def test_generate_synthetic_token_statistics():
    spec = SyntheticSpec(
        taxonomy=ISEAR,
        examples_per_class=300,
        p_signal=0.4,
        p_confuse=0.25,
        sequence_length=20,
        seed=0,
    )
    corpus = generate_synthetic(spec)
    own = confused = filler = 0
    for text, label in corpus.records:
        mine = marker_token(ISEAR, label)
        neighbors = {marker_token(ISEAR, nb) for nb in nearest_neighbor_labels(ISEAR, label)}
        for token in text.split():
            if token == mine:
                own += 1
            elif token in neighbors:
                confused += 1
            elif token.startswith("fill"):
                filler += 1
            else:  # a marker of a non-neighbor class must never appear
                raise AssertionError(f"stray token {token} for label {label}")
    total = own + confused + filler
    signal_rate = (own + confused) / total
    confuse_rate = confused / (own + confused)
    assert abs(signal_rate - 0.4) < 0.02
    assert abs(confuse_rate - 0.25) < 0.02


def test_pure_signal_texts_contain_only_own_marker():
    spec = SyntheticSpec(
        taxonomy=ISEAR, examples_per_class=10, p_signal=1.0, p_confuse=0.0,
        sequence_length=6, seed=1,
    )
    corpus = generate_synthetic(spec)
    for text, label in corpus.records:
        assert set(text.split()) == {marker_token(ISEAR, label)}


def test_markers_survive_tokenization():
    spec = SyntheticSpec(taxonomy=GRID, examples_per_class=2, sequence_length=10, seed=0)
    corpus = generate_synthetic(spec)
    for text in corpus.texts():
        assert text_tokens(text) == text.split()


def test_spec_validation():
    with pytest.raises(DataError):
        SyntheticSpec(taxonomy=ISEAR, p_signal=0.0)
    with pytest.raises(DataError):
        SyntheticSpec(taxonomy=ISEAR, p_confuse=1.0)
    with pytest.raises(DataError):
        SyntheticSpec(taxonomy=ISEAR, examples_per_class=0)



@pytest.mark.parametrize(
    "name, value, match",
    [("p_signal", True, "p_signal must be a number"),
     ("seed", 1.5, "seed must be an integer"),
     ("examples_per_class", "3", "examples_per_class must be an integer"),
     ("taxonomy", "isear-valence", "taxonomy must be an EmotionTaxonomy, got str")],
    ids=["bool-p_signal", "float-seed", "str-examples_per_class", "str-taxonomy"],
)
def test_spec_fields_are_checked_for_kind(name, value, match):
    # built from Python, a spec checks each field as its document reader does
    with pytest.raises(DataError, match=f"^{match}$"):
        SyntheticSpec(**{"taxonomy": ISEAR, name: value})


def test_spec_takes_an_integer_probability_as_a_float():
    spec = SyntheticSpec(taxonomy=ISEAR, p_signal=1)
    assert type(spec.p_signal) is float and spec.p_signal == 1.0

def test_spec_document_roundtrip(tmp_path):
    spec = SyntheticSpec(
        taxonomy=ISEAR, examples_per_class=7, p_signal=0.5, p_confuse=0.1,
        sequence_length=12, seed=9, filler_tokens=4,
    )
    doc = {
        "format": "emord.synth/1",
        "taxonomy": "isear-valence",
        "examples_per_class": 7,
        "p_signal": 0.5,
        "p_confuse": 0.1,
        "sequence_length": 12,
        "seed": 9,
        "filler_tokens": 4,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_synthetic_spec(path)
    assert loaded == spec
    assert generate_synthetic(loaded).records == generate_synthetic(spec).records


def test_spec_loading_is_strict(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"taxonomy": "isear-valence", "typo_field": 3}', encoding="utf-8")
    with pytest.raises(DataError, match="typo_field"):
        load_synthetic_spec(path)
    path.write_text('{"examples_per_class": 5}', encoding="utf-8")
    with pytest.raises(DataError, match="taxonomy"):
        load_synthetic_spec(path)
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(DataError, match="JSON"):
        load_synthetic_spec(path)
    path.write_bytes(b'{"taxonomy": "isear-valence\xff"}')
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: .*utf-8"):
        load_synthetic_spec(path)
    path.write_text('{"taxonomy": "isear-valence", "seed": 1.5}', encoding="utf-8")
    with pytest.raises(DataError, match="integer"):
        load_synthetic_spec(path)


@pytest.mark.parametrize(
    "member, match",
    [('"p_signal": 1' + "0" * 400, "p_signal is too large for a float"),
     ('"seed": null', "seed must not be null"),
     ('"sequence_length": [12]', "sequence_length must be an integer"),
     ('"taxonomy": 7', "taxonomy must be a string")],
    ids=["huge-p_signal", "null-seed", "list-sequence_length", "int-taxonomy"],
)
def test_spec_member_errors_name_the_file_and_the_member(tmp_path, member, match):
    path = tmp_path / "spec.json"
    path.write_text('{"taxonomy": "isear-valence", ' + member + "}", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {match}$"):
        load_synthetic_spec(path)


def test_spec_rejects_negative_seed(tmp_path):
    with pytest.raises(DataError, match="seed must be non-negative, got -2"):
        SyntheticSpec(taxonomy=ISEAR, seed=-2)
    path = tmp_path / "spec.json"
    path.write_text('{"taxonomy": "isear-valence", "seed": -2}', encoding="utf-8")
    with pytest.raises(DataError, match="seed must be non-negative"):
        load_synthetic_spec(path)


def test_resolve_taxonomy_builtin_and_path(tmp_path):
    assert resolve_taxonomy("isear-valence").labels == ISEAR.labels
    from emord.taxonomy import save_taxonomy

    path = tmp_path / "custom.json"
    save_taxonomy(ISEAR, path)
    assert resolve_taxonomy(str(path)).labels == ISEAR.labels
    # relative reference resolves against the given directory
    assert resolve_taxonomy("custom.json", relative_to=tmp_path).labels == ISEAR.labels
    with pytest.raises(DataError, match="neither"):
        resolve_taxonomy("no-such-taxonomy")
    # a directory is not a taxonomy file
    with pytest.raises(DataError, match="neither"):
        resolve_taxonomy(".", relative_to=tmp_path)
