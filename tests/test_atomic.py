"""Artifact writers go through one temp-file + os.replace helper: a write that
fails part-way leaves no partial file under the final name."""

import json

import numpy as np
import pytest

from emord.atomic import atomic_write
from emord.checkpoint import save_checkpoint
from emord.cli import write_manifest
from emord.data import DataError, LabeledCorpus, save_corpus_tsv
from emord.metrics import EvalResult, build_report, write_pairs_csv, write_report_json
from emord.taxonomy import builtin_taxonomy
from emord.trainer import EpochStats, write_history
from test_checkpoint import make_checkpoint


def test_atomic_write_replaces_only_on_success(tmp_path):
    path = tmp_path / "out.txt"
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write("first\n")
    assert path.read_text(encoding="utf-8") == "first\n"
    with pytest.raises(RuntimeError, match="stop"):
        with atomic_write(path, encoding="utf-8") as fh:
            fh.write("second, half")
            fh.flush()
            assert path.read_text(encoding="utf-8") == "first\n"
            raise RuntimeError("stop")
    assert path.read_text(encoding="utf-8") == "first\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


class _Unserializable:
    pass


class _BadReport:
    def to_dict(self):
        # json.dump writes "a" before it reaches the value it cannot encode
        return {"a": 1, "b": _Unserializable()}


class _BadStats(EpochStats):
    def to_dict(self):
        raise RuntimeError("stats lost")


def _write_pairs_past_the_labels(path):
    # the header is written by then; the rows fail on an index past the labels
    report = build_report(np.array([0]), np.array([0]), builtin_taxonomy("isear-valence"), "softmax")
    write_pairs_csv(EvalResult(report, np.array([0, 99]), np.array([0, 0])), path)


def _stats(epoch, cls=EpochStats):
    return cls(epoch, 0.5, 0.5, 0.5, 1.0, 1.0, 0.0)


def _fail_after_the_header(*args, **kwargs):
    raise OSError("disk full")


WRITERS = {
    "report.json": (lambda path: write_report_json(_BadReport(), path), TypeError),
    "pairs.csv": (_write_pairs_past_the_labels, IndexError),
    "history.jsonl": (
        lambda path: write_history([_stats(1), _stats(2, _BadStats)], path),
        RuntimeError,
    ),
    "corpus.tsv": (
        lambda path: save_corpus_tsv(LabeledCorpus((("fine", "joy"), ("a\ttab", "joy"))), path),
        DataError,
    ),
    "manifest.json": (
        lambda path: write_manifest(path.parent, "eval", {"x": _Unserializable()}, {}, []),
        TypeError,
    ),
    "model.ckpt": (lambda path: save_checkpoint(make_checkpoint(), path), OSError),
}


@pytest.mark.parametrize("existed", [False, True], ids=["new", "overwrite"])
@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, name, existed):
    write, error = WRITERS[name]
    if name == "model.ckpt":
        # the header is written by then; the arenas never are
        monkeypatch.setattr(np, "ascontiguousarray", _fail_after_the_header)
    path = tmp_path / name
    if existed:
        path.write_bytes(b"earlier complete contents\n")
    with pytest.raises(error):
        write(path)
    assert [p.name for p in tmp_path.iterdir()] == ([name] if existed else [])
    if existed:
        assert path.read_bytes() == b"earlier complete contents\n"


def test_writers_replace_earlier_files(tmp_path):
    path = tmp_path / "history.jsonl"
    path.write_text("stale\n" * 10, encoding="utf-8")
    write_history([_stats(1)], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["epoch"] for line in lines] == [1]
    assert [p.name for p in tmp_path.iterdir()] == ["history.jsonl"]
