"""Print one sha256 per train, eval and predict artifact of a fixed run matrix.

Two checkouts that should produce byte-identical artifacts are compared with
one diff of this script's output:

    python3 tools/identity.py --out /tmp/id-old > old.txt   # in one checkout
    python3 tools/identity.py --out /tmp/id-new > new.txt   # in the other
    diff old.txt new.txt

The matrix: softmax and ordinal-1d heads on isear-valence and an
ordinal-2d head on the 5x5 grid, each trained on generated texts of 1-40
tokens with upper case and punctuation, then evaluated and fed to `emord
predict` on stdin with texts that also hold tokens the training corpus never
saw.  The ordinal-2d model is also evaluated with `emord eval
--holdout-label` on the test texts of HOLDOUT_LABEL, into holdout/.  One
more case serves the ordinal-2d model with a biased head, written
here with save_checkpoint: its valence outputs are pushed to level 2 and its
arousal outputs to level 1 or 2, split at the median test text, so that
about half the eval and predict rows decode to the unlabeled cell (2, 1)
and go off-grid.  A last case goes through the two JSON documents a user
writes: `emord synth --spec` writes a grid corpus, and `emord train
--config` trains a softmax head on it with layers wider than desk, `split`
and `loss_weights` as lists and `weight_decay` written as a JSON integer.
The commands run as
`python3 -m emord.cli` on this checkout's src/, with absolute paths, so the
output directory appears in each manifest.json; it is masked there before
hashing.  A checkpoint's recipe names no data directory, so checkpoints are
hashed as written.  The documents case's train config names its corpus
relative to the case directory, where that `train` runs, so the config holds
no directory.  After each checkpoint's digest comes one line saying whether
`load_checkpoint` then `save_checkpoint` writes its bytes again, which guards
the recipe's round trip (the documents case's JSON integers included).
A checkout without this file can run a copy of it.

Digests depend on the BLAS kernel numpy uses, so compare two checkouts on
one machine and pin no digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from emord.checkpoint import load_checkpoint, save_checkpoint  # noqa: E402
from emord.infer import predict_text  # noqa: E402
from emord.taxonomy import builtin_taxonomy  # noqa: E402

#: (head mode, taxonomy) pairs, each trained, evaluated and served once.
MATRIX = (
    ("softmax", "isear-valence"),
    ("ordinal-1d", "isear-valence"),
    ("ordinal-2d", "goemotions-grid-5x5"),
)
#: Added to the ordinal-2d head's biases: four valence entries, then four
#: arousal entries (thermometer codes: + pushes an entry toward 1, - toward
#: 0).  The arousal entry SPLIT gets the bias that puts the median test
#: text's output at 0.5 instead.
HEAD_BIAS = (4.0, 4.0, -4.0, -4.0, 4.0, 0.0, -4.0, -4.0)
SPLIT = 5
#: The label whose ordinal-2d test texts get a holdout-proximity report.
HOLDOUT_LABEL = "surprise"
FILLERS = tuple(f"word{j}" for j in range(24))
PUNCTUATION = ",.!?;:"
MAX_TOKENS = 40
EPOCHS = 2
#: The documents case: its spec (examples_per_class is --per-label) and its
#: train config, which names the corpus relative to the case directory.
GRID = "goemotions-grid-5x5"
SPEC = {
    "format": "emord.synth/1", "taxonomy": GRID, "p_signal": 0.6, "p_confuse": 0.2,
    "sequence_length": 16, "seed": 5, "filler_tokens": 12,
}
TRAIN_CONFIG = {
    "format": "emord.train/1", "mode": "softmax", "taxonomy": GRID,
    "corpus": "synth/corpus.tsv", "epochs": EPOCHS, "max_seq_length": MAX_TOKENS, "seed": 0,
    "split": [0.7, 0.15, 0.15], "loss_weights": [1, 0.5], "weight_decay": 0,
    "conv_channels": [48, 80], "ffnn_hidden": [96, 48],
}


def text_for(rng: random.Random, label_index: int, unseen: bool) -> str:
    """1-40 tokens: the label's cue, fillers, and (if `unseen`) tokens no training text holds."""
    tokens = []
    for _ in range(rng.randint(1, MAX_TOKENS)):
        draw = rng.random()
        if draw < 0.3:
            token = f"cue{label_index}"
        elif unseen and draw < 0.45:
            token = f"unseen{rng.randrange(50)}"
        else:
            token = rng.choice(FILLERS)
        style = rng.random()
        if style < 0.15:
            token = token.upper()
        elif style < 0.3:
            token = token.capitalize()
        elif style < 0.35:
            token = f"({token})"
        if rng.random() < 0.2:
            token += rng.choice(PUNCTUATION)
        tokens.append(token)
    return " ".join(tokens)


def write_corpus(path: Path, labels, per_label: int, rng: random.Random, unseen: bool) -> list[str]:
    """A tsv corpus of `per_label` texts per label, labels interleaved; returns the texts."""
    records = [
        (text_for(rng, i, unseen), label) for _ in range(per_label) for i, label in enumerate(labels)
    ]
    path.write_text("".join(f"{text}\t{label}\n" for text, label in records), encoding="utf-8")
    return [text for text, _ in records]


def emord(*argv: str, stdin=None, stdout=None, cwd=None) -> None:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "emord.cli", "-q", *argv]
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(command, env=env, stdin=stdin, stdout=stdout, cwd=cwd)
    if run.returncode != 0:
        raise SystemExit(f"failed: emord {' '.join(argv)}")


def run_case(case: Path, mode: str, taxonomy: str, per_label: int) -> None:
    case.mkdir()
    labels = builtin_taxonomy(taxonomy).labels
    rng = random.Random(f"{mode} {taxonomy}")
    write_corpus(case / "train.tsv", labels, per_label, rng, unseen=False)
    texts = write_corpus(case / "test.tsv", labels, max(1, per_label // 2), rng, unseen=True)
    (case / "predict.txt").write_text("".join(f"{text}\n" for text in texts), encoding="utf-8")
    emord(
        "train", "--mode", mode, "--taxonomy", taxonomy, "--corpus", str(case / "train.tsv"),
        "--epochs", str(EPOCHS), "--max-seq-length", str(MAX_TOKENS), "--seed", "0",
        "--out", str(case / "train"),
    )
    serve(case, case / "train" / "best.ckpt", case)
    if mode == "ordinal-2d":
        serve_holdout(case, case / "train" / "best.ckpt")


def serve_holdout(case: Path, checkpoint: Path) -> None:
    """`emord eval --holdout-label HOLDOUT_LABEL` on case/test.tsv's texts of that label."""
    rows = (case / "test.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    held = [row for row in rows if row.rstrip("\n").split("\t")[1] == HOLDOUT_LABEL]
    (case / "holdout.tsv").write_text("".join(held), encoding="utf-8")
    emord(
        "eval", "--checkpoint", str(checkpoint), "--corpus", str(case / "holdout.tsv"),
        "--holdout-label", HOLDOUT_LABEL, "--out", str(case / "holdout"),
    )


def run_documents_case(case: Path, per_label: int) -> None:
    """`emord synth --spec`, then `emord train --config`, then serve the model."""
    case.mkdir()
    (case / "spec.json").write_text(json.dumps({**SPEC, "examples_per_class": per_label}), encoding="utf-8")
    emord("synth", "--spec", str(case / "spec.json"), "--out", str(case / "synth"))
    (case / "train.json").write_text(json.dumps(TRAIN_CONFIG), encoding="utf-8")
    emord("train", "--config", "train.json", "--out", "train", cwd=case)
    rng = random.Random("documents")
    texts = write_corpus(case / "test.tsv", builtin_taxonomy(GRID).labels, max(1, per_label // 2), rng, unseen=True)
    (case / "predict.txt").write_text("".join(f"{text}\n" for text in texts), encoding="utf-8")
    serve(case, case / "train" / "best.ckpt", case)


def serve(case: Path, checkpoint: Path, inputs: Path) -> None:
    """`emord eval` on inputs/test.tsv and `emord predict` on inputs/predict.txt, into `case`."""
    emord("eval", "--checkpoint", str(checkpoint), "--corpus", str(inputs / "test.tsv"), "--out", str(case / "eval"))
    with open(inputs / "predict.txt", "rb") as stdin, open(case / "predict.jsonl", "wb") as stdout:
        emord("predict", "--checkpoint", str(checkpoint), stdin=stdin, stdout=stdout)


def run_biased_case(case: Path, source: Path) -> None:
    """Serve `source`'s ordinal-2d model with HEAD_BIAS added to its head's biases."""
    case.mkdir()
    ck = load_checkpoint(source / "train" / "best.ckpt")
    texts = (source / "predict.txt").read_text(encoding="utf-8").splitlines()
    median = float(np.median([predict_text(ck, text).outputs[SPLIT] for text in texts]))
    bias = np.array(HEAD_BIAS)
    bias[SPLIT] = -np.log(median / (1.0 - median))  # the logit of the median, negated
    params = ck.params.copy()
    params.fc3_b[...] += bias.astype(params.fc3_b.dtype)
    ck.params = params
    save_checkpoint(ck, case / "biased.ckpt")
    serve(case, case / "biased.ckpt", source)


def resaves_equal(path: Path) -> bool:
    """Whether save_checkpoint(load_checkpoint(path)) writes `path`'s bytes again."""
    with tempfile.TemporaryDirectory() as scratch:
        resaved = Path(scratch) / path.name
        save_checkpoint(load_checkpoint(path), resaved)
        return resaved.read_bytes() == path.read_bytes()


def digests(out: Path) -> list[str]:
    """`sha256  path` for every file under `out`, with `out` masked in each
    manifest, and after each checkpoint's line whether it resaves byte for byte."""
    masked = json.dumps(str(out))[1:-1].encode("utf-8")  # as json.dump writes it
    lines = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        name = path.relative_to(out).as_posix()
        if path.name == "manifest.json":
            data = data.replace(masked, b"$OUT")
        lines.append(f"{hashlib.sha256(data).hexdigest()}  {name}")
        if path.suffix == ".ckpt":
            lines.append(f"resave {'equal' if resaves_equal(path) else 'differs'}  {name}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path, help="new directory for inputs and artifacts")
    parser.add_argument("--per-label", type=int, default=24, help="training texts per label (default 24)")
    args = parser.parse_args(argv)
    out = args.out.resolve()
    out.mkdir(parents=True)  # an existing directory could hold stale artifacts
    for mode, taxonomy in MATRIX:
        run_case(out / mode, mode, taxonomy, args.per_label)
    run_biased_case(out / "ordinal-2d-biased", out / "ordinal-2d")
    run_documents_case(out / "softmax-grid-documents", args.per_label)
    print("\n".join(digests(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
