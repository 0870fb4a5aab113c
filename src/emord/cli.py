"""Command-line interface.

Subcommands: synth (generate a marker-token corpus), train, eval, predict,
gradcheck.  Conventions, kept strictly:

- Exit codes: 0 success, 1 invalid input or a failed check, 2 runtime
  failure (training divergence, locked output directory, I/O trouble, a
  model too large to allocate).
- Human-readable output goes to stderr; only `predict` writes data (JSON
  lines) to stdout, so pipelines stay clean.
- Commands that produce artifacts take --out DIR, hold a .lock file there
  for the duration of the run, and write manifest.json before any artifact
  — a timestamp-free snapshot of the resolved configuration and input
  hashes, so reruns can be compared file-by-file.  eval computes its report
  first, so a failed eval writes no manifest.
- For train, values resolve as: command-line flags over config-file values
  over preset defaults.  Every TrainConfig field has one flag,
  --field-name, generated from its kind in `_CONFIG_KINDS`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import socket
import sys
import typing
from pathlib import Path

from . import __version__
from .atomic import atomic_write
from .checkpoint import load_checkpoint, save_checkpoint, taxonomy_fingerprint
from .codec import HEAD_MODES
from .data import (
    CORPUS_FORMATS,
    check_utf8,
    generate_synthetic,
    load_corpus,
    load_synthetic_spec,
    save_corpus_tsv,
)
from .gradcheck import check_gradients
from .hashing import sha256_file
from .infer import predict_text
from .metrics import (
    evaluate,
    holdout_proximity,
    write_confusion_csv,
    write_histogram_csv,
    write_pairs_csv,
    write_report_json,
)
from .taxonomy import save_taxonomy
from .trainer import (
    _CONFIG_KINDS,
    PRESETS,
    Trainer,
    TrainingDivergedError,
    load_train_config_file,
    resolve_train_config,
    write_history,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2

MANIFEST_FORMAT = "emord.manifest/1"

logger = logging.getLogger("emord")

#: How `emord train --help` presents a TrainConfig field's flag, beyond the
#: name, type and arity its kind gives: help, choices and metavar.
_TRAIN_FLAGS = {
    "mode": {"choices": list(HEAD_MODES), "help": "head mode"},
    "taxonomy": {"help": "builtin taxonomy name or JSON path"},
    "corpus": {"help": "labeled corpus file"},
    "corpus_format": {"choices": list(CORPUS_FORMATS)},
    "synthetic": {"help": "synthetic spec JSON file (instead of --corpus)"},
    "preset": {"choices": list(PRESETS), "help": "width/lr preset (default desk)"},
    "split": {"metavar": ("TRAIN", "VAL", "TEST")},
    "loss_weights": {
        "metavar": ("VALENCE", "AROUSAL"),
        "help": "per-head loss weights (ordinal-2d only)",
    },
}

#: What json.dumps(obj, sort_keys=True) builds on every call, built once.
_PREDICTION_JSON = json.JSONEncoder(sort_keys=True)


class LockError(RuntimeError):
    """The output directory is already claimed by another run."""


def _lock_holder(lock: Path) -> str:
    """What `lock` says of the run holding it, for the contention error."""
    try:
        text = lock.read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        return f"could not be read ({exc})"
    pid, _, host = text.strip().partition(" ")
    if not pid.isdigit() or not host:
        return f"names no holder (it holds {text!r})"
    return f"names pid {pid} on host {host}"


@contextlib.contextmanager
def locked_output_dir(path: str | Path):
    """Create DIR if needed and hold DIR/.lock exclusively for the run.

    The lock holds "pid host" of the run.  A lock that is already there is
    never broken: the error names its holder, and only a person who knows
    that run is gone should remove the file.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    lock = path / ".lock"
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise LockError(
            f"{path} is locked: {lock} {_lock_holder(lock)}; another run may be writing "
            f"there (remove the file only if that run is gone)"
        ) from None
    try:
        try:
            os.write(fd, f"{os.getpid()} {socket.gethostname()}\n".encode("utf-8"))
        finally:
            os.close(fd)
        yield path
    finally:
        lock.unlink(missing_ok=True)


def write_manifest(out_dir: Path, command: str, config: dict, inputs: dict, artifacts: list[str]) -> None:
    """Atomically write manifest.json before any artifact is produced."""
    manifest = {
        "format": MANIFEST_FORMAT,
        "tool_version": __version__,
        "command": command,
        "config": config,
        "inputs": inputs,
        "artifacts": artifacts,
    }
    with atomic_write(out_dir / "manifest.json", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_synth(args) -> int:
    spec_path = Path(args.spec)
    spec = load_synthetic_spec(spec_path)
    with locked_output_dir(args.out) as out_dir:
        write_manifest(
            out_dir,
            "synth",
            config=json.loads(spec_path.read_text(encoding="utf-8")),
            inputs={
                "spec_file": sha256_file(spec_path),
                "taxonomy": taxonomy_fingerprint(spec.taxonomy),
            },
            artifacts=["corpus.tsv", "taxonomy.json"],
        )
        corpus = generate_synthetic(spec)
        save_corpus_tsv(corpus, out_dir / "corpus.tsv")
        save_taxonomy(spec.taxonomy, out_dir / "taxonomy.json")
    logger.info("wrote %d records to %s", len(corpus), out_dir / "corpus.tsv")
    return EXIT_OK


def cmd_train(args) -> int:
    file_values = load_train_config_file(args.config) if args.config else {}
    config = resolve_train_config(file_values, {name: getattr(args, name) for name in _CONFIG_KINDS})
    inputs: dict = {}
    if config.corpus is not None:
        inputs["corpus"] = sha256_file(config.corpus)
    if config.synthetic is not None:
        inputs["synthetic_spec"] = sha256_file(config.synthetic)
    trainer = Trainer(config)
    inputs["taxonomy"] = taxonomy_fingerprint(trainer.taxonomy)
    artifacts = ["best.ckpt", "final.ckpt", "history.jsonl"]
    # the manifest is written after the run, so a run that diverges leaves
    # no manifest naming artifacts that were never written
    with locked_output_dir(args.out) as out_dir:
        result = trainer.run()
        write_manifest(out_dir, "train", config.to_document(), inputs, artifacts)
        save_checkpoint(result.best, out_dir / "best.ckpt")
        save_checkpoint(result.final, out_dir / "final.ckpt")
        write_history(result.history, out_dir / "history.jsonl")
    last = result.history[-1]
    logger.info(
        "done: %d epochs, best epoch %d; final val_acc=%.3f val_f1=%.3f",
        last.epoch,
        result.best_epoch,
        last.val_accuracy,
        last.val_macro_f1,
    )
    logger.info("artifacts in %s: %s", out_dir, ", ".join(artifacts))
    return EXIT_OK


def cmd_eval(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    corpus = load_corpus(args.corpus, args.corpus_format, ck.taxonomy)
    inputs = {
        "checkpoint": sha256_file(args.checkpoint),
        "corpus": sha256_file(args.corpus),
        "taxonomy": taxonomy_fingerprint(ck.taxonomy),
    }
    config = {
        "checkpoint": str(args.checkpoint),
        "corpus": str(args.corpus),
        "corpus_format": args.corpus_format,
        "holdout_label": args.holdout_label,
    }
    # the report is computed before the manifest is written, so an eval that
    # fails leaves no manifest naming artifacts that were never written
    with locked_output_dir(args.out) as out_dir:
        if args.holdout_label is not None:
            report = holdout_proximity(ck, corpus, args.holdout_label)
            write_manifest(out_dir, "eval", config, inputs, ["holdout.json"])
            write_report_json(report, out_dir / "holdout.json")
            logger.info(
                "holdout %r: mean grid distance %.3f over %d examples",
                report.label,
                report.mean_distance,
                report.n_examples,
            )
            return EXIT_OK
        result = evaluate(ck, corpus)
        artifacts = ["report.json", "confusion.csv", "histogram.csv", "pairs.csv"]
        write_manifest(out_dir, "eval", config, inputs, artifacts)
        write_report_json(result.report, out_dir / "report.json")
        write_confusion_csv(result.report, out_dir / "confusion.csv")
        write_histogram_csv(result.report, out_dir / "histogram.csv")
        write_pairs_csv(result, out_dir / "pairs.csv")
    rep = result.report
    logger.info(
        "n=%d accuracy=%.4f macro_f1=%.4f mean_error_distance=%.3f",
        rep.n_examples,
        rep.accuracy,
        rep.macro_f1,
        rep.mean_error_distance,
    )
    return EXIT_OK


def _stdin_texts():
    """stdin's lines as UTF-8, without their newlines.

    A strict error handler decodes a whole buffered chunk at once, so it
    would fail on a bad byte before the lines ahead of it are read.  Under
    surrogateescape each bad byte becomes a lone surrogate in its own line,
    which check_utf8 finds when that line's turn comes.  A stream without
    `reconfigure` (an io.StringIO) holds text already and is read as it is.
    """
    if hasattr(sys.stdin, "reconfigure"):
        sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
    for number, line in enumerate(sys.stdin, 1):
        check_utf8(line, f"stdin line {number}")
        yield line.rstrip("\n")


def cmd_predict(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    if args.text is None:
        texts = _stdin_texts()
    else:
        check_utf8(args.text, "--text")  # argv holds a bad byte as surrogateescape does
        texts = [args.text]
    for text in texts:
        if not text.strip():
            logger.error("empty input text")
            return EXIT_INVALID
        outcome = predict_text(ck, text)
        print(_PREDICTION_JSON.encode(outcome.to_dict()))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    # a check of no seed, or one whose tolerance the relative error (at most
    # 1) cannot exceed, would pass having checked nothing
    if args.num_seeds < 1:
        logger.error("--num-seeds must be at least 1, got %d", args.num_seeds)
        return EXIT_INVALID
    if not 0 < args.tolerance < 1:
        logger.error("--tolerance must be in (0, 1), got %r", args.tolerance)
        return EXIT_INVALID
    if args.seed < 0:
        logger.error("--seed must be non-negative, got %d", args.seed)
        return EXIT_INVALID
    modes = list(HEAD_MODES) if args.mode == "all" else [args.mode]
    all_passed = True
    for mode in modes:
        for seed in range(args.seed, args.seed + args.num_seeds):
            report = check_gradients(
                mode=mode,
                seed=seed,
                corrupt=args.corrupt,
                tolerance=args.tolerance,
            )
            print(report.format_text(), file=sys.stderr)
            all_passed = all_passed and report.passed
    if not all_passed:
        logger.error("gradient check FAILED")
        return EXIT_INVALID
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emord",
        description="Ordinal emotion classification from text: train and "
        "evaluate softmax vs thermometer-coded ordinal heads.",
    )
    parser.add_argument("--version", action="version", version=f"emord {__version__}")
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="only warnings and errors on stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_synth = sub.add_parser(
        "synth",
        help="generate a synthetic marker-token corpus from a spec file",
        description="Deterministically generate corpus.tsv (plus the resolved "
        "taxonomy.json) from a synthetic-spec JSON document.",
    )
    p_synth.add_argument("--spec", required=True, help="synthetic spec JSON file")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_train = sub.add_parser(
        "train",
        help="train a classifier and write checkpoints",
        description="Train on a corpus file or a synthetic spec. Values "
        "resolve as: flags over --config file over preset defaults. "
        "Writes best.ckpt (selected epoch), final.ckpt (resumable), "
        "history.jsonl, and manifest.json.",
    )
    p_train.add_argument("--config", help="training config JSON file")
    # one flag per TrainConfig field, typed by its kind; a flag not given
    # reads as None, which resolve_train_config takes as "not given"
    for name, kind in _CONFIG_KINDS.items():
        # `str | None` takes a str, `tuple[X, ...]` one X per entry
        entries = [arg for arg in typing.get_args(kind) if arg is not type(None)] or [kind]
        arity = {"nargs": len(entries)} if typing.get_origin(kind) is tuple else {}
        flag = "--" + name.replace("_", "-")
        p_train.add_argument(flag, dest=name, type=entries[0], **arity, **_TRAIN_FLAGS.get(name, {}))
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser(
        "eval",
        help="evaluate a checkpoint on a labeled corpus",
        description="Writes report.json, confusion.csv, histogram.csv, "
        "pairs.csv, and manifest.json. With --holdout-label, instead "
        "measures how close decoded grid cells land to a class the "
        "model never saw (writes holdout.json).",
    )
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--corpus", required=True)
    p_eval.add_argument(
        "--corpus-format", choices=list(CORPUS_FORMATS), default="tsv", dest="corpus_format"
    )
    p_eval.add_argument("--holdout-label", dest="holdout_label")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.set_defaults(func=cmd_eval)

    p_predict = sub.add_parser(
        "predict",
        help="classify text with a trained checkpoint",
        description="Prints one JSON object per input text to stdout. "
        "Reads lines from stdin when --text is not given.",
    )
    p_predict.add_argument("--checkpoint", required=True)
    p_predict.add_argument("--text", help="single text to classify")
    p_predict.set_defaults(func=cmd_predict)

    p_grad = sub.add_parser(
        "gradcheck",
        help="verify analytic gradients against finite differences",
        description="Compares every layer's analytic gradient with central "
        "finite differences on a tiny float64 model; exits 1 if any "
        "layer exceeds the tolerance.",
    )
    p_grad.add_argument("--mode", choices=["all", *HEAD_MODES], default="all")
    p_grad.add_argument("--seed", type=int, default=0, help="first seed")
    p_grad.add_argument("--num-seeds", type=int, default=1, dest="num_seeds")
    p_grad.add_argument("--tolerance", type=float, default=1e-4)
    p_grad.add_argument(
        "--corrupt",
        action="store_true",
        help="negative control: damage one gradient entry; the check must fail",
    )
    p_grad.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help/--version and 2 for usage problems;
        # usage problems are invalid input here.
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(message)s",
    )
    try:
        return args.func(args)
    except TrainingDivergedError as exc:
        logger.error("%s", exc)
        return EXIT_RUNTIME
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        logger.error("%s", exc)
        return EXIT_INVALID
    except ValueError as exc:
        logger.error("%s", exc)
        return EXIT_INVALID
    except (RuntimeError, OSError, MemoryError) as exc:
        logger.error("%s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
