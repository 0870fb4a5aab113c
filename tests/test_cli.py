"""Command-line behavior: pipelines, exit codes, locks, and manifests."""

import argparse
import csv
import io
import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import emord.cli as cli
from emord.checkpoint import Checkpoint, save_checkpoint
from emord.cli import (
    _TRAIN_FLAGS,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_RUNTIME,
    LockError,
    build_parser,
    main,
    run_record,
)
from emord.data import (
    LabeledCorpus,
    build_vocab,
    generate_synthetic,
    load_synthetic_spec,
    save_corpus_tsv,
)
from emord.net import init_params
from emord.recipe import _CONFIG_KINDS, TrainConfig
from emord.taxonomy import builtin_taxonomy, save_taxonomy

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "format": "emord.synth/1",
                "taxonomy": "isear-valence",
                "examples_per_class": 8,
                "p_signal": 0.8,
                "sequence_length": 12,
                "seed": 0,
            }
        ),
        encoding="utf-8",
    )
    return path


@pytest.fixture()
def train_config(tmp_path, spec_file):
    path = tmp_path / "train.json"
    path.write_text(
        json.dumps(
            {
                "format": "emord.train/1",
                "mode": "softmax",
                "synthetic": str(spec_file),
                "epochs": 2,
                "batch_size": 8,
                "learning_rate": 0.01,
                "max_seq_length": 12,
                "embed_dim": 8,
                "conv_channels": [8, 8],
                "kernel_sizes": [6, 4],
                "ffnn_hidden": [12, 8],
            }
        ),
        encoding="utf-8",
    )
    return path


def test_synth_train_eval_predict_pipeline(tmp_path, spec_file, train_config, capsys):
    synth_dir = tmp_path / "synth"
    assert main(["synth", "--spec", str(spec_file), "--out", str(synth_dir)]) == EXIT_OK
    corpus = synth_dir / "corpus.tsv"
    assert corpus.exists()
    assert (synth_dir / "taxonomy.json").exists()
    assert not (synth_dir / ".lock").exists()
    manifest = json.loads((synth_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["format"] == "emord.manifest/1"
    assert manifest["command"] == "synth"
    assert sorted(manifest["artifacts"]) == ["corpus.tsv", "taxonomy.json"]
    assert len(corpus.read_text(encoding="utf-8").splitlines()) == 8 * 7

    train_dir = tmp_path / "run"
    code = main(["train", "--config", str(train_config), "--out", str(train_dir)])
    assert code == EXIT_OK
    for name in ("best.ckpt", "final.ckpt", "history.jsonl", "manifest.json"):
        assert (train_dir / name).exists(), name
    assert not (train_dir / ".lock").exists()
    manifest = json.loads((train_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["mode"] == "softmax"
    assert manifest["config"]["epochs"] == 2
    assert "synthetic_spec" in manifest["inputs"]

    eval_dir = tmp_path / "scores"
    code = main(
        [
            "eval",
            "--checkpoint", str(train_dir / "best.ckpt"),
            "--corpus", str(corpus),
            "--out", str(eval_dir),
        ]
    )
    assert code == EXIT_OK
    for name in ("report.json", "confusion.csv", "histogram.csv", "pairs.csv"):
        assert (eval_dir / name).exists(), name
    report = json.loads((eval_dir / "report.json").read_text(encoding="utf-8"))
    assert report["n_examples"] == 56
    assert 0.0 <= report["accuracy"] <= 1.0

    capsys.readouterr()  # drop anything buffered so far
    code = main(
        ["predict", "--checkpoint", str(train_dir / "best.ckpt"), "--text", "cue6 cue6 fill0"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["mode"] == "softmax"
    assert "label" in payload and "rank" in payload


def test_train_flag_overrides_config_file(tmp_path, train_config):
    train_dir = tmp_path / "run"
    code = main(
        [
            "train",
            "--config", str(train_config),
            "--epochs", "1",
            "--seed", "3",
            "--out", str(train_dir),
        ]
    )
    assert code == EXIT_OK
    manifest = json.loads((train_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["epochs"] == 1  # flag beat the file's 2
    assert manifest["config"]["seed"] == 3
    assert manifest["config"]["learning_rate"] == 0.01  # file value survived


def test_commands_keep_stdout_clean(tmp_path, spec_file, train_config, capsys):
    capsys.readouterr()
    assert main(["synth", "--spec", str(spec_file), "--out", str(tmp_path / "s")]) == EXIT_OK
    assert main(["train", "--config", str(train_config), "--out", str(tmp_path / "t")]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_predict_reads_stdin(tmp_path, spec_file, train_config, capsys, monkeypatch):
    train_dir = tmp_path / "run"
    assert main(["train", "--config", str(train_config), "--out", str(train_dir)]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO("cue6 fill0 fill1\ncue0 fill2\n"))
    code = main(["predict", "--checkpoint", str(train_dir / "best.ckpt")])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        json.loads(line)


def test_lock_contention_exits_2(tmp_path, spec_file):
    out = tmp_path / "busy"
    out.mkdir()
    (out / ".lock").touch()
    code = main(["synth", "--spec", str(spec_file), "--out", str(out)])
    assert code == EXIT_RUNTIME
    # the pre-existing lock is left alone
    assert (out / ".lock").exists()


def test_a_manifest_survives_lock_contention(tmp_path, spec_file):
    # the manifest of a finished run is removed only by a run that holds the lock
    out = tmp_path / "busy"
    out.mkdir()
    (out / ".lock").touch()
    (out / "manifest.json").write_text("{}\n", encoding="utf-8")
    assert main(["synth", "--spec", str(spec_file), "--out", str(out)]) == EXIT_RUNTIME
    assert (out / "manifest.json").read_text(encoding="utf-8") == "{}\n"


def test_synth_that_fails_writing_an_artifact_leaves_no_manifest(tmp_path, spec_file):
    out = tmp_path / "o"
    (out / "corpus.tsv").mkdir(parents=True)  # so corpus.tsv cannot be written
    assert main(["synth", "--spec", str(spec_file), "--out", str(out)]) == EXIT_INVALID
    assert sorted(p.name for p in out.iterdir()) == ["corpus.tsv"]


def command_argvs(tmp_path, spec_file, train_config):
    """Each artifact-writing command as argv without --out, the inputs made."""
    assert main(["synth", "--spec", str(spec_file), "--out", str(tmp_path / "synth")]) == EXIT_OK
    assert main(["train", "--config", str(train_config), "--out", str(tmp_path / "train")]) == EXIT_OK
    grid = grid_checkpoint(tmp_path / "grid.ckpt")
    joy = tmp_path / "joy.tsv"
    save_corpus_tsv(LabeledCorpus((("alpha beta", "joy"),)), joy)
    trained, corpus = tmp_path / "train" / "best.ckpt", tmp_path / "synth" / "corpus.tsv"
    return {
        "synth": ["synth", "--spec", str(spec_file)],
        "train": ["train", "--config", str(train_config)],
        "eval": ["eval", "--checkpoint", str(trained), "--corpus", str(corpus)],
        "holdout": ["eval", "--checkpoint", str(grid), "--corpus", str(joy), "--holdout-label", "joy"],
    }


def test_a_manifest_lists_the_files_its_command_created_in_order(tmp_path, spec_file, train_config, monkeypatch):
    argvs = command_argvs(tmp_path, spec_file, train_config)
    replaced = []
    real_replace = os.replace

    def recording_replace(src, dst):
        replaced.append(Path(dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    expected = {
        "synth": ["corpus.tsv", "taxonomy.json"],
        "train": ["best.ckpt", "final.ckpt", "history.jsonl"],
        "eval": ["report.json", "confusion.csv", "histogram.csv", "pairs.csv"],
        "holdout": ["holdout.json"],
    }
    for name, argv in argvs.items():
        out = tmp_path / "fresh" / name
        replaced.clear()
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        artifacts = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["artifacts"]
        assert artifacts == expected[name]
        assert [path.relative_to(out).as_posix() for path in replaced] == [*artifacts, "manifest.json"]
        assert sorted(p.name for p in out.iterdir()) == sorted([*artifacts, "manifest.json"])


def test_out_naming_a_file_exits_1_before_the_run(tmp_path, spec_file, train_config, monkeypatch, caplog):
    argvs = command_argvs(tmp_path, spec_file, train_config)
    monkeypatch.setattr(cli.Trainer, "run", lambda self: pytest.fail("trained into a file"))
    monkeypatch.setattr(cli, "generate_synthetic", lambda spec: pytest.fail("generated into a file"))
    monkeypatch.setattr(cli, "evaluate", lambda ck, corpus: pytest.fail("evaluated into a file"))
    out = tmp_path / "taken"
    out.write_text("not a directory\n", encoding="utf-8")
    for name in ("synth", "train", "eval"):
        caplog.clear()
        assert main([*argvs[name], "--out", str(out)]) == EXIT_INVALID, name
        assert f"--out {out} is not a directory" in caplog.text
        assert out.read_text(encoding="utf-8") == "not a directory\n"


def test_train_that_fails_between_checkpoints_leaves_no_manifest_and_no_lock(tmp_path, train_config, monkeypatch):
    saved = []

    def fail_the_second(ck, path):
        if saved:
            raise OSError("disk full")
        saved.append(path)
        save_checkpoint(ck, path)

    monkeypatch.setattr(cli, "save_checkpoint", fail_the_second)
    out = tmp_path / "run"
    assert main(["train", "--config", str(train_config), "--out", str(out)]) == EXIT_RUNTIME
    assert sorted(p.name for p in out.iterdir()) == ["best.ckpt"]


def record(out):
    """A run record of no inputs for a block that writes nothing."""
    return run_record(out, "synth", {}, {}, builtin_taxonomy("isear-valence"))


def test_lock_names_its_holder_and_is_never_broken(tmp_path, spec_file, caplog):
    out = tmp_path / "busy"
    pid, host = os.getpid(), socket.gethostname()
    with record(out):
        assert (out / ".lock").read_text(encoding="utf-8") == f"{pid} {host}\n"
        with pytest.raises(LockError, match=re.escape(f"names pid {pid} on host {host};")):
            with record(out):
                pass
        assert main(["synth", "--spec", str(spec_file), "--out", str(out)]) == EXIT_RUNTIME
        assert f"names pid {pid} on host {host};" in caplog.text
        assert (out / ".lock").exists()
    assert not (out / ".lock").exists()
    # a lock that names no holder, or cannot be read, is left alone too
    (out / ".lock").write_text("", encoding="utf-8")
    with pytest.raises(LockError, match="names no holder"):
        with record(out):
            pass
    (out / ".lock").unlink()
    (out / ".lock").mkdir()
    with pytest.raises(LockError, match="could not be read"):
        with record(out):
            pass
    assert (out / ".lock").is_dir()


def train_parser() -> argparse.ArgumentParser:
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices["train"]


def test_every_train_config_field_has_exactly_one_flag():
    actions = train_parser()._actions
    for name in _CONFIG_KINDS:
        (action,) = [a for a in actions if a.dest == name]
        assert action.option_strings == ["--" + name.replace("_", "-")]
    assert {a.dest for a in actions} - _CONFIG_KINDS.keys() == {"help", "config", "out"}
    assert _TRAIN_FLAGS.keys() <= _CONFIG_KINDS.keys()


#: A value other than the default for every TrainConfig field; a path names
#: a file the test writes.
NON_DEFAULT = {
    "mode": "ordinal-1d",
    "taxonomy": "isear.json",
    "corpus": "corpus.tsv",
    "corpus_format": "csv",
    "synthetic": "spec.json",
    "preset": "paper",
    "epochs": 2,
    "batch_size": 4,
    "learning_rate": 0.003,
    "max_seq_length": 16,
    "seed": 3,
    "split": [0.6, 0.2, 0.2],
    "weight_decay": 0.05,
    "loss_weights": [0.5, 2.0],
    "embed_dim": 6,
    "conv_channels": [5, 6],
    "kernel_sizes": [3, 2],
    "ffnn_hidden": [7, 5],
}


def as_flags(values: dict) -> list[str]:
    flags = []
    for name, value in values.items():
        flags.append("--" + name.replace("_", "-"))
        flags += [str(v) for v in value] if isinstance(value, list) else [str(value)]
    return flags


@pytest.mark.parametrize("name", list(_CONFIG_KINDS))
def test_a_field_from_the_config_file_trains_as_its_flag_does(tmp_path, spec_file, name):
    corpus = generate_synthetic(load_synthetic_spec(spec_file))
    save_corpus_tsv(corpus, tmp_path / "corpus.tsv")
    with open(tmp_path / "corpus.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([("text", "label"), *corpus.records])
    save_taxonomy(builtin_taxonomy("isear-valence"), tmp_path / "isear.json")
    value = NON_DEFAULT[name]
    if name in ("taxonomy", "corpus", "synthetic"):
        value = str(tmp_path / value)
    # a small, fast run; the field under test is left out, so it takes the
    # file's value in one run and the flag's in the other
    base = {
        "synthetic": str(spec_file),
        "epochs": 1,
        "batch_size": 8,
        "max_seq_length": 12,
        "embed_dim": 4,
        "conv_channels": [4, 4],
        "ffnn_hidden": [6, 4],
    }
    if name in ("corpus", "corpus_format"):
        base = {**base, "synthetic": None, "corpus": str(tmp_path / "corpus.csv")}
    base = {k: v for k, v in base.items() if k != name and v is not None}
    config = tmp_path / "train.json"
    config.write_text(json.dumps({name: value}), encoding="utf-8")
    by_file, by_flag = tmp_path / "file", tmp_path / "flag"
    assert main(["train", *as_flags(base), "--config", str(config), "--out", str(by_file)]) == EXIT_OK
    assert main(["train", *as_flags({**base, name: value}), "--out", str(by_flag)]) == EXIT_OK
    for artifact in ("best.ckpt", "final.ckpt", "history.jsonl"):
        assert (by_file / artifact).read_bytes() == (by_flag / artifact).read_bytes(), artifact
    manifests = [json.loads((d / "manifest.json").read_text(encoding="utf-8")) for d in (by_file, by_flag)]
    assert manifests[0]["config"] == manifests[1]["config"]
    assert manifests[0]["config"][name] == value
    assert value != TrainConfig().to_document()[name]


def test_a_width_too_large_to_allocate_exits_2_without_an_output_dir(tmp_path, spec_file, caplog):
    # 771 PiB of parameters: past the address space, so numpy refuses at once
    out = tmp_path / "run"
    flags = ["--synthetic", str(spec_file), "--embed-dim", "1000000000000000"]
    assert main(["train", *flags, "--out", str(out)]) == EXIT_RUNTIME
    (record,) = [r for r in caplog.records if r.levelname == "ERROR"]
    assert "Unable to allocate" in record.getMessage()
    assert not out.exists()


@pytest.mark.parametrize(
    "widths", [["--embed-dim", "99999999999999999999999"], ["--conv-channels", "4000000000", "4000000000"]]
)
def test_widths_no_array_can_hold_exit_1_without_an_output_dir(tmp_path, spec_file, caplog, widths):
    out = tmp_path / "run"
    assert main(["train", "--synthetic", str(spec_file), *widths, "--out", str(out)]) == EXIT_INVALID
    (record,) = [r for r in caplog.records if r.levelname == "ERROR"]
    assert "parameters are more than one array can hold" in record.getMessage()
    assert f"{widths[0][2:].replace('-', '_')}=" in record.getMessage()
    assert not out.exists()


def test_divergence_exits_2(tmp_path, train_config):
    code = main(
        [
            "train",
            "--config", str(train_config),
            "--learning-rate", "1e30",
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == EXIT_RUNTIME
    # no manifest names the checkpoints and history a diverged run never wrote
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == []


def test_train_manifest_records_the_preset_widths(tmp_path, spec_file):
    out = tmp_path / "run"
    assert main(["train", "--synthetic", str(spec_file), "--epochs", "1", "--out", str(out)]) == EXIT_OK
    config = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"]
    assert config["embed_dim"] == 32
    assert config["conv_channels"] == [32, 64]
    assert config["kernel_sizes"] == [6, 4]
    assert config["ffnn_hidden"] == [64, 32]


def test_train_on_a_spec_of_another_taxonomy_exits_1_naming_the_spec(tmp_path, spec_file, caplog):
    document = json.loads(spec_file.read_text(encoding="utf-8"))
    spec_file.write_text(json.dumps({**document, "taxonomy": "goemotions-grid-5x5"}), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--synthetic", str(spec_file), "--out", str(out)]) == EXIT_INVALID
    assert str(spec_file) in caplog.text
    assert "'isear-valence'" in caplog.text
    assert not (out / "manifest.json").exists()


def test_invalid_inputs_exit_1(tmp_path, spec_file):
    # missing file
    assert main(["synth", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == EXIT_INVALID
    # malformed spec
    bad = tmp_path / "bad.json"
    bad.write_text('{"taxonomy": "isear-valence", "bogus": 1}', encoding="utf-8")
    assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o2")]) == EXIT_INVALID
    # missing checkpoint
    assert main(["eval", "--checkpoint", str(tmp_path / "no.ckpt"), "--corpus", str(spec_file), "--out", str(tmp_path / "o3")]) == EXIT_INVALID
    # unknown flag / bad usage via argparse
    assert main(["train", "--no-such-flag"]) == EXIT_INVALID
    assert main([]) == EXIT_INVALID


def test_synth_with_a_tab_in_a_label_exits_1_and_writes_nothing(tmp_path, spec_file, caplog):
    # its corpus.tsv would split that label into two fields, so train would
    # reject the corpus synth wrote
    taxonomy = tmp_path / "taxonomy.json"
    labels = [{"name": "low\tmood", "rank": 0}, {"name": "calm", "rank": 1}]
    taxonomy.write_text(json.dumps({"mode": "1d", "labels": labels}), encoding="utf-8")
    document = json.loads(spec_file.read_text(encoding="utf-8"))
    spec_file.write_text(json.dumps({**document, "taxonomy": str(taxonomy)}), encoding="utf-8")
    out = tmp_path / "o"
    assert main(["synth", "--spec", str(spec_file), "--out", str(out)]) == EXIT_INVALID
    assert "'low\\tmood': a name cannot hold a tab" in caplog.text
    assert not out.exists() or not any(out.iterdir())


def test_files_that_are_not_utf8_exit_1_naming_the_file(tmp_path, train_config, caplog):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff")
    out = tmp_path / "run"
    for flags in (["--taxonomy", str(bad)], ["--config", str(bad)]):
        caplog.clear()
        assert main(["train", "--config", str(train_config), *flags, "--out", str(out)]) == EXIT_INVALID
        assert str(bad) in caplog.text and "utf-8" in caplog.text
    caplog.clear()
    assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o")]) == EXIT_INVALID
    assert str(bad) in caplog.text


def test_non_finite_config_exits_1_without_checkpoints(tmp_path, train_config):
    document = json.loads(train_config.read_text(encoding="utf-8"))
    document["loss_weights"] = [float("nan"), 1.0]
    train_config.write_text(json.dumps(document), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--config", str(train_config), "--out", str(out)]) == EXIT_INVALID
    assert not (out / "best.ckpt").exists() and not (out / "final.ckpt").exists()
    flag = ["--learning-rate", "nan", "--loss-weights", "1", "1"]
    assert main(["train", "--config", str(train_config), *flag, "--out", str(out)]) == EXIT_INVALID
    assert not (out / "best.ckpt").exists()


@pytest.mark.parametrize("flag", ["--beta1", "--beta2", "--eps", "--min-freq"])
def test_a_flag_of_a_removed_recipe_value_exits_1(tmp_path, train_config, flag, capsys, caplog):
    # AdamW's moment constants live in optim, and the vocabulary has no cut-off
    out = tmp_path / "run"
    assert main(["train", "--config", str(train_config), flag, "0.8", "--out", str(out)]) == EXIT_INVALID
    assert flag in capsys.readouterr().err + caplog.text
    assert not (out / "final.ckpt").exists()


def test_a_config_file_holding_min_freq_exits_1_naming_it(tmp_path, train_config, caplog):
    document = json.loads(train_config.read_text(encoding="utf-8"))
    train_config.write_text(json.dumps({**document, "min_freq": 2}), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["train", "--config", str(train_config), "--out", str(out)]) == EXIT_INVALID
    assert f"{train_config}: unknown fields ['min_freq']" in caplog.text
    assert not (out / "final.ckpt").exists()


def test_numbers_too_large_for_a_float_exit_1_naming_file_and_field(
    tmp_path, spec_file, train_config, caplog
):
    huge = 10**400
    for path, field, value in (
        (train_config, "learning_rate", huge),
        (train_config, "split", [huge, 0, 0]),
        (spec_file, "p_signal", huge),
    ):
        document = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps({**document, field: value}), encoding="utf-8")
        command = "synth" if path == spec_file else "train"
        flag = "--spec" if path == spec_file else "--config"
        caplog.clear()
        assert main([command, flag, str(path), "--out", str(tmp_path / "o")]) == EXIT_INVALID
        assert f"{path}: {field}" in caplog.text and "too large for a float" in caplog.text
        path.write_text(json.dumps(document), encoding="utf-8")
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_negative_seeds_exit_1_naming_the_seed(tmp_path, spec_file, train_config, caplog):
    assert main(["train", "--config", str(train_config), "--seed", "-1", "--out", str(tmp_path / "o")]) == EXIT_INVALID
    assert "seed must be non-negative, got -1" in caplog.text
    caplog.clear()
    document = json.loads(spec_file.read_text(encoding="utf-8"))
    spec_file.write_text(json.dumps({**document, "seed": -2}), encoding="utf-8")
    assert main(["synth", "--spec", str(spec_file), "--out", str(tmp_path / "o")]) == EXIT_INVALID
    assert "seed must be non-negative, got -2" in caplog.text
    caplog.clear()
    assert main(["gradcheck", "--mode", "softmax", "--seed", "-1"]) == EXIT_INVALID
    assert "--seed must be non-negative, got -1" in caplog.text


@pytest.mark.parametrize(
    "flags, message",
    [pytest.param(["--num-seeds", "0"], "--num-seeds must be at least 1, got 0", id="num-seeds-zero"),
     pytest.param(["--num-seeds", "-1"], "--num-seeds must be at least 1, got -1", id="num-seeds-negative"),
     # the relative error is at most 1, so even --corrupt would pass
     pytest.param(["--corrupt", "--tolerance", "inf"], "--tolerance must be in (0, 1), got inf",
                  id="tolerance-inf"),
     pytest.param(["--tolerance", "1"], "--tolerance must be in (0, 1), got 1.0", id="tolerance-one"),
     pytest.param(["--tolerance", "nan"], "--tolerance must be in (0, 1), got nan", id="tolerance-nan")],
)
def test_gradcheck_that_would_check_nothing_exits_1(flags, message, capsys, caplog):
    assert main(["gradcheck", "--mode", "softmax", *flags]) == EXIT_INVALID
    assert message in caplog.text
    assert "gradient check" not in capsys.readouterr().err  # no report: nothing ran


def test_predict_rejects_empty_text(tmp_path, train_config):
    train_dir = tmp_path / "run"
    assert main(["train", "--config", str(train_config), "--out", str(train_dir)]) == EXIT_OK
    code = main(["predict", "--checkpoint", str(train_dir / "best.ckpt"), "--text", "   "])
    assert code == EXIT_INVALID


def test_gradcheck_exit_behavior(capsys):
    assert main(["gradcheck", "--mode", "softmax"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ""  # report text goes to stderr
    assert "result: PASS" in captured.err
    assert main(["gradcheck", "--mode", "softmax", "--corrupt"]) == EXIT_INVALID


def test_help_and_version_exit_0(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "synth" in capsys.readouterr().out
    assert main(["--version"]) == EXIT_OK
    assert main(["train", "--help"]) == EXIT_OK


def grid_checkpoint(path):
    """An untrained ordinal-2d checkpoint over the grid taxonomy, saved to `path`."""
    taxonomy = builtin_taxonomy("goemotions-grid-5x5")
    vocab = build_vocab(LabeledCorpus((("alpha beta gamma delta", "joy"),)))
    recipe = TrainConfig(mode="ordinal-2d", taxonomy="goemotions-grid-5x5", max_seq_length=12)
    config = recipe.model_config(vocab.size, taxonomy)
    save_checkpoint(Checkpoint(init_params(config, seed=0), taxonomy, vocab, recipe), path)
    return path


@pytest.mark.parametrize(
    "records, holdout",
    [
        # a holdout eval of a corpus holding another label besides the held-out one
        ([("alpha beta", "joy"), ("gamma delta", "anger")], ["--holdout-label", "joy"]),
        # a plain eval of a corpus with a record that has no tokens
        ([("alpha beta", "joy"), ("!!!", "anger")], []),
    ],
)
def test_failed_eval_exits_1_and_writes_no_manifest(tmp_path, records, holdout):
    checkpoint = grid_checkpoint(tmp_path / "model.ckpt")
    corpus = tmp_path / "corpus.tsv"
    save_corpus_tsv(LabeledCorpus(tuple(records)), corpus)
    out = tmp_path / "scores"
    argv = ["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus), *holdout]
    assert main([*argv, "--out", str(out)]) == EXIT_INVALID
    assert sorted(p.name for p in out.iterdir()) == []
    # the same eval of a corpus without the fault writes its manifest and artifacts
    save_corpus_tsv(LabeledCorpus(tuple(r for r in records if r[1] == "joy")), corpus)
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.json", *manifest["artifacts"]])


@pytest.mark.parametrize("handler", ["strict", "surrogateescape"])
def test_predict_names_the_stdin_line_that_is_not_utf8(tmp_path, handler):
    # whatever error handler the locale gives stdin, the lines before the
    # bad one are printed and the run ends in emord's own error, exit 1
    checkpoint = grid_checkpoint(tmp_path / "model.ckpt")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "emord.cli", "predict", "--checkpoint", str(checkpoint)],
        input=b"alpha beta\ngamma\nbeta \xff delta\nalpha\n",
        env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": f"utf-8:{handler}"},
        capture_output=True,
        timeout=60,
    )
    assert run.returncode == EXIT_INVALID
    assert [json.loads(line)["mode"] for line in run.stdout.splitlines()] == ["ordinal-2d"] * 2
    assert run.stderr.decode().strip() == "stdin line 3: not valid UTF-8"


def test_predict_checks_a_plain_text_stdin(tmp_path, capsys, caplog, monkeypatch):
    # a text stream with no byte buffer holds what surrogateescape made of a bad byte
    checkpoint = grid_checkpoint(tmp_path / "model.ckpt")
    monkeypatch.setattr("sys.stdin", io.StringIO("alpha beta\ngamma \udcff\n"))
    assert main(["predict", "--checkpoint", str(checkpoint)]) == EXIT_INVALID
    assert len(capsys.readouterr().out.splitlines()) == 1
    assert "stdin line 2: not valid UTF-8" in caplog.text


def test_predict_rejects_a_text_argument_that_is_not_utf8(tmp_path, caplog):
    checkpoint = grid_checkpoint(tmp_path / "model.ckpt")
    assert main(["predict", "--checkpoint", str(checkpoint), "--text", "alpha \udcff"]) == EXIT_INVALID
    assert "--text: not valid UTF-8" in caplog.text


def test_eval_that_fails_between_artifacts_removes_the_old_manifest(tmp_path, monkeypatch):
    # a directory holding a finished eval, then an eval into it that fails
    # after its first artifacts: the old manifest would name a mix of new and
    # stale files
    checkpoint = grid_checkpoint(tmp_path / "model.ckpt")
    corpus = tmp_path / "corpus.tsv"
    save_corpus_tsv(LabeledCorpus((("alpha beta", "joy"),)), corpus)
    out = tmp_path / "scores"
    argv = ["eval", "--checkpoint", str(checkpoint), "--corpus", str(corpus), "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert (out / "manifest.json").exists()

    def disk_full(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "write_pairs_csv", disk_full)
    assert main(argv) == EXIT_RUNTIME
    assert not (out / "manifest.json").exists()
    assert (out / "report.json").exists()


def bad_taxonomy_file(path):
    """A 1d taxonomy whose second label has a string rank."""
    labels = [{"name": "low", "rank": 0}, {"name": "high", "rank": "1"}]
    path.write_text(json.dumps({"mode": "1d", "labels": labels}), encoding="utf-8")
    return path


def test_taxonomy_flag_errors_name_the_file(tmp_path, train_config, caplog):
    taxonomy = bad_taxonomy_file(tmp_path / "mine.json")
    argv = ["train", "--config", str(train_config), "--taxonomy", str(taxonomy)]
    assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_INVALID
    assert f"{taxonomy}: labels[1]: rank must be an integer" in caplog.text


def test_spec_taxonomy_errors_name_the_file(tmp_path, spec_file, caplog):
    # the spec names the file relative to its own directory
    taxonomy = bad_taxonomy_file(spec_file.parent / "mine.json")
    document = json.loads(spec_file.read_text(encoding="utf-8"))
    spec_file.write_text(json.dumps({**document, "taxonomy": "mine.json"}), encoding="utf-8")
    assert main(["synth", "--spec", str(spec_file), "--out", str(tmp_path / "o")]) == EXIT_INVALID
    assert f"{taxonomy}: labels[1]: rank must be an integer" in caplog.text
