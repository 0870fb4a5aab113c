"""Command-line behavior: pipelines, exit codes, locks, and manifests."""

import io
import json

import pytest

from emord.cli import EXIT_INVALID, EXIT_OK, EXIT_RUNTIME, main


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
