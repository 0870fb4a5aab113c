"""tools/identity.py: two runs of the artifact digest harness agree."""

import json
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "identity.py"


def digest_lines(out: Path) -> list[str]:
    command = [sys.executable, str(TOOL), "--out", str(out), "--per-label", "4"]
    run = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_two_runs_in_other_directories_print_the_same_digests(tmp_path):
    first = digest_lines(tmp_path / "a")
    assert digest_lines(tmp_path / "b" / "nested") == first  # the directory is masked
    digests = [line for line in first if not line.startswith("resave ")]
    paths = [line.split("  ")[1] for line in digests]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in digests)
    # every checkpoint, CLI-trained or biased, resaves byte for byte
    checkpoints = [path for path in paths if path.endswith(".ckpt")]
    assert [line for line in first if line.startswith("resave ")] == [
        f"resave equal  {path}" for path in checkpoints
    ]
    served = (
        "eval/report.json",
        "eval/confusion.csv",
        "eval/histogram.csv",
        "eval/pairs.csv",
        "eval/manifest.json",
        "predict.jsonl",
    )
    trained = ("train/best.ckpt", "train/final.ckpt", "train/history.jsonl", "train/manifest.json")
    for case in ("softmax", "ordinal-1d", "ordinal-2d"):
        for artifact in trained + served:
            assert f"{case}/{artifact}" in paths
    for artifact in ("holdout.tsv", "holdout/holdout.json", "holdout/manifest.json"):
        assert f"ordinal-2d/{artifact}" in paths
    holdout = json.loads((tmp_path / "a" / "ordinal-2d" / "holdout" / "holdout.json").read_text(encoding="utf-8"))
    assert (holdout["holdout_label"], holdout["n_examples"]) == ("surprise", 2)
    for artifact in ("biased.ckpt",) + served:
        assert f"ordinal-2d-biased/{artifact}" in paths
    synthesized = ("spec.json", "synth/corpus.tsv", "synth/taxonomy.json", "synth/manifest.json", "train.json")
    for artifact in synthesized + trained + served:
        assert f"softmax-grid-documents/{artifact}" in paths
    # the config's lists reach the recipe's widths, and its JSON integers are written as floats
    raw = (tmp_path / "a" / "softmax-grid-documents" / "train" / "final.ckpt").read_bytes()
    header = raw[16 : 16 + int.from_bytes(raw[8:16], "little")].decode("utf-8")
    recipe = json.dumps(json.loads(header)["recipe"], sort_keys=True, separators=(",", ":"))
    assert '"conv_channels":[48,80]' in recipe and '"ffnn_hidden":[96,48]' in recipe
    assert '"loss_weights":[1.0,0.5]' in recipe and '"weight_decay":0.0' in recipe
    # the biased head sends some rows off-grid, and not all
    biased = tmp_path / "a" / "ordinal-2d-biased" / "predict.jsonl"
    lines = biased.read_text(encoding="utf-8").splitlines()
    assert 0 < sum(json.loads(line)["off_grid"] for line in lines) < len(lines)
    # one prediction per test text, and the manifests did name the directory
    predicted = (tmp_path / "a" / "softmax" / "predict.jsonl").read_text(encoding="utf-8")
    texts = (tmp_path / "a" / "softmax" / "predict.txt").read_text(encoding="utf-8")
    assert len(predicted.splitlines()) == len(texts.splitlines()) == 2 * 7
    manifest = (tmp_path / "a" / "softmax" / "eval" / "manifest.json").read_text(encoding="utf-8")
    assert str(tmp_path / "a") in manifest
