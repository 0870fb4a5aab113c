"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_code() -> str:
    """The first python block under the README's "Library quickstart" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    (code, *_) = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    return code


def test_library_quickstart_runs_as_written(capsys):
    exec(compile(quickstart_code(), str(README), "exec"), {"__name__": "__quickstart__"})
    accuracy, mean_error_distance, histogram = capsys.readouterr().out.split(" ", 2)
    assert 0.0 <= float(accuracy) <= 1.0
    assert float(mean_error_distance) >= 0.0
    assert histogram.startswith("{1: ")
