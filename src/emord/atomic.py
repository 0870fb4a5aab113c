"""Writing files so that a final name only ever holds complete contents."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path: str | Path, mode: str = "w", **open_kwargs):
    """Open a temp file beside `path`; move it over `path` once the block succeeds.

    The file is written as `<name>.tmp` and renamed with `os.replace`, so
    `path` holds either what it held before or the complete new contents,
    never a partial write.  If the block raises, the temp file is removed and
    `path` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
