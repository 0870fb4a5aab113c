"""Benchmark of the emord library and CLI; see README.md beside this file.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 45 --trace 0

Runs one workload in this process and prints, as its last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`.  The line before it records the environment, the input
hashes and the quartiles behind each metric.  emord is imported from the
`src` directory next to this one, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def limit_blas_threads(nproc: int) -> None:
    """Use one BLAS thread unless the environment asks for 1..nproc.

    At desk widths the matrices are too small to gain from a second thread,
    and on a shared two-core machine a second thread made timings less
    steady from run to run.
    """
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = "1"


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np, nproc: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "blas": blas,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="train-desk, train-paper or infer")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    nproc = len(os.sched_getaffinity(0))
    limit_blas_threads(nproc)
    src = ROOT / "src"
    if not (src / "emord" / "__init__.py").is_file():
        print(f"error: no emord sources at {src / 'emord'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        result = workloads.run_workload(workload, args.seed, args.seconds, bool(args.trace), Path(workdir))
    units = spans.LAYER_UNITS if args.trace else workloads.END_TO_END
    metrics = result.pop("metrics")
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(np, nproc),
        "failed_fraction": result["failed"] / result["attempted"],
        "metrics": metrics,
        **result,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
