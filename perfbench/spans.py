"""In-memory spans around the public functions of each emord module.

A span records its name, start, end, parent span and run id, plus a few
counts a probe takes from the call's arguments or result.  Spans stay in
memory and are summarised once the run ends.

A function is wrapped at every module that binds it: `from .net import
forward` gives `emord.trainer` its own binding, so patching `emord.net`
alone would miss every call the trainer makes.  `Tracer.installed` patches
each binding it finds in any loaded `emord` module and records where it
found them; the workload then checks the call counts against its shape,
which catches a reference held anywhere else.  The benchmark itself calls
the library through module attributes (`infer.predict_text(...)`), so its
own calls go through the patched bindings too.
"""

from __future__ import annotations

import contextlib
import functools
import os
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field


def _forward_probe(tracer, args, kwargs, result):
    _, config, token_ids = args[:3]
    batch, length = token_ids.shape
    return {"batch": batch, "flop": forward_flop(config, batch, length)}


def _backward_probe(tracer, args, kwargs, result):
    _, config, cache = args[:3]
    batch, length = cache.token_ids.shape
    # each matmul of the forward pass has two of the same size in the
    # backward pass: one for the weight gradient, one for the input gradient
    return {"batch": batch, "flop": 2 * forward_flop(config, batch, length)}


def _adamw_probe(tracer, args, kwargs, result):
    params = args[0]
    # per element: read param, grad, m, v; write param, m, v
    return {"bytes": 7 * sum(arr.nbytes for _, arr in params.named())}


def _encode_probe(tracer, args, kwargs, result):
    corpus = args[0]
    tracer.distinct_texts.update(text for text, _ in corpus.records)
    return {"rows": len(corpus)}


def _decode_probe(tracer, args, kwargs, result):
    return {"rows": len(result), "off_grid": sum(1 for p in result if p.off_grid)}


def _snapshot_probe(tracer, args, kwargs, result):
    tracer.snapshots.add(id(result))
    return None


def _run_probe(tracer, args, kwargs, result):
    kept = sum(1 for ck in (result.best, result.final) if id(ck) in tracer.snapshots)
    return {"kept": kept}


def _load_probe(tracer, args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


#: (module, function) pairs to wrap; "Class.method" wraps a method.
TARGETS = (
    ("data", "encode_corpus", _encode_probe),
    ("data", "load_corpus", None),
    ("codec", "target_for", None),
    ("codec", "decode_thermometer_batch", None),
    ("net", "forward", _forward_probe),
    ("net", "backward", _backward_probe),
    ("losses", "loss_value", None),
    ("losses", "logit_gradient", None),
    ("optim", "adamw_step", _adamw_probe),
    ("trainer", "Trainer.run", _run_probe),
    ("trainer", "Trainer.run_epoch", None),
    ("trainer", "Trainer.checkpoint", _snapshot_probe),
    ("infer", "predict_ids", None),
    ("infer", "decode_outputs", _decode_probe),
    ("infer", "predict_text", None),
    ("metrics", "evaluate", None),
    ("metrics", "build_report", None),
    ("metrics", "write_report_json", None),
    ("metrics", "write_confusion_csv", None),
    ("metrics", "write_histogram_csv", None),
    ("metrics", "write_pairs_csv", None),
    ("taxonomy", "label_distance", None),
    ("checkpoint", "load_checkpoint", _load_probe),
    ("checkpoint", "save_checkpoint", None),
    ("cli", "cmd_eval", None),
    ("cli", "cmd_predict", None),
)


def forward_flop(config, batch: int, length: int) -> int:
    """Multiply-add FLOPs of the convolutions and the FFNN for one batch."""
    k1, k2 = config.kernel_sizes
    c1, c2 = config.conv_channels
    h1, h2 = config.ffnn_hidden
    t1 = length - k1 + 1
    t2 = t1 - k2 + 1
    conv = t1 * c1 * config.embed_dim * k1 + t2 * c2 * c1 * k2
    ffnn = c2 * h1 + h1 * h2 + h2 * config.output_width
    return 2 * batch * (conv + ffnn)


@dataclass(slots=True)
class Span:
    name: str  # "<module>.<function>" of the wrapped definition
    site: str  # module whose binding was called
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at top level
    run_id: str
    info: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Collects spans while installed; `run_id` tags every span it records."""

    run_id: str
    spans: list[Span] = field(default_factory=list)
    distinct_texts: set = field(default_factory=set)
    snapshots: set = field(default_factory=set)
    bindings: dict[str, list[str]] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def _wrap(self, name: str, site: str, fn, probe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, site, clock(), 0.0, stack[-1] if stack else -1, self.run_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if probe is not None:
                span.info = probe(self, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of every target for the duration of the block."""
        modules = {
            name.removeprefix("emord.") if name != "emord" else name: module
            for name, module in list(sys.modules.items())
            if name == "emord" or name.startswith("emord.")
        }
        restore: list[tuple[object, str, object]] = []
        self.bindings.clear()
        try:
            for module_name, attr, probe in TARGETS:
                owner = modules[module_name]
                name = f"{module_name}.{attr}"
                if "." in attr:
                    class_name, method = attr.split(".")
                    cls = getattr(owner, class_name)
                    original = cls.__dict__[method]
                    restore.append((cls, method, original))
                    setattr(cls, method, self._wrap(name, module_name, original, probe))
                    self.bindings[name] = [module_name]
                    continue
                original = getattr(owner, attr)
                self.bindings[name] = []
                for site, module in modules.items():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, key, original))
                            setattr(module, key, self._wrap(name, site, original, probe))
                            self.bindings[name].append(site)
            yield self
        finally:
            for holder, key, original in reversed(restore):
                setattr(holder, key, original)

    def calls(self) -> Counter:
        return Counter(span.name for span in self.spans)

    def self_seconds(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.seconds
        return own


#: Units of the per-layer metrics in the result line; the batch sizes and the
#: span count go to the record only.
LAYER_UNITS = {
    "data.encode_s": "s",
    "data.encode_rows_per_s": "1/s",
    "data.encode_repeat_ratio": "ratio",
    "data.load_corpus_s": "s",
    "codec.target_for_s": "s",
    "codec.decode_thermometer_batch_s": "s",
    "net.forward_s": "s",
    "net.forward_ms_p50": "ms",
    "net.forward_gflop_per_s": "GFLOP/s",
    "net.backward_s": "s",
    "net.backward_ms_p50": "ms",
    "net.backward_gflop_per_s": "GFLOP/s",
    "losses.loss_value_s": "s",
    "losses.logit_gradient_s": "s",
    "optim.adamw_s": "s",
    "optim.adamw_ms_p50": "ms",
    "optim.adamw_gbyte_per_s": "GB/s",
    "trainer.validation_s": "s",
    "trainer.checkpoint_s": "s",
    "trainer.checkpoint_kept_ratio": "ratio",
    "trainer.self_s": "s",
    "infer.predict_ids_s": "s",
    "infer.decode_outputs_s": "s",
    "infer.decode_rows_per_s": "1/s",
    "infer.off_grid_fraction": "ratio",
    "infer.predict_text_self_ms_p50": "ms",
    "metrics.build_report_s": "s",
    "metrics.write_artifacts_s": "s",
    "taxonomy.label_distance_calls": "count",
    "checkpoint.load_s": "s",
    "checkpoint.bytes": "bytes",
    "cli.eval_self_s": "s",
    "cli.predict_self_s": "s",
    "trace.overhead_pct": "%",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, named `<module>.<metric>`.

    Totals (`_s`, `_calls`) cover the whole pass.  `net.*_ms_p50` covers the
    calls at the batch size that takes the most time, reported as
    `net.*_batch`; `net.*_ms_p50@<batch>` gives every batch size seen.
    """
    own = tracer.self_seconds()
    by_name: dict[str, list[tuple[Span, float]]] = {}
    for span, seconds in zip(tracer.spans, own):
        by_name.setdefault(span.name, []).append((span, seconds))

    def total(name, site=None):
        return sum(span.seconds for span, _ in by_name[name] if site is None or span.site == site)

    def info(name, key):
        return sum(span.info[key] for span, _ in by_name[name])

    m: dict[str, float] = {}
    rows = info("data.encode_corpus", "rows")
    m["data.encode_s"] = total("data.encode_corpus")
    m["data.encode_rows_per_s"] = rows / m["data.encode_s"]
    m["data.encode_repeat_ratio"] = rows / len(tracer.distinct_texts)
    m["data.load_corpus_s"] = total("data.load_corpus")
    m["codec.target_for_s"] = total("codec.target_for")
    m["codec.decode_thermometer_batch_s"] = total("codec.decode_thermometer_batch")
    for kind in ("forward", "backward"):
        by_batch: dict[int, list[float]] = {}
        for span, _ in by_name[f"net.{kind}"]:
            by_batch.setdefault(span.info["batch"], []).append(span.seconds)
        batch = max(by_batch, key=lambda b: sum(by_batch[b]))
        m[f"net.{kind}_s"] = total(f"net.{kind}")
        m[f"net.{kind}_batch"] = batch
        m[f"net.{kind}_ms_p50"] = 1e3 * statistics.median(by_batch[batch])
        m[f"net.{kind}_gflop_per_s"] = info(f"net.{kind}", "flop") / m[f"net.{kind}_s"] / 1e9
        for size, seconds in by_batch.items():
            m[f"net.{kind}_ms_p50@{size}"] = 1e3 * statistics.median(seconds)
    m["losses.loss_value_s"] = total("losses.loss_value")
    m["losses.logit_gradient_s"] = total("losses.logit_gradient")
    m["optim.adamw_s"] = total("optim.adamw_step")
    m["optim.adamw_ms_p50"] = 1e3 * statistics.median(span.seconds for span, _ in by_name["optim.adamw_step"])
    m["optim.adamw_gbyte_per_s"] = info("optim.adamw_step", "bytes") / m["optim.adamw_s"] / 1e9
    m["trainer.validation_s"] = total("metrics.evaluate", site="trainer")
    m["trainer.checkpoint_s"] = total("trainer.Trainer.checkpoint")
    m["trainer.checkpoint_kept_ratio"] = info("trainer.Trainer.run", "kept") / len(
        by_name["trainer.Trainer.checkpoint"]
    )
    m["trainer.self_s"] = sum(seconds for _, seconds in by_name["trainer.Trainer.run_epoch"])
    m["infer.predict_ids_s"] = total("infer.predict_ids")
    m["infer.decode_outputs_s"] = total("infer.decode_outputs")
    decoded = info("infer.decode_outputs", "rows")
    m["infer.decode_rows_per_s"] = decoded / m["infer.decode_outputs_s"]
    m["infer.off_grid_fraction"] = info("infer.decode_outputs", "off_grid") / decoded
    m["infer.predict_text_self_ms_p50"] = 1e3 * statistics.median(
        seconds for _, seconds in by_name["infer.predict_text"]
    )
    m["metrics.build_report_s"] = total("metrics.build_report")
    m["metrics.write_artifacts_s"] = sum(
        total(f"metrics.{name}")
        for name in ("write_report_json", "write_confusion_csv", "write_histogram_csv", "write_pairs_csv")
    )
    m["taxonomy.label_distance_calls"] = len(by_name["taxonomy.label_distance"])
    m["checkpoint.load_s"] = total("checkpoint.load_checkpoint")
    m["checkpoint.bytes"] = statistics.median(span.info["bytes"] for span, _ in by_name["checkpoint.load_checkpoint"])
    m["cli.eval_self_s"] = sum(seconds for _, seconds in by_name["cli.cmd_eval"])
    m["cli.predict_self_s"] = sum(seconds for _, seconds in by_name["cli.cmd_predict"])
    m["trace.spans"] = len(tracer.spans)
    return m
