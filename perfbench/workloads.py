"""The three workloads, the passes that run them, and their output checks.

A run warms up, then repeats a *pass* (a fixed amount of work) until the
next pass would end after `--seconds`; it always makes at least one.  A
pass is made of rounds.  A round trains one model (when the pass trains),
then sets up, evaluates and predicts, so every phase is sampled throughout
the pass.  A training workload's pass trains one model per corpus, and
evaluates and predicts with the first corpus's model.  An `infer` pass is
one round; every RETRAIN_EVERY-th pass first retrains its fixed model.
With tracing on, passes alternate untraced and traced (at least one of
each); `infer` then trains in every pass, so that each traced pass shows
every layer.

Timing metrics are built from *quiet times*.  The machine's speed swings by
up to 2x in bursts lasting milliseconds to tens of seconds, so the median
of a run lands in whichever mode the run happened to meet, while the 1st
percentile of many short samples of the same work stays put.  So marks cut
each timed call into short segments (a training step, an encoded row, a
batch, a predicted line), and a call's quiet time is the sum of its
segments, each kind at the FAST quantile of its samples over the run.  The
record keeps the metrics from plain medians beside them.

Every operation is attempted once and counted; a divergence, a non-zero
exit, a predict line error or a failed output check counts as failed.
All calls into emord go through module attributes so that the tracer's
patched bindings see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import emord.checkpoint as checkpoint
import emord.cli as cli
import emord.data as data
import emord.infer as infer
import emord.metrics as metrics
import emord.taxonomy as taxonomy
import emord.trainer as trainer

import checks
import spans

EVAL_BATCH = 256  # batch size evaluate() and predict_ids() use by default
FAST = 0.01  # quantile of short samples a timing metric is built from
WINDOW = 20  # predict_text calls per latency window

#: The acceptance criterion 5 corpus: 23 grid labels, 100 examples each.
CRITERION_5 = {"examples_per_class": 100, "p_signal": 0.25, "p_confuse": 0.3, "sequence_length": 20}
DESK_TRAIN = {"epochs": 8, "batch_size": 16, "learning_rate": 3e-3}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    taxonomy: str
    mode: str
    preset: str
    synth: dict  # SyntheticSpec fields other than taxonomy and seed
    train: dict  # resolve_train_config overrides other than mode, taxonomy, preset, seed
    corpora: int  # models a building pass trains, each followed by one round
    fixed_model: bool  # train one fixed model, in every RETRAIN_EVERY-th pass only
    eval_per_class: int  # size of a separate eval corpus; 0: the first corpus's test split
    predict_texts: int  # 0 predicts every eval text
    predict_reps: int  # predict_text sweeps over the texts per round
    eval_reps: int  # `emord eval` calls per round
    cli_predict_reps: int  # `emord predict` calls per round
    setups: int  # set-ups timed per round besides the training's own
    warm_records: int  # records of the first corpus the warm-up trains on


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-desk",
            why="criterion-5 grid training at desk widths, 10 corpora: small steps, so "
            "per-call overhead, the embedding scatter, AdamW and per-epoch validation count",
            taxonomy="goemotions-grid-5x5",
            mode="ordinal-2d",
            preset="desk",
            synth=CRITERION_5,
            train=DESK_TRAIN,
            corpora=10,
            fixed_model=False,
            eval_per_class=100,
            predict_texts=460,
            predict_reps=3,
            eval_reps=3,
            cli_predict_reps=2,
            setups=2,
            warm_records=2300,
        ),
        Workload(
            name="train-paper",
            why="paper widths, T=200, vocab ~4k: BLAS-bound conv GEMMs and "
            "memory-bound AdamW over 22.7M parameters; Python overhead negligible",
            taxonomy="isear-valence",
            mode="ordinal-1d",
            preset="paper",
            synth={
                "examples_per_class": 10,
                "p_signal": 0.25,
                "p_confuse": 0.3,
                "sequence_length": 200,
                "filler_tokens": 5000,
            },
            train={"epochs": 1, "batch_size": 16},
            corpora=1,
            fixed_model=False,
            eval_per_class=0,
            predict_texts=0,
            predict_reps=4,
            eval_reps=2,
            cli_predict_reps=2,
            setups=3,
            warm_records=20,
        ),
        Workload(
            name="infer",
            why="forward only: emord eval on 2300 grid examples, predict_text one text "
            "at a time, emord predict on stdin; no backward or AdamW in its rounds",
            taxonomy="goemotions-grid-5x5",
            mode="ordinal-2d",
            preset="desk",
            synth=CRITERION_5,
            train=DESK_TRAIN,
            corpora=1,
            fixed_model=True,
            eval_per_class=100,
            predict_texts=460,
            predict_reps=3,
            eval_reps=2,
            cli_predict_reps=2,
            setups=3,
            warm_records=2300,
        ),
    )
}

#: Corpus seed of the model `infer` serves.  It is fixed so that the served
#: model is the same artifact on every run; `--seed` varies its traffic.
INFER_MODEL_SEED = 1_000_000
#: `infer` retrains its fixed model every this many passes (a pass is then a
#: round of about 1.3 s), so that its training samples span the whole run.
RETRAIN_EVERY = 6

END_TO_END = {
    "setup_s": "s",
    "train_examples_per_s": "1/s",
    "final_train_loss": "mse",
    "test_macro_f1": "f1",
    "eval_examples_per_s": "1/s",
    "predict_ms_p50": "ms",
    "predict_ms_p99": "ms",
    "predict_texts_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def fast(values: list[float]) -> float:
    """The FAST quantile of `values`: their time at the machine's quiet speed."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=round(1 / FAST), method="inclusive")[0]


#: Bindings whose returns cut a timed call into segments, as "module.name"
#: of the module that makes the call.  Each segment is short: a training
#: step is cut after `forward` and after `adamw_step`, corpus encoding after
#: every row, an `emord eval` after every batch, an `emord predict` after
#: every line.
MARKS = (
    "data.encode_text",
    "trainer.forward",
    "trainer.adamw_step",
    "trainer.Trainer.run_epoch",
    "metrics.encode_corpus",
    "metrics.build_report",
    "infer.forward",
    "infer.decode_outputs",
    "cli.load_checkpoint",
    "cli.load_corpus",
    "cli.write_report_json",
    "cli.write_confusion_csv",
    "cli.write_histogram_csv",
    "cli.write_pairs_csv",
    "cli.predict_text",
)


@contextlib.contextmanager
def marked():
    """Note (binding, time) each time a MARKS binding returns.

    A mark costs under 1 µs, against segments of 15 µs and more.
    """
    marks: list[tuple[str, float]] = []
    clock = time.perf_counter
    modules = {"data": data, "trainer": trainer, "metrics": metrics, "infer": infer, "cli": cli}

    def wrap(label, fn):
        def marked_call(*args, **kwargs):
            result = fn(*args, **kwargs)
            marks.append((label, clock()))
            return result

        return marked_call

    restore = []
    try:
        for label in MARKS:
            module, _, name = label.partition(".")
            holder = modules[module]
            if "." in name:
                class_name, name = name.split(".")
                holder = getattr(holder, class_name)
            original = vars(holder)[name]
            restore.append((holder, name, original))
            setattr(holder, name, wrap(label, original))
        yield marks
    finally:
        for holder, name, original in reversed(restore):
            setattr(holder, name, original)


def corpus_sha256(corpus) -> str:
    digest = hashlib.sha256()
    for text, label in corpus.records:
        digest.update(f"{text}\t{label}\n".encode("utf-8"))
    return digest.hexdigest()


@dataclass
class Session:
    """One run of one workload: its inputs, samples and failure counts."""

    workload: Workload
    seed: int
    workdir: Path
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    expect: Counter = field(default_factory=Counter)
    inputs: dict[str, str] = field(default_factory=dict)
    traced: bool = False  # the tracer's wrappers are installed
    shapes: dict[str, Counter] = field(default_factory=dict)  # segments of one timed call, by kind

    def __post_init__(self):
        w = self.workload
        self.taxonomy = taxonomy.builtin_taxonomy(w.taxonomy)
        if w.fixed_model:
            self.corpora = [(INFER_MODEL_SEED, self.synthetic(w.synth, INFER_MODEL_SEED))] * w.corpora
        else:
            self.corpora = [(s, self.synthetic(w.synth, s)) for s in range(self.seed * 100, self.seed * 100 + w.corpora)]
        self.configs = [
            trainer.resolve_train_config(
                overrides={
                    "preset": w.preset,
                    "mode": w.mode,
                    "taxonomy": w.taxonomy,
                    "seed": s,
                    **w.train,
                }
            )
            for s, _ in self.corpora
        ]
        first_corpus, first_config = self.corpora[0][1], self.configs[0]
        if w.preset == "paper" and first_config.max_seq_length != 200:
            # TrainConfig(preset="paper") built directly keeps the desk T=32
            raise RuntimeError(f"paper preset resolved to max_seq_length {first_config.max_seq_length}")
        if w.eval_per_class:
            self.eval_corpus = self.synthetic(
                {**w.synth, "examples_per_class": w.eval_per_class}, self.seed * 100 + 50
            )
        else:
            self.eval_corpus = data.split_corpus(first_corpus, first_config.split, first_config.seed)[2]
        n_predict = w.predict_texts or len(self.eval_corpus)
        self.texts = self.eval_corpus.texts()[:n_predict]
        self.eval_tsv = self.workdir / "eval.tsv"
        data.save_corpus_tsv(self.eval_corpus, self.eval_tsv)
        self.model_path = self.workdir / "model.ckpt"
        self.reference: list[str] | None = None  # labels `emord eval` gave the eval texts
        self.model = None

    def synthetic(self, fields: dict, seed: int):
        spec = data.SyntheticSpec(taxonomy=self.taxonomy, seed=seed, **fields)
        corpus = data.generate_synthetic(spec)
        self.inputs[f"corpus-{seed}"] = corpus_sha256(corpus)
        return corpus

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def timed(self, op: str, call, record: bool):
        """Return call() and its seconds; if `record`, sample its segments.

        A segment runs from the call's start or a MARKS binding's return to
        the next such return or the call's end.  It is sampled by its kind,
        `<op>:<from>><to>`, so that a row of encoding and the hashing before
        the first row are different kinds.  Every call of one `op` must cut
        into the same segments; `quiet` relies on it.
        """
        record = record and not self.traced
        with marked() if record else contextlib.nullcontext([]) as marks:
            started = time.perf_counter()
            result = call()
            ended = time.perf_counter()
        if record:
            shape = Counter()
            previous, since = "call", started
            for label, at in marks + [("return", ended)]:
                kind = f"{previous}>{label}"
                self.sample(f"{op}:{kind}", at - since)
                shape[kind] += 1
                previous, since = label, at
            if self.shapes.setdefault(op, shape) != shape:
                raise RuntimeError(f"{op} cut into {dict(shape)}, earlier into {dict(self.shapes[op])}")
            self.sample(f"{op}_s", ended - started)
        return result, ended - started

    def quiet(self, op: str) -> float:
        """Seconds of one `op` call: each kind of segment at its fast quantile."""
        return sum(n * fast(self.samples[f"{op}:{kind}"]) for kind, n in self.shapes[op].items())

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    # ------------------------------------------------------------- training

    def construct(self, config, corpus):
        started = time.perf_counter()
        built = trainer.Trainer(config, corpus)
        if not self.workload.fixed_model:  # infer's set-up is loading what it serves
            self.sample("setup_s", time.perf_counter() - started)
        self.expect["codec.target_for"] += len(built.train_split)
        self.expect["data.encode_corpus"] += 1
        return built

    def train_once(self, config, corpus, quality: bool):
        """Build a Trainer, run it, and return (trainer, result) or None on failure."""
        run = self.construct(config, corpus)
        n_train, n_val = len(run.train_split), len(run.val_split)
        steps = math.ceil(n_train / config.batch_size)
        self.attempted += 1
        try:
            result, _ = self.timed("train", run.run, record=quality)
        except trainer.TrainingDivergedError as exc:
            self.fail(str(exc))
            return None
        e = config.epochs
        val_batches = math.ceil(n_val / EVAL_BATCH)
        self.expect.update(
            {
                "trainer.Trainer.run": 1,
                "trainer.Trainer.run_epoch": e,
                "net.forward": e * (steps + val_batches),
                "net.backward": e * steps,
                "optim.adamw_step": e * steps,
                "losses.loss_value": e * steps,
                "losses.logit_gradient": e * steps,
                "metrics.evaluate": e,
                "data.encode_corpus": e,
                "infer.predict_ids": e,
                "infer.decode_outputs": e * val_batches,
                "metrics.build_report": e,
            }
        )
        losses = [h.train_loss for h in result.history] + [h.val_mean_distance for h in result.history]
        if not all(math.isfinite(x) for x in losses):
            self.fail(f"non-finite training or validation loss for corpus seed {config.seed}")
            return None
        if quality:
            self.train_examples = e * n_train
            self.sample("final_train_loss", result.history[-1].train_loss)
            if not self.workload.fixed_model:
                test = metrics.evaluate(result.best, run.test_split).report
                self.expect_evaluate(len(run.test_split))
                self.sample("test_macro_f1", test.macro_f1)
        return run, result

    def expect_evaluate(self, n: int) -> None:
        batches = math.ceil(n / EVAL_BATCH)
        self.expect.update(
            {
                "metrics.evaluate": 1,
                "data.encode_corpus": 1,
                "infer.predict_ids": 1,
                "net.forward": batches,
                "infer.decode_outputs": batches,
                "metrics.build_report": 1,
            }
        )

    # ------------------------------------------------------ eval and predict

    def cli_eval(self, record: bool) -> None:
        out = self.workdir / "eval-out"
        argv = ["-q", "eval", "--checkpoint", str(self.model_path), "--corpus", str(self.eval_tsv), "--out", str(out)]
        n = len(self.eval_corpus)
        code, _ = self.timed("cli_eval", lambda: cli.main(argv), record)
        self.attempted += 1
        self.expect_evaluate(n)
        self.expect.update(
            {
                "cli.cmd_eval": 1,
                "checkpoint.load_checkpoint": 1,
                "data.load_corpus": 1,
                "metrics.write_report_json": 1,
                "metrics.write_confusion_csv": 1,
                "metrics.write_histogram_csv": 1,
                "metrics.write_pairs_csv": 1,
            }
        )
        try:
            if code != 0:
                self.fail(f"emord eval exited {code}")
                return
            problems = checks.report_problems(out, self.taxonomy, self.workload.mode)
            pairs = checks.read_pairs(out / "pairs.csv")
            if [gold for gold, _ in pairs] != self.eval_corpus.labels():
                problems.append("pairs.csv gold column differs from the eval corpus")
            for problem in problems:
                self.fail(problem)
            if problems:
                return
            predicted = [pred for _, pred in pairs[: len(self.texts)]]
            if self.reference is None:
                self.reference = predicted
            elif predicted != self.reference:
                self.fail("emord eval predictions changed between calls")
                return
            if record and self.workload.fixed_model:
                report = json.loads((out / "report.json").read_text(encoding="utf-8"))
                self.sample("test_macro_f1", report["macro_f1"])
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def predict_sweep(self, texts, record: bool) -> None:
        ck = self.model
        for text, expected in zip(texts, self.reference):
            started = time.perf_counter()
            try:
                label = infer.predict_text(ck, text).label
            except ValueError as exc:
                label = f"error: {exc}"
            seconds = time.perf_counter() - started
            self.attempted += 1
            if label != expected:
                self.fail(f"predict_text gave {label!r}, emord eval gave {expected!r}")
            elif record:
                self.sample("predict_ms", seconds * 1e3)
        n = len(texts)
        self.expect.update(
            {"infer.predict_text": n, "infer.predict_ids": n, "net.forward": n, "infer.decode_outputs": n}
        )

    def cli_predict(self, texts, record: bool) -> None:
        stdin = io.StringIO("".join(f"{text}\n" for text in texts))
        stdout = io.StringIO()
        saved = sys.stdin
        sys.stdin = stdin
        argv = ["-q", "predict", "--checkpoint", str(self.model_path)]
        try:
            with contextlib.redirect_stdout(stdout):
                code, _ = self.timed("cli_predict", lambda: cli.main(argv), record)
        finally:
            sys.stdin = saved
        self.attempted += 1
        n = len(texts)
        self.expect.update(
            {
                "cli.cmd_predict": 1,
                "checkpoint.load_checkpoint": 1,
                "infer.predict_text": n,
                "infer.predict_ids": n,
                "net.forward": n,
                "infer.decode_outputs": n,
            }
        )
        lines = stdout.getvalue().splitlines()
        if code != 0:
            self.fail(f"emord predict exited {code}")
        elif len(lines) != n:
            self.fail(f"emord predict printed {len(lines)} lines for {n} input lines")
        elif [json.loads(line).get("label") for line in lines] != self.reference[:n]:
            self.fail("emord predict labels differ from emord eval's")

    # ---------------------------------------------------------------- passes

    def use_model(self, ck) -> None:
        checkpoint.save_checkpoint(ck, self.model_path)
        self.model = ck

    def warm_up(self) -> None:
        """Run every phase once at reduced size, unrecorded."""
        corpus = self.corpora[0][1]
        config = replace(self.configs[0], epochs=1)
        warm = data.LabeledCorpus(corpus.records[: self.workload.warm_records])
        built = self.train_once(config, warm, quality=False)
        if built is None:
            raise RuntimeError("warm-up training failed")
        self.use_model(built[1].best)
        self.cli_eval(record=False)
        texts = self.texts[:50]
        self.predict_sweep(texts, record=False)
        self.cli_predict(texts, record=False)
        self.reference = None  # the warm-up model's labels are not the workload's
        self.samples.clear()

    def run_pass(self, build: bool) -> None:
        """One pass: a round per model trained if `build`, else one round.

        Each round trains (if building), then sets up, evaluates and predicts,
        so that every phase is sampled throughout the pass.
        """
        for i in range(len(self.corpora) if build else 1):
            if build:
                built = self.train_once(self.configs[i], self.corpora[i][1], quality=True)
                if i == 0 and built is not None:
                    self.use_model(built[1].best)
                    self.expect["checkpoint.save_checkpoint"] += 1
            self.run_round()

    def run_round(self) -> None:
        w = self.workload
        for _ in range(w.setups):
            if w.fixed_model:
                started = time.perf_counter()
                checkpoint.load_checkpoint(self.model_path)
                data.load_corpus(self.eval_tsv, "tsv", self.taxonomy)
                self.sample("setup_s", time.perf_counter() - started)
                self.expect.update({"checkpoint.load_checkpoint": 1, "data.load_corpus": 1})
            else:
                self.construct(self.configs[0], self.corpora[0][1])
        for _ in range(w.eval_reps):
            self.cli_eval(record=True)
        if self.reference is None:
            raise RuntimeError("no checked emord eval output to compare predictions with")
        first = len(self.samples.get("predict_ms", []))
        for _ in range(w.predict_reps):
            self.predict_sweep(self.texts, record=True)
        latencies = self.samples["predict_ms"][first:]
        self.sample("predict_ms_p99", statistics.quantiles(latencies, n=100, method="inclusive")[98])
        for start in range(0, len(latencies) - WINDOW + 1, WINDOW):
            self.sample("predict_ms_window_p50", statistics.median(latencies[start : start + WINDOW]))
        for _ in range(w.cli_predict_reps):
            self.cli_predict(self.texts, record=True)


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": statistics.median(values), "q3": q3}


def end_to_end(session: Session, peak_rss_mb: float) -> tuple[dict, dict]:
    """Metric values, plus the quartiles of the samples each came from."""
    s = session.samples
    n_train, n_eval, n_predict = session.train_examples, len(session.eval_corpus), len(session.texts)
    values = {
        "setup_s": statistics.median(s["setup_s"]),
        "train_examples_per_s": n_train / session.quiet("train"),
        # the loss and F1 of one model vary with its corpus; the mean over
        # the corpora is steadier than their median
        "final_train_loss": statistics.fmean(s["final_train_loss"]),
        "test_macro_f1": statistics.fmean(s["test_macro_f1"]),
        "eval_examples_per_s": n_eval / session.quiet("cli_eval"),
        # the median latency of a window of WINDOW calls, in the quiet windows
        "predict_ms_p50": fast(s["predict_ms_window_p50"]),
        # a burst of host load inflates one round's tail; the median over
        # rounds of each round's 99th percentile resists it
        "predict_ms_p99": statistics.median(s["predict_ms_p99"]),
        "predict_texts_per_s": n_predict / session.quiet("cli_predict"),
        "peak_rss_mb": peak_rss_mb,
    }
    # the same metrics from the plain medians, for the record only
    values["train_examples_per_s@median"] = n_train / statistics.median(s["train_s"])
    values["eval_examples_per_s@median"] = n_eval / statistics.median(s["cli_eval_s"])
    values["predict_ms_p50@median"] = statistics.median(s["predict_ms"])
    values["predict_texts_per_s@median"] = n_predict / statistics.median(s["cli_predict_s"])
    spread = {name: quartiles(v) for name, v in s.items() if ":" not in name}
    spread["quiet_s"] = {op: session.quiet(op) for op in session.shapes}
    return values, spread


def call_count_problems(tracer: spans.Tracer, expect: Counter) -> list[str]:
    """Compare each wrapped function's calls with what the pass's shape implies."""
    calls = tracer.calls()
    problems = [
        f"{name}: {calls.get(name, 0)} calls traced, workload shape implies {n}"
        for name, n in sorted(expect.items())
        if calls.get(name, 0) != n
    ]
    for module, attr, _ in spans.TARGETS:
        name = f"{module}.{attr}"
        if not calls.get(name):
            problems.append(f"{name}: no calls traced")
    return problems


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Warm up, make passes until `seconds` would be exceeded, and summarise."""
    session = Session(workload, seed, workdir)
    session.warm_up()
    started = time.perf_counter()
    walls: dict[bool, list[float]] = {False: [], True: []}
    layers: list[dict[str, float]] = []
    bindings: dict[str, list[str]] = {}
    index = 0
    while True:
        traced = trace and index % 2 == 1
        session.traced = traced
        session.expect.clear()
        tracer = spans.Tracer(run_id=f"{workload.name}-{seed}-{index}")
        pass_started = time.perf_counter()
        with tracer.installed() if traced else contextlib.nullcontext():
            session.run_pass(build=not workload.fixed_model or trace or index % RETRAIN_EVERY == 0)
        walls[traced].append(time.perf_counter() - pass_started)
        if traced:
            for problem in call_count_problems(tracer, session.expect):
                session.fail(problem)
            layers.append(spans.layer_metrics(tracer))
            bindings = tracer.bindings
        index += 1
        elapsed = time.perf_counter() - started
        if (not trace or index >= 2) and elapsed + walls[traced][-1] > seconds:
            break
    result = {
        "attempted": session.attempted,
        "failed": session.failed,
        "passes": index,
        "inputs_sha256": session.inputs,
        "pass_seconds": walls[False] + walls[True],
    }
    if trace:
        per_layer = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        untraced = statistics.median(walls[False])
        per_layer["trace.overhead_pct"] = 100.0 * (statistics.median(walls[True]) - untraced) / untraced
        result["metrics"] = per_layer
        result["bindings"] = bindings
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["metrics"], result["samples"] = end_to_end(session, peak_rss_mb)
    return result
