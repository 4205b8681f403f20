#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of fbrnn.

Run from the repository root:

    python3 perfbench/run.py --workload train-vocab20k --seed 1 --seconds 25 --trace 0

The run sets up the workload's inputs three times (set-up time is their
median), then repeats rounds of the user pipeline (train with dev
evaluation, then one or more passes that save or reload a checkpoint
and predict in bulk and per sentence) while the next round is predicted
to finish within --seconds; at least one round always runs. Each round
is identical, so rounds also check determinism, and every repeated piece
of work is timed by the median of its repeats. Timings are calibrated
CPU time (calibration.py). The last line of standard output is one JSON
object: end-to-end metrics with --trace 0, per-layer metrics from the
wrapped library with --trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUPS = 3
BULK_SLICE = 512  # examples per bulk predict_examples call
MIN_BULK_SLICES = 8
ONLINE_CALLS_PER_BURST = 10
CHECKPOINT_REPS = 15  # small checkpoints are saved and loaded up to this often
CHECKPOINT_REP_SECONDS = 3.0
BRACKET_S = {"setup": 0.05, "train": 0.05, "checkpoint": 0.15}  # bursts around long calls
MAX_PROBABILITY_CHECKS = 256

END_TO_END = {
    "setup_s": "s",
    "train_examples_per_s": "ex/s",
    "train_loss": "nats",
    "dev_f1": "ratio",
    "infer_examples_per_s": "ex/s",
    "infer_sentence_ms_p50": "ms",
    "infer_sentence_ms_p99": "ms",
    "checkpoint_save_s": "s",
    "checkpoint_load_s": "s",
    "checkpoint_bytes": "B",
    "peak_rss_mb": "MB",
}


def _import_fbrnn() -> None:
    """Make the checkout's own sources importable, and nothing else."""
    src = ROOT / "src"
    if not (src / "fbrnn" / "__init__.py").is_file():
        sys.exit(f"perfbench: fbrnn sources not found under {src}")
    sys.path.insert(0, str(src))
    import fbrnn

    if Path(fbrnn.__file__).resolve().parent != (src / "fbrnn").resolve():
        sys.exit(f"perfbench: imported fbrnn from {fbrnn.__file__}, not from {src}")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    nproc = len(os.sched_getaffinity(0))
    return {
        "cores": os.cpu_count(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "machine": "shared with other workloads; the benchmark sets no CPU affinity",
    }


def _blas_threads() -> int | None:
    """OpenBLAS thread count from the library numpy has loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100)[q - 1]


class Counter:
    """Operations attempted and failed across the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, ok: bool, n: int, reason: str) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            self.reasons.append(reason)


class StepClock:
    """Timestamps and calibrates every optimizer step.

    This is the only hook in an untraced run. After each Optimizer.step it
    reads the clock and runs calibration bursts, so the training rate can
    use calibrated per-step intervals. The bursts lie outside every
    interval they calibrate.
    """

    def __init__(self, calibrator, span) -> None:
        self.calibrator = calibrator
        self.span = span  # context factory that keeps bursts out of traced layers
        self.step_ends: list[float] = []
        self.burst_ends: list[float] = []

    def install(self) -> None:
        from calibration import now
        from fbrnn import numerics

        original = numerics.Optimizer.step
        clock = self

        def step(optimizer):
            norm = original(optimizer)
            clock.step_ends.append(now())
            with clock.span("bench.calibrate"):
                clock.calibrator.burst()
            clock.burst_ends.append(now())
            return norm

        numerics.Optimizer.step = step


class Samples:
    """Calibrated timings of the same work, repeated across passes and rounds.

    Each repeated piece of work (one optimizer step, one bulk slice, one
    sentence) is represented by the median of its repeats; metrics are
    medians or percentiles over those.
    """

    def __init__(self) -> None:
        self.steps: dict[int, list[float]] = {}
        self.train_outside: list[float] = []
        self.saves: list[float] = []
        self.loads: list[float] = []
        self.slices: dict[int, list[float]] = {}
        self.sentences: dict[int, list[float]] = {}
        self.online_calls = 0  # cursor over sentences, continued across passes

    @staticmethod
    def add(table: dict[int, list[float]], key: int, seconds: float) -> None:
        table.setdefault(key, []).append(seconds)

    @staticmethod
    def typical(table: dict[int, list[float]]) -> list[float]:
        return [statistics.median(table[k]) for k in sorted(table)]


def one_round(w, inputs, ops: Counter, workdir: Path, span, clock: StepClock,
              samples: Samples) -> dict:
    """Train once, then checkpoint and predict `w.passes` times; return outputs."""
    import numpy as np
    from calibration import now
    from fbrnn import evaluation, training
    from workloads import MAX_NUGGET_LEN

    cfg = inputs.config
    calib = clock.calibrator
    first_step = len(clock.step_ends)
    calib.bracket(BRACKET_S["train"])
    started = now()
    model, log = training.train_model(
        cfg, inputs.train_examples, inputs.dev_examples, inputs.dev, inputs.vocab, inputs.labels
    )
    ended = now()
    calib.bracket(BRACKET_S["train"])
    # Step i's interval runs from the bursts after step i to the end of
    # step i + 1. The rest of train_model (model build, first step, dev
    # evaluation) is calibrated as two stretches.
    steps = clock.step_ends[first_step:]
    bursts = clock.burst_ends[first_step:]
    for i, (b, e) in enumerate(zip(bursts, steps[1:])):
        samples.add(samples.steps, i, calib.seconds(b, e))
    samples.train_outside.append(
        calib.seconds(started, steps[0]) + calib.seconds(bursts[-1], ended)
    )
    n_steps = math.ceil(len(inputs.train_examples) / cfg.batch_size) * len(log.epochs)
    loss, dev_f1 = log.epochs[-1].loss, log.epochs[-1].dev_f1
    ops.check(math.isfinite(loss), n_steps, f"non-finite training loss {loss!r}")
    ops.check(len(steps) == n_steps, 1, "optimizer steps differ from batches")

    # Bulk prediction makes one pass over the inference set in equal slices
    # of at most BULK_SLICE examples, each slice one predict_examples call.
    # Per-sentence calls are interleaved between slices, so both phases
    # sample the same stretch of time on the shared machine.
    examples = inputs.infer_examples
    size = math.ceil(len(examples) / max(MIN_BULK_SLICES, math.ceil(len(examples) / BULK_SLICE)))
    slices = [examples[i : i + size] for i in range(0, len(examples), size)]
    groups: dict[int, list] = {}
    for ex in examples:
        groups.setdefault(ex.sentence_index, []).append(ex)
    per_sentence = list(groups.values())
    n_online = max(w.online_samples, len(per_sentence))

    path = workdir / "checkpoint.json"
    passes: list[list] = []
    online: dict[int, list] = {}
    for first_pass in [True] + [False] * (w.passes - 1):
        # Checkpoint: the first pass saves and reloads, later passes reload
        # the same file; repeated while cheap. Each call lies between two
        # brackets of bursts; adjacent calls share one.
        reps = 0
        ckpt_started = time.perf_counter()
        calib.bracket(BRACKET_S["checkpoint"])
        while not reps or (
            reps < CHECKPOINT_REPS
            and time.perf_counter() - ckpt_started < CHECKPOINT_REP_SECONDS
        ):
            if first_pass:
                t0 = now()
                training.save_checkpoint(
                    path, model, inputs.lexicon, MAX_NUGGET_LEN, cfg.threshold
                )
                t1 = now()
                calib.bracket(BRACKET_S["checkpoint"])
                ops.attempted += 1  # a failed save or load raises and ends the run
            t2 = now()
            loaded = training.load_checkpoint(path, expect=cfg.model_config())
            t3 = now()
            calib.bracket(BRACKET_S["checkpoint"])
            if first_pass:
                samples.saves.append(calib.seconds(t0, t1))
            samples.loads.append(calib.seconds(t2, t3))
            ops.attempted += 1
            reps += 1
        served = loaded.model

        bulk: list = []
        timings: list[tuple[dict, int, float, float]] = []  # calibrated once bursts follow
        with span("bench.inference"):
            target = samples.online_calls
            for k, part in enumerate(slices):
                calib.burst()
                t0 = now()
                preds = evaluation.predict_examples(served, part, loaded.threshold)
                timings.append((samples.slices, k, t0, now()))
                calib.burst()
                bulk.extend(preds)
                target += n_online * (k + 1) // len(slices) - n_online * k // len(slices)
                calls = 0
                while samples.online_calls < target:
                    if calls % ONLINE_CALLS_PER_BURST == ONLINE_CALLS_PER_BURST - 1:
                        calib.burst()
                    j = samples.online_calls % len(per_sentence)
                    t0 = now()
                    preds = evaluation.predict_examples(served, per_sentence[j], loaded.threshold)
                    timings.append((samples.sentences, j, t0, now()))
                    online.setdefault(j, preds)
                    samples.online_calls += 1
                    calls += 1
            calib.burst()
        for table, key, t0, t1 in timings:
            samples.add(table, key, calib.seconds(t0, t1))
        passes.append(bulk)
    ckpt_bytes = path.stat().st_size
    path.unlink()

    # Output checks, outside every timed interval.
    bulk = passes[0]
    ops.check(all(p == bulk for p in passes), len(passes) - 1, "bulk passes disagree")
    covered = [p for j in sorted(online) for p in online[j]]
    ops.check(
        len(online) == len(per_sentence) and covered == bulk,
        len(per_sentence),
        "per-sentence predictions differ from bulk",
    )
    stride = max(1, len(examples) // MAX_PROBABILITY_CHECKS)
    for ex in examples[::stride]:
        p_loaded = served.predict_proba(ex.split)
        p_memory = model.predict_proba(ex.split)
        ops.check(bool(np.isfinite(p_loaded).all()), 1, "non-finite probability")
        ops.check(
            p_loaded.tobytes() == p_memory.tobytes(),
            1,
            "reloaded checkpoint predicts differently from the in-memory model",
        )
    ops.attempted += len(examples) * len(passes)  # bulk predictions; mismatches counted above

    return {
        "trained_examples": len(inputs.train_examples) * len(log.epochs),
        "train_loss": loss,
        "dev_f1": dev_f1,
        "checkpoint_bytes": ckpt_bytes,
        "slice_sizes": [len(part) for part in slices],
        "predictions": [[p.sentence, p.start, p.end, list(p.types)] for p in bulk],
    }


def end_to_end(setup_times: list[float], rounds: list[dict], samples: Samples) -> dict:
    # The step loop counts as its trimmed mean step (the fastest and the
    # slowest tenth of steps left out) times its number of steps.
    steps = sorted(samples.typical(samples.steps))
    cut = len(steps) // 10
    loop_s = statistics.fmean(steps[cut : len(steps) - cut]) * len(steps) if steps else 0.0
    train_s = loop_s + statistics.median(samples.train_outside)
    sentences = samples.typical(samples.sentences)
    sizes = rounds[0]["slice_sizes"]
    return {
        "setup_s": statistics.median(setup_times),
        "train_examples_per_s": rounds[0]["trained_examples"] / train_s,
        "train_loss": rounds[0]["train_loss"],
        "dev_f1": rounds[0]["dev_f1"],
        "infer_examples_per_s": statistics.median(
            n / t for n, t in zip(sizes, samples.typical(samples.slices))
        ),
        "infer_sentence_ms_p50": 1000 * statistics.median(sentences),
        "infer_sentence_ms_p99": 1000 * _percentile(sentences, 99),
        "checkpoint_save_s": statistics.median(samples.saves),
        "checkpoint_load_s": statistics.median(samples.loads),
        "checkpoint_bytes": rounds[0]["checkpoint_bytes"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, rounds: list[dict], traffic: dict, e2e: dict) -> dict:
    """Per-layer (value, unit) pairs from the wrapped run, per round unless noted."""
    t = tracer
    n = len(rounds)
    steps = t.calls("numerics.optimizer_step")
    norms = t.values["grad_norm"]
    saves = t.calls("training.save_checkpoint")
    loads = t.calls("training.load_checkpoint")
    train, save, predict = "training.train_model", "training.save_checkpoint", "evaluation.predict_examples"
    write_in_save = t.total("fileio.write_text_atomic", save)
    out = {
        "numerics.adam_update_s": (t.total("numerics.adam_step") / n, "s"),
        "numerics.clip_s": (t.total("numerics.clip_gradients") / n, "s"),
        "numerics.zero_grads_s": (t.total("numerics.zero_grads") / n, "s"),
        "numerics.optimizer_step_s": (t.total("numerics.optimizer_step") / n, "s"),
        "numerics.clone_values_s": (t.total("numerics.clone_values") / n, "s"),
        "numerics.optimizer_steps": (steps / n, "count"),
        "numerics.adam_elements_per_step": (t.counts["adam_elements"] / steps, "count"),
        "numerics.grad_norm_mean": (statistics.fmean(norms), "norm"),
        "numerics.grad_norm_max": (max(norms), "norm"),
        "numerics.clip_rate": (t.counts["clipped_steps"] / steps, "ratio"),
        "model.encode.left_s": (t.total("model.encode.left") / n, "s"),
        "model.encode.nugget_s": (t.total("model.encode.nugget") / n, "s"),
        "model.encode.right_s": (t.total("model.encode.right") / n, "s"),
        "model.encoder_backprop_s": (t.total("model.encoder_backprop") / n, "s"),
        "model.encode_tokens": (t.counts["encode_tokens"] / n, "count"),
        "model.head_forward_s": (t.total("model.head_forward") / n, "s"),
        "model.head_backprop_s": (t.total("model.head_backprop") / n, "s"),
        "model.forward_backward_self_s": (t.self_time("model.forward_backward") / n, "s"),
        "model.assemble_s": (t.total("model.assemble_model", "training.load_checkpoint") / loads, "s"),
        "embeddings.assemble_input_s": (t.total("embeddings.assemble_input") / n, "s"),
        "embeddings.assemble_input_calls": (t.calls("embeddings.assemble_input") / n, "count"),
        "embeddings.accumulate_grad_s": (t.total("embeddings.accumulate_grad") / n, "s"),
        "candidates.build_examples_s": (t.total("candidates.build_examples") / SETUPS, "s"),
        "candidates.per_sentence": (traffic["candidates_per_sentence"], "count"),
        "candidates.gold_aligned_ratio": (traffic["gold_aligned_ratio"], "ratio"),
        "corpus.generate_s": (t.total("corpus.make_synthetic_corpus") / SETUPS, "s"),
        "corpus.tokens_per_sentence": (traffic["tokens_per_sentence"], "count"),
        "training.checkpoint_serialize_s": ((t.total(save) - write_in_save) / saves, "s"),
        "fileio.write_s": (write_in_save / saves, "s"),
        "fileio.bytes_written": (t.counts["bytes_written"] / saves, "B"),
        "training.load_checkpoint_self_s": (t.self_time("training.load_checkpoint") / loads, "s"),
        "evaluation.evaluate_model_s": (t.total("evaluation.evaluate_model") / n, "s"),
        "evaluation.predict_examples_s": (t.total(predict) / n, "s"),
        "evaluation.score_s": (t.total("evaluation.score") / n, "s"),
        "training.train_model_self_s": (t.self_time(train) / n, "s"),
        "share.numerics_in_train": (t.layer_self("numerics", train) / t.phase_total(train), "ratio"),
        "share.model_embeddings_in_train": (
            (t.layer_self("model", train) + t.layer_self("embeddings", train)) / t.phase_total(train),
            "ratio",
        ),
        "share.model_embeddings_in_predict": (
            (t.layer_self("model", predict) + t.layer_self("embeddings", predict))
            / t.phase_total(predict),
            "ratio",
        ),
        "trace.train_examples_per_s": (e2e["train_examples_per_s"], "ex/s"),
        "trace.infer_examples_per_s": (e2e["infer_examples_per_s"], "ex/s"),
        "trace.infer_sentence_ms_p50": (e2e["infer_sentence_ms_p50"], "ms"),
    }
    for layer in ("training", "numerics", "model", "embeddings", "evaluation"):
        out[f"selftime.train.{layer}_s"] = (t.layer_self(layer, train) / n, "s")
    for layer in ("evaluation", "model", "embeddings"):
        out[f"selftime.predict.{layer}_s"] = (t.layer_self(layer, predict) / n, "s")
    return out


def print_trace_overhead(untraced_record: Path, traced: dict) -> None:
    """Tracing overhead: traced end-to-end numbers against an untraced run
    of the same workload and seed, when one was recorded in this checkout."""
    if not untraced_record.is_file():
        print("trace overhead: no untraced run of this workload and seed recorded")
        return
    untraced = json.loads(untraced_record.read_text(encoding="utf-8"))["metrics"]
    for name, value in traced.items():
        if name in untraced and name != "peak_rss_mb":
            base = untraced[name]["value"]
            gap = f"{100 * (value - base) / base:+.1f}%" if base else "n/a"
            print(f"trace overhead: {name} {value:.6g} traced vs {base:.6g} untraced ({gap})")


def set_up(w, seed: int, scale: float):
    """Generate the inputs and build the model train_model starts from."""
    import workloads
    from fbrnn import model
    from fbrnn.numerics import Rng

    inputs = workloads.generate(w, seed, scale)
    cfg = inputs.config
    model.build_model(cfg.model_config(), inputs.vocab, inputs.labels, Rng(cfg.seed))
    return inputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every input size (the smoke test runs a tiny scale)",
    )
    args = parser.parse_args(argv)

    _import_fbrnn()
    import workloads
    from calibration import Calibrator

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]

    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, clip_norm=workloads.CLIP_NORM)
        span = tracer.span
    calib = Calibrator()
    clock = StepClock(calib, span)
    clock.install()

    env = environment()
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    ops = Counter()
    samples = Samples()
    try:
        setup_times = []
        for _ in range(SETUPS):
            with span("bench.setup"):
                inputs, seconds = calib.timed(BRACKET_S["setup"], set_up, w, args.seed, args.scale)
                setup_times.append(seconds)
        traffic = workloads.traffic(inputs)

        rounds: list[dict] = []
        measure_start = time.perf_counter()
        while True:
            if tracer:
                tracer.round = len(rounds)
            t0 = time.perf_counter()
            with span("bench.round"):
                rounds.append(one_round(w, inputs, ops, workdir, span, clock, samples))
            last = time.perf_counter() - t0
            if time.perf_counter() - measure_start + last > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = rounds[0]
    same = all(
        (r["train_loss"], r["dev_f1"], r["predictions"])
        == (first["train_loss"], first["dev_f1"], first["predictions"])
        for r in rounds
    )
    ops.check(same, len(rounds) - 1, "rounds of one run disagree")
    digest = hashlib.sha256(
        json.dumps(
            [repr(first["train_loss"]), repr(first["dev_f1"]), first["predictions"]]
        ).encode()
    ).hexdigest()

    e2e = end_to_end(setup_times, rounds, samples)
    if tracer:
        tracer.restore()
        layered = per_layer(tracer, rounds, traffic, e2e)
        metrics = {k: v for k, (v, _) in layered.items()}
        units = {k: u for k, (_, u) in layered.items()}
        tracer.write(OUT / f"spans-{tag}.json")
    else:
        metrics = e2e
        units = dict(END_TO_END)
    correct = ops.failed == 0

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  rounds {len(rounds)}")
    print("why: " + w.why)
    print("traffic: " + json.dumps(traffic))
    print("env: " + json.dumps(env))
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")
    print(f"  {'failed_ratio':<36} {ops.failed / ops.attempted:>16.6g} ratio")
    for reason in sorted(set(ops.reasons)):
        print("FAILED: " + reason)
    if tracer:
        print_trace_overhead(OUT / f"result-{w.name}-seed{args.seed}-trace0.json", e2e)
    print(f"digest sha256:{digest}")

    result = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {**result, "workload": w.name, "seed": args.seed, "trace": args.trace,
              "rounds": len(rounds), "digest": digest, "traffic": traffic, "env": env}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
