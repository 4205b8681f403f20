"""In-memory tracer that wraps fbrnn's public functions from outside.

Coarse boundaries (the training loop, the optimizer step,
forward_backward, predict_examples, checkpoint calls) become spans with a
name, start, end, parent and round id. Per-token calls (assemble_input,
encode, adam_step, ...) only accumulate a call count and time. Every
wrapped call takes part in self-time accounting: a call's self time is
its duration minus the time of wrapped calls nested inside it.

Times are attributed to a phase, the outermost wrapped call outside the
benchmark's own spans (train_model, predict_examples, save_checkpoint,
...), so a layer's share of one phase can be computed.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_LAYER = "bench"


@dataclass
class Acc:
    calls: int = 0
    total: float = 0.0
    self: float = 0.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.acc: dict[tuple[str, str], Acc] = defaultdict(Acc)  # (name, phase)
        self.layer_of: dict[str, str] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.round = 0
        self._stack: list[list] = []  # [start, child_time, phase, span_index]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def _enter(self, name: str, layer: str, span: bool) -> list:
        parent = self._stack[-1] if self._stack else None
        phase = parent[2] if parent and parent[2] else (None if layer == BENCH_LAYER else name)
        idx = None
        if span:
            parent_span = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            idx = len(self.spans)
            self.spans.append(
                {"name": name, "layer": layer, "round": self.round, "parent": parent_span}
            )
        frame = [0.0, 0.0, phase, idx]
        self._stack.append(frame)
        frame[0] = time.perf_counter()
        return frame

    def _exit(self, frame: list, name: str, layer: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame[0]
        self.layer_of[name] = layer
        acc = self.acc[(name, frame[2] or name)]
        acc.calls += 1
        acc.total += dur
        acc.self += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        if frame[3] is not None:
            self.spans[frame[3]].update(start=frame[0], end=end)

    def span(self, name: str):
        """Context manager for the benchmark's own spans (setup, round, ...)."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.frame = tracer._enter(name, BENCH_LAYER, True)

            def __exit__(self, *exc):
                tracer._exit(self.frame, name, BENCH_LAYER)

        return _Span()

    # -- wrapping -----------------------------------------------------

    def wrap(
        self,
        owners: list,
        attr: str,
        name: str | Callable[..., str],
        layer: str,
        span: bool = False,
        after: Callable | None = None,
    ) -> None:
        """Replace `attr` on every owner (module or class) with a timed wrapper.

        `name` may be a function of the call's arguments. `after(tracer,
        args, result)` runs outside the timed interval of the call itself.
        """
        original = getattr(owners[0], attr)
        tracer = self

        def wrapper(*args, **kwargs):
            n = name(*args) if callable(name) else name
            frame = tracer._enter(n, layer, span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame, n, layer)
            if after is not None:
                after(tracer, args, result)
            return result

        for owner in owners:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the function being traced")
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- queries ------------------------------------------------------

    def total(self, name: str, phase: str | None = None) -> float:
        return sum(a.total for (n, p), a in self.acc.items() if n == name and phase in (None, p))

    def calls(self, name: str, phase: str | None = None) -> int:
        return sum(a.calls for (n, p), a in self.acc.items() if n == name and phase in (None, p))

    def self_time(self, name: str, phase: str | None = None) -> float:
        return sum(a.self for (n, p), a in self.acc.items() if n == name and phase in (None, p))

    def layer_self(self, layer: str, phase: str | None = None) -> float:
        return sum(
            a.self
            for (n, p), a in self.acc.items()
            if self.layer_of[n] == layer and phase in (None, p)
        )

    def phase_total(self, phase: str) -> float:
        """Wall time of the top-level calls that opened `phase`, less the
        benchmark's own spans inside them (calibration bursts)."""
        bench = sum(
            a.total
            for (n, p), a in self.acc.items()
            if p == phase and n != phase and self.layer_of[n] == BENCH_LAYER
        )
        return self.acc[(phase, phase)].total - bench

    def write(self, path: Path) -> None:
        """Write spans and accumulators as one JSON document."""
        data = {
            "spans": self.spans,
            "accumulators": [
                {"name": n, "layer": self.layer_of[n], "phase": p, **vars(a)}
                for (n, p), a in sorted(self.acc.items())
            ],
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")


def install(tracer: Tracer, clip_norm: float) -> None:
    """Wrap the public functions of each fbrnn layer."""
    from fbrnn import candidates, corpus, embeddings, evaluation, fileio, model, numerics, training

    def count(key: str, amount: Callable):
        def after(t, args, result):
            t.counts[key] += amount(args, result)
        return after

    def on_step(t, args, norm):
        t.values["grad_norm"].append(norm)
        t.counts["clipped_steps"] += norm > clip_norm

    def on_write(t, args, result):
        t.counts["bytes_written"] += Path(args[0]).stat().st_size

    def encode_name(encoder, vectors):
        return f"model.encode.{encoder.branch.name.lower()}"

    w = tracer.wrap
    # corpus / candidates: set-up
    w([corpus], "make_synthetic_corpus", "corpus.make_synthetic_corpus", "corpus", span=True)
    w([candidates], "build_examples", "candidates.build_examples", "candidates", span=True)
    # embeddings: per token
    w([embeddings.Embedder], "assemble_input", "embeddings.assemble_input", "embeddings")
    w([embeddings.Embedder], "accumulate_grad", "embeddings.accumulate_grad", "embeddings")
    # model
    w([model.BranchEncoder], "encode", encode_name, "model",
      after=count("encode_tokens", lambda a, r: len(a[1])))
    w([model.BranchEncoder], "backprop", "model.encoder_backprop", "model")
    w([model.Head], "forward", "model.head_forward", "model")
    w([model.Head], "backprop", "model.head_backprop", "model")
    w([model.NuggetModel], "forward", "model.forward", "model")
    w([model.NuggetModel], "predict", "model.predict", "model")
    w([model.NuggetModel], "forward_backward", "model.forward_backward", "model", span=True)
    w([model], "build_model", "model.build_model", "model", span=True)
    w([model, training], "assemble_model", "model.assemble_model", "model")
    # numerics
    w([numerics.Optimizer], "step", "numerics.optimizer_step", "numerics", span=True,
      after=on_step)
    w([numerics], "clip_gradients", "numerics.clip_gradients", "numerics")
    w([numerics], "adam_step", "numerics.adam_step", "numerics",
      after=count("adam_elements", lambda a, r: a[0].size))
    w([numerics.ParamStore], "zero_grads", "numerics.zero_grads", "numerics")
    w([numerics.ParamStore], "clone_values", "numerics.clone_values", "numerics")
    # training
    w([training], "train_model", "training.train_model", "training", span=True)
    w([training], "save_checkpoint", "training.save_checkpoint", "training", span=True)
    w([training], "load_checkpoint", "training.load_checkpoint", "training", span=True)
    # evaluation
    w([evaluation, training], "evaluate_model", "evaluation.evaluate_model", "evaluation",
      span=True)
    w([evaluation], "predict_examples", "evaluation.predict_examples", "evaluation",
      span=True)
    w([evaluation], "score", "evaluation.score", "evaluation")
    # fileio
    w([fileio, training], "write_text_atomic", "fileio.write_text_atomic", "fileio",
      span=True, after=on_write)
