"""Supervised training loop with early stopping and checkpointing.

Each optimizer step takes one minibatch of `batch_size` examples (one by
default) through one batched forward and backward pass: every branch
encoder runs one recurrence over the batch's sequences. The step's
gradient is the *sum* of the per-example gradients, not their mean, so
the clip norm bounds the batch's summed gradient: at clip_norm 5 and
batch 32 about half of the steps are clipped. Every stochastic choice
(init, shuffling, dropout, negative downsampling) is driven by one seeded
stream, so a fixed seed reproduces the parameter trajectory bitwise on
one BLAS build and thread count (another thread count may split a product
differently and move the bits). Early stopping watches dev micro-F1; the
returned model is the best-dev checkpoint.
"""

from __future__ import annotations

import json
import math
import sys
import time
import warnings
from dataclasses import dataclass, field, fields
from itertools import zip_longest
from pathlib import Path
from typing import Sequence

import numpy as np

from .candidates import LabeledExample, TriggerLexicon
from .corpus import Corpus, LabelSet
from .errors import ConfigurationError, DataError, NumericError
from .evaluation import PRFReport, evaluate_model
from .fileio import check, header_and_payload, object_kind, read_fields, write_text_atomic
from .model import ModelConfig, NuggetModel, assemble_model, build_model
from .numerics import Optimizer, Rng, check_optimizer_hyperparameters

__all__ = [
    "TrainConfig",
    "EpochStat",
    "TrainLog",
    "train_model",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
]


@dataclass(frozen=True)
class TrainConfig(ModelConfig):
    """All hyperparameters for one run: the model's fields, then these.

    Flat, so config files stay flat; config keys and CLI flags are derived
    from these fields.
    """

    optimizer: str = "adam"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float | None = 5.0
    max_epochs: int = 50
    patience: int = 5
    batch_size: int = 1
    negative_ratio: float | None = None
    max_nugget_len: int = 3
    threshold: float = 0.5
    seed: int = 0

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})

    def validate(self) -> None:
        super().validate()
        check_optimizer_hyperparameters(
            self.optimizer, self.lr, self.beta1, self.beta2, self.eps, self.clip_norm
        )
        if self.max_epochs < 1 or self.batch_size < 1 or self.max_nugget_len < 1:
            raise ConfigurationError(
                "max_epochs, batch_size and max_nugget_len must be >= 1"
            )
        if self.patience < 0:
            raise ConfigurationError("patience must be >= 0")
        if self.negative_ratio is not None and not (
            math.isfinite(self.negative_ratio) and self.negative_ratio > 0
        ):
            raise ConfigurationError(
                f"negative_ratio must be finite and positive or unset, got {self.negative_ratio}"
            )
        if not 0.0 < self.threshold < 1.0:
            raise ConfigurationError(f"threshold must be in (0, 1), got {self.threshold}")


@dataclass
class EpochStat:
    epoch: int
    loss: float
    dev: PRFReport | None  # the epoch's dev score, None without a dev set
    seconds: float
    grad_norm_mean: float  # pre-clip global gradient norm over the epoch's steps
    grad_norm_max: float
    clip_rate: float  # fraction of steps whose gradient was clipped

    @property
    def dev_f1(self) -> float | None:
        return None if self.dev is None else self.dev.f1


@dataclass
class TrainLog:
    epochs: list[EpochStat] = field(default_factory=list)
    best_epoch: int | None = None

    def best_dev_f1(self) -> float | None:
        return None if self.best_epoch is None else self.epochs[self.best_epoch - 1].dev_f1

    def to_csv(self, timing: bool = False) -> str:
        """CSV rows `epoch,loss,dev_p,dev_r,dev_f1,seconds`.

        By default the seconds column is written as 0.000 so that logs from
        identically seeded runs are byte-identical; pass timing=True for
        real wall-clock values.
        """
        lines = ["epoch,loss,dev_p,dev_r,dev_f1,seconds"]
        for e in self.epochs:
            dev = (
                ",,"
                if e.dev is None
                else f"{e.dev.precision:.6f},{e.dev.recall:.6f},{e.dev.f1:.6f}"
            )
            secs = f"{e.seconds:.3f}" if timing else "0.000"
            lines.append(f"{e.epoch},{e.loss:.6f},{dev},{secs}")
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        lines = [
            f"{'epoch':>5} {'loss':>10} {'dev P':>8} {'dev R':>8} {'dev F1':>8} "
            f"{'|g| mean':>9} {'|g| max':>9} {'clip %':>7} {'sec':>7}"
        ]
        for e in self.epochs:
            if e.dev is None:
                dev = f"{'-':>8} {'-':>8} {'-':>8}"
            else:
                dev = f"{100 * e.dev.precision:8.2f} {100 * e.dev.recall:8.2f} {100 * e.dev.f1:8.2f}"
            grads = (
                f"{e.grad_norm_mean:>9.3f} {e.grad_norm_max:>9.3f} {100 * e.clip_rate:>7.2f}"
            )
            marker = " *" if e.epoch == self.best_epoch else ""
            lines.append(
                f"{e.epoch:>5} {e.loss:>10.4f} {dev} {grads} {e.seconds:>7.2f}{marker}"
            )
        return "\n".join(lines)


def _epoch_order(
    examples: Sequence[LabeledExample],
    rng: Rng,
    negative_ratio: float | None,
) -> list[int]:
    """Shuffled example indices, optionally downsampling non-events."""
    order = list(range(len(examples)))
    if negative_ratio is not None:
        positives = [i for i in order if examples[i].candidate.types]
        negatives = [i for i in order if not examples[i].candidate.types]
        rng.shuffle(negatives)
        keep = min(len(negatives), int(math.ceil(negative_ratio * len(positives))))
        order = positives + negatives[:keep]
    rng.shuffle(order)
    return order


def train_model(
    cfg: TrainConfig,
    train_examples: Sequence[LabeledExample],
    dev_examples: Sequence[LabeledExample] | None,
    dev_gold: Corpus | None,
    vocab: Sequence[str],
    labels: LabelSet,
    pretrained: dict[str, np.ndarray] | None = None,
) -> tuple[NuggetModel, TrainLog]:
    """Train on labeled candidates; return (best-dev model, log).

    Without a dev set early stopping is disabled (with a warning) and the
    final-epoch model is returned.
    """
    if not train_examples:
        raise ConfigurationError("training set is empty")
    if cfg.negative_ratio is not None and not any(ex.candidate.types for ex in train_examples):
        raise ConfigurationError(
            "negative_ratio keeps a multiple of the positive examples, and no "
            "training example is positive: every epoch would be empty"
        )
    has_dev = bool(dev_examples) and dev_gold is not None and len(dev_gold) > 0
    if not has_dev:
        warnings.warn("no dev set: early stopping disabled, returning final epoch")

    rng = Rng(cfg.seed)
    model = build_model(cfg.model_config(), list(vocab), labels, rng, pretrained)
    opt = Optimizer(
        model.store,
        kind=cfg.optimizer,
        lr=cfg.lr,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        eps=cfg.eps,
        clip_norm=cfg.clip_norm,
    )

    log = TrainLog()
    best_state: np.ndarray | None = None

    for epoch in range(1, cfg.max_epochs + 1):
        started = time.perf_counter()
        order = _epoch_order(train_examples, rng, cfg.negative_ratio)
        total_loss = 0.0
        steps = clipped = 0
        norm_sum = norm_max = 0.0
        # Gradients are zero here: the model starts with zero gradients and
        # every step is followed by zero_grads.
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_examples[i] for i in order[start : start + cfg.batch_size]]
            try:
                losses = model.forward_backward(
                    [ex.split for ex in batch], [ex.candidate.types for ex in batch], rng
                )
            except NumericError as e:
                ex = batch[e.position or 0]
                raise NumericError(
                    f"epoch {epoch}, example {order[start + (e.position or 0)]} "
                    f"(sentence {ex.sentence_index}, span {ex.candidate.span}): {e}"
                ) from e
            for loss in losses:
                total_loss += loss
            try:
                norm = opt.step()
            except NumericError as e:
                raise NumericError(f"epoch {epoch}: {e}") from e
            model.store.zero_grads()
            steps += 1
            norm_sum += norm
            norm_max = max(norm_max, norm)
            clipped += cfg.clip_norm is not None and norm > cfg.clip_norm
        mean_loss = total_loss / len(order)

        dev = evaluate_model(model, dev_examples, dev_gold, cfg.threshold) if has_dev else None
        seconds = time.perf_counter() - started
        log.epochs.append(
            EpochStat(
                epoch, mean_loss, dev, seconds, norm_sum / steps, norm_max, clipped / steps
            )
        )

        if dev is None:
            log.best_epoch = epoch
        else:
            if log.best_epoch is None or dev.f1 > log.epochs[log.best_epoch - 1].dev.f1:
                log.best_epoch = epoch
                if epoch < cfg.max_epochs:  # a later epoch may change the values
                    best_state = model.store.clone_values()
            if epoch - log.best_epoch >= cfg.patience:
                break

    if log.best_epoch != log.epochs[-1].epoch:  # so a snapshot was taken
        model.store.load_values(best_state)
    return model, log


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 4  # the only version `load_checkpoint` reads


def save_checkpoint(
    path: str | Path,
    model: NuggetModel,
    lexicon: TriggerLexicon | None = None,
    max_nugget_len: int | None = None,
    threshold: float = 0.5,
) -> None:
    """Self-describing checkpoint: one JSON header line, then every value.

    The header holds the config, labels, vocab, each tensor's shape by name
    in store order, the payload's byte count and, optionally, the trigger
    lexicon and candidate settings, so that prediction on a raw corpus needs
    nothing but the checkpoint. The payload is the flat parameter buffer as
    little-endian float64 bytes, so the round trip is exact by construction.
    A tensor holding NaN or Inf is a NumericError naming it, and nothing is
    written. Written atomically.
    """
    bad = model.store.first_nonfinite()
    if bad is not None:
        raise NumericError(f"cannot save tensor {bad!r}: it holds non-finite values")
    values = model.store.values.astype("<f8", copy=False)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "fbrnn-checkpoint",
        "config": model.cfg.to_dict(),
        "labels": list(model.labels.event_types),
        "vocab": model.embedder.word.words,
        "pipeline": {
            "lexicon": lexicon.to_dict() if lexicon is not None else None,
            "max_nugget_len": max_nugget_len,
            "threshold": threshold,
        },
        "tensors": {t.name: list(t.shape) for t in model.store},
        "payload_bytes": values.nbytes,
    }
    write_text_atomic(path, json.dumps(header) + "\n", memoryview(values))


@dataclass
class LoadedCheckpoint:
    model: NuggetModel
    lexicon: TriggerLexicon | None
    max_nugget_len: int | None
    threshold: float


def load_checkpoint(
    path: str | Path, expect: ModelConfig | None = None
) -> LoadedCheckpoint:
    """Rebuild a model from a checkpoint file, to exactly the bits saved.

    Reads version 4 only. Checks the header, builds the config's zero-filled
    model, and checks the header's tensor names (in store order), shapes and
    byte count and the payload's size against it, so a small file whose
    config asks for a larger model fails without touching that model's
    memory. Then the payload is read into the zero-filled flat buffer one
    `UPDATE_BLOCK` piece at a time, each piece checked for NaN or Inf while
    it is in cache (`ParamStore.first_nonfinite`). Rejects a header that is
    not UTF-8 JSON, a repeated key, a field of the wrong JSON kind (`labels`
    as a string, `tensors` as an array of pairs: nothing is converted),
    other versions, invalid configs, label sets, lexicons and pipeline
    settings, a model too large to allocate, (when `expect` is given) any
    other config, and a short or long payload, each as a DataError naming
    the file and the tensor or field. A file that fails leaves no partial
    model.
    """
    with header_and_payload(path, "checkpoint") as (header, open_payload):
        loaded = _from_header(header, path, expect)
        store = loaded.model.store
        read_into = open_payload(store.values.nbytes)

        def fill(piece: np.ndarray) -> None:
            read_into(piece)
            if sys.byteorder == "big":  # the payload is little-endian
                piece.byteswap(inplace=True)

        bad = store.first_nonfinite(fill)
    if bad is not None:
        raise DataError(f"{path}: tensor {bad!r} holds non-finite values")
    return loaded


_HEADER = object_kind("", ("config", dict), ("labels", list[str]), ("vocab", list[str]),
                      ("pipeline", dict, {}), ("tensors", dict), ("payload_bytes", int))
_PIPELINE = object_kind("", ("lexicon", dict | None, None), ("max_nugget_len", int | None, None),
                        ("threshold", float, 0.5))


def _from_header(header, path, expect: ModelConfig | None) -> LoadedCheckpoint:
    """The checked header's settings and zero-filled model."""
    if not isinstance(header, dict) or header.get("kind") != "fbrnn-checkpoint":
        raise DataError(f"{path}: not a model checkpoint")
    version = header.get("format_version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version!r}")
    config, label_names, vocab, pipeline, shapes, payload_bytes = read_fields(header, _HEADER, path)
    where = f"{path}: pipeline"
    lex, max_nugget_len, threshold = read_fields(pipeline, _PIPELINE, where)
    lexicon = None if lex is None else TriggerLexicon.from_dict(lex, f"{where}: lexicon")
    if max_nugget_len is not None and max_nugget_len < 1:
        raise DataError(f"{where}: max_nugget_len must be >= 1 or null, got {max_nugget_len}")
    if not 0.0 < threshold < 1.0:
        raise DataError(f"{where}: threshold must be in (0, 1), got {threshold!r}")
    try:
        cfg = ModelConfig.from_dict(config)
        labels = LabelSet(label_names)
        if expect is not None and cfg != expect:
            raise DataError(
                f"{path}: checkpoint config does not match the requested run "
                f"(checkpoint {cfg}, expected {expect})"
            )
        model = assemble_model(cfg, vocab, labels, rng=None)  # zero-filled: no page touched
    except ConfigurationError as e:
        raise DataError(f"{path}: malformed checkpoint: {e}") from e
    except MemoryError as e:
        raise DataError(f"{path}: malformed checkpoint: the model is too large to allocate") from e
    for i, (listed, name) in enumerate(zip_longest(shapes, model.store.names())):
        if listed != name:
            raise DataError(f"{path}: tensor {i} is {listed!r}, the model's is {name!r}")
    for t in model.store:
        shape = check(shapes[t.name], list[int], f"{path}: tensor {t.name!r}: field 'shape'")
        if shape != list(t.shape):
            raise DataError(f"{path}: tensor {t.name!r} has shape {shape}, not {list(t.shape)}")
    if payload_bytes != model.store.values.nbytes:
        raise DataError(
            f"{path}: field 'payload_bytes' is {payload_bytes}, not {model.store.values.nbytes}"
        )
    return LoadedCheckpoint(model, lexicon, max_nugget_len, threshold)
