"""Span-level micro precision/recall/F1 and the ablation protocol runner.

The match rule is the strictest view: a predicted (sentence, span, type)
triple is a true positive iff an identical gold triple exists. Multi-typed
gold mentions contribute one triple per type, so predicting one of two
gold types earns partial recall credit. A relaxed span-only mode drops the
type from the triples.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from itertools import chain, groupby
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .candidates import LabeledExample, build_datasets
from .corpus import Corpus
from .errors import ConfigurationError, DataError, FBRNNError
from .model import NuggetModel

__all__ = [
    "PRFReport",
    "PredictedNugget",
    "score",
    "f1",
    "predict_examples",
    "evaluate_model",
    "AblationCell",
    "AblationGrid",
    "run_ablation",
]


@dataclass(frozen=True)
class PRFReport:
    true_positives: int
    predicted_count: int
    gold_count: int

    @property
    def precision(self) -> float:
        return self.true_positives / self.predicted_count if self.predicted_count else 0.0

    @property
    def recall(self) -> float:
        return self.true_positives / self.gold_count if self.gold_count else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if (p + r) else 0.0

    def as_dict(self) -> dict:
        return {
            "tp": self.true_positives,
            "pred": self.predicted_count,
            "gold": self.gold_count,
            "p": self.precision,
            "r": self.recall,
            "f1": self.f1,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    def format_line(self) -> str:
        return (
            f"P: {100 * self.precision:6.2f} ({self.true_positives}/{self.predicted_count})  "
            f"R: {100 * self.recall:6.2f} ({self.true_positives}/{self.gold_count})  "
            f"F1: {100 * self.f1:6.2f}"
        )


@dataclass(frozen=True)
class PredictedNugget:
    """A predicted span with at least one event type."""

    sentence: int
    start: int
    end: int
    types: tuple[str, ...]


def score(
    predicted: Iterable[PredictedNugget],
    gold: Corpus,
    span_only: bool = False,
) -> PRFReport:
    """Micro P/R/F1 over pooled (sentence, span, type) triples."""
    pred_triples = set()
    duplicates = 0
    for p in predicted:
        if not p.types:
            raise DataError(
                f"non-event prediction passed to scorer "
                f"(sentence {p.sentence}, span ({p.start},{p.end}))"
            )
        for key in _triples(p.sentence, p.start, p.end, p.types, span_only):
            if key in pred_triples:
                duplicates += 1
            pred_triples.add(key)
    if duplicates:
        warnings.warn(f"deduplicated {duplicates} identical predicted triples")

    gold_triples = {
        key
        for sid, sentence in enumerate(gold)
        for n in sentence.nuggets
        for key in _triples(sid, n.start, n.end, n.types, span_only)
    }
    tp = len(pred_triples & gold_triples)
    return PRFReport(tp, len(pred_triples), len(gold_triples))


def _triples(sentence: int, start: int, end: int, types: tuple[str, ...], span_only: bool):
    """The keys one nugget counts under: its span, or its span with each type."""
    return [(sentence, start, end)] if span_only else [(sentence, start, end, t) for t in types]


def f1(p: float, r: float) -> float:
    """Harmonic mean of percentage precision/recall, rounded for display."""
    if not (0.0 <= p <= 100.0 and 0.0 <= r <= 100.0):
        raise ConfigurationError(f"percentages out of range: p={p}, r={r}")
    if p + r == 0.0:
        return 0.0
    return round(2.0 * p * r / (p + r), 2)


BLOCK_TOKENS = 4096  # sentence tokens per model call: bounds the memory one call holds


def predict_examples(
    model: NuggetModel,
    examples: Sequence[LabeledExample],
    threshold: float = 0.5,
) -> list[PredictedNugget]:
    """Model predictions over candidate examples, non-events dropped.

    Each run of consecutive examples with the same sentence index and the
    same tokens is one group of `NuggetModel.batch_proba`, which shares one
    LEFT and one RIGHT encoder pass among a group's candidates. Runs are
    packed in order into blocks whose sentences hold at most BLOCK_TOKENS
    tokens in all (a longer sentence's run is a block of its own), so a
    block's memory and its rows per recurrent step scale with its tokens.
    Each block is one `batch_proba` call and one `decode` call. The
    probabilities are those of `predict_proba` example by example up to
    summation order (within 1e-12).
    """
    out = []
    for block in _blocks(examples):
        probs = model.batch_proba([[ex.split for ex in run] for run in block])
        out += [
            PredictedNugget(ex.sentence_index, ex.candidate.start, ex.candidate.end, types)
            for ex, types in zip(chain.from_iterable(block), model.decode(probs, threshold))
            if types
        ]
    return out


def _blocks(examples: Sequence[LabeledExample]) -> Iterator[list[list[LabeledExample]]]:
    """The runs of `predict_examples`, packed in order into blocks."""
    block: list[list[LabeledExample]] = []
    size = 0
    for _, run in groupby(examples, key=_SENTENCE_KEY):
        run = list(run)
        tokens = len(run[0].split.tokens)
        if block and size + tokens > BLOCK_TOKENS:
            yield block
            block, size = [], 0
        block.append(run)
        size += tokens
    if block:
        yield block


_SENTENCE_KEY = attrgetter("sentence_index", "split.tokens")


def evaluate_model(
    model: NuggetModel,
    examples: Sequence[LabeledExample],
    gold: Corpus,
    threshold: float = 0.5,
    span_only: bool = False,
) -> PRFReport:
    return score(predict_examples(model, examples, threshold), gold, span_only)


# ---------------------------------------------------------------------------
# Ablation protocol
# ---------------------------------------------------------------------------


@dataclass
class AblationCell:
    cell: str
    use_branch: bool
    report: PRFReport | None
    error: str | None = None

    @property
    def label(self) -> str:
        return f"{self.cell.upper()} {'+branch' if self.use_branch else '-branch'}"


@dataclass
class AblationGrid:
    cells: list[AblationCell]

    def get(self, cell: str, use_branch: bool) -> AblationCell:
        for c in self.cells:
            if c.cell == cell and c.use_branch == use_branch:
                return c
        raise KeyError((cell, use_branch))

    def format_table(self) -> str:
        lines = [f"{'Configuration':<16} {'P':>7} {'R':>7} {'F1':>7}"]
        lines.append("-" * 40)
        for c in self.cells:
            if c.report is None:
                lines.append(f"{c.label:<16} failed: {c.error}")
            else:
                r = c.report
                lines.append(
                    f"{c.label:<16} {100 * r.precision:7.2f} "
                    f"{100 * r.recall:7.2f} {100 * r.f1:7.2f}"
                )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "cells": [
                {
                    "cell": c.cell,
                    "use_branch": c.use_branch,
                    "report": c.report.as_dict() if c.report else None,
                    "error": c.error,
                }
                for c in self.cells
            ]
        }


def run_ablation(
    train_corpus: Corpus,
    dev_corpus: Corpus,
    base_cfg,
    labels,
    paraphrase_path=None,
    pretrained=None,
) -> AblationGrid:
    """Train the four {LSTM, GRU} x {+branch, -branch} configurations.

    All four runs share the base config's seed, data and pretrained word
    vectors (a word -> vector dict, as `train_model` takes). A cell reports
    its training log's best dev score. A failed cell is recorded with its
    error; the remaining cells still run.
    """
    from .training import train_model

    _, train_ex, dev_ex, vocab = build_datasets(
        train_corpus, dev_corpus, labels, base_cfg.max_nugget_len, paraphrase_path
    )

    grid = AblationGrid(cells=[])
    for cell in ("lstm", "gru"):
        for use_branch in (True, False):
            cfg = replace(base_cfg, cell=cell, use_branch=use_branch)
            try:
                model, log = train_model(
                    cfg, train_ex, dev_ex, dev_corpus, vocab, labels, pretrained
                )
                report = log.epochs[log.best_epoch - 1].dev
                if report is None:  # no dev examples: no model runs
                    report = evaluate_model(model, dev_ex, dev_corpus, cfg.threshold)
                grid.cells.append(AblationCell(cell, use_branch, report))
            except FBRNNError as e:
                grid.cells.append(AblationCell(cell, use_branch, None, error=str(e)))
    return grid
