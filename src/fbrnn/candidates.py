"""High-recall event-candidate generation.

Trigger lexicon built from training gold (head tokens) plus an optional
paraphrase file, single-token extraction, POS-heuristic expansion to
multi-token spans, exact-span gold alignment, and the three-way branch
split consumed by the encoders.

The expansion rule: a single-token candidate whose POS starts with "VB" is
extended rightward while each appended token is tagged RP (particle) or IN
(preposition/subordinator), up to `max_len` tokens total. This recovers
verb+particle nuggets such as "broke into".
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Sequence

from .corpus import Corpus, GoldNugget, LabelSet, Sentence, vocabulary_of
from .errors import ConfigurationError, DataError
from .fileio import read_json, read_utf8, write_text_atomic

__all__ = [
    "TriggerLexicon",
    "NuggetCandidate",
    "BranchSplit",
    "LabeledExample",
    "build_trigger_lexicon",
    "load_paraphrases",
    "extract_single_token_candidates",
    "expand_candidates",
    "align_labels",
    "split_branches",
    "check_max_nugget_len",
    "labeled_candidates",
    "build_examples",
    "build_datasets",
    "save_lexicon",
    "load_lexicon",
]

_EXPANDABLE_POS = ("RP", "IN")


@dataclass(frozen=True)
class NuggetCandidate:
    """Contiguous token span (inclusive). Empty `types` means non-event."""

    start: int
    end: int
    types: tuple[str, ...] = ()

    @property
    def span(self) -> tuple[int, int]:
        return (self.start, self.end)

    def __len__(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class BranchSplit:
    """Three-way sentence partition around a candidate span (token texts)."""

    left: tuple[str, ...]
    nugget: tuple[str, ...]
    right: tuple[str, ...]

    @cached_property
    def tokens(self) -> tuple[str, ...]:
        """The sentence: left + nugget + right, built once per split."""
        return self.left + self.nugget + self.right


@dataclass(frozen=True)
class LabeledExample:
    """One classification instance: a labeled candidate plus its split."""

    sentence_index: int
    candidate: NuggetCandidate
    split: BranchSplit


class TriggerLexicon:
    """Lowercased candidate-trigger tokens with per-source counts."""

    def __init__(self) -> None:
        self._gold: dict[str, int] = {}
        self._paraphrase: dict[str, int] = {}

    def add_gold(self, word: str) -> None:
        w = word.lower()
        self._gold[w] = self._gold.get(w, 0) + 1

    def add_paraphrase(self, word: str) -> None:
        w = word.lower()
        self._paraphrase[w] = self._paraphrase.get(w, 0) + 1

    @property
    def entries(self) -> frozenset[str]:
        return frozenset(self._gold) | frozenset(self._paraphrase)

    def __contains__(self, word: str) -> bool:
        w = word.lower()
        return w in self._gold or w in self._paraphrase

    def __len__(self) -> int:
        return len(self.entries)

    def counts(self, word: str) -> tuple[int, int]:
        """(gold count, paraphrase count) for an entry."""
        w = word.lower()
        return self._gold.get(w, 0), self._paraphrase.get(w, 0)

    def to_dict(self) -> dict:
        return {
            "entries": {
                w: {"gold": self._gold.get(w, 0), "paraphrase": self._paraphrase.get(w, 0)}
                for w in sorted(self.entries)
            }
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TriggerLexicon":
        entries = data.get("entries") if isinstance(data, dict) else None
        if not isinstance(entries, dict):
            raise DataError("lexicon must be a JSON object with an 'entries' mapping")
        lex = cls()
        for word, counts in entries.items():
            gold = counts.get("gold", 0) if isinstance(counts, dict) else None
            para = counts.get("paraphrase", 0) if isinstance(counts, dict) else None
            if not all(type(c) is int and c >= 0 for c in (gold, para)):
                raise DataError(
                    f"lexicon entry {word!r}: expected non-negative integer "
                    f"'gold'/'paraphrase' counts, got {counts!r}"
                )
            lex._gold[word.lower()] = gold
            lex._paraphrase[word.lower()] = para
        # keep only words that actually carry a source
        lex._gold = {w: c for w, c in lex._gold.items() if c > 0}
        lex._paraphrase = {w: c for w, c in lex._paraphrase.items() if c > 0}
        return lex


def load_paraphrases(path: str | Path) -> list[tuple[str, str]]:
    """Parse a tab-separated `source<TAB>paraphrase` file; `#` comments."""
    pairs = []
    for lineno, line in enumerate(read_utf8(path, "paraphrase file").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise DataError(
                f"{path}:{lineno}: expected 'source<TAB>paraphrase', got {line!r}"
            )
        pairs.append((parts[0].strip(), parts[1].strip()))
    return pairs


def build_trigger_lexicon(
    train: Corpus, paraphrase_path: str | Path | None = None
) -> TriggerLexicon:
    """Lexicon of gold nugget head tokens, optionally grown by paraphrases.

    The head token of a multi-token nugget is its first token. A paraphrase
    pair adds its right side when its left side is already in the lexicon
    (gold entries or paraphrases added by earlier lines).
    """
    lex = TriggerLexicon()
    for sentence in train:
        for nugget in sentence.nuggets:
            lex.add_gold(sentence.tokens[nugget.start].text)
    if paraphrase_path is not None:
        for source, paraphrase in load_paraphrases(paraphrase_path):
            if source in lex:
                lex.add_paraphrase(paraphrase)
    if len(lex) == 0:
        warnings.warn("trigger lexicon is empty (no gold nuggets in corpus)")
    return lex


def save_lexicon(lex: TriggerLexicon, path: str | Path) -> None:
    write_text_atomic(path, json.dumps(lex.to_dict(), indent=1) + "\n")


def load_lexicon(path: str | Path) -> TriggerLexicon:
    data = read_json(path, "lexicon")
    try:
        return TriggerLexicon.from_dict(data)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e


def extract_single_token_candidates(
    s: Sentence, lex: TriggerLexicon
) -> list[NuggetCandidate]:
    """One length-1 candidate per token whose lowercased text is in the lexicon."""
    return [
        NuggetCandidate(i, i)
        for i, tok in enumerate(s.tokens)
        if tok.text.lower() in lex
    ]


def expand_candidates(
    s: Sentence, cands: Sequence[NuggetCandidate], max_len: int = 3
) -> list[NuggetCandidate]:
    """Grow verbal single-token candidates over trailing particles/prepositions.

    Returns a superset of the input (deduplicated, sorted by span). Requires
    POS tags on the sentence; corpora without tags must skip expansion by
    running with max_nugget_len = 1.
    """
    if max_len < 1:
        raise ConfigurationError(f"max_len must be >= 1, got {max_len}")
    if any(tok.pos is None for tok in s.tokens):
        raise DataError(
            "sentence has tokens without POS tags; supply tags or disable "
            "expansion (max_nugget_len = 1)"
        )
    spans = {c.span: c for c in cands}
    for c in cands:
        if len(c) != 1:
            continue
        head_pos = s.tokens[c.start].pos or ""
        if not head_pos.startswith("VB"):
            continue
        j = c.start + 1
        while j < len(s.tokens) and (j - c.start + 1) <= max_len:
            if s.tokens[j].pos not in _EXPANDABLE_POS:
                break
            spans.setdefault((c.start, j), NuggetCandidate(c.start, j))
            j += 1
    return [spans[k] for k in sorted(spans)]


def align_labels(
    cands: Sequence[NuggetCandidate],
    gold: Sequence[GoldNugget],
    labels: LabelSet,
) -> list[NuggetCandidate]:
    """Assign gold type sets to exact-span matches; everything else is non-event.

    Partial overlaps are negatives: the task is span-level. Two gold nuggets
    on the same span are merged into one type set with a warning.
    """
    by_span: dict[tuple[int, int], tuple[str, ...]] = {}
    for g in gold:
        for t in g.types:
            if t not in labels:
                raise DataError(f"gold nugget carries unknown event type {t!r}")
        key = (g.start, g.end)
        if key in by_span:
            merged = by_span[key] + tuple(t for t in g.types if t not in by_span[key])
            warnings.warn(f"duplicate gold span {key}: merged type sets")
            by_span[key] = merged
        else:
            by_span[key] = g.types
    return [replace(c, types=by_span.get(c.span, ())) for c in cands]


def split_branches(s: Sentence, c: NuggetCandidate) -> BranchSplit:
    """Exact three-way partition: left context, nugget span, right context."""
    if not 0 <= c.start <= c.end < len(s.tokens):
        raise DataError(
            f"candidate span ({c.start},{c.end}) out of range for sentence "
            f"of {len(s.tokens)} tokens"
        )
    texts = s.texts()
    return BranchSplit(
        left=texts[: c.start],
        nugget=texts[c.start : c.end + 1],
        right=texts[c.end + 1 :],
    )


def check_max_nugget_len(max_nugget_len: int) -> None:
    if max_nugget_len < 1:
        raise ConfigurationError(f"max_nugget_len must be >= 1, got {max_nugget_len}")


def labeled_candidates(
    s: Sentence,
    lex: TriggerLexicon,
    labels: LabelSet,
    max_nugget_len: int = 3,
) -> list[NuggetCandidate]:
    """Full per-sentence pipeline: extract, optionally expand, align."""
    check_max_nugget_len(max_nugget_len)
    cands = extract_single_token_candidates(s, lex)
    if max_nugget_len > 1:
        cands = expand_candidates(s, cands, max_nugget_len)
    return align_labels(cands, s.nuggets, labels)


def build_examples(
    corpus: Corpus,
    lex: TriggerLexicon,
    labels: LabelSet,
    max_nugget_len: int = 3,
) -> list[LabeledExample]:
    """Labeled, branch-split classification instances for a whole corpus."""
    check_max_nugget_len(max_nugget_len)  # an empty corpus would never check it
    examples = []
    for i, sentence in enumerate(corpus):
        for cand in labeled_candidates(sentence, lex, labels, max_nugget_len):
            examples.append(
                LabeledExample(i, cand, split_branches(sentence, cand))
            )
    return examples


def build_datasets(
    train: Corpus,
    dev: Corpus,
    labels: LabelSet,
    max_nugget_len: int,
    paraphrase_path: str | Path | None,
) -> tuple[TriggerLexicon, list[LabeledExample], list[LabeledExample], list[str]]:
    """(lexicon, train examples, dev examples, vocabulary) for one run.

    The lexicon and the vocabulary come from the training corpus only.
    """
    lexicon = build_trigger_lexicon(train, paraphrase_path)
    return (
        lexicon,
        build_examples(train, lexicon, labels, max_nugget_len),
        build_examples(dev, lexicon, labels, max_nugget_len),
        vocabulary_of(train),
    )
