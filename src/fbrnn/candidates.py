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
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

from .corpus import Corpus, GoldNugget, LabelSet, Sentence, vocabulary_of
from .errors import ConfigurationError, DataError
from .fileio import object_kind, read_fields, read_json, text_lines, write_text_atomic

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
    "corpus_candidates",
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


_LEXICON = object_kind("", ("entries", dict))
_COUNTS = object_kind("", ("gold", int, 0), ("paraphrase", int, 0))  # of one entry


class TriggerLexicon:
    """Lowercased candidate-trigger tokens with per-source counts."""

    def __init__(self) -> None:
        self._counts: dict[str, list[int]] = {}  # word -> [gold, paraphrase]

    def add_gold(self, word: str) -> None:
        self._counts.setdefault(word.lower(), [0, 0])[0] += 1

    def add_paraphrase(self, word: str) -> None:
        self._counts.setdefault(word.lower(), [0, 0])[1] += 1

    @property
    def entries(self) -> frozenset[str]:
        return frozenset(self._counts)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def counts(self, word: str) -> tuple[int, int]:
        """(gold count, paraphrase count) for an entry."""
        return tuple(self._counts.get(word.lower(), (0, 0)))

    def to_dict(self) -> dict:
        return {
            "entries": {
                w: {"gold": gold, "paraphrase": para}
                for w, (gold, para) in sorted(self._counts.items())
            }
        }

    @classmethod
    def from_dict(cls, data: object, where: str = "lexicon") -> "TriggerLexicon":
        """The lexicon `to_dict` wrote; `where` names it in errors."""
        (entries,) = read_fields(data, _LEXICON, where)
        lex, spelled = cls(), {}
        for word, counts in entries.items():
            at = f"{where}: entry {word!r}"
            gold, para = read_fields(counts, _COUNTS, at)
            if gold < 0 or para < 0:
                raise DataError(f"{at}: counts must be >= 0, got {counts!r}")
            first = spelled.setdefault(word.lower(), word)
            if first != word:
                raise DataError(f"{where}: entries {first!r} and {word!r} differ only in case")
            if gold or para:  # keep only words that actually carry a source
                lex._counts[word.lower()] = [gold, para]
        return lex


def load_paraphrases(path: str | Path) -> list[tuple[str, str]]:
    """Parse a tab-separated `source<TAB>paraphrase` file; `#` comments."""
    pairs = []
    with text_lines(path, "paraphrase file") as lines:
        for _, where, line in lines:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
                raise DataError(f"{where}: expected 'source<TAB>paraphrase', got {line!r}")
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
    return TriggerLexicon.from_dict(read_json(path, "lexicon"), f"{path}: lexicon")


def extract_single_token_candidates(
    s: Sentence, lex: TriggerLexicon
) -> list[NuggetCandidate]:
    """One length-1 candidate per token whose lowercased text is in the lexicon."""
    entries = lex._counts
    return [NuggetCandidate(i, i) for i, tok in enumerate(s.tokens) if tok.text.lower() in entries]


def expand_candidates(
    s: Sentence, cands: Sequence[NuggetCandidate], max_len: int = 3
) -> list[NuggetCandidate]:
    """Grow verbal single-token candidates over trailing particles/prepositions.

    Returns a superset of the input (deduplicated, sorted by span). Requires
    POS tags on the sentence; corpora without tags must skip expansion by
    running with max_nugget_len = 1.
    """
    check_max_nugget_len(max_len)
    untagged = next((i for i, tok in enumerate(s.tokens) if tok.pos is None), None)
    if untagged is not None:
        raise DataError(
            f"token {untagged} {s.tokens[untagged].text!r} of the sentence starting "
            f"{' '.join(s.texts()[:6])!r} has no POS tag; supply tags or disable expansion "
            "(max_nugget_len = 1)"
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
    return [c if (types := by_span.get((c.start, c.end), ())) == c.types  # kept, not rebuilt
            else NuggetCandidate(c.start, c.end, types) for c in cands]


def split_branches(s: Sentence, c: NuggetCandidate) -> BranchSplit:
    """Exact three-way partition: left context, nugget span, right context."""
    return _split(s.texts(), c)


def _split(texts: tuple[str, ...], c: NuggetCandidate) -> BranchSplit:
    """`split_branches` of the sentence whose token texts are `texts`."""
    if not 0 <= c.start <= c.end < len(texts):
        raise DataError(
            f"candidate span ({c.start},{c.end}) out of range for sentence "
            f"of {len(texts)} tokens"
        )
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


def corpus_candidates(
    corpus: Corpus, lex: TriggerLexicon, labels: LabelSet, max_nugget_len: int = 3
) -> Iterator[tuple[int, Sentence, list[NuggetCandidate]]]:
    """(index, sentence, its `labeled_candidates`) for each sentence of
    `corpus`, in order. A sentence's DataError names its index."""
    check_max_nugget_len(max_nugget_len)  # an empty corpus would never check it
    for i, sentence in enumerate(corpus):
        try:
            cands = labeled_candidates(sentence, lex, labels, max_nugget_len)
        except DataError as e:
            raise DataError(f"sentence {i}: {e}") from e
        yield i, sentence, cands


def build_examples(corpus: Corpus, lex: TriggerLexicon, labels: LabelSet,
                   max_nugget_len: int = 3) -> list[LabeledExample]:
    """Labeled, branch-split classification instances for a whole corpus."""
    examples = []
    for i, sentence, cands in corpus_candidates(corpus, lex, labels, max_nugget_len):
        texts = sentence.texts()  # once per sentence; each candidate slices it
        examples += [LabeledExample(i, cand, _split(texts, cand)) for cand in cands]
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
