"""Tokenized corpora with gold event-nugget annotations.

Data model (Token / Sentence / GoldNugget / Corpus), the JSON-lines disk
format, label-set management for ACE-style (34-class) and ERE-style
(39-class) schemas, deterministic train/dev splitting, and the synthetic
corpus generators the test suite runs on.

POS tags use the Penn Treebank tagset (DT, JJ, NN, NNS, NNP, RB, VBD, VBN,
IN, RP, ...). Tags are carried as input data and never computed here;
synthetic corpora supply them from their templates.

Disk format, one sentence per line:

    {"tokens":[{"t":"broken","pos":"VBN"},...],
     "nuggets":[{"start":4,"end":5,"types":["Conflict.Attack"]}]}

Label-set files are a JSON array of event-type strings; the reserved
non-event class is implicit and must not appear in the file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import ConfigurationError, DataError
from .fileio import (
    check, json_lines, object_kind, read_fields, read_json, text_lines, write_text_atomic,
)
from .numerics import Rng

__all__ = [
    "NON_EVENT_LABEL",
    "Token",
    "GoldNugget",
    "Sentence",
    "Corpus",
    "LabelSet",
    "load_label_set",
    "read_span",
    "save_label_set",
    "load_corpus",
    "save_corpus",
    "vocabulary_of",
    "split_corpus",
    "EventTemplate",
    "SyntheticSpec",
    "make_synthetic_corpus",
    "default_synthetic_spec",
    "make_positional_corpus",
    "POSITIONAL_EVENT_TYPE",
]

NON_EVENT_LABEL = "NON_EVENT"


@dataclass(frozen=True)
class Token:
    text: str
    pos: str | None = None


@dataclass(frozen=True)
class GoldNugget:
    """Contiguous token span (inclusive indices) with >= 1 event types.

    More than one type encodes a multi-label mention.
    """

    start: int
    end: int
    types: tuple[str, ...]


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]
    nuggets: tuple[GoldNugget, ...] = ()

    def __len__(self) -> int:
        return len(self.tokens)

    def texts(self) -> tuple[str, ...]:
        return tuple(t.text for t in self.tokens)


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[Sentence, ...]

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)

    def __getitem__(self, i: int) -> Sentence:
        return self.sentences[i]


class LabelSet:
    """Ordered event-type labels plus the reserved non-event class.

    The non-event class always sits at class index 0, so the total class
    count is len(event_types) + 1: e.g. 33 ACE subtypes -> 34 classes,
    38 ERE subtypes -> 39 classes.
    """

    NON_EVENT_INDEX = 0

    def __init__(self, event_types: Iterable[str]) -> None:
        types = tuple(event_types)
        if not types:
            raise ConfigurationError("label set needs at least one event type")
        if len(set(types)) != len(types):
            raise ConfigurationError("duplicate labels in label set")
        blank = next((t for t in types if not t.strip()), None)
        if blank is not None:
            raise ConfigurationError(f"event type {blank!r} is an empty or blank name")
        if NON_EVENT_LABEL in types:
            raise ConfigurationError(
                f"{NON_EVENT_LABEL!r} is reserved and must not be listed"
            )
        self.event_types: tuple[str, ...] = types
        self._index = {t: i + 1 for i, t in enumerate(types)}

    @property
    def n_classes(self) -> int:
        return len(self.event_types) + 1

    def __contains__(self, type_name: str) -> bool:
        return type_name in self._index

    def class_index(self, type_name: str) -> int:
        """Class index in [1, n_classes) for an event type."""
        try:
            return self._index[type_name]
        except KeyError:
            raise DataError(f"unknown event type {type_name!r}") from None

    def type_at(self, class_index: int) -> str | None:
        """Inverse of class_index; None for the non-event class."""
        if class_index == self.NON_EVENT_INDEX:
            return None
        return self.event_types[class_index - 1]

    def type_offset(self, type_name: str) -> int:
        """0-based position among event types (for the multi-label head)."""
        return self.class_index(type_name) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LabelSet) and self.event_types == other.event_types

    def __repr__(self) -> str:
        return f"LabelSet({len(self.event_types)} event types)"


def load_label_set(path: str | Path) -> LabelSet:
    try:
        return LabelSet(check(read_json(path, "label file"), list[str], f"{path}: label file"))
    except ConfigurationError as e:
        raise DataError(f"{path}: {e}") from e


def save_label_set(labels: LabelSet, path: str | Path) -> None:
    write_text_atomic(path, json.dumps(list(labels.event_types), indent=0) + "\n")


# ---------------------------------------------------------------------------
# JSON-lines corpus IO
# ---------------------------------------------------------------------------


_SPAN = object_kind("", ("start", int), ("end", int), ("types", list[str]))
_LINE = object_kind("line", ("tokens", list), ("nuggets", list, []))
_TOKEN = object_kind("", ("t", str), ("pos", str | None, None))


def read_span(obj: object, n_tokens: int, labels: LabelSet, where: str):
    """(start, end, types) of a gold nugget or a prediction: integers with
    0 <= start <= end < `n_tokens`, and a non-empty array of `labels`' types."""
    start, end, types = read_fields(obj, _SPAN, where)
    if not 0 <= start <= end < n_tokens:
        raise DataError(f"{where}: span ({start},{end}) out of range for {n_tokens} tokens")
    if not types:
        raise DataError(f"{where}: field 'types' must be non-empty")
    for t in types:
        if t not in labels:
            raise DataError(f"{where}: unknown event type {t!r}")
    return start, end, tuple(types)


def _parse_sentence(obj: object, labels: LabelSet, where: str) -> Sentence:
    raw_tokens, raw_nuggets = read_fields(obj, _LINE, where)
    if not raw_tokens:
        raise DataError(f"{where}: field 'tokens' must be a non-empty array")
    tokens = []
    for k, tok in enumerate(raw_tokens):
        at = f"{where}: token {k}"
        text, pos = read_fields(tok, _TOKEN, at)
        if not text:
            raise DataError(f"{at}: field 't' must be a non-empty string")
        tokens.append(Token(text, pos))
    nuggets = (GoldNugget(*read_span(ng, len(tokens), labels, f"{where}: nugget {k}"))
               for k, ng in enumerate(raw_nuggets))
    return Sentence(tuple(tokens), tuple(nuggets))


def load_corpus(path: str | Path, labels: LabelSet) -> Corpus:
    with text_lines(path, "corpus") as lines:
        return Corpus(tuple(_parse_sentence(obj, labels, where)
                            for where, obj in json_lines(lines)))


def _sentence_to_obj(s: Sentence) -> dict:
    tokens = [
        {"t": t.text} if t.pos is None else {"t": t.text, "pos": t.pos}
        for t in s.tokens
    ]
    nuggets = [
        {"start": n.start, "end": n.end, "types": list(n.types)} for n in s.nuggets
    ]
    return {"tokens": tokens, "nuggets": nuggets}


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    lines = [json.dumps(_sentence_to_obj(s)) for s in corpus]
    write_text_atomic(path, "".join(line + "\n" for line in lines))


def vocabulary_of(corpus: Corpus) -> list[str]:
    """Sorted lowercased surface vocabulary of a corpus."""
    return sorted({t.text.lower() for s in corpus for t in s.tokens})


def split_corpus(
    corpus: Corpus, dev_fraction: float, rng: Rng
) -> tuple[Corpus, Corpus]:
    """Deterministic (train, dev) split by sentence.

    Sentences are shuffled under `rng`; the dev part takes round(n * f) of
    them. Both halves keep their original relative order.
    """
    if not 0.0 < dev_fraction < 1.0:
        raise ConfigurationError(
            f"dev_fraction must be in (0, 1), got {dev_fraction}"
        )
    n = len(corpus)
    order = list(range(n))
    rng.shuffle(order)
    n_dev = int(round(n * dev_fraction))
    dev_idx = set(order[:n_dev])
    train = tuple(s for i, s in enumerate(corpus) if i not in dev_idx)
    dev = tuple(s for i, s in enumerate(corpus) if i in dev_idx)
    return Corpus(train), Corpus(dev)


# ---------------------------------------------------------------------------
# Synthetic corpora
# ---------------------------------------------------------------------------


Phrase = tuple[Token, ...]


@dataclass(frozen=True)
class EventTemplate:
    event_type: str
    patterns: tuple[Phrase, ...]  # the trigger's surface forms
    weight: float = 1.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Grammar for generated sentences.

    Positive sentences are subject + trigger + object + tail with the gold
    nugget covering the trigger. Negative sentences mention a trigger's
    surface form inside a frame (prefix, suffix) with no gold annotation.
    """

    templates: tuple[EventTemplate, ...]
    subjects: tuple[Phrase, ...]
    objects: tuple[Phrase, ...]
    tails: tuple[Phrase, ...]
    negative_frames: tuple[tuple[Phrase, Phrase], ...] = ()
    negative_rate: float = 0.0
    n_sentences: int = 200

    def label_set(self) -> LabelSet:
        return LabelSet(t.event_type for t in self.templates)


def make_synthetic_corpus(spec: SyntheticSpec, rng: Rng) -> Corpus:
    """Generate a corpus from `spec`, deterministic under `rng`."""
    if not spec.templates:
        raise ConfigurationError("synthetic spec has no event templates")
    if not spec.subjects or not spec.objects or not spec.tails:
        raise ConfigurationError("synthetic spec needs subjects, objects and tails")
    if spec.n_sentences < 0:
        raise ConfigurationError(f"sentence count must be >= 0, got {spec.n_sentences}")
    if not 0.0 <= spec.negative_rate <= 1.0:
        raise ConfigurationError(f"negative rate must be in [0, 1], got {spec.negative_rate}")
    empty = next((t.event_type for t in spec.templates if not all(t.patterns)), None)
    if empty is not None:
        raise ConfigurationError(f"event template {empty!r} has an empty trigger phrase")
    weights = [t.weight for t in spec.templates]
    sentences = []
    for _ in range(spec.n_sentences):
        template = spec.templates[rng.weighted_index(weights)]
        trigger = rng.choice(template.patterns)
        negative = (
            bool(spec.negative_frames)
            and spec.negative_rate > 0.0
            and rng.random() < spec.negative_rate
        )
        if negative:
            prefix, suffix = rng.choice(spec.negative_frames)
            tokens = prefix + trigger + suffix
            sentences.append(Sentence(tokens, ()))
        else:
            subject = rng.choice(spec.subjects)
            obj = rng.choice(spec.objects)
            tail = rng.choice(spec.tails)
            tokens = subject + trigger + obj + tail
            start = len(subject)
            end = start + len(trigger) - 1
            nugget = GoldNugget(start, end, (template.event_type,))
            sentences.append(Sentence(tokens, (nugget,)))
    return Corpus(tuple(sentences))


def _phrase(*pairs: tuple[str, str]) -> Phrase:
    return tuple(Token(w, p) for w, p in pairs)


def default_synthetic_spec(
    n_sentences: int = 200, negative_rate: float = 0.25
) -> SyntheticSpec:
    """The stock five-type grammar used by the test suite.

    Every multi-token trigger is a verb followed by particles/prepositions
    (POS RP/IN), so the candidate expansion heuristic can recover every
    gold span.
    """
    templates = (
        EventTemplate(
            "Conflict.Attack",
            (
                _phrase(("attacked", "VBD")),
                _phrase(("raided", "VBD")),
                _phrase(("stormed", "VBD")),
                _phrase(("broke", "VBD"), ("into", "IN")),
            ),
        ),
        EventTemplate(
            "Movement.Transport",
            (
                _phrase(("departed", "VBD")),
                _phrase(("traveled", "VBD")),
                _phrase(("set", "VBD"), ("off", "RP")),
            ),
        ),
        EventTemplate(
            "Contact.Meet",
            (
                _phrase(("met", "VBD")),
                _phrase(("gathered", "VBD")),
                _phrase(("convened", "VBD")),
            ),
        ),
        EventTemplate(
            "Transaction.Transfer",
            (
                _phrase(("sold", "VBD")),
                _phrase(("purchased", "VBD")),
                _phrase(("handed", "VBD"), ("over", "RP")),
            ),
        ),
        EventTemplate(
            "Justice.Arrest",
            (
                _phrase(("arrested", "VBD")),
                _phrase(("detained", "VBD")),
                _phrase(("locked", "VBD"), ("up", "RP")),
            ),
        ),
    )
    subjects = (
        _phrase(("the", "DT"), ("soldiers", "NNS")),
        _phrase(("the", "DT"), ("rebels", "NNS")),
        _phrase(("the", "DT"), ("officers", "NNS")),
        _phrase(("a", "DT"), ("convoy", "NN")),
        _phrase(("the", "DT"), ("delegates", "NNS")),
        _phrase(("local", "JJ"), ("officials", "NNS")),
        _phrase(("the", "DT"), ("workers", "NNS")),
        _phrase(("several", "JJ"), ("guards", "NNS")),
    )
    objects = (
        _phrase(("the", "DT"), ("village", "NN")),
        _phrase(("the", "DT"), ("compound", "NN")),
        _phrase(("a", "DT"), ("warehouse", "NN")),
        _phrase(("the", "DT"), ("suspects", "NNS")),
        _phrase(("the", "DT"), ("crowd", "NN")),
        _phrase(("a", "DT"), ("shipment", "NN")),
        # Preposition-initial object: expansion may propose a spurious
        # verb+IN span here, giving the model hard negative spans.
        _phrase(("for", "IN"), ("the", "DT"), ("border", "NN")),
    )
    tails = (
        (),
        _phrase(("yesterday", "NN")),
        _phrase(("last", "JJ"), ("November", "NNP")),
        _phrase(("on", "IN"), ("Friday", "NNP")),
    )
    negative_frames = (
        (_phrase(("the", "DT"), ("word", "NN")),
         _phrase(("appeared", "VBD"), ("in", "IN"), ("print", "NN"))),
        (_phrase(("reporters", "NNS"), ("mentioned", "VBD"), ("the", "DT"), ("term", "NN")),
         _phrase(("again", "RB"),)),
        (_phrase(("the", "DT"), ("students", "NNS"), ("spelled", "VBD")),
         _phrase(("aloud", "RB"),)),
    )
    return SyntheticSpec(
        templates=templates,
        subjects=subjects,
        objects=objects,
        tails=tails,
        negative_frames=negative_frames,
        negative_rate=negative_rate,
        n_sentences=n_sentences,
    )


POSITIONAL_EVENT_TYPE = "Lead.Strike"

_POSITIONAL_FILLERS = (
    Token("the", "DT"),
    Token("old", "JJ"),
    Token("tower", "NN"),
    Token("bell", "NN"),
    Token("crew", "NN"),
    Token("again", "RB"),
    Token("quietly", "RB"),
    Token("twice", "RB"),
    Token("hard", "RB"),
)


def make_positional_corpus(n_sentences: int, rng: Rng) -> Corpus:
    """Corpus where span position is the only signal.

    Every sentence contains the trigger word twice; only the first
    occurrence is a gold event. A classifier must therefore decide from the
    candidate's position (is there another trigger to its left?) rather
    than from the trigger's surface form. Label set: one event type.
    """
    if n_sentences < 0:
        raise ConfigurationError(f"sentence count must be >= 0, got {n_sentences}")
    sentences = []
    for _ in range(n_sentences):
        n_pre = rng.randint(4)
        n_mid = 1 + rng.randint(3)
        n_tail = rng.randint(3)
        pick = lambda k: tuple(rng.choice(_POSITIONAL_FILLERS) for _ in range(k))
        trigger = Token("struck", "VBD")
        tokens = pick(n_pre) + (trigger,) + pick(n_mid) + (trigger,) + pick(n_tail)
        nugget = GoldNugget(n_pre, n_pre, (POSITIONAL_EVENT_TYPE,))
        sentences.append(Sentence(tokens, (nugget,)))
    return Corpus(tuple(sentences))
