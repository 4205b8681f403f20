"""Seeded workload definitions and input generation.

Every input a run feeds to fbrnn (corpora, candidate examples, vocabulary
and training configuration) is derived here from the workload seed, so
the same seed gives the same inputs and the program sees only the
generated data.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

from fbrnn import candidates, corpus, training
from fbrnn.corpus import Corpus, GoldNugget, Sentence
from fbrnn.numerics import Rng

# Default-grammar sentences joined into one long sentence. Four gives
# about 26 tokens and 5.4 candidates per sentence, close to newswire.
LONG_JOIN = 4
MAX_NUGGET_LEN = 3
CLIP_NORM = 5.0
# Expected candidates per generated sentence (default grammar), used only
# to size the corpus so that it yields the fixed number of examples.
_CANDIDATES_PER_SHORT_SENTENCE = 1.38


@dataclass(frozen=True)
class Workload:
    """One fixed set of inputs; sizes are counts before any --scale.

    train_examples: exact number of labeled candidates trained on.
    dev_sentences: held-out sentences for dev F1, bulk and online inference.
    infer_sentences: extra sentences for bulk and online inference; 0 means
        the dev set is the inference set.
    vocab_rows: word-table rows including corpus words and UNK; None keeps
        the corpus vocabulary alone.
    online_samples: minimum number of per-sentence inference calls per pass.
    passes: checkpoint and inference passes per round, spread over the run
        so that each checkpoint load, bulk slice and sentence is timed
        several times. The first pass saves the checkpoint; later passes
        reload the same file.
    """

    name: str
    why: str
    long_sentences: bool
    train_examples: int
    dev_sentences: int
    infer_sentences: int
    vocab_rows: int | None
    batch_size: int
    lr: float
    online_samples: int = 1000
    passes: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-vocab20k",
            why=(
                "per-example training with a 20,000-row word table: dense Adam "
                "over 6M word-table entries dominates, checkpoint is ~138 MB"
            ),
            long_sentences=False,
            train_examples=160,
            dev_sentences=600,
            infer_sentences=0,
            vocab_rows=20000,
            batch_size=1,
            lr=4e-3,
            passes=2,
        ),
        Workload(
            name="train-minibatch-long",
            why=(
                "batch-32 training on 26-token sentences with a small vocabulary: "
                "branch encoders dominate, the optimizer is ~2%"
            ),
            long_sentences=True,
            train_examples=1024,
            dev_sentences=48,
            infer_sentences=300,
            vocab_rows=None,
            batch_size=32,
            lr=1e-2,
            online_samples=600,
        ),
        Workload(
            name="infer-long",
            why=(
                "forward-only prediction over 1,000 long sentences, in bulk and one "
                "sentence per call; training here is a short warm-up"
            ),
            long_sentences=True,
            train_examples=384,
            dev_sentences=48,
            infer_sentences=1000,
            vocab_rows=None,
            batch_size=32,
            lr=1e-2,
        ),
    )
}


@dataclass
class Inputs:
    """Everything one run trains and predicts on."""

    labels: corpus.LabelSet
    train: Corpus
    dev: Corpus
    infer: Corpus
    lexicon: candidates.TriggerLexicon
    train_examples: list
    dev_examples: list
    infer_examples: list
    vocab: list[str]
    config: training.TrainConfig


def _join_long(short: Corpus) -> Corpus:
    """Join each LONG_JOIN consecutive sentences, shifting gold offsets."""
    joined = []
    for i in range(0, len(short) - LONG_JOIN + 1, LONG_JOIN):
        tokens: tuple = ()
        nuggets: tuple = ()
        for s in short.sentences[i : i + LONG_JOIN]:
            off = len(tokens)
            tokens += s.tokens
            nuggets += tuple(
                GoldNugget(n.start + off, n.end + off, n.types) for n in s.nuggets
            )
        joined.append(Sentence(tokens, nuggets))
    return Corpus(tuple(joined))


def _sentences(n: int, long: bool, rng: Rng) -> Corpus:
    per = LONG_JOIN if long else 1
    spec = corpus.default_synthetic_spec(n * per)
    generated = corpus.make_synthetic_corpus(spec, rng)
    return _join_long(generated) if long else generated


def _filler_words(count: int, taken: set[str], rng: Rng) -> list[str]:
    """Distinct seeded stand-ins for newswire words no example touches."""
    words: list[str] = []
    seen = set(taken)
    while len(words) < count:
        w = f"w{rng.next_u64():016x}"
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def scaled(n: int, scale: float) -> int:
    return max(1, int(round(n * scale)))


def generate(w: Workload, seed: int, scale: float = 1.0) -> Inputs:
    """Build the inputs of workload `w` from `seed`.

    The training corpus is generated with a margin and cut at the first
    sentence prefix that yields `train_examples` candidates, so every seed
    trains on exactly that many examples.
    """
    rng = Rng(seed)
    labels = corpus.default_synthetic_spec().label_set()
    n_train = scaled(w.train_examples, scale)
    per_sentence = _CANDIDATES_PER_SHORT_SENTENCE * (LONG_JOIN if w.long_sentences else 1)
    pool = _sentences(math.ceil(1.5 * n_train / per_sentence) + 4, w.long_sentences, rng)
    dev = _sentences(scaled(w.dev_sentences, scale), w.long_sentences, rng)
    infer = (
        _sentences(scaled(w.infer_sentences, scale), w.long_sentences, rng)
        if w.infer_sentences
        else dev
    )

    # Smallest prefix of the pool whose examples reach n_train.
    lex_pool = candidates.build_trigger_lexicon(pool)
    count = 0
    cut = len(pool)
    for i, s in enumerate(pool):
        count += len(candidates.labeled_candidates(s, lex_pool, labels, MAX_NUGGET_LEN))
        if count >= n_train:
            cut = i + 1
            break
    if count < n_train:
        raise RuntimeError(f"{w.name}: generated pool yields only {count} examples")
    train = Corpus(pool.sentences[:cut])

    lexicon = candidates.build_trigger_lexicon(train)
    train_examples = candidates.build_examples(train, lexicon, labels, MAX_NUGGET_LEN)[:n_train]
    dev_examples = candidates.build_examples(dev, lexicon, labels, MAX_NUGGET_LEN)
    infer_examples = (
        candidates.build_examples(infer, lexicon, labels, MAX_NUGGET_LEN)
        if infer is not dev
        else dev_examples
    )
    vocab = corpus.vocabulary_of(train)
    if w.vocab_rows is not None:
        rows = scaled(w.vocab_rows, scale)
        vocab = vocab + _filler_words(max(0, rows - 1 - len(vocab)), set(vocab), rng)

    config = training.TrainConfig(
        max_epochs=1,
        patience=1,
        batch_size=w.batch_size,
        lr=w.lr,
        clip_norm=CLIP_NORM,
        max_nugget_len=MAX_NUGGET_LEN,
        seed=seed,
    )
    return Inputs(
        labels=labels,
        train=train,
        dev=dev,
        infer=infer,
        lexicon=lexicon,
        train_examples=train_examples,
        dev_examples=dev_examples,
        infer_examples=infer_examples,
        vocab=vocab,
        config=config,
    )


def traffic(inputs: Inputs) -> dict:
    """Traffic properties the generated inputs present to the program."""
    sentences = inputs.train.sentences + inputs.dev.sentences
    if inputs.infer is not inputs.dev:
        sentences += inputs.infer.sentences
    examples = inputs.train_examples + inputs.dev_examples
    if inputs.infer is not inputs.dev:
        examples = examples + inputs.infer_examples
    return {
        "train_sentences": len(inputs.train),
        "dev_sentences": len(inputs.dev),
        "infer_sentences": len(inputs.infer),
        "train_examples": len(inputs.train_examples),
        "dev_examples": len(inputs.dev_examples),
        "infer_examples": len(inputs.infer_examples),
        "tokens_per_sentence": statistics.fmean(len(s) for s in sentences),
        "candidates_per_sentence": len(examples) / len(sentences),
        "gold_aligned_ratio": sum(1 for e in examples if e.candidate.types) / len(examples),
        "vocab_rows": len(set(inputs.vocab) | {"<unk>"}),
        "batch_size": inputs.config.batch_size,
    }
