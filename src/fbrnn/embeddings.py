"""Trainable word and branch embedding tables.

The word table maps the lowercased training vocabulary (plus a shared UNK
row) to trainable rows, optionally initialized from a word2vec-format text
file. The branch table holds exactly three rows, one per relative position
of a token: left context, nugget span, right context. A token's model input
is [word_row ; branch_row]; ablation runs drop the branch part entirely. So
a branch's input depends only on its words: given its tokens' word rows
(a minibatch's examples concatenated in example order), the embedder
gathers one (U, d) matrix of its U distinct words' inputs and each token's
index into it. The gradient comes back per distinct row, already summed
over the tokens that read it, so each table row it touches is added to
once.

Both tables live in the model's ParamStore, so their rows receive
gradients and are updated during training like any other weight.
"""

from __future__ import annotations

from enum import IntEnum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, DataError
from .fileio import text_lines
from .numerics import ParamSpec, ParamStore, ParamTensor, Rng, init_uniform_scaled

__all__ = [
    "UNK",
    "Branch",
    "WordTable",
    "Embedder",
    "load_pretrained",
]

UNK = "<unk>"


class Branch(IntEnum):
    LEFT = 0
    NUGGET = 1
    RIGHT = 2


def load_pretrained(path: str | Path, expected_dim: int) -> dict[str, np.ndarray]:
    """Read a word2vec text-format file: header `V d`, then `word v_1 .. v_d`.

    Rejects a header dimension different from `expected_dim`, malformed
    lines and NaN/Inf values (with their line number) and vector counts
    that disagree with the header. Binary word2vec files are not supported.
    """
    vectors: dict[str, np.ndarray] = {}
    with text_lines(path, "embedding file") as lines:
        first = next(lines, None)
        if first is None:
            raise DataError(f"{path}: empty embedding file")
        header = first[2].split()
        if len(header) != 2 or not all(p.isdecimal() for p in header):
            raise DataError(f"{path}:1: header must be 'vocab_size dim'")
        count, dim = int(header[0]), int(header[1])
        if dim != expected_dim:
            raise DataError(f"{path}:1: embedding dimension {dim} != configured {expected_dim}")
        for _, where, line in lines:
            if not line.strip():
                continue
            parts = line.rstrip().split(" ")
            if len(parts) != dim + 1:
                raise DataError(
                    f"{where}: expected word plus {dim} values, got {len(parts)} fields")
            word = parts[0]
            if word in vectors:
                raise DataError(f"{where}: duplicate word {word!r}")
            try:
                vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
            except ValueError as e:
                raise DataError(f"{where}: non-numeric value: {e}") from e
            if not np.isfinite(vec).all():
                raise DataError(f"{where}: non-finite value in the vector of {word!r}")
            vectors[word] = vec
    if len(vectors) != count:
        raise DataError(
            f"{path}: header declares {count} vectors but file has {len(vectors)}"
        )
    return vectors


class WordTable:
    """Vocabulary -> trainable embedding rows; row 0 is the shared UNK."""

    def __init__(
        self,
        vocab: dict[str, int],
        tensor: ParamTensor,
        pretrained_hits: int = 0,
        oov_words: tuple[str, ...] = (),
    ) -> None:
        self.vocab = vocab
        self.tensor = tensor
        self.pretrained_hits = pretrained_hits
        self.oov_words = oov_words

    @staticmethod
    def spec(words: list[str], dim: int) -> ParamSpec:
        """The declaration of the table of an ordered word list (UNK first):
        `word_emb`, one row per word, row-tracked."""
        if not words or words[0] != UNK:
            raise ConfigurationError("word list must start with the UNK row")
        return ParamSpec("word_emb", (len(words), dim), track_rows=True)

    @classmethod
    def build(
        cls,
        words: list[str],
        dim: int,
        rng: Rng | None,
        store: ParamStore,
        pretrained: dict[str, np.ndarray] | None = None,
    ) -> "WordTable":
        """The table `spec(words, dim)` declared in `store`, for an ordered
        word list (UNK first, no duplicates).

        The full matrix is drawn from the scaled-uniform initializer into
        the store's view first, then rows found in `pretrained` are
        overwritten, so the rng stream does not depend on pretrained
        coverage. A file entry writes the row of its lowercased word unless
        that row is UNK's or an earlier entry wrote it.
        """
        vocab = {w: i for i, w in enumerate(words)}
        if len(vocab) != len(words):
            raise ConfigurationError("duplicate words in vocabulary")
        tensor = store["word_emb"]
        init_uniform_scaled(tensor.values, rng)
        if pretrained is None:
            return cls(vocab, tensor)
        written = set()  # rows taken from the file; never row 0, the UNK
        for w, vec in pretrained.items():
            i = vocab.get(w.lower(), 0)
            if i and i not in written:
                tensor.values[i] = vec
                written.add(i)
        oov = tuple(w for i, w in enumerate(words) if i and i not in written)
        return cls(vocab, tensor, len(written), oov)

    @property
    def words(self) -> list[str]:
        return list(self.vocab)

    def rows(self, words: Iterable[str]) -> list[int]:
        """The row index of each word, lowercased; unknown words map to UNK."""
        return [self.vocab.get(w.lower(), 0) for w in words]


class Embedder:
    """Assembles a branch's distinct input rows and routes their gradients
    back; `branch` is the branch table, one row per `Branch`, or None."""

    def __init__(self, word: WordTable, branch: ParamTensor | None) -> None:
        if branch is not None and branch.shape[0] != 3:
            raise ConfigurationError(f"branch table must have 3 rows, got {branch.shape}")
        self.word = word
        self.branch = branch

    @property
    def input_dim(self) -> int:
        return self.word.tensor.shape[1] + (0 if self.branch is None else self.branch.shape[1])

    def assemble_input(
        self, rows: Sequence[int], branch: Branch
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (U, input_dim) input rows of the U distinct words among a
        branch's N word rows (`WordTable.rows`), those words' rows in order of
        first use, and each token's index into them. Row u is [word_row ;
        branch_row], or the word row alone when branch embeddings are disabled."""
        slot = {row: u for u, row in enumerate(dict.fromkeys(rows))}
        words = np.fromiter(slot, dtype=np.intp, count=len(slot))
        index = np.array([slot[row] for row in rows], dtype=np.intp)
        if self.branch is None:
            return self.word.tensor.values[words], words, index
        d_w = self.word.tensor.shape[1]
        x = np.empty((len(words), d_w + self.branch.shape[1]))
        self.word.tensor.values.take(words, axis=0, out=x[:, :d_w])
        x[:, d_w:] = self.branch.values[branch]
        return x, words, index

    def accumulate_grad(self, words: np.ndarray, branch: Branch, d_inputs: np.ndarray) -> None:
        """Add the (U, input_dim) gradients of a branch's distinct input rows
        (`assemble_input`) to the table rows. Each row of `d_inputs` is
        already the sum over the tokens that read it
        (`BranchEncoder.backprop`), so each distinct word row is added to
        once, by `ParamTensor.add_row_grads`, which marks it reached (see
        `ParamStore`). The branch row receives the column sum of the branch
        part."""
        d_w = self.word.tensor.shape[1]
        self.word.tensor.add_row_grads(words, d_inputs[:, :d_w])
        if self.branch is not None:
            self.branch.grad[branch] += d_inputs[:, d_w:].sum(axis=0)
